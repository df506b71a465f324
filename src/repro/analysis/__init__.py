"""Analysis utilities: divergence measures and loss distributions."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "divergence": ("histogram_distribution jensen_shannon_divergence"
                   " js_divergence_from_samples"),
    "leakage_over_time": ("LeakagePoint LeakageTrajectory"
                          " leakage_over_training"),
    "loss_distribution": "LossDistributions loss_distributions",
})

__all__ = [
    "LeakagePoint",
    "LeakageTrajectory",
    "LossDistributions",
    "histogram_distribution",
    "jensen_shannon_divergence",
    "js_divergence_from_samples",
    "leakage_over_training",
    "loss_distributions",
]
