"""Benchmark harness: one call = one (dataset, defense, attack) cell of
the paper's evaluation, returning privacy, utility and cost metrics."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "harness": ("ExperimentResult make_model_factory quick_experiment"
                " run_experiment"),
    "reporting": "format_table paper_vs_measured",
})

__all__ = [
    "ExperimentResult",
    "format_table",
    "make_model_factory",
    "paper_vs_measured",
    "quick_experiment",
    "run_experiment",
]
