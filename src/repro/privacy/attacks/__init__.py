"""Membership inference attacks and privacy metrics (Appendix A)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "calibrated": "ReferenceCalibratedAttack",
    "features": "FEATURE_NAMES attack_features",
    "gradient": ("LayerGradientAttack layer_gradient_scores"
                 " per_example_layer_gradient_norms"),
    "inversion": "class_inversion_report invert_class inversion_fidelity",
    "metrics": "attack_auc global_model_auc local_models_auc roc_auc",
    "roc": "auc_from_curve roc_curve tpr_at_fpr",
    "shadow": "ShadowAttack",
    "threshold": ("ConfidenceThresholdAttack EntropyThresholdAttack"
                  " LossThresholdAttack"),
})

__all__ = [
    "ConfidenceThresholdAttack",
    "EntropyThresholdAttack",
    "FEATURE_NAMES",
    "LayerGradientAttack",
    "LossThresholdAttack",
    "ReferenceCalibratedAttack",
    "ShadowAttack",
    "attack_auc",
    "attack_features",
    "auc_from_curve",
    "class_inversion_report",
    "global_model_auc",
    "invert_class",
    "inversion_fidelity",
    "layer_gradient_scores",
    "local_models_auc",
    "per_example_layer_gradient_norms",
    "roc_auc",
    "roc_curve",
    "tpr_at_fpr",
]
