"""Privacy attacks (MIAs) and defenses.

``attacks`` implements the membership-inference attacks of Shokri et
al. [41] (shadow models) and the loss-threshold attack, plus the AUC
metrics of the paper's Appendix A.  ``defenses`` implements the five
state-of-the-art baselines the paper compares against (LDP, CDP, WDP,
Gradient Compression, Secure Aggregation); DINAR itself lives in
:mod:`repro.core`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "attacks": "attacks",
    "defenses": "defenses",
})

__all__ = ["attacks", "defenses"]
