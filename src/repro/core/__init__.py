"""DINAR — the paper's contribution.

* :class:`~repro.core.dinar.DINAR` — the defense itself (Algorithm 1).
* :func:`~repro.core.dinar.dinar_initialization` — the §4.1
  preliminary phase (per-client sensitivity analysis + distributed
  vote).
* :mod:`~repro.core.sensitivity` — per-layer JS-divergence leakage
  measurement (§3).
* :mod:`~repro.core.consensus` — Byzantine-tolerant broadcast voting.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "consensus": "BroadcastVoting ConsensusResult agree_on_private_layer",
    "dinar": "DINAR InitializationResult dinar_initialization",
    "middleware": "DINARMiddleware",
    "sensitivity": "LayerSensitivity layer_divergences",
})

__all__ = [
    "BroadcastVoting",
    "ConsensusResult",
    "DINAR",
    "DINARMiddleware",
    "InitializationResult",
    "LayerSensitivity",
    "agree_on_private_layer",
    "dinar_initialization",
    "layer_divergences",
]
