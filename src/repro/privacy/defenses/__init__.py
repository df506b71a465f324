"""The five state-of-the-art FL defenses the paper compares against.

DINAR itself lives in :mod:`repro.core.dinar`; ``make_defense`` builds
any defense (including DINAR and the no-defense baseline) by its paper
name, with the paper's §5.2 parameterization as defaults.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.privacy.defenses.base import Defense

__getattr__, __dir__ = lazy_exports(__name__, {
    "accounting": ("PrivacyAccountant advanced_composition"
                   " basic_composition gaussian_sigma"),
    "base": "Defense",
    "cdp": "CentralDP",
    "compression": "GradientCompression",
    "ladp": "LayerwiseDP",
    "ldp": "LocalDP clip_store",
    "secure_aggregation": "SecureAggregation",
    "wdp": "WeakDP",
})

#: The defense registry — the single source of truth for defense
#: names.  The CLI's ``--defense`` choices and ``make_defense`` both
#: derive from it, so a new defense registers exactly once.  Each name
#: maps to the module and class that build it; the module is imported
#: when the defense is first built.
DEFENSE_BUILDERS: dict[str, tuple[str, str]] = {
    "none": ("repro.privacy.defenses.base", "Defense"),
    "wdp": ("repro.privacy.defenses.wdp", "WeakDP"),
    "ldp": ("repro.privacy.defenses.ldp", "LocalDP"),
    "cdp": ("repro.privacy.defenses.cdp", "CentralDP"),
    "gc": ("repro.privacy.defenses.compression", "GradientCompression"),
    "sa": ("repro.privacy.defenses.secure_aggregation", "SecureAggregation"),
    "dinar": ("repro.core.dinar", "DINAR"),
    "ladp": ("repro.privacy.defenses.ladp", "LayerwiseDP"),
}

#: Valid ``--defense`` values, in display order.
DEFENSE_CHOICES: tuple = tuple(DEFENSE_BUILDERS)

_ALIASES = {"no_defense": "none", "nodefense": "none"}


def make_defense(name: str, **kwargs) -> Defense:
    """Build a defense by its paper name.

    Accepted names are the :data:`DEFENSE_BUILDERS` keys (``none``,
    ``wdp``, ``ldp``, ``cdp``, ``gc``, ``sa``, ``dinar``, ``ladp``).
    Keyword arguments are forwarded to the constructor.
    """
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in DEFENSE_BUILDERS:
        raise ValueError(f"unknown defense {name!r}")
    module, cls = DEFENSE_BUILDERS[key]
    return getattr(importlib.import_module(module), cls)(**kwargs)


__all__ = [
    "DEFENSE_BUILDERS",
    "DEFENSE_CHOICES",
    "CentralDP",
    "Defense",
    "GradientCompression",
    "LayerwiseDP",
    "LocalDP",
    "PrivacyAccountant",
    "SecureAggregation",
    "WeakDP",
    "advanced_composition",
    "basic_composition",
    "clip_store",
    "gaussian_sigma",
    "make_defense",
]
