"""The five state-of-the-art FL defenses the paper compares against.

DINAR itself lives in :mod:`repro.core.dinar`; ``make_defense`` builds
any defense (including DINAR and the no-defense baseline) by its paper
name, with the paper's §5.2 parameterization as defaults.
"""

from __future__ import annotations

from repro.privacy.defenses.accounting import (
    PrivacyAccountant,
    advanced_composition,
    basic_composition,
    gaussian_sigma,
)
from repro.privacy.defenses.base import Defense
from repro.privacy.defenses.cdp import CentralDP
from repro.privacy.defenses.compression import GradientCompression
from repro.privacy.defenses.ladp import LayerwiseDP
from repro.privacy.defenses.ldp import LocalDP, clip_store
from repro.privacy.defenses.secure_aggregation import SecureAggregation
from repro.privacy.defenses.wdp import WeakDP


def _make_dinar(**kwargs) -> Defense:
    # Imported lazily: DINAR pulls in the sensitivity machinery, which
    # the lightweight defenses never need.
    from repro.core.dinar import DINAR
    return DINAR(**kwargs)


#: The defense registry — the single source of truth for defense
#: names.  The CLI's ``--defense`` choices and ``make_defense`` both
#: derive from it, so a new defense registers exactly once.
DEFENSE_BUILDERS: dict = {
    "none": Defense,
    "wdp": WeakDP,
    "ldp": LocalDP,
    "cdp": CentralDP,
    "gc": GradientCompression,
    "sa": SecureAggregation,
    "dinar": _make_dinar,
    "ladp": LayerwiseDP,
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
    builder = DEFENSE_BUILDERS.get(key)
    if builder is None:
        raise ValueError(f"unknown defense {name!r}")
    return builder(**kwargs)


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
