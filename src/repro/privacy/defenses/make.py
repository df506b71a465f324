"""Config-aware defense construction.

DP defenses split their privacy budget across FL rounds; this helper
injects the planned round count (and LDP's step profile) from the
experiment's :class:`~repro.fl.config.FLConfig` so callers can just
name a defense.
"""

from __future__ import annotations

from repro.fl.config import FLConfig
from repro.privacy.defenses import make_defense
from repro.privacy.defenses.base import Defense


def make_defense_for_config(name: str, config: FLConfig,
                            **kwargs) -> Defense:
    """Build a defense by name, parameterized from the FL config."""
    key = name.lower()
    if key == "ldp":
        # Planned DP-SGD profile: total local steps across the run
        # (per-epoch batch count is data-dependent; 5 is the scaled
        # datasets' typical value) and the batch sampling rate.
        kwargs.setdefault(
            "steps", config.rounds * config.local_epochs * 5)
        kwargs.setdefault("sample_rate", 0.15)
    elif key in ("cdp", "ladp"):
        # Per-round budget split needs the planned round count.
        kwargs.setdefault("rounds", config.rounds)
    return make_defense(name, **kwargs)
