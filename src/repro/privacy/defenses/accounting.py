"""(epsilon, delta) accounting for the Gaussian mechanism.

Implements the classic analytic calibration
``sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon`` (Dwork &
Roth, Thm. 3.22) plus basic and advanced composition across FL rounds.
This mirrors what the paper's Opacus-based baselines do: pick a noise
multiplier from a target (epsilon, delta) budget, then spend budget
each round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def gaussian_sigma(epsilon: float, delta: float,
                   sensitivity: float = 1.0) -> float:
    """Noise std for one Gaussian-mechanism release at (epsilon, delta)."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def basic_composition(epsilon_per_step: float, delta_per_step: float,
                      steps: int) -> tuple[float, float]:
    """Sequential composition: budgets add up linearly."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return epsilon_per_step * steps, delta_per_step * steps


def advanced_composition(epsilon_per_step: float, delta_per_step: float,
                         steps: int, delta_slack: float
                         ) -> tuple[float, float]:
    """Advanced composition (Dwork, Rothblum, Vadhan 2010).

    Total epsilon grows ~ sqrt(steps) at the cost of a delta slack.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if delta_slack <= 0:
        raise ValueError(f"delta_slack must be positive, got {delta_slack}")
    eps = epsilon_per_step
    total_eps = (math.sqrt(2.0 * steps * math.log(1.0 / delta_slack)) * eps
                 + steps * eps * (math.exp(eps) - 1.0))
    return total_eps, steps * delta_per_step + delta_slack


@dataclass
class PrivacyAccountant:
    """Tracks cumulative (epsilon, delta) spend across releases."""

    target_epsilon: float
    target_delta: float
    spent_epsilon: float = 0.0
    spent_delta: float = 0.0
    releases: int = 0

    def spend(self, epsilon: float, delta: float) -> None:
        """Record one mechanism release (basic composition)."""
        self.spent_epsilon += epsilon
        self.spent_delta += delta
        self.releases += 1

    @property
    def exhausted(self) -> bool:
        """Whether the cumulative spend exceeds the target budget."""
        return (self.spent_epsilon > self.target_epsilon
                or self.spent_delta > self.target_delta)
