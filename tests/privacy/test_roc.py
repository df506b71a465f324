"""ROC curve tests."""

import numpy as np
import pytest

from repro.privacy.attacks.metrics import roc_auc
from repro.privacy.attacks.roc import auc_from_curve, roc_curve, tpr_at_fpr


def _roc_loop(pos, neg):
    """The per-threshold loop: the oracle for ``roc_curve``."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    thresholds = np.concatenate([[np.inf], thresholds])
    tpr = np.array([(pos >= t).mean() for t in thresholds])
    fpr = np.array([(neg >= t).mean() for t in thresholds])
    return fpr, tpr, thresholds


@pytest.mark.parametrize("case", ["continuous", "ties", "infinities",
                                  "nan", "single"])
def test_curve_bitwise_matches_loop(rng, case):
    pos = rng.standard_normal(301) + 0.5
    neg = rng.standard_normal(277)
    if case == "ties":
        pos, neg = np.round(pos), np.round(neg)
    elif case == "infinities":
        pos[:5], neg[:3] = np.inf, -np.inf
        pos[5:7], neg[3:9] = -np.inf, np.inf
    elif case == "nan":
        pos[::50], neg[::40] = np.nan, np.nan
    elif case == "single":
        pos, neg = pos[:1], neg[:1]
    for got, want in zip(roc_curve(pos, neg), _roc_loop(pos, neg)):
        assert got.tobytes() == want.tobytes()


def test_curve_endpoints(rng):
    pos = rng.standard_normal(50) + 1
    neg = rng.standard_normal(50)
    fpr, tpr, thresholds = roc_curve(pos, neg)
    assert fpr[0] == 0.0 and tpr[0] == 0.0   # threshold = +inf
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0  # lowest threshold


def test_curve_monotone(rng):
    pos = rng.standard_normal(100) + 0.5
    neg = rng.standard_normal(100)
    fpr, tpr, _ = roc_curve(pos, neg)
    assert np.all(np.diff(fpr) >= 0)
    assert np.all(np.diff(tpr) >= 0)


def test_curve_auc_matches_rank_auc(rng):
    pos = rng.standard_normal(200) + 1
    neg = rng.standard_normal(200)
    fpr, tpr, _ = roc_curve(pos, neg)
    assert auc_from_curve(fpr, tpr) == pytest.approx(
        roc_auc(pos, neg), abs=1e-9)


def test_perfect_separation_curve():
    fpr, tpr, _ = roc_curve(np.array([2.0, 3.0]), np.array([0.0, 1.0]))
    assert auc_from_curve(fpr, tpr) == 1.0


def test_tpr_at_low_fpr_random_scores(rng):
    pos = rng.standard_normal(3000)
    neg = rng.standard_normal(3000)
    assert tpr_at_fpr(pos, neg, max_fpr=0.01) < 0.05


def test_tpr_at_low_fpr_strong_attack(rng):
    pos = rng.standard_normal(1000) + 5
    neg = rng.standard_normal(1000)
    assert tpr_at_fpr(pos, neg, max_fpr=0.01) > 0.9


def test_tpr_at_fpr_validates(rng):
    with pytest.raises(ValueError):
        tpr_at_fpr(np.array([1.0]), np.array([0.0]), max_fpr=0.0)
    with pytest.raises(ValueError):
        roc_curve(np.array([]), np.array([1.0]))
