"""ROC curve construction.

The attack AUC (Appendix A) integrates the ROC over all thresholds;
this module exposes the curve itself for analysis and for reporting an
attacker's TPR at a fixed low FPR — the stricter evaluation style of
recent MIA literature (Carlini et al., 2022).
"""

from __future__ import annotations

import numpy as np


def _share_at_least(scores: np.ndarray,
                    thresholds: np.ndarray) -> np.ndarray:
    """Fraction of ``scores`` that are >= each threshold, O(n log n).

    An integer count divided by ``scores.size``: bitwise what
    ``(scores >= t).mean()`` gives per threshold.  NaN sorts last and
    is never >= anything, so it is cut off before counting.
    """
    ordered = np.sort(scores)
    ordered = ordered[:np.searchsorted(ordered, np.nan)]
    counts = len(ordered) - np.searchsorted(ordered, thresholds,
                                            side="left")
    return counts / scores.size


def roc_curve(positive_scores: np.ndarray, negative_scores: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fpr, tpr, thresholds), thresholds descending.

    At each threshold t, a candidate is called a member when its score
    is >= t.
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score sets must be non-empty")
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    thresholds = np.concatenate([[np.inf], thresholds])
    tpr = _share_at_least(pos, thresholds)
    fpr = _share_at_least(neg, thresholds)
    return fpr, tpr, thresholds


def auc_from_curve(fpr: np.ndarray, tpr: np.ndarray) -> float:
    """Trapezoidal AUC of a (fpr, tpr) curve."""
    order = np.argsort(fpr, kind="mergesort")
    return float(np.trapezoid(tpr[order], fpr[order]))


def tpr_at_fpr(positive_scores: np.ndarray, negative_scores: np.ndarray,
               max_fpr: float = 0.01) -> float:
    """Best TPR achievable while keeping FPR <= ``max_fpr``.

    The "low-FPR" attack metric: an attacker who cannot afford false
    accusations.  Random guessing gives ~``max_fpr``; a defended model
    should pin the attacker there.
    """
    if not 0.0 < max_fpr <= 1.0:
        raise ValueError(f"max_fpr must be in (0, 1], got {max_fpr}")
    fpr, tpr, _ = roc_curve(positive_scores, negative_scores)
    feasible = tpr[fpr <= max_fpr]
    return float(feasible.max()) if feasible.size else 0.0
