"""Attack metrics — the paper's Appendix A, implemented exactly.

Attack AUC lives in [50%, 100%]: 50% is a random attacker (the paper's
"optimal" defended value), 100% a perfect one.  A raw rank AUC below
0.5 means the attacker's scores are anti-predictive; a real attacker
would invert its classifier, so the reported AUC is
``max(auc, 1 - auc)`` — which is what clamps defended models at ~50%.
"""

from __future__ import annotations

import numpy as np


def roc_auc(positive_scores: np.ndarray,
            negative_scores: np.ndarray) -> float:
    """Rank-based (Mann-Whitney) AUC; ties count half.

    Equivalent to integrating the ROC curve over every threshold, which
    is why the paper calls AUC "a robust overall measure ... because its
    calculation involves all possible attacker's binary classification
    thresholds".
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score sets must be non-empty")
    combined = np.concatenate([pos, neg])
    order = combined.argsort(kind="mergesort")
    ranks = np.empty_like(combined)
    ranks[order] = np.arange(1, combined.size + 1, dtype=np.float64)
    # average ranks over ties
    sorted_vals = combined[order]
    i = 0
    while i < combined.size:
        j = i
        while j + 1 < combined.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    rank_sum = ranks[:pos.size].sum()
    u = rank_sum - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def attack_auc(member_scores: np.ndarray,
               nonmember_scores: np.ndarray) -> float:
    """Paper-convention attack AUC in [0.5, 1.0].

    ``member_scores`` are the attacker's membership scores on true
    members, ``nonmember_scores`` on true non-members.
    """
    raw = roc_auc(member_scores, nonmember_scores)
    return max(raw, 1.0 - raw)


def global_model_auc(attack, simulation, *, max_samples: int = 500,
                     rng: np.random.Generator | None = None) -> float:
    """Attack AUC against the global FL model (Appendix A, metric 1).

    Members are drawn from all clients' training data, non-members from
    the held-out test pool — the client-side attacker's task: "whether a
    data sample has been used for training by other clients".

    Scored on :meth:`~repro.fl.simulation.FederatedSimulation.global_model`,
    the fleet's one model loaded with the global weights.
    """
    rng = rng or np.random.default_rng(0)
    model = simulation.global_model()
    split = simulation.split
    nonmembers = split.nonmembers
    m_idx = _sample(rng, len(split.member_idx), max_samples)
    n_idx = _sample(rng, len(nonmembers), max_samples)
    # gather only the sampled member rows, never the whole member pool
    rows = split.member_idx[m_idx]
    m_scores = attack.score(model, split.source.x[rows], split.source.y[rows])
    n_scores = attack.score(model, nonmembers.x[n_idx], nonmembers.y[n_idx])
    return attack_auc(m_scores, n_scores)


def local_models_auc(attack, simulation, *, max_samples: int = 500,
                     rng: np.random.Generator | None = None) -> float:
    """Mean attack AUC over clients' transmitted models (Appendix A,
    metric 2: ``sum_i AUC(theta_i) / N``).

    For each client the attacker (sitting on the server) inspects the
    update that client actually uploaded — after any defense transform —
    and tries to separate that client's training samples from held-out
    data.  Each upload is loaded in turn into the fleet's one model
    (:meth:`~repro.fl.simulation.FederatedSimulation.transmitted_model`).
    """
    rng = rng or np.random.default_rng(0)
    nonmembers = simulation.split.nonmembers
    aucs = []
    # Ascending id over the round's participants — the same clients in
    # the same order as iterating the full fleet and skipping
    # non-participants, without materializing a single FLClient (at
    # fleet scale, most clients never trained).
    for client_id in sorted(simulation.last_updates):
        model = simulation.transmitted_model(client_id)
        data = simulation.client_dataset(client_id)
        m_idx = _sample(rng, len(data), max_samples)
        n_idx = _sample(rng, len(nonmembers), max_samples)
        m_scores = attack.score(model, data.x[m_idx], data.y[m_idx])
        n_scores = attack.score(
            model, nonmembers.x[n_idx], nonmembers.y[n_idx])
        aucs.append(attack_auc(m_scores, n_scores))
    if not aucs:
        raise RuntimeError("no client has transmitted an update yet")
    return float(np.mean(aucs))


def _sample(rng: np.random.Generator, n: int, max_samples: int) -> np.ndarray:
    if n <= max_samples:
        return np.arange(n)
    return rng.choice(n, size=max_samples, replace=False)
