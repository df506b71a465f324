"""FL server: client selection and defended streaming aggregation.

Store-native and fleet-ready: the global model lives as a
:class:`~repro.nn.store.WeightStore`, and :meth:`FLServer.aggregate`
consumes an **iterator** of client updates, folding each arrival into a
constant-memory :class:`~repro.fl.aggregation.StreamingAccumulator` the
moment it lands.  Aggregation-side memory is therefore independent of
cohort size — the property that makes fleet-scale rounds (thousands of
sampled clients) possible.

Cohort selection is two-staged: ``clients_per_round`` picks the
candidate pool (the pre-fleet behavior, drawn from the server RNG so
existing trajectories are untouched), then ``sample_fraction``
sub-samples it cfraction-style from a dedicated per-round stream.

The dense :class:`~repro.fl.aggregation.UpdateBatch` survives only as
the fallback for ``requires_dense`` aggregation rules (order statistics
such as trimmed mean); :meth:`FLServer._collect` pre-sizes it to the
cohort and the batch's ``client_cap`` guards against accidentally
materializing a fleet.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.fl.aggregation import (
    AGGREGATION_RULES,
    StreamingAccumulator,
    UpdateBatch,
    clustered_mean,
    coordinate_median,
    requires_dense,
    trimmed_mean,
)
from repro.fl.client import ClientUpdate
from repro.fl.config import FLConfig
from repro.fl.costs import CostMeter
from repro.nn.store import WeightStore
from repro.privacy.defenses.base import Defense

#: Spawn-key tag of the per-round cohort sub-sampling stream.  Kept
#: disjoint from every existing stream family (sim ``(seed)``, cells
#: ``(seed, round, client)``, server ``(seed, 2)``, round-start defense
#: ``(seed, 3, round)``), so enabling ``sample_fraction`` perturbs no
#: pre-fleet draw.
_SAMPLE_STREAM = 5


class FLServer:
    """Holds the global model, selects cohorts, aggregates updates."""

    def __init__(self, initial_weights: WeightStore, config: FLConfig,
                 defense: Defense, rng: np.random.Generator,
                 cost_meter: CostMeter | None = None) -> None:
        self.global_weights = initial_weights
        self.config = config
        self.defense = defense
        self.rng = rng
        self.cost_meter = cost_meter or CostMeter()
        self._momentum_buffer: WeightStore | None = None
        self._batch: UpdateBatch | None = None
        self._accumulator: StreamingAccumulator | None = None
        #: Client ids the last round's robust aggregator rejected
        #: outright (norm clustering); empty for coordinate-wise rules
        #: and for the streaming FedAvg path.
        self.last_filtered: list[int] = []
        self._distance_include: np.ndarray | None = None
        if config.aggregator not in AGGREGATION_RULES:
            raise ValueError(f"unknown aggregator "
                             f"{config.aggregator!r}")
        if config.distance_mask == "obfuscated" and not hasattr(
                defense, "protected_indices"):
            raise ValueError(
                f"distance_mask='obfuscated' needs a defense that "
                f"declares protected_indices (which layers it "
                f"obfuscates), but {type(defense).__name__} does not; "
                f"use --defense dinar or distance_mask='none'")
        if requires_dense(config.aggregator) and defense.pre_weighted:
            raise ValueError(
                f"aggregator {config.aggregator!r} needs every client "
                f"row in the clear, but {type(defense).__name__} "
                f"transmits masked pre-weighted updates — order "
                f"statistics over masked rows are meaningless; use "
                f"aggregator='fedavg' or a non-masking defense")

    def select_clients(self, round_index: int) -> list[int]:
        """Choose the participating cohort for one round.

        ``clients_per_round`` caps the candidate pool exactly as
        before (same server-RNG draws, so pre-fleet cohorts are
        unchanged); ``sample_fraction`` then sub-samples that pool
        from a dedicated ``(seed, 5, round)`` stream.
        """
        n = self.config.num_clients
        k = self.config.clients_per_round or n
        if k >= n:
            cohort = list(range(n))
        else:
            chosen = self.rng.choice(n, size=k, replace=False)
            cohort = sorted(int(c) for c in chosen)
        fraction = self.config.sample_fraction
        if fraction < 1.0:
            m = max(1, int(fraction * len(cohort)))
            sampler = np.random.default_rng(
                (self.config.seed, _SAMPLE_STREAM, round_index))
            picked = sampler.choice(len(cohort), size=m, replace=False)
            cohort = sorted(cohort[int(i)] for i in picked)
        return cohort

    def _mask_include(self) -> np.ndarray | None:
        """The clustering distance's boolean coordinate mask.

        ``distance_mask='obfuscated'`` excludes every coordinate of the
        defense's protected layers — their *full* ranges, because
        DINAR obfuscates whole layers including non-trainable buffers —
        so the distance sees only segments the defense leaves honest.
        Cached: the mask is a pure function of the layout and the
        defense's protected set.
        """
        if self.config.distance_mask != "obfuscated":
            return None
        if self._distance_include is None:
            layout = self.global_weights.layout
            protected = self.defense.protected_indices(layout.num_layers)
            self._distance_include = layout.segmented().mask(
                exclude=protected, full=True)
        return self._distance_include

    def _collect(self, updates: Sequence[ClientUpdate]) -> UpdateBatch:
        """Copy the cohort's updates into the pooled dense row matrix.

        This is the ``requires_dense`` fallback path only; the batch is
        pre-sized to the cohort (no doubling copies mid-round) and its
        ``client_cap`` refuses fleet-scale cohorts.
        """
        layout = updates[0].weights.layout
        if self._batch is None or self._batch.layout != layout:
            self._batch = UpdateBatch(layout,
                                      capacity=max(1, len(updates)))
        else:
            self._batch.ensure_capacity(len(updates))
        self._batch.reset()
        for update in updates:
            self._batch.add(update.weights)
        return self._batch

    def _acc(self) -> StreamingAccumulator:
        """The lazily created, round-reused streaming accumulator."""
        layout = self.global_weights.layout
        if self._accumulator is None or self._accumulator.layout != layout:
            self._accumulator = StreamingAccumulator(layout)
        return self._accumulator

    def aggregate(self, updates: Iterable[ClientUpdate], *,
                  expected: int | None = None,
                  total_samples: float | None = None) -> WeightStore:
        """FedAvg the arriving updates and apply the server-side defense.

        ``updates`` may be any iterable — in fleet rounds the
        simulation passes a lazy generator and each update is folded
        into the streaming accumulator as the executor yields it, so
        no dense ``(clients, params)`` matrix ever exists.

        ``total_samples`` is the mixing total of the round's completion
        set; when the caller knows it up front (the round-closing
        policy fixes the completion set before aggregation starts) the
        accumulator folds pre-normalized coefficients and reproduces
        the dense FedAvg reduction exactly.  For a plain sequence it is
        computed here; for an iterator without it, the drained sum is
        normalized by the observed weight total (one extra rounding).

        With a ``pre_weighted`` defense (secure aggregation) clients
        transmit ``num_samples * weights + mask``; the masks cancel in
        the plain sum, so dividing by the total sample count of the
        updates *actually folded* recovers exactly the FedAvg result
        without the server ever seeing an individual update in the
        clear.  ``expected`` is the sampled cohort size: a
        ``requires_full_cohort`` defense refuses to finalize when
        fewer updates arrived, because the pairwise masks of the
        missing clients would not cancel and the drained sum would be
        silently corrupt.

        ``config.aggregator`` selects the rule.  FedAvg is this
        streaming path (bitwise-pinned); ``requires_dense`` robust
        rules (trimmed mean, coordinate median, norm clustering)
        dispatch to :meth:`_aggregate_dense`, which materializes the
        arriving updates as a cap-guarded dense matrix first.
        """
        self.last_filtered = []
        if requires_dense(self.config.aggregator):
            return self._aggregate_dense(updates, expected=expected)
        pre = self.defense.pre_weighted
        if isinstance(updates, Sequence):
            if not updates:
                raise ValueError("no updates to aggregate")
            if not pre and total_samples is None:
                total_samples = float(
                    sum(u.num_samples for u in updates))
        start = time.perf_counter()
        accumulator = self._acc()
        accumulator.reset(
            total_weight=None if pre else total_samples)
        reduce_seconds = time.perf_counter() - start
        folded = 0
        samples_total = 0.0
        for update in updates:
            start = time.perf_counter()
            accumulator.fold(
                update.weights,
                weight=1.0 if pre else float(update.num_samples))
            reduce_seconds += time.perf_counter() - start
            folded += 1
            samples_total += float(update.num_samples)
        if folded == 0:
            raise ValueError("no updates to aggregate")
        if self.defense.requires_full_cohort and expected is not None \
                and folded != expected:
            raise RuntimeError(
                f"{type(self.defense).__name__} requires the full "
                f"cohort: {folded} of {expected} sampled clients "
                f"reported, so the pairwise masks do not cancel and "
                f"the aggregate would be corrupt")
        start = time.perf_counter()
        if pre:
            if samples_total <= 0:
                raise ValueError("total sample count must be positive")
            aggregated = accumulator.drain() * (1.0 / samples_total)
        elif total_samples is not None:
            aggregated = accumulator.drain()
        else:
            aggregated = accumulator.drain() \
                * (1.0 / accumulator.weight_sum)
        return self._finalize(aggregated, reduce_seconds, start)

    def _finalize(self, aggregated: WeightStore, reduce_seconds: float,
                  start: float) -> WeightStore:
        """Server momentum + server-side defense + cost accounting —
        the tail every aggregation rule shares.  ``start`` is the
        ``perf_counter`` stamp of the current timed span."""
        aggregated = self._apply_server_momentum(aggregated)
        aggregated = self.defense.on_aggregate(aggregated, self.rng)
        reduce_seconds += time.perf_counter() - start
        self.cost_meter.merge_server_round(reduce_seconds)
        self.global_weights = aggregated
        return aggregated

    def _resolve_trim(self, cohort: int) -> int:
        """Per-side trim count for ``trimmed_mean``: explicit
        ``config.extra['trim']`` wins, else tolerate a 25% adversarial
        minority (``max(1, cohort // 4)``)."""
        trim = self.config.extra.get("trim")
        return int(trim) if trim is not None else max(1, cohort // 4)

    def _aggregate_dense(self, updates: Iterable[ClientUpdate], *,
                         expected: int | None = None) -> WeightStore:
        """Robust (``requires_dense``) aggregation over the arriving
        updates.

        The fallback of the fleet plane: arriving updates land as rows
        of the pooled :class:`UpdateBatch`, whose ``client_cap``
        refuses fleet-scale cohorts up front (robust order statistics
        cap out far below fleet scale — raise ``client_cap`` or use
        the streaming FedAvg path).  Short cohorts — after
        ``sample_fraction`` / dropout / straggler discard — either
        aggregate fine (coordinate median), fall back to keeping every
        row (norm clustering below ``CLUSTER_MIN_COHORT``), or raise a
        clear error naming the fleet knobs (trimmed mean with nothing
        left between the trims); never a silent shape mismatch.
        """
        name = self.config.aggregator
        start = time.perf_counter()
        layout = self.global_weights.layout
        if self._batch is None or self._batch.layout != layout:
            self._batch = UpdateBatch(layout)
        batch = self._batch
        if expected is not None:
            batch.ensure_capacity(expected)
        batch.reset()
        reduce_seconds = time.perf_counter() - start
        client_ids: list[int] = []
        num_samples: list[int] = []
        for update in updates:
            start = time.perf_counter()
            batch.add(update.weights)
            reduce_seconds += time.perf_counter() - start
            client_ids.append(update.client_id)
            num_samples.append(update.num_samples)
        n = len(batch)
        if n == 0:
            raise ValueError("no updates to aggregate")
        if self.defense.requires_full_cohort and expected is not None \
                and n != expected:
            raise RuntimeError(
                f"{type(self.defense).__name__} requires the full "
                f"cohort: {n} of {expected} sampled clients reported")
        start = time.perf_counter()
        if name == "trimmed_mean":
            trim = self._resolve_trim(n)
            if 2 * trim >= n:
                raise ValueError(
                    f"trimmed_mean with trim={trim} needs a cohort of "
                    f"at least {2 * trim + 1}, but only {n} update(s) "
                    f"arrived — sample_fraction / drop_rate / "
                    f"completion_threshold shrank the cohort below "
                    f"the trim; lower the fleet knobs, lower "
                    f"extra['trim'], or use coordinate_median")
            aggregated = trimmed_mean(batch, trim=trim)
        elif name == "coordinate_median":
            aggregated = coordinate_median(batch)
        elif name == "clustered":
            diagnostics: dict = {}
            aggregated = clustered_mean(
                batch, num_samples, diagnostics=diagnostics,
                distance_include=self._mask_include())
            self.last_filtered = [client_ids[i]
                                  for i in diagnostics["filtered"]]
        else:  # pragma: no cover - registry/choices kept in sync
            raise ValueError(f"unknown dense aggregator {name!r}")
        return self._finalize(aggregated, reduce_seconds, start)

    def _apply_server_momentum(self,
                               aggregated: WeightStore) -> WeightStore:
        """FedAvgM (Hsu et al., 2020): accumulate the round delta in a
        server-side momentum buffer (extension; no-op at momentum 0)."""
        beta = self.config.server_momentum
        if beta <= 0.0:
            return aggregated
        delta = aggregated - self.global_weights
        if self._momentum_buffer is None:
            self._momentum_buffer = delta.zeros_like()
        self._momentum_buffer *= beta
        self._momentum_buffer += delta
        return self.global_weights + self._momentum_buffer
