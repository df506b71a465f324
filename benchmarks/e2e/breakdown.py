"""Per-layer metrics from a traced cell, and the report table.

Each per-layer metric is named after the program layer it measures
(``data``, ``fl.executor``, ``nn``, ...).  ``LAYER_MAP`` records, for
each layer, which end-to-end metric it should move and on which
workload — written down before measuring, so a trace can confirm or
refute where a change's saving lands.
"""

from __future__ import annotations

import statistics

from benchmarks.e2e.trace import Trace

MIB = 1024.0 * 1024.0

#: Layer classes of the four workloads' models, and the optimizers
#: their training uses (DINAR: Adagrad; shadow models: SGD; the shadow
#: attack classifier: Adam; LDP's DP-SGD reports under its defense).
LAYER_CLASSES = ("Dense", "Tanh", "ReLU", "Conv2d", "MaxPool2d",
                 "Conv1d", "MaxPool1d", "Flatten")
OPTIMIZERS = ("Adagrad", "SGD", "Adam")

#: (layer, metric names, end-to-end metric and workload it should move)
LAYER_MAP: list[tuple[str, tuple[str, ...], str]] = [
    ("setup / data",
     ("setup.import_s", "data.load_dataset_s", "data.split_s"),
     "setup_s on fleet-10k"),
    ("fl.simulation", ("fl.simulation.init_s",), "setup_s on fleet-10k"),
    ("fl.executor / fl.shm",
     ("fl.executor.warmup_s", "fl.executor.wait_s",
      "fl.executor.worker_busy_share",
      "fl.executor.ipc_pickled_bytes_per_round",
      "fl.executor.ipc_shared_bytes_per_round",
      "fl.executor.worker_peak_rss_mib"),
     "setup_s and client_rounds_per_s on parallel-robust"),
    ("fl.server / fl.aggregation",
     ("fl.server.select_s", "fl.server.aggregate_self_s",
      "fl.server.bookkeeping_us_per_update", "fl.aggregation.fold_calls",
      "fl.aggregation.fold_us_per_update", "fl.aggregation.robust_s",
      "fl.aggregation.byzantine_caught_ratio"),
     "client_rounds_per_s on fleet-10k (streaming) and parallel-robust "
     "(dense); the caught ratio guards client accuracy there"),
    ("fl.virtual / fl.client",
     ("fl.virtual.materialize_calls", "fl.virtual.materialize_s",
      "fl.virtual.model_materializations", "fl.virtual.registry_put_s",
      "fl.virtual.registry_mib", "fl.virtual.evaluate_calls",
      "fl.virtual.evaluate_s", "fl.client.train_round_p50_ms",
      "fl.client.train_round_p99_ms"),
     "client_rounds_per_s and run_s (evaluation) on fleet-10k; "
     "train_round on the paper cells"),
    ("nn",
     ("nn.loss_and_grad_s",
      *(f"nn.optimizer.{name}.step_s" for name in OPTIMIZERS),
      *(f"nn.layer.{name}.{phase}_s" for name in LAYER_CLASSES
        for phase in ("forward", "backward")),
      "nn.predict_s"),
     "client_rounds_per_s on paper-fcnn-dinar (Dense, Adagrad) and "
     "paper-conv-ldp (Conv2d, pools); nn.predict_s: run_s on fleet-10k"),
    ("privacy.defenses",
     ("privacy.defenses.receive_s", "privacy.defenses.send_s",
      "privacy.defenses.aggregate_s", "privacy.defenses.state_io_s",
      "privacy.defenses.DPSGD.step_s", "privacy.defenses.state_mib"),
     "client_rounds_per_s on paper-conv-ldp (DP-SGD) and fleet-10k "
     "(DINAR state); peak_rss_mib on fleet-10k"),
    ("privacy.attacks",
     ("privacy.attacks.fit_s", "privacy.attacks.score_calls",
      "privacy.attacks.score_s", "privacy.attacks.auc_s"),
     "run_s on paper-conv-ldp (fit) and fleet-10k (score)"),
    ("trace", ("trace.coverage", "trace.overhead_pct"),
     "none; these validate the breakdown"),
]

#: Unit of each per-layer metric (by name suffix, then exceptions).
_UNIT_BY_SUFFIX = (("_s", "s"), ("_ms", "ms"), ("_us_per_update", "us"),
                   ("_mib", "MiB"), ("_calls", "count"),
                   ("_per_round", "B/round"), ("_pct", "%"))
_UNIT_EXCEPTIONS = {
    "fl.virtual.model_materializations": "count",
    "fl.executor.worker_busy_share": "ratio",
    "fl.aggregation.byzantine_caught_ratio": "ratio",
    "trace.coverage": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in _UNIT_EXCEPTIONS:
        return _UNIT_EXCEPTIONS[metric]
    for suffix, unit in _UNIT_BY_SUFFIX:
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for per-layer metric {metric!r}")


PER_LAYER: tuple[str, ...] = tuple(
    name for _, names, _ in LAYER_MAP for name in names)

#: Training compute: where the nn layer does the work of a round.
_NN_TRAIN = ("nn.loss_and_grad",
             *(f"nn.optimizer.{name}.step" for name in OPTIMIZERS),
             "privacy.defenses.DPSGD.step")


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def per_layer_metrics(trace: Trace,
                      untraced_run_s: float | None = None
                      ) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced cell."""
    rows = trace.by_name()

    def total(name: str) -> float:
        return rows[name]["total_s"] if name in rows else 0.0

    def self_time(name: str) -> float:
        return rows[name]["self_s"] if name in rows else 0.0

    def calls(name: str) -> int:
        return rows[name]["calls"] if name in rows else 0

    def counter(name: str) -> float:
        return sum(trace.counter_values(name))

    run_s = trace.meta["run_s"]
    client_rounds = trace.counter_values("fl.client.round_s")
    updates = len(client_rounds)
    workers = counter("fl.executor.workers")
    aggregate = total("fl.server.aggregate")
    adversarial = counter("fl.aggregation.adversarial")
    top_level = sum(d for d, p in zip(trace.durations, trace.parents)
                    if p < 0)
    m = {
        "setup.import_s": total("setup.import"),
        "data.load_dataset_s": total("data.load_dataset"),
        "data.split_s": total("data.split"),
        "fl.simulation.init_s": total("fl.simulation.init"),
        "fl.executor.warmup_s": total("fl.executor.warmup"),
        "fl.executor.wait_s": total("fl.executor.wait"),
        # Share of the workers' capacity spent in client train+defense
        # while the parent aggregated (where it waits for them).
        "fl.executor.worker_busy_share":
            sum(client_rounds) / (workers * aggregate)
            if workers > 1 and aggregate > 0 else 0.0,
        "fl.executor.ipc_pickled_bytes_per_round":
            counter("fl.executor.ipc_pickled_bytes_per_round"),
        "fl.executor.ipc_shared_bytes_per_round":
            counter("fl.executor.ipc_shared_bytes_per_round"),
        "fl.executor.worker_peak_rss_mib":
            counter("fl.executor.worker_peak_rss_kib") / 1024.0,
        "fl.server.select_s": total("fl.server.select"),
        "fl.server.aggregate_self_s": self_time("fl.server.aggregate"),
        # The aggregate span outside executor waits, folds, the robust
        # rule and the server-side defense: per-update bookkeeping.
        "fl.server.bookkeeping_us_per_update":
            1e6 * (aggregate - total("fl.executor.wait")
                   - total("fl.aggregation.fold")
                   - total("fl.aggregation.robust")
                   - total("privacy.defenses.aggregate")) / updates
            if updates else 0.0,
        "fl.aggregation.fold_calls": calls("fl.aggregation.fold"),
        "fl.aggregation.fold_us_per_update":
            1e6 * total("fl.aggregation.fold") / calls("fl.aggregation.fold")
            if calls("fl.aggregation.fold") else 0.0,
        "fl.aggregation.robust_s": total("fl.aggregation.robust"),
        "fl.aggregation.byzantine_caught_ratio":
            counter("fl.aggregation.caught") / adversarial
            if adversarial else 0.0,
        "fl.virtual.materialize_calls": calls("fl.virtual.materialize"),
        "fl.virtual.materialize_s": total("fl.virtual.materialize"),
        "fl.virtual.model_materializations":
            counter("fl.virtual.model_materializations"),
        "fl.virtual.registry_put_s": total("fl.virtual.registry_put"),
        "fl.virtual.registry_mib":
            counter("fl.virtual.registry_bytes") / MIB,
        "fl.virtual.evaluate_calls": calls("fl.virtual.evaluate"),
        "fl.virtual.evaluate_s": total("fl.virtual.evaluate"),
        "fl.client.train_round_p50_ms":
            1e3 * _percentile(client_rounds, 50),
        "fl.client.train_round_p99_ms":
            1e3 * _percentile(client_rounds, 99),
        "nn.loss_and_grad_s": total("nn.loss_and_grad"),
        "nn.predict_s": total("nn.predict"),
        "privacy.defenses.receive_s": total("privacy.defenses.receive"),
        "privacy.defenses.send_s": total("privacy.defenses.send"),
        "privacy.defenses.aggregate_s":
            total("privacy.defenses.aggregate"),
        "privacy.defenses.state_io_s": total("privacy.defenses.state_io"),
        "privacy.defenses.DPSGD.step_s":
            total("privacy.defenses.DPSGD.step"),
        "privacy.defenses.state_mib":
            counter("privacy.defenses.state_bytes") / MIB,
        "privacy.attacks.fit_s": total("privacy.attacks.fit"),
        "privacy.attacks.score_calls": calls("privacy.attacks.score"),
        "privacy.attacks.score_s": total("privacy.attacks.score"),
        "privacy.attacks.auc_s": total("privacy.attacks.auc"),
        "trace.coverage": top_level / run_s,
        "trace.overhead_pct":
            100.0 * (run_s / untraced_run_s - 1.0)
            if untraced_run_s else 0.0,
    }
    for name in OPTIMIZERS:
        m[f"nn.optimizer.{name}.step_s"] = total(
            f"nn.optimizer.{name}.step")
    for name in LAYER_CLASSES:
        for phase in ("forward", "backward"):
            m[f"nn.layer.{name}.{phase}_s"] = self_time(
                f"nn.layer.{name}.{phase}")
    return {name: m[name] for name in PER_LAYER}


def emphasis(trace: Trace) -> dict[str, float]:
    """The shares each workload was chosen to exercise.

    ``nn_train_round_share``: training compute (loss_and_grad and
    optimizer steps) over total round time; ``nn_train_run_share``: the
    same over the whole run; ``evaluate_run_share``: fleet evaluation
    over the whole run.
    """
    run_s = trace.meta["run_s"]
    rounds = sum(d for n, d in zip(trace.names, trace.durations)
                 if n == "round")
    in_rounds = train = 0.0
    for name, duration, parent, trace_id in zip(
            trace.names, trace.durations, trace.parents, trace.traces):
        if name in _NN_TRAIN and (parent < 0
                                  or trace.names[parent] != name):
            train += duration
            if trace_id >= 0:
                in_rounds += duration
    rows = trace.by_name()
    evaluate = rows.get("fl.virtual.evaluate", {"total_s": 0.0})
    return {
        "nn_train_round_share": in_rounds / rounds if rounds else 0.0,
        "nn_train_run_share": train / run_s,
        "evaluate_run_share": evaluate["total_s"] / run_s,
    }


def render(trace: Trace) -> str:
    """Span table (calls, total, self, share of run) plus the layer ->
    metric -> workload map with this trace's values.  The tracing
    overhead needs an untraced run, so it reads n/a here."""
    run_s = trace.meta["run_s"]
    lines = [f"trace of {trace.meta.get('workload')} "
             f"(seed {trace.meta.get('seed')}, "
             f"{trace.meta.get('scale')} scale): run {run_s:.3f} s, "
             f"{len(trace.names)} spans", "",
             f"{'span':<40} {'calls':>8} {'total s':>10} {'self s':>10} "
             f"{'self %':>7}"]
    rows = sorted(trace.by_name().items(),
                  key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        lines.append(
            f"{name:<40} {row['calls']:>8} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {100 * row['self_s'] / run_s:>6.1f}%")
    metrics = per_layer_metrics(trace)
    lines += ["", f"{'per-layer metric':<44} {'value':>14} unit"]
    for layer, names, moves in LAYER_MAP:
        lines.append(f"[{layer}] should move: {moves}")
        for name in names:
            value = f"{metrics[name]:>14.6g}"
            if name == "trace.overhead_pct":
                value = f"{'n/a':>14}"
            lines.append(f"  {name:<42} {value} {unit_of(name)}")
    lines += ["", "emphasis: " + ", ".join(
        f"{k}={v:.3f}" for k, v in emphasis(trace).items())]
    return "\n".join(lines)
