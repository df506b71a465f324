"""One workload cell, run in this (fresh) process.

Mirrors ``repro.bench.harness.run_experiment`` call by call, through
the public API, and times each call as a top-level span::

    load_dataset -> split_for_membership(rng=(seed, 17))
    -> make_defense_for_config (DINAR_LR for dinar)
    -> FederatedSimulation -> executor.warm_up()
    -> run_round(r) for every r -> executor.close()
    -> build_attack -> global_model_auc / local_models_auc
       (max_samples=400, rng=(seed, 23))

The clock starts before ``import repro``: set-up time includes the
imports a user pays for on every ``repro run``.  ``calibrate`` times
fixed work the same way, so that set-up time can be scaled for the
shared host's speed.
"""

from __future__ import annotations

import hashlib
import json
import resource

from benchmarks.e2e.trace import Recorder, clock, install, wrap_executor
from benchmarks.e2e.workloads import Workload

MAX_ATTACK_SAMPLES = 400


def _worker_peak_rss_kib() -> int:
    """Largest peak RSS among this process's live worker children."""
    import multiprocessing

    peak = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak


def calibrate() -> float:
    """Seconds for fixed work shaped like a cell's set-up: importing
    numpy, synthesizing data, building Python objects.

    No change to the program moves it.  Run in a fresh process after
    each cell, it tells how fast the shared host is running the set-ups
    around it.
    """
    t0 = clock()
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(3):
        features = rng.standard_normal((3000, 600))
        hidden = np.tanh(features @ rng.standard_normal((600, 100)))
        rows = [{"index": i, "value": float(v)}
                for i, v in enumerate(hidden.ravel()[:8000])]
        json.dumps(rows)
    return clock() - t0


def run_cell(workload: Workload, seed: int, *, traced: bool = False,
             setup_only: bool = False) -> tuple[dict, Recorder]:
    """Run one cell; returns its result record and its spans.

    ``setup_only`` ends the cell once the simulation is ready: such
    cells add set-up samples at a fraction of a full cell's cost.
    """
    rec = Recorder()
    t0 = clock()
    with rec.span("setup.import"):
        import numpy as np

        from repro.bench.harness import (
            DINAR_LR,
            build_attack,
            default_config,
            make_model_factory,
        )
        from repro.data import load_dataset, split_for_membership
        from repro.fl import FederatedSimulation, FLConfig
        from repro.privacy.attacks.metrics import (
            global_model_auc,
            local_models_auc,
        )
        from repro.privacy.defenses.make import make_defense_for_config
    if traced:
        with rec.span("trace.install"):
            install(rec)

    base = default_config(workload.dataset, seed=seed)
    fields = dict(num_clients=base.num_clients, rounds=base.rounds,
                  local_epochs=base.local_epochs, lr=base.lr,
                  batch_size=base.batch_size)
    fields.update(workload.config)
    config = FLConfig(**fields, seed=seed, eval_every=fields["rounds"])

    with rec.span("data.load_dataset"):
        dataset = load_dataset(workload.dataset, seed,
                               n_samples=workload.n_samples,
                               dtype=config.dtype)
    with rec.span("data.split"):
        split = split_for_membership(dataset,
                                     np.random.default_rng((seed, 17)))
    defense_kwargs = {}
    if workload.defense == "dinar" and workload.dataset in DINAR_LR:
        defense_kwargs["lr"] = DINAR_LR[workload.dataset]
    with rec.span("privacy.defenses.make"):
        defense = make_defense_for_config(workload.defense, config,
                                          **defense_kwargs)
    with rec.span("fl.simulation.init"):
        simulation = FederatedSimulation(
            split, make_model_factory(workload.dataset, dtype=config.dtype),
            config, defense)
    if traced:
        wrap_executor(rec, simulation.executor)
    try:
        with rec.span("fl.executor.warmup"):
            simulation.executor.warm_up()
        result = {"setup_s": clock() - t0}
        if setup_only:
            return result, rec
        result["rounds"] = _run_rounds(rec, simulation, traced)
        if traced:
            rec.count("fl.executor.worker_peak_rss_kib",
                      _worker_peak_rss_kib())
    finally:
        with rec.span("fl.executor.close"):
            simulation.executor.close()

    with rec.span("privacy.attacks.build"):
        attack = build_attack(workload.attack, workload.dataset, split,
                              seed=seed, dtype=config.dtype)
    eval_rng = np.random.default_rng((seed, 23))
    with rec.span("privacy.attacks.global_auc"):
        global_auc = global_model_auc(
            attack, simulation, max_samples=MAX_ATTACK_SAMPLES,
            rng=eval_rng)
    with rec.span("privacy.attacks.local_auc"):
        local_auc = local_models_auc(
            attack, simulation, max_samples=MAX_ATTACK_SAMPLES,
            rng=eval_rng)
    result["run_s"] = clock() - t0

    weights = simulation.server.global_weights.buffer
    history = simulation.history
    result.update(
        peak_rss_mib=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        global_auc=global_auc,
        local_auc=local_auc,
        client_accuracy=history.final_client_accuracy,
        global_accuracy=history.final_global_accuracy,
        weights_sha256=hashlib.sha256(weights.tobytes()).hexdigest(),
        weights_finite=bool(np.isfinite(weights).all()),
    )
    if traced:
        report = simulation.cost_meter.report
        rounds = len(result["rounds"])
        for name, value in (
                ("fl.executor.workers", simulation.executor.workers),
                ("fl.executor.ipc_pickled_bytes_per_round",
                 report.ipc_bytes_pickled / rounds),
                ("fl.executor.ipc_shared_bytes_per_round",
                 report.ipc_bytes_shared / rounds),
                ("fl.virtual.model_materializations",
                 report.model_materializations),
                ("fl.virtual.registry_bytes", simulation.registry.nbytes),
                ("privacy.defenses.state_bytes", defense.state_bytes())):
            rec.count(name, value)
    return result, rec


def _run_rounds(rec: Recorder, simulation, traced: bool) -> list[dict]:
    """Every configured round, one span each (trace id = round).

    The CLI sets ``eval_every = rounds``: only the last round evaluates.
    """
    config = simulation.config
    report = simulation.cost_meter.report
    adversaries = simulation.behavior.adversaries
    rounds = []
    for r in range(config.rounds):
        sampled = report.clients_sampled
        completed = report.clients_completed
        adversarial = report.clients_adversarial
        rec.trace_id = r
        with rec.span("round") as index:
            record = simulation.run_round(r)
        rounds.append({
            "seconds": rec.duration(index),
            "sampled": report.clients_sampled - sampled,
            "completed": report.clients_completed - completed,
            "evaluated": record is not None,
        })
        if traced:
            caught = set(simulation.server.last_filtered) & adversaries
            rec.count("fl.aggregation.adversarial",
                      report.clients_adversarial - adversarial)
            rec.count("fl.aggregation.caught", len(caught))
    rec.trace_id = -1
    return rounds
