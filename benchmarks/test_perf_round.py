"""Round wall-clock + IPC volume: serial vs the parallel executor.

Times full federated rounds (20 clients) two ways — the serial
reference executor and a 4-worker parallel executor over shared
memory — verifies both end bitwise identical, and writes
``BENCH_round.json`` at the repo root.

Two classes of gate:

* **IPC volume** (asserted everywhere, even on one core): the weight
  plane stays out of the pool pipe, so the per-client pickled payload
  is O(descriptor), not O(num_params).
* **Wall clock** (gated on >= 4 physical cores): the parallel executor
  must clear the >= 2x floor over serial.  The JSON records the core
  count so a number measured on constrained hardware is
  interpretable.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.models.fcnn import build_fcnn
from repro.nn.store import as_store

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_round.json"

NUM_CLIENTS = 20
WORKERS = 4
ROUNDS = 3
LOCAL_EPOCHS = 5
NUM_SAMPLES = 20_000

INPUT_DIM = 100
NUM_CLASSES = 10
HIDDEN = (256, 256)

#: Per-client pipe payloads are descriptors.  Generous bound — a
#: descriptor task/result pair is a few hundred bytes; one weight
#: vector here is ~750 KB.
DESCRIPTOR_BYTES_CAP = 8192


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _factory(rng: np.random.Generator):
    return build_fcnn(INPUT_DIM, NUM_CLASSES, rng, hidden=HIDDEN)


def _timed_run(split, workers: int):
    config = FLConfig(num_clients=NUM_CLIENTS, rounds=ROUNDS,
                      local_epochs=LOCAL_EPOCHS, lr=0.05, batch_size=64,
                      seed=0, eval_every=ROUNDS, workers=workers)
    sim = FederatedSimulation(split, _factory, config)
    # Spin the pool (and shm segments) up outside the timed region:
    # fork + initializer + segment creation is a one-off, not a
    # per-round cost.
    sim.executor.warm_up()
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    final = as_store(sim.server.global_weights).buffer.copy()
    report = sim.cost_meter.report
    sim.executor.close()
    return elapsed, final, report


@pytest.mark.bench
def test_parallel_round_speedup():
    rng = np.random.default_rng(0)
    dataset = synthetic_tabular(rng, NUM_SAMPLES, INPUT_DIM, NUM_CLASSES,
                                noise=0.2, name="bench-round")
    split = split_for_membership(dataset, rng)
    cores = _available_cores()

    serial_seconds, serial_final, _ = _timed_run(split, workers=0)
    parallel_seconds, parallel_final, report = _timed_run(
        split, workers=WORKERS)

    speedup = serial_seconds / parallel_seconds
    pickled_per_round = report.ipc_bytes_pickled / ROUNDS
    shared_per_round = report.ipc_bytes_shared / ROUNDS
    pickled_per_client = report.ipc_bytes_pickled \
        / max(1, report.clients_completed)

    OUTPUT.write_text(json.dumps({
        "benchmark": "FL round: serial vs parallel executor",
        "clients": NUM_CLIENTS,
        "workers": WORKERS,
        "rounds": ROUNDS,
        "available_cores": cores,
        # Unpinned BLAS threads oversubscribe the cores once several
        # workers train at the same time.
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "default"),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(speedup, 2),
        "ipc_pickled_bytes_per_round": int(pickled_per_round),
        "ipc_shared_bytes_per_round": int(shared_per_round),
        "ipc_pickled_bytes_per_client": int(pickled_per_client),
    }, indent=2) + "\n")

    print()
    print(f"serial    {serial_seconds:8.3f}s")
    print(f"parallel  {parallel_seconds:8.3f}s  "
          f"({pickled_per_round / 2**10:.1f} KiB/round pickled, "
          f"{shared_per_round / 2**20:.1f} MiB/round shared)")
    print(f"speedup   {speedup:8.2f}x ({WORKERS} workers, {cores} cores)")

    # Determinism is asserted unconditionally — it must hold anywhere.
    assert np.array_equal(serial_final, parallel_final), \
        "parallel run diverged from the serial reference"

    # So is the IPC-volume contract: it is hardware-independent.
    assert pickled_per_client <= DESCRIPTOR_BYTES_CAP, \
        f"per-client pipe payload is {pickled_per_client:.0f} " \
        f"bytes — not O(descriptor) (cap {DESCRIPTOR_BYTES_CAP})"

    if cores < WORKERS:
        pytest.skip(f"only {cores} core(s) available; the >= 2x "
                    f"speedup floor needs {WORKERS}")
    assert speedup >= 2.0, \
        f"expected >= 2x with {WORKERS} workers on {cores} cores, " \
        f"measured {speedup:.2f}x"


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-q", "-m", "bench"])
