"""Fleet-scale memory: aggregation and the virtual client plane.

The fleet plane's claim is that cohort size is a free axis on the
aggregation side: a round over 100k sampled clients folds through the
:class:`StreamingAccumulator` in the same peak memory as a 1k round,
while the dense path — every upload held as a row of the simulation's
upload registry, which ``requires_dense`` rules read — grows linearly.
This benchmark measures both at
1k/10k/100k synthetic clients (updates generated one at a time from
per-client seeds, so the harness itself never materializes the fleet),
and verifies the streamed FedAvg matches :func:`fedavg_reference`
within the pinned 2-ULP envelope at 1k clients.

The virtual client plane makes the same claim on the *client* side:
clients are descriptors rebound onto one training model, so
materializing a fixed training cohort out of a 100k-client fleet peaks
at the same client-plane memory as out of a 1k-client fleet — while
the eager plane (one factory-built model + one dataset copy per
client, the pre-virtual layout) grows linearly with fleet size.  Both
claims are gated; results land in ``BENCH_fleet.json`` at the repo
root.
"""

from __future__ import annotations

import json
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

from repro.data.partition import ClientShards
from repro.data.synthetic import synthetic_tabular
from repro.fl.aggregation import StreamingAccumulator
from repro.fl.config import FLConfig
from repro.fl.virtual import PersonalWeightsRegistry, VirtualClientFleet
from repro.models.fcnn import build_fcnn
from repro.nn.store import WeightStore
from repro.privacy.defenses.make import make_defense_for_config
from tests.conftest import fedavg_reference

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_fleet.json"

STREAM_COUNTS = (1_000, 10_000, 100_000)
DENSE_COUNTS = (1_000, 10_000)  # 100k dense would be ~2.4 GB: the point

VIRTUAL_COUNTS = (1_000, 10_000, 100_000)
EAGER_COUNTS = (1_000, 2_000)  # 100k eager is the multi-GB failure mode
COHORT = 64          # clients actually trained per measured round
SHARD_SIZE = 16      # samples per client shard


def _merge_output(benchmark: str, new_entries: list[dict],
                  replace_paths: set[str]) -> None:
    """Merge one section's entries into ``BENCH_fleet.json``.

    The aggregation and client-plane benches are separate tests that
    share the output file; each rewrites only its own paths so running
    one does not drop the other's numbers.
    """
    entries: list[dict] = []
    if OUTPUT.exists():
        entries = [e for e in json.loads(OUTPUT.read_text())["entries"]
                   if e["path"] not in replace_paths]
    OUTPUT.write_text(json.dumps({
        "benchmark": benchmark,
        "entries": entries + new_entries,
    }, indent=2) + "\n")


def _client_model(rng: np.random.Generator):
    return build_fcnn(40, 20, rng, hidden=(32, 32))


def _layout():
    return _client_model(np.random.default_rng(0)).weight_layout()


def _client_update(layout, client_id: int) -> np.ndarray:
    """One synthetic client's flat update, regenerable from its id."""
    rng = np.random.default_rng((7, client_id))
    return rng.standard_normal(layout.num_params)


def _num_samples(n: int) -> np.ndarray:
    return np.random.default_rng(13).integers(20, 200, size=n)


def _stream_round(layout, n: int):
    """Fold n generated updates; return (result, seconds, peak_bytes,
    accumulator_nbytes)."""
    samples = _num_samples(n)
    total = float(samples.sum())
    tracemalloc.start()
    start = time.perf_counter()
    acc = StreamingAccumulator(layout)
    acc.reset(total_weight=total)
    for i in range(n):
        acc.fold(WeightStore(layout, _client_update(layout, i)),
                 weight=float(samples[i]))
    result = acc.drain()
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak, acc.nbytes


def _dense_round(layout, n: int):
    """Hold n generated updates as a dense rule sees them: rows of an
    upload registry reserved for the cohort, handed over as a list of
    row views.  Return (seconds, peak_bytes, bytes of the rows' plane)."""
    tracemalloc.start()
    start = time.perf_counter()
    registry = PersonalWeightsRegistry(layout)
    registry.assign(range(n))
    for i in range(n):
        registry.rows.uploads[registry.row(i)] = _client_update(layout, i)
    stores = list(registry.uploads.values())
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(stores) == n
    return seconds, peak, registry.rows.uploads.nbytes


@pytest.mark.bench
def test_streaming_memory_flat_dense_linear():
    layout = _layout()
    entries = []

    stream_peaks = {}
    for n in STREAM_COUNTS:
        result, seconds, peak, acc_nbytes = _stream_round(layout, n)
        stream_peaks[n] = peak
        entries.append({
            "path": "streaming", "clients": n,
            "params": layout.num_params,
            "round_seconds": round(seconds, 4),
            "peak_mib": round(peak / 2**20, 3),
            "state_mib": round(acc_nbytes / 2**20, 3),
        })
        if n == STREAM_COUNTS[0]:
            reference_result = result

    dense_nbytes = {}
    for n in DENSE_COUNTS:
        seconds, peak, nbytes = _dense_round(layout, n)
        dense_nbytes[n] = nbytes
        entries.append({
            "path": "dense", "clients": n,
            "params": layout.num_params,
            "round_seconds": round(seconds, 4),
            "peak_mib": round(peak / 2**20, 3),
            "state_mib": round(nbytes / 2**20, 3),
        })

    # exactness: streamed FedAvg at 1k clients vs the per-array oracle
    n0 = STREAM_COUNTS[0]
    samples = [int(s) for s in _num_samples(n0)]
    updates = [WeightStore(layout, _client_update(layout, i))
               for i in range(n0)]
    oracle = fedavg_reference(updates, samples)
    np.testing.assert_array_almost_equal_nulp(
        reference_result.buffer, oracle.buffer, nulp=2)

    _merge_output("fleet scale: aggregation and client-plane memory",
                  entries, {"streaming", "dense"})

    print()
    print(f"{'path':<12}{'clients':>9}{'seconds':>10}"
          f"{'peak MiB':>11}{'state MiB':>11}")
    for e in entries:
        print(f"{e['path']:<12}{e['clients']:>9}"
              f"{e['round_seconds']:>10.3f}{e['peak_mib']:>11.2f}"
              f"{e['state_mib']:>11.2f}")

    lo, hi = STREAM_COUNTS[0], STREAM_COUNTS[-1]
    assert stream_peaks[hi] <= 1.1 * stream_peaks[lo], (
        f"streaming peak must stay flat (within 10%) from {lo} to "
        f"{hi} clients: {stream_peaks[lo]} -> {stream_peaks[hi]} bytes")
    growth = dense_nbytes[DENSE_COUNTS[1]] / dense_nbytes[DENSE_COUNTS[0]]
    expected = DENSE_COUNTS[1] / DENSE_COUNTS[0]
    assert growth >= 0.8 * expected, (
        f"dense batch memory should grow ~linearly "
        f"({expected}x expected, measured {growth:.1f}x)")


def _fleet_fixture(n: int):
    """Members pool, packed shards and a shard list for an n-client
    fleet.  Shards index into one small shared pool (overlap is fine —
    this measures the client plane, not partition statistics), so the
    fixture itself stays out of the traced region's way."""
    members = synthetic_tabular(np.random.default_rng(5), 256, 40, 20,
                                noise=0.3, name="bench")
    base = np.random.default_rng(11).integers(
        0, len(members), size=(n, SHARD_SIZE))
    shard_list = [base[i] for i in range(n)]
    return members, shard_list, ClientShards.pack(shard_list)


def _virtual_round(template, n: int):
    """Materialize a COHORT-client training round out of an n-client
    virtual fleet; return (seconds, peak_bytes).

    Tracing starts after members/shards exist: those are the data
    plane's O(total samples) term, shared with the eager layout.  The
    traced region is what the virtual plane claims is O(cohort):
    fleet construction, cohort materialization (binds + lazy subsets)
    and the personal-weights registry rows the cohort leaves behind.
    """
    members, _, shards = _fleet_fixture(n)
    config = FLConfig(num_clients=n, rounds=1, seed=0)
    defense = make_defense_for_config("none", config)
    cohort = list(range(0, n, max(1, n // COHORT)))[:COHORT]
    tracemalloc.start()
    start = time.perf_counter()
    fleet = VirtualClientFleet(members, shards, template, config,
                               defense)
    registry = PersonalWeightsRegistry(template.weight_layout(), defense)
    registry.assign(cohort)
    for client_id in cohort:
        client = fleet.materialize(client_id)
        # the round's transient subset
        data = fleet.descriptor(client_id).materialize_data()
        registry.rows.personal[registry.row(client_id)] = \
            client.model.weights.buffer
        del data
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return seconds, peak


def _eager_round(n: int):
    """The pre-virtual layout: one model built from the seeded factory
    and one eagerly copied dataset subset per client, all
    simultaneously live.  Return (seconds, peak_bytes)."""
    members, shard_list, _ = _fleet_fixture(n)
    tracemalloc.start()
    start = time.perf_counter()
    clients = [(_client_model(np.random.default_rng(0)),
                members.subset(shard_list[i]))
               for i in range(n)]
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del clients
    return seconds, peak


@pytest.mark.bench
def test_client_plane_memory_flat_eager_linear():
    template = _client_model(np.random.default_rng(0))
    entries = []

    virtual_peaks = {}
    for n in VIRTUAL_COUNTS:
        seconds, peak = _virtual_round(template, n)
        virtual_peaks[n] = peak
        entries.append({
            "path": "virtual-clients", "clients": n,
            "params": template.weight_layout().num_params,
            "round_seconds": round(seconds, 4),
            "peak_mib": round(peak / 2**20, 3),
            "cohort": COHORT,
        })

    eager_peaks = {}
    for n in EAGER_COUNTS:
        seconds, peak = _eager_round(n)
        eager_peaks[n] = peak
        entries.append({
            "path": "eager-clients", "clients": n,
            "params": template.weight_layout().num_params,
            "round_seconds": round(seconds, 4),
            "peak_mib": round(peak / 2**20, 3),
            "cohort": COHORT,
        })

    _merge_output("fleet scale: aggregation and client-plane memory",
                  entries, {"virtual-clients", "eager-clients"})

    print()
    print(f"{'path':<16}{'clients':>9}{'seconds':>10}"
          f"{'peak MiB':>11}")
    for e in entries:
        print(f"{e['path']:<16}{e['clients']:>9}"
              f"{e['round_seconds']:>10.3f}{e['peak_mib']:>11.2f}")

    lo, hi = VIRTUAL_COUNTS[0], VIRTUAL_COUNTS[-1]
    assert virtual_peaks[hi] <= 1.2 * virtual_peaks[lo], (
        f"virtual client-plane peak must stay flat (within 20%) from "
        f"{lo} to {hi} clients: "
        f"{virtual_peaks[lo]} -> {virtual_peaks[hi]} bytes")
    growth = eager_peaks[EAGER_COUNTS[1]] / eager_peaks[EAGER_COUNTS[0]]
    expected = EAGER_COUNTS[1] / EAGER_COUNTS[0]
    assert growth >= 0.8 * expected, (
        f"eager client plane should grow ~linearly "
        f"({expected}x expected, measured {growth:.1f}x)")


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-q"])
