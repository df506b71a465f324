"""Self-test of the end-to-end benchmark.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import runner
from benchmarks.e2e.__main__ import judge, main
from benchmarks.e2e.breakdown import PER_LAYER, unit_of
from benchmarks.e2e.trace import Recorder, Trace
from benchmarks.e2e.workloads import WORKLOADS, get


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((runner.ROOT / "BENCHMARK.json").read_text())


def _units(entries: list[dict]) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory) -> tuple[dict, float]:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    start = time.perf_counter()
    code = main(["run", "--scale", "smoke", "--repeats", "1",
                 "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0, "a smoke cell failed; see the printed problems"
    return json.loads(out.read_text()), elapsed


def test_every_workload_runs_at_smoke_scale_in_under_60s(smoke_run):
    result, elapsed = smoke_run
    assert set(result["workloads"]) == set(WORKLOADS)
    for name, entry in result["workloads"].items():
        assert entry["failed"] == 0, (name, entry["problems"])
        assert entry["error_rate"] == 0.0
    assert elapsed < 60.0


def test_workloads_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/e2e"]


def test_run_emits_every_metric_with_its_unit(smoke_run, spec):
    result, _ = smoke_run
    e2e, layers = _units(spec["end_to_end"]), _units(spec["per_layer"])
    assert e2e == runner.END_TO_END
    assert layers == {name: unit_of(name) for name in PER_LAYER}
    for entry in result["workloads"].values():
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} \
            == e2e
        assert {k: v["unit"] for k, v in entry["timings"].items()} \
            == {k: unit for k, (unit, _) in runner.TIMINGS.items()}
        assert {k: v["unit"] for k, v in entry["per_layer"].items()} \
            == layers


@pytest.mark.parametrize("trace", [0, 1])
def test_bench_command_prints_the_contract_json_line(trace, spec):
    argv = [*spec["command"], "--workload", "paper-fcnn-dinar",
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--scale", "smoke"]
    argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=runner.ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = _units(spec["per_layer" if trace else "end_to_end"])
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    if trace:
        assert line["metrics"]["trace.coverage"]["value"] >= 0.95


def test_bench_refuses_to_run_without_the_program(tmp_path, spec):
    for path in spec["paths"]:
        shutil.copytree(runner.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(runner.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload",
         "paper-fcnn-dinar", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_harness_mirrors_the_cli(tmp_path):
    """Same AUCs and accuracy as ``repro run`` with the same config,
    both pinned to one BLAS thread."""
    workload = get("paper-fcnn-dinar", "smoke")
    cell = runner.spawn(workload.name, 0, "smoke")
    out = tmp_path / "cli.json"
    config = workload.config
    env = dict(os.environ, **runner.BLAS_PIN,
               PYTHONPATH=str(runner.SRC))
    subprocess.run(
        [sys.executable, "-m", "repro", "run",
         "--dataset", workload.dataset, "--defense", workload.defense,
         "--attack", workload.attack, "--seed", "0",
         "--rounds", str(config["rounds"]),
         "--clients", str(config["num_clients"]),
         "--local-epochs", str(config["local_epochs"]),
         "--samples", str(workload.n_samples), "--out", str(out)],
        cwd=runner.ROOT, env=env, check=True, capture_output=True,
        timeout=170)
    cli = json.loads(out.read_text())
    for key in ("global_auc", "local_auc", "client_accuracy",
                "global_accuracy"):
        assert cell[key] == cli[key], key


def test_reference_is_enforced_only_on_a_matching_host(tmp_path,
                                                        monkeypatch):
    stored = json.loads(runner.REFERENCE.read_text())
    assert stored["fingerprint"].keys() == runner.fingerprint().keys()
    other = dict(stored, fingerprint=dict(stored["fingerprint"],
                                          blas="another BLAS"))
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(other))
    monkeypatch.setattr(runner, "REFERENCE", path)
    runner.load_reference.cache_clear()
    try:
        assert runner.load_reference() == {}
    finally:
        runner.load_reference.cache_clear()


def test_self_time_subtracts_direct_children(tmp_path):
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            time.sleep(0.01)
        with rec.span("inner"):
            time.sleep(0.01)
    path = tmp_path / "t.jsonl"
    rec.write_jsonl(str(path), meta={"run_s": 1.0})
    rows = Trace.load(str(path)).by_name()
    assert rows["inner"]["calls"] == 2
    outer = rows["outer"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - rows["inner"]["total_s"])
    assert outer["self_s"] < 0.005


@pytest.mark.parametrize("a, b, better, verdict", [
    ([10.0, 10.1, 10.2], [10.0, 10.1, 10.2], "lower", "within bound"),
    ([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "lower", "regressed"),
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "higher", "regressed"),
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "lower", "within bound"),
    ([8.0, 10.0, 12.0], [9.0, 11.0, 13.0], "lower", "unresolved"),
    ([8.0, 10.0, 12.0], [5.0, 6.0, 7.0], "lower", "within bound"),
])
def test_compare_verdicts(a, b, better, verdict):
    assert judge(a, b, better, 0.1)[0] == verdict


def _run_result(outputs: dict, failed: int = 0, seed: int = 1) -> dict:
    summary = {"values": [1.0, 1.0, 1.0], "median": 1.0, "q1": 1.0,
               "q3": 1.0}
    measured = {
        "end_to_end": {name: dict(summary, unit=unit)
                       for name, unit in runner.END_TO_END.items()},
        "timings": {name: dict(summary, unit=unit)
                    for name, (unit, _) in runner.TIMINGS.items()},
    } if outputs else {"end_to_end": {}, "timings": {}}
    return {"seed": seed, "scale": "full", "workloads": {
        "paper-fcnn-dinar": {"failed": failed, "outputs": outputs,
                             **measured}}}


@pytest.mark.parametrize("b, code", [
    (_run_result({"global_auc": 0.5}), 0),
    (_run_result({"global_auc": 0.51}), 1),   # behaviour change
    (_run_result({"global_auc": 0.5}, failed=1), 1),
    (_run_result({}, failed=3), 1),           # no cell succeeded
])
def test_compare_flags_changed_outputs_and_failures(tmp_path, b, code):
    paths = []
    for name, result in (("a", _run_result({"global_auc": 0.5})), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(result))
    assert main(["compare", *map(str, paths)]) == code


def test_compare_refuses_runs_of_different_seeds(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_run_result({"global_auc": 0.5})))
    b.write_text(json.dumps(_run_result({"global_auc": 0.5}, seed=2)))
    with pytest.raises(SystemExit):
        main(["compare", str(a), str(b)])
