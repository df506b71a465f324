"""Runs cells in fresh BLAS-pinned processes, checks and summarizes them.

Every cell runs in its own subprocess with OpenBLAS/OpenMP/MKL pinned
to one thread: unpinned, two shm workers oversubscribe the cores
(~5.7x slower rounds) and the BLAS thread count changes the results'
last bits.  No workload uses more than two worker processes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.e2e import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
#: A cell that runs longer than this is killed and counted as failed.
CELL_TIMEOUT_S = 150.0
#: Least set-up samples per measurement: every cell's set-up, topped
#: up with set-up-only processes; set-up time is their median.
SETUP_SAMPLES = 6
#: Set-up time is the median set-up scaled by this over the median
#: calibrator time measured beside it, so that most of a change in the
#: shared host's speed cancels out (README).  A fixed constant close to
#: the calibrator's time on the quiet measurement host; it only sets
#: the scale.
CALIBRATOR_REF_S = 0.27

#: End-to-end metrics and their units; ``BENCHMARK.json`` fixes the
#: regression bounds.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
#: Timings printed beside them but not gated: on the shared measurement
#: host they do not repeat within the 10% a bound may allow (README).
TIMINGS = {
    "run_s": ("s", "lower"),
    "client_rounds_per_s": ("1/s", "higher"),
}
#: Outputs that must repeat bitwise across repeats, traced runs and
#: the stored seed-0 reference.
OUTPUTS = ("weights_sha256", "global_auc", "local_auc", "client_accuracy",
           "global_accuracy")


class CellError(RuntimeError):
    """A cell process failed, timed out or printed no result."""


def preflight() -> None:
    """Refuse to run without the program's source next to us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmarks.e2e: program source {SRC / 'repro'} not found; "
            f"run from the root of a full checkout")


def _shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    return {p.name for p in shm.glob("psm_*")} if shm.is_dir() else set()


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _pinned(command: list[str], name: str) -> dict:
    """Run ``python -m benchmarks.e2e <command>`` in a fresh pinned
    process; returns the JSON object it printed last.

    The process runs in its own process group, so any worker it leaves
    behind is killed with it.
    """
    argv = [sys.executable, "-m", "benchmarks.e2e", *command]
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    with subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CELL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise CellError(f"{name}: timed out after {CELL_TIMEOUT_S} s")
        finally:
            _kill_group(proc.pid)
    if proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise CellError(f"{name}: exit {proc.returncode}: {tail}")
    lines = out.strip().splitlines()
    if not lines:
        raise CellError(f"{name}: printed no result")
    return json.loads(lines[-1])


def spawn(name: str, seed: int, scale: str, *, setup_only: bool = False,
          trace_out: Path | None = None) -> dict:
    """Run one cell in a fresh pinned process; returns its record."""
    command = ["cell", "--workload", name, "--seed", str(seed),
               "--scale", scale]
    if setup_only:
        command.append("--setup-only")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    before = _shm_segments()
    record = _pinned(command, name)
    record["leaked_shm"] = sorted(_shm_segments() - before)
    return record


def calibrate() -> float:
    """Seconds the fixed calibrator took in a fresh pinned process."""
    return _pinned(["calibrate"], "calibrator")["calibrator_s"]


@dataclass
class Measurement:
    """Cells of one workload at one seed and scale."""

    workload: str
    seed: int
    scale: str
    cells: list[dict] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    #: One calibrator run after each untraced cell.
    calibrations: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    traced: dict | None = None
    trace_path: Path | None = None

    def attempt(self, *, setup_only: bool = False,
                trace_out: Path | None = None) -> float:
        """Run one cell and file its record; returns its wall time."""
        self.attempted += 1
        began = time.perf_counter()
        try:
            record = spawn(self.workload, self.seed, self.scale,
                           setup_only=setup_only, trace_out=trace_out)
            if trace_out is None:
                self.calibrations.append(calibrate())
        except CellError as exc:
            self.errors.append(str(exc))
            return time.perf_counter() - began
        if trace_out is not None:
            self.traced = record
        else:
            self.setups.append(record["setup_s"])
            if not setup_only:
                self.cells.append(record)
        return time.perf_counter() - began


def measure(name: str, seed: int, scale: str, *,
            seconds: float | None = None) -> Measurement:
    """Cells of one workload, spread over ``seconds``.

    Without ``seconds``: one full cell.  With it: full cells while the
    slowest so far still fits, then set-up-only processes while they
    fit.  Either way set-up-only processes then top the set-up samples
    up to ``SETUP_SAMPLES``.
    """
    m = Measurement(name, seed, scale)
    start = time.perf_counter()

    def left() -> float:
        return seconds - (time.perf_counter() - start)

    longest = m.attempt()
    if seconds is not None:
        while left() >= longest:
            longest = max(longest, m.attempt())
        longest = 0.0
        while left() >= longest:
            longest = max(longest, m.attempt(setup_only=True))
    for _ in range(SETUP_SAMPLES - len(m.setups)):
        m.attempt(setup_only=True)
    return m


def trace_cell(m: Measurement) -> None:
    """One more cell of ``m`` with every layer wrapped."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{m.workload}-seed{m.seed}-{m.scale}.jsonl"
    m.attempt(trace_out=path)
    m.trace_path = path if m.traced is not None else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rounds(m: Measurement) -> list[dict]:
    """Every round that does not evaluate (the final evaluation is part
    of ``run_s``)."""
    return [r for cell in m.cells for r in cell["rounds"]
            if not r["evaluated"]]


def round_tail(ms: list[Measurement]) -> str:
    """Median and p75 round time with the sample count (the p75 has a
    quarter of the samples beyond it)."""
    seconds = [r["seconds"] for m in ms for r in _rounds(m)]
    q1, median, q3 = quartiles(seconds)
    return (f"round median {median:.4g} s, p75 {q3:.4g} s "
            f"over {len(seconds)} rounds")


def end_to_end(m: Measurement) -> dict[str, float]:
    """The end-to-end metrics of one measurement's untraced cells."""
    return {
        "setup_s": statistics.median(m.setups) * CALIBRATOR_REF_S
        / statistics.median(m.calibrations),
        "peak_rss_mib": statistics.median(
            c["peak_rss_mib"] for c in m.cells),
    }


def timings(m: Measurement) -> dict[str, float]:
    """The ungated ``TIMINGS`` of one measurement's untraced cells."""
    return {
        "run_s": statistics.median(c["run_s"] for c in m.cells),
        "client_rounds_per_s": statistics.median(
            r["completed"] / r["seconds"] for r in _rounds(m)),
    }


def _problems(record: dict, rounds: int) -> list[str]:
    """What is wrong with one full cell's record."""
    problems = []
    for key, low in (("global_auc", 0.5), ("local_auc", 0.5),
                     ("client_accuracy", 0.0), ("global_accuracy", 0.0)):
        value = record[key]
        if not (math.isfinite(value) and low <= value <= 1.0):
            problems.append(f"{key}={value} outside [{low}, 1]")
    if not record["weights_finite"]:
        problems.append("global weights are not finite")
    if len(record["rounds"]) != rounds:
        problems.append(f"{len(record['rounds'])} of {rounds} rounds ran")
    for index, r in enumerate(record["rounds"]):
        if r["sampled"] == 0 or r["completed"] != r["sampled"]:
            problems.append(f"round {index} did not close "
                            f"({r['completed']}/{r['sampled']})")
    if record["leaked_shm"]:
        problems.append(f"leaked /dev/shm segments {record['leaked_shm']}")
    return problems


def fingerprint() -> dict:
    """What fixes the last bits of a cell's outputs on this host.

    The interpreter (``sum`` of floats changed in 3.12), numpy and the
    SIMD kernels it dispatches to, the BLAS build (OpenBLAS picks its
    kernels, and their FMA grouping, from the CPU) and the CPU model.
    """
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": np.__version__,
            "numpy_simd": config["SIMD Extensions"]["found"],
            "blas": f"{blas['name']} {blas['version']}",
            "cpu": cpu}


@functools.cache
def load_reference() -> dict:
    """The stored seed-0 outputs, if they were recorded on a host with
    this host's fingerprint; otherwise none (a one-ULP difference from
    another BLAS kernel changes the weights' digest after 20 rounds)."""
    reference = json.loads(REFERENCE.read_text())
    here = fingerprint()
    if reference["fingerprint"] != here:
        log(f"reference outputs not checked: recorded on "
            f"{reference['fingerprint']}, this host is {here}")
        return {}
    return reference["outputs"]


def check(ms: list[Measurement]) -> tuple[int, list[str]]:
    """Failed attempts and their problems across measurements of one
    workload, seed and scale.

    A full cell fails on an out-of-range or non-finite output, a round
    that did not close, a leaked shm segment, or outputs that differ
    from the first full cell's (repeats, and traced vs untraced, must
    agree bitwise) or from the stored reference for this seed, where
    ``load_reference`` finds one.
    """
    first = ms[0]
    rounds = workloads.get(first.workload, first.scale).config["rounds"]
    expected = load_reference().get(first.scale, {}).get(
        str(first.seed), {}).get(first.workload)
    failed = sum(len(m.errors) for m in ms)
    problems = [e for m in ms for e in m.errors]
    full = [c for m in ms for c in m.cells]
    full += [m.traced for m in ms if m.traced is not None]
    anchor = expected or (full[0] if full else {})
    for index, record in enumerate(full):
        found = _problems(record, rounds)
        found += [f"{k}={record[k]!r} differs from {anchor[k]!r}"
                  for k in OUTPUTS if record[k] != anchor[k]]
        if found:
            failed += 1
            problems += [f"cell {index}: {p}" for p in found]
    return failed, problems


def outputs(m: Measurement) -> dict:
    """The checked outputs of a measurement's first full cell."""
    return {k: m.cells[0][k] for k in OUTPUTS} if m.cells else {}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
