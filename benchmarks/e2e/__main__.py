"""Command line: ``python -m benchmarks.e2e <command>``.

Run from the repository root.  Commands:

* ``run``     — every workload, repeats interleaved (w1..w4, w1..w4,
  ...) plus one traced cell each; prints every metric with its unit
  and writes a result JSON;
* ``bench``   — one workload for a fixed time; the last line of output
  is one JSON object (the command ``BENCHMARK.json`` names);
* ``report``  — the per-layer table of a written trace;
* ``compare`` — a verdict per workload and end-to-end metric between
  two ``run`` results; exits non-zero on any regression;
* ``cell``    — one cell in this process (what the runner spawns).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from benchmarks.e2e import runner
from benchmarks.e2e.breakdown import (
    emphasis,
    per_layer_metrics,
    render,
    unit_of,
)
from benchmarks.e2e.cell import calibrate, run_cell
from benchmarks.e2e.trace import Trace
from benchmarks.e2e.workloads import SCALES, WORKLOADS, get

log = runner.log


def _cell(args) -> int:
    result, rec = run_cell(get(args.workload, args.scale), args.seed,
                           traced=args.trace_out is not None,
                           setup_only=args.setup_only)
    if args.trace_out is not None:
        rec.write_jsonl(args.trace_out, meta={
            "workload": args.workload, "seed": args.seed,
            "scale": args.scale, "setup_s": result["setup_s"],
            "run_s": result["run_s"]})
    print(json.dumps(result))
    return 0


def _calibrate(args) -> int:
    print(json.dumps({"calibrator_s": calibrate()}))
    return 0


def _print_metrics(values: dict[str, float], units: dict[str, str]) -> None:
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")


def _bench(args) -> int:
    """Untraced: cells spread over ``--seconds``.  Traced: one untraced
    cell (the overhead baseline) and one traced cell."""
    runner.preflight()
    if args.trace:
        m = runner.Measurement(args.workload, args.seed, args.scale)
        m.attempt()
        runner.trace_cell(m)
    else:
        m = runner.measure(args.workload, args.seed, args.scale,
                           seconds=args.seconds)
    failed, problems = runner.check([m])
    for problem in problems:
        log(f"{args.workload}: {problem}")
    if not m.cells or (args.trace and m.traced is None):
        log(f"{args.workload}: no successful cell, no result")
        return 1
    timings = runner.timings(m)
    print(f"{args.workload} (seed {args.seed}, {args.scale}): "
          f"{len(m.cells)} cells, {len(m.setups)} set-ups; measured "
          f"set-up median {statistics.median(m.setups):.6g} s, "
          f"calibrator median {statistics.median(m.calibrations):.6g} s"
          f"; {runner.round_tail([m])}; not gated: "
          + ", ".join(f"{name} {value:.6g} {runner.TIMINGS[name][0]}"
                      for name, value in timings.items())
          + f"; outputs {runner.outputs(m)}")
    if args.trace:
        values = per_layer_metrics(Trace.load(str(m.trace_path)),
                                   untraced_run_s=timings["run_s"])
        units = {name: unit_of(name) for name in values}
    else:
        values, units = runner.end_to_end(m), runner.END_TO_END
    _print_metrics(values, units)
    print(json.dumps({
        "correct": failed == 0, "attempted": m.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


def _summaries(per_repeat: list[dict[str, float]],
               units: dict[str, str]) -> dict[str, dict]:
    """Median and quartiles over repeats of each metric."""
    out = {}
    for metric, unit in units.items():
        values = [r[metric] for r in per_repeat]
        q1, median, q3 = runner.quartiles(values)
        out[metric] = {"unit": unit, "values": values, "median": median,
                       "q1": q1, "q3": q3}
    return out


def _run(args) -> int:
    runner.preflight()
    names = list(WORKLOADS)
    repeats: dict[str, list[runner.Measurement]] = {n: [] for n in names}
    for index in range(args.repeats):
        for name in names:
            log(f"repeat {index + 1}/{args.repeats}: {name}")
            repeats[name].append(runner.measure(name, args.seed, args.scale))
    for name in names:
        log(f"traced: {name}")
        runner.trace_cell(repeats[name][-1])

    out = {"seed": args.seed, "scale": args.scale,
           "repeats": args.repeats, "blas_pin": runner.BLAS_PIN,
           "workloads": {}}
    any_failed = False
    timing_units = {name: unit for name, (unit, _) in runner.TIMINGS.items()}
    for name in names:
        ms = repeats[name]
        failed, problems = runner.check(ms)
        attempted = sum(m.attempted for m in ms)
        any_failed |= failed > 0
        measured = [m for m in ms if m.cells]
        entry = {
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "problems": problems,
            "rounds": runner.round_tail(ms),
            "outputs": runner.outputs(ms[0]),
            "end_to_end": _summaries(
                [runner.end_to_end(m) for m in measured],
                runner.END_TO_END) if measured else {},
            "timings": _summaries(
                [runner.timings(m) for m in measured],
                timing_units) if measured else {},
        }
        traced = ms[-1]
        if traced.trace_path is not None and measured:
            trace = Trace.load(str(traced.trace_path))
            untraced = entry["timings"]["run_s"]["median"]
            entry["per_layer"] = {
                metric: {"value": value, "unit": unit_of(metric)}
                for metric, value in
                per_layer_metrics(trace, untraced).items()}
            entry["emphasis"] = emphasis(trace)
            entry["trace"] = str(traced.trace_path.relative_to(
                runner.ROOT))
        out["workloads"][name] = entry

        print(f"\n{name}: {attempted} attempted, {failed} failed "
              f"(error_rate {entry['error_rate']:.3f}); "
              f"{entry['rounds']}; outputs {entry['outputs']}")
        for problem in problems:
            print(f"  PROBLEM {problem}")
        for kind in ("end_to_end", "timings"):
            for metric, s in entry[kind].items():
                print(f"  {metric:<22} {s['median']:>12.6g} {s['unit']:<6}"
                      f" [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]"
                      + ("  not gated" if kind == "timings" else ""))
        if "emphasis" in entry:
            print("  emphasis: " + ", ".join(
                f"{k}={v:.3f}" for k, v in entry["emphasis"].items()))
            print(f"  per-layer metrics: {entry['trace']} "
                  f"(python -m benchmarks.e2e report <trace>)")

    runner.OUT.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else \
        runner.OUT / f"run-seed{args.seed}-{args.scale}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"\nwrote {path}")
    return 1 if any_failed else 0


def judge(a: list[float], b: list[float], better: str,
          bound: float) -> tuple[str, float]:
    """Verdict on B against A for one metric, and B's relative change
    (positive = worse).  Unresolved: the spread of either side exceeds
    the bound, unless every B reads better than every A."""
    qa, qb = runner.quartiles(a), runner.quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "within bound", worse
        return "unresolved", worse
    return ("regressed" if worse > bound else "within bound"), worse


def _compare(args) -> int:
    """Gated metrics are judged against their bounds, and the ungated
    timings are shown beside them.  Outputs must be equal, and B may
    not fail more often than A."""
    spec = json.loads((runner.ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        raise SystemExit(f"compare: A ran seed {a['seed']} at {a['scale']} "
                         f"scale, B seed {b['seed']} at {b['scale']}")
    metrics = [(m["name"], "end_to_end", m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics += [(name, "timings", better, None)
                for name, (_, better) in runner.TIMINGS.items()]
    bad = False
    print(f"{'workload':<18} {'metric':<20} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'worse':>8}  verdict")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        if wb["failed"] > wa["failed"] or not wb["end_to_end"]:
            bad = True
            print(f"{workload:<18} failed cells: A {wa['failed']}, "
                  f"B {wb['failed']}  regressed")
        if wa["outputs"] != wb["outputs"]:
            bad = True
            print(f"{workload:<18} outputs: A {wa['outputs']}, "
                  f"B {wb['outputs']}  behaviour changed")
        if not (wa["end_to_end"] and wb["end_to_end"]):
            continue
        for name, kind, better, bound in metrics:
            sa, sb = wa[kind][name], wb[kind][name]
            verdict, worse = judge(sa["values"], sb["values"], better,
                                   math.inf if bound is None else bound)
            if bound is None:
                verdict = "not gated"
            else:
                bad |= verdict == "regressed"
                verdict += f" (bound {100 * bound:.0f}%)"
            print(f"{workload:<18} {name:<20} "
                  f"{sa['median']:>12.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}]"
                  f" {sb['median']:>12.5g} [{sb['q1']:.5g}, "
                  f"{sb['q3']:.5g}] {100 * worse:>7.2f}%  {verdict}")
    return 1 if bad else 0


def _report(args) -> int:
    print(render(Trace.load(args.trace)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="every workload, repeated + traced")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scale", default="full", choices=SCALES)
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--out", default=None, help="result JSON path")

    bench = sub.add_parser("bench", help="one workload, timed; JSON line")
    bench.add_argument("--workload", required=True, choices=list(WORKLOADS))
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--seconds", type=float, default=20.0)
    bench.add_argument("--trace", type=int, default=0, choices=(0, 1))
    bench.add_argument("--scale", default="full", choices=SCALES)

    report = sub.add_parser("report", help="per-layer table of a trace")
    report.add_argument("trace")

    compare = sub.add_parser("compare", help="A vs B run results")
    compare.add_argument("a")
    compare.add_argument("b")

    cell = sub.add_parser("cell", help="one cell in this process")
    cell.add_argument("--workload", required=True, choices=list(WORKLOADS))
    cell.add_argument("--seed", type=int, default=0)
    cell.add_argument("--scale", default="full", choices=SCALES)
    cell.add_argument("--trace-out", default=None)
    cell.add_argument("--setup-only", action="store_true",
                      help="end once the simulation is ready")

    sub.add_parser("calibrate", help="the host-speed calibrator, once")

    args = parser.parse_args(argv)
    return {"run": _run, "bench": _bench, "report": _report,
            "compare": _compare, "cell": _cell,
            "calibrate": _calibrate}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
