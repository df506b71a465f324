"""Command-line interface.

Run any cell of the paper's evaluation without writing code::

    python -m repro run --dataset purchase100 --defense dinar
    python -m repro run --dataset gtsrb --defense ldp --attack shadow
    python -m repro analyze --dataset celeba
    python -m repro list

``run`` prints the Appendix-A metrics (attack AUC against global and
local models, client accuracy) plus measured costs, and can dump a
JSON summary with ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

import numpy as np

from repro.bench.harness import default_config, run_experiment
from repro.data import available_datasets
from repro.fl.aggregation import AGGREGATOR_CHOICES
from repro.fl.behavior import BEHAVIOR_CHOICES
from repro.fl.config import FLConfig
from repro.privacy.defenses import DEFENSE_CHOICES

# Derived from the make_defense registry — the single source of truth
# for defense names, so CLI choices cannot drift from the factory.
DEFENSES = list(DEFENSE_CHOICES)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DINAR reproduction: run FL privacy experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one (dataset, defense) cell")
    run.add_argument("--dataset", required=True,
                     choices=available_datasets())
    run.add_argument("--defense", default="none", choices=DEFENSES)
    run.add_argument("--attack", default="yeom",
                     choices=["yeom", "shadow"])
    run.add_argument("--rounds", type=int, default=None)
    run.add_argument("--clients", type=int, default=None)
    run.add_argument("--local-epochs", type=int, default=None)
    run.add_argument("--lr", type=float, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workers", type=int, default=0,
                     help="worker processes for client training "
                          "(0/1 = serial; results are bitwise "
                          "identical either way)")
    run.add_argument("--sample-fraction", type=float, default=1.0,
                     help="fraction of the selected cohort actually "
                          "sampled each round (cfraction-style; "
                          "default 1.0 = everyone)")
    run.add_argument("--drop-rate", type=float, default=0.0,
                     help="per-(round, client) dropout probability; "
                          "reproducible and worker-count-independent "
                          "(default 0.0)")
    run.add_argument("--completion-threshold", type=float, default=1.0,
                     help="fraction of the sampled cohort that must "
                          "report before the round closes; later "
                          "completions are discarded as stragglers "
                          "(default 1.0 = wait for everyone)")
    run.add_argument("--dtype", default="float64",
                     choices=["float32", "float64"],
                     help="compute-plane precision (float64 is the "
                          "bitwise reproduction default; float32 "
                          "halves memory traffic and upload bytes)")
    run.add_argument("--aggregator", default="fedavg",
                     choices=list(AGGREGATOR_CHOICES),
                     help="server aggregation rule (fedavg streams in "
                          "constant memory; trimmed_mean, "
                          "coordinate_median and clustered are "
                          "Byzantine-robust order statistics over the "
                          "dense update matrix)")
    run.add_argument("--distance-mask", default="none",
                     choices=["none", "obfuscated"],
                     help="segment-mask the clustered aggregator's "
                          "distance metric: obfuscated excludes the "
                          "defense's protected (DINAR-obfuscated) "
                          "layers so norm clustering sees only honest "
                          "segments (requires --aggregator clustered)")
    run.add_argument("--adversary", default="none",
                     choices=list(BEHAVIOR_CHOICES),
                     help="adversarial client behavior (byzantine = "
                          "boosted sign-flip; see also "
                          "byzantine_gaussian, label_flip, free_rider)")
    run.add_argument("--adversary-fraction", type=float, default=0.0,
                     help="fraction of clients that are adversarial; "
                          "which ids is a seeded pure function of the "
                          "config (default 0.0)")
    run.add_argument("--alpha", type=float, default=math.inf,
                     help="Dirichlet non-IID alpha (default IID)")
    run.add_argument("--samples", type=int, default=None,
                     help="override dataset size")
    run.add_argument("--out", default=None,
                     help="write a JSON summary to this path")

    analyze = sub.add_parser(
        "analyze", help="per-layer membership-leakage analysis (paper §3)")
    analyze.add_argument("--dataset", required=True,
                        choices=available_datasets())
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--method", default="gradient_norms",
                         choices=["gradient_norms", "gradient_values"],
                         help="per-layer divergence statistic: "
                              "gradient_norms (per-sample gradient "
                              "norm distributions, the default) or "
                              "gradient_values (raw gradient value "
                              "distributions)")

    sub.add_parser("list", help="list datasets and defenses")
    return parser


def _config_from_args(args) -> FLConfig:
    base = default_config(args.dataset, seed=args.seed)

    def given(value, default):
        # an explicit 0 must reach FLConfig's check, not mean "default"
        return default if value is None else value

    rounds = given(args.rounds, base.rounds)
    return FLConfig(
        num_clients=given(args.clients, base.num_clients),
        rounds=rounds,
        local_epochs=given(args.local_epochs, base.local_epochs),
        lr=given(args.lr, base.lr),
        batch_size=base.batch_size,
        seed=args.seed,
        eval_every=rounds,
        workers=args.workers,
        sample_fraction=args.sample_fraction,
        drop_rate=args.drop_rate,
        completion_threshold=args.completion_threshold,
        dtype=args.dtype,
        aggregator=args.aggregator,
        distance_mask=args.distance_mask,
        adversary=args.adversary,
        adversary_fraction=args.adversary_fraction,
    )


def _cmd_run(args) -> int:
    from repro.bench.reporting import format_table

    result = run_experiment(
        args.dataset, args.defense, attack=args.attack,
        config=_config_from_args(args), dirichlet_alpha=args.alpha,
        n_samples=args.samples, seed=args.seed)
    costs = result.costs
    rows = [
        ["attack AUC vs global model", f"{100 * result.global_auc:.1f}%"],
        ["attack AUC vs client uploads", f"{100 * result.local_auc:.1f}%"],
        ["global model accuracy", f"{100 * result.global_accuracy:.1f}%"],
        ["mean client accuracy", f"{100 * result.client_accuracy:.1f}%"],
        ["client train time / round",
         f"{costs.train_seconds_per_round:.3f}s"],
        ["server aggregation / round",
         f"{1000 * costs.aggregate_seconds_per_round:.1f}ms"],
        ["defense extra state",
         f"{costs.defense_state_bytes / 1024:.0f} KiB"],
        ["fleet participation", costs.participation_summary()],
        ["client plane", costs.client_plane_summary()],
        ["traffic", costs.traffic_summary()],
        ["executor IPC", costs.ipc_summary()],
        ["robustness",
         f"{args.aggregator} aggregator, "
         f"{result.simulation.behavior.describe()} clients"],
    ]
    if costs.segment_budget:
        rows.append(["per-segment (eps, sigma)",
                     costs.segment_budget_summary()])
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.dataset} under {args.defense} "
              f"({args.attack} attack; 50% AUC is optimal)"))
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(result.to_dict(), indent=2) + "\n")
        print(f"\nsummary written to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.bench.reporting import format_table
    from repro.core.sensitivity import layer_divergences

    print(f"training an unprotected FL model on {args.dataset}...")
    result = run_experiment(args.dataset, "none", attack="yeom",
                            seed=args.seed,
                            config=default_config(args.dataset,
                                                  seed=args.seed))
    simulation = result.simulation
    members = simulation.split.members
    sensitivity = layer_divergences(
        simulation.global_model(), members.x, members.y,
        simulation.split.nonmembers.x, simulation.split.nonmembers.y,
        rng=np.random.default_rng(args.seed),
        method=args.method)
    rows = [
        [idx, name, f"{div:.4f}",
         "<-- obfuscate this one"
         if idx == sensitivity.most_sensitive_layer else ""]
        for idx, name, div in sensitivity.as_rows()
    ]
    print(format_table(["layer", "name", "JS divergence", ""], rows,
                       title=f"membership leakage per layer - "
                             f"{args.dataset}"))
    return 0


def _cmd_list() -> int:
    print("datasets:", ", ".join(available_datasets()))
    print("defenses:", ", ".join(DEFENSES))
    print("attacks: yeom, shadow")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    return _cmd_list()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
