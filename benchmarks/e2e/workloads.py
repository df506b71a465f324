"""The benchmark's workloads: four ``repro run`` cells.

Each workload is plain data — the arguments a user would pass to
``repro run`` — so a cell process rebuilds it from its name, seed and
scale alone.  ``full`` is the measured scale; ``smoke`` shrinks every
workload to two rounds on small data for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

SCALES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    """One evaluation cell: dataset, defense, attack and FL knobs."""

    name: str
    dataset: str
    defense: str
    attack: str
    n_samples: int
    #: ``FLConfig`` fields over the per-dataset defaults of
    #: ``repro.bench.harness.default_config``; the cell fills in
    #: ``seed`` and ``eval_every = rounds`` as the CLI does.
    config: dict = field(default_factory=dict)
    #: Overrides applied at smoke scale.
    smoke_samples: int = 0
    smoke_config: dict = field(default_factory=dict)

    def at_scale(self, scale: str) -> "Workload":
        if scale == "full":
            return self
        if scale == "smoke":
            return replace(self, n_samples=self.smoke_samples,
                           config={**self.config, **self.smoke_config})
        raise ValueError(f"unknown scale {scale!r}; known: {SCALES}")


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # The paper's headline cell: dense fwd/bwd plus Adagrad are most of
    # every round, so gains in repro.nn show here first.
    Workload(
        name="paper-fcnn-dinar", dataset="purchase100", defense="dinar",
        attack="yeom", n_samples=6000,
        config=dict(num_clients=10, rounds=20, local_epochs=3),
        smoke_samples=1200, smoke_config=dict(rounds=2)),
    # Conv kernels and the per-step DP-SGD clip + noise; the attack
    # layer is busy *training* shadow models.
    Workload(
        name="paper-conv-ldp", dataset="gtsrb", defense="ldp",
        attack="shadow", n_samples=6400,
        config=dict(num_clients=5, rounds=20, local_epochs=3),
        smoke_samples=800, smoke_config=dict(rounds=2, local_epochs=1)),
    # 10k virtual clients with a cohort of 40: per-update bookkeeping,
    # the final evaluation of every registry client, and many small
    # attack scores.  A small model keeps RSS low at this scale.
    Workload(
        name="fleet-10k", dataset="speech_commands", defense="dinar",
        attack="yeom", n_samples=30000,
        config=dict(num_clients=10000, rounds=15, local_epochs=1,
                    sample_fraction=0.004, max_materialized=4),
        smoke_samples=3000,
        smoke_config=dict(num_clients=500, rounds=2,
                          sample_fraction=0.04)),
    # The only workload on the shm executor and the dense robust
    # aggregation; the other three run serial and fold by streaming.
    Workload(
        name="parallel-robust", dataset="purchase100", defense="dinar",
        attack="yeom", n_samples=12000,
        config=dict(num_clients=20, rounds=20, local_epochs=1,
                    workers=2, ipc="shm", aggregator="clustered",
                    distance_mask="obfuscated", adversary="byzantine",
                    adversary_fraction=0.25),
        smoke_samples=2400, smoke_config=dict(rounds=2)),
)}


def get(name: str, scale: str = "full") -> Workload:
    """The named workload at the given scale."""
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; known: "
                         f"{', '.join(WORKLOADS)}") from None
    return workload.at_scale(scale)
