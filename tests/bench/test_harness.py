"""Experiment harness tests (kept tiny for speed)."""

import json

import numpy as np
import pytest

from repro.bench.harness import (
    build_attack,
    default_config,
    make_model_factory,
    quick_experiment,
    run_experiment,
)
from repro.bench.reporting import format_table, paper_vs_measured
from repro.core.dinar import DINAR
from repro.fl.config import FLConfig


TINY = FLConfig(num_clients=2, rounds=2, local_epochs=2, lr=0.1,
                batch_size=32, seed=0)


class TestHarness:
    def test_model_factory_matches_dataset(self):
        factory = make_model_factory("purchase100")
        model = factory(np.random.default_rng(0))
        assert model.num_trainable_layers == 7

    def test_default_config_per_dataset(self):
        assert default_config("purchase100").num_clients == 10
        assert default_config("cifar10").num_clients == 5

    def test_run_experiment_metrics_in_range(self):
        result = run_experiment("purchase100", "none", config=TINY,
                                n_samples=600, attack="yeom")
        assert 0.5 <= result.global_auc <= 1.0
        assert 0.5 <= result.local_auc <= 1.0
        assert 0.0 <= result.client_accuracy <= 1.0
        assert result.costs.server_rounds == 2

    def test_defense_by_name(self):
        result = run_experiment("purchase100", "dinar", config=TINY,
                                n_samples=600, attack="yeom")
        assert result.defense == "dinar"

    def test_defense_by_object(self):
        result = run_experiment(
            "purchase100", DINAR(private_layer=-1), config=TINY,
            n_samples=600, attack="yeom")
        assert result.defense == "dinar"

    def test_dirichlet_alpha_forwarded(self):
        result = run_experiment("purchase100", "none", config=TINY,
                                n_samples=600, attack="yeom",
                                dirichlet_alpha=0.5)
        sim = result.simulation
        sizes = [len(sim.client_dataset(cid))
                 for cid in range(sim.config.num_clients)]
        assert sum(sizes) == len(sim.split.members)

    def test_quick_experiment_defaults(self):
        result = quick_experiment("purchase100", "none", attack="yeom")
        assert result.dataset == "purchase100"

    def test_privacy_utility_point(self):
        result = run_experiment("purchase100", "none", config=TINY,
                                n_samples=600, attack="yeom")
        acc, auc = result.privacy_utility()
        assert 0 <= acc <= 100
        assert 50 <= auc <= 100

    def test_experiment_result_json(self):
        """``to_dict`` is the ``repro run --out`` summary: JSON-ready,
        without the simulation."""
        result = quick_experiment(
            "purchase100", "none", attack="yeom", n_samples=600,
            config=FLConfig(num_clients=2, rounds=1, local_epochs=1))
        summary = json.loads(json.dumps(result.to_dict()))
        assert (summary["dataset"], summary["defense"]) \
            == ("purchase100", "none")
        assert 0.5 <= summary["local_auc"] <= 1.0
        assert summary["costs"]["defense_state_bytes"] \
            == result.costs.defense_state_bytes
        assert "simulation" not in summary

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("purchase100", "none", config=TINY,
                           n_samples=600, attack="oracle")

    def test_build_attack_shadow(self):
        from repro.data import load_dataset, split_for_membership
        split = split_for_membership(
            load_dataset("purchase100", 0, n_samples=400),
            np.random.default_rng(0))
        attack = build_attack("shadow", "purchase100", split,
                              num_shadows=1, shadow_epochs=1)
        assert attack._attack_model is not None


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2.5], ["xx", 3.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0]

    def test_format_table_with_title(self):
        table = format_table(["x"], [[1]], title="T1")
        assert table.splitlines()[0] == "T1"

    def test_paper_vs_measured_row(self):
        row = paper_vs_measured("none", 76.0, 71.9, note="global")
        assert row[0] == "none"
        assert "76" in row[1]
