"""Precision plumbing through the federated plane.

The nn-level dtype tests live in ``tests/nn/test_precision.py``; these
cover the FL side: config validation, the simulation's factory/config
dtype guard, defenses preserving float32 end to end, checkpoint
round-trips, dataset generation, and the CLI flag.
"""

import numpy as np
import pytest

from repro.cli import _build_parser, _config_from_args
from repro.data.datasets import load_dataset
from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.checkpoint import load_checkpoint, save_checkpoint
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.models.fcnn import build_fcnn
from repro.nn.activations import ReLU
from repro.nn.layers import Dense
from repro.nn.model import Model
from repro.privacy.defenses.make import make_defense_for_config


def f32_factory(rng: np.random.Generator) -> Model:
    return Model([
        Dense(20, 16, rng, dtype="float32"), ReLU(),
        Dense(16, 4, rng, dtype="float32"),
    ], name="tiny32")


@pytest.fixture
def small_split(rng):
    ds = synthetic_tabular(rng, 400, 20, 4, noise=0.2, dtype="float32")
    return split_for_membership(ds, rng)


def _sim(small_split, defense=None, **cfg_kwargs):
    defaults = dict(num_clients=3, rounds=2, local_epochs=2, lr=0.1,
                    batch_size=16, seed=0, dtype="float32")
    defaults.update(cfg_kwargs)
    return FederatedSimulation(small_split, f32_factory,
                               FLConfig(**defaults), defense)


class TestConfig:
    def test_default_is_float64(self):
        assert FLConfig().dtype == "float64"

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            FLConfig(dtype="float16")

    def test_cli_flag_reaches_config(self):
        parser = _build_parser()
        args = parser.parse_args(
            ["run", "--dataset", "purchase100", "--dtype", "float32"])
        assert _config_from_args(args).dtype == "float32"

    def test_cli_default_is_float64(self):
        parser = _build_parser()
        args = parser.parse_args(["run", "--dataset", "purchase100"])
        assert _config_from_args(args).dtype == "float64"

    def test_cli_rejects_unknown_dtype(self):
        parser = _build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["run", "--dataset", "purchase100", "--dtype", "f16"])


class TestSimulationDtype:
    def test_mismatched_factory_raises(self, small_split,
                                       tiny_model_factory):
        # float64 factory under a float32 config must fail loudly
        # instead of silently upcasting the whole run.
        with pytest.raises(ValueError, match="dtype"):
            FederatedSimulation(
                small_split, tiny_model_factory,
                FLConfig(num_clients=3, rounds=1, local_epochs=1,
                         dtype="float32"))

    def test_run_stays_float32(self, small_split):
        sim = _sim(small_split)
        history = sim.run()
        assert sim.server.global_weights.buffer.dtype == np.float32
        for cid in sim.registry:
            assert sim.registry[cid].buffer.dtype == np.float32
        assert np.isfinite(history.records[-1].global_accuracy)

    @pytest.mark.parametrize(
        "name", ["wdp", "ldp", "cdp", "gc", "sa", "dinar"])
    def test_defenses_preserve_float32(self, small_split, name):
        config = FLConfig(num_clients=3, rounds=1, local_epochs=1,
                          lr=0.1, batch_size=16, seed=0,
                          dtype="float32")
        defense = make_defense_for_config(name, config)
        sim = FederatedSimulation(small_split, f32_factory, config,
                                  defense)
        sim.run()
        buffer = sim.server.global_weights.buffer
        assert buffer.dtype == np.float32
        assert np.all(np.isfinite(buffer))


class TestRoundTrips:
    def test_checkpoint_preserves_float32(self, small_split, tmp_path):
        sim = _sim(small_split)
        sim.run()
        save_checkpoint(sim, tmp_path / "ckpt")
        fresh = _sim(small_split)
        meta = load_checkpoint(fresh, tmp_path / "ckpt")
        assert meta["dtype"] == "float32"
        assert fresh.server.global_weights.buffer.dtype == np.float32
        np.testing.assert_array_equal(
            fresh.server.global_weights.buffer,
            sim.server.global_weights.buffer)

    def test_checkpoint_dtype_mismatch_raises(self, small_split,
                                              tiny_model_factory,
                                              tmp_path):
        sim = _sim(small_split)
        sim.run()
        save_checkpoint(sim, tmp_path / "ckpt")
        ds64 = synthetic_tabular(np.random.default_rng(0), 400, 20, 4,
                                 noise=0.2)
        split64 = split_for_membership(ds64, np.random.default_rng(1))
        fresh64 = FederatedSimulation(
            split64, tiny_model_factory,
            FLConfig(num_clients=3, rounds=1, local_epochs=1))
        with pytest.raises(ValueError, match="float32"):
            load_checkpoint(fresh64, tmp_path / "ckpt")


class TestData:
    def test_load_dataset_dtype(self):
        # the knob sets continuous features' precision; binary tabular
        # features stay bool and a float32 model casts them per batch.
        ds = load_dataset("gtsrb", 0, n_samples=200, dtype="float32")
        assert ds.x.dtype == np.float32
        tab = load_dataset("purchase100", 0, n_samples=200,
                           dtype="float32")
        assert tab.x.dtype == np.bool_
        model = build_fcnn(600, 100, np.random.default_rng(0),
                           dtype="float32")
        assert model.predict_logits(tab.x).dtype == np.float32

    def test_float32_data_is_cast_of_float64(self, rng):
        # generation always draws in float64 with the same RNG stream
        # and casts once, so the float32 set is exactly the cast.
        # Binary features are bool at every dtype, so compare the
        # continuous ones.
        ds64 = synthetic_tabular(np.random.default_rng(7), 100, 20, 4,
                                 binary=False)
        ds32 = synthetic_tabular(np.random.default_rng(7), 100, 20, 4,
                                 binary=False, dtype="float32")
        assert ds64.x.dtype == np.float64
        assert ds32.x.dtype == np.float32
        np.testing.assert_array_equal(ds32.x,
                                      ds64.x.astype(np.float32))
        np.testing.assert_array_equal(ds32.y, ds64.y)
