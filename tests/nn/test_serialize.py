"""Weight/result serialization tests."""

import json

import numpy as np

from repro.nn.serialize import (
    experiment_result_to_dict,
    load_store,
    save_experiment_result,
    save_weights,
)


def test_weights_roundtrip(tiny_model, tmp_path):
    path = tmp_path / "weights.npz"
    weights = tiny_model.get_store()
    save_weights(weights, path)
    assert load_store(path).allclose(weights, atol=0.0)


def test_loaded_weights_restore_model(tiny_model, tmp_path, rng):
    path = tmp_path / "weights.npz"
    save_weights(tiny_model.get_store(), path)
    x = rng.standard_normal((4, 20))
    expected = tiny_model.predict_logits(x)
    clone = tiny_model.clone()
    clone.trainable[0].params["W"][...] = 0.0
    clone.set_store(load_store(path, clone.weight_layout()))
    assert np.allclose(clone.predict_logits(x), expected)


def test_batchnorm_buffers_roundtrip(rng, tmp_path):
    from repro.nn.activations import Tanh
    from repro.nn.layers import BatchNorm1d, Dense
    from repro.nn.model import Model
    model = Model([Dense(4, 6, rng), BatchNorm1d(6), Tanh(),
                   Dense(6, 2, rng)])
    model.forward(rng.standard_normal((16, 4)), training=True)
    path = tmp_path / "bn.npz"
    save_weights(model.get_store(), path)
    loaded = load_store(path)
    assert "running_mean" in loaded.layout.layer_keys(1)


def test_experiment_result_json(tmp_path):
    from repro.bench.harness import quick_experiment
    from repro.fl.config import FLConfig
    result = quick_experiment(
        "purchase100", "none", attack="yeom", n_samples=600,
        config=FLConfig(num_clients=2, rounds=1, local_epochs=1))
    summary = experiment_result_to_dict(result)
    assert summary["dataset"] == "purchase100"
    assert 0.5 <= summary["local_auc"] <= 1.0
    path = tmp_path / "result.json"
    save_experiment_result(result, path)
    assert json.loads(path.read_text())["defense"] == "none"
