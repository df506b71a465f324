"""Workspace-plane tests: arena keying, bitwise parity, lifecycle,
input cast, process-locality.

The workspace's contract has five legs:

* **Keying** — scratch buffers are interned by
  ``(owner index, role, trailing shape, dtype)``; any differing
  component means a distinct buffer, and the leading axis is capacity:
  a shorter request is a prefix view, a longer one reallocates.
* **Bitwise parity** — training on a warm arena produces the exact
  same float trajectory as training with the arena cleared before
  every step (every request a miss, so each batch computes in buffers
  of its own size), at float64 *and* float32, including partial final
  batches served from the full-batch buffers.
* **Lifecycle** — an arena is freed by refcounting with its model
  (no cyclic GC pass needed); once warm it stops allocating: neither
  more steps, fresh losses nor partial batches grow it.
* **Input cast** — a non-floating batch (binary tabular features are
  bool) is copied into the first layer's ``"input"`` buffer in the
  model's dtype, bitwise equal to passing the cast batch; a floating
  batch of the model's dtype is passed through with no copy.
* **Process-locality** — ``Workspace`` refuses to pickle, and so does
  the model holding it, so a successful ``pickle.dumps`` of any
  payload doubles as proof that no workspace is reachable from it.
"""

import copy
import gc
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import make_model_factory
from repro.data.datasets import load_dataset
from repro.data.partition import split_for_membership
from repro.models.fcnn import build_fcnn
from repro.models.vgg import build_vgg_small
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD
from repro.nn.workspace import Workspace
from repro.privacy.attacks.shadow import ShadowAttack


class TestArenaKeying:
    def test_same_key_reuses_buffer(self):
        ws = Workspace()
        owner = object()
        first = ws.request(owner, "out", (4, 3), np.float64)
        second = ws.request(owner, "out", (4, 3), np.float64)
        assert first is second
        assert ws.misses == 1 and ws.hits == 1
        assert ws.num_buffers == 1

    def test_distinct_owners_never_share(self):
        ws = Workspace()
        a, b = object(), object()
        assert ws.request(a, "out", (4, 3), np.float64) is not \
            ws.request(b, "out", (4, 3), np.float64)
        assert ws.num_buffers == 2

    def test_role_shape_dtype_all_key(self):
        ws = Workspace()
        owner = object()
        base = ws.request(owner, "out", (4, 3), np.float64)
        assert ws.request(owner, "mask", (4, 3), np.float64) is not base
        assert ws.request(owner, "out", (4, 2), np.float64) is not base
        assert ws.request(owner, "out", (4, 3), np.float32) is not base
        # a shorter leading axis is a prefix of the held buffer
        part, fresh = ws.request_info(owner, "out", (2, 3), np.float64)
        assert not fresh and part.shape == (2, 3)
        assert np.shares_memory(part, base)
        assert ws.request(owner, "out", (4, 3), np.float64) is base
        # a longer one reallocates and reports it
        grown, fresh = ws.request_info(owner, "out", (6, 3), np.float64)
        assert fresh and grown.shape == (6, 3)
        assert not np.shares_memory(grown, base)
        assert ws.request(owner, "out", (6, 3), np.float64) is grown
        # one buffer per (owner, role, trailing shape, dtype)
        assert ws.num_buffers == 4

    def test_request_info_reports_freshness(self):
        ws = Workspace()
        owner = object()
        _, fresh = ws.request_info(owner, "pad", (2, 2), np.float64)
        assert fresh
        _, fresh = ws.request_info(owner, "pad", (2, 2), np.float64)
        assert not fresh

    def test_zeros_refills_every_call(self):
        ws = Workspace()
        owner = object()
        buf = ws.zeros(owner, "col2im", (3, 3), np.float64)
        buf += 7.0
        again = ws.zeros(owner, "col2im", (3, 3), np.float64)
        assert again is buf
        assert np.all(again == 0.0)

    def test_owner_interning_survives_id_reuse(self):
        # the arena keeps strong refs, so a dead owner's recycled id()
        # can never alias a live owner's buffers.
        ws = Workspace()
        owner = object()
        index = ws.owner_index(owner)
        del owner
        others = [object() for _ in range(64)]
        assert all(ws.owner_index(o) != index for o in others)

    def test_workspace_refuses_pickling(self):
        with pytest.raises(TypeError, match="process-local"):
            pickle.dumps(Workspace())


def _conv_setup(dtype, seed=3):
    model = build_vgg_small((3, 8, 8), 5, np.random.default_rng(seed),
                            dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((12, 3, 8, 8)).astype(dtype)
    y = rng.integers(0, 5, 12)
    return model, x, y


def _dense_setup(dtype, seed=3):
    model = build_fcnn(20, 4, np.random.default_rng(seed), dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((16, 20)).astype(dtype)
    y = rng.integers(0, 4, 16)
    return model, x, y


def _train(model, x, y, steps=3, batch_sizes=None, clear=False):
    """A few SGD steps; returns (losses, final flat buffer copy).

    ``clear=True`` empties the arena before every step, so every
    request misses and each batch computes in buffers of its own size:
    the reference the warm arena must match bitwise.
    """
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(model, 0.05)
    losses = []
    for step in range(steps):
        if batch_sizes is None:
            xb, yb = x, y
        else:
            size = batch_sizes[step % len(batch_sizes)]
            xb, yb = x[:size], y[:size]
        if clear:
            model.workspace.clear()
        losses.append(model.loss_and_grad(xb, yb, loss))
        optimizer.step()
    return losses, model.weights.buffer.copy()


def _arena_footprint(ws):
    return ws.misses, ws.num_buffers, ws.nbytes


@pytest.mark.parametrize("setup", [_conv_setup, _dense_setup],
                         ids=["conv", "dense"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_workspace_on_off_bitwise_identical(setup, dtype):
    """A warm arena ("on") trains exactly as one cleared before every
    step ("off": no buffer outlives its step)."""
    model_on, x, y = setup(dtype)
    model_off, _, _ = setup(dtype)

    losses_on, final_on = _train(model_on, x, y)
    losses_off, final_off = _train(model_off, x, y, clear=True)
    assert losses_on == losses_off
    assert np.array_equal(final_on, final_off)
    ws = model_on.workspace
    assert ws.num_buffers > 0 and ws.hits > 0


@pytest.mark.parametrize("setup", [_conv_setup, _dense_setup],
                         ids=["conv", "dense"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@settings(max_examples=8, deadline=None)
@given(partial=st.integers(min_value=1, max_value=11),
       seed=st.integers(min_value=0, max_value=2**16))
def test_partial_batches_rekey_bitwise(setup, dtype, partial, seed):
    """full / partial / full batch alternation matches a cleared arena.

    A smaller final batch is served a prefix of the full-batch buffers;
    it must compute exactly as buffers of its own would, so the warm
    run stays bitwise equal to one whose arena is emptied every step.
    """
    sizes = [12, partial, 12]
    model_ws, x, y = setup(dtype, seed=seed % 97)
    model_fresh, _, _ = setup(dtype, seed=seed % 97)

    losses_ws, final_ws = _train(model_ws, x, y, steps=6,
                                 batch_sizes=sizes)
    losses_fresh, final_fresh = _train(model_fresh, x, y, steps=6,
                                       batch_sizes=sizes, clear=True)
    assert losses_ws == losses_fresh
    assert np.array_equal(final_ws, final_fresh)


class TestLifecycle:
    @pytest.mark.parametrize("setup", [_conv_setup, _dense_setup],
                             ids=["conv", "dense"])
    def test_arena_dies_with_its_model(self, setup):
        model, x, y = setup("float64")
        gc.disable()
        try:
            _train(model, x, y, steps=1)
            arena = weakref.ref(model.workspace)
            del model
            assert arena() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("dataset", ["gtsrb", "cifar10",
                                         "speech_commands"])
    def test_release_scratch_leaves_nothing_pinned(self, dataset):
        """After a prediction, releasing the scratch empties the arena
        and every layer's caches (a residual block's sublayers too),
        and the next prediction is bitwise the first."""
        model = make_model_factory(dataset)(np.random.default_rng(0))
        x = load_dataset(dataset, 0, n_samples=300).x
        logits = model.predict_logits(x)
        model.release_scratch()
        assert model.workspace.num_buffers == 0
        layers = [sub for layer in model.layers
                  for sub in (layer, *vars(layer).values())
                  if hasattr(sub, "_ephemeral")]
        assert not [key for layer in layers for key in layer._ephemeral
                    if key in vars(layer)]
        assert model.predict_logits(x).tobytes() == logits.tobytes()

    def test_shadow_fit_frees_every_shadow_arena(self):
        data = load_dataset("gtsrb", 0, n_samples=480)
        split = split_for_membership(data, np.random.default_rng(0))
        build = make_model_factory("gtsrb")
        arenas = []

        def factory(rng):
            model = build(rng)
            arenas.append(weakref.ref(model.workspace))
            return model

        gc.disable()
        try:
            ShadowAttack(factory, num_shadows=2, epochs=1,
                         attack_epochs=1).fit(split.source,
                                             split.attacker_idx)
            assert len(arenas) == 2
            assert all(arena() is None for arena in arenas)
        finally:
            gc.enable()

    @pytest.mark.parametrize("setup", [_conv_setup, _dense_setup],
                             ids=["conv", "dense"])
    def test_warm_arena_stops_allocating(self, setup):
        model, x, y = setup("float64")
        _train(model, x, y, steps=1)
        warm = _arena_footprint(model.workspace)
        _train(model, x, y, steps=5)
        assert _arena_footprint(model.workspace) == warm
        # a shorter batch is served prefixes of the full-batch buffers
        _train(model, x, y, steps=1, batch_sizes=[len(x) // 2])
        assert _arena_footprint(model.workspace) == warm

    def test_steady_conv_step_allocates_a_fraction_of_the_arena(self):
        model, x, y = _conv_setup("float64")
        loss = SoftmaxCrossEntropy()
        optimizer = SGD(model, 0.05)
        model.loss_and_grad(x, y, loss)
        optimizer.step()
        tracemalloc.start()
        try:
            model.loss_and_grad(x, y, loss)
            optimizer.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.workspace.nbytes / 4, \
            f"steady step peaked at {peak} B beside a " \
            f"{model.workspace.nbytes} B arena"

    def test_fresh_loss_per_call_does_not_grow_arena(self):
        def arena_after(fresh):
            model, x, y = _dense_setup("float64")
            shared = SoftmaxCrossEntropy()
            for _ in range(50):
                model.loss_and_grad(
                    x, y, SoftmaxCrossEntropy() if fresh else shared)
            return model.workspace.num_buffers, model.workspace.nbytes

        assert arena_after(fresh=True) == arena_after(fresh=False)

    @pytest.mark.parametrize("setup", [_conv_setup, _dense_setup],
                             ids=["conv", "dense"])
    def test_eval_partial_batches_share_buffers(self, setup):
        model, x, _ = setup("float64")
        x = np.concatenate([x, x])[:20]
        model.predict_logits(x[:8], batch_size=8)
        one_batch = model.workspace.num_buffers
        model.predict_logits(x, batch_size=8)  # 8 + 8 + 4 rows
        assert model.workspace.num_buffers == one_batch


def _bool_setup(dtype, seed=3):
    model = build_fcnn(20, 4, np.random.default_rng(seed), dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    x = rng.random((16, 20)) < 0.5
    y = rng.integers(0, 4, 16)
    return model, x, y


def _input_keys(ws):
    return [key for key in ws.keys() if key[1] == "input"]


class TestInputCast:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bool_batch_matches_cast_batch_bitwise(self, dtype):
        model_b, xb, y = _bool_setup(dtype)
        model_f, _, _ = _bool_setup(dtype)
        xf = xb.astype(dtype)
        loss = SoftmaxCrossEntropy()

        out_b = model_b.forward(xb, training=False)
        assert out_b.dtype == np.dtype(dtype)
        assert np.array_equal(out_b, model_f.forward(xf, training=False))

        assert model_b.loss_and_grad(xb, y, loss) == \
            model_f.loss_and_grad(xf, y, loss)
        assert np.array_equal(model_b.grad_vector, model_f.grad_vector)

        input_grads = []
        for model, x in ((model_b, xb), (model_f, xf)):
            logits = model.forward(x, training=True)
            loss.forward(logits, y, workspace=model.workspace)
            input_grads.append(model.backward(loss.backward()).copy())
        assert input_grads[0].dtype == np.dtype(dtype)
        assert np.array_equal(*input_grads)

        # 16 rows in batches of 5: partial batches reuse the buffer
        logits_b = model_b.predict_logits(xb, batch_size=5)
        assert logits_b.dtype == np.dtype(dtype)
        assert np.array_equal(logits_b,
                              model_f.predict_logits(xf, batch_size=5))
        assert len(_input_keys(model_b.workspace)) == 1

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_floating_batch_is_not_copied(self, dtype):
        model, xb, y = _bool_setup(dtype)
        xf = xb.astype(dtype)
        model.loss_and_grad(xf, y, SoftmaxCrossEntropy())
        model.predict_logits(xf, batch_size=5)
        assert _input_keys(model.workspace) == []
        model.forward(xf, training=True)
        assert model.layers[0]._x is xf

    def test_model_dies_after_bool_forward(self):
        model, xb, y = _bool_setup("float64")
        gc.disable()
        try:
            model.loss_and_grad(xb, y, SoftmaxCrossEntropy())
            model.predict_logits(xb, batch_size=5)
            assert _input_keys(model.workspace)
            ref = weakref.ref(model)
            arena = weakref.ref(model.workspace)
            del model
            assert ref() is None and arena() is None
        finally:
            gc.enable()


class TestPicklingHygiene:
    def test_model_refuses_pickle_and_deepcopy(self):
        model, x, y = _conv_setup("float64")
        model.loss_and_grad(x, y, SoftmaxCrossEntropy())
        with pytest.raises(TypeError, match="process-local"):
            pickle.dumps(model)
        with pytest.raises(TypeError, match="process-local"):
            copy.deepcopy(model)
