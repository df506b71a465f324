"""Learning-rate schedule tests."""

import numpy as np
import pytest

from repro.nn.activations import Tanh
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.optim import SGD
from repro.nn.schedule import (
    CosineDecay,
    LRSchedule,
    ScheduledOptimizer,
    StepDecay,
    WarmupSchedule,
)


class TestSchedules:
    def test_base_is_constant(self):
        schedule = LRSchedule()
        assert schedule.multiplier(0) == schedule.multiplier(1000) == 1.0

    def test_step_decay_levels(self):
        schedule = StepDecay(step_size=10, gamma=0.5)
        assert schedule.multiplier(0) == 1.0
        assert schedule.multiplier(9) == 1.0
        assert schedule.multiplier(10) == 0.5
        assert schedule.multiplier(25) == 0.25

    def test_cosine_endpoints(self):
        schedule = CosineDecay(total_steps=100)
        assert schedule.multiplier(0) == pytest.approx(1.0)
        assert schedule.multiplier(100) == pytest.approx(0.0)
        assert schedule.multiplier(1000) == pytest.approx(0.0)

    def test_cosine_floor(self):
        schedule = CosineDecay(total_steps=10, floor=0.1)
        assert schedule.multiplier(10) == pytest.approx(0.1)

    def test_cosine_monotone_decreasing(self):
        schedule = CosineDecay(total_steps=50)
        values = [schedule.multiplier(s) for s in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_warmup_ramps(self):
        schedule = WarmupSchedule(warmup_steps=4)
        assert schedule.multiplier(0) == pytest.approx(0.25)
        assert schedule.multiplier(3) == pytest.approx(1.0)
        assert schedule.multiplier(10) == 1.0

    def test_warmup_delegates_after(self):
        schedule = WarmupSchedule(4, after=StepDecay(1, gamma=0.5))
        assert schedule.multiplier(4) == 1.0      # first post-warmup step
        assert schedule.multiplier(5) == 0.5

    @pytest.mark.parametrize("bad", [
        lambda: StepDecay(0),
        lambda: StepDecay(1, gamma=0.0),
        lambda: CosineDecay(0),
        lambda: CosineDecay(1, floor=1.0),
        lambda: WarmupSchedule(0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestScheduledOptimizer:
    def _setup(self, rng):
        model = Model([Dense(6, 8, rng), Tanh(), Dense(8, 3, rng)])
        x = rng.standard_normal((10, 6))
        y = rng.integers(0, 3, 10)
        return model, x, y

    def test_lr_follows_schedule(self, rng):
        model, x, y = self._setup(rng)
        scheduled = ScheduledOptimizer(
            SGD(model, 0.1), StepDecay(step_size=2, gamma=0.5))
        loss = SoftmaxCrossEntropy()
        assert scheduled.lr == pytest.approx(0.1)
        for _ in range(2):
            model.loss_and_grad(x, y, loss)
            scheduled.step()
        assert scheduled.lr == pytest.approx(0.05)

    def test_reset_restores_base_lr(self, rng):
        model, x, y = self._setup(rng)
        scheduled = ScheduledOptimizer(
            SGD(model, 0.1), StepDecay(step_size=1, gamma=0.5))
        model.loss_and_grad(x, y, SoftmaxCrossEntropy())
        scheduled.step()
        scheduled.reset()
        assert scheduled.lr == pytest.approx(0.1)

    def test_still_trains(self, rng):
        model, x, y = self._setup(rng)
        scheduled = ScheduledOptimizer(
            SGD(model, 0.2), CosineDecay(total_steps=80))
        loss = SoftmaxCrossEntropy()
        start = loss.forward(model.predict_logits(x), y,
                             workspace=model.workspace)
        for _ in range(60):
            model.loss_and_grad(x, y, loss)
            scheduled.step()
        assert loss.forward(model.predict_logits(x), y,
                            workspace=model.workspace) < start

    def test_forwards_batch_size_hint(self, rng):
        from repro.privacy.defenses.dpsgd import DPSGD
        model, *_ = self._setup(rng)
        scheduled = ScheduledOptimizer(
            DPSGD(model, 0.1, noise_multiplier=0.0), LRSchedule())
        scheduled.notify_batch_size(32)
        assert scheduled.optimizer._last_batch_size == 32
