"""Tests for loss functions, optimizers, and LR schedulers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.module import Parameter
from repro.nn.optim import Adam, SGD, MultiStepLR, ReduceLROnPlateau
from repro.nn.optim.schedulers import PLATEAU_THRESHOLD
from tests.helpers import numerical_gradient

RNG = np.random.default_rng(13)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]], dtype=np.float32)
        loss, _ = nn.CrossEntropyLoss()(logits, np.array([0, 1]))
        assert loss < 1e-4

    def test_uniform_prediction_log_classes(self):
        logits = np.zeros((4, 8), dtype=np.float32)
        loss, _ = nn.CrossEntropyLoss()(logits, np.zeros(4, dtype=np.int64))
        np.testing.assert_allclose(loss, np.log(8), rtol=1e-5)

    def test_gradient_matches_numerical(self):
        logits = RNG.standard_normal((3, 5)).astype(np.float32)
        targets = np.array([1, 4, 0])
        ce = nn.CrossEntropyLoss()
        _, grad = ce(logits, targets)
        num = numerical_gradient(lambda: ce(logits, targets)[0], logits, eps=1e-3)
        np.testing.assert_allclose(grad, num, atol=2e-3)

    def test_ignore_index_masks_positions(self):
        logits = RNG.standard_normal((2, 3, 4)).astype(np.float32)
        targets = np.array([[1, 0, 2], [3, 0, 0]])
        ce = nn.CrossEntropyLoss(ignore_index=0)
        _, grad = ce(logits, targets)
        assert np.abs(grad[0, 1]).max() == 0
        assert np.abs(grad[1, 1]).max() == 0
        assert np.abs(grad[0, 0]).max() > 0

    def test_all_ignored_returns_zero(self):
        ce = nn.CrossEntropyLoss(ignore_index=0)
        loss, grad = ce(np.zeros((1, 2, 3), dtype=np.float32), np.zeros((1, 2), dtype=np.int64))
        assert loss == 0.0
        assert np.abs(grad).max() == 0

    def test_gradient_sums_to_zero_per_row(self):
        """Softmax CE gradient rows sum to zero (probability simplex)."""
        logits = RNG.standard_normal((6, 9)).astype(np.float32)
        _, grad = nn.CrossEntropyLoss()(logits, RNG.integers(0, 9, 6))
        np.testing.assert_allclose(grad.sum(axis=-1), 0, atol=1e-6)


class TestOtherLosses:
    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert nn.accuracy(logits, np.array([0, 1, 1])) == pytest.approx(200 / 3)


class TestSGD:
    def test_plain_sgd_step(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, momentum=0.0)
        p.grad = np.array([2.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [0.8])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = SGD([p], lr=1.0, momentum=0.5)
        for _ in range(2):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step()
        # v1 = 1 -> p=-1; v2 = 0.5+1=1.5 -> p=-2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_zero_gradient_leaves_the_parameter_unchanged(self):
        p = Parameter(np.array([10.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(3):
            p.grad = np.array([0.0], dtype=np.float32)
            opt.step()
        np.testing.assert_array_equal(p.data, [10.0])

    def test_apply_gradient_preserves_existing_grad(self):
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, momentum=0.0)
        p.grad = np.array([7.0], dtype=np.float32)
        opt.apply_gradient(p, np.array([1.0], dtype=np.float32))
        np.testing.assert_allclose(p.data, [-0.1])
        np.testing.assert_allclose(p.grad, [7.0])  # untouched

    def test_apply_gradient_shares_momentum_state(self):
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = SGD([p], lr=1.0, momentum=0.5)
        opt.apply_gradient(p, np.array([1.0], dtype=np.float32))
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [-2.5])  # same as two chained steps

    def test_validation(self):
        p = Parameter(np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError):
            SGD([p], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_first_step_size_is_lr(self):
        """Adam's bias correction makes the first step ~lr * sign(grad)."""
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([123.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [-0.01], rtol=1e-4)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0], dtype=np.float32))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            p.grad = 2 * p.data  # d/dx x^2
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_per_param_time_steps_are_independent(self):
        p1 = Parameter(np.array([0.0], dtype=np.float32))
        p2 = Parameter(np.array([0.0], dtype=np.float32))
        opt = Adam([p1, p2], lr=0.1)
        p1.grad = np.array([1.0], dtype=np.float32)
        opt.step()  # p2 has no gradient
        steps = opt.state_dict()["slots"]["_t"]
        assert steps[0] == 1
        assert 1 not in steps


class TestSchedulers:
    def test_multistep_decays_at_milestones(self):
        p = Parameter(np.zeros(1, dtype=np.float32))
        opt = Adam([p], lr=1.0)
        sched = MultiStepLR(opt, milestones=[2, 4])
        lrs = []
        for _ in range(5):
            sched.step()
            lrs.append(opt.lr)
        np.testing.assert_allclose(lrs, [1.0, 1.0, 0.1, 0.1, 0.01])

    def test_plateau_reduces_after_patience(self):
        p = Parameter(np.zeros(1, dtype=np.float32))
        opt = SGD([p], lr=1.0)
        sched = ReduceLROnPlateau(opt)
        sched.step(1.0)
        for _ in range(10):
            sched.step(1.0)  # no improvement, within the patience
        assert opt.lr == 1.0
        sched.step(1.0)
        assert opt.lr == pytest.approx(0.1)

    def test_plateau_resets_on_improvement(self):
        p = Parameter(np.zeros(1, dtype=np.float32))
        opt = SGD([p], lr=1.0)
        sched = ReduceLROnPlateau(opt)
        sched.step(1.0)
        for _ in range(10):
            sched.step(1.0)
        sched.step(0.5)  # improves: the count starts again
        for _ in range(10):
            sched.step(0.5)
        assert opt.lr == 1.0

    def test_plateau_counts_a_drop_below_the_threshold_as_no_improvement(self):
        p = Parameter(np.zeros(1, dtype=np.float32))
        opt = SGD([p], lr=1.0)
        sched = ReduceLROnPlateau(opt)
        sched.step(1.0)
        for _ in range(11):
            sched.step(1.0 - PLATEAU_THRESHOLD / 2)  # relative drop too small
        assert opt.lr == pytest.approx(0.1)

    def test_validation(self):
        p = Parameter(np.zeros(1, dtype=np.float32))
        opt = SGD([p], lr=1.0)
        with pytest.raises(ValueError):
            MultiStepLR(opt, milestones=[4, 2])


@given(lr=st.floats(1e-4, 1e-1), steps=st.integers(1, 20))
@settings(max_examples=30, deadline=None)
def test_sgd_descends_convex_loss(lr, steps):
    """Property: SGD on a convex quadratic never increases the loss."""
    p = Parameter(np.array([3.0], dtype=np.float32))
    opt = SGD([p], lr=lr, momentum=0.0)
    prev = float(p.data[0] ** 2)
    for _ in range(steps):
        p.grad = 2 * p.data
        opt.step()
        current = float(p.data[0] ** 2)
        assert current <= prev + 1e-6
        prev = current
