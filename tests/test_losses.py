import math

import numpy as np
import pytest

from mcvt.errors import DegenerateBatch, OutOfRange
from mcvt.losses import (
    batch_hard_triplet,
    batch_hard_triplet_with_grad,
    excitation_schedule,
    smooth_targets,
    smoothed_cross_entropy,
    smoothed_cross_entropy_with_grad,
)


def central_difference(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat, out = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return grad


def rel_err(analytic, numeric):
    return np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))


class TestTriplet:
    def test_hand_case_active_hinge(self):
        # Points 0, 1 | 1.5, 2.5 on a line.  Inner anchors (1 and 1.5) see
        # d_ap = 1, d_an = 0.5 -> hinge 0.8; outer anchors see d_an = 1.5 so
        # their hinge is inactive.  Mean over the four anchors: 1.6 / 4.
        feats = np.array([[0.0], [1.0], [1.5], [2.5]])
        ids = np.array([0, 0, 1, 1])
        assert batch_hard_triplet(feats, ids, margin=0.3) == pytest.approx(0.4)

    def test_hand_case_inactive_hinge(self):
        # Tight clusters far apart: margin + 0.1 - 5 < 0 everywhere.
        feats = np.array([[0.0], [0.1], [5.0], [5.1]])
        ids = np.array([0, 0, 1, 1])
        loss, grad = batch_hard_triplet_with_grad(feats, ids, margin=0.3)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(feats))

    def test_degenerate_batches(self):
        feats = np.zeros((3, 2))
        with pytest.raises(DegenerateBatch):
            batch_hard_triplet(feats, np.array([0, 0, 0]))  # one id only
        with pytest.raises(DegenerateBatch):
            batch_hard_triplet(feats, np.array([0, 1, 2]))  # singleton ids
        with pytest.raises(ValueError):
            batch_hard_triplet(np.zeros((3, 2)), np.array([0, 0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            feats = rng.normal(size=(8, 4))
            ids = np.repeat(np.arange(4), 2)
            _, grad = batch_hard_triplet_with_grad(feats, ids, margin=0.3)
            fd = central_difference(
                lambda: batch_hard_triplet(feats, ids, margin=0.3), feats
            )
            assert rel_err(grad, fd) <= 1e-5

    def test_subgradient_at_coincident_points(self):
        # Anchor and hardest positive coincide: d_ap = 0 has no unique
        # direction; the implementation must return a finite subgradient.
        feats = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
        ids = np.array([0, 0, 1, 1])
        loss, grad = batch_hard_triplet_with_grad(feats, ids, margin=0.3)
        assert np.all(np.isfinite(grad))
        assert loss > 0.0


class TestSmoothedCrossEntropy:
    def test_smooth_targets_values(self):
        y = smooth_targets(1, 4, 0.1)
        assert y[1] == pytest.approx(1.0 - 3.0 / 4.0 * 0.1)
        assert y[0] == y[2] == y[3] == pytest.approx(0.1 / 4.0)
        assert y.sum() == pytest.approx(1.0)
        assert np.array_equal(smooth_targets(0, 3, 0.0), [1.0, 0.0, 0.0])

    def test_smooth_targets_validation(self):
        with pytest.raises(ValueError):
            smooth_targets(0, 1, 0.1)
        with pytest.raises(ValueError):
            smooth_targets(3, 3, 0.1)
        with pytest.raises(ValueError):
            smooth_targets(0, 3, 1.5)

    def test_uniform_logits_hand_value(self):
        # Zero weights and bias: softmax is uniform, so the loss is log C
        # regardless of the targets (they sum to one).
        feats = np.ones((5, 3))
        targets = np.stack([smooth_targets(i % 2, 2, 0.1) for i in range(5)])
        loss = smoothed_cross_entropy(feats, targets, np.zeros((2, 3)), np.zeros(2))
        assert loss == pytest.approx(math.log(2.0))

    def test_extreme_logits_are_stable(self):
        feats = np.array([[1000.0], [-1000.0]])
        targets = np.stack([smooth_targets(0, 2, 0.0)] * 2)
        weight = np.array([[1.0], [-1.0]])
        loss = smoothed_cross_entropy(feats, targets, weight, np.zeros(2))
        assert math.isfinite(loss)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, d, c = 6, 3, 4
            feats = rng.normal(size=(n, d))
            weight = rng.normal(size=(c, d))
            bias = rng.normal(size=c)
            targets = np.stack(
                [smooth_targets(int(rng.integers(c)), c, 0.1) for _ in range(n)]
            )
            _, dfeat, dw, db = smoothed_cross_entropy_with_grad(
                feats, targets, weight, bias
            )
            fn = lambda: smoothed_cross_entropy(feats, targets, weight, bias)  # noqa: E731
            assert rel_err(dfeat, central_difference(fn, feats)) <= 1e-5
            assert rel_err(dw, central_difference(fn, weight)) <= 1e-5
            assert rel_err(db, central_difference(fn, bias)) <= 1e-5


class TestExcitationSchedule:
    def test_endpoints_exact(self):
        assert excitation_schedule(0, 40) == 1.0
        assert excitation_schedule(20, 40) == 0.5
        assert excitation_schedule(40, 40) == 0.0

    def test_monotone_decreasing(self):
        values = [excitation_schedule(m, 25) for m in range(26)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range_errors(self):
        with pytest.raises(OutOfRange):
            excitation_schedule(-1, 10)
        with pytest.raises(OutOfRange):
            excitation_schedule(11, 10)
        with pytest.raises(ValueError):
            excitation_schedule(0, 0)
