"""Training objectives as plain, framework-free math.

Batch-hard triplet loss, label-smoothed cross entropy, and the cosine
excitation schedule, each with analytic gradients so they can be checked
against central finite differences.  No optimizers or training loops live
here — the point is that the formulas themselves are verifiable.

Naming note: the margin of the triplet hinge and the excitation intensity of
the schedule are distinct quantities and are named `margin` and `excitation`
throughout, even though both are conventionally written gamma.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp, softmax

from .errors import DegenerateBatch, OutOfRange

DEFAULT_MARGIN = 0.3
DEFAULT_EPSILON = 0.1


def _hardest_pairs(features: np.ndarray, ids: np.ndarray):
    """Per anchor: (hardest positive index, its distance, hardest negative index, its distance)."""
    n = features.shape[0]
    diff = features[:, None, :] - features[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    same = ids[:, None] == ids[None, :]
    out = []
    for a in range(n):
        pos = np.flatnonzero(same[a])
        pos = pos[pos != a]
        neg = np.flatnonzero(~same[a])
        if pos.size == 0 or neg.size == 0:
            raise DegenerateBatch(
                "batch-hard triplet needs >= 2 samples per id and >= 2 distinct ids"
            )
        p = pos[np.argmax(dist[a, pos])]
        q = neg[np.argmin(dist[a, neg])]
        out.append((int(p), dist[a, p], int(q), dist[a, q]))
    return dist, out


def batch_hard_triplet(features, ids, margin: float = DEFAULT_MARGIN) -> float:
    """Mean over anchors of [margin + hardest-positive − hardest-negative]₊."""
    loss, _ = batch_hard_triplet_with_grad(features, ids, margin)
    return loss


def batch_hard_triplet_with_grad(features, ids, margin: float = DEFAULT_MARGIN):
    """Batch-hard triplet loss and its (sub)gradient w.r.t. the features.

    At zero pairwise distance or tied hardest samples the loss is not
    differentiable; the gradient returned there is a valid subgradient
    (zero direction for coincident points).
    """
    features = np.asarray(features, dtype=float)
    ids = np.asarray(ids)
    if features.ndim != 2 or features.shape[0] != ids.shape[0]:
        raise ValueError("features must be (N, D) with one id per row")
    _, hardest = _hardest_pairs(features, ids)

    n = features.shape[0]
    total = 0.0
    grad = np.zeros_like(features)
    for a, (p, d_ap, q, d_an) in enumerate(hardest):
        hinge = margin + d_ap - d_an
        if hinge <= 0.0:
            continue
        total += hinge
        if d_ap > 0.0:
            u = (features[a] - features[p]) / d_ap
            grad[a] += u
            grad[p] -= u
        if d_an > 0.0:
            u = (features[a] - features[q]) / d_an
            grad[a] -= u
            grad[q] += u
    return total / n, grad / n


def smooth_targets(c: int, n_classes: int, epsilon: float) -> np.ndarray:
    """Label-smoothed target: 1 − ((C−1)/C)·ε at the true class, ε/C elsewhere."""
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if not 0 <= c < n_classes:
        raise ValueError(f"class {c} outside [0, {n_classes})")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    y = np.full(n_classes, epsilon / n_classes)
    y[c] = 1.0 - (n_classes - 1) / n_classes * epsilon
    return y


def smoothed_cross_entropy(features, targets, weight, bias) -> float:
    """−(1/N) Σᵢ Σⱼ yᵢⱼ log softmax(W fᵢ + b)ⱼ with log-sum-exp stabilization."""
    loss, _, _, _ = smoothed_cross_entropy_with_grad(features, targets, weight, bias)
    return loss


def smoothed_cross_entropy_with_grad(features, targets, weight, bias):
    """Loss plus gradients w.r.t. features, weight, and bias.

    Returns (loss, d_features, d_weight, d_bias) where the logits are
    Z = features @ weight.T + bias and dZ = (softmax(Z) − targets) / N.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    weight = np.asarray(weight, dtype=float)
    bias = np.asarray(bias, dtype=float)
    n = features.shape[0]
    logits = features @ weight.T + bias
    log_probs = logits - logsumexp(logits, axis=1, keepdims=True)
    loss = -float(np.sum(targets * log_probs)) / n
    dz = (softmax(logits, axis=1) - targets) / n
    return loss, dz @ weight, dz.T @ features, dz.sum(axis=0)


def excitation_schedule(m: float, total: int) -> float:
    """Cosine decay of the excitation intensity: 0.5·(1 + cos(π·m/M))."""
    if total < 1:
        raise ValueError(f"total epochs must be >= 1, got {total}")
    if not 0 <= m <= total:
        raise OutOfRange(f"epoch {m} outside [0, {total}]")
    return 0.5 * (1.0 + math.cos(math.pi * m / total))

