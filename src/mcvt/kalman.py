"""Constant-velocity Kalman filter over the bottom-center box state.

State vector: [u, v, r, h, du, dv, dr, dh] where (u, v) is the center of the
box's bottom edge (the road-contact proxy), r = width/height and h = height.
Process/measurement noise scales follow the DeepSORT convention, proportional
to box height.  The one behavioural departure: after each update the
positional components of the posterior mean are replaced by the matched
observation exactly, keeping the detector's box instead of the smoothed one;
velocities keep their filtered values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularInnovation
from .ingest import Detection

# chi-square 0.95 quantile, 4 degrees of freedom
GATING_THRESHOLD = 9.4877

_STD_WEIGHT_POSITION = 1.0 / 20
_STD_WEIGHT_VELOCITY = 1.0 / 160
_STD_ASPECT = 1e-2
_STD_ASPECT_VEL = 1e-5

_F = np.eye(8)
_F[:4, 4:] = np.eye(4)  # dt = 1 frame
_H = np.eye(4, 8)


@dataclass(frozen=True)
class Observation:
    """Measurement vector: bottom-center (u, v), aspect ratio r, height h."""

    u: float
    v: float
    r: float
    h: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.u, self.v, self.r, self.h))):
            raise ValueError("observation must be finite")
        if self.r <= 0 or self.h <= 0:
            raise ValueError("aspect ratio and height must be positive")

    def as_vector(self) -> np.ndarray:
        return np.array([self.u, self.v, self.r, self.h])


@dataclass
class KalmanState:
    mean: np.ndarray  # (8,)
    cov: np.ndarray  # (8, 8) symmetric PSD


def to_observation(d: Detection) -> Observation:
    """Bottom-center measurement of a detection box."""
    return Observation(
        u=(d.x1 + d.x2) / 2.0,
        v=d.y2,
        r=(d.x2 - d.x1) / (d.y2 - d.y1),
        h=d.y2 - d.y1,
    )


def observation_to_box(u: float, v: float, r: float, h: float) -> tuple[float, float, float, float]:
    """Inverse of to_observation: (x1, y1, x2, y2) corners."""
    w = r * h
    return (u - w / 2.0, v - h, u + w / 2.0, v)


def kf_initiate(obs: Observation) -> KalmanState:
    """New track state centred on the observation with zero velocity."""
    mean = np.zeros(8)
    mean[:4] = obs.as_vector()
    std = [
        2 * _STD_WEIGHT_POSITION * obs.h,
        2 * _STD_WEIGHT_POSITION * obs.h,
        _STD_ASPECT,
        2 * _STD_WEIGHT_POSITION * obs.h,
        10 * _STD_WEIGHT_VELOCITY * obs.h,
        10 * _STD_WEIGHT_VELOCITY * obs.h,
        _STD_ASPECT_VEL,
        10 * _STD_WEIGHT_VELOCITY * obs.h,
    ]
    return KalmanState(mean=mean, cov=np.diag(np.square(std)))


def _process_noise(h: float) -> np.ndarray:
    std = [
        _STD_WEIGHT_POSITION * h,
        _STD_WEIGHT_POSITION * h,
        _STD_ASPECT,
        _STD_WEIGHT_POSITION * h,
        _STD_WEIGHT_VELOCITY * h,
        _STD_WEIGHT_VELOCITY * h,
        _STD_ASPECT_VEL,
        _STD_WEIGHT_VELOCITY * h,
    ]
    return np.diag(np.square(std))


def _measurement_noise(h: float) -> np.ndarray:
    std = [
        _STD_WEIGHT_POSITION * h,
        _STD_WEIGHT_POSITION * h,
        _STD_ASPECT,
        _STD_WEIGHT_POSITION * h,
    ]
    return np.diag(np.square(std))


def kf_predict(s: KalmanState) -> KalmanState:
    """One constant-velocity step; covariance grows by the process noise."""
    mean = _F @ s.mean
    cov = _F @ s.cov @ _F.T + _process_noise(s.mean[3])
    return KalmanState(mean=mean, cov=cov)


def project(s: KalmanState) -> tuple[np.ndarray, np.ndarray]:
    """Predicted observation distribution (mean, covariance)."""
    mean = _H @ s.mean
    cov = _H @ s.cov @ _H.T + _measurement_noise(s.mean[3])
    return mean, cov


def kf_update(s: KalmanState, obs: Observation) -> KalmanState:
    """Kalman gain update, then overwrite the positional mean with the observation.

    The covariance keeps its standard posterior value and the velocity
    components keep their filtered estimates; only mean[0:4] is replaced.
    """
    proj_mean, proj_cov = project(s)
    try:
        chol = np.linalg.cholesky(proj_cov)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    # gain K = cov H^T S^-1 via two triangular solves
    kt = np.linalg.solve(chol.T, np.linalg.solve(chol, (s.cov @ _H.T).T))
    gain = kt.T
    innovation = obs.as_vector() - proj_mean
    mean = s.mean + gain @ innovation
    cov = s.cov - gain @ proj_cov @ gain.T
    cov = (cov + cov.T) / 2.0
    mean[:4] = obs.as_vector()
    return KalmanState(mean=mean, cov=cov)


def squared_mahalanobis(mean: np.ndarray, cov: np.ndarray, x: np.ndarray) -> float:
    """Squared Mahalanobis distance of x from N(mean, cov)."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    z = np.linalg.solve(chol, np.asarray(x, dtype=float) - mean)
    return float(z @ z)


def gating_matrix(states, measurements: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of N measurements against T projected states.

    ``measurements`` is an (N, 4) array of (u, v, r, h) rows.  The T states are
    projected together, factorised by one Cholesky over the (T, 4, 4) stack and
    solved against all (T, 4, N) innovations at once; entry [t, n] is the
    distance of measurement n from state t, as ``project`` followed by
    ``squared_mahalanobis`` gives it for one pair.
    """
    means = np.stack([s.mean[:4] for s in states])
    covs = np.stack([s.cov[:4, :4] for s in states])
    std = np.repeat(_STD_WEIGHT_POSITION * means[:, 3:4], 4, axis=1)  # _measurement_noise
    std[:, 2] = _STD_ASPECT
    idx = np.arange(4)
    covs[:, idx, idx] += np.square(std)
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    innovations = np.asarray(measurements, dtype=float).T[None, :, :] - means[:, :, None]
    z = np.linalg.solve(chol, innovations)
    return np.sum(z * z, axis=1)


def box_observations(boxes: np.ndarray) -> np.ndarray:
    """Row-wise ``to_observation`` of (N, 4) corner boxes: (N, 4) (u, v, r, h)."""
    x1, y1, x2, y2 = np.asarray(boxes, dtype=float).T
    return np.stack([(x1 + x2) / 2.0, y2, (x2 - x1) / (y2 - y1), y2 - y1], axis=1)


def gating_distance(s: KalmanState, obs: Observation) -> float:
    """Squared Mahalanobis distance of one observation against the projected state.

    The one-pair form of ``gating_matrix``; the tracker gates a whole camera
    frame with one ``gating_matrix`` call instead.  The association gate
    passes iff the value is <= GATING_THRESHOLD.
    """
    return float(gating_matrix([s], obs.as_vector()[None])[0, 0])
