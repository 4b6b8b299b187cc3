"""Constant-velocity Kalman filter over the bottom-center box state.

State vector: [u, v, r, h, du, dv, dr, dh] where (u, v) is the center of the
box's bottom edge (the road-contact proxy), r = width/height and h = height.
Process/measurement noise scales follow the DeepSORT convention, proportional
to box height.  The one behavioural departure: after each update the
positional components of the posterior mean are replaced by the matched
observation exactly, keeping the detector's box instead of the smoothed one;
velocities keep their filtered values.

The filter works on stacks: ``predict_many``, ``project_many`` and
``update_many`` take (T, 8) means and (T, 8, 8) covariances, so the tracker
steps every track of every camera of a tick in one call each.  Every row
gets the same operations as a one-state filter would apply, so a stacked
result equals the one-state result bit for bit; ``kf_predict`` and
``kf_update`` are the one-state calls into the stacked forms.
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


def _noise_variances(heights: np.ndarray) -> np.ndarray:
    """(T, 8) process noise variances for T box heights.

    The first four columns are also the measurement noise variances.
    """
    h = heights[:, None]
    std = np.empty((len(heights), 8))
    std[:, [0, 1, 3]] = _STD_WEIGHT_POSITION * h
    std[:, 2] = _STD_ASPECT
    std[:, [4, 5, 7]] = _STD_WEIGHT_VELOCITY * h
    std[:, 6] = _STD_ASPECT_VEL
    return np.square(std)


def _add_to_diagonal(covs: np.ndarray, variances: np.ndarray) -> np.ndarray:
    idx = np.arange(covs.shape[-1])
    covs[:, idx, idx] += variances
    return covs


def _cholesky(covs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc


def predict_many(means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step of T stacked states: (T, 8) means, (T, 8, 8) covs.

    The covariance grows by a process noise scaled by each state's
    pre-predict height ``mean[3]``.
    """
    return means @ _F.T, _add_to_diagonal(_F @ covs @ _F.T, _noise_variances(means[:, 3]))


def project_many(means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted observation distributions of T stacked states: (T, 4), (T, 4, 4)."""
    noise = _noise_variances(means[:, 3])[:, :4]
    return means[:, :4].copy(), _add_to_diagonal(covs[:, :4, :4].copy(), noise)


def update_many(
    means: np.ndarray, covs: np.ndarray, observations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman update of T stacked states by (T, 4) observations, then keep the boxes.

    Each state's gain comes from a Cholesky of its innovation covariance and
    two solves against that factor.  The covariance keeps its standard
    posterior value and the velocities their filtered estimates; only
    mean[:, 0:4] is replaced by the observation.  Raises SingularInnovation
    if any innovation covariance is not positive definite.
    """
    proj_means, proj_covs = project_many(means, covs)
    chol = _cholesky(proj_covs)
    # gain K = cov H^T S^-1 via two triangular solves
    kt = np.linalg.solve(
        np.swapaxes(chol, 1, 2), np.linalg.solve(chol, np.swapaxes(covs @ _H.T, 1, 2))
    )
    gain = np.swapaxes(kt, 1, 2)
    innovations = observations - proj_means
    means = means + (gain @ innovations[:, :, None])[:, :, 0]
    covs = covs - gain @ proj_covs @ np.swapaxes(gain, 1, 2)
    covs = (covs + np.swapaxes(covs, 1, 2)) / 2.0
    means[:, :4] = observations
    return means, covs


def kf_predict(s: KalmanState) -> KalmanState:
    """One-state form of ``predict_many``."""
    means, covs = predict_many(s.mean[None], s.cov[None])
    return KalmanState(mean=means[0], cov=covs[0])


def kf_update(s: KalmanState, obs: Observation) -> KalmanState:
    """One-state form of ``update_many``."""
    means, covs = update_many(s.mean[None], s.cov[None], obs.as_vector()[None])
    return KalmanState(mean=means[0], cov=covs[0])


def innovation_factors(means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected means (T, 4) and lower Cholesky factors (T, 4, 4) of T states'
    innovation covariances, the per-state part of gating."""
    proj_means, proj_covs = project_many(means, covs)
    return proj_means, _cholesky(proj_covs)


def mahalanobis_matrix(factors, measurements: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances (T, N) of N measurements from T factored states.

    ``factors`` is the ``innovation_factors`` pair.  ``measurements`` is (N, 4),
    shared by every state, or (T, N, 4), each state's own N rows.  The (T, 4, N)
    innovations are solved against all T factors at once; each state's rows
    get the same operations either way.
    """
    proj_means, chol = factors
    measurements = np.asarray(measurements, dtype=float)
    innovations = np.swapaxes(measurements, -1, -2) - proj_means[:, :, None]
    z = np.linalg.solve(chol, innovations)
    return np.sum(z * z, axis=1)


def stack_states(states) -> tuple[np.ndarray, np.ndarray]:
    """(T, 8) means and (T, 8, 8) covariances of T states, T = 0 included."""
    states = list(states)
    means = np.array([s.mean for s in states]).reshape(-1, 8)
    return means, np.array([s.cov for s in states]).reshape(-1, 8, 8)


def box_observations(boxes: np.ndarray) -> np.ndarray:
    """Row-wise ``to_observation`` of (N, 4) corner boxes: (N, 4) (u, v, r, h).

    The same float operations as ``to_observation``, so every row equals its
    box's ``to_observation`` bit for bit."""
    x1, y1, x2, y2 = np.asarray(boxes, dtype=float).T
    return np.stack([(x1 + x2) / 2.0, y2, (x2 - x1) / (y2 - y1), y2 - y1], axis=1)


def gating_distance(s: KalmanState, obs: Observation) -> float:
    """Squared Mahalanobis distance of one observation against the projected state.

    The one-pair form of ``mahalanobis_matrix``; the tracker gates a whole
    camera frame with one ``mahalanobis_matrix`` call instead.  The
    association gate passes iff the value is <= GATING_THRESHOLD.
    """
    factors = innovation_factors(s.mean[None], s.cov[None])
    return float(mahalanobis_matrix(factors, obs.as_vector()[None])[0, 0])
