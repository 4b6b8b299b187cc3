"""Filter behaviour: the posterior keeps the raw detection box for position,
filtered values for velocity, and a standard Kalman covariance.  The stacked
forms must equal the one-state reference filter below bit for bit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcvt import kalman
from mcvt.errors import SingularInnovation
from mcvt.ingest import Detection
from mcvt.kalman import (
    GATING_THRESHOLD,
    KalmanState,
    Observation,
    gating_distance,
    kf_initiate,
    kf_predict,
    kf_update,
    observation_to_box,
    to_observation,
)

# ---------------------------------------------------------------------------
# One-state reference filter: a matrix product, a noise matrix and a Cholesky
# per call.

_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)


def _reference_noise(h, velocity=True):
    w_pos, w_vel = 1.0 / 20, 1.0 / 160
    std = [w_pos * h, w_pos * h, 1e-2, w_pos * h]
    if velocity:
        std += [w_vel * h, w_vel * h, 1e-5, w_vel * h]
    return np.diag(np.square(std))


def reference_predict(s: KalmanState) -> KalmanState:
    mean = _F @ s.mean
    cov = _F @ s.cov @ _F.T + _reference_noise(s.mean[3])
    return KalmanState(mean=mean, cov=cov)


def reference_project(s: KalmanState):
    mean = _H @ s.mean
    cov = _H @ s.cov @ _H.T + _reference_noise(s.mean[3], velocity=False)
    return mean, cov


def reference_update(s: KalmanState, obs: Observation) -> KalmanState:
    proj_mean, proj_cov = reference_project(s)
    try:
        chol = np.linalg.cholesky(proj_cov)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    kt = np.linalg.solve(chol.T, np.linalg.solve(chol, (s.cov @ _H.T).T))
    gain = kt.T
    innovation = obs.as_vector() - proj_mean
    mean = s.mean + gain @ innovation
    cov = s.cov - gain @ proj_cov @ gain.T
    cov = (cov + cov.T) / 2.0
    mean[:4] = obs.as_vector()
    return KalmanState(mean=mean, cov=cov)


def squared_mahalanobis(mean, cov, x) -> float:
    """Squared Mahalanobis distance of x from N(mean, cov)."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    z = np.linalg.solve(chol, np.asarray(x, dtype=float) - mean)
    return float(z @ z)


def test_observation_from_detection():
    det = Detection(10.0, 20.0, 50.0, 100.0, 1.0)
    obs = to_observation(det)
    assert obs.u == 30.0  # horizontal box centre
    assert obs.v == 100.0  # bottom edge
    assert obs.h == 80.0
    assert obs.r == 0.5
    assert observation_to_box(obs.u, obs.v, obs.r, obs.h) == (10.0, 20.0, 50.0, 100.0)


def test_observation_validation():
    with pytest.raises(ValueError):
        Observation(0.0, 0.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        Observation(0.0, 0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        Observation(float("nan"), 0.0, 1.0, 1.0)


def test_initiate_state():
    obs = Observation(100.0, 200.0, 0.5, 80.0)
    s = kf_initiate(obs)
    assert np.array_equal(s.mean[:4], obs.as_vector())
    assert np.array_equal(s.mean[4:], np.zeros(4))
    assert np.all(np.diag(s.cov) > 0)
    # Positional uncertainty scales with box height: std = 2 * h / 20.
    assert s.cov[0, 0] == pytest.approx((2 * 80.0 / 20) ** 2)
    assert s.cov[4, 4] == pytest.approx((10 * 80.0 / 160) ** 2)


def test_predict_moves_mean_by_velocity():
    s = kf_initiate(Observation(10.0, 20.0, 0.5, 40.0))
    s.mean[4:6] = [3.0, -2.0]
    s2 = kf_predict(s)
    assert s2.mean[0] == 13.0
    assert s2.mean[1] == 18.0
    assert s2.mean[4] == 3.0  # velocity unchanged
    # Covariance strictly grows on the diagonal after predict.
    assert np.all(np.diag(s2.cov)[:4] > np.diag(s.cov)[:4])


def test_update_positional_mean_is_observation_bitwise():
    rng = np.random.default_rng(42)
    for _ in range(200):
        obs0 = Observation(
            float(rng.uniform(0, 1000)),
            float(rng.uniform(0, 700)),
            float(rng.uniform(0.3, 3.0)),
            float(rng.uniform(20, 200)),
        )
        s = kf_predict(kf_initiate(obs0))
        obs1 = Observation(
            obs0.u + float(rng.normal(0, 5)),
            obs0.v + float(rng.normal(0, 5)),
            obs0.r * float(rng.uniform(0.9, 1.1)),
            obs0.h * float(rng.uniform(0.9, 1.1)),
        )
        s = kf_update(s, obs1)
        # Exact equality, not approx: the matched box is kept verbatim.
        assert s.mean[0] == obs1.u
        assert s.mean[1] == obs1.v
        assert s.mean[2] == obs1.r
        assert s.mean[3] == obs1.h


def test_update_keeps_filtered_velocity():
    s = kf_initiate(Observation(0.0, 0.0, 1.0, 50.0))
    s = kf_predict(s)
    s = kf_update(s, Observation(4.0, 0.0, 1.0, 50.0))
    # The filter saw a 4 px jump; the velocity estimate must move toward it.
    assert s.mean[4] > 0.0


def test_constant_velocity_convergence():
    # Noiseless constant motion: after 10 frames the one-step prediction must
    # be within 1 px of the true position.  The velocity estimate converges
    # geometrically (error multiplier ~0.15 after ten updates, independent of
    # box height since every variance scales with h^2), so this bound holds
    # for per-frame motion up to ~6.8 px.
    u0, v0, du, dv = 100.0, 300.0, 5.0, -3.0
    obs = Observation(u0, v0, 0.8, 60.0)
    s = kf_initiate(obs)
    for k in range(1, 11):
        s = kf_predict(s)
        s = kf_update(s, Observation(u0 + du * k, v0 + dv * k, 0.8, 60.0))
    pred = kf_predict(s)
    assert abs(pred.mean[0] - (u0 + du * 11)) <= 1.0
    assert abs(pred.mean[1] - (v0 + dv * 11)) <= 1.0


def test_covariance_stays_psd_over_random_cycles():
    rng = np.random.default_rng(1)
    s = kf_initiate(Observation(100.0, 100.0, 1.0, 50.0))
    for _ in range(1000):
        s = kf_predict(s)
        obs = Observation(
            float(rng.uniform(0, 1280)),
            float(rng.uniform(1, 720)),
            float(rng.uniform(0.2, 4.0)),
            float(rng.uniform(10, 300)),
        )
        s = kf_update(s, obs)
        eigmin = float(np.linalg.eigvalsh(s.cov).min())
        assert eigmin > -1e-9
        assert np.allclose(s.cov, s.cov.T)


def test_gating_distance_scale():
    obs = Observation(100.0, 100.0, 1.0, 50.0)
    s = kf_predict(kf_initiate(obs))
    assert gating_distance(s, obs) < GATING_THRESHOLD
    far = Observation(600.0, 600.0, 1.0, 50.0)
    assert gating_distance(s, far) > GATING_THRESHOLD


def test_squared_mahalanobis_identity_cov():
    d = squared_mahalanobis(np.zeros(2), np.eye(2), np.array([3.0, 4.0]))
    assert d == pytest.approx(25.0)
    with pytest.raises(SingularInnovation):
        squared_mahalanobis(np.zeros(2), np.zeros((2, 2)), np.zeros(2))


def test_update_singular_innovation():
    s = KalmanState(mean=np.zeros(8), cov=np.zeros((8, 8)))
    s.mean[3] = 0.0  # zero height -> zero measurement noise
    s.mean[2] = 1.0
    with pytest.raises(SingularInnovation):
        kf_update(s, Observation(0.0, 0.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# Stacked forms against the one-state reference, bit for bit


@st.composite
def observations(draw):
    return Observation(
        draw(st.floats(-100.0, 1400.0)),
        draw(st.floats(-100.0, 800.0)),
        draw(st.floats(0.2, 4.0)),
        draw(st.floats(5.0, 300.0)),
    )


@st.composite
def filter_states(draw):
    """An initiated state after up to six reference predicts and updates."""
    s = kf_initiate(draw(observations()))
    for step in draw(st.lists(st.sampled_from(["predict", "update"]), max_size=6)):
        s = reference_predict(s) if step == "predict" else reference_update(s, draw(observations()))
    return s


state_stacks = st.lists(filter_states(), min_size=1, max_size=40)


def test_stack_states_of_no_state_has_the_stacked_shapes():
    means, covs = kalman.stack_states([])
    assert means.shape == (0, 8) and covs.shape == (0, 8, 8)


@given(state_stacks)
def test_predict_many_equals_reference(states):
    means, covs = kalman.predict_many(*kalman.stack_states(states))
    for s, mean, cov in zip(states, means, covs):
        want = reference_predict(s)
        assert np.array_equal(mean, want.mean)
        assert np.array_equal(cov, want.cov)


@given(state_stacks)
def test_project_many_equals_reference(states):
    means, covs = kalman.project_many(*kalman.stack_states(states))
    for s, mean, cov in zip(states, means, covs):
        want_mean, want_cov = reference_project(s)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(cov, want_cov)


@given(st.lists(st.tuples(filter_states(), observations()), min_size=1, max_size=40))
def test_update_many_equals_reference(pairs):
    states = [s for s, _ in pairs]
    obs = np.array([o.as_vector() for _, o in pairs])
    means, covs = kalman.update_many(*kalman.stack_states(states), obs)
    for (s, o), mean, cov in zip(pairs, means, covs):
        want = reference_update(s, o)
        assert np.array_equal(mean, want.mean)
        assert np.array_equal(cov, want.cov)


def test_update_many_with_one_singular_row_raises():
    good = [kf_predict(kf_initiate(Observation(100.0 * k, 50.0, 1.0, 40.0))) for k in range(3)]
    singular = KalmanState(mean=np.zeros(8), cov=np.zeros((8, 8)))  # zero height, zero cov
    states = good[:2] + [singular] + good[2:]
    obs = np.array([[0.0, 0.0, 1.0, 1.0]] * len(states))
    with pytest.raises(SingularInnovation):
        kalman.update_many(*kalman.stack_states(states), obs)
    kalman.update_many(*kalman.stack_states(good), obs[:3])  # the others alone are fine


_CORNERS = st.floats(-1e4, 1e4, allow_subnormal=False)
_SIDES = st.floats(1e-3, 1e4, allow_subnormal=False)


@given(boxes=st.lists(st.tuples(_CORNERS, _CORNERS, _SIDES, _SIDES), min_size=1, max_size=20))
def test_box_observations_equal_to_observation_bit_for_bit(boxes):
    dets = [Detection(x, y, x + w, y + h, 1.0) for x, y, w, h in boxes]
    rows = kalman.box_observations(np.array([(d.x1, d.y1, d.x2, d.y2) for d in dets]))
    for det, row in zip(dets, rows):
        assert np.array_equal(row, to_observation(det).as_vector())
