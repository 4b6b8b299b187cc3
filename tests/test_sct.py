import copy

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_kalman import reference_predict, reference_project, reference_update, squared_mahalanobis

from mcvt import kalman, sct
from mcvt.errors import EmptyGallery, OutOfOrderFrame
from mcvt.ingest import Detection, FrameRecord, VehicleClass, iou, iou_matrix
from mcvt.kalman import to_observation
from mcvt.sct import (
    ConcludedTrack,
    SCTrack,
    SingleCameraTracker,
    TrackerParams,
    TrackStatus,
    appearance_cost,
    appearance_matrix,
    associate,
    majority_class,
    step_cameras,
)
from mcvt.simkit import NoiseProfile, gen_scenario, render_detections


def unit(*values):
    v = np.array(values, dtype=float)
    return v / np.linalg.norm(v)


E1 = unit(1, 0, 0, 0)
E2 = unit(0, 1, 0, 0)


def det_at(x, y, w=40.0, h=40.0, beta=VehicleClass.CAR):
    return Detection(x, y, x + w, y + h, 1.0, beta)


def frame_of(camera, idx, dets, embs):
    emb = np.stack(embs) if embs else None
    boxes = np.array([(d.x1, d.y1, d.x2, d.y2) for d in dets], dtype=float).reshape(-1, 4)
    alpha = np.array([d.alpha for d in dets], dtype=float)
    return FrameRecord(camera, idx, boxes, alpha, np.array([int(d.beta) for d in dets]), emb)


def row_of(frame_index, det):
    """The track row (``sct.TRACK_ROW``) of a detection at a frame."""
    return frame_index, (det.x1, det.y1, det.x2, det.y2), int(det.beta)


def predicted_box(track):
    """The track's predicted (x1, y1, x2, y2) box."""
    return kalman.observation_to_box(*track.state.mean[:4])


def with_gallery(track, vectors):
    for v in vectors:
        track.add_feature(v)


def confirmed_track(tid, det, emb, tsu=0):
    t = SCTrack(
        track_id=tid,
        camera="c",
        state=kalman.kf_initiate(to_observation(det)),
        status=TrackStatus.CONFIRMED,
    )
    with_gallery(t, [emb])
    t.time_since_update = tsu
    t.add_row(row_of(0, det))
    return t


def test_appearance_cost_minimum_over_gallery():
    gallery = [E1, E2]
    assert appearance_cost(gallery, E1) == pytest.approx(0.0)
    mixed = unit(1, 1, 0, 0)
    # min(1 - e1.m, 1 - e2.m) = 1 - 1/sqrt(2)
    assert appearance_cost(gallery, mixed) == pytest.approx(1.0 - 1.0 / np.sqrt(2))
    with pytest.raises(EmptyGallery):
        appearance_cost([], E1)


def test_associate_appearance_stage_matches():
    tracks = [confirmed_track(1, det_at(100, 100), E1)]
    frame = frame_of("c", 1, [det_at(102, 101)], [E1])
    matches, unmatched_t, unmatched_d = associate(tracks, frame)
    assert matches == [(0, 0)]
    assert unmatched_t == [] and unmatched_d == []


def test_associate_gate_blocks_distant_detection():
    # Perfect appearance but the detection is hundreds of px away: the
    # distance gate forbids stage 1 and the IoU stage has nothing to grab.
    tracks = [confirmed_track(1, det_at(100, 100), E1)]
    frame = frame_of("c", 1, [det_at(900, 600)], [E1])
    matches, unmatched_t, unmatched_d = associate(tracks, frame)
    assert matches == []
    assert unmatched_t == [0] and unmatched_d == [0]


def test_associate_appearance_threshold():
    tracks = [confirmed_track(1, det_at(100, 100), E1)]
    frame = frame_of("c", 1, [det_at(101, 100)], [E2])  # orthogonal embedding
    matches, _, _ = associate(tracks, frame)
    # Appearance cost 1.0 > 0.3, but the boxes overlap so the IoU stage
    # still picks it up.
    assert matches == [(0, 0)]
    far = frame_of("c", 1, [det_at(160, 100)], [E2])  # no overlap either
    matches, unmatched_t, unmatched_d = associate(tracks, far)
    assert matches == []


def test_associate_cascade_prefers_recently_updated():
    a = confirmed_track(1, det_at(100, 100), E1, tsu=2)
    b = confirmed_track(2, det_at(100, 100), E1, tsu=1)
    frame = frame_of("c", 3, [det_at(100, 100)], [E1])
    matches, unmatched_t, _ = associate([a, b], frame)
    # Same cost for both; the younger miss-age group is tried first.
    assert matches == [(1, 0)]
    assert unmatched_t == [0]


def test_associate_tentative_goes_through_iou_only():
    t = SCTrack(
        track_id=1,
        camera="c",
        state=kalman.kf_initiate(to_observation(det_at(50, 50))),
    )
    with_gallery(t, [E1])
    frame = frame_of("c", 1, [det_at(52, 52)], [E2])
    matches, _, _ = associate([t], frame)
    assert matches == [(0, 0)]


def test_associate_requires_embeddings():
    frame = frame_of("c", 1, [det_at(0, 0)], [])
    with pytest.raises(ValueError):
        associate([], frame)


def test_majority_class_tie_breaks_earliest():
    classes = np.array([VehicleClass.BUS, VehicleClass.CAR, VehicleClass.CAR, VehicleClass.BUS])
    assert majority_class(classes) is VehicleClass.BUS
    assert majority_class(classes[1:]) is VehicleClass.CAR


class TestTrackerLifecycle:
    def test_confirmation_after_n_init(self):
        tr = SingleCameraTracker("c", fps=10.0)
        for k in range(3):
            tracks, _ = tr.step(frame_of("c", k, [det_at(100 + 2 * k, 100)], [E1]))
        assert tracks[0].status is TrackStatus.CONFIRMED
        assert tracks[0].track_id == 1
        assert tracks[0].hits == 3

    def test_tentative_dies_on_first_miss(self):
        tr = SingleCameraTracker("c", fps=10.0)
        tr.step(frame_of("c", 0, [det_at(100, 100)], [E1]))
        tracks, concluded = tr.step(frame_of("c", 1, [], []))
        assert tracks == [] and concluded == []

    def test_conclusion_after_max_age(self):
        params = TrackerParams(max_age=5)
        tr = SingleCameraTracker("c", fps=10.0, params=params)
        for k in range(4):
            tr.step(frame_of("c", k, [det_at(100 + 2 * k, 100)], [E1]))
        concluded = []
        k = 4
        while not concluded:
            _, concluded = tr.step(frame_of("c", k, [], []))
            k += 1
        c = concluded[0]
        assert isinstance(c, ConcludedTrack)
        # Missed for max_age + 1 frames after the last hit at frame 3.
        assert k - 1 == 3 + params.max_age + 1
        assert c.t_s == 0.0
        assert c.t_e == pytest.approx(0.3)
        assert tr.tracks == []

    def test_conclusion_metadata_identity_homography(self):
        from mcvt.geo import Homography

        tr = SingleCameraTracker("c7", fps=5.0, homography=Homography(np.eye(3)))
        boxes = [det_at(10.0 + 4 * k, 20.0) for k in range(3)]
        for k, d in enumerate(boxes):
            tr.step(frame_of("c7", k, [d], [E1]))
        (c,) = tr.finish()
        assert c.camera == "c7" and c.track_id == 1
        assert c.t_s == 0.0 and c.t_e == pytest.approx(2 / 5.0)
        # Identity homography: lon = bottom-center x, lat = bottom edge y.
        assert c.l_s.lon == pytest.approx(30.0)  # 10 + 40/2
        assert c.l_s.lat == pytest.approx(60.0)
        assert c.l_e.lon == pytest.approx(38.0)
        assert c.class_label is VehicleClass.CAR
        # Constant per-frame features aggregate back to the same unit vector.
        assert np.allclose(c.embedding, E1)
        assert np.linalg.norm(c.embedding) == pytest.approx(1.0)
        assert len(c.boxes) == 3

    def test_finish_drops_tentative(self):
        tr = SingleCameraTracker("c", fps=10.0)
        tr.step(frame_of("c", 0, [det_at(0, 0)], [E1]))
        assert tr.finish() == []

    def test_out_of_order_frame_rejected(self):
        tr = SingleCameraTracker("c", fps=10.0)
        tr.step(frame_of("c", 5, [], []))
        with pytest.raises(OutOfOrderFrame):
            tr.step(frame_of("c", 5, [], []))
        with pytest.raises(OutOfOrderFrame):
            tr.step(frame_of("c", 2, [], []))
        tr.step(frame_of("c", 9, [], []))  # gaps are fine

    def test_two_identities_stay_separate(self):
        tr = SingleCameraTracker("c", fps=10.0)
        id_for = {}
        for k in range(12):
            dets = [det_at(100 + 3 * k, 100), det_at(100 + 3 * k, 400)]
            tracks, _ = tr.step(frame_of("c", k, dets, [E1, E2]))
            if k >= 3:
                for t in tracks:
                    assert t.status is TrackStatus.CONFIRMED
                    lane = "top" if t.boxes["box"][-1, 1] < 200 else "bottom"
                    id_for.setdefault(lane, t.track_id)
                    assert id_for[lane] == t.track_id
        assert id_for["top"] != id_for["bottom"]

    def test_gallery_budget_is_bounded(self):
        params = TrackerParams(gallery_budget=4)
        tr = SingleCameraTracker("c", fps=10.0, params=params)
        for k in range(10):
            tr.step(frame_of("c", k, [det_at(100 + k, 100)], [E1]))
        assert len(tr.tracks[0].gallery) == 4

    @pytest.mark.parametrize("field, value, error", [
        ("n_init", 0, ValueError),
        ("n_init", "3", TypeError),
        ("n_init", True, TypeError),
        ("max_age", -1, ValueError),
        ("max_age", 2.0, TypeError),
        ("gallery_budget", 0, ValueError),
        ("matching_threshold", float("nan"), ValueError),
        ("iou_max_cost", -0.1, ValueError),
        ("gating_threshold", float("inf"), ValueError),
        ("gating_threshold", "9.5", ValueError),
    ])
    def test_params_validation(self, field, value, error):
        with pytest.raises(error, match=field):
            TrackerParams(**{field: value})
        TrackerParams(n_init=1, max_age=0, gallery_budget=1, iou_max_cost=0.0)

    def test_reacquisition_after_short_gap(self):
        # A confirmed track missed for a few frames must reattach through the
        # appearance cascade when the object reappears nearby.
        tr = SingleCameraTracker("c", fps=10.0)
        for k in range(5):
            tr.step(frame_of("c", k, [det_at(100 + 2 * k, 100)], [E1]))
        for k in range(5, 8):
            tr.step(frame_of("c", k, [], []))
        tracks, _ = tr.step(frame_of("c", 8, [det_at(116, 100)], [E1]))
        assert len(tracks) == 1
        assert tracks[0].track_id == 1
        assert tracks[0].time_since_update == 0


# ---------------------------------------------------------------------------
# Batched association against the per-pair reference


def reference_associate(tracks, frame, params):
    """Per-(track, detection) association: one gating, appearance and IoU call per pair."""
    confirmed = [i for i, t in enumerate(tracks) if t.status is TrackStatus.CONFIRMED]
    others = [i for i, t in enumerate(tracks) if t.status is not TrackStatus.CONFIRMED]
    matches = []
    free_dets = list(range(len(frame.detections)))
    for age in sorted({tracks[i].time_since_update for i in confirmed}):
        if not free_dets:
            break
        group = [i for i in confirmed if tracks[i].time_since_update == age]
        cost = np.zeros((len(group), len(free_dets)))
        for gi, ti in enumerate(group):
            track = tracks[ti]
            for dj, di in enumerate(free_dets):
                c = float(np.min(1.0 - np.asarray(track.gallery) @ frame.embeddings[di]))
                mean, cov = reference_project(track.state)
                obs = to_observation(frame.detections[di]).as_vector()
                if squared_mahalanobis(mean, cov, obs) > params.gating_threshold:
                    c = sct._INFEASIBLE
                cost[gi, dj] = c
        got = sct._min_cost_matching(cost, params.matching_threshold)
        matches += [(group[gi], free_dets[dj]) for gi, dj in got]
        taken = {free_dets[dj] for _, dj in got}
        free_dets = [d for d in free_dets if d not in taken]
    matched = {t for t, _ in matches}
    remaining = [i for i in confirmed if i not in matched] + others
    if remaining and free_dets:
        cost = np.ones((len(remaining), len(free_dets)))
        for ri, ti in enumerate(remaining):
            x1, y1, x2, y2 = predicted_box(tracks[ti])
            if x2 <= x1 or y2 <= y1:
                continue
            pred = Detection(x1, y1, x2, y2, alpha=1.0)
            for dj, di in enumerate(free_dets):
                cost[ri, dj] = 1.0 - iou(pred, frame.detections[di])
        got = sct._min_cost_matching(cost, params.iou_max_cost)
        matches += [(remaining[ri], free_dets[dj]) for ri, dj in got]
        taken = {free_dets[dj] for _, dj in got}
        free_dets = [d for d in free_dets if d not in taken]
    matched = {t for t, _ in matches}
    return sorted(matches), [i for i in range(len(tracks)) if i not in matched], free_dets


# Unit embeddings whose dot products are exact in any summation order, so
# batched and per-pair appearance costs agree bit for bit (ties included).
PALETTE = [sign * np.eye(4)[k] for k in range(4) for sign in (1.0, -1.0)] + [
    0.5 * np.array([a, b, c, 1.0]) for a in (1, -1) for b in (1, -1) for c in (1, -1)
]
palette_vectors = st.integers(0, len(PALETTE) - 1).map(lambda k: PALETTE[k])
coords = st.integers(0, 240).map(float)
sizes = st.integers(12, 60).map(float)


@st.composite
def boxes(draw):
    x, y, w, h = draw(coords), draw(coords), draw(sizes), draw(sizes)
    return Detection(x, y, x + w, y + h, 1.0)


@st.composite
def kalman_states(draw):
    """A state after an initiation, an optional moving update and 0-3 predictions."""
    box = draw(boxes())
    state = kalman.kf_initiate(to_observation(box))
    if draw(st.booleans()):
        dx, dy = draw(st.integers(-8, 8)), draw(st.integers(-8, 8))
        moved = Detection(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy, 1.0)
        state = reference_update(reference_predict(state), to_observation(moved))
    for _ in range(draw(st.integers(0, 3))):
        state = reference_predict(state)
    return state


@st.composite
def tracks_and_frames(draw):
    tracks = []
    for tid in range(draw(st.integers(0, 6))):
        state = draw(kalman_states())
        if draw(st.integers(0, 9)) == 0:
            state.mean[3] = -state.mean[3]  # a predicted box that is not valid
        track = SCTrack(
            track_id=tid,
            camera="c",
            state=state,
            status=draw(st.sampled_from([TrackStatus.CONFIRMED, TrackStatus.TENTATIVE])),
        )
        with_gallery(track, draw(st.lists(palette_vectors, min_size=1, max_size=4)))
        track.time_since_update = draw(st.integers(1, 3))
        tracks.append(track)
    dets, embs = [], []
    for _ in range(draw(st.integers(0, 6))):
        # Most detections sit near a track, half of those with its appearance.
        if tracks and draw(st.integers(0, 3)):
            track = draw(st.sampled_from(tracks))
            x1, y1, x2, y2 = predicted_box(track)
            if x2 > x1 and y2 > y1:
                dx, dy = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
                dets.append(Detection(x1 + dx, y1 + dy, x2 + dx, y2 + dy, 1.0))
                embs.append(track.gallery[0] if draw(st.booleans()) else draw(palette_vectors))
                continue
        dets.append(draw(boxes()))
        embs.append(draw(palette_vectors))
    params = TrackerParams(matching_threshold=draw(st.sampled_from([0.3, 0.6, 1.2])))
    return tracks, frame_of("c", 1, dets, embs), params


def tentative_track(tid, det, emb):
    track = SCTrack(track_id=tid, camera="c", state=kalman.kf_initiate(to_observation(det)))
    with_gallery(track, [emb])
    return track


def settled_cascade_conflicted_iou():
    """One confirmed track that only its own detection fits by appearance, and
    two tentative tracks that both overlap the one other detection."""
    tracks = [confirmed_track(1, det_at(100, 100), E1, tsu=1),
              tentative_track(2, det_at(305, 300), E2), tentative_track(3, det_at(300, 300), E2)]
    return tracks, frame_of("c", 1, [det_at(101, 100), det_at(302, 300)], [E1, E2]), TrackerParams()


@given(tracks_and_frames())
@example(settled_cascade_conflicted_iou())
def test_associate_equals_per_pair_reference(case):
    tracks, frame, params = case
    assert associate(tracks, frame, params) == reference_associate(tracks, frame, params)


def test_hungarian_runs_only_for_the_stage_that_conflicts(monkeypatch):
    calls = []
    real = sct.linear_sum_assignment
    monkeypatch.setattr(sct, "linear_sum_assignment", lambda cost: calls.append(cost) or real(cost))
    # The cascade's one feasible pair is taken from the mask; the IoU stage
    # runs one Hungarian over the two tentative tracks and the free detection.
    assert associate(*settled_cascade_conflicted_iou()) == ([(0, 0), (2, 1)], [1], [])
    assert [cost.shape for cost in calls] == [(2, 1)]


def test_associate_later_cascade_group_sees_only_free_columns():
    # Both tracks want detection 0; the age-1 group takes it.  The age-2
    # group must then read only detection 1's column of the per-frame matrix,
    # which its gate rejects, and detection 1 overlaps nothing.
    young = confirmed_track(1, det_at(100, 100), E1, tsu=1)
    old = confirmed_track(2, det_at(100, 100), E1, tsu=2)
    frame = frame_of("c", 3, [det_at(101, 100), det_at(400, 400)], [E1, E1])
    params = TrackerParams()
    expected = ([(0, 0)], [1], [1])
    assert associate([young, old], frame, params) == expected
    assert reference_associate([young, old], frame, params) == expected


@given(st.lists(kalman_states(), min_size=1, max_size=5), st.lists(boxes(), max_size=6))
def test_gating_matrix_equals_per_pair_mahalanobis(states, dets):
    obs = np.array([to_observation(d).as_vector() for d in dets]).reshape(len(dets), 4)
    expected = np.array(
        [[squared_mahalanobis(*reference_project(s), o) for o in obs] for s in states]
    ).reshape(len(states), len(dets))
    got = kalman.mahalanobis_matrix(kalman.innovation_factors(*kalman.stack_states(states)), obs)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=1e-9)
    for s, row in zip(states, expected):
        for d, value in zip(dets, row):
            assert kalman.gating_distance(s, to_observation(d)) == pytest.approx(value, rel=1e-9)


@st.composite
def float_boxes(draw):
    x = draw(st.floats(-50.0, 150.0))
    y = draw(st.floats(-50.0, 150.0))
    w = draw(st.floats(0.01, 80.0))
    h = draw(st.floats(0.01, 80.0))
    return Detection(x, y, x + w, y + h, 1.0)


@given(st.lists(float_boxes() | boxes(), max_size=5), st.lists(float_boxes() | boxes(), max_size=5))
def test_iou_matrix_equals_iou_exactly(a, b):
    def corners(dets):
        return np.array([(d.x1, d.y1, d.x2, d.y2) for d in dets]).reshape(len(dets), 4)

    got = iou_matrix(corners(a), corners(b))
    assert got.shape == (len(a), len(b))
    for i, da in enumerate(a):
        for j, db in enumerate(b):
            assert got[i, j] == iou(da, db)


def test_appearance_matrix_rows_are_per_track_minima():
    galleries = [np.stack([E1, E2]), E2[None], unit(1, 1, 0, 0)[None]]
    embs = np.stack([E1, E2, unit(0, 0, 1, 0)])
    got = appearance_matrix(galleries, embs)
    for t, gallery in enumerate(galleries):
        for n, e in enumerate(embs):
            assert got[t, n] == pytest.approx(appearance_cost(gallery, e))
    with pytest.raises(EmptyGallery):
        appearance_matrix([E1[None], np.empty((0, 4))], embs)


# ---------------------------------------------------------------------------
# The tick pass: one cost build for every camera, Hungarian only where needed

SHORTCUT_COSTS = [-3.0, -0.5, 0.0, 0.1, 0.3, 0.7, 1.0, 2.0, sct._INFEASIBLE, np.nan]


@st.composite
def cost_matrices(draw):
    """Small cost matrices, mostly infeasible at the drawn threshold, ties and
    entries exactly at the threshold included."""
    shape = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    max_cost = draw(st.sampled_from([0.3, 0.7, 2.0, sct._INFEASIBLE]))
    sparse = st.one_of(st.just(sct._INFEASIBLE), st.just(5.0), st.sampled_from(SHORTCUT_COSTS))
    cost = np.array(draw(st.lists(sparse, min_size=shape[0] * shape[1],
                                  max_size=shape[0] * shape[1]))).reshape(shape)
    return cost, max_cost


@given(cost_matrices())
def test_settled_matrix_is_matched_to_its_feasible_entries(case):
    cost, max_cost = case
    rows, cols = (idx.ravel() for idx in np.indices(cost.shape))
    feasible, unsettled = sct._settled(cost.ravel(), max_cost, rows, cols, *cost.shape)
    assert np.array_equal(feasible, cost.ravel() <= max_cost)
    mask = cost <= max_cost
    conflict = (mask.sum(axis=0) > 1).any() or (mask.sum(axis=1) > 1).any()
    in_range = np.all(np.abs(cost[mask]) <= 2.0)
    assert unsettled.any() == bool(conflict or not in_range or np.isnan(cost).any())
    if unsettled.any():
        return
    assert list(zip(rows[feasible].tolist(), cols[feasible].tolist())) == (
        sct._min_cost_matching(cost, max_cost)
    )


@st.composite
def tick_cameras(draw):
    """1-4 cameras of tracks and one frame each, as one tick's association input."""
    return [draw(tracks_and_frames()) for _ in range(draw(st.integers(1, 4)))]


@given(tick_cameras())
def test_tick_costs_equal_the_one_camera_matrices(cameras):
    tracks = [t for camera_tracks, _, _ in cameras for t in camera_tracks]
    costs = sct._TickCosts(cameras, *kalman.stack_states(t.state for t in tracks))
    for c, (camera_tracks, frame, _) in enumerate(cameras):
        iou_block, gate, appearance = costs.blocks(c)
        boxes = np.array([(d.x1, d.y1, d.x2, d.y2) for d in frame.detections]).reshape(-1, 4)
        predicted = np.array([predicted_box(t) for t in camera_tracks]).reshape(-1, 4)
        assert np.array_equal(iou_block, iou_matrix(predicted, boxes))
        confirmed = [t for t in camera_tracks if t.status is TrackStatus.CONFIRMED]
        assert gate.shape == appearance.shape == (len(confirmed), len(boxes))
        if confirmed and len(boxes):
            factors = kalman.innovation_factors(*kalman.stack_states(t.state for t in confirmed))
            want = kalman.mahalanobis_matrix(factors, kalman.box_observations(boxes))
            assert np.array_equal(gate, want)
            want = appearance_matrix([t.gallery for t in confirmed], frame.embeddings)
            assert np.array_equal(appearance, want)
        first = costs.det_off[c]
        assert np.array_equal(costs.observations[first : first + len(boxes)],
                              kalman.box_observations(boxes))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_embedding_still_fails_the_step(bad):
    tracker = SingleCameraTracker("c", fps=10.0)
    for k in range(4):
        tracker.step(frame_of("c", k, [det_at(100 + 2 * k, 100)], [E1]))
    other = SingleCameraTracker("d", fps=10.0)
    broken = E1.copy()
    broken[0] = bad
    with pytest.raises(ValueError, match="invalid numeric entries"):
        step_cameras([(other, frame_of("d", 4, [], [])),
                      (tracker, frame_of("c", 4, [det_at(108, 100)], [broken]))])


def test_tracker_gates_each_frame_with_one_matrix(monkeypatch):
    scenario, gt = gen_scenario(5, 2, 12, 20.0)
    streams = render_detections(scenario, gt, NoiseProfile(box_jitter_std=2.0, miss_rate=0.1))
    calls = []
    factors = kalman.innovation_factors

    def counting(*args):
        calls.append(1)
        return factors(*args)

    def per_pair(*args):
        raise AssertionError("association scored a single pair")

    monkeypatch.setattr(kalman, "innovation_factors", counting)
    monkeypatch.setattr(kalman, "gating_distance", per_pair)
    monkeypatch.setattr(sct, "appearance_cost", per_pair)
    cid = scenario.camera_ids[0]
    tracker = SingleCameraTracker(cid, scenario.fps)
    for frame in streams[cid]:
        before = len(calls)
        tracker.step(frame)
        assert len(calls) - before <= 1
    assert calls  # confirmed tracks met detections, so the gate did run


# ---------------------------------------------------------------------------
# Cross-camera batched steps against one camera, one track at a time


def reference_step(tracker, frame):
    """The unbatched tracker step: one reference predict and update per track."""
    if tracker._last_frame is not None and frame.frame_index <= tracker._last_frame:
        raise OutOfOrderFrame(f"frame {frame.frame_index} after {tracker._last_frame}")
    tracker._last_frame = frame.frame_index
    for track in tracker.tracks:
        track.state = reference_predict(track.state)
        track.time_since_update += 1
    matches, _, unmatched_dets = associate(tracker.tracks, frame, tracker.params)
    for ti, di in matches:
        track, det = tracker.tracks[ti], frame.detections[di]
        track.state = reference_update(track.state, to_observation(det))
        track.add_row(row_of(frame.frame_index, det))
        track.add_feature(frame.embeddings[di])
        track.hits += 1
        track.time_since_update = 0
        if track.status is TrackStatus.TENTATIVE and track.hits >= tracker.params.n_init:
            track.status = TrackStatus.CONFIRMED
    matched = {ti for ti, _ in matches}
    concluded, survivors = [], []
    for i, track in enumerate(tracker.tracks):
        if i in matched:
            survivors.append(track)
        elif track.status is TrackStatus.TENTATIVE:
            pass  # dropped: missed before confirmation
        elif track.time_since_update > tracker.params.max_age:
            concluded.append(tracker._conclude(track))
        else:
            survivors.append(track)
    tracker.tracks = survivors
    for di in unmatched_dets:
        det = frame.detections[di]
        tracker.tracks.append(tracker._initiate(to_observation(det).as_vector(),
                                                row_of(frame.frame_index, det),
                                                frame.embeddings[di]))
    return tracker.tracks, concluded


def assert_same_tracks(got, want):
    assert [t.track_id for t in got] == [t.track_id for t in want]
    for a, b in zip(got, want):
        assert (a.status, a.hits, a.time_since_update) == (b.status, b.hits, b.time_since_update)
        assert np.array_equal(a.state.mean, b.state.mean)
        assert np.array_equal(a.state.cov, b.state.cov)
        assert np.array_equal(a.gallery, b.gallery)
        assert np.array_equal(a.boxes, b.boxes)


def assert_same_concluded(got, want):
    assert [c.track_id for c in got] == [c.track_id for c in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.embedding, b.embedding)
        assert (a.camera, a.t_s, a.t_e, a.l_s, a.l_e) == (b.camera, b.t_s, b.t_e, b.l_s, b.l_e)
        assert a.class_label == b.class_label and np.array_equal(a.boxes, b.boxes)


@st.composite
def camera_ticks(draw):
    """2-5 trackers and up to 8 ticks of frames; each tick steps a subset of cameras.

    Each camera sees up to three vehicles moving at constant speed, each
    detected with some jitter or missed, plus occasional clutter boxes.
    """
    n_cams = draw(st.integers(2, 5))
    params = TrackerParams(
        n_init=draw(st.integers(1, 3)),
        max_age=draw(st.integers(0, 3)),
        gallery_budget=draw(st.integers(1, 3)),
    )
    lanes = [
        [
            (draw(coords), draw(coords), draw(st.integers(-6, 6)), draw(st.integers(-6, 6)),
             draw(palette_vectors))
            for _ in range(draw(st.integers(0, 3)))
        ]
        for _ in range(n_cams)
    ]
    ticks = []
    for k in range(draw(st.integers(1, 8))):
        stepped = draw(st.lists(st.integers(0, n_cams - 1), unique=True, max_size=n_cams))
        tick = []
        for c in stepped:
            dets, embs = [], []
            for x, y, vx, vy, emb in lanes[c]:
                if draw(st.integers(0, 4)):
                    jx, jy = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
                    dets.append(det_at(x + vx * k + jx, y + vy * k + jy))
                    embs.append(emb)
            if draw(st.integers(0, 3)) == 0:
                dets.append(draw(boxes()))
                embs.append(draw(palette_vectors))
            tick.append((c, frame_of(f"c{c}", k, dets, embs)))
        ticks.append(tick)
    return n_cams, params, ticks


@given(camera_ticks())
def test_step_cameras_equals_one_camera_at_a_time(case):
    n_cams, params, ticks = case
    batched = [SingleCameraTracker(f"c{c}", 10.0, params=params) for c in range(n_cams)]
    alone = copy.deepcopy(batched)
    for tick in ticks:
        got = step_cameras([(batched[c], frame) for c, frame in tick])
        for (c, frame), (tracks, concluded) in zip(tick, got):
            want_tracks, want_concluded = reference_step(alone[c], frame)
            assert_same_tracks(tracks, want_tracks)
            assert_same_concluded(concluded, want_concluded)
    for a, b in zip(batched, alone):
        assert a._last_frame == b._last_frame
        assert_same_concluded(a.finish(), b.finish())


def test_step_cameras_rejects_a_bad_call_before_any_change():
    a, b = SingleCameraTracker("a", 10.0), SingleCameraTracker("b", 10.0)
    for k in range(4):
        step_cameras([
            (a, frame_of("a", k, [det_at(100 + 2 * k, 100)], [E1])),
            (b, frame_of("b", k, [det_at(300 - 2 * k, 200)], [E2])),
        ])

    def snapshot():
        # A step replaces each track's state object, so identity shows a predict.
        return [
            (tr._last_frame,
             [(t.track_id, t.status, t.hits, t.time_since_update, t.n_features) for t in tr.tracks],
             [t.state for t in tr.tracks])
            for tr in (a, b)
        ]

    def unchanged(before):
        for (last, fields, states), (last_now, fields_now, states_now) in zip(before, snapshot()):
            assert (last, fields) == (last_now, fields_now)
            assert all(s is t for s, t in zip(states, states_now))

    before = snapshot()
    with pytest.raises(ValueError, match="twice"):
        step_cameras([
            (a, frame_of("a", 4, [det_at(108, 100)], [E1])),
            (b, frame_of("b", 4, [det_at(292, 200)], [E2])),
            (a, frame_of("a", 5, [det_at(110, 100)], [E1])),
        ])
    unchanged(before)
    with pytest.raises(OutOfOrderFrame):
        step_cameras([
            (a, frame_of("a", 4, [det_at(108, 100)], [E1])),
            (b, frame_of("b", 3, [det_at(292, 200)], [E2])),
        ])
    unchanged(before)
    step_cameras([(a, frame_of("a", 4, [], [])), (b, frame_of("b", 4, [], []))])
    assert (a._last_frame, b._last_frame) == (4, 4)


def test_track_history_grows_and_gallery_keeps_the_budget():
    track = SCTrack(1, "c", kalman.kf_initiate(to_observation(det_at(0, 0))), gallery_budget=4)
    rows = [unit(k + 1, 1, 0, 0) for k in range(11)]
    for k, row in enumerate(rows):
        track.add_feature(row)
        assert np.array_equal(track.features, np.stack(rows[: k + 1]))
        assert np.array_equal(track.gallery, np.stack(rows[max(0, k - 3) : k + 1]))
    assert len(track.history) >= 11
