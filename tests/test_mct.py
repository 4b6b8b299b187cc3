"""Cross-camera rules, constrained clustering and the supervisor loop.

Geometry below lives on the equator where one metre is 1/111194.9266 of a
longitude degree, so every distance used in a rule is a round number of
metres.
"""

import math

import numpy as np
import pytest

from mcvt.errors import NonPositiveDt
from mcvt.geo import CameraInfo, GeoPoint, Homography, make_topology
from mcvt.ingest import Detection, VehicleClass
from mcvt.mct import (
    Candidate,
    MctConfig,
    MultiCameraStore,
    MultiCameraTrack,
    TrackPairContext,
    apply_min_threshold,
    build_similarity_matrix,
    candidate_similarity,
    direction_consistent,
    hierarchical_cluster,
    identities_to_trajectories,
    speed_similarity,
    summarize_identities,
    supervisor_tick,
)
from mcvt.sct import ConcludedTrack

METERS_PER_DEGREE = math.pi * 6_371_000.0 / 180.0


def geo(x_m):
    return GeoPoint(lat=0.0, lon=x_m / METERS_PER_DEGREE)


def unit(*values):
    v = np.array(values, dtype=float)
    return v / np.linalg.norm(v)


E1 = unit(1, 0, 0, 0)
E2 = unit(0, 1, 0, 0)


def ct(camera, tid, t_s, t_e, x_s, x_e, emb=E1, cls=VehicleClass.CAR):
    frames = [(int(round(t_s * 10)), Detection(0, 0, 10, 10, 1.0, cls))]
    return ConcludedTrack(
        camera=camera,
        track_id=tid,
        embedding=np.asarray(emb, dtype=float),
        t_s=t_s,
        t_e=t_e,
        l_s=geo(x_s),
        l_e=geo(x_e),
        class_label=cls,
        boxes=frames,
    )


def corridor_topology(overlap=()):
    cams = [
        CameraInfo(cid, geo(x), Homography.identity(), 10.0)
        for cid, x in (("A", 30.0), ("B", 180.0), ("C", 330.0))
    ]
    return make_topology(cams, adjacent=[("A", "B"), ("B", "C")], overlap=overlap)


TOPO = corridor_topology()
CFG = MctConfig()
cand = Candidate.from_track


class Endpoints:
    def __init__(self, t_s, t_e, x_s, x_e):
        self.t_s, self.t_e = t_s, t_e
        self.l_s, self.l_e = geo(x_s), geo(x_e)


def ctx_with_speed(v, gap_m=90.0):
    """Pair context whose implied transfer speed is v m/s over gap_m metres."""
    gap = TrackPairContext(Endpoints(0.0, 6.0, 0.0, 60.0), Endpoints(0.0, 0.0, 150.0, 210.0)).gap_distance
    # Use the measured haversine gap so v = gap / dt is exact up to rounding.
    later = Endpoints(6.0 + gap / v, 30.0, 150.0, 210.0)
    return TrackPairContext(Endpoints(0.0, 6.0, 0.0, 60.0), later)


class TestSpeedSimilarity:
    def test_roots_and_vertex(self):
        v_max = 40.0
        assert speed_similarity(ctx_with_speed(v_max / 2), v_max) == pytest.approx(1.0, abs=1e-12)
        assert speed_similarity(ctx_with_speed(v_max), v_max) == pytest.approx(0.0, abs=1e-12)
        # Zero gap: the vehicle did not move, v = 0.
        still = TrackPairContext(Endpoints(0, 6, 0, 60), Endpoints(10, 20, 60, 60))
        assert speed_similarity(still, v_max) == 0.0

    def test_symmetry_about_vertex(self):
        v_max = 40.0
        for delta in (2.0, 5.0, 11.0, 19.0):
            lo = speed_similarity(ctx_with_speed(20.0 - delta), v_max)
            hi = speed_similarity(ctx_with_speed(20.0 + delta), v_max)
            assert lo == pytest.approx(hi, abs=1e-12)

    def test_hand_value(self):
        # v = 10, v_max = 40: 4 * 10 * 30 / 1600 = 0.75.
        assert speed_similarity(ctx_with_speed(10.0), 40.0) == pytest.approx(0.75, abs=1e-9)

    def test_above_v_max_clamps_to_zero(self):
        assert speed_similarity(ctx_with_speed(55.0), 40.0) == 0.0

    def test_non_positive_dt_rejected(self):
        overlapping = TrackPairContext(Endpoints(0, 6, 0, 60), Endpoints(3, 9, 150, 210))
        with pytest.raises(NonPositiveDt):
            speed_similarity(overlapping, 40.0)


class TestDirectionRule:
    def test_continuing_east_is_consistent(self):
        earlier = Endpoints(0, 6, 0.0, 60.0)
        later = Endpoints(15, 21, 150.0, 210.0)
        assert direction_consistent(earlier, later)

    def test_oncoming_vehicle_rejected(self):
        # Westbound track at the next camera: its start (210) passes the
        # first test but its end (150) moves back toward the earlier exit.
        earlier = Endpoints(0, 6, 0.0, 60.0)
        later = Endpoints(15, 21, 210.0, 150.0)
        assert not direction_consistent(earlier, later)

    def test_track_behind_start_rejected(self):
        earlier = Endpoints(0, 6, 0.0, 60.0)
        later = Endpoints(15, 21, -90.0, -30.0)
        assert not direction_consistent(earlier, later)


class TestCandidateSimilarity:
    def test_same_camera_is_zero(self):
        a = ct("A", 1, 0, 6, 0, 60)
        b = ct("A", 2, 15, 21, 0, 60)
        assert candidate_similarity(cand(a), cand(b), TOPO, CFG) == 0.0

    def test_matching_pair_scores_speed_prior(self):
        a = ct("A", 1, 0, 6, 0, 60)
        b = ct("B", 1, 15, 21, 150, 210)  # 90 m in 9 s -> v = 10
        sim = candidate_similarity(cand(a), cand(b), TOPO, CFG)
        assert sim == pytest.approx(0.75, abs=1e-9)
        # Argument order must not matter.
        assert candidate_similarity(cand(b), cand(a), TOPO, CFG) == sim

    def test_appearance_scales_similarity(self):
        a = ct("A", 1, 0, 6, 0, 60, emb=E1)
        b = ct("B", 1, 15, 21, 150, 210, emb=E2)
        # Orthogonal unit embeddings: appearance = 1 - sqrt(2)/2.
        expected = (1.0 - math.sqrt(2) / 2.0) * 0.75
        assert candidate_similarity(cand(a), cand(b), TOPO, CFG) == pytest.approx(expected, abs=1e-9)

    def test_temporal_overlap_rejected_without_view_overlap(self):
        a = ct("A", 1, 0, 6, 0, 60)
        b = ct("B", 1, 3, 9, 150, 210)
        assert candidate_similarity(cand(a), cand(b), TOPO, CFG) == 0.0

    def test_temporal_overlap_allowed_with_view_overlap(self):
        topo = corridor_topology(overlap=[("A", "B")])
        a = ct("A", 1, 0, 6, 0, 60)
        b = ct("B", 1, 3, 9, 150, 210)
        # Shared field of view: no transfer gap to rate, appearance decides.
        assert candidate_similarity(cand(a), cand(b), topo, CFG) == pytest.approx(1.0)

    def test_adjacency_rule_toggles(self):
        a = ct("A", 1, 0, 6, 0, 60)
        c = ct("C", 1, 26, 32, 300, 360)  # 240 m in 20 s -> v = 12
        assert candidate_similarity(cand(a), cand(c), TOPO, CFG) == 0.0
        relaxed = MctConfig(use_adjacency=False)
        sim = candidate_similarity(cand(a), cand(c), TOPO, relaxed)
        assert sim == pytest.approx(4 * 12 * 28 / 1600, abs=1e-9)

    def test_direction_rule_toggles(self):
        a = ct("A", 1, 0, 6, 0, 60)
        b = ct("B", 1, 15, 21, 210, 150)  # oncoming
        assert candidate_similarity(cand(a), cand(b), TOPO, CFG) == 0.0
        relaxed = MctConfig(use_direction=False)
        assert candidate_similarity(cand(a), cand(b), TOPO, relaxed) > 0.0

    def test_similarity_matrix_properties(self):
        tracks = [
            ct("A", 1, 0, 6, 0, 60),
            ct("B", 1, 15, 21, 150, 210),
            ct("C", 1, 30, 36, 300, 360),
            ct("A", 2, 40, 46, 0, 60),
        ]
        m = build_similarity_matrix(tracks, TOPO, CFG)
        assert np.array_equal(m, m.T)
        assert np.array_equal(np.diag(m), np.zeros(4))
        assert np.all((m >= 0.0) & (m <= 1.0))

    def test_apply_min_threshold(self):
        m = np.array([[0.0, 0.149], [0.149, 0.0]])
        assert np.array_equal(apply_min_threshold(m, 0.15), np.zeros((2, 2)))
        m = np.array([[0.0, 0.15], [0.15, 0.0]])
        assert np.array_equal(apply_min_threshold(m, 0.15), m)


class TestHierarchicalCluster:
    def test_chain_merges_into_one(self):
        tracks = [
            ct("A", 1, 0, 6, 0, 60),
            ct("B", 1, 15, 21, 150, 210),
            ct("C", 1, 30, 36, 300, 360),
        ]
        m = build_similarity_matrix(tracks, TOPO, CFG)
        assert hierarchical_cluster(tracks, m) == [[0, 1, 2]]

    def test_camera_exclusivity_survives_transitive_merge(self):
        tracks = [
            ct("A", 1, 0, 6, 0, 60),
            ct("B", 1, 15, 21, 150, 210),
            ct("A", 2, 31, 37, 0, 60),  # would chain through B's camera set
        ]
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 0.9
        m[1, 2] = m[2, 1] = 0.8
        clusters = hierarchical_cluster(tracks, m)
        assert clusters == [[0, 1], [2]]
        for group in clusters:
            cams = [tracks[i].camera for i in group]
            assert len(cams) == len(set(cams))

    def test_tie_break_on_track_key(self):
        tracks = [
            ct("A", 1, 0, 6, 0, 60),
            ct("B", 1, 15, 21, 150, 210),
            ct("A", 2, 0, 6, 0, 60),
        ]
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 0.5
        m[1, 2] = m[2, 1] = 0.5  # same score; (A,1) beats (A,2)
        assert hierarchical_cluster(tracks, m) == [[0, 1], [2]]

    def test_zero_similarity_never_merges(self):
        tracks = [ct("A", 1, 0, 6, 0, 60), ct("B", 1, 15, 21, 150, 210)]
        assert hierarchical_cluster(tracks, np.zeros((2, 2))) == [[0], [1]]


def test_multi_camera_track_rejects_same_camera_members():
    with pytest.raises(ValueError):
        MultiCameraTrack(1, [ct("A", 1, 0, 6, 0, 60), ct("A", 2, 10, 16, 0, 60)])
    identity = MultiCameraTrack(1, [ct("A", 1, 0, 6, 0, 60), ct("B", 1, 15, 21, 150, 210)])
    assert identity.cameras == {"A", "B"}
    assert identity.last_seen == 21


def test_store_ids_and_drain():
    store = MultiCameraStore()
    assert store.new_id() == 1
    assert store.new_id() == 2
    store.active[5] = MultiCameraTrack(5, [ct("A", 1, 0, 6, 0, 60)])
    store.active[3] = MultiCameraTrack(3, [ct("B", 1, 15, 21, 150, 210)])
    drained = store.drain()
    assert [m.global_id for m in drained] == [3, 5]
    assert store.active == {}


class TestSupervisor:
    def test_fresh_tracks_cluster_to_new_identity(self):
        store = MultiCameraStore()
        t1 = ct("A", 1, 0, 6, 0, 60)
        t2 = ct("B", 1, 15, 21, 150, 210)
        assignments, flushed = supervisor_tick(store, [t1, t2], now=22.0, topo=TOPO, cfg=CFG)
        assert assignments == {("A", 1): 1, ("B", 1): 1}
        assert flushed == []
        assert set(store.active) == {1}
        assert store.active[1].cameras == {"A", "B"}

    def test_representative_continues_identity(self):
        store = MultiCameraStore()
        supervisor_tick(store, [ct("A", 1, 0, 6, 0, 60), ct("B", 1, 15, 21, 150, 210)],
                        now=22.0, topo=TOPO, cfg=CFG)
        t3 = ct("C", 1, 30, 36, 300, 360)
        assignments, _ = supervisor_tick(store, [t3], now=37.0, topo=TOPO, cfg=CFG)
        assert assignments == {("C", 1): 1}
        assert store.active[1].cameras == {"A", "B", "C"}

    def test_merge_keeps_smallest_global_id(self):
        store = MultiCameraStore()
        supervisor_tick(store, [ct("A", 1, 0, 6, 0, 60)], now=7.0, topo=TOPO, cfg=CFG)
        # An unrelated identity in between claims id 2.
        supervisor_tick(store, [ct("C", 9, 0, 6, 300, 360, emb=E2)], now=7.0, topo=TOPO, cfg=CFG)
        assignments, _ = supervisor_tick(
            store, [ct("B", 1, 15, 21, 150, 210)], now=22.0, topo=TOPO, cfg=CFG
        )
        assert assignments == {("B", 1): 1}
        assert sorted(store.active) == [1, 2]
        assert store.active[1].cameras == {"A", "B"}

    def test_two_existing_identities_can_merge(self):
        store = MultiCameraStore()
        supervisor_tick(store, [ct("A", 1, 0, 6, 0, 60)], now=7.0, topo=TOPO, cfg=CFG)
        # Far-apart tick: the B track arrives before anything links them.
        cfg_strict = MctConfig(use_adjacency=True)
        supervisor_tick(store, [ct("C", 1, 30, 36, 300, 360)], now=37.0, topo=TOPO, cfg=cfg_strict)
        assert sorted(store.active) == [1, 2]
        # Now the bridging B track merges identity 2 into identity 1.
        assignments, _ = supervisor_tick(
            store, [ct("B", 1, 15, 21, 150, 210)], now=38.0, topo=TOPO, cfg=cfg_strict
        )
        assert sorted(store.active) == [1]
        assert store.active[1].cameras == {"A", "B", "C"}
        assert assignments == {("B", 1): 1}

    def test_flush_after_horizon(self):
        store = MultiCameraStore()
        cfg = MctConfig(flush_horizon=50.0)
        supervisor_tick(store, [ct("A", 1, 0, 6, 0, 60)], now=7.0, topo=TOPO, cfg=cfg)
        _, flushed = supervisor_tick(store, [], now=40.0, topo=TOPO, cfg=cfg)
        assert flushed == []
        _, flushed = supervisor_tick(store, [], now=57.0, topo=TOPO, cfg=cfg)
        assert [m.global_id for m in flushed] == [1]
        assert store.active == {}

    def test_incompatible_tracks_get_separate_ids(self):
        store = MultiCameraStore()
        t1 = ct("A", 1, 0, 6, 0, 60, emb=E1)
        t2 = ct("B", 1, 15, 21, 150, 210, emb=-E1)  # opposite embedding
        assignments, _ = supervisor_tick(store, [t1, t2], now=22.0, topo=TOPO, cfg=CFG)
        assert assignments[("A", 1)] != assignments[("B", 1)]


def test_identities_to_trajectories_shape():
    identity = MultiCameraTrack(
        4, [ct("A", 1, 0, 6, 0, 60), ct("B", 2, 15, 21, 150, 210)]
    )
    traj = identities_to_trajectories([identity])
    assert set(traj) == {4}
    cams = {camera for camera, _, _ in traj[4]}
    assert cams == {"A", "B"}


def test_summarize_identities_shape():
    identity = MultiCameraTrack(
        4, [ct("B", 2, 15, 21, 150, 210), ct("A", 1, 0, 6, 0, 60)]
    )
    (summary,) = summarize_identities([identity])
    assert summary["global_id"] == 4
    assert summary["cameras"] == ["A", "B"]
    assert summary["t_s"] == 0 and summary["t_e"] == 21
    # Members come out in temporal order regardless of insertion order.
    assert [m["camera"] for m in summary["members"]] == ["A", "B"]
    assert summary["members"][0]["class"] == int(VehicleClass.CAR)


def test_config_validation():
    with pytest.raises(ValueError):
        MctConfig(tau_min=1.5)
    with pytest.raises(ValueError):
        MctConfig(v_max=0.0)
    with pytest.raises(ValueError):
        MctConfig(tick_period=-1.0)
    with pytest.raises(ValueError):
        MctConfig(bias_lambda=2.0)
