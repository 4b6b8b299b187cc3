"""Cross-camera rules, constrained clustering and the supervisor loop.

Geometry below lives on the equator where one metre is 1/111194.9266 of a
longitude degree, so every distance used in a rule is a round number of
metres.  The rule unit tests read each rule off a two-candidate matrix.

The similarity matrix is checked against the plain double loop over the
scalar rules (`reference_similarity_matrix`) on generated candidates on a
two-row camera grid off the equator, and the supervisor against a store
rebuilt from fresh identity objects at every tick, so that no candidate
cached on an identity can carry over.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mcvt.errors import NonPositiveDt, UnknownCamera
from mcvt.geo import (
    CameraInfo,
    GeoPoint,
    Homography,
    are_adjacent,
    are_overlapping,
    haversine_distance,
    make_topology,
)
from mcvt.ingest import VehicleClass
from mcvt.mct import (
    Candidate,
    MctConfig,
    MultiCameraStore,
    MultiCameraTrack,
    TrackPairContext,
    apply_min_threshold,
    build_similarity_matrix,
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
    frames = [(int(round(t_s * 10)), (0.0, 0.0, 10.0, 10.0), int(cls))]  # one sct.TRACK_ROW
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
    cams = [CameraInfo(cid, Homography(np.eye(3))) for cid in "ABC"]
    return make_topology(cams, adjacent=[("A", "B"), ("B", "C")], overlap=overlap)


TOPO = corridor_topology()
CFG = MctConfig()
cand = Candidate.from_track


def pair_similarity(a, b, topo=TOPO, cfg=CFG):
    """The rule-gated similarity of two tracks, read off their matrix."""
    matrix = build_similarity_matrix([a, b], topo, cfg)
    assert matrix[0, 1] == matrix[1, 0]
    return matrix[0, 1]


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
    """Rule 5 between an eastbound A track (0 -> 60 m) and a later B track."""

    @staticmethod
    def consistent(x_s, x_e):
        earlier = ct("A", 1, 0, 6, 0.0, 60.0)
        later = ct("B", 1, 15, 21, x_s, x_e)
        # Every other rule lets the pair through.
        assert pair_similarity(earlier, later, cfg=MctConfig(use_direction=False)) > 0.0
        return pair_similarity(earlier, later) > 0.0

    def test_continuing_east_is_consistent(self):
        assert self.consistent(150.0, 210.0)

    def test_oncoming_vehicle_rejected(self):
        # Westbound track at the next camera: its start (210) passes the
        # first test but its end (150) moves back toward the earlier exit.
        assert not self.consistent(210.0, 150.0)

    def test_track_behind_start_rejected(self):
        assert not self.consistent(-90.0, -30.0)


class TestCandidateSimilarity:
    def test_same_camera_is_zero(self):
        a = ct("A", 1, 0, 6, 0, 60)
        b = ct("A", 2, 15, 21, 0, 60)
        assert pair_similarity(a, b) == 0.0

    def test_matching_pair_scores_speed_prior(self):
        a = ct("A", 1, 0, 6, 0, 60)
        b = ct("B", 1, 15, 21, 150, 210)  # 90 m in 9 s -> v = 10
        sim = pair_similarity(a, b)
        assert sim == pytest.approx(0.75, abs=1e-9)
        # Argument order must not matter.
        assert pair_similarity(b, a) == sim

    def test_appearance_scales_similarity(self):
        a = ct("A", 1, 0, 6, 0, 60, emb=E1)
        b = ct("B", 1, 15, 21, 150, 210, emb=E2)
        # Orthogonal unit embeddings: appearance = 1 - sqrt(2)/2.
        expected = (1.0 - math.sqrt(2) / 2.0) * 0.75
        assert pair_similarity(a, b) == pytest.approx(expected, abs=1e-9)

    def test_temporal_overlap_rejected_without_view_overlap(self):
        a = ct("A", 1, 0, 6, 0, 60)
        b = ct("B", 1, 3, 9, 150, 210)
        assert pair_similarity(a, b) == 0.0

    def test_temporal_overlap_allowed_with_view_overlap(self):
        topo = corridor_topology(overlap=[("A", "B")])
        a = ct("A", 1, 0, 6, 0, 60)
        b = ct("B", 1, 3, 9, 150, 210)
        # Shared field of view: no transfer gap to rate, appearance decides.
        assert pair_similarity(a, b, topo) == pytest.approx(1.0)

    def test_adjacency_rule_toggles(self):
        a = ct("A", 1, 0, 6, 0, 60)
        c = ct("C", 1, 26, 32, 300, 360)  # 240 m in 20 s -> v = 12
        assert pair_similarity(a, c) == 0.0
        sim = pair_similarity(a, c, cfg=MctConfig(use_adjacency=False))
        assert sim == pytest.approx(4 * 12 * 28 / 1600, abs=1e-9)

    def test_direction_rule_toggles(self):
        a = ct("A", 1, 0, 6, 0, 60)
        b = ct("B", 1, 15, 21, 210, 150)  # oncoming
        assert pair_similarity(a, b) == 0.0
        assert pair_similarity(a, b, cfg=MctConfig(use_direction=False)) > 0.0

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


# ------------------------------------- masks and cached candidates vs the plain loop


def direction_consistent(earlier, later) -> bool:
    """True when the later track continues away from the earlier one.

    Both the later track's start must be no closer to the earlier start than
    to the earlier end, and the later end must move away from the earlier end.
    """
    d = haversine_distance
    return (
        d(earlier.l_s, later.l_s) >= d(earlier.l_e, later.l_s)
        and d(later.l_e, earlier.l_e) >= d(later.l_s, earlier.l_e)
    )


def time_order_key(c: Candidate):
    """The reference's order of a pair: end, start, sorted cameras, sorted member keys."""
    return (c.t_e, c.t_s, tuple(sorted(c.cameras)),
            tuple(sorted((t.camera, t.track_id) for t in c.tracks)))


def candidate_similarity(a: Candidate, b: Candidate, topo, cfg: MctConfig) -> float:
    """Rule-gated appearance similarity between two clustering candidates."""
    if a.cameras & b.cameras:
        return 0.0  # rule 1: camera exclusivity
    earlier, later = (a, b) if time_order_key(a) <= time_order_key(b) else (b, a)
    dt = later.t_s - earlier.t_e
    views_overlap = are_overlapping(topo, earlier.end_camera, later.start_camera)
    if dt <= 0 and not views_overlap:
        return 0.0  # rule 2: temporal non-overlap
    if cfg.use_adjacency and not are_adjacent(topo, earlier.end_camera, later.start_camera):
        return 0.0  # rule 4: topology adjacency
    if cfg.use_direction and not direction_consistent(earlier, later):
        return 0.0  # rule 5: direction consistency
    if dt > 0:
        sim_v = speed_similarity(TrackPairContext(earlier, later), cfg.v_max)
    else:
        sim_v = 1.0  # overlapping views, no transfer gap to rate
    appearance = 1.0 - np.linalg.norm(a.embedding - b.embedding) / 2.0
    return max(0.0, appearance * sim_v)


def reference_similarity_matrix(tracks, topo, cfg):
    """The plain double loop: every pair through candidate_similarity."""
    cands = [t if isinstance(t, Candidate) else Candidate.from_track(t) for t in tracks]
    n = len(cands)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = candidate_similarity(cands[i], cands[j], topo, cfg)
    return matrix


CORRIDOR = ("A", "B", "C", "D")
CAMERA_X = {"A": 30.0, "B": 180.0, "C": 330.0, "D": 480.0}
EMBEDDINGS = (E1, E2, unit(1, 1, 0, 0), unit(1, 0.2, 0, 0))


def corridor4(adjacent, overlap):
    cams = [CameraInfo(c, Homography(np.eye(3))) for c in CORRIDOR]
    return make_topology(cams, adjacent=adjacent, overlap=overlap)


# A two-row camera grid at latitude 48: rows 120 m apart, columns 150 m.
GRID_ROWS = (("A", "B", "C"), ("D", "E", "F"))
GRID_XY = {
    camera: (30.0 + 150.0 * col, 120.0 * row)
    for row, cameras in enumerate(GRID_ROWS)
    for col, camera in enumerate(cameras)
}
GRID_ROUTES = GRID_ROWS + tuple(zip(*GRID_ROWS))  # west to east, south to north


def grid_point(x_m, y_m):
    return GeoPoint(lat=48.0 + y_m / METERS_PER_DEGREE, lon=x_m / METERS_PER_DEGREE)


def grid_track(camera, tid, t_s, t_e, start, end, emb):
    """A track on the grid from point `start` to point `end`, both (x, y) in metres."""
    track = ct(camera, tid, t_s, t_e, 0.0, 0.0, emb=emb)
    return replace(track, l_s=grid_point(*start), l_e=grid_point(*end))


@st.composite
def grid_topologies(draw):
    cameras = sorted(GRID_XY)
    pairs = [(a, b) for i, a in enumerate(cameras) for b in cameras[i + 1:]]
    adjacent = [p for p in pairs if draw(st.booleans())]
    overlap = [p for p in adjacent if draw(st.booleans())]
    cams = [CameraInfo(c, Homography(np.eye(3))) for c in cameras]
    return make_topology(cams, adjacent=adjacent, overlap=overlap)


@st.composite
def embedding_palettes(draw):
    """Four unit embeddings: the fixed EMBEDDINGS, or D-wide normal draws scaled to unit rows."""
    if draw(st.booleans()):
        return EMBEDDINGS
    dim = draw(st.sampled_from((4, 64, 128, 2048)))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(4, dim))
    return tuple(rows / np.linalg.norm(rows, axis=1, keepdims=True))


@st.composite
def similarity_cases(draw):
    """(candidates, topology, config) on a two-row grid of six cameras.

    Vehicles drive along a row or a column in either direction, each in its
    own lane, past some of its cameras; each vehicle's tracks are split into
    runs of single tracks and multi-member identities, so many pairs pass
    every rule.  Integer times make equal t_e values and touching or
    overlapping intervals common.  Unrelated tracks are mixed in, now and
    then on a camera the topology lacks.  Embeddings come from one palette
    per case (`embedding_palettes`).
    """
    topo = draw(grid_topologies())
    palette = draw(embedding_palettes())
    cfg = MctConfig(use_adjacency=draw(st.booleans()), use_direction=draw(st.booleans()))
    ids = iter(range(1, 100))
    cands = []
    for _ in range(draw(st.integers(0, 4))):
        route = draw(st.sampled_from(GRID_ROUTES))
        if draw(st.booleans()):
            route = route[::-1]
        (x0, y0), (x1, y1) = GRID_XY[route[0]], GRID_XY[route[1]]
        length = math.hypot(x1 - x0, y1 - y0)
        ux, uy = (x1 - x0) / length, (y1 - y0) / length
        lane = draw(st.sampled_from((-3.5, 0.0, 3.5)))
        t0, gap = draw(st.integers(0, 20)), draw(st.sampled_from((-3, 0, 3, 9, 15)))
        emb = draw(st.sampled_from(palette))
        run: list = []
        for k, camera in enumerate(route):
            if not draw(st.booleans()):
                continue
            x, y = GRID_XY[camera]
            x, y, t_s = x - lane * uy, y + lane * ux, t0 + k * (6 + gap)
            run.append(grid_track(
                camera, next(ids), t_s, t_s + 6,
                (x - 30 * ux, y - 30 * uy), (x + 30 * ux, y + 30 * uy), emb,
            ))
            if k == len(route) - 1 or draw(st.booleans()):
                if len(run) > 1 or draw(st.booleans()):
                    cands.append(Candidate.from_identity(MultiCameraTrack(next(ids), run)))
                else:
                    cands.append(cand(run[0]))
                run = []
    known = sorted(GRID_XY)
    offsets = st.sampled_from((-30.0, 0.0, 30.0))
    for _ in range(draw(st.integers(0, 4))):
        camera = draw(st.sampled_from(known + ["Z"])) if draw(st.integers(0, 4)) == 0 else \
            draw(st.sampled_from(known))
        (x, y), t_s = GRID_XY.get(camera, (600.0, 60.0)), draw(st.integers(0, 60))
        cands.append(cand(grid_track(
            camera, next(ids), t_s, t_s + draw(st.integers(0, 8)),
            (x + draw(offsets), y + draw(offsets)), (x + draw(offsets), y + draw(offsets)),
            draw(st.sampled_from(palette)),
        )))
    return draw(st.permutations(cands)), topo, cfg


@given(similarity_cases())
def test_masked_matrix_equals_the_plain_loop(case):
    cands, topo, cfg = case
    try:
        expected = reference_similarity_matrix(cands, topo, cfg)
    except UnknownCamera:
        with pytest.raises(UnknownCamera):
            build_similarity_matrix(cands, topo, cfg)
        return
    assert (build_similarity_matrix(cands, topo, cfg) == expected).all()



# ------------------------------------- single-linkage clustering on adversarial chains


def assert_single_linkage(cameras, matrix, clusters):
    """The clustering invariants: a partition into camera-disjoint clusters,
    each held together by its own positive pairs (at least k - 1 of them for
    k members), and no positive pair left between two clusters that could
    still merge."""
    assert sorted(i for cluster in clusters for i in cluster) == list(range(len(cameras)))
    for cluster in clusters:
        cams = [cid for i in cluster for cid in cameras[i]]
        assert len(cams) == len(set(cams))
        pairs = [(i, j) for i in cluster for j in cluster if i < j and matrix[i, j] > 0]
        assert len(pairs) >= len(cluster) - 1
        reached, frontier = {cluster[0]}, [cluster[0]]
        while frontier:
            i = frontier.pop()
            for j in cluster:
                if j not in reached and matrix[i, j] > 0:
                    reached.add(j)
                    frontier.append(j)
        assert reached == set(cluster)
    owner = {i: k for k, cluster in enumerate(clusters) for i in cluster}
    held = [{cid for i in cluster for cid in cameras[i]} for cluster in clusters]
    for i, j in zip(*np.nonzero(matrix > 0)):
        if owner[i] != owner[j]:
            assert held[owner[i]] & held[owner[j]]


@st.composite
def chain_cases(draw):
    """(tracks, matrix): up to 12 tracks on three cameras, joined by chains.

    A random order of the tracks is linked pair by pair with positive scores,
    so every chain runs through tracks of one camera again and again; a few
    more pairs get a score, zero included.  Scores come from four levels, so
    ties are common.
    """
    n = draw(st.integers(1, 12))
    tracks = [ct(draw(st.sampled_from("ABC")), k + 1, 0, 6, 0, 60) for k in range(n)]
    levels = st.sampled_from((0.2, 0.5, 0.5, 0.9))
    matrix = np.zeros((n, n))
    order = draw(st.permutations(range(n)))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    for i, j in list(zip(order, order[1:])) + extra:
        if i != j:
            matrix[i, j] = matrix[j, i] = draw(st.sampled_from((0.0,)) | levels)
    return tracks, matrix


@given(chain_cases())
def test_single_linkage_on_chains_keeps_its_invariants(case):
    tracks, matrix = case
    assert_single_linkage([{t.camera} for t in tracks], matrix,
                          hierarchical_cluster(tracks, matrix))


def reference_cluster(tracks, matrix):
    """Single linkage over the positive pairs of one-track candidates, sorted
    by (-score, sorted pair of (camera, track id)) and merged in that order
    when their clusters hold no camera in common."""
    keys = [(t.camera, t.track_id) for t in tracks]
    pairs = [(i, j) for i in range(len(tracks)) for j in range(i + 1, len(tracks))
             if matrix[i, j] > 0]
    pairs.sort(key=lambda ij: (-matrix[ij], tuple(sorted((keys[ij[0]], keys[ij[1]])))))
    clusters = [{i} for i in range(len(tracks))]
    for i, j in pairs:
        a, b = (next(c for c in clusters if k in c) for k in (i, j))
        if a is not b and not {keys[k][0] for k in a} & {keys[k][0] for k in b}:
            a |= b
            clusters.remove(b)
    return sorted(sorted(c) for c in clusters)


# After B3-C6 merge, A4-C6 and B3-A10 tie at 0.5: the pair of the smaller
# tie keys, (A, 4) before (A, 10), merges and leaves A10 alone.
@example(([ct("B", 3, 0, 6, 0, 60), ct("C", 6, 0, 6, 0, 60), ct("A", 4, 0, 6, 0, 60),
           ct("A", 10, 0, 6, 0, 60)],
          np.array([[0, 0.9, 0, 0.5], [0.9, 0, 0.5, 0], [0, 0.5, 0, 0], [0.5, 0, 0, 0]])))
@given(chain_cases())
def test_cluster_merges_in_score_then_tie_key_order(case):
    tracks, matrix = case
    assert hierarchical_cluster(tracks, matrix) == reference_cluster(tracks, matrix)


@given(similarity_cases())
def test_single_linkage_on_rule_gated_scores_keeps_its_invariants(case):
    cands, topo, cfg = case
    try:
        matrix = apply_min_threshold(build_similarity_matrix(cands, topo, cfg), cfg.tau_min)
    except UnknownCamera:
        return
    assert_single_linkage([c.cameras for c in cands], matrix, hierarchical_cluster(cands, matrix))


def test_single_linkage_can_join_two_tracks_whose_own_pair_breaks_rule_2():
    """The clustering links through pairs, so one identity can hold two
    tracks that the rules keep apart as a pair (README, "Single linkage").

    Tracks on cameras A and B, 150 m apart with no shared view, are seen at
    the same time; each is rated a plausible predecessor of the track on D.
    """
    topo = make_topology(
        [CameraInfo(c, Homography(np.eye(3))) for c in "ABD"],
        adjacent=[("A", "D"), ("B", "D")],
    )
    tracks = [
        grid_track("A", 1, 0, 6, (33.5, -30.0), (33.5, 30.0), E1),
        grid_track("D", 2, 15, 21, (33.5, 90.0), (33.5, 150.0), E1),
        grid_track("B", 3, 0, 6, (183.5, -30.0), (183.5, 30.0), E1),
    ]
    matrix = apply_min_threshold(build_similarity_matrix(tracks, topo, CFG), CFG.tau_min)
    assert matrix[0, 2] == 0.0 and matrix[0, 1] > 0.0 and matrix[1, 2] > 0.0
    assert hierarchical_cluster(tracks, matrix) == [[0, 1, 2]]

def member_keys(identity):
    return sorted((t.camera, t.track_id) for t in identity.members)


def candidate_key(c):
    return (c.cameras, c.start_camera, c.end_camera, c.embedding.tobytes(), c.t_s, c.t_e,
            c.l_s, c.l_e, [(t.camera, t.track_id) for t in c.tracks], c.existing_id)


def rebuilt_identity(identity):
    return MultiCameraTrack(identity.global_id, list(identity.members))


def assert_candidates_are_current(store):
    """Every held identity's candidate, built or not, is the one its members give."""
    for identity in store.active.values():
        assert candidate_key(identity.candidate) == \
            candidate_key(Candidate.from_identity(rebuilt_identity(identity)))


def run_against_rebuilt_store(ticks, topo):
    """Drive one store through `ticks` of (new tracks, now, cfg) and check
    every tick against a store of fresh identity objects with the same members."""
    store = MultiCameraStore()
    results = []
    for new_tracks, now, cfg in ticks:
        rebuilt = MultiCameraStore(next_id=store._next_id)
        rebuilt.active = {g: rebuilt_identity(m) for g, m in store.active.items()}
        before = dict(store.active)
        assignments, flushed = supervisor_tick(store, new_tracks, now, topo, cfg)
        want_assignments, want_flushed = supervisor_tick(rebuilt, new_tracks, now, topo, cfg)
        assert assignments == want_assignments
        assert [(m.global_id, member_keys(m)) for m in flushed] == [
            (m.global_id, member_keys(m)) for m in want_flushed
        ]
        assert {g: member_keys(m) for g, m in store.active.items()} == {
            g: member_keys(m) for g, m in rebuilt.active.items()
        }
        assert_candidates_are_current(store)
        results.append((assignments, flushed, before))
    return store, results


@given(st.data())
def test_cached_supervisor_matches_a_store_rebuilt_each_tick(data):
    draw = data.draw
    topo = corridor4(
        [("A", "B"), ("B", "C"), ("C", "D")],
        [p for p in (("A", "B"), ("C", "D")) if draw(st.booleans())],
    )
    configs = [
        MctConfig(flush_horizon=draw(st.sampled_from((15.0, 1000.0))),
                  use_adjacency=draw(st.booleans()), use_direction=draw(st.booleans()))
        for _ in range(2)
    ]
    n_ticks = draw(st.integers(1, 6))
    deliveries = [[] for _ in range(n_ticks)]
    tid = 0
    for _ in range(draw(st.integers(1, 5))):
        # An eastbound vehicle at about 10 m/s; each camera's track reaches
        # the supervisor in a drawn tick, so later tracks can arrive first
        # and bridge two identities when the missing one comes in.
        t0 = draw(st.integers(0, 20))
        emb = draw(st.sampled_from(EMBEDDINGS))
        for k, camera in enumerate(CORRIDOR):
            if draw(st.booleans()):
                t_s = t0 + 15 * k
                x = CAMERA_X[camera]
                tid += 1
                deliveries[draw(st.integers(0, n_ticks - 1))].append(
                    ct(camera, tid, t_s, t_s + 6, x - 30.0, x + 30.0, emb=emb)
                )
    ticks = [
        (tracks, 10.0 * (k + 1), draw(st.sampled_from(configs)))
        for k, tracks in enumerate(deliveries)
    ]
    store, _ = run_against_rebuilt_store(ticks, topo)
    held = sorted(store.active)
    assert [m.global_id for m in store.drain()] == held and store.active == {}


def test_cached_supervisor_through_a_merge_and_a_flush():
    cfg = MctConfig(flush_horizon=50.0)
    ticks = [
        ([ct("A", 1, 0, 6, 0, 60), ct("D", 7, 0, 6, 450, 510, emb=E2)], 7.0, cfg),
        ([ct("C", 1, 30, 36, 300, 360)], 37.0, cfg),  # not adjacent to A: identity 3
        ([], 37.5, cfg),
        ([ct("B", 1, 15, 21, 150, 210)], 38.0, cfg),  # bridges identities 1 and 3
        ([], 100.0, cfg),
    ]
    topo = corridor4([("A", "B"), ("B", "C"), ("C", "D")], [])
    store, results = run_against_rebuilt_store(ticks, topo)
    assignments, _, before_merge = results[3]
    after_merge = results[4][2]
    assert sorted(before_merge) == [1, 2, 3]
    assert assignments == {("B", 1): 1} and sorted(after_merge) == [1, 2]
    assert after_merge[1].cameras == {"A", "B", "C"}
    assert [m.global_id for m in results[4][1]] == [1, 2]
    assert store.active == {}


def test_identity_candidate_is_built_once_per_object(monkeypatch):
    topo = corridor4([("A", "B"), ("B", "C"), ("C", "D")], [])
    store = MultiCameraStore()
    built = []
    from_identity = Candidate.from_identity
    monkeypatch.setattr(
        Candidate, "from_identity",
        classmethod(lambda cls, identity: built.append(identity) or from_identity(identity)),
    )
    # Two identities that pass rules 1, 2 and 4 but differ in appearance.
    supervisor_tick(store, [ct("A", 1, 0, 6, 0, 60), ct("B", 5, 15, 21, 150, 210, emb=-E1)],
                    now=22.0, topo=topo, cfg=CFG)
    assert sorted(store.active) == [1, 2] and built == []
    first = dict(store.active)
    for now in (23.0, 24.0):
        supervisor_tick(store, [], now=now, topo=topo, cfg=CFG)
        assert store.active == first
    assert [m.global_id for m in built] == [1, 2]
    assert all(m is first[m.global_id] for m in built)
    # A merge builds a new identity 2; only its candidate is built afterwards.
    assignments, _ = supervisor_tick(
        store, [ct("C", 1, 30, 36, 300, 360, emb=-E1)], now=37.0, topo=topo, cfg=CFG
    )
    assert assignments == {("C", 1): 2} and store.active[2] is not first[2]
    for now in (38.0, 39.0):
        supervisor_tick(store, [], now=now, topo=topo, cfg=CFG)
    assert [m.global_id for m in built] == [1, 2, 2]
    assert built[2] is store.active[2]
    assert len({id(m) for m in built}) == len(built)


def test_rule_change_reaches_held_identities():
    topo = corridor4([("A", "B"), ("B", "C"), ("C", "D")], [])
    store = MultiCameraStore()
    # An oncoming B track: rules 1, 2 and 4 pass, rule 5 keeps the two
    # held identities apart for as long as it is on.
    supervisor_tick(store, [ct("A", 1, 0, 6, 0, 60), ct("B", 1, 15, 21, 210, 150)],
                    now=22.0, topo=topo, cfg=CFG)
    supervisor_tick(store, [], now=23.0, topo=topo, cfg=CFG)
    assert sorted(store.active) == [1, 2]
    # Without rule 5 the same two identities match.
    supervisor_tick(store, [], now=24.0, topo=topo, cfg=MctConfig(use_direction=False))
    assert sorted(store.active) == [1]


def test_identities_to_trajectories_shape():
    identity = MultiCameraTrack(
        4, [ct("A", 1, 0, 6, 0, 60), ct("B", 2, 15, 21, 150, 210)]
    )
    traj = identities_to_trajectories([identity])
    assert set(traj.ids.tolist()) == {4}
    cams = {traj.cameras[code] for code in traj.codes.tolist()}
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
    with pytest.raises(TypeError, match="bias_lambda"):  # a module constant, no setting
        MctConfig(bias_lambda=0.1)
    for name in ("tau_min", "v_max", "flush_horizon", "tick_period"):
        for value in (math.nan, math.inf, "1"):
            with pytest.raises(ValueError, match=name):
                MctConfig(**{name: value})
