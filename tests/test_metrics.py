"""Scoring checks built around two independent oracles: hand-derived CLEAR
counts for tiny sequences, and an exhaustive assignment search for the
identity scores."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcvt.ingest import Detection
from mcvt.metrics import (
    evaluate_identity,
    evaluate_mota,
    load_global_trajectories,
    load_mot_trajectories,
    write_global_trajectories,
)


def box(x, y=0.0, w=10.0, h=10.0):
    return Detection(x, y, x + w, y + h, 1.0)


def traj(entries):
    """{tid: [(camera, frame, x), ...]} with unit-ish boxes at x."""
    return {
        tid: [("cam", f, box(x)) for f, x in obs] if not isinstance(obs, dict) else obs
        for tid, obs in entries.items()
    }


def test_perfect_tracking():
    gt = traj({1: [(0, 0.0), (1, 5.0), (2, 10.0)], 2: [(0, 100.0), (1, 95.0)]})
    s = evaluate_mota(gt, gt)
    assert (s.mota, s.idf1, s.idp, s.idr) == (1.0, 1.0, 1.0, 1.0)
    assert (s.fp, s.fn, s.id_switches) == (0, 0, 0)
    assert s.num_gt == 5
    assert (s.idtp, s.idfp, s.idfn) == (5, 0, 0)


def test_fragmentation_one_switch():
    # One object over four frames, covered by two predicted ids split in the
    # middle: no FP/FN, one switch, MOTA = 1 - 1/4, IDF1 = 0.5.
    gt = traj({1: [(0, 0.0), (1, 2.0), (2, 4.0), (3, 6.0)]})
    pred = traj({10: [(0, 0.0), (1, 2.0)], 11: [(2, 4.0), (3, 6.0)]})
    s = evaluate_mota(gt, pred)
    assert (s.fp, s.fn, s.id_switches) == (0, 0, 1)
    assert s.mota == pytest.approx(0.75)
    assert s.idf1 == pytest.approx(0.5)
    assert s.idp == pytest.approx(0.5)
    assert s.idr == pytest.approx(0.5)


def test_crossing_tracks_two_switches():
    # Two objects swap predicted ids at the last frame.
    gt = traj({1: [(0, 0.0), (1, 10.0), (2, 20.0)], 2: [(0, 100.0), (1, 90.0), (2, 80.0)]})
    pred = traj({7: [(0, 0.0), (1, 10.0), (2, 80.0)], 8: [(0, 100.0), (1, 90.0), (2, 20.0)]})
    s = evaluate_mota(gt, pred)
    assert (s.fp, s.fn) == (0, 0)
    assert s.id_switches == 2
    assert s.mota == pytest.approx(1.0 - 2.0 / 6.0)
    # Best correspondence keeps 2 of 3 frames per id.
    assert s.idf1 == pytest.approx(2 * 4 / 12)


def test_matching_is_sticky_across_frames():
    # Frame 0: both predictions overlap the object; the better one wins and
    # the other counts as FP.  Frame 1: the carried pair persists while it
    # stays above the IoU threshold, even though the rival now fits better.
    gt = {1: [("c", 0, box(0.0)), ("c", 1, box(0.0))]}
    pred = {
        5: [("c", 0, box(4.0)), ("c", 1, box(4.0))],  # iou 0.43 -> 0.43
        6: [("c", 0, box(2.0)), ("c", 1, box(2.0))],  # iou 0.67 wins frame 0
    }
    s = evaluate_mota(gt, pred)
    assert s.id_switches == 0
    assert s.fp == 2  # the losing prediction, both frames
    assert s.fn == 0


def test_carried_pair_needs_both_ids_in_the_frame():
    # At threshold 0 every pair of a frame matches, but prediction 5 is gone
    # in frame 1: its carried pair must not count, so 6 takes over.
    gt = traj({1: [(0, 0.0), (1, 0.0)]})
    pred = traj({5: [(0, 0.0)], 6: [(1, 500.0)]})
    s = evaluate_mota(gt, pred, iou_thresh=0.0)
    assert (s.fp, s.fn, s.id_switches) == (0, 0, 1)


def test_false_positives_and_misses():
    gt = traj({1: [(0, 0.0), (1, 0.0)]})
    pred = traj({9: [(0, 0.0), (1, 500.0)], 10: [(1, 900.0)]})
    s = evaluate_mota(gt, pred)
    assert s.fn == 1  # frame 1 object unmatched
    assert s.fp == 2  # far box of 9 plus all of 10
    assert s.num_gt == 2
    assert s.mota == pytest.approx(1.0 - 3.0 / 2.0)  # MOTA may go negative


def test_empty_inputs():
    assert evaluate_mota({}, {}).mota == 1.0
    s = evaluate_mota({}, traj({1: [(0, 0.0)]}))
    assert s.mota == 0.0 and s.fp == 1
    s = evaluate_mota(traj({1: [(0, 0.0)]}), {})
    assert s.fn == 1 and s.mota == 0.0
    assert evaluate_identity({}, {}) == (0.0, 0.0, 0.0)


def test_iou_threshold_boundary():
    gt = {1: [("c", 0, Detection(0, 0, 10, 10, 1.0))]}
    # Exactly half area in common: iou = 50 / (100 + 50 - 50) = 0.5, counted.
    pred = {2: [("c", 0, Detection(0, 0, 10, 5, 1.0))]}
    s = evaluate_mota(gt, pred)
    assert (s.fp, s.fn) == (0, 0)
    below = {2: [("c", 0, Detection(0, 0, 10, 4.9, 1.0))]}
    s = evaluate_mota(gt, below)
    assert (s.fp, s.fn) == (1, 1)


def test_frame_keeps_its_valid_match_over_a_cheaper_invalid_assignment():
    # IoUs: (1, 3) 11/23, (2, 3) 0.6, (2, 4) 4/32, (1, 4) 0.  The pairing
    # {(1, 3), (2, 4)} has the smaller total 1 - IoU but no valid pair.
    gt = {1: [("c", 0, Detection(13, 0, 24, 10, 1.0))],
          2: [("c", 0, Detection(6, 0, 31, 10, 1.0))]}
    pred = {3: [("c", 0, Detection(1, 0, 24, 10, 1.0))],
            4: [("c", 0, Detection(27, 0, 38, 10, 1.0))]}
    s = evaluate_mota(gt, pred)
    assert (s.fp, s.fn, s.mota) == (1, 1, 0.0)


def test_duplicate_id_in_frame_rejected():
    bad = {1: [("c", 0, box(0.0)), ("c", 0, box(30.0))]}
    with pytest.raises(ValueError):
        evaluate_mota(bad, {})
    with pytest.raises(ValueError, match="id 1 appears twice"):
        evaluate_identity({}, bad)


def test_multi_camera_frames_are_distinct():
    gt = {1: [("a", 0, box(0.0)), ("b", 0, box(0.0))]}
    pred = {5: [("a", 0, box(0.0)), ("b", 0, box(0.0))]}
    s = evaluate_mota(gt, pred)
    assert s.num_gt == 2 and s.idtp == 2
    assert s.idf1 == 1.0
    # A prediction in the wrong camera cannot match across.
    wrong = {5: [("a", 0, box(0.0)), ("a", 1, box(0.0))]}
    s = evaluate_mota(gt, wrong)
    assert s.fn == 1 and s.fp == 1


# ---------------------------------------------------------------------------
# identity scores against exhaustive search


def brute_force_identity(gt, pred, thresh=0.5):
    """Maximize total per-frame overlap over all injective id mappings."""
    gt_ids, pred_ids = sorted(gt), sorted(pred)
    overlap = {}
    for g in gt_ids:
        boxes = {(camera, frame): b for camera, frame, b in gt[g]}
        for p in pred_ids:
            count = 0
            for camera, frame, pb in pred[p]:
                gb = boxes.get((camera, frame))
                if gb is not None:
                    from mcvt.ingest import iou

                    if iou(gb, pb) >= thresh:
                        count += 1
            overlap[g, p] = count
    best = 0
    for r in range(min(len(gt_ids), len(pred_ids)) + 1):
        for gsub in itertools.combinations(gt_ids, r):
            for psub in itertools.permutations(pred_ids, r):
                best = max(best, sum(overlap[g, p] for g, p in zip(gsub, psub)))
    total_gt = sum(len(v) for v in gt.values())
    total_pred = sum(len(v) for v in pred.values())
    idp = best / total_pred if total_pred else 0.0
    idr = best / total_gt if total_gt else 0.0
    idf1 = 2 * best / (total_gt + total_pred) if total_gt + total_pred else 0.0
    return idp, idr, idf1, best


def random_instance(rng):
    cameras = ["x", "y"]
    gt, pred = {}, {}
    for tid in range(1, int(rng.integers(0, 4)) + 1):
        entries = []
        for frame in range(int(rng.integers(1, 6))):
            cam = cameras[int(rng.integers(2))]
            entries.append((cam, frame, box(float(rng.integers(0, 5)) * 20.0)))
        gt[tid] = entries
    for tid in range(100, 100 + int(rng.integers(0, 4))):
        entries = []
        for frame in range(int(rng.integers(1, 6))):
            cam = cameras[int(rng.integers(2))]
            if rng.random() < 0.6 and gt:
                # copy some ground-truth box of this frame when one exists
                g = int(rng.integers(1, len(gt) + 1))
                match = [b for c, f, b in gt[g] if f == frame and c == cam]
                if match:
                    entries.append((cam, frame, match[0]))
                    continue
            entries.append((cam, frame, box(1000.0 + float(rng.integers(0, 5)) * 20.0)))
        pred[tid] = entries
    return gt, pred


def test_identity_scores_match_brute_force():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        gt, pred = random_instance(rng)
        want = brute_force_identity(gt, pred)
        idp, idr, idf1 = evaluate_identity(gt, pred)
        s = evaluate_mota(gt, pred)
        assert s.idtp == want[3], f"trial {trial}"
        assert (idp, idr, idf1) == want[:3], f"trial {trial}"


# Box x positions: neighbours 3 px apart overlap with IoU 0.54, so one box can
# match several; 20 overlaps none of the others.
XS = (0.0, 3.0, 6.0, 20.0)


def trajectory_sets(first_id):
    """Up to three ids, each seen at up to four distinct (camera, frame) keys."""
    key = st.tuples(st.sampled_from(("x", "y")), st.integers(0, 3))
    track = st.dictionaries(key, st.sampled_from(XS), min_size=1, max_size=4)
    return st.lists(track, max_size=3).map(lambda tracks: {
        first_id + i: [(camera, frame, box(x)) for (camera, frame), x in sorted(t.items())]
        for i, t in enumerate(tracks)
    })


@given(trajectory_sets(1), trajectory_sets(100))
def test_identity_counts_match_brute_force_on_generated_sets(gt, pred):
    idp, idr, idf1, best = brute_force_identity(gt, pred)
    total_gt = sum(len(v) for v in gt.values())
    total_pred = sum(len(v) for v in pred.values())
    s = evaluate_mota(gt, pred)
    assert (s.idtp, s.idfp, s.idfn) == (best, total_pred - best, total_gt - best)
    assert (s.idp, s.idr, s.idf1) == (idp, idr, idf1)
    assert evaluate_identity(gt, pred) == (idp, idr, idf1)


# ---------------------------------------------------------------------------
# file formats


def test_mot_csv_roundtrip(tmp_path):
    path = tmp_path / "mot.csv"
    path.write_text(
        "# comment\n"
        "0,3,10.0,20.0,30.0,40.0,1,1,1\n"
        "1,3,12.0,20.0,30.0,40.0,1,1,1\n"
        "0,4,100.0,20.0,30.0,40.0\n"
    )
    loaded = load_mot_trajectories(path, camera="c9")
    assert set(loaded) == {3, 4}
    cam, frame, det = loaded[3][0]
    assert cam == "c9" and frame == 0
    assert (det.x1, det.y1, det.x2, det.y2) == (10.0, 20.0, 40.0, 60.0)


def test_global_csv_roundtrip(tmp_path):
    original = {
        2: [("b", 1, box(5.0)), ("a", 0, box(0.0))],
        1: [("a", 0, box(50.0))],
    }
    path = tmp_path / "global.csv"
    write_global_trajectories(path, original)
    # Deterministic row order: (camera, frame, id).
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("a,0,1") or rows[0].startswith("a,0,2")
    assert rows == sorted(rows)
    loaded = load_global_trajectories(path)
    assert set(loaded) == {1, 2}
    assert len(loaded[2]) == 2
    s = evaluate_mota(original, loaded)
    assert s.idf1 == 1.0 and s.mota == 1.0
