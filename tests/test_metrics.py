"""Scoring checks built around two independent oracles: hand-derived CLEAR
counts for tiny sequences, and an exhaustive assignment search for the
identity scores."""

import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mcvt import metrics
from mcvt.errors import MalformedInput
from mcvt.ingest import Detection, box_text, iou
from mcvt.metrics import (
    MotSummary,
    evaluate_identity,
    evaluate_mota,
    load_global_trajectories,
    load_mot_trajectories,
    write_global_trajectories,
)
from mcvt.simkit import (
    NoiseProfile,
    gen_scenario,
    load_ground_truth,
    render_detections,
    write_scenario_dir,
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
# CLEAR matching against the frame-by-frame scorer it replaced


def reference_clear(gt, pred, thresh=0.5):
    """Score id -> [(camera, frame, box)] dicts one camera frame at a time,
    in (camera, frame) order, with ``iou`` on every pair of the frame: keep
    the carried pairs of the camera's previous frame that still have IoU >=
    thresh, then run Hungarian over the free ids.  Returns the summary and
    the frames where Hungarian ran."""

    def by_frame(traj):
        frames = {}
        for tid, entries in traj.items():
            for camera, frame, box in entries:
                slot = frames.setdefault((camera, frame), {})
                if tid in slot:
                    raise ValueError(f"id {tid} appears twice in camera {camera!r} frame {frame}")
                slot[tid] = box
        return frames

    gt_frames, pred_frames = by_frame(gt), by_frame(pred)
    fp = fn = idsw = num_gt = 0
    carried, last_known, overlap, hungarian = {}, {}, {}, []
    for key in sorted(set(gt_frames) | set(pred_frames)):
        camera, _ = key
        gt_boxes, pred_boxes = gt_frames.get(key, {}), pred_frames.get(key, {})
        ious = {}
        for gid, gt_box in gt_boxes.items():
            for pid, pred_box in pred_boxes.items():
                score = ious[gid, pid] = iou(gt_box, pred_box)
                if score >= thresh:
                    overlap[gid, pid] = overlap.get((gid, pid), 0) + 1
        matches, used_pred = {}, set()
        for gid, pid in carried.get(camera, {}).items():
            if (gid, pid) in ious and ious[gid, pid] >= thresh:
                matches[gid] = pid
                used_pred.add(pid)
        free_gt = sorted(g for g in gt_boxes if g not in matches)
        free_pred = sorted(p for p in pred_boxes if p not in used_pred)
        if free_gt and free_pred:
            hungarian.append(key)
            cost = np.array([[1.0 - ious[g, p] for p in free_pred] for g in free_gt])
            rows, cols = linear_sum_assignment(np.where(cost > 1.0 - thresh, 1e5, cost))
            for i, j in zip(rows, cols):
                if cost[i, j] <= 1.0 - thresh:
                    matches[free_gt[i]] = free_pred[j]
        for gid, pid in matches.items():
            prev = last_known.get((camera, gid))
            if prev is not None and prev != pid:
                idsw += 1
            last_known[camera, gid] = pid
        fp += len(pred_boxes) - len(matches)
        fn += len(gt_boxes) - len(matches)
        num_gt += len(gt_boxes)
        carried[camera] = matches
    mota = 1.0 - (fp + fn + idsw) / num_gt if num_gt else (1.0 if fp == 0 else 0.0)

    total_gt = sum(len(entries) for entries in gt.values())
    total_pred = sum(len(entries) for entries in pred.values())
    gt_index = {g: i for i, g in enumerate(gt)}
    pred_index = {p: j for j, p in enumerate(pred)}
    counts = np.zeros((len(gt), len(pred)), dtype=int)
    for (g, p), count in overlap.items():
        counts[gt_index[g], pred_index[p]] = count
    rows, cols = linear_sum_assignment(counts, maximize=True)
    idtp = int(counts[rows, cols].sum())
    summary = MotSummary(
        mota=mota,
        idp=idtp / total_pred if total_pred else 0.0,
        idr=idtp / total_gt if total_gt else 0.0,
        idf1=2 * idtp / (total_gt + total_pred) if total_gt + total_pred else 0.0,
        fp=fp, fn=fn, id_switches=idsw, num_gt=num_gt,
        idtp=idtp, idfp=total_pred - idtp, idfn=total_gt - idtp,
    )
    return summary, hungarian


def conflicting_frames(gt, pred, thresh):
    """(camera, frame) keys where a ground-truth or predicted id has two
    valid pairs, valid meaning 1 - IoU <= 1 - thresh."""
    valid = Counter()
    for (gid, gt_entries), (pid, pred_entries) in itertools.product(gt.items(), pred.items()):
        for (camera, frame, g), (pred_camera, pred_frame, p) in itertools.product(gt_entries,
                                                                                  pred_entries):
            if (camera, frame) == (pred_camera, pred_frame) and 1.0 - iou(g, p) <= 1.0 - thresh:
                valid[camera, frame, "gt", gid] += 1
                valid[camera, frame, "pred", pid] += 1
    return {(camera, frame) for (camera, frame, _, _), n in valid.items() if n > 1}


def scored_with_calls(gt, pred, thresh):
    """evaluate_mota's summary and its number of linear_sum_assignment calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return linear_sum_assignment(*args, **kwargs)

    with mock.patch.object(metrics, "linear_sum_assignment", counting):
        summary = evaluate_mota(gt, pred, iou_thresh=thresh)
    return summary, len(calls)


# Boxes with tied and boundary IoUs: box(0) against box(3) 0.54, box(4) 3/7,
# box(5) exactly 1/3 and the half-height box exactly 0.5; box(20) overlaps none.
TIED_BOXES = (box(0.0), box(3.0), box(4.0), box(5.0), box(20.0), Detection(0, 0, 10, 5, 1.0))
# Just above 3/7, but 1 - THRESH == 1 - 3/7: an IoU of 3/7 is a valid pair
# for the Hungarian step, yet no overlap and no carried pair.
ABOVE_3_7 = float(np.nextafter(3 / 7, 1))


def tied_sets(first_id):
    """Up to four ids over two cameras and four frames, boxes from TIED_BOXES."""
    key = st.tuples(st.sampled_from(("x", "y")), st.integers(0, 3))
    track = st.dictionaries(key, st.sampled_from(TIED_BOXES), min_size=1, max_size=8)
    return st.lists(track, max_size=4).map(lambda tracks: {
        first_id + i: [(camera, frame, b) for (camera, frame), b in sorted(t.items())]
        for i, t in enumerate(tracks)
    })


@settings(max_examples=300, deadline=None)
@given(tied_sets(1), tied_sets(100), st.sampled_from((0.0, 1 / 3, 0.5, ABOVE_3_7)))
@example(  # a conflicting frame that the carried pair decides: 6 holds frame 1
    {1: [("c", 0, box(0.0)), ("c", 1, box(0.0))]},
    {5: [("c", 0, box(4.0)), ("c", 1, box(3.0))], 6: [("c", 0, box(3.0)), ("c", 1, box(4.0))]},
    1 / 3,
)
def test_clear_matching_equals_the_frame_loop(gt, pred, thresh):
    want, hungarian = reference_clear(gt, pred, thresh)
    got, calls = scored_with_calls(gt, pred, thresh)
    assert got == want
    # Hungarian runs only on conflicting frames, plus once for the identities.
    assert calls == 1 + len(set(hungarian) & conflicting_frames(gt, pred, thresh))


@pytest.mark.parametrize("thresh, counts", [
    # IoU 3/7 equals the threshold: the carried pair (1, 5) holds in frame 1.
    (3 / 7, (1, 0, 0, 2)),
    # Same 1 - IoU test, but IoU 3/7 is below the threshold: frame 0 still
    # matches (1, 5), frame 1 drops the carried pair and switches to 6.
    (ABOVE_3_7, (1, 0, 1, 1)),
])
def test_pair_on_the_one_minus_iou_boundary(thresh, counts):
    gt = {1: [("c", 0, box(0.0)), ("c", 1, box(0.0))]}
    pred = {5: [("c", 0, box(4.0)), ("c", 1, box(4.0))], 6: [("c", 1, box(0.5))]}
    s, _ = scored_with_calls(gt, pred, thresh)
    assert (s.fp, s.fn, s.id_switches, s.idtp) == counts
    assert s == reference_clear(gt, pred, thresh)[0]


def test_hungarian_runs_once_per_conflicting_frame():
    # Camera a: frame 0 conflicts (gt 1 overlaps 5 and 6), frame 1 has one
    # valid pair, frame 2 two disjoint ones, frame 3 conflicts with nothing
    # carried (7 is new).  Camera b: frame 0 conflicts (5 overlaps 1 and 2).
    gt = {1: [("a", 0, box(0.0)), ("a", 1, box(0.0)), ("a", 2, box(0.0)), ("a", 3, box(0.0)),
              ("b", 0, box(0.0))],
          2: [("a", 2, box(50.0)), ("b", 0, box(3.0))]}
    pred = {5: [("a", 0, box(2.0)), ("a", 2, box(50.0)), ("b", 0, box(1.5))],
            6: [("a", 0, box(3.0)), ("a", 1, box(0.0)), ("a", 2, box(0.0))],
            7: [("a", 3, box(3.0))], 8: [("a", 3, box(1.0))]}
    assert conflicting_frames(gt, pred, 0.5) == {("a", 0), ("a", 3), ("b", 0)}
    s, calls = scored_with_calls(gt, pred, 0.5)
    assert calls == 3 + 1
    want, hungarian = reference_clear(gt, pred, 0.5)
    assert s == want and len(hungarian) == 5


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
    assert set(loaded.ids.tolist()) == {3, 4}
    first = np.flatnonzero(loaded.ids == 3)[0]  # rows are in (camera, frame, id) order
    assert loaded.cameras[loaded.codes[first]] == "c9" and loaded.frames[first] == 0
    assert tuple(loaded.boxes[first].tolist()) == (10.0, 20.0, 40.0, 60.0)


def test_global_csv_roundtrip(tmp_path):
    original = {
        2: [("b", 1, box(5.0)), ("a", 0, box(0.0))],
        1: [("a", 0, box(50.0))],
    }
    path = tmp_path / "global.csv"
    columns = metrics._from_dict(original)
    write_global_trajectories(path, columns, box_text(columns.boxes))
    # Deterministic row order: (camera, frame, id).
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("a,0,1") or rows[0].startswith("a,0,2")
    assert rows == sorted(rows)
    loaded = load_global_trajectories(path)
    assert set(loaded.ids.tolist()) == {1, 2}
    assert np.count_nonzero(loaded.ids == 2) == 2
    s = evaluate_mota(original, loaded)
    assert s.idf1 == 1.0 and s.mota == 1.0


# One bad row at line 3 of each layout, and the reason the row-by-row reader
# gives for it.
BAD_ROWS = {
    "nan-width": ("1,2,10.0,20.0,nan,40.0,1,1,1", "c001,1,2,10.0,20.0,nan,40.0",
                  "detection fields must be finite"),
    "zero-width": ("1,2,10.0,20.0,0.0,40.0,1,1,1", "c001,1,2,10.0,20.0,0.0,40.0",
                   "degenerate box (10.0, 20.0, 10.0, 60.0)"),
    "float-frame": ("3.0,2,10.0,20.0,30.0,40.0,1,1,1", "c001,3.0,2,10.0,20.0,30.0,40.0",
                    "invalid literal for int() with base 10: '3.0'"),
    "short-row": ("1,2,10.0,20.0,30.0", "c001,1,2,10.0,20.0,30.0",
                  "not enough values to unpack (expected 4, got 3)"),
    "repeated-id": ("0,1,50.0,20.0,30.0,40.0,1,1,1", "c001,0,1,50.0,20.0,30.0,40.0",
                    "id 1 already appears in this frame"),
}


@pytest.fixture(scope="module")
def gt_scenario(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("gt") / "scn"
    scenario, gt = gen_scenario(0, 2, 2, 5.0)
    write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()), outdir)
    return scenario, outdir


@pytest.mark.parametrize("loader", ["mot", "global", "ground-truth"])
@pytest.mark.parametrize("case", [*BAD_ROWS, "not-utf8"])
def test_loader_error_names_the_file_and_line(tmp_path, gt_scenario, loader, case):
    scenario, scenario_dir = gt_scenario
    if loader == "global":
        layout, good, tail = ("camera,frame,global_id,x,y,w,h", "c001,0,1,10.0,20.0,30.0,40.0",
                              "c001,5,7,10.0,20.0,30.0,40.0")
    else:
        layout, good, tail = ("frame,id,x,y,w,h", "0,1,10.0,20.0,30.0,40.0,1,1,1",
                              "5,7,10.0,20.0,30.0,40.0,1,1,1")
    if case == "not-utf8":
        line = good.replace("20.0", "\xff", 1)
        position = 50 if loader == "global" else 46
        reason = f"after line 0: 'utf-8' codec can't decode byte 0xff in position {position}: " \
                 "invalid start byte"
    else:
        mot_line, global_line, why = BAD_ROWS[case]
        line = global_line if loader == "global" else mot_line
        reason = f"line 3: bad {layout} row {line!r} ({why})"
    path = scenario_dir / "gt_c002.csv" if loader == "ground-truth" else tmp_path / "t.csv"
    path.write_bytes(f"{good}\n# note\n{line}\n{tail}\n".encode("latin-1"))
    with pytest.raises(MalformedInput) as raised:
        if loader == "mot":
            load_mot_trajectories(path, camera="c001")
        elif loader == "global":
            load_global_trajectories(path)
        else:
            load_ground_truth(scenario_dir, scenario)
    assert str(raised.value) == f"{path}, {reason}"


def test_id_beyond_64_bits_names_the_line(tmp_path):
    # The columns hold ids and frames as int64; a wider one is a bad row.
    path = tmp_path / "g.csv"
    path.write_text("c001,0,1,10.0,20.0,30.0,40.0\nc001,0,9223372036854775808,1,2,3,4\n")
    with pytest.raises(MalformedInput, match=r"g\.csv, line 2: .*does not fit in 64 bits"):
        load_global_trajectories(path)
