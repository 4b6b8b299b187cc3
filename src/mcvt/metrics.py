"""Tracking evaluation: CLEAR MOTA and identity scores (IDP/IDR/IDF1).

Trajectories are columns (``Trajectories``): one row per observation, with
its camera, frame, id and corner box.  The loaders read a CSV file into them
in one vectorised pass, and read a file that pass rejects again row by row,
so that a bad row's error names the file and line.  ``evaluate_mota`` also
takes the dict form the pipeline writes, id -> [(camera, frame, box), ...].
Single-camera evaluation uses one camera; multi-camera evaluation scores the
union of per-camera frames with global ids.  Boxes match when IoU >= 0.5
(MOTChallenge convention).

Scoring takes the IoU of every same-frame (ground truth, prediction) pair in
one array pass.  A frame whose valid pairs are already one-to-one is matched
to exactly those pairs: the carried pairs and the Hungarian step would keep
them all and add none.  Only a frame where some row has two valid pairs runs
that step, so Hungarian runs on few frames: on grid-city at seed 0, scoring
makes 271 calls to scipy's ``linear_sum_assignment``, the identity
assignment included, against 1,711 when every frame with free ids on both
sides ran it.

The identity metrics follow the truth-to-result matching of Ristani et al.:
a bipartite assignment between ground-truth and predicted ids over the whole
sequence that minimizes the per-frame misses, which is the one that maximizes
the frames where paired ids' boxes match.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.optimize import linear_sum_assignment

from .ingest import Detection, iou_pairs, read_csv_rows, rejected_boxes

IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class MotSummary:
    mota: float
    idp: float
    idr: float
    idf1: float
    fp: int
    fn: int
    id_switches: int
    num_gt: int
    idtp: int
    idfp: int
    idfn: int


@dataclass(frozen=True, eq=False)
class Trajectories:
    """Observations as columns, one row each, sorted by (camera, frame, id).

    Row i is id ``ids[i]`` at frame ``frames[i]`` of camera
    ``cameras[codes[i]]``, with corner box ``boxes[i]`` = (x1, y1, x2, y2).
    ``cameras`` is sorted, so code order is camera-name order.  Build one
    with ``from_columns``.
    """

    cameras: tuple[str, ...]
    codes: np.ndarray  # (n,) int64
    frames: np.ndarray  # (n,) int64
    ids: np.ndarray  # (n,) int64
    boxes: np.ndarray  # (n, 4) float64

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_columns(cls, cameras, codes, frames, ids, boxes) -> "Trajectories":
        """Rows in any order, camera ``cameras[codes[i]]``, sorted into a set.

        A (camera, frame, id) that appears twice raises ValueError.
        """
        names = sorted(set(cameras))
        rank = {name: i for i, name in enumerate(names)}
        codes = np.array([rank[c] for c in cameras], dtype=np.int64)[np.asarray(codes, np.int64)]
        frames = np.asarray(frames, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        order = np.lexsort((ids, frames, codes))
        codes, frames, ids = codes[order], frames[order], ids[order]
        twice = np.flatnonzero((codes[1:] == codes[:-1]) & (frames[1:] == frames[:-1])
                               & (ids[1:] == ids[:-1]))
        if len(twice):
            i = twice[0]
            raise ValueError(
                f"id {ids[i]} appears twice in camera {names[codes[i]]!r} frame {frames[i]}"
            )
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)[order]
        return cls(tuple(names), codes, frames, ids, boxes)


def _from_dict(traj: dict[int, list[tuple[str, int, Detection]]]) -> Trajectories:
    """The columns of id -> [(camera, frame, box), ...] trajectories."""
    rows = [(camera, frame, tid, box) for tid, entries in traj.items()
            for camera, frame, box in entries]
    index: dict[str, int] = {}
    codes = [index.setdefault(camera, len(index)) for camera, _, _, _ in rows]
    return Trajectories.from_columns(
        list(index),
        codes,
        [frame for _, frame, _, _ in rows],
        [tid for _, _, tid, _ in rows],
        [(box.x1, box.y1, box.x2, box.y2) for _, _, _, box in rows],
    )


def evaluate_mota(
    gt: Trajectories | dict, pred: Trajectories | dict, iou_thresh: float = IOU_THRESHOLD
) -> MotSummary:
    """Full summary: CLEAR counts (FP/FN/switches/MOTA) plus identity scores.

    ``gt`` and ``pred`` are ``Trajectories`` or id -> [(camera, frame, box),
    ...] dicts.  Every same-frame (ground truth, prediction) pair is scored
    once; the CLEAR matching and the identity overlap counts both read that
    score.  Matching carries over frame to frame per camera; an id switch is
    counted when a ground-truth id is matched to a different prediction than
    its last known one.  MOTA = 1 − (FP + FN + IDSW) / num_gt.
    """
    gt, pred = (t if isinstance(t, Trajectories) else _from_dict(t) for t in (gt, pred))
    g_key, p_key, key_camera = _frame_keys(gt, pred)
    gi, pj = _same_frame_pairs(g_key, p_key, len(key_camera))
    ious = iou_pairs(gt.boxes[gi], pred.boxes[pj])
    mg, mp = _clear_matches(gt, pred, g_key, p_key, key_camera, gi, pj, ious, iou_thresh)

    # Each match against the previous match of its (camera, ground-truth id).
    order = np.lexsort((gt.frames[mg], gt.ids[mg], gt.codes[mg]))
    codes, gids, pids = gt.codes[mg][order], gt.ids[mg][order], pred.ids[mp][order]
    idsw = int(np.count_nonzero((codes[1:] == codes[:-1]) & (gids[1:] == gids[:-1])
                                & (pids[1:] != pids[:-1])))
    num_gt = len(gt)
    fp = len(pred) - len(mg)
    fn = num_gt - len(mg)
    if num_gt > 0:
        mota = 1.0 - (fp + fn + idsw) / num_gt
    else:
        mota = 1.0 if fp == 0 else 0.0

    hit = ious >= iou_thresh
    idp, idr, idf1, idtp, idfp, idfn = _identity_counts(gt, pred, gi[hit], pj[hit])
    return MotSummary(
        mota=mota,
        idp=idp,
        idr=idr,
        idf1=idf1,
        fp=fp,
        fn=fn,
        id_switches=idsw,
        num_gt=num_gt,
        idtp=idtp,
        idfp=idfp,
        idfn=idfn,
    )


def evaluate_identity(
    gt: Trajectories | dict, pred: Trajectories | dict, iou_thresh: float = IOU_THRESHOLD
) -> tuple[float, float, float]:
    """(IDP, IDR, IDF1) under the optimal global id correspondence."""
    summary = evaluate_mota(gt, pred, iou_thresh)
    return summary.idp, summary.idr, summary.idf1


def _frame_keys(gt: Trajectories, pred: Trajectories):
    """Each row's camera frame as an index into the frames of both sets, in
    (camera name, frame) order, for ground truth and predictions; and the
    camera of each frame."""
    cameras = sorted(set(gt.cameras) | set(pred.cameras))
    rank = {name: i for i, name in enumerate(cameras)}
    codes = np.concatenate([np.array([rank[c] for c in t.cameras], dtype=np.int64)[t.codes]
                            for t in (gt, pred)])
    frames = np.concatenate([gt.frames, pred.frames])
    order = np.lexsort((frames, codes))
    codes, frames = codes[order], frames[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (codes[1:] != codes[:-1]) | (frames[1:] != frames[:-1])
    key = np.empty(len(order), dtype=np.int64)
    key[order] = np.cumsum(first) - 1
    return key[: len(gt)], key[len(gt) :], codes[first]


def _same_frame_pairs(g_key, p_key, n_keys: int):
    """(gt row, pred row) of every pair of rows in one camera frame, in
    (frame, gt row, pred row) order; each set's rows come in frame order."""
    p_count = np.bincount(p_key, minlength=n_keys)
    p_first = np.cumsum(p_count) - p_count
    per_row = p_count[g_key]
    gi = np.repeat(np.arange(len(g_key)), per_row)
    pj = p_first[g_key][gi] + np.arange(len(gi)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    return gi, pj


def _clear_matches(gt, pred, g_key, p_key, key_camera, gi, pj, ious, thresh):
    """(gt rows, pred rows) of the CLEAR matches of every frame.

    A pair is valid when 1 - IoU <= 1 - thresh, the Hungarian step's test.
    In a frame where no row has two valid pairs, the matches are exactly its
    valid pairs: a carried pair is kept only with IoU >= thresh, so it is
    valid, and the Hungarian step over the other rows, where an invalid pair
    costs 1e5, takes every valid pair, since leaving one out puts its row or
    column on a 1e5 entry.  Every other frame runs that step, in frame order.
    """
    n_keys = len(key_camera)
    valid = 1.0 - ious <= 1.0 - thresh
    vg, vp = gi[valid], pj[valid]
    conflicted = np.zeros(n_keys, dtype=bool)
    conflicted[g_key[np.bincount(vg, minlength=len(gt)) > 1]] = True
    conflicted[p_key[np.bincount(vp, minlength=len(pred)) > 1]] = True
    settled = ~conflicted[g_key[vg]]
    mg, mp = vg[settled], vp[settled]
    m_key = g_key[mg]

    g_count = np.bincount(g_key, minlength=n_keys)
    p_count = np.bincount(p_key, minlength=n_keys)
    g_first, p_first = np.cumsum(g_count) - g_count, np.cumsum(p_count) - p_count
    pair_first = np.cumsum(g_count * p_count) - g_count * p_count
    replayed: dict[int, dict[int, int]] = {}  # conflicting frame -> {gt row: pred row}
    for k in np.flatnonzero(conflicted).tolist():
        g0, p0, n_g, n_p = int(g_first[k]), int(p_first[k]), int(g_count[k]), int(p_count[k])
        score = ious[pair_first[k] : pair_first[k] + n_g * n_p].reshape(n_g, n_p)
        # Keep the pairs of the camera's previous frame whose ids are both in
        # this frame with IoU >= thresh; ids are ascending in both blocks.
        g_at = {gid: i for i, gid in enumerate(gt.ids[g0 : g0 + n_g].tolist())}
        p_at = {pid: j for j, pid in enumerate(pred.ids[p0 : p0 + n_p].tolist())}
        matches: dict[int, int] = {}
        if k and key_camera[k - 1] == key_camera[k]:
            if k - 1 in replayed:
                previous = replayed[k - 1].items()
            else:
                lo, hi = np.searchsorted(m_key, [k - 1, k])
                previous = zip(mg[lo:hi].tolist(), mp[lo:hi].tolist())
            for g, p in previous:
                i, j = g_at.get(int(gt.ids[g])), p_at.get(int(pred.ids[p]))
                if i is not None and j is not None and score[i, j] >= thresh:
                    matches[i] = j
        used = set(matches.values())
        free_g = [i for i in range(n_g) if i not in matches]
        free_p = [j for j in range(n_p) if j not in used]
        if free_g and free_p:
            cost = 1.0 - score[np.ix_(free_g, free_p)]
            # A pair with IoU below the threshold costs 1e5, as an infeasible
            # pair does in the tracker, so no valid match is given up to lower
            # the total 1 - IoU.
            rows, cols = linear_sum_assignment(np.where(cost > 1.0 - thresh, 1e5, cost))
            for r, c in zip(rows, cols):
                if cost[r, c] <= 1.0 - thresh:
                    matches[free_g[r]] = free_p[c]
        replayed[k] = {g0 + i: p0 + j for i, j in matches.items()}
    rg = [row for rows in replayed.values() for row in rows]
    rp = [row for rows in replayed.values() for row in rows.values()]
    return (np.concatenate([mg, np.array(rg, dtype=np.int64)]),
            np.concatenate([mp, np.array(rp, dtype=np.int64)]))


def _identity_counts(gt: Trajectories, pred: Trajectories, hit_g, hit_p):
    """Identity counts; ``hit_g`` and ``hit_p`` are the (gt row, pred row)
    pairs, one per camera frame, whose boxes match."""
    g_ids, g_index = np.unique(gt.ids, return_inverse=True)
    p_ids, p_index = np.unique(pred.ids, return_inverse=True)
    overlap = np.zeros((len(g_ids), len(p_ids)), dtype=int)
    np.add.at(overlap, (g_index[hit_g], p_index[hit_p]), 1)

    # Ristani et al.'s padded min-cost problem costs total_gt + total_pred -
    # 2 IDTP, so its optimum is the largest total overlap of one-to-one pairs.
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = int(overlap[rows, cols].sum())
    total_gt, total_pred = len(gt), len(pred)
    idp = idtp / total_pred if total_pred else 0.0
    idr = idtp / total_gt if total_gt else 0.0
    idf1 = 2 * idtp / (total_gt + total_pred) if total_gt + total_pred else 0.0
    return idp, idr, idf1, idtp, total_pred - idtp, total_gt - idtp


def _int64(text: str) -> int:
    """``int(text)``, which must fit the int64 columns."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def _read_columns(path, camera: str | None) -> Trajectories:
    """The rows of a CSV file but blank and ``#`` rows, each column parsed as
    a whole with ``int`` or ``float``.  With ``camera`` None the rows are
    `camera,frame,id,x,y,w,h`, else `frame,id,x,y,w,h` of that camera.

    A field that does not parse, a short row, a box that ``Detection``
    rejects and a repeated (camera, frame, id) raise ValueError, as does a
    file with no row; a file that is not text or not CSV raises what
    ``csv`` raises.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    width = 6 if camera is not None else 7
    columns = list(islice(zip(*rows), width))
    if len(columns) < width:
        raise ValueError("no rows, or a short row")
    if camera is None:
        index: dict[str, int] = {}
        codes = [index.setdefault(name, len(index)) for name in columns.pop(0)]
        cameras = list(index)
    else:
        codes, cameras = np.zeros(len(rows), dtype=np.int64), [camera]
    frame, tid, *xywh = columns
    x, y, w, h = (np.fromiter(map(float, column), float, len(rows)) for column in xywh)
    with np.errstate(over="ignore", invalid="ignore"):
        boxes = np.stack([x, y, x + w, y + h], axis=1)
    if rejected_boxes(boxes).any():
        raise ValueError("a box that Detection rejects")
    return Trajectories.from_columns(
        cameras,
        codes,
        np.fromiter(map(int, frame), np.int64, len(rows)),
        np.fromiter(map(int, tid), np.int64, len(rows)),
        boxes,
    )


def _read_trajectories(path, layout: str, camera: str | None, parse) -> Trajectories:
    """Trajectories from the rows of a CSV file, in one pass over its columns.

    A file that pass does not take is read again row by row: ``parse`` maps
    a row to (camera, frame, id, box), and a row that does not parse, or a
    second row for one id in one camera frame, raises MalformedInput naming
    the file and line.
    """
    try:
        return _read_columns(path, camera)
    except (ValueError, OverflowError, csv.Error):
        pass
    seen: set[tuple[str, int, int]] = set()

    def first_sighting(row):
        camera, frame, tid, det = parse(row)
        if (camera, frame, tid) in seen:
            raise ValueError(f"id {tid} already appears in this frame")
        seen.add((camera, frame, tid))
        return tid, (camera, frame, det)

    traj: dict[int, list[tuple[str, int, Detection]]] = {}
    for tid, entry in read_csv_rows(path, layout, first_sighting):
        traj.setdefault(tid, []).append(entry)
    return _from_dict(traj)


def load_mot_trajectories(path, camera: str = "") -> Trajectories:
    """Read `frame,id,x,y,w,h,...` rows (MOTChallenge shape, 1-based or 0-based
    frames both fine — values are kept as written) for one camera."""

    def parse(row):
        x, y, w, h = map(float, row[2:6])
        return camera, _int64(row[0]), _int64(row[1]), Detection(x, y, x + w, y + h, alpha=1.0)

    return _read_trajectories(path, "frame,id,x,y,w,h", camera, parse)


def write_mot_trajectories(path, frames, ids, texts, classes) -> None:
    """Write MOTChallenge `frame,id,x,y,w,h,1,class,1` lines, one per entry of
    the aligned sequences, in the order given; ``texts`` holds each row's
    `x,y,w,h` (``ingest.box_text``)."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{frame},{tid},{text},1,{cls},1\n"
                      for frame, tid, text, cls in zip(frames, ids, texts, classes))


def load_global_trajectories(path) -> Trajectories:
    """Read `camera,frame,global_id,x,y,w,h` rows."""

    def parse(row):
        x, y, w, h = map(float, row[3:7])
        return row[0], _int64(row[1]), _int64(row[2]), Detection(x, y, x + w, y + h, alpha=1.0)

    return _read_trajectories(path, "camera,frame,global_id,x,y,w,h", None, parse)


def write_global_trajectories(path, traj: Trajectories, texts: list[str]) -> None:
    """Write `camera,frame,global_id,x,y,w,h` rows in the (camera, frame, id)
    order of ``traj``, with CSV line ends; ``texts[i]`` is row i's `x,y,w,h`
    (``ingest.box_text(traj.boxes)``)."""
    quoted = [_csv_field(camera) for camera in traj.cameras]
    rows = zip(traj.codes.tolist(), traj.frames.tolist(), traj.ids.tolist(), texts)
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{quoted[code]},{frame},{gid},{text}\r\n"
                      for code, frame, gid, text in rows)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of several."""
    line = io.StringIO()
    csv.writer(line).writerow([text, ""])
    return line.getvalue()[: -len(",\r\n")]
