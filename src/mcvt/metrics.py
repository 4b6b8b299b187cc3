"""Tracking evaluation: CLEAR MOTA and identity scores (IDP/IDR/IDF1).

Trajectories are dicts mapping a track/identity id to a list of
(camera, frame, box) observations.  Single-camera evaluation uses one camera
key; multi-camera evaluation scores the union of per-camera frames with
global ids.  Boxes match when IoU >= 0.5 (MOTChallenge convention).

The identity metrics follow the truth-to-result matching of Ristani et al.:
a bipartite assignment between ground-truth and predicted ids over the whole
sequence that minimizes the per-frame misses, which is the one that maximizes
the frames where paired ids' boxes match.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .ingest import Detection, iou, read_csv_rows

# id -> [(camera, frame, box), ...]
TrajectorySet = dict[int, list[tuple[str, int, Detection]]]

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


def _by_frame(traj: TrajectorySet) -> dict[tuple[str, int], dict[int, Detection]]:
    """Pivot id-major trajectories into per-(camera, frame) id->box maps."""
    frames: dict[tuple[str, int], dict[int, Detection]] = {}
    for tid, entries in traj.items():
        for camera, frame, box in entries:
            slot = frames.setdefault((camera, frame), {})
            if tid in slot:
                raise ValueError(
                    f"id {tid} appears twice in camera {camera!r} frame {frame}"
                )
            slot[tid] = box
    return frames


def _match_frame(
    gt_ids, pred_ids, ious: dict[tuple[int, int], float], carried: dict[int, int], thresh: float
) -> dict[int, int]:
    """One frame of CLEAR matching: keep carried pairs still valid, then Hungarian.

    ``ious`` holds the IoU of every (ground truth, prediction) pair of the
    frame, so a carried pair counts only when both ids are in the frame.
    """
    matches: dict[int, int] = {}
    used_pred = set()
    for gid, pid in carried.items():
        if (gid, pid) in ious and ious[gid, pid] >= thresh:
            matches[gid] = pid
            used_pred.add(pid)

    free_gt = sorted(g for g in gt_ids if g not in matches)
    free_pred = sorted(p for p in pred_ids if p not in used_pred)
    if free_gt and free_pred:
        cost = np.array([[1.0 - ious[gid, pid] for pid in free_pred] for gid in free_gt])
        # A pair with IoU below the threshold costs 1e5, as an infeasible pair
        # does in the tracker, so no valid match is given up to lower the
        # total 1 - IoU.
        rows, cols = linear_sum_assignment(np.where(cost > 1.0 - thresh, 1e5, cost))
        for i, j in zip(rows, cols):
            if cost[i, j] <= 1.0 - thresh:
                matches[free_gt[i]] = free_pred[j]
    return matches


def evaluate_mota(
    gt: TrajectorySet, pred: TrajectorySet, iou_thresh: float = IOU_THRESHOLD
) -> MotSummary:
    """Full summary: CLEAR counts (FP/FN/switches/MOTA) plus identity scores.

    One walk over the camera frames scores every (ground truth, prediction)
    pair of a frame once; the CLEAR matching and the identity overlap counts
    both read that score.  Matching carries over frame to frame per camera;
    an id switch is counted when a ground-truth id is matched to a different
    prediction than its last known one.  MOTA = 1 − (FP + FN + IDSW) / num_gt.
    """
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    keys = sorted(set(gt_frames) | set(pred_frames))

    fp = fn = idsw = num_gt = 0
    carried: dict[str, dict[int, int]] = {}
    last_known: dict[tuple[str, int], int] = {}
    overlap: dict[tuple[int, int], int] = {}  # frames where the pair has IoU >= iou_thresh
    for key in keys:
        camera, _ = key
        gt_boxes = gt_frames.get(key, {})
        pred_boxes = pred_frames.get(key, {})
        ious = {}
        for gid, gt_box in gt_boxes.items():
            for pid, pred_box in pred_boxes.items():
                score = ious[gid, pid] = iou(gt_box, pred_box)
                if score >= iou_thresh:
                    overlap[gid, pid] = overlap.get((gid, pid), 0) + 1
        matches = _match_frame(gt_boxes, pred_boxes, ious, carried.get(camera, {}), iou_thresh)
        for gid, pid in matches.items():
            prev = last_known.get((camera, gid))
            if prev is not None and prev != pid:
                idsw += 1
            last_known[(camera, gid)] = pid
        fp += len(pred_boxes) - len(matches)
        fn += len(gt_boxes) - len(matches)
        num_gt += len(gt_boxes)
        carried[camera] = matches

    if num_gt > 0:
        mota = 1.0 - (fp + fn + idsw) / num_gt
    else:
        mota = 1.0 if fp == 0 else 0.0

    idp, idr, idf1, idtp, idfp, idfn = _identity_counts(gt, pred, overlap)
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
    gt: TrajectorySet, pred: TrajectorySet, iou_thresh: float = IOU_THRESHOLD
) -> tuple[float, float, float]:
    """(IDP, IDR, IDF1) under the optimal global id correspondence."""
    summary = evaluate_mota(gt, pred, iou_thresh)
    return summary.idp, summary.idr, summary.idf1


def _identity_counts(gt: TrajectorySet, pred: TrajectorySet, pair_overlap: dict):
    """Identity counts; ``pair_overlap`` maps a (ground truth, prediction) id
    pair to the number of camera frames where their boxes match."""
    total_gt = sum(len(entries) for entries in gt.values())
    total_pred = sum(len(entries) for entries in pred.values())
    gt_index = {g: i for i, g in enumerate(gt)}
    pred_index = {p: j for j, p in enumerate(pred)}
    overlap = np.zeros((len(gt), len(pred)), dtype=int)
    for (g, p), count in pair_overlap.items():
        overlap[gt_index[g], pred_index[p]] = count

    # Ristani et al.'s padded min-cost problem costs total_gt + total_pred -
    # 2 IDTP, so its optimum is the largest total overlap of one-to-one pairs.
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = int(overlap[rows, cols].sum())
    idp = idtp / total_pred if total_pred else 0.0
    idr = idtp / total_gt if total_gt else 0.0
    idf1 = 2 * idtp / (total_gt + total_pred) if total_gt + total_pred else 0.0
    return idp, idr, idf1, idtp, total_pred - idtp, total_gt - idtp


def _read_trajectories(path, layout: str, parse) -> TrajectorySet:
    """Trajectories from the rows of a CSV file.

    ``parse`` maps a row to (camera, frame, id, box).  A row that does not
    parse, and a second row for one id in one camera frame, raise
    MalformedInput naming the file and line.
    """
    seen: set[tuple[str, int, int]] = set()

    def first_sighting(row):
        camera, frame, tid, det = parse(row)
        if (camera, frame, tid) in seen:
            raise ValueError(f"id {tid} already appears in this frame")
        seen.add((camera, frame, tid))
        return tid, (camera, frame, det)

    traj: TrajectorySet = {}
    for tid, entry in read_csv_rows(path, layout, first_sighting):
        traj.setdefault(tid, []).append(entry)
    return traj


def load_mot_trajectories(path, camera: str = "") -> TrajectorySet:
    """Read `frame,id,x,y,w,h,...` rows (MOTChallenge shape, 1-based or 0-based
    frames both fine — values are kept as written) for one camera."""

    def parse(row):
        x, y, w, h = map(float, row[2:6])
        return camera, int(row[0]), int(row[1]), Detection(x, y, x + w, y + h, alpha=1.0)

    return _read_trajectories(path, "frame,id,x,y,w,h", parse)


def write_mot_trajectories(path, rows) -> None:
    """Write (frame, id, box) rows, in the order given, as MOTChallenge
    `frame,id,x,y,w,h,1,class,1` lines."""
    with open(path, "w", newline="") as fh:
        for frame, tid, box in rows:
            fh.write(
                f"{frame},{tid},{box.x1:.4f},{box.y1:.4f},"
                f"{box.width:.4f},{box.height:.4f},1,{int(box.beta)},1\n"
            )


def load_global_trajectories(path) -> TrajectorySet:
    """Read `camera,frame,global_id,x,y,w,h` rows."""

    def parse(row):
        x, y, w, h = map(float, row[3:7])
        return row[0], int(row[1]), int(row[2]), Detection(x, y, x + w, y + h, alpha=1.0)

    return _read_trajectories(path, "camera,frame,global_id,x,y,w,h", parse)


def write_global_trajectories(path, traj: TrajectorySet) -> None:
    """Write `camera,frame,global_id,x,y,w,h` rows in deterministic order."""
    rows = [(cam, frame, gid, box) for gid, entries in traj.items() for cam, frame, box in entries]
    rows.sort(key=lambda r: r[:3])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for cam, frame, gid, box in rows:
            writer.writerow([cam, frame, gid, f"{box.x1:.4f}", f"{box.y1:.4f}",
                             f"{box.width:.4f}", f"{box.height:.4f}"])
