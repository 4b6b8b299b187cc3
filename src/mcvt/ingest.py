"""Detection records, confidence filtering and CSV input.

Detections arrive either from per-camera MOTChallenge-style CSV files
(``frame,id,x,y,w,h,conf,class`` with id == -1 for raw detections) or from the
scenario simulator.  Embeddings, when provided as files, are row-aligned with
the CSV (see :mod:`mcvt.reid` for the binary format).

Detections travel as columns, never as one object per row: a detection file
reads into one ``DetectionColumns`` (frame, corner box, confidence, class per
row) in one pass over its columns, and a ``FrameRecord`` holds one camera
frame's rows as array views.  ``Detection`` is the one-row form and the one
statement of the checks a row must pass; the column pass runs the same checks
on every row at once, and a file it rejects is read again row by row, so that
the error names the file and line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import MalformedInput


class VehicleClass(IntEnum):
    CAR = 1
    BUS = 2
    TRUCK = 3
    VAN = 4
    SUV = 5
    OTHER = 6

    @classmethod
    def from_value(cls, value) -> "VehicleClass":
        try:
            return cls(int(value))
        except ValueError:
            return cls.OTHER


@dataclass(frozen=True)
class Detection:
    """One per-frame vehicle observation: corner box, confidence, class label."""

    x1: float
    y1: float
    x2: float
    y2: float
    alpha: float
    beta: VehicleClass = VehicleClass.CAR

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x1, self.y1, self.x2, self.y2, self.alpha))):
            raise ValueError("detection fields must be finite")
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(f"degenerate box ({self.x1}, {self.y1}, {self.x2}, {self.y2})")
        if not math.isfinite((self.x2 - self.x1) * (self.y2 - self.y1)):  # the area
            raise ValueError(f"box ({self.x1}, {self.y1}, {self.x2}, {self.y2}) has no finite area")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"confidence {self.alpha} outside [0, 1]")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height


def rejected_boxes(boxes: np.ndarray) -> np.ndarray:
    """Mask of the (n, 4) corner boxes that ``Detection`` rejects: its box
    checks (finite corners, x2 > x1 and y2 > y1, a finite area) on every
    row at once."""
    with np.errstate(over="ignore", invalid="ignore"):
        size = boxes[:, 2:] - boxes[:, :2]
        return ~(np.isfinite(boxes).all(axis=1) & (boxes[:, 2:] > boxes[:, :2]).all(axis=1)
                 & np.isfinite(size[:, 0] * size[:, 1]))


@dataclass(frozen=True, eq=False)
class DetectionColumns:
    """Detection rows as columns, in file order.

    Row i is a detection at frame ``frames[i]`` with corner box ``boxes[i]`` =
    (x1, y1, x2, y2), confidence ``alpha[i]`` and ``VehicleClass`` value
    ``beta[i]``.
    """

    frames: np.ndarray  # (n,) int64
    boxes: np.ndarray  # (n, 4) float64
    alpha: np.ndarray  # (n,) float64
    beta: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.alpha)


@dataclass
class FrameRecord:
    """All detections of one camera frame as aligned rows, with optional
    per-detection embeddings."""

    camera: str
    frame_index: int
    boxes: np.ndarray  # (n, 4) float64 corner boxes
    alpha: np.ndarray  # (n,) confidences
    beta: np.ndarray  # (n,) int64 VehicleClass values
    embeddings: np.ndarray | None = None  # (n, D), unit rows

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be >= 0")
        n = len(self.alpha)
        if len(self.boxes) != n or len(self.beta) != n:
            raise ValueError(f"{len(self.boxes)} boxes, {n} confidences and "
                             f"{len(self.beta)} classes")
        if self.embeddings is not None and len(self.embeddings) != n:
            raise ValueError(f"{len(self.embeddings)} embeddings for {n} detections")

    @property
    def detections(self) -> list[Detection]:
        """The rows as ``Detection`` objects; the tracker reads the columns."""
        rows = zip(self.boxes.tolist(), self.alpha.tolist(), self.beta.tolist())
        return [Detection(*box, alpha, VehicleClass(beta)) for box, alpha, beta in rows]

    def select(self, indices) -> "FrameRecord":
        """New record restricted to the given detection indices (order kept)."""
        emb = self.embeddings[indices] if self.embeddings is not None else None
        return FrameRecord(self.camera, self.frame_index, self.boxes[indices],
                           self.alpha[indices], self.beta[indices], emb)


def filter_confidence_indices(alpha: np.ndarray, alpha_min: float) -> list[int]:
    """Indices of the confidences >= alpha_min, in input order.

    A camera frame holds a handful of rows, for which a list comprehension
    is several times faster than ``np.flatnonzero``."""
    return [i for i, a in enumerate(alpha.tolist()) if a >= alpha_min]


def iou(a: Detection, b: Detection) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of corresponding corner boxes of two (..., 4) arrays, broadcast together.

    Same float operations in the same order as ``iou``, so every entry equals
    ``iou`` of the pair exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    overlap = (ix > 0.0) & (iy > 0.0)
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return np.divide(inter, area_a + area_b - inter, out=np.zeros(inter.shape), where=overlap)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of (T, 4) against (N, 4) corner boxes: (T, N), entry for entry ``iou``."""
    return iou_pairs(np.asarray(a, dtype=float)[:, None], np.asarray(b, dtype=float)[None])


def read_csv_rows(path, what: str, parse):
    """Yield ``parse(row)`` for every row of a CSV file but blank and ``#`` rows.

    This is the one reader of outside CSV input.  A row that ``parse`` rejects
    with IndexError, TypeError or ValueError, and a file that is not text or
    not CSV, raise MalformedInput naming the file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if not row or row[0].startswith("#"):
                    continue
                try:
                    item = parse(row)
                except (IndexError, TypeError, ValueError) as exc:
                    raise MalformedInput(
                        f"{path}, line {reader.line_num}: bad {what} row {','.join(row)!r} ({exc})"
                    ) from None
                yield item
        except (csv.Error, UnicodeDecodeError) as exc:
            raise MalformedInput(f"{path}, after line {reader.line_num}: {exc}") from None


def read_detection_csv(path) -> DetectionColumns:
    """Read a per-camera detection CSV into columns, rows in file order.

    Row layout is ``frame,id,x,y,w,h,conf,class`` with x, y the top-left
    corner; conf defaults to 1.0 and class to CAR, and a class that is not
    one of 1..6 reads as OTHER.  Rows must come in frame order and keep file
    order within a frame, so embedding files stay aligned.  A row that does
    not parse or that ``Detection`` rejects, and a row of a lower frame than
    the row before it, raise MalformedInput naming the file and line.
    ``frames`` is int64, or of Python ints when a frame does not fit in 64
    bits; no clip holds such a frame.
    """
    try:
        return _read_detection_columns(path)
    except (ValueError, OverflowError, csv.Error):
        return _read_detection_rows(path)


def _read_detection_columns(path) -> DetectionColumns:
    """The rows of a detection CSV, each column parsed as a whole.

    A field that does not parse, a short row, a frame that does not fit in
    int64, a lower frame after a higher one and a row ``Detection`` rejects
    raise ValueError or OverflowError; a file that is not text or not CSV
    raises what ``csv`` raises.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    columns = list(islice(zip(*rows), 8))  # as many as the shortest row has
    if rows and len(columns) < 6:
        raise ValueError("a short row")

    def column(k: int, default: str):
        if k < len(columns):
            return columns[k]
        return [row[k] if len(row) > k else default for row in rows]

    n = len(rows)
    frames = np.fromiter(map(int, column(0, "")), np.int64, n)
    if np.any(frames[1:] < frames[:-1]):
        raise ValueError("a lower frame after a higher one")
    x, y, w, h, alpha = (np.fromiter(map(float, column(k, "1.0")), float, n) for k in range(2, 7))
    with np.errstate(over="ignore", invalid="ignore"):
        boxes = np.stack([x, y, x + w, y + h], axis=1).reshape(-1, 4)
    if rejected_boxes(boxes).any() or not ((alpha >= 0.0) & (alpha <= 1.0)).all():
        raise ValueError("a row that Detection rejects")
    classes = column(7, "1")
    value = {text: int(VehicleClass.from_value(text)) for text in set(classes)}
    return DetectionColumns(frames, boxes, alpha, np.fromiter(map(value.get, classes), np.int64, n))


def _read_detection_rows(path) -> DetectionColumns:
    """The rows of a detection CSV, parsed and checked one by one through
    ``read_csv_rows`` and ``Detection``, so that an error names the line."""
    frames: list[int] = []

    def parse(row) -> Detection:
        frame = int(row[0])
        if frames and frame < frames[-1]:
            raise ValueError(f"frame {frame} after frame {frames[-1]}")
        x, y, w, h = map(float, row[2:6])
        conf = float(row[6]) if len(row) > 6 else 1.0
        beta = VehicleClass.from_value(row[7]) if len(row) > 7 else VehicleClass.CAR
        det = Detection(x1=x, y1=y, x2=x + w, y2=y + h, alpha=conf, beta=beta)
        frames.append(frame)
        return det

    dets = list(read_csv_rows(path, "detection", parse))
    return DetectionColumns(
        np.array(frames, dtype=np.int64 if all(-(2**63) <= f < 2**63 for f in frames) else object),
        np.array([(d.x1, d.y1, d.x2, d.y2) for d in dets], dtype=float).reshape(-1, 4),
        np.array([d.alpha for d in dets], dtype=float),
        np.array([int(d.beta) for d in dets], dtype=np.int64),
    )


def box_text(boxes: np.ndarray) -> list[str]:
    """Each (x1, y1, x2, y2) row of (n, 4) corner boxes as ``x,y,w,h`` text
    with four decimals, width x2 - x1 and height y2 - y1."""
    x1, y1, x2, y2 = np.asarray(boxes, dtype=float).reshape(-1, 4).T
    return ["%.4f,%.4f,%.4f,%.4f" % row
            for row in zip(x1.tolist(), y1.tolist(), (x2 - x1).tolist(), (y2 - y1).tolist())]


def write_detection_csv(path, columns: DetectionColumns) -> None:
    """Write ``frame,-1,x,y,w,h,conf,class`` rows in column order, CSV line ends."""
    rows = zip(columns.frames.tolist(), box_text(columns.boxes), columns.alpha.tolist(),
               columns.beta.tolist())
    with open(Path(path), "w", newline="") as fh:
        fh.writelines(f"{frame},-1,{box},{alpha:.4f},{beta}\r\n"
                      for frame, box, alpha, beta in rows)
