"""Detection records, confidence filtering and CSV input.

Detections arrive either from per-camera MOTChallenge-style CSV files
(``frame,id,x,y,w,h,conf,class`` with id == -1 for raw detections) or from the
scenario simulator.  Embeddings, when provided as files, are row-aligned with
the CSV (see :mod:`mcvt.reid` for the binary format).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import IntEnum
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


@dataclass
class FrameRecord:
    """All detections of one camera frame, with optional per-detection embeddings."""

    camera: str
    frame_index: int
    detections: list[Detection] = field(default_factory=list)
    embeddings: np.ndarray | None = None  # (n_detections, D), unit rows

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be >= 0")
        if self.embeddings is not None and len(self.embeddings) != len(self.detections):
            raise ValueError(
                f"{len(self.embeddings)} embeddings for {len(self.detections)} detections"
            )

    def select(self, indices) -> "FrameRecord":
        """New record restricted to the given detection indices (order kept)."""
        dets = [self.detections[i] for i in indices]
        emb = self.embeddings[list(indices)] if self.embeddings is not None else None
        return FrameRecord(self.camera, self.frame_index, dets, emb)


def filter_confidence_indices(dets: list[Detection], alpha_min: float) -> list[int]:
    """Indices of detections with alpha >= alpha_min, in input order."""
    return [i for i, d in enumerate(dets) if d.alpha >= alpha_min]


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


def read_detection_csv(path) -> dict[int, list[Detection]]:
    """Read a per-camera detection CSV into frame_index -> detections.

    Row layout is ``frame,id,x,y,w,h,conf,class`` with x, y the top-left
    corner.  Rows must come in frame order and keep file order within a
    frame, so embedding files stay aligned.  A row that does not parse, and a
    row of a lower frame than the row before it, raise MalformedInput naming
    the file and line.
    """
    frames: dict[int, list[Detection]] = {}

    def parse(row) -> tuple[int, Detection]:
        frame = int(row[0])
        if frames and frame < (last := next(reversed(frames))):  # the previous row's frame
            raise ValueError(f"frame {frame} after frame {last}")
        x, y, w, h = map(float, row[2:6])
        conf = float(row[6]) if len(row) > 6 else 1.0
        beta = VehicleClass.from_value(row[7]) if len(row) > 7 else VehicleClass.CAR
        return frame, Detection(x1=x, y1=y, x2=x + w, y2=y + h, alpha=conf, beta=beta)

    for frame, det in read_csv_rows(path, "detection", parse):
        frames.setdefault(frame, []).append(det)
    return frames


def write_detection_csv(path, frames: dict[int, list[Detection]]) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for frame in sorted(frames):
            for d in frames[frame]:
                writer.writerow(
                    [frame, -1, f"{d.x1:.4f}", f"{d.y1:.4f}", f"{d.width:.4f}",
                     f"{d.height:.4f}", f"{d.alpha:.4f}", int(d.beta)]
                )
