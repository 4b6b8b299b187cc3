"""Single-camera tracking: gated appearance + IoU association and track lifecycle.

A DeepSORT-style tracker over the bottom-center state space of
:mod:`mcvt.kalman`.  Confirmed tracks are matched through an appearance
cascade (recent-feature gallery, Mahalanobis gating, Hungarian assignment per
miss-age group); leftovers and tentative tracks fall through to IoU matching.
Tracks that stay unmatched longer than ``max_age`` frames are concluded and
summarized into a single embedding plus start/end time-location metadata for
the multi-camera stage.

One tick of many cameras is stepped as one batch (:func:`step_cameras`): one
stacked Kalman predict over every live track of every camera, one stacked
projection and Cholesky over the confirmed tracks that meet detections, and
one stacked update over every matched track.  Matching stays per camera:
each camera frame is scored in one pass, with one appearance matrix over the
concatenated galleries of its confirmed tracks, one gating matrix from its
rows of the tick's Cholesky factors and one IoU matrix; every cascade group
slices its rows and the still-free detection columns out of the frame's
matrix.  ``SingleCameraTracker.step`` is the one-camera form.  A track keeps
its frame-level features in one growing array; its gallery is a view of the
last ``gallery_budget`` rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import kalman
from .errors import EmptyGallery, HorizonPoint, MalformedInput, OutOfOrderFrame, check_settings
from .geo import GeoPoint, Homography, PixelPoint, pixel_to_geo
from .ingest import Detection, FrameRecord, VehicleClass, iou_matrix
from .kalman import KalmanState, observation_to_box, to_observation
from .reid import l2_normalize, temporal_aggregate

_INFEASIBLE = 1e5


class TrackStatus(Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"


@dataclass
class TrackerParams:
    n_init: int = 3
    max_age: int = 30
    matching_threshold: float = 0.3  # appearance cost gate
    iou_max_cost: float = 0.7
    gallery_budget: int = 100
    gating_threshold: float = kalman.GATING_THRESHOLD

    def __post_init__(self):
        check_settings(
            vars(self), n_init=(int, "[1, inf)"), max_age=(int, "[0, inf)"),
            gallery_budget=(int, "[1, inf)"), matching_threshold=(float, "[0, inf)"),
            iou_max_cost=(float, "[0, inf)"), gating_threshold=(float, "[0, inf)"),
        )


@dataclass
class SCTrack:
    """A live single-camera track.

    Its frame-level features are the first ``n_features`` rows of ``history``,
    an array that doubles its capacity when full.
    """

    track_id: int
    camera: str
    state: KalmanState
    status: TrackStatus = TrackStatus.TENTATIVE
    hits: int = 1
    time_since_update: int = 0
    boxes: list[tuple[int, Detection]] = field(default_factory=list)
    gallery_budget: int = TrackerParams.gallery_budget
    history: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    n_features: int = 0

    @property
    def features(self) -> np.ndarray:
        """Every feature of the track, oldest first: (n_features, D)."""
        return self.history[: self.n_features]

    @property
    def gallery(self) -> np.ndarray:
        """The last ``gallery_budget`` features, oldest first."""
        return self.history[max(0, self.n_features - self.gallery_budget) : self.n_features]

    def add_feature(self, embedding) -> None:
        if self.n_features == len(self.history):
            grown = np.empty((max(4, 2 * self.n_features), len(embedding)))
            if self.n_features:
                grown[: self.n_features] = self.features
            self.history = grown
        self.history[self.n_features] = embedding
        self.n_features += 1

    def predicted_box(self) -> tuple[float, float, float, float]:
        u, v, r, h = self.state.mean[:4]
        return observation_to_box(u, v, r, h)


@dataclass
class ConcludedTrack:
    """A finished single-camera track, summarized for cross-camera matching."""

    camera: str
    track_id: int
    embedding: np.ndarray  # unit vector
    t_s: float
    t_e: float
    l_s: GeoPoint
    l_e: GeoPoint
    class_label: VehicleClass
    boxes: list[tuple[int, Detection]]


def appearance_matrix(galleries, embeddings: np.ndarray) -> np.ndarray:
    """Appearance cost of N embeddings against T galleries: (T, N).

    Entry [t, n] is min over gallery t of (1 - <g, e_n>), from one product of
    the concatenated galleries with the (N, D) embeddings.  For unit vectors
    this equals min ||g - e||^2 / 2; candidates match when the cost is at most
    the 0.3 matching threshold.
    """
    sizes = [len(g) for g in galleries]
    if 0 in sizes:
        raise EmptyGallery("appearance cost needs a non-empty gallery")
    stacked = np.concatenate(galleries, dtype=float)
    offsets = np.cumsum([0] + sizes[:-1])
    return np.minimum.reduceat(1.0 - stacked @ np.asarray(embeddings).T, offsets, axis=0)


def appearance_cost(gallery, embedding: np.ndarray) -> float:
    """Smallest cosine-based cost of one embedding against one gallery.

    The one-pair form of ``appearance_matrix``.
    """
    return float(appearance_matrix([gallery], np.asarray(embedding)[None])[0, 0])


def _min_cost_matching(cost: np.ndarray, max_cost: float):
    """Hungarian assignment dropping pairs above max_cost.

    Returns the matches as (row, column) index pairs of the cost matrix.
    """
    bounded = np.where(cost > max_cost, _INFEASIBLE, cost)
    rows, cols = linear_sum_assignment(bounded)
    return [(int(r), int(c)) for r, c in zip(rows, cols) if cost[r, c] <= max_cost]


def associate(
    tracks: list[SCTrack],
    frame: FrameRecord,
    params: TrackerParams | None = None,
    gating=None,
):
    """Two-stage detection-to-track association for one frame.

    Stage 1 runs the matching cascade over confirmed tracks grouped by
    ascending time_since_update: appearance cost with Mahalanobis gating,
    Hungarian per group.  Stage 2 matches all remaining tracks (tentative
    included) to remaining detections by IoU cost.  Each stage builds its
    cost matrix once per frame (one ``appearance_matrix``, one
    ``kalman.mahalanobis_matrix``, one ``iou_matrix``); each cascade group and
    the IoU stage match their rows over the columns a mask still marks free.
    ``gating`` is the ``kalman.innovation_factors`` pair of the confirmed
    tracks, in track order; by default it is computed here.  Returns
    (matches, unmatched_track_indices, unmatched_detection_indices) with
    matches as (track_index, detection_index) pairs.
    """
    params = params or TrackerParams()
    n_det = len(frame.detections)
    if n_det and frame.embeddings is None:
        raise ValueError("frame detections must carry embeddings for association")

    confirmed = [i for i, t in enumerate(tracks) if t.status is TrackStatus.CONFIRMED]
    others = [i for i, t in enumerate(tracks) if t.status is not TrackStatus.CONFIRMED]
    boxes = np.array([(d.x1, d.y1, d.x2, d.y2) for d in frame.detections]).reshape(n_det, 4)

    matches: list[tuple[int, int]] = []
    free = np.ones(n_det, dtype=bool)

    def match(rows: list[int], cost: np.ndarray, max_cost: float) -> None:
        """Hungarian of the rows' costs over the free detections, then take the matched ones."""
        cols = free.nonzero()[0]
        for r, c in _min_cost_matching(cost[:, cols], max_cost):
            matches.append((rows[r], int(cols[c])))
            free[cols[c]] = False

    # Stage 1: appearance cascade, youngest miss-age first.
    if confirmed and n_det:
        if gating is None:
            gating = kalman.innovation_factors(
                *kalman.stack_states(tracks[i].state for i in confirmed)
            )
        cost = appearance_matrix([tracks[i].gallery for i in confirmed], frame.embeddings)
        gate = kalman.mahalanobis_matrix(gating, kalman.box_observations(boxes))
        cost[gate > params.gating_threshold] = _INFEASIBLE
        ages = np.array([tracks[i].time_since_update for i in confirmed])
        for age in np.unique(ages):
            group = np.flatnonzero(ages == age)
            match([confirmed[g] for g in group], cost[group], params.matching_threshold)

    # Stage 2: IoU assignment for everything left, tentative tracks included.
    matched_tracks = {t for t, _ in matches}
    remaining = [i for i in confirmed if i not in matched_tracks] + others
    if remaining and free.any():
        # A predicted box with x2 <= x1 or y2 <= y1 overlaps nothing: cost 1.0.
        predicted = np.array([tracks[i].predicted_box() for i in remaining])
        match(remaining, 1.0 - iou_matrix(predicted, boxes), params.iou_max_cost)

    matched_tracks = {t for t, _ in matches}
    unmatched_tracks = [i for i in range(len(tracks)) if i not in matched_tracks]
    return sorted(matches), unmatched_tracks, free.nonzero()[0].tolist()


def majority_class(boxes: list[tuple[int, Detection]]) -> VehicleClass:
    """Most frequent per-frame label; ties go to the first seen (boxes come in frame order)."""
    return Counter(d.beta for _, d in boxes).most_common(1)[0][0]


class SingleCameraTracker:
    """Owns all live tracks of one camera; one step per arriving frame.

    ``aggregator`` turns the (L, D) matrix of a track's frame-level features
    into its single unit embedding; the default is the uniform temporal
    aggregate (plain normalized mean).

    Without a calibration homography a flat 1 microdegree-per-pixel chart is
    used (about 0.11 m per pixel), which keeps any realistic pixel coordinate
    inside the valid lat/lon ranges; a plain identity would push bottom edges
    beyond 90 "degrees" on a 720 px frame.
    """

    DEFAULT_CHART = [[1e-6, 0.0, 0.0], [0.0, 1e-6, 0.0], [0.0, 0.0, 1.0]]

    def __init__(
        self,
        camera: str,
        fps: float,
        homography: Homography | None = None,
        params: TrackerParams | None = None,
        aggregator=None,
    ):
        self.camera = camera
        self.fps = fps
        self.homography = homography or Homography(self.DEFAULT_CHART)
        self.params = params or TrackerParams()
        self.aggregator = aggregator or (lambda rows: temporal_aggregate(rows))
        self.tracks: list[SCTrack] = []
        self._next_id = 1
        self._last_frame: int | None = None

    def step(self, frame: FrameRecord) -> tuple[list[SCTrack], list[ConcludedTrack]]:
        """Advance one frame: the one-camera form of ``step_cameras``.

        Returns the active tracks and any tracks concluded this step.  Frames
        must arrive with strictly increasing frame_index (gaps allowed).
        """
        return step_cameras([(self, frame)])[0]

    def finish(self) -> list[ConcludedTrack]:
        """End of stream: conclude all confirmed tracks, drop tentative ones."""
        concluded = [
            self._conclude(t) for t in self.tracks if t.status is TrackStatus.CONFIRMED
        ]
        self.tracks = []
        return concluded

    def _check_order(self, frame: FrameRecord) -> None:
        if self._last_frame is not None and frame.frame_index <= self._last_frame:
            raise OutOfOrderFrame(
                f"camera {self.camera}: frame {frame.frame_index} after {self._last_frame}"
            )

    def _close_step(
        self, frame: FrameRecord, matched: set[int], unmatched_dets: list[int]
    ) -> tuple[list[SCTrack], list[ConcludedTrack]]:
        """Lifecycle after the updates: drop, conclude, keep, then initiate."""
        concluded: list[ConcludedTrack] = []
        survivors: list[SCTrack] = []
        for i, track in enumerate(self.tracks):
            if i in matched:
                survivors.append(track)
                continue
            if track.status is TrackStatus.TENTATIVE:
                continue  # missed before confirmation
            if track.time_since_update > self.params.max_age:
                concluded.append(self._conclude(track))
            else:
                survivors.append(track)
        self.tracks = survivors

        for di in unmatched_dets:
            self.tracks.append(self._initiate(frame, di))

        return self.tracks, concluded

    def _initiate(self, frame: FrameRecord, di: int) -> SCTrack:
        det = frame.detections[di]
        track = SCTrack(
            track_id=self._next_id,
            camera=self.camera,
            state=kalman.kf_initiate(to_observation(det)),
            boxes=[(frame.frame_index, det)],
            gallery_budget=self.params.gallery_budget,
        )
        self._next_id += 1
        track.add_feature(frame.embeddings[di])
        return track

    def _record_match(self, track: SCTrack, frame: FrameRecord, di: int) -> None:
        """Bookkeeping of a matched track whose state is already updated."""
        track.boxes.append((frame.frame_index, frame.detections[di]))
        track.add_feature(frame.embeddings[di])
        track.hits += 1
        track.time_since_update = 0
        if track.status is TrackStatus.TENTATIVE and track.hits >= self.params.n_init:
            track.status = TrackStatus.CONFIRMED

    def _conclude(self, track: SCTrack) -> ConcludedTrack:
        embedding = l2_normalize(self.aggregator(track.features))
        first_frame, first_det = track.boxes[0]
        last_frame, last_det = track.boxes[-1]

        def bottom_center(det: Detection) -> GeoPoint:
            pixel = PixelPoint((det.x1 + det.x2) / 2.0, det.y2)
            try:
                return pixel_to_geo(self.homography, pixel)
            except (ValueError, HorizonPoint) as exc:
                raise MalformedInput(f"camera {self.camera}: its homography gives no geo point "
                                     f"for {pixel}: {exc}") from None

        return ConcludedTrack(
            camera=track.camera,
            track_id=track.track_id,
            embedding=embedding,
            t_s=first_frame / self.fps,
            t_e=last_frame / self.fps,
            l_s=bottom_center(first_det),
            l_e=bottom_center(last_det),
            class_label=majority_class(track.boxes),
            boxes=list(track.boxes),
        )


def step_cameras(
    pairs: list[tuple[SingleCameraTracker, FrameRecord]],
) -> list[tuple[list[SCTrack], list[ConcludedTrack]]]:
    """Advance each (tracker, frame) pair one frame, every camera in one batch.

    Every frame's order is checked, and a tracker given twice is rejected,
    before any state changes.  Then one stacked ``kalman.predict_many`` runs
    over every live track of every camera, and one ``innovation_factors``
    over the confirmed tracks of the cameras whose frame has detections; each
    camera's rows of it gate that camera's ``associate``.  Matching stays per
    camera.  One stacked ``kalman.update_many`` then updates every matched
    track of every camera before each camera's lifecycle runs.  Returns one
    (active tracks, concluded tracks) pair per input pair, in input order.
    """
    trackers = [tracker for tracker, _ in pairs]
    if len({id(tracker) for tracker in trackers}) != len(trackers):
        raise ValueError("a tracker appears twice in one step")
    for tracker, frame in pairs:
        tracker._check_order(frame)
    for tracker, frame in pairs:
        tracker._last_frame = frame.frame_index

    live = [track for tracker in trackers for track in tracker.tracks]
    if live:
        means, covs = kalman.predict_many(*kalman.stack_states(track.state for track in live))
        for track, mean, cov in zip(live, means, covs):
            track.state = KalmanState(mean=mean, cov=cov)
            track.time_since_update += 1

    gated = [
        [t for t in tracker.tracks if t.status is TrackStatus.CONFIRMED] if frame.detections else []
        for tracker, frame in pairs
    ]
    bounds = np.cumsum([0] + [len(tracks) for tracks in gated])
    factors = None
    if bounds[-1]:
        factors = kalman.innovation_factors(
            *kalman.stack_states(t.state for tracks in gated for t in tracks)
        )

    associations = []
    updates: list[tuple[SingleCameraTracker, FrameRecord, SCTrack, int]] = []
    for (tracker, frame), lo, hi in zip(pairs, bounds[:-1], bounds[1:]):
        gating = None if factors is None else (factors[0][lo:hi], factors[1][lo:hi])
        matches, _, unmatched_dets = associate(tracker.tracks, frame, tracker.params, gating)
        associations.append(({ti for ti, _ in matches}, unmatched_dets))
        updates.extend((tracker, frame, tracker.tracks[ti], di) for ti, di in matches)

    if updates:
        boxes = [frame.detections[di] for _, frame, _, di in updates]
        observations = kalman.box_observations([(d.x1, d.y1, d.x2, d.y2) for d in boxes])
        means, covs = kalman.update_many(
            *kalman.stack_states(track.state for _, _, track, _ in updates), observations
        )
        for (tracker, frame, track, di), mean, cov in zip(updates, means, covs):
            track.state = KalmanState(mean=mean, cov=cov)
            tracker._record_match(track, frame, di)

    return [
        tracker._close_step(frame, matched, unmatched_dets)
        for (tracker, frame), (matched, unmatched_dets) in zip(pairs, associations)
    ]
