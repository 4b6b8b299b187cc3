"""Single-camera tracking: gated appearance + IoU association and track lifecycle.

A DeepSORT-style tracker over the bottom-center state space of
:mod:`mcvt.kalman`.  Confirmed tracks are matched through an appearance
cascade (recent-feature gallery, Mahalanobis gating, Hungarian assignment per
miss-age group); leftovers and tentative tracks fall through to IoU matching.
Tracks that stay unmatched longer than ``max_age`` frames are concluded and
summarized into a single embedding plus start/end time-location metadata for
the multi-camera stage.

One tick of many cameras is stepped as one batch (:func:`step_cameras`): one
stacked Kalman predict over every live track of every camera, one tick pass
of association, and one stacked update over every matched track.  The tick
pass builds every camera's costs at once (``_TickCosts``): one box array and
one ``box_observations`` for every detection of the tick, the predicted boxes
from the stacked means, one element-wise IoU over every same-camera (track,
detection) pair, one Cholesky over the confirmed tracks that meet detections
with one Mahalanobis solve per distinct detection count, and one appearance
matrix per camera.  It then decides each stage, the cascade and then the
IoU stage, for most cameras from the feasibility masks alone (``_settled``):
where every track has at most one feasible detection and every detection at
most one feasible track, Hungarian would return exactly the feasible pairs,
because infeasible entries cost 1e5 and feasible ones lie in [-2, 2].  Only
a camera whose feasible pairs of a stage conflict, or that holds a NaN cost
there, runs Hungarian for that stage (``_match_free``): one matching per
cascade group, or one for its IoU stage.  ``associate`` and
``SingleCameraTracker.step`` are the one-camera forms.

Detections stay columns throughout: the tick reads every frame's box array,
and a track records each matched detection as one ``TRACK_ROW`` (frame,
corner box, class) in a growing array, with its frame-level features in
another; its gallery is a view of the last ``gallery_budget`` feature rows.
A concluded track hands its rows on as one array, which the output writers
read as columns.
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
from .ingest import FrameRecord, VehicleClass, iou_pairs
from .kalman import KalmanState, observation_to_box
from .reid import l2_normalize, temporal_aggregate

_INFEASIBLE = 1e5
# One matched detection of a track: its frame, corner box and VehicleClass value.
TRACK_ROW = np.dtype([("frame", np.int64), ("box", np.float64, (4,)), ("beta", np.int64)])


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

    Its matched detections are the first ``n_rows`` entries of ``rows`` and
    its frame-level features the first ``n_features`` rows of ``history``;
    each array doubles its capacity when full.
    """

    track_id: int
    camera: str
    state: KalmanState
    status: TrackStatus = TrackStatus.TENTATIVE
    hits: int = 1
    time_since_update: int = 0
    gallery_budget: int = TrackerParams.gallery_budget
    history: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    n_features: int = 0
    rows: np.ndarray = field(init=False, default_factory=lambda: np.empty(0, TRACK_ROW))
    n_rows: int = field(init=False, default=0)

    @property
    def boxes(self) -> np.ndarray:
        """Every matched detection of the track, oldest first: ``TRACK_ROW`` entries."""
        return self.rows[: self.n_rows]

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

    def add_row(self, row) -> None:
        """Record one matched detection, a ``TRACK_ROW`` entry."""
        if self.n_rows == len(self.rows):
            grown = np.empty(max(4, 2 * self.n_rows), TRACK_ROW)
            grown[: self.n_rows] = self.boxes
            self.rows = grown
        self.rows[self.n_rows] = row
        self.n_rows += 1


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
    boxes: np.ndarray  # TRACK_ROW entries, one per matched frame; a sequence of them is converted

    def __post_init__(self):
        self.boxes = np.asarray(self.boxes, dtype=TRACK_ROW)


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


def _settled(cost, max_cost, rows, cols, n_rows: int, n_cols: int):
    """Split one matching stage's entries into those the feasibility mask decides.

    Entry k of the flat ``cost`` sits at (rows[k], cols[k]) and is feasible
    when cost[k] <= max_cost[k].  Returns (feasible, unsettled) masks.  An
    entry is unsettled if it is feasible and shares its row or its column with
    another feasible entry, if it is NaN (Hungarian refuses it), or if it is
    feasible outside [-2, 2], the cost range of unit embeddings and of 1 - IoU.

    A matrix with no unsettled entry is matched by ``_min_cost_matching`` to
    exactly its feasible entries, whatever the solver does with ties: every
    other entry costs ``_INFEASIBLE`` there, so an assignment that leaves out
    a feasible (r, c) pays that for the entries it gives r and c instead, and
    taking (r, c) while pairing their two former partners costs less.
    """
    feasible = cost <= max_cost
    row_hits = np.bincount(rows[feasible], minlength=n_rows)
    col_hits = np.bincount(cols[feasible], minlength=n_cols)
    unsettled = feasible & ((row_hits[rows] > 1) | (col_hits[cols] > 1))
    unsettled |= ~((cost > max_cost) | (np.abs(cost) <= 2.0))
    return feasible, unsettled


def _offsets(counts) -> np.ndarray:
    """Start offsets of consecutive runs of the given lengths, then their total."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


class _TickCosts:
    """The association costs of one tick's cameras, built in one pass, and
    the tick's detections: ``observations`` and ``rows`` (``TRACK_ROW``).

    ``cameras`` holds one (tracks, frame, params) triple per camera;
    ``means`` and ``covs`` stack the states of every camera's tracks, camera
    by camera.  Tracks and detections are numbered across the tick in that
    order.  ``iou`` covers every same-camera (track, detection) pair, camera
    by camera and track-major, so a camera's IoU block is a reshape of its
    slice.  ``gate`` and ``appearance`` cover the confirmed tracks' pairs in
    the same order.  The gate takes one ``kalman.mahalanobis_matrix`` per
    distinct detection count: tracks are stacked, never padded, so each entry
    equals the one-camera matrix's.  The appearance takes one
    ``appearance_matrix`` per camera, of the same shape as a one-camera call.
    """

    def __init__(self, cameras, means: np.ndarray, covs: np.ndarray):
        frames = [frame for _, frame, _ in cameras]
        for frame in frames:
            if len(frame.alpha) and frame.embeddings is None:
                raise ValueError("frame detections must carry embeddings for association")
        camera_ids = np.arange(len(cameras))
        self.n_tracks = np.array([len(tracks) for tracks, _, _ in cameras], dtype=np.int64)
        self.n_dets = np.array([len(frame.alpha) for frame in frames], dtype=np.int64)
        self.track_off, self.det_off = _offsets(self.n_tracks), _offsets(self.n_dets)
        self.track_cam = np.repeat(camera_ids, self.n_tracks)
        confirmed = np.array(
            [t.status is TrackStatus.CONFIRMED for tracks, _, _ in cameras for t in tracks],
            dtype=bool,
        )
        self.n_confirmed = np.bincount(self.track_cam[confirmed], minlength=len(cameras))
        boxes = np.concatenate([np.empty((0, 4))] + [frame.boxes for frame in frames])
        self.observations = kalman.box_observations(boxes)
        self.rows = np.empty(len(boxes), TRACK_ROW)
        self.rows["frame"] = np.repeat([frame.frame_index for frame in frames], self.n_dets)
        self.rows["box"] = boxes
        self.rows["beta"] = np.concatenate([np.empty(0, np.int64)] + [f.beta for f in frames])

        per_camera = self.n_tracks * self.n_dets
        self.pair_off = _offsets(per_camera)
        self.pair_cam = np.repeat(camera_ids, per_camera)
        within = np.arange(self.pair_off[-1]) - self.pair_off[self.pair_cam]
        width = self.n_dets[self.pair_cam]
        self.pair_track = self.track_off[self.pair_cam] + within // width
        self.pair_det = self.det_off[self.pair_cam] + within % width
        # A predicted box with x2 <= x1 or y2 <= y1 overlaps nothing: IoU 0.
        predicted = np.stack(observation_to_box(*means[:, :4].T), axis=1)
        self.iou = iou_pairs(predicted[self.pair_track], boxes[self.pair_det])

        confirmed_pair = confirmed[self.pair_track]
        self.conf_off = _offsets(self.n_confirmed * self.n_dets)
        self.conf_cam = self.pair_cam[confirmed_pair]
        self.conf_track = self.pair_track[confirmed_pair]
        self.conf_det = self.pair_det[confirmed_pair]
        gated = np.flatnonzero(confirmed & (self.n_dets > 0)[self.track_cam])
        self.gate = np.empty(len(self.conf_track))
        if len(gated):
            gating = kalman.innovation_factors(means[gated], covs[gated])
            counts = self.n_dets[self.track_cam[gated]]
            starts = _offsets(counts)
            for n in np.unique(counts).tolist():
                rows = np.flatnonzero(counts == n)
                dets = self.det_off[self.track_cam[gated[rows]], None] + np.arange(n)
                self.gate[starts[rows, None] + np.arange(n)] = kalman.mahalanobis_matrix(
                    (gating[0][rows], gating[1][rows]), self.observations[dets]
                )
        self.appearance = np.concatenate([np.empty(0)] + [
            appearance_matrix(
                [t.gallery for t in tracks if t.status is TrackStatus.CONFIRMED], frame.embeddings
            ).ravel()
            for (tracks, frame, _), k, n in zip(cameras, self.n_confirmed, self.n_dets)
            if k and n
        ])

    def blocks(self, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Camera c's IoU block (its tracks x detections), and its gate and
        appearance blocks (its confirmed tracks x detections)."""
        n = self.n_dets[c]
        confirmed = slice(self.conf_off[c], self.conf_off[c + 1])
        return (
            self.iou[self.pair_off[c] : self.pair_off[c + 1]].reshape(self.n_tracks[c], n),
            self.gate[confirmed].reshape(self.n_confirmed[c], n),
            self.appearance[confirmed].reshape(self.n_confirmed[c], n),
        )


def _match_free(det_of, free, rows, cost, max_cost: float, det_off: int) -> None:
    """Hungarian of the rows' costs over their free columns, written into ``det_of``.

    Row r of ``cost`` is track rows[r] and column j is detection det_off + j of
    the tick; ``free`` flags the tick's unmatched detections."""
    cols = np.flatnonzero(free[det_off : det_off + cost.shape[1]])
    for r, j in _min_cost_matching(cost[:, cols], max_cost):
        det_of[rows[r]] = det_off + cols[j]
        free[det_off + cols[j]] = False


def _associate_tick(cameras, means: np.ndarray, covs: np.ndarray):
    """Two-stage association of every camera of a tick in one pass.

    Builds the tick's ``_TickCosts`` from the arguments, then decides each
    stage for every camera at once, each camera with its own
    ``TrackerParams``: first the cascade, whose feasible pairs have an
    appearance cost <= matching_threshold and a gate <= gating_threshold,
    then the IoU stage, whose feasible pairs have 1 - IoU <= iou_max_cost
    between a track and a detection that the cascade left unmatched.  A
    camera with no unsettled entry in a stage (``_settled``) takes exactly
    that stage's feasible pairs, which is what Hungarian would return, group
    by group: no detection is feasible for two tracks, so no cascade group
    takes another's column.  Every other camera runs Hungarian for that stage
    alone (``_match_free``), on its rows in DeepSORT's order over its free
    detections in ascending order: one matching per cascade group of
    confirmed tracks, by ascending time_since_update; in the IoU stage, its
    unmatched confirmed tracks and then its tentative ones.  Returns (costs,
    det_of, free): the detection matched to each track of the tick (-1 if
    none) and a mask of the unmatched detections, both numbered across the
    tick.
    """
    costs = _TickCosts(cameras, means, covs)
    n_tracks, n_dets = costs.track_off[-1], costs.det_off[-1]
    thresholds = np.array(
        [(p.gating_threshold, p.matching_threshold, p.iou_max_cost) for _, _, p in cameras]
    ).reshape(-1, 3)
    gate_max, match_max, iou_max = thresholds.T
    det_of = np.full(n_tracks, -1, dtype=np.int64)
    free = np.ones(n_dets, dtype=bool)

    def stage(cost, max_cost, rows, cols, cams, off, groups) -> None:
        """Match one stage, entries numbered camera by camera from ``off``,
        track-major; ``groups(c, tracks)`` orders camera c's block rows."""
        feasible, unsettled = _settled(cost, max_cost[cams], rows, cols, n_tracks, n_dets)
        conflicted = np.zeros(len(cameras), dtype=bool)
        conflicted[cams[unsettled]] = True
        feasible &= ~conflicted[cams]
        det_of[rows[feasible]] = cols[feasible]
        free[cols[feasible]] = False
        for c in np.flatnonzero(conflicted).tolist():
            entries, n = slice(off[c], off[c + 1]), costs.n_dets[c]
            block, tracks = cost[entries].reshape(-1, n), rows[entries][::n]
            for g in groups(c, tracks):
                _match_free(det_of, free, tracks[g], block[g], max_cost[c], costs.det_off[c])

    def cascade_groups(c, tracks):
        ages = np.array([cameras[c][0][t].time_since_update for t in tracks - costs.track_off[c]])
        return [np.flatnonzero(ages == age) for age in np.unique(ages)]

    def iou_groups(c, tracks):
        confirmed = np.array([t.status is TrackStatus.CONFIRMED for t in cameras[c][0]])
        return [np.concatenate((np.flatnonzero(confirmed & (det_of[tracks] < 0)),
                                np.flatnonzero(~confirmed)))]

    stage(np.where(costs.gate > gate_max[costs.conf_cam], _INFEASIBLE, costs.appearance),
          match_max, costs.conf_track, costs.conf_det, costs.conf_cam, costs.conf_off,
          cascade_groups)
    left = (det_of >= 0)[costs.pair_track] | ~free[costs.pair_det]
    stage(np.where(left, np.inf, 1.0 - costs.iou), iou_max, costs.pair_track, costs.pair_det,
          costs.pair_cam, costs.pair_off, iou_groups)
    return costs, det_of, free


def associate(
    tracks: list[SCTrack],
    frame: FrameRecord,
    params: TrackerParams | None = None,
):
    """Two-stage detection-to-track association for one frame.

    The one-camera call into the tick pass (``_associate_tick``).  Stage 1
    runs the matching cascade over confirmed tracks grouped by ascending
    time_since_update: appearance cost with Mahalanobis gating, Hungarian per
    group.  Stage 2 matches all remaining tracks (tentative included) to
    remaining detections by IoU cost.  Returns
    (matches, unmatched_track_indices, unmatched_detection_indices) with
    matches as (track_index, detection_index) pairs.
    """
    params = params or TrackerParams()
    states = kalman.stack_states(track.state for track in tracks)
    _, det_of, free = _associate_tick([(tracks, frame, params)], *states)
    matched = np.flatnonzero(det_of >= 0).tolist()
    return (
        list(zip(matched, det_of[matched].tolist())),
        np.flatnonzero(det_of < 0).tolist(),
        np.flatnonzero(free).tolist(),
    )


def majority_class(classes: np.ndarray) -> VehicleClass:
    """Most frequent of a track's per-frame class values; ties go to the first
    seen (the column comes in frame order)."""
    return VehicleClass(Counter(classes.tolist()).most_common(1)[0][0])


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
        self, frame: FrameRecord, matched: list[bool], unmatched_dets: list[int],
        costs: _TickCosts, det_off: int,
    ) -> tuple[list[SCTrack], list[ConcludedTrack]]:
        """Lifecycle after the updates: drop, conclude, keep, then initiate.

        ``matched`` flags each track of the step's start, in order; the frame's
        detection di is detection det_off + di of the tick's ``costs``."""
        concluded: list[ConcludedTrack] = []
        survivors: list[SCTrack] = []
        for track, was_matched in zip(self.tracks, matched):
            if was_matched:
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
            d = det_off + di
            self.tracks.append(
                self._initiate(costs.observations[d], costs.rows[d], frame.embeddings[di])
            )

        return self.tracks, concluded

    def _initiate(self, observation: np.ndarray, row, embedding: np.ndarray) -> SCTrack:
        """A new track from one detection: its (u, v, r, h) observation, its
        ``TRACK_ROW`` entry and its embedding."""
        track = SCTrack(
            track_id=self._next_id,
            camera=self.camera,
            state=kalman.kf_initiate(kalman.Observation(*observation.tolist())),
            gallery_budget=self.params.gallery_budget,
        )
        self._next_id += 1
        track.add_row(row)
        track.add_feature(embedding)
        return track

    def _record_match(self, track: SCTrack, row, embedding: np.ndarray) -> None:
        """Bookkeeping of a matched track whose state is already updated."""
        track.add_row(row)
        track.add_feature(embedding)
        track.hits += 1
        track.time_since_update = 0
        if track.status is TrackStatus.TENTATIVE and track.hits >= self.params.n_init:
            track.status = TrackStatus.CONFIRMED

    def _conclude(self, track: SCTrack) -> ConcludedTrack:
        embedding = l2_normalize(self.aggregator(track.features))
        rows = track.boxes
        first_frame, last_frame = int(rows["frame"][0]), int(rows["frame"][-1])

        def bottom_center(box: np.ndarray) -> GeoPoint:
            x1, _, x2, y2 = box.tolist()
            pixel = PixelPoint((x1 + x2) / 2.0, y2)
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
            l_s=bottom_center(rows["box"][0]),
            l_e=bottom_center(rows["box"][-1]),
            class_label=majority_class(rows["beta"]),
            boxes=rows,
        )


def step_cameras(
    pairs: list[tuple[SingleCameraTracker, FrameRecord]],
) -> list[tuple[list[SCTrack], list[ConcludedTrack]]]:
    """Advance each (tracker, frame) pair one frame, every camera in one batch.

    Every frame's order is checked, and a tracker given twice is rejected,
    before any state changes.  Then one stacked ``kalman.predict_many`` runs
    over every live track of every camera, and one tick pass
    (``_associate_tick``) matches every camera: one ``innovation_factors``
    over the confirmed tracks of the cameras whose frame has detections, one
    IoU over every same-camera pair, and Hungarian only for the stages whose
    feasible pairs conflict.  One stacked ``kalman.update_many`` then updates
    every matched track of every camera from the tick's box observations
    before each camera's lifecycle runs.  Returns one (active tracks,
    concluded tracks) pair per input pair, in input order.
    """
    trackers = [tracker for tracker, _ in pairs]
    if len({id(tracker) for tracker in trackers}) != len(trackers):
        raise ValueError("a tracker appears twice in one step")
    for tracker, frame in pairs:
        tracker._check_order(frame)
    for tracker, frame in pairs:
        tracker._last_frame = frame.frame_index

    live = [track for tracker in trackers for track in tracker.tracks]
    means, covs = kalman.stack_states(track.state for track in live)
    if live:
        means, covs = kalman.predict_many(means, covs)
        for track, mean, cov in zip(live, means, covs):
            track.state = KalmanState(mean=mean, cov=cov)
            track.time_since_update += 1

    costs, det_of, is_free = _associate_tick(
        [(tracker.tracks, frame, tracker.params) for tracker, frame in pairs], means, covs
    )
    is_matched = det_of >= 0
    matched = np.flatnonzero(is_matched)
    dets = det_of[matched]
    track_cam, det_off = costs.track_cam.tolist(), costs.det_off.tolist()
    if len(matched):
        means, covs = kalman.update_many(means[matched], covs[matched], costs.observations[dets])
        for ti, di, mean, cov in zip(matched.tolist(), dets.tolist(), means, covs):
            tracker, frame = pairs[track_cam[ti]]
            live[ti].state = KalmanState(mean=mean, cov=cov)
            tracker._record_match(
                live[ti], costs.rows[di], frame.embeddings[di - det_off[track_cam[ti]]]
            )

    track_off = costs.track_off.tolist()
    return [
        tracker._close_step(
            frame,
            is_matched[track_off[c] : track_off[c + 1]].tolist(),
            np.flatnonzero(is_free[det_off[c] : det_off[c + 1]]).tolist(),
            costs,
            det_off[c],
        )
        for c, (tracker, frame) in enumerate(pairs)
    ]
