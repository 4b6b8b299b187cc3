"""Deterministic synthetic traffic scenarios for desk-scale testing.

Generates vehicles driving through a chain (or grid) of cameras along
straight roads, projects their ground-contact points into each camera's image
through the camera homography, and renders noisy detection streams with
identity-clustered embeddings from a prototype oracle.  Everything is a pure
function of (seed, config): randomness uses counter-based Philox streams with
one stream per role and per (camera, frame), so parallel rendering cannot
change the output.

Geometry: cameras sit 150 m apart with 60 m-long non-overlapping viewports
(90 m blind gap between neighbours), roads carry one lane per direction
offset 2.5 m from the centerline, and the flat-earth conversion uses the
spherical meridian degree (~111,194.93 m) on both axes at latitude ~0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidLayout, MalformedInput, SettingError, check_settings
from .geo import (
    CameraInfo,
    GeoPoint,
    Homography,
    geo_to_pixel,
    make_topology,
    topology_from_dict,
    topology_to_dict,
)
from .ingest import (
    Detection,
    DetectionColumns,
    FrameRecord,
    VehicleClass,
    box_text,
    read_detection_csv,
    rejected_boxes,
    write_detection_csv,
)
from .metrics import Trajectories, load_mot_trajectories, write_mot_trajectories
from .reid import read_embeddings, write_embeddings

METERS_PER_DEGREE = math.pi * 6_371_000.0 / 180.0  # meridian degree, ~111194.93 m

CAM_SPACING_M = 150.0
VIEW_LENGTH_M = 60.0
VIEW_WIDTH_M = 12.0
ROW_SPACING_M = 600.0  # grid layout: latitude gap between parallel roads
LANE_OFFSET_M = 2.5
IMAGE_SIZE = (1280, 720)
SPEED_RANGE = (8.0, 14.0)  # m/s
MAX_FRAMES = 1_000_000  # frames per camera in a scenario: 27.7 h at 10 fps
MAX_VEHICLES = 10_000  # vehicles gen_scenario makes: 50 times the largest benchmark workload
MAX_EMBED_DIM = 2048  # gen_scenario's embedding width: a ResNet-50 pooled feature
MAX_CAMS = 1000  # cameras gen_scenario places: 10 times the 100-camera city scenario
UNIT_ROW_TOLERANCE = 1e-6  # of an embedding row's norm; written float32 rows are within 2.1e-8
# The rules of the settings a Scenario keeps, checked by gen_scenario and by Scenario itself.
_SETTINGS = dict(seed=(int, "[0, inf)"), fps=(float, "(0, inf)"), duration_s=(float, "(0, inf)"),
                 embed_dim=(int, f"[1, {MAX_EMBED_DIM}]"))

_CLASS_CHOICES = [VehicleClass.CAR, VehicleClass.BUS, VehicleClass.TRUCK,
                  VehicleClass.VAN, VehicleClass.SUV]
_CLASS_WEIGHTS = [0.60, 0.08, 0.12, 0.08, 0.12]
_CLASS_LENGTH_M = {
    VehicleClass.CAR: 4.5,
    VehicleClass.BUS: 11.0,
    VehicleClass.TRUCK: 8.5,
    VehicleClass.VAN: 5.5,
    VehicleClass.SUV: 5.0,
    VehicleClass.OTHER: 4.5,
}
_BOX_ASPECT = 0.72  # box height as a fraction of its width

# Philox stream tags (first spawn_key element)
_TAG_VEHICLES = 0
_TAG_PROTOTYPES = 1
_TAG_RENDER = 2


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based RNG stream, reproducible across platforms and threads."""
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


@dataclass(frozen=True)
class VehicleSpec:
    global_id: int
    row: int
    entry_time: float
    speed: float  # m/s along the road
    direction: int  # +1 eastbound, -1 westbound
    lane_offset_m: float
    length_m: float
    vehicle_class: VehicleClass

    def position_m(self, t: float, road_length: float) -> float | None:
        """Distance from the road's west end at time t, None when off the road."""
        if t < self.entry_time:
            return None
        travelled = self.speed * (t - self.entry_time)
        x = travelled if self.direction > 0 else road_length - travelled
        if 0.0 <= x <= road_length:
            return x
        return None


@dataclass
class Scenario:
    seed: int
    rows: int
    cols: int
    fps: float
    duration_s: float
    image_size: tuple[int, int]
    embed_dim: int
    vehicles: list[VehicleSpec]
    topology: object = None

    def __post_init__(self):
        check_settings(vars(self), **_SETTINGS)
        frames = self.duration_s * self.fps
        if not frames <= MAX_FRAMES:  # NaN too
            raise SettingError(f"duration_s * fps is {frames:g} frames, over {MAX_FRAMES}")
        if self.topology is None:
            self.topology = _build_topology(self.rows, self.cols)

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s * self.fps))

    @property
    def road_length(self) -> float:
        return self.cols * CAM_SPACING_M

    @property
    def camera_ids(self) -> list[str]:
        return sorted(self.topology.cameras)


def _camera_id(index: int) -> str:
    return f"c{index + 1:03d}"


def _camera_geometry(index: int, rows: int, cols: int):
    """(row, x-center of the viewport in metres, road latitude in metres)."""
    row, col = divmod(index, cols)
    return row, (col + 0.5) * CAM_SPACING_M, row * ROW_SPACING_M


def _build_topology(rows: int, cols: int):
    n = rows * cols
    width, height = IMAGE_SIZE
    cameras = []
    for k in range(n):
        row, x_center, lat_m = _camera_geometry(k, rows, cols)
        lon_w = (x_center - VIEW_LENGTH_M / 2.0) / METERS_PER_DEGREE
        lon_e = (x_center + VIEW_LENGTH_M / 2.0) / METERS_PER_DEGREE
        lat_s = (lat_m - VIEW_WIDTH_M / 2.0) / METERS_PER_DEGREE
        lat_n = (lat_m + VIEW_WIDTH_M / 2.0) / METERS_PER_DEGREE
        # Affine pixel -> (lon, lat): x spans the viewport west-east, y south-north.
        h = Homography(
            [
                [(lon_e - lon_w) / width, 0.0, lon_w],
                [0.0, (lat_n - lat_s) / height, lat_s],
                [0.0, 0.0, 1.0],
            ]
        )
        cameras.append(CameraInfo(id=_camera_id(k), homography=h))
    adjacent = []
    for k in range(n):
        row, col = divmod(k, cols)
        if col + 1 < cols:
            adjacent.append((_camera_id(k), _camera_id(k + 1)))
        if row + 1 < rows:
            adjacent.append((_camera_id(k), _camera_id(k + cols)))
    return make_topology(cameras, adjacent)


def gen_scenario(
    seed: int,
    n_cams: int,
    n_vehicles: int,
    duration_s: float,
    fps: float = 10.0,
    layout: str = "corridor",
    embed_dim: int = 64,
):
    """Deterministic scenario plus its ground truth.

    Corridor: one west-east road through a chain of adjacent cameras.
    Grid: the cameras arranged in rows of parallel corridors (adjacency is the
    4-neighbourhood); each vehicle drives along one row.
    """
    check_settings(locals(), **_SETTINGS, n_cams=(int, f"[1, {MAX_CAMS}]"),
                   n_vehicles=(int, f"[0, {MAX_VEHICLES}]"))
    if layout == "corridor":
        rows, cols = 1, n_cams
    elif layout == "grid":
        cols = max(1, math.ceil(math.sqrt(n_cams)))
        rows = math.ceil(n_cams / cols)
        if rows * cols != n_cams:
            raise InvalidLayout(
                f"grid layout needs rows*cols == n_cams; {n_cams} is not {rows}x{cols}"
            )
    else:
        raise InvalidLayout(f"unknown layout {layout!r} (expected corridor or grid)")

    rng = _stream(seed, _TAG_VEHICLES)
    per_direction = max(1, math.ceil(n_vehicles / 2))
    stagger = 0.85 * duration_s / per_direction
    counters = {1: 0, -1: 0}
    vehicles = []
    for i in range(n_vehicles):
        direction = 1 if i % 2 == 0 else -1
        j = counters[direction]
        counters[direction] += 1
        entry = j * stagger + rng.uniform(0.0, stagger / 2.0)
        speed = rng.uniform(*SPEED_RANGE)
        row = int(rng.integers(rows))
        cls = _CLASS_CHOICES[rng.choice(len(_CLASS_CHOICES), p=_CLASS_WEIGHTS)]
        vehicles.append(
            VehicleSpec(
                global_id=i + 1,
                row=row,
                entry_time=float(entry),
                speed=float(speed),
                direction=direction,
                lane_offset_m=-LANE_OFFSET_M * direction,
                length_m=_CLASS_LENGTH_M[cls],
                vehicle_class=cls,
            )
        )
    scenario = Scenario(
        seed=seed,
        rows=rows,
        cols=cols,
        fps=fps,
        duration_s=duration_s,
        image_size=IMAGE_SIZE,
        embed_dim=embed_dim,
        vehicles=vehicles,
    )
    return scenario, ground_truth(scenario)


@dataclass
class GroundTruth:
    """Per camera, per frame: the (global_id, box) pairs fully in view."""

    boxes: dict[str, dict[int, list[tuple[int, Detection]]]]

    def trajectories(self) -> dict[int, list[tuple[str, int, Detection]]]:
        traj: dict[int, list] = {}
        for camera in sorted(self.boxes):
            for frame in sorted(self.boxes[camera]):
                for gid, det in self.boxes[camera][frame]:
                    traj.setdefault(gid, []).append((camera, frame, det))
        return traj


def ground_truth(scenario: Scenario) -> GroundTruth:
    """Project every vehicle through every camera it crosses, frame by frame."""
    width, height = scenario.image_size
    road_len = scenario.road_length
    boxes: dict[str, dict[int, list[tuple[int, Detection]]]] = {
        cid: {} for cid in scenario.camera_ids
    }
    for k, cid in enumerate(scenario.camera_ids):
        cam = scenario.topology.cameras[cid]
        row, x_center, lat_m = _camera_geometry(k, scenario.rows, scenario.cols)
        x_lo, x_hi = x_center - VIEW_LENGTH_M / 2.0, x_center + VIEW_LENGTH_M / 2.0
        for veh in scenario.vehicles:
            if veh.row != row:
                continue
            for frame in _frames_in_view(veh, x_lo, x_hi, scenario):
                x = veh.position_m(frame / scenario.fps, road_len)
                if x is None or not x_lo <= x <= x_hi:
                    continue
                point = GeoPoint(
                    (lat_m + veh.lane_offset_m) / METERS_PER_DEGREE,
                    x / METERS_PER_DEGREE,
                )
                px = geo_to_pixel(cam.homography, point)
                w_px = veh.length_m * width / VIEW_LENGTH_M
                h_px = _BOX_ASPECT * w_px
                x1, y1 = px.x - w_px / 2.0, px.y - h_px
                x2, y2 = px.x + w_px / 2.0, px.y
                if x1 < 0 or y1 < 0 or x2 > width or y2 > height:
                    continue  # only fully visible boxes are ground truth
                det = Detection(x1, y1, x2, y2, alpha=1.0, beta=veh.vehicle_class)
                boxes[cid].setdefault(frame, []).append((veh.global_id, det))
    return GroundTruth(boxes=boxes)


def _frames_in_view(veh: VehicleSpec, x_lo: float, x_hi: float, scenario: Scenario):
    """Frame indices when the vehicle's ground point can be inside [x_lo, x_hi]."""
    if veh.direction > 0:
        t_in = veh.entry_time + x_lo / veh.speed
        t_out = veh.entry_time + x_hi / veh.speed
    else:
        road_len = scenario.road_length
        t_in = veh.entry_time + (road_len - x_hi) / veh.speed
        t_out = veh.entry_time + (road_len - x_lo) / veh.speed
    first = max(0, math.ceil(t_in * scenario.fps))
    last = min(scenario.n_frames - 1, math.floor(t_out * scenario.fps))
    return range(first, last + 1)


@dataclass(frozen=True)
class NoiseProfile:
    box_jitter_std: float = 0.0  # pixels, applied to the box center
    miss_rate: float = 0.0
    false_positive_rate: float = 0.0  # expected spurious boxes per frame
    embedding_noise_std: float = 0.0

    def __post_init__(self):
        check_settings(
            vars(self), box_jitter_std=(float, "[0, inf)"), miss_rate=(float, "[0, 1)"),
            false_positive_rate=(float, "[0, 100]"), embedding_noise_std=(float, "[0, inf)"),
        )


class EmbeddingOracle:
    """Identity-clustered unit vectors standing in for a trained CNN.

    Prototypes are Gram-Schmidt orthonormalized random draws while the
    identity count fits in the dimension (pairwise dot products exactly 0),
    plain unit-sphere draws otherwise.  A draw perturbs the prototype with
    iid Gaussian noise of the given std and re-normalizes.
    """

    def __init__(self, identities, dim: int = 64, sigma: float = 0.0, seed: int = 0):
        identities = sorted(identities)
        rng = _stream(seed, _TAG_PROTOTYPES)
        raw = rng.standard_normal((len(identities), dim))
        vecs = []
        for rowvec in raw:
            v = rowvec.copy()
            if len(vecs) < dim:
                for p in vecs:
                    v -= (v @ p) * p
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                raise ValueError("degenerate prototype draw")
            vecs.append(v / norm)
        self.dim = dim
        self.sigma = sigma
        self.prototypes = dict(zip(identities, vecs))

    def oracle_embedding(self, identity, draw: np.random.Generator) -> np.ndarray:
        """Unit embedding for the identity, its noise drawn from `draw`."""
        proto = self.prototypes[identity]
        if self.sigma == 0.0:
            return proto.copy()
        noisy = proto + self.sigma * draw.standard_normal(self.dim)
        return noisy / np.linalg.norm(noisy)


def render_detections(
    scenario: Scenario,
    gt: GroundTruth,
    profile: NoiseProfile,
    oracle: EmbeddingOracle | None = None,
) -> dict[str, list[FrameRecord]]:
    """Noisy per-camera detection streams (one FrameRecord per frame, gaps kept).

    Each GT box is independently dropped with miss_rate, the survivors'
    centers are jittered, Poisson false positives get random boxes with fresh
    random embeddings, and true boxes carry oracle embeddings of their id.
    Each (camera, frame) owns its RNG stream, so rendering order is free.
    A camera's rows are rendered into one set of columns, and its records
    are views of them (``frame_records``).  A box that ``Detection`` rejects
    (a jitter so large that a side vanishes) raises its ValueError.
    """
    if oracle is None:
        oracle = EmbeddingOracle(
            [v.global_id for v in scenario.vehicles],
            dim=scenario.embed_dim,
            sigma=profile.embedding_noise_std,
            seed=scenario.seed,
        )
    width, height = scenario.image_size
    streams: dict[str, list[FrameRecord]] = {}
    for cam_index, cid in enumerate(scenario.camera_ids):
        frames: list[int] = []
        boxes: list[tuple[float, float, float, float]] = []
        alpha: list[float] = []
        beta: list[int] = []
        embs: list[np.ndarray] = []
        per_frame = gt.boxes.get(cid, {})
        for frame in range(scenario.n_frames):
            rng = _stream(scenario.seed, _TAG_RENDER, cam_index, frame)
            for gid, box in per_frame.get(frame, []):
                if profile.miss_rate > 0.0 and rng.random() < profile.miss_rate:
                    continue
                corners = (box.x1, box.y1, box.x2, box.y2)
                if profile.box_jitter_std > 0.0:
                    dx, dy = rng.normal(0.0, profile.box_jitter_std, size=2)
                    corners = (box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)
                frames.append(frame)
                boxes.append(corners)
                alpha.append(box.alpha)
                beta.append(int(box.beta))
                embs.append(oracle.oracle_embedding(gid, draw=rng))
            if profile.false_positive_rate > 0.0:
                for _ in range(rng.poisson(profile.false_positive_rate)):
                    w_px = rng.uniform(60.0, 140.0)
                    h_px = _BOX_ASPECT * w_px
                    cx = rng.uniform(w_px / 2.0, width - w_px / 2.0)
                    cy = rng.uniform(h_px, height)
                    frames.append(frame)
                    boxes.append((cx - w_px / 2.0, cy - h_px, cx + w_px / 2.0, cy))
                    alpha.append(float(rng.uniform(0.5, 1.0)))
                    beta.append(int(rng.integers(1, 7)))  # a VehicleClass value
                    fake = rng.standard_normal(oracle.dim)
                    embs.append(fake / np.linalg.norm(fake))
        columns = DetectionColumns(
            np.array(frames, dtype=np.int64),
            np.array(boxes, dtype=float).reshape(-1, 4),
            np.array(alpha, dtype=float),
            np.array(beta, dtype=np.int64),
        )
        bad = np.flatnonzero(rejected_boxes(columns.boxes))
        if len(bad):  # raise the ValueError Detection raises for the first such box
            Detection(*columns.boxes[bad[0]].tolist(), alpha=float(columns.alpha[bad[0]]))
        stacked = np.stack(embs) if embs else np.zeros((0, oracle.dim))
        streams[cid] = frame_records(cid, scenario.n_frames, columns, stacked)
    return streams


def frame_records(camera: str, n_frames: int, columns: DetectionColumns,
                  embeddings: np.ndarray) -> list[FrameRecord]:
    """One record per frame of the clip, each a view of the camera's rows
    of that frame (rows in frame order, embeddings row-aligned); a frame
    without rows has no embeddings."""
    ends = np.searchsorted(columns.frames, np.arange(1, n_frames + 1)).tolist()
    records, start = [], 0
    for frame, end in enumerate(ends):
        rows = slice(start, end)
        records.append(FrameRecord(camera, frame, columns.boxes[rows], columns.alpha[rows],
                                   columns.beta[rows], embeddings[rows] if end > start else None))
        start = end
    return records


_JSON_KEYS = {"vehicle_class": "class"}  # dataclass field -> scenario.json key
_FROM_JSON = {"vehicle_class": VehicleClass.from_value, "image_size": tuple}


def _record_to_dict(record) -> dict:
    return {_JSON_KEYS.get(f.name, f.name): getattr(record, f.name) for f in fields(record)}


def _record_from_dict(cls, data: dict):
    """The dataclass ``cls`` from its ``_record_to_dict`` form; KeyError names a missing key."""
    values = {}
    for f in fields(cls):
        value = data[_JSON_KEYS.get(f.name, f.name)]
        values[f.name] = _FROM_JSON[f.name](value) if f.name in _FROM_JSON else value
    return cls(**values)


def _scenario_to_dict(scenario: Scenario) -> dict:
    sim = _record_to_dict(scenario)
    sim["vehicles"] = [_record_to_dict(v) for v in scenario.vehicles]
    return {"topology": topology_to_dict(sim.pop("topology")), "sim": sim}


def _scenario_from_dict(data: dict) -> Scenario:
    sim = dict(data["sim"], topology=topology_from_dict(data["topology"]))
    sim["vehicles"] = [_record_from_dict(VehicleSpec, v) for v in sim["vehicles"]]
    return _record_from_dict(Scenario, sim)


def write_scenario_dir(
    scenario: Scenario,
    gt: GroundTruth,
    streams: dict[str, list[FrameRecord]],
    outdir,
) -> None:
    """Write scenario.json plus per-camera GT/detection CSVs and embeddings.

    GT rows use the MOTChallenge shape `frame,id,x,y,w,h,1,class,1`;
    embedding rows align with detection CSV rows in (frame, row) order.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "scenario.json").write_text(
        json.dumps(_scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
    )
    for cid in scenario.camera_ids:
        per_frame = gt.boxes.get(cid, {})
        truth = [(frame, gid, d) for frame in sorted(per_frame) for gid, d in per_frame[frame]]
        write_mot_trajectories(
            outdir / f"gt_{cid}.csv",
            [frame for frame, _, _ in truth],
            [gid for _, gid, _ in truth],
            box_text(np.array([(d.x1, d.y1, d.x2, d.y2) for _, _, d in truth])),
            [int(d.beta) for _, _, d in truth],
        )
        records = streams[cid]
        write_detection_csv(outdir / f"det_{cid}.csv", DetectionColumns(
            np.repeat([r.frame_index for r in records], [len(r.alpha) for r in records]),
            np.concatenate([np.empty((0, 4))] + [r.boxes for r in records]),
            np.concatenate([np.empty(0)] + [r.alpha for r in records]),
            np.concatenate([np.empty(0, np.int64)] + [r.beta for r in records]),
        ))
        rows = [r.embeddings for r in records if r.embeddings is not None]
        stacked = np.vstack(rows) if rows else np.zeros((0, scenario.embed_dim))
        write_embeddings(outdir / f"emb_{cid}.bin", stacked)


def first_non_unit_row(rows: np.ndarray) -> tuple[int, float] | None:
    """(index, norm) of the first row that is not a finite unit vector (norm
    within UNIT_ROW_TOLERANCE of 1), or None when every row is one."""
    norms = np.linalg.norm(rows, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_ROW_TOLERANCE))
    return (int(bad[0]), float(norms[bad[0]])) if len(bad) else None


def load_scenario(outdir) -> Scenario:
    """The scenario.json of a scenario directory; one that does not describe a
    scenario (its JSON, a field, a setting or the topology) raises MalformedInput
    naming the file."""
    meta = Path(outdir) / "scenario.json"
    try:
        return _scenario_from_dict(json.loads(meta.read_text()))
    except KeyError as exc:
        raise MalformedInput(f"{meta}: missing field {exc}") from None
    except (TypeError, ValueError, ConfigError) as exc:
        raise MalformedInput(f"{meta}: {exc}") from None


def load_scenario_dir(outdir) -> tuple[Scenario, dict[str, list[FrameRecord]]]:
    """Read a written scenario directory back into streams (float32 embeddings).

    The scenario.json goes through ``load_scenario``.  A detection file with
    a frame outside the clip, an embedding file that does not parse, an
    embedding file whose dimension differs from the scenario's, an embedding
    file with a row that is not a finite unit vector (norm within
    ``UNIT_ROW_TOLERANCE`` of 1; the row is named, counting from 0) and an
    embedding file whose row count differs from its detection file raise
    MalformedInput naming the file.
    """
    outdir = Path(outdir)
    scenario = load_scenario(outdir)
    streams: dict[str, list[FrameRecord]] = {}
    for cid in scenario.camera_ids:
        det_path = outdir / f"det_{cid}.csv"
        columns = read_detection_csv(det_path)
        outside = np.flatnonzero((columns.frames < 0) | (columns.frames >= scenario.n_frames))
        if len(outside):
            raise MalformedInput(f"{det_path}: frame {columns.frames[outside[0]]} outside the "
                                 f"clip's [0, {scenario.n_frames})")
        emb_path = outdir / f"emb_{cid}.bin"
        emb = read_embeddings(emb_path)
        if emb.shape[1] != scenario.embed_dim:
            raise MalformedInput(
                f"{emb_path}: embedding dimension {emb.shape[1]}, expected {scenario.embed_dim}"
            )
        bad = first_non_unit_row(emb)
        if bad is not None:
            raise MalformedInput(f"{emb_path}: row {bad[0]} is not a finite unit vector "
                                 f"(norm {bad[1]})")
        if len(columns) != emb.shape[0]:
            raise MalformedInput(
                f"{emb_path}: {emb.shape[0]} embeddings for {len(columns)} detections"
            )
        streams[cid] = frame_records(cid, scenario.n_frames, columns, emb)
    return scenario, streams


def load_ground_truth(outdir, scenario: Scenario) -> Trajectories:
    """Merge the per-camera GT CSVs into one global-id trajectory set."""
    outdir = Path(outdir)
    parts = [load_mot_trajectories(outdir / f"gt_{cid}.csv", camera=cid)
             for cid in scenario.camera_ids]
    return Trajectories.from_columns(
        scenario.camera_ids,
        np.repeat(np.arange(len(parts)), [len(part) for part in parts]),
        np.concatenate([part.frames for part in parts]),
        np.concatenate([part.ids for part in parts]),
        np.concatenate([part.boxes for part in parts]),
    )
