"""End-to-end orchestration: sources -> per-camera trackers -> supervisor.

One single-threaded engine runs every mode, stepped by a clock with ``now()``
and ``sleep_until(t)``.  Frame i of every camera is due at i/fps.  Due frames
enter a per-camera deque holding QUEUE_SECONDS of frames; when a deque is full
its oldest frame is dropped and counted.  Each tick pops at most one frame per
camera, consults the embedding provider once for that list of frames (it
stands in for a shared GPU inference service), steps the trackers of all
its frames as one batch (``sct.step_cameras``: one stacked Kalman predict,
gating factorisation and update per tick, however many cameras), and hands
concluded tracks to the cross-camera supervisor once the clock passes its
next deadline, one tick_period apart.  A latency is the processing time of
one tick, supervisor included, in every mode; the end-of-stream supervisor
tick, which runs after the last tick, is reported on its own
(``final_tick_ms``).

Offline runs use a VirtualClock, whose time moves only when the engine waits:
processing takes no time, so nothing is ever dropped and the output is a pure
function of the config.  Real-time runs (``real_time=True``) use a WallClock,
so frames arrive at the cameras' pace and a backlog beyond a deque's capacity
drops the oldest frames.  The engine starts no thread: ``workers`` is still
accepted and validated, so existing configs keep loading, but changes nothing.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import simkit
from .errors import ConfigError, MalformedInput, SourceMissing, check_settings
from .ingest import FrameRecord, box_text, filter_confidence_indices
from .mct import (
    MctConfig,
    MultiCameraStore,
    identity_rows,
    summarize_identities,
    supervisor_tick,
)
from .metrics import Trajectories, write_global_trajectories, write_mot_trajectories
from .reid import TemporalScorer, temporal_aggregate
from .sct import SingleCameraTracker, TrackerParams, step_cameras

QUEUE_SECONDS = 2.0  # per-camera queue capacity, in seconds of frames


@dataclass
class PipelineConfig:
    scenario_dir: str | None = None  # read a written scenario directory
    sim: dict | None = None  # or generate+render in memory (gen_scenario kwargs + "noise")
    alpha_min: float = 0.1
    tracker: TrackerParams = field(default_factory=TrackerParams)
    mct: MctConfig = field(default_factory=MctConfig)
    real_time: bool = False
    workers: int = 1  # ignored: the engine is single-threaded
    out_dir: str | None = None
    scorer_path: str | None = None  # learned temporal scorer weights (EMB1 x2)

    def __post_init__(self):
        check_settings(
            vars(self), scenario_dir=str | None, sim=dict | None, out_dir=str | None,
            scorer_path=str | None, alpha_min=(float, "[0, 1]"), real_time=bool,
            workers=(int, "[1, inf)"),
        )
        if self.sim is not None:
            check_settings({"noise": self.sim.get("noise", {})}, noise=dict)
        if (self.scenario_dir is None) == (self.sim is None):
            raise ConfigError("exactly one of scenario_dir or sim must be set")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        check_settings({"config": data}, config=dict)
        data = dict(data)
        try:
            tracker = TrackerParams(**data.pop("tracker", {}))
            mct = MctConfig(**data.pop("mct", {}))
            return cls(tracker=tracker, mct=mct, **data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad pipeline config: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except ValueError as exc:  # not JSON, or not text
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class RunReport:
    frames: dict[str, int]
    dropped: dict[str, int]
    n_concluded: int
    n_identities: int
    wall_time_s: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_max_ms: float
    final_tick_ms: float  # the end-of-stream supervisor tick, outside the latencies
    real_time: bool
    identities: list = field(default_factory=list, repr=False)
    latencies_s: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        """The fields written to report.json: every field shown in the repr."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}


class PassThroughProvider:
    """Uses the embeddings already attached to each frame (oracle/file source)."""

    def __call__(self, frames: list[FrameRecord]):
        return [frame.embeddings for frame in frames]


class VirtualClock:
    """Stream time that moves only when the engine waits; processing takes none."""

    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def sleep_until(self, t: float) -> None:
        self.t = max(self.t, t)


class WallClock:
    """The host's monotonic clock; waiting sleeps."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep_until(self, t: float) -> None:
        while (delay := t - time.perf_counter()) > 0:
            time.sleep(delay)


def _load_source(cfg: PipelineConfig):
    """Resolve the config into (scenario, per-camera streams)."""
    if cfg.scenario_dir is not None:
        directory = Path(cfg.scenario_dir)
        if not (directory / "scenario.json").exists():
            raise SourceMissing(f"no scenario.json under {directory}")
        scenario, streams = simkit.load_scenario_dir(directory)
    else:
        sim = dict(cfg.sim)
        noise = sim.pop("noise", {})
        try:
            scenario, gt = simkit.gen_scenario(**sim)
            profile = simkit.NoiseProfile(**noise)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sim config: {exc}") from exc
        streams = simkit.render_detections(scenario, gt, profile)
    return scenario, streams


def _prepare(frame: FrameRecord, cfg: PipelineConfig) -> FrameRecord:
    """The frame's detections of confidence >= alpha_min, embeddings kept aligned:
    the frame itself when every detection passes."""
    kept = filter_confidence_indices(frame.alpha, cfg.alpha_min)
    return frame if len(kept) == len(frame.alpha) else frame.select(kept)


def _embed(frames: list[FrameRecord], embeddings, dim: int) -> list[FrameRecord]:
    """The tick's records with the provider's arrays: of width ``dim``, one
    finite unit row (``simkit.first_non_unit_row``) per detection."""
    embedded = []
    try:
        for record, emb in zip(frames, embeddings, strict=True):
            if len(record.alpha) and emb is None:
                raise SourceMissing(f"camera {record.camera}: detections without embeddings")
            if emb is not None and np.shape(emb)[1:] != (dim,):
                raise ValueError(f"array of shape {np.shape(emb)}, rows of width {dim} expected")
            embedded.append(FrameRecord(record.camera, record.frame_index, record.boxes,
                                        record.alpha, record.beta, emb))
    except ValueError as exc:  # a wrong width or row count, or not one array per record
        where = f"camera {frames[len(embedded)].camera}" if len(embedded) < len(frames) else "tick"
        raise MalformedInput(f"{where}: provider output does not fit its frames: {exc}") from None
    carried = [record for record in embedded if record.embeddings is not None]
    rows = [record.embeddings for record in carried]
    bad = simkit.first_non_unit_row(np.concatenate(rows)) if rows else None
    if bad is not None:
        record = carried[np.searchsorted(np.cumsum([len(r) for r in rows]), bad[0], side="right")]
        raise MalformedInput(f"camera {record.camera}: provider row of frame {record.frame_index} "
                             f"is not a finite unit vector (norm {bad[1]})")
    return embedded


def _build_trackers(scenario: simkit.Scenario, cfg: PipelineConfig):
    scorer = TemporalScorer()
    if cfg.scorer_path is not None:
        scorer = TemporalScorer.load(cfg.scorer_path)
        if scorer.conv1.shape[1] != scenario.embed_dim:
            raise MalformedInput(f"{cfg.scorer_path}: scorer built for D={scorer.conv1.shape[1]}, "
                                 f"scenario has D={scenario.embed_dim}")
    aggregator = lambda rows: temporal_aggregate(rows, scorer)  # noqa: E731
    return {
        cid: SingleCameraTracker(
            camera=cid,
            fps=scenario.fps,
            homography=scenario.topology.cameras[cid].homography,
            params=cfg.tracker,
            aggregator=aggregator,
        )
        for cid in scenario.camera_ids
    }


def run(cfg: PipelineConfig, provider=None, clock=None) -> RunReport:
    """Execute the pipeline; returns the report (identities attached).

    ``provider`` maps a tick's list of FrameRecords, at most one per camera,
    to one embedding array per frame (default: the embeddings the source
    carries).  ``clock`` paces the run (default: a WallClock when
    ``cfg.real_time`` is set, else a VirtualClock).  When out_dir is set,
    writes global_tracks.csv, identities.json, report.json, and one
    sct_<camera>.csv per camera.
    """
    scenario, streams = _load_source(cfg)
    if provider is None:
        provider = PassThroughProvider()
    if clock is None:
        clock = WallClock() if cfg.real_time else VirtualClock()
    trackers = _build_trackers(scenario, cfg)
    started = time.perf_counter()
    report = _run_engine(cfg, scenario, streams, trackers, provider, clock)
    report.wall_time_s = time.perf_counter() - started

    if cfg.out_dir is not None:
        _write_outputs(cfg, report)
    return report


def _run_engine(cfg, scenario, streams, trackers, provider, clock):
    topo, fps, n_frames = scenario.topology, scenario.fps, scenario.n_frames
    cameras = sorted(streams)
    capacity = max(1, int(QUEUE_SECONDS * fps))
    queues = {cid: deque(maxlen=capacity) for cid in cameras}
    processed = dict.fromkeys(cameras, 0)
    dropped = dict.fromkeys(cameras, 0)
    n_concluded = 0
    store, pending, finished = MultiCameraStore(), [], []
    latencies: list[float] = []
    sup_every = max(1, int(round(cfg.mct.tick_period * fps)))
    sup_count = 1  # the j-th supervisor deadline is (j * sup_every - 1) / fps
    released = 0  # frame i of every camera is due at i / fps
    start = clock.now()

    while released < n_frames or any(queues.values()):
        now = clock.now() - start
        while released < n_frames and released / fps <= now:
            for cid in cameras:
                if len(queues[cid]) == capacity:
                    dropped[cid] += 1  # the append evicts the oldest frame
                queues[cid].append(streams[cid][released])
            released += 1
        if not any(queues.values()):
            clock.sleep_until(start + released / fps)
            continue

        tick_started = time.perf_counter()
        frames = [_prepare(queues[cid].popleft(), cfg) for cid in cameras if queues[cid]]
        frames = _embed(frames, provider(frames), scenario.embed_dim)
        stepped = step_cameras([(trackers[record.camera], record) for record in frames])
        for record, (_, concluded) in zip(frames, stepped):
            processed[record.camera] += 1
            n_concluded += len(concluded)
            pending.extend(concluded)
        now = clock.now() - start
        if now >= (sup_count * sup_every - 1) / fps:
            _, flushed = supervisor_tick(store, pending, now, topo, cfg.mct)
            pending = []
            finished.extend(flushed)
            while (sup_count * sup_every - 1) / fps <= now:
                sup_count += 1
        latencies.append(time.perf_counter() - tick_started)

    # The stream ends one frame period after its last frame is due.
    clock.sleep_until(start + n_frames / fps)
    for cid in cameras:
        tail = trackers[cid].finish()
        n_concluded += len(tail)
        pending.extend(tail)
    final_started = time.perf_counter()
    _, flushed = supervisor_tick(store, pending, clock.now() - start, topo, cfg.mct)
    final_tick_s = time.perf_counter() - final_started
    finished.extend(flushed)
    finished.extend(store.drain())

    lat = np.asarray(latencies) if latencies else np.zeros(1)
    return RunReport(
        frames=processed,
        dropped=dropped,
        n_concluded=n_concluded,
        n_identities=len(finished),
        wall_time_s=0.0,
        latency_p50_ms=float(np.percentile(lat, 50) * 1e3),
        latency_p99_ms=float(np.percentile(lat, 99) * 1e3),
        latency_max_ms=float(np.max(lat) * 1e3),
        final_tick_ms=final_tick_s * 1e3,
        real_time=cfg.real_time,
        identities=finished,
        latencies_s=latencies,
    )


def _write_outputs(cfg: PipelineConfig, report: RunReport) -> None:
    """Write the run's files.  Every identity's rows form one set of columns
    whose box text is formatted once: global_tracks.csv takes them in
    (camera, frame, global id) order and sct_<camera>.csv its camera's rows
    in (frame, track id) order."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cameras, codes, gids, tids, rows = identity_rows(report.identities)
    frames, texts = rows["frame"], box_text(rows["box"])
    order = np.lexsort((gids, frames, codes))
    write_global_trajectories(
        out / "global_tracks.csv",
        Trajectories(tuple(cameras), codes[order], frames[order], gids[order], rows["box"][order]),
        [texts[i] for i in order.tolist()],
    )
    (out / "identities.json").write_text(
        json.dumps(summarize_identities(report.identities), indent=2, sort_keys=True) + "\n"
    )
    (out / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    order = np.lexsort((tids, frames, codes))
    ends = np.searchsorted(codes[order], np.arange(1, len(cameras) + 1)).tolist()
    for camera, start, end in zip(cameras, [0] + ends, ends):
        part = order[start:end]
        write_mot_trajectories(out / f"sct_{camera}.csv", frames[part].tolist(),
                               tids[part].tolist(), [texts[i] for i in part.tolist()],
                               rows["beta"][part].tolist())
