"""mcvt benchmark: offline tracking runs on generated scenarios.

    python3 perfbench/run.py --workload corridor-accept --seed 0 --seconds 40 --trace 0

For the chosen workload the scenario is generated from ``--seed`` and
written to ``perfbench/work/<workload>/scenario`` in a child process before
any timing starts (see ``workloads.py``).  The benchmark then runs
``mcvt.pipeline.run`` on it again and again (with ``out_dir`` set, as
``mcvt run --out`` does) and scores each run as ``mcvt eval-mct`` does: at
least ``MIN_RUNS`` runs, and further runs while the next one is expected to
end within ``--seconds``.
Every run is checked (see ``check_output``); a run that raises or fails a
check counts as failed.

``--trace 0`` reports the end-to-end metrics, measured untraced.  ``--trace 1``
alternates an untraced and a traced run of the same scenario and reports
per-layer metrics from the traced runs: the public functions of each module
are wrapped from here (``layer_targets``), nothing under ``src/``
changes.  The spans of a traced invocation are written to
``perfbench/work/<workload>/spans.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer, busy_time, self_time, union_length
from workloads import FPS, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
# One pipeline worker: on a 2-vCPU host, two worker threads contending for the
# GIL made runs 1.2 to 1.8 times as long and about twice as spread.
WORKERS = 1
MIN_RUNS = 3  # untraced runs of the one scenario, so every digest has a second to agree with

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "realtime_factor": "x",
    "tick_p99_ms": "ms",
    "tracker_tick_p99_ms": "ms",
    "supervisor_tick_p50_ms": "ms",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "idf1": "ratio",
    "mota": "ratio",
}

# Span names; each yields <name>.calls, <name>.s and <name>.self_s.
TIMED_LAYERS = [
    "simkit.load_scenario_dir",
    "ingest.filter_confidence_indices",
    "kalman.kf_predict",
    "kalman.kf_update",
    "kalman.gating_distance",
    "sct.associate",
    "sct.appearance_cost",
    "sct.linear_sum_assignment",
    "sct.SingleCameraTracker.step",
    "reid.temporal_aggregate",
    "reid.mitigate_camera_bias",
    "mct.supervisor_tick",
    "mct.build_similarity_matrix",
    "mct.hierarchical_cluster",
    "metrics.evaluate_mota",
    "metrics.load_global_trajectories",
    "metrics.write_global_trajectories",
]
# Spans whose busy time the pipeline loop spends outside orchestration.
LOOP_WORK = ("ingest.filter_confidence_indices", "sct.SingleCameraTracker.step", "mct.supervisor_tick")

PER_LAYER = {
    "simkit.load_scenario_dir.s": "s",
    "ingest.filter_confidence_indices.s": "s",
    "ingest.kept_ratio": "ratio",
    "kalman.kf_predict.calls": "count",
    "kalman.kf_predict.s": "s",
    "kalman.kf_update.calls": "count",
    "kalman.kf_update.s": "s",
    "kalman.gating_distance.calls": "count",
    "kalman.gating_distance.s": "s",
    "kalman.gate_pass_ratio": "ratio",
    "sct.associate.calls": "count",
    "sct.associate.s": "s",
    "sct.associate.self_s": "s",
    "sct.appearance_cost.calls": "count",
    "sct.appearance_cost.s": "s",
    "sct.linear_sum_assignment.calls": "count",
    "sct.linear_sum_assignment.s": "s",
    "sct.SingleCameraTracker.step.s": "s",
    "sct.SingleCameraTracker.step.self_s": "s",
    "sct.match_ratio": "ratio",
    "sct.concluded": "count",
    "reid.temporal_aggregate.calls": "count",
    "reid.temporal_aggregate.s": "s",
    "reid.mitigate_camera_bias.calls": "count",
    "reid.mitigate_camera_bias.s": "s",
    "geo.haversine_distance.calls": "count",
    "geo.are_adjacent.calls": "count",
    "geo.are_overlapping.calls": "count",
    "geo.pixel_to_geo.calls": "count",
    "mct.supervisor_tick.calls": "count",
    "mct.supervisor_tick.s": "s",
    "mct.supervisor_tick.self_s": "s",
    "mct.build_similarity_matrix.s": "s",
    "mct.hierarchical_cluster.s": "s",
    "mct.pairs_scored": "count",
    "mct.candidates_max": "count",
    "mct.positive_pair_ratio": "ratio",
    "metrics.evaluate_mota.s": "s",
    "metrics.load_global_trajectories.s": "s",
    "metrics.write_global_trajectories.s": "s",
    "pipeline.loop.s": "s",
    "pipeline.self_s": "s",
    "pipeline.ticks": "count",
    "pipeline.supervisor_ticks": "count",
    "trace.overhead_ratio": "ratio",
}


def _import_program():
    """Import mcvt from this checkout's ``src/``, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    global kalman, mct, metrics, pipeline, sct, simkit
    import mcvt

    if Path(mcvt.__file__).resolve().parent != SRC / "mcvt":
        raise ImportError(f"mcvt imported from {mcvt.__file__}, not from {SRC}")
    from mcvt import kalman, mct, metrics, pipeline, sct, simkit  # noqa: F401


# ---------------------------------------------------------------- tracing


def _observe_filter(tracer, args, kept):
    tracer.count("ingest.in", len(args[0]))
    tracer.count("ingest.kept", len(kept))


def _observe_gating(threshold):
    def observe(tracer, args, distance):
        if distance <= threshold:
            tracer.count("kalman.gate_pass")

    return observe


def _observe_associate(tracer, args, result):
    tracer.count("sct.offered", len(args[1].detections))
    tracer.count("sct.matched", len(result[0]))


def _observe_similarity(tracer, args, matrix):
    n = len(args[0])
    tracer.count("mct.pairs_scored", n * (n - 1) // 2)
    tracer.peak("mct.candidates_max", n)
    upper = matrix[np.triu_indices(n, 1)]
    tracer.count("mct.pairs_positive", int(np.count_nonzero(upper >= args[2].tau_min)))


def layer_targets(cfg):
    """(owner, attribute, span name, observer) for every wrapped function.

    Functions imported by name into their caller are wrapped where the caller
    looks them up (e.g. ``supervisor_tick`` in ``mcvt.pipeline``).
    """
    return [
        (simkit, "load_scenario_dir", "simkit.load_scenario_dir", None),
        (pipeline, "filter_confidence_indices", "ingest.filter_confidence_indices", _observe_filter),
        (kalman, "kf_predict", "kalman.kf_predict", None),
        (kalman, "kf_update", "kalman.kf_update", None),
        (kalman, "gating_distance", "kalman.gating_distance",
         _observe_gating(cfg.tracker.gating_threshold)),
        (sct, "associate", "sct.associate", _observe_associate),
        (sct, "appearance_cost", "sct.appearance_cost", None),
        (sct, "linear_sum_assignment", "sct.linear_sum_assignment", None),
        (sct.SingleCameraTracker, "step", "sct.SingleCameraTracker.step", None),
        (sct, "pixel_to_geo", "geo.pixel_to_geo", None),
        (pipeline, "temporal_aggregate", "reid.temporal_aggregate", None),
        (mct, "mitigate_camera_bias", "reid.mitigate_camera_bias", None),
        (mct, "haversine_distance", "geo.haversine_distance", None),
        (mct, "are_adjacent", "geo.are_adjacent", None),
        (mct, "are_overlapping", "geo.are_overlapping", None),
        (pipeline, "supervisor_tick", "mct.supervisor_tick", None),
        (mct, "build_similarity_matrix", "mct.build_similarity_matrix", _observe_similarity),
        (mct, "hierarchical_cluster", "mct.hierarchical_cluster", None),
        (metrics, "evaluate_mota", "metrics.evaluate_mota", None),
        (metrics, "load_global_trajectories", "metrics.load_global_trajectories", None),
        (pipeline, "write_global_trajectories", "metrics.write_global_trajectories", None),
    ]


# ---------------------------------------------------------------- checks


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root, pattern: str = "*") -> str:
    """Digest of every file under ``root`` matching ``pattern``, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_output(out_dir, camera_ids, n_frames) -> list[str]:
    """Problems with a run's output directory; an empty list means it passed.

    Checks that no global identity holds two tracks of one camera and that
    every output row names a scenario camera and a frame inside the clip.
    """
    out_dir = Path(out_dir)
    cameras = set(camera_ids)
    problems = []
    for identity in json.loads((out_dir / "identities.json").read_text()):
        member_cams = [m["camera"] for m in identity["members"]]
        if len(member_cams) != len(set(member_cams)):
            problems.append(f"identity {identity['global_id']} holds two tracks of one camera")

    def check_row(source, camera, frame):
        if camera not in cameras:
            problems.append(f"{source}: unknown camera {camera!r}")
        elif not 0 <= frame < n_frames:
            problems.append(f"{source}: frame {frame} outside 0..{n_frames - 1}")

    with open(out_dir / "global_tracks.csv", newline="") as fh:
        for row in csv.reader(fh):
            check_row("global_tracks.csv", row[0], int(row[1]))
    for path in sorted(out_dir.glob("sct_*.csv")):
        camera = path.stem[len("sct_"):]
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                check_row(path.name, camera, int(row[0]))
    return problems[:5]


class DigestLog:
    """``global_tracks.csv`` digests keyed by the scenario files and program source.

    Kept in ``perfbench/work/digests.json`` so that runs of the same workload
    and commit in one checkout must agree with each other, not only the runs
    inside one invocation.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}

    def record(self, key: str, digest: str) -> None:
        if key not in self.known:
            self.known[key] = digest
            self.path.write_text(json.dumps(self.known, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- runs


@dataclass
class Run:
    run_s: float
    loop_s: float
    latencies_s: list
    eval_s: float
    idf1: float
    mota: float
    digest: str
    n_concluded: int


class Bench:
    """One generated scenario, the config that runs it, and the run tally."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.workload = WORKLOADS[name]
        self.scenario_dir = workdir / "scenario"
        self.out_dir = workdir / "out"
        self.cfg = pipeline.PipelineConfig(
            scenario_dir=str(self.scenario_dir),
            workers=WORKERS,
            out_dir=str(self.out_dir),
        )
        # Untimed: gives the Scenario for scoring and warms the file cache.
        self.scenario, _ = simkit.load_scenario_dir(self.scenario_dir)
        self.digests = DigestLog(WORK / "digests.json")
        self.key = (f"{name} seed={seed} inputs={tree_digest(self.scenario_dir)[:16]} "
                    f"src={tree_digest(SRC, '*.py')[:16]}")
        self.first_digest: str | None = None
        self.sup_every = max(1, int(round(self.cfg.mct.tick_period * FPS)))
        self.clip_s = self.scenario.n_frames / FPS
        self.attempted = 0
        self.failed = 0

    def run_once(self, tracer: Tracer | None = None) -> Run | None:
        """One timed pipeline run plus scoring; None if it raised or failed a check."""
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        try:
            run = self._timed(tracer)
            problems = check_output(self.out_dir, self.scenario.camera_ids, self.scenario.n_frames)
            expected = self.first_digest or self.digests.known.get(self.key)
            if expected is not None and run.digest != expected:
                problems.append(f"global_tracks.csv digest {run.digest[:16]} != {expected[:16]}")
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print(f"run {self.attempted} failed the output check: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        self.first_digest = self.first_digest or run.digest
        return run

    def _timed(self, tracer: Tracer | None = None) -> Run:
        def span(name):
            return contextlib.nullcontext() if tracer is None else tracer.span(name)

        with span("pipeline.run"):
            started = time.perf_counter()
            report = pipeline.run(self.cfg)
            run_s = time.perf_counter() - started
        # Free the run's cyclic garbage first, so that scoring does not pay
        # for collecting it; ``mcvt eval-mct`` scores in a fresh process.
        gc.collect()
        with span("eval"):
            started = time.perf_counter()
            gt = simkit.load_ground_truth(self.scenario_dir, self.scenario)
            pred = metrics.load_global_trajectories(self.out_dir / "global_tracks.csv")
            summary = metrics.evaluate_mota(gt, pred)
            eval_s = time.perf_counter() - started
        return Run(
            run_s=run_s,
            loop_s=report.wall_time_s,
            latencies_s=list(report.latencies_s),
            eval_s=eval_s,
            idf1=summary.idf1,
            mota=summary.mota,
            digest=file_digest(self.out_dir / "global_tracks.csv"),
            n_concluded=report.n_concluded,
        )

    def is_supervisor_tick(self, index: int) -> bool:
        return (index + 1) % self.sup_every == 0

    def finish(self) -> None:
        """Record the digest once every run of this invocation agreed."""
        if self.failed == 0 and self.first_digest is not None:
            self.digests.record(self.key, self.first_digest)
        print(f"digest   global_tracks.csv sha256:{self.first_digest}")


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end(bench: Bench, runs: list[Run]) -> dict:
    """Metric name -> (value, number of runs it is the median of).

    Every metric is taken per run and reported as the median over the runs;
    a tick percentile is taken over the ticks of one run.  A pooled
    percentile would follow the slowest stretch of the invocation: a few
    seconds of a slow host put nearly all of the pooled top percent in them.
    IDF1 and MOTA are the same for every run, as the digest check ensures.
    """

    def tick_ms(run: Run, q: float, supervisor: bool | None = None) -> float:
        ticks = [
            lat for i, lat in enumerate(run.latencies_s)
            if supervisor is None or bench.is_supervisor_tick(i) == supervisor
        ]
        return _pct(ticks, q) * 1e3

    def median(per_run) -> tuple[float, int]:
        return statistics.median(per_run(r) for r in runs), len(runs)

    return {
        "run_s": median(lambda r: r.run_s),
        "setup_s": median(lambda r: r.run_s - r.loop_s),
        "realtime_factor": median(lambda r: bench.clip_s / r.loop_s),
        "tick_p99_ms": median(lambda r: tick_ms(r, 99)),
        "tracker_tick_p99_ms": median(lambda r: tick_ms(r, 99, supervisor=False)),
        "supervisor_tick_p50_ms": median(lambda r: tick_ms(r, 50, supervisor=True)),
        "eval_s": median(lambda r: r.eval_s),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "idf1": (runs[0].idf1, len(runs)),
        "mota": (runs[0].mota, len(runs)),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(bench: Bench, run: Run, spans, counts, untraced_loop_s: float) -> dict:
    busy = busy_time(spans)
    own = self_time(spans)
    calls = {name: 0 for name in TIMED_LAYERS}
    for span in spans:
        calls[span[3]] = calls.get(span[3], 0) + 1
    loop_work = union_length((s[4], s[5]) for s in spans if s[3] in LOOP_WORK)
    values = {}
    for name, unit in PER_LAYER.items():
        layer, _, quantity = name.rpartition(".")
        if quantity == "calls":
            values[name] = calls.get(layer, 0)
        elif quantity == "s" and layer in calls:
            values[name] = busy[layer]
        elif quantity == "self_s" and layer in calls:
            values[name] = own[layer]
    values.update(
        {
            "ingest.kept_ratio": _ratio(counts["ingest.kept"], counts["ingest.in"]),
            "kalman.gate_pass_ratio": _ratio(counts["kalman.gate_pass"], calls["kalman.gating_distance"]),
            "sct.match_ratio": _ratio(counts["sct.matched"], counts["sct.offered"]),
            "sct.concluded": run.n_concluded,
            "mct.pairs_scored": counts["mct.pairs_scored"],
            "mct.candidates_max": counts["mct.candidates_max"],
            "mct.positive_pair_ratio": _ratio(counts["mct.pairs_positive"], counts["mct.pairs_scored"]),
            "pipeline.loop.s": run.loop_s,
            "pipeline.self_s": run.loop_s - loop_work,
            "pipeline.ticks": len(run.latencies_s),
            "pipeline.supervisor_ticks": sum(
                bench.is_supervisor_tick(i) for i in range(len(run.latencies_s))
            ),
            "trace.overhead_ratio": run.loop_s / untraced_loop_s,
        }
    )
    return values


def _is_timing(name: str) -> bool:
    return name.endswith(".s") or name.endswith("self_s") or name == "trace.overhead_ratio"


def _repeat(seconds: float, min_count: int):
    """Yield while fewer than ``min_count`` repetitions ran, or while the next
    one, as long as the median so far, would end within ``seconds``."""
    started = time.perf_counter()
    durations: list[float] = []
    while len(durations) < min_count or (
        time.perf_counter() - started + statistics.median(durations) <= seconds
    ):
        rep_started = time.perf_counter()
        yield
        durations.append(time.perf_counter() - rep_started)


def measure(bench: Bench, seconds: float) -> dict | None:
    runs: list[Run] = []
    for _ in _repeat(seconds, MIN_RUNS):
        run = bench.run_once()
        if run is not None:
            runs.append(run)
    bench.finish()
    if not runs:
        return None
    values = end_to_end(bench, runs)
    n_ticks = len(runs[0].latencies_s)
    n_supervisor = sum(bench.is_supervisor_tick(i) for i in range(n_ticks))
    print(f"runs     {len(runs)} ok of {bench.attempted}; clip {bench.clip_s:g} s; "
          f"{n_ticks} ticks a run, {n_supervisor} of them supervisor ticks")
    for name, (value, n) in values.items():
        print(f"{name:<24} {value:>12.4f} {END_TO_END[name]:<6} n={n}")
    return {name: value for name, (value, _) in values.items()}


def measure_traced(bench: Bench, seconds: float) -> dict | None:
    """Alternate untraced and traced runs; per-layer values from the traced ones."""
    tracer = Tracer()
    targets = layer_targets(bench.cfg)
    samples: list[dict] = []
    for _ in _repeat(seconds, 1):
        plain = bench.run_once()
        tracer.run_id += 1
        tracer.reset_counts()
        tracer.install(targets)
        try:
            traced = bench.run_once(tracer)
        finally:
            tracer.uninstall()
        if plain is None or traced is None:
            continue
        samples.append(
            per_layer(bench, traced, tracer.spans(tracer.run_id), tracer.counts(), plain.loop_s)
        )
    exact = [name for name in PER_LAYER if not _is_timing(name)]
    for sample in samples[1:]:
        differing = [name for name in exact if sample[name] != samples[0][name]]
        if differing:
            print(f"per-layer counts differ between traced runs: {differing}", file=sys.stderr)
            bench.failed += 1
    bench.finish()
    if not samples:
        return None
    spans_path = bench.out_dir.parent / "spans.csv"
    n_spans = tracer.write(spans_path)
    values = {
        name: statistics.median(s[name] for s in samples) if _is_timing(name) else samples[0][name]
        for name in PER_LAYER
    }
    loop = values["pipeline.loop.s"]
    print(f"traced   {len(samples)} runs, {n_spans} spans -> {spans_path}")
    for name, unit in PER_LAYER.items():
        in_loop = unit == "s" and not name.startswith(("simkit.", "metrics.", "pipeline.loop"))
        share = f"  {values[name] / loop:6.1%} of loop" if in_loop else ""
        print(f"{name:<40} {values[name]:>14.6g} {unit:<6}{share}")
    return values


def generate_in_child(name: str, seed: int, out_dir: Path) -> None:
    """Write the workload's scenario from a separate process (untimed)."""
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(out_dir)],
        check=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the mcvt package from {SRC}: {exc}", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    generate_in_child(args.workload, args.seed, workdir / "scenario")
    bench = Bench(args.workload, args.seed, workdir)
    w = bench.workload
    print(
        f"workload {args.workload}: {w.layout} {w.n_cams} cams x {w.n_vehicles} vehicles x "
        f"{w.duration_s:g} s, workers={WORKERS}, seed={args.seed}, trace={args.trace}"
    )
    if args.trace:
        values, units = measure_traced(bench, args.seconds), PER_LAYER
    else:
        values, units = measure(bench, args.seconds), END_TO_END
    result = {
        "correct": values is not None and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        } if values is not None else {},
    }
    print(json.dumps(result))
    return 0 if values is not None else 1


if __name__ == "__main__":
    sys.exit(main())
