"""Command-line front end.

Subcommands: run (pipeline), gen-scenario (simulator files), eval-sct /
eval-mct / eval-reid (scoring).  Exit codes: 0 success, 2 configuration
problems, 1 runtime failures (an input file that does not parse among them).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import metrics, pipeline, reid, simkit
from .errors import ConfigError, MalformedInput, McvtError, SourceMissing
from .ingest import read_csv_rows


def _print_table(pairs) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {value}")


def _cmd_run(args) -> int:
    if args.config:
        cfg = pipeline.PipelineConfig.from_file(args.config)
    elif args.scenario:
        cfg = pipeline.PipelineConfig(scenario_dir=args.scenario)
    else:
        raise ConfigError("run needs --config or --scenario")
    if args.out:
        cfg.out_dir = args.out
    if args.real_time:
        cfg.real_time = True
    if args.seed is not None:
        if cfg.sim is None:
            raise ConfigError("--seed only applies to configs with an inline sim source")
        cfg.sim["seed"] = args.seed

    report = pipeline.run(cfg)
    _print_table(
        [
            ("frames", sum(report.frames.values())),
            ("dropped", sum(report.dropped.values())),
            ("concluded tracks", report.n_concluded),
            ("global identities", report.n_identities),
            ("latency p99 (ms)", f"{report.latency_p99_ms:.2f}"),
            ("wall time (s)", f"{report.wall_time_s:.2f}"),
        ]
    )
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def _cmd_gen_scenario(args) -> int:
    scenario, gt = simkit.gen_scenario(
        seed=args.seed,
        n_cams=args.cams,
        n_vehicles=args.vehicles,
        duration_s=args.duration,
        fps=args.fps,
        layout=args.layout,
        embed_dim=args.dim,
    )
    profile = simkit.NoiseProfile(
        box_jitter_std=args.jitter,
        miss_rate=args.miss,
        false_positive_rate=args.fp_rate,
        embedding_noise_std=args.sigma,
    )
    streams = simkit.render_detections(scenario, gt, profile)
    simkit.write_scenario_dir(scenario, gt, streams, args.out)
    n_boxes = sum(len(entries) for cam in gt.boxes.values() for entries in cam.values())
    _print_table(
        [
            ("cameras", len(scenario.camera_ids)),
            ("vehicles", len(scenario.vehicles)),
            ("frames per camera", scenario.n_frames),
            ("ground-truth boxes", n_boxes),
            ("output", args.out),
        ]
    )
    return 0


def _cmd_eval_sct(args) -> int:
    gt = metrics.load_mot_trajectories(args.gt, camera=args.camera)
    pred = metrics.load_mot_trajectories(args.pred, camera=args.camera)
    _print_summary(metrics.evaluate_mota(gt, pred))
    return 0


def _cmd_eval_mct(args) -> int:
    gt = simkit.load_ground_truth(args.scenario, simkit.load_scenario(args.scenario))
    pred = metrics.load_global_trajectories(args.pred)
    _print_summary(metrics.evaluate_mota(gt, pred))
    return 0


def _print_summary(summary: metrics.MotSummary) -> None:
    _print_results([(label, key, getattr(summary, key), spec) for label, key, spec in (
        ("IDP", "idp", ".4f"), ("IDR", "idr", ".4f"), ("IDF1", "idf1", ".4f"),
        ("MOTA", "mota", ".4f"), ("FP", "fp", ""), ("FN", "fn", ""),
        ("ID switches", "id_switches", ""), ("GT boxes", "num_gt", ""),
    )])


def _print_results(results) -> None:
    """The table of (label, JSON key, value, format spec) rows, then their JSON line."""
    _print_table([(label, format(value, spec)) for label, _, value, spec in results])
    print(json.dumps({key: value for _, key, value, _ in results}, sort_keys=True))


def _read_labels(path):
    """(identity, camera) rows of a label file; a bad row raises MalformedInput."""
    return list(read_csv_rows(path, "identity,camera label", lambda row: (int(row[0]), row[1])))


def _read_reid_side(emb_path, labels_path):
    """Embeddings and their (identity, camera) labels, one label per row."""
    emb = reid.read_embeddings(emb_path)
    labels = _read_labels(labels_path)
    if len(labels) != len(emb):
        raise MalformedInput(
            f"{labels_path}: {len(labels)} labels for the {len(emb)} embeddings of {emb_path}"
        )
    return emb, labels


def _cmd_eval_reid(args) -> int:
    query, q_labels = _read_reid_side(args.query, args.query_labels)
    gallery, g_labels = _read_reid_side(args.gallery, args.gallery_labels)
    if query.shape[1] != gallery.shape[1]:
        raise MalformedInput(
            f"{args.gallery}: embedding dimension {gallery.shape[1]}, "
            f"but {args.query} has {query.shape[1]}"
        )
    if args.rerank:
        dist = reid.k_reciprocal_rerank(
            query, gallery, k1=args.k1, k2=args.k2, lambda_r=args.lambda_r
        )
    else:
        dist = np.linalg.norm(query[:, None, :] - gallery[None, :, :], axis=2)
    mean_ap, cmc1, cmc5 = reid.eval_track_reid(q_labels, g_labels, dist)
    _print_results([("mAP", "mAP", mean_ap, ".4f"), ("CMC@1", "cmc1", cmc1, ".4f"),
                    ("CMC@5", "cmc5", cmc5, ".4f")])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcvt", description="Multi-camera vehicle tracking toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the tracking pipeline")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--scenario", help="scenario directory (shortcut for a default config)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--real-time", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("gen-scenario", help="generate a synthetic scenario directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cams", type=int, default=6)
    p.add_argument("--vehicles", type=int, default=20)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--fps", type=float, default=10.0)
    p.add_argument("--layout", default="corridor", choices=["corridor", "grid"])
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--jitter", type=float, default=0.0, help="box jitter std (px)")
    p.add_argument("--miss", type=float, default=0.0, help="miss rate")
    p.add_argument("--fp-rate", type=float, default=0.0, help="false positives per frame")
    p.add_argument("--sigma", type=float, default=0.0, help="embedding noise std")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_scenario)

    p = sub.add_parser("eval-sct", help="score one camera's tracks against GT")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--camera", default="")
    p.set_defaults(handler=_cmd_eval_sct)

    p = sub.add_parser("eval-mct", help="score global tracks against scenario GT")
    p.add_argument("--scenario", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(handler=_cmd_eval_mct)

    p = sub.add_parser("eval-reid", help="track re-id scores from embedding files")
    p.add_argument("--query", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--gallery-labels", required=True)
    p.add_argument("--rerank", action="store_true")
    p.add_argument("--k1", type=int, default=20)
    p.add_argument("--k2", type=int, default=6)
    p.add_argument("--lambda-r", type=float, default=0.3)
    p.set_defaults(handler=_cmd_eval_reid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, SourceMissing) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except McvtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
