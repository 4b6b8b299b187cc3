"""Benchmark workloads: scenario sizes, the shared noise profile, generation.

Every workload is one synthetic scenario from ``mcvt.simkit`` written to disk
from a seed; the pipeline then reads only that directory.  Run this file as a
script to generate the scenario in a separate process, so that generation
counts neither in the timed runs nor in the measuring process's peak memory:

    python3 perfbench/workloads.py <workload> <seed> <out_dir>
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FPS = 10.0
# The ROADMAP baseline profile: jitter 2 px, miss rate 0.1, embedding sigma 0.25.
NOISE = {"box_jitter_std": 2.0, "miss_rate": 0.1, "embedding_noise_std": 0.25}


@dataclass(frozen=True)
class Workload:
    layout: str
    n_cams: int
    n_vehicles: int
    duration_s: float


WORKLOADS = {
    # The acceptance-test corridor: sparse traffic, per-frame fixed costs
    # (Kalman, preparation, orchestration) weigh most; tiny association
    # matrices and a cheap supervisor.
    "corridor-accept": Workload("corridor", 6, 50, 120.0),
    # Dense corridor at the arrival rate of the 6 x 300 x 180 s scenario (one
    # vehicle per direction about every second), cut to 60 s so that a run
    # fits the benchmark's time budget: association and gating dominate.
    "corridor-dense": Workload("corridor", 6, 100, 60.0),
    # Many lightly loaded cameras: supervisor ticks over hundreds of
    # candidates set the tick tail, and scoring is heavy.
    "grid-city": Workload("grid", 25, 200, 45.0),
    # Tiny scenario for the benchmark's own smoke check (perfbench/smoke.py).
    "smoke": Workload("corridor", 2, 3, 10.0),
}


def generate(name: str, seed: int, out_dir) -> None:
    """Write the named workload's scenario for ``seed`` to ``out_dir``."""
    from mcvt import simkit

    w = WORKLOADS[name]
    scenario, gt = simkit.gen_scenario(
        seed=seed,
        n_cams=w.n_cams,
        n_vehicles=w.n_vehicles,
        duration_s=w.duration_s,
        fps=FPS,
        layout=w.layout,
    )
    streams = simkit.render_detections(scenario, gt, simkit.NoiseProfile(**NOISE))
    simkit.write_scenario_dir(scenario, gt, streams, out_dir)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: workloads.py <workload> <seed> <out_dir>")
    sys.path.insert(0, str(SRC))
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
