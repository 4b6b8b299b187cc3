"""Smoke check of the benchmark itself, on the tiny ``smoke`` workload
(2 cameras x 3 vehicles x 10 s):

    python3 perfbench/smoke.py

It checks that ``run.py`` prints, with ``--trace 0`` and ``--trace 1``, a
last line holding exactly the metrics that BENCHMARK.json names, each with
its unit; that the output check rejects deliberately corrupted output; and
that a ``global_tracks.csv`` digest which disagrees with an earlier run of
the same workload, seed and program fails the run.  Exits 0 when every check
passes and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def run_bench(trace: int, expect_exit: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != expect_exit:
        raise SystemExit(f"run.py --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_bench(trace)
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            failures.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            failures.append(f"trace {trace}: clean run not correct: {result['attempted']} attempted, "
                            f"{result['failed']} failed")
        expected = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != expected:
            failures.append(f"trace {trace}: metrics differ from BENCHMARK.json {key}: "
                            f"missing {sorted(expected.keys() - printed.keys())}, "
                            f"extra {sorted(printed.keys() - expected.keys())}, "
                            f"units {sorted(n for n in expected if n in printed and printed[n] != expected[n])}")


def check_corruption(failures: list[str]) -> None:
    import run

    run._import_program()
    scenario, _ = run.simkit.load_scenario_dir(run.WORK / "smoke" / "scenario")
    cams, n_frames = scenario.camera_ids, scenario.n_frames
    clean = run.WORK / "smoke" / "out"
    if run.check_output(clean, cams, n_frames):
        failures.append(f"clean output flagged: {run.check_output(clean, cams, n_frames)}")

    def corrupt(label: str, edit) -> None:
        target = run.WORK / "smoke" / "corrupt"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(clean, target)
        edit(target)
        if not run.check_output(target, cams, n_frames):
            failures.append(f"corrupted output passed the check: {label}")
        shutil.rmtree(target)

    def duplicate_camera(out: Path) -> None:
        identities = json.loads((out / "identities.json").read_text())
        first = identities[0]["members"][0]
        identities[0]["members"].append(dict(first, track_id=first["track_id"] + 1000))
        (out / "identities.json").write_text(json.dumps(identities))

    def append_row(row: str):
        def edit(out: Path) -> None:
            with open(out / "global_tracks.csv", "a") as fh:
                fh.write(row + "\n")
        return edit

    corrupt("a duplicated camera within one identity", duplicate_camera)
    corrupt("a row naming an unknown camera", append_row("nocam,0,1,1.0,1.0,10.0,10.0"))
    corrupt("a row naming a frame past the clip", append_row(f"{cams[0]},{n_frames},1,1.0,1.0,10.0,10.0"))


def check_digest_mismatch(failures: list[str]) -> None:
    import run

    log_path = run.WORK / "digests.json"
    saved = log_path.read_text()
    known = json.loads(saved)
    for key in known:
        if key.startswith(f"smoke seed={SEED} "):
            known[key] = "0" * 64
    log_path.write_text(json.dumps(known))
    try:
        result = run_bench(0, expect_exit=1)  # no run passes, so there are no metrics
    finally:
        log_path.write_text(saved)
    if result["correct"] or result["failed"] != result["attempted"]:
        failures.append("a digest differing from an earlier run of the same commit was not flagged")


def main() -> int:
    failures: list[str] = []
    check_metrics(failures)
    check_corruption(failures)
    check_digest_mismatch(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
