"""The benchmark must keep running on this program.

``perfbench/run.py --trace 1`` replaces each ``layer_targets`` entry with a
timing wrapper through ``owner.__dict__[attr]``, so a renamed or deleted
function breaks the trace with a KeyError.  ``perfbench/smoke.py`` runs the
benchmark end to end on a tiny workload in both trace modes, so a config
keyword that ``run.py`` passes and the program no longer takes fails here too.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from mcvt.pipeline import PipelineConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench_run():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
    run._import_program()
    return run


def test_every_layer_target_is_defined_where_it_is_wrapped(bench_run):
    targets = bench_run.layer_targets(PipelineConfig(scenario_dir="unused"))
    missing = [span for owner, attr, span, _ in targets if attr not in owner.__dict__]
    assert targets and missing == []


def test_benchmark_smoke_check_passes():
    # A child process killed after the timeout; it writes only under perfbench/work/.
    done = subprocess.run([sys.executable, str(PERFBENCH / "smoke.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
