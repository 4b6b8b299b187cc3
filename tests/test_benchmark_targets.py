"""The benchmark's trace wraps mcvt functions by name; every name must still exist.

``perfbench/run.py --trace 1`` replaces each ``layer_targets`` entry with a
timing wrapper through ``owner.__dict__[attr]``, so a renamed or deleted
function breaks the trace with a KeyError.
"""

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
