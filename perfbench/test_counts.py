"""Per-layer counts repeat exactly: two traced runs at one seed agree.

Later changes may rest a count claim (builds, packings, walks, load
reports, ...) on the traced benchmark only because of this.  Each
traced run is its own process, since tracing wraps the package's
functions for the life of the process.

    PYTHONPATH=src python -m pytest -q perfbench/test_counts.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import GRID_WORKLOADS, SRC, child_env  # noqa: E402
from grids import run_child  # noqa: E402
from layers import COUNT_METRICS  # noqa: E402

SEED = 3


def _numpy_missing() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return True
    return False


@pytest.mark.parametrize("workload", sorted(GRID_WORKLOADS))
def test_grid_counts_repeat(workload):
    if GRID_WORKLOADS[workload]["backend"] == "numpy" and _numpy_missing():
        pytest.skip("numpy backend needs numpy")
    first, second = (run_child(workload, SEED, trace=True)["layers"] for _ in range(2))
    assert first["algorithms.build_calls"] > 0
    assert {name: first[name] for name in COUNT_METRICS} == {
        name: second[name] for name in COUNT_METRICS
    }


def test_serve_replay_counts_repeat():
    code = (
        f"import sys, json; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]\n"
        "import serve_mix\n"
        f"runs = serve_mix.traced_replays(serve_mix.make_inputs({SEED}))\n"
        "print(json.dumps([metrics for metrics, _, _ in runs]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
        timeout=300, check=True,
    )
    first, second = json.loads(done.stdout.strip().splitlines()[-1])
    assert first["results.merge_calls"] > 0
    assert {name: first[name] for name in COUNT_METRICS} == {
        name: second[name] for name in COUNT_METRICS
    }
