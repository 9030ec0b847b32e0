"""Shared helpers: checkout paths, workload inputs, statistics, provenance.

Everything here is importable without the package under test, so
``run.py`` can refuse to run (exit 2, no result line) in a directory
that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: per-run scratch space (stores, journals), removed when a run ends
WORK_DIR = ROOT / ".perfbench-work"

#: input seeds ``pin.py`` records by default (``grid-arborescence``, whose
#: naive reference takes ~13 minutes a seed, is pinned for fewer)
INPUT_SEEDS = 16

GRID_WORKLOADS = {
    "grid-mixed": {
        "topologies": ["ring(12)", "grid(3,4)", "hypercube(3)", "complete(6)", "torus(3,4)"],
        "schemes": None,
        "models": ["random:samples=60,seed={seed}"],
        "backend": "engine",
        "reference": "grid-mixed",
    },
    "grid-mixed-numpy": {
        "topologies": ["ring(12)", "grid(3,4)", "hypercube(3)", "complete(6)", "torus(3,4)"],
        "schemes": None,
        "models": ["random:samples=60,seed={seed}"],
        "backend": "numpy",
        # identical inputs: the numpy backend must reproduce grid-mixed
        "reference": "grid-mixed",
    },
    "grid-arborescence": {
        "topologies": ["fattree(4)", "torus(5,5)"],
        "schemes": ["arborescence"],
        "models": [
            "random:samples=10,seed={seed}",
            "iid:p=0.05,samples=200,seed={seed}",
        ],
        "backend": "engine",
        "reference": "grid-arborescence",
    },
}

WORKLOADS = (*GRID_WORKLOADS, "serve-mix")


def reference_path(name: str) -> pathlib.Path:
    return BENCH_DIR / f"reference-{name}.json"


def load_reference(workload: str, seed: int) -> tuple[int, dict, list[str]]:
    """(input seed, pinned digests, note-free cells) a benchmark ``--seed`` selects.

    The seed picks one of the reference's naive-checked input seeds.
    """
    name = GRID_WORKLOADS[workload]["reference"] if workload in GRID_WORKLOADS else workload
    entry = json.loads(reference_path(name).read_text())
    seeds = sorted(entry["cells"], key=int)
    chosen = seeds[seed % len(seeds)]
    return int(chosen), entry["cells"][chosen], entry.get("note_free", {}).get(chosen, [])


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # fixed hashing: per-layer counts must repeat exactly between runs
    env["PYTHONHASHSEED"] = "0"
    return env


def make_work_dir() -> pathlib.Path:
    WORK_DIR.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(dir=WORK_DIR))


def remove_work_dir(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another run still uses it


# -- record digests -----------------------------------------------------------


def digest(data) -> str:
    """Short sha256 of ``data``'s canonical JSON."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def cell_key(topology: str, scheme: str, failure_model: str) -> str:
    return f"{topology}|{scheme}|{failure_model}"


def group_cells(record_dicts: list[dict]) -> dict[str, list[dict]]:
    """Records grouped by grid cell (topology, scheme, failure model).

    ``run_grid`` emits a cell's records together; the failure-model
    independent ``table_space`` record (empty ``failure_model``) closes
    the first cell of its (topology, scheme), so it joins that cell.
    """
    cells: dict[str, list[dict]] = {}
    current = None
    for record in record_dicts:
        model = record["failure_model"]
        if model == "" and current is not None and current[:2] == (
            record["topology"],
            record["scheme"],
        ):
            model = current[2]
        current = (record["topology"], record["scheme"], model)
        cells.setdefault(cell_key(*current), []).append(record)
    return cells


# -- sampling and statistics ---------------------------------------------------

#: every median has company: a run takes at least this many samples
MIN_SAMPLES = 3
#: share of a run's budget spent on set-up-only starts, which make
#: ``setup_s`` (the fastest start of the run) a minimum over many starts
SETUP_SHARE = 0.2


def collect(budget: float, take, cost) -> list:
    """``take(index)`` repeatedly until the next sample would overrun.

    A sample starts only if ``budget`` seconds should not have passed by
    the time it ends, judged by the median ``cost(sample)`` so far.
    """
    samples: list = []
    started = time.monotonic()
    while True:
        typical = statistics.median([cost(sample) for sample in samples]) if samples else 0.0
        if len(samples) >= MIN_SAMPLES and time.monotonic() - started + typical > budget:
            return samples
        samples.append(take(len(samples)))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


# -- provenance ---------------------------------------------------------------


def _git(*args) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    """sha256 over ``src/**/*.py``: identifies the code outside git too."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


def provenance(workload: str, seed: int, trace: bool) -> dict:
    commit = dirty = None
    # only trust git when the checkout itself is the repository root
    if _git("rev-parse", "--show-toplevel") == str(ROOT):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no", "--", "src")
        dirty = None if status is None else bool(status)
    versions = {"python": platform.python_version()}
    for name in ("numpy", "networkx"):
        try:
            versions[name] = __import__(name).__version__
        except ImportError:
            versions[name] = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source_digest(),
        "versions": versions,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "executable": pathlib.Path(sys.executable).name,
    }
