"""Run every workload over ten seeds and record ``baseline.json``.

    python3 perfbench/baseline.py [--workloads grid-mixed,serve-mix] [--seeds 0-9]

For each workload: one untraced ``run.py`` per seed, then one traced run
at the first seed.  Prints each end-to-end metric's median, quartiles
and spread (interquartile distance / median) against the bound in
``BENCHMARK.json``, and writes them with the traced per-layer
attribution to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import BENCH_DIR, ROOT, WORKLOADS, provenance, quartiles
from pin import parse_seeds


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("result "))[7:])
    return json.loads(lines[-1]), report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    baseline = {
        "provenance": provenance("all", seeds[0], False),
        "run_seconds": config["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, config["run_seconds"], False) for seed in seeds]
        entry = {"correct": all(final["correct"] for final, _ in runs), "end_to_end": {}}
        for name in bounds:
            values = [final["metrics"][name]["value"] for final, _ in runs]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2
            entry["end_to_end"][name] = {
                "median": q2, "q1": q1, "q3": q3, "spread": spread,
                "unit": runs[0][0]["metrics"][name]["unit"],
                "samples_per_run": [report["samples"] for _, report in runs],
            }
            worst = max(worst, spread / bounds[name])
            flag = "ok" if spread < bounds[name] / 3 else "SPREAD"
            print(
                f"{workload:18} {name:12} median {q2:10.4f} q1 {q1:10.4f} q3 {q3:10.4f}"
                f" spread {spread:6.3f} {flag}",
                flush=True,
            )
        traced, report = run(workload, seeds[0], config["run_seconds"], True)
        entry["correct"] = entry["correct"] and traced["correct"]
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["traced_checks"] = report["checks"]
        entry["details"] = [report["details"] for _, report in runs]
        print(f"{workload:18} correct={entry['correct']} checks={report['checks']}", flush=True)
        baseline["workloads"][workload] = entry
    print(f"largest spread / bound: {worst:.3f}")
    out = BENCH_DIR / "baseline.json"
    out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"baseline written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
