"""Measure the baseline: every workload on ten seeds, plus one traced run.

    python3 bench/baseline.py

Runs ``run.py`` once per (workload, seed) with ``--trace 0`` (seeds 1 to
10) and once per workload with ``--trace 1`` (seed 1), sequentially, with
the ``run_seconds`` of ``BENCHMARK.json``.  Writes to ``bench/baseline.json``
every run's metrics and wall-second medians, the median and the quartile
spread (``(q3 - q1) / median``, quartiles as
``statistics.quantiles(values, n=4)``) of each end-to-end metric, and the
per-layer metrics of the traced runs.  Exits 1 if a run fails or is not
correct, or if a spread exceeds its metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
OUT = BENCH / "baseline.json"


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    wall = [json.loads(line[5:]) for line in lines if line.startswith("wall ")]
    return env, wall[0] if wall else None, json.loads(lines[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    report = {"run_seconds": spec["run_seconds"], "end_to_end": {}, "per_layer": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            env, wall, result = run(workload, seed, spec["run_seconds"], 0)
            ok &= result["correct"]
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "wall_seconds": wall,
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            summary[m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                                  "spread": spread(values), "bound": m["bound"]}
            ok &= summary[m["name"]]["spread"] <= m["bound"]
            print(f"{workload:<18} {m['name']:<12} median {summary[m['name']]['median']:.4f} "
                  f"{m['unit']}  spread {summary[m['name']]['spread']:.4f} "
                  f"(bound {m['bound']})", flush=True)
        report["end_to_end"][workload] = {"summary": summary, "runs": runs}
        env, _, result = run(workload, 1, spec["run_seconds"], 1)
        ok &= result["correct"]
        report["per_layer"][workload] = {
            "seed": 1, "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        report["environment"] = {k: v for k, v in env.items() if k != "seed"}
    OUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
