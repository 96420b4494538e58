"""Benchmark of the exact solver: one workload, every metric by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from this checkout's ``src``.
Workloads, metric names, units and bounds live in ``BENCHMARK.json`` at the
repository root; ``bench/workloads.py`` says what each workload runs and
how every result is checked.

Every process it starts is pinned to one CPU, beside a ``speed.Sampler``
that times a fixed calibration there every 25 ms.  With ``--trace 0`` it
prints the end-to-end metrics, measured untraced, with times in reference
seconds (wall seconds corrected for the CPU's speed drift, see
``speed.py``; the wall seconds are printed next to them and, as medians, on
the line starting ``wall ``):

  setup_s      median over eleven fresh processes of the time from process
               start to the first timed task: interpreter start, ``import
               signalgames``, the corpus through ``gamefile.load_game`` and
               the seeded inputs;
  wall_s       median over the run's passes of the time to finish the task
               list with every result checked exactly; passes repeat until
               ``--seconds`` would be exceeded, each on fresh copies of the
               inputs;
  peak_rss_mb  peak resident set of the measuring process after its first
               pass.

``failed_frac`` (failed tasks / attempted tasks) is printed, and carried in
the final JSON as ``failed`` and ``attempted``; it is not a bounded metric
because it must be 0.

With ``--trace 1`` it runs one untraced pass and two traced passes, each in
a fresh process, and prints the per-layer metrics of the first traced pass:
calls, self time and counts per module, ``trace.overhead_s`` (traced minus
untraced pass time) and ``trace.remainder_s`` (traced pass time not inside
any layer span or count hook), and of the untraced pass ``wall_raw_s``
(its wall seconds) and ``speed.factor`` (reference seconds per wall
second).  Its times are reference seconds too: every time of a traced pass
is scaled by that pass's reference seconds per wall second, which spreads
the sampler's share of the pass evenly over its spans, so that self times
of the layers, of the hooks and the remainder add up to ``trace.wall_s``.
The run is marked incorrect if the two traced passes disagree on any
count, or if a layer expected on the workload records no calls (or one
expected absent records some).

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 under ``python -O``
(the package's certificates are still ``assert`` statements) and 1 when the
package, the corpus or ``BENCHMARK.json`` is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import COUNT_NAMES
from workloads import layer_problems

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 10           # set-up only processes, besides the measuring one
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def environment(seed: int) -> dict:
    try:
        import gmpy2  # noqa: F401
        gmpy2_present = True
    except ImportError:
        gmpy2_present = False
    return {"python": platform.python_version(), "gmpy2": gmpy2_present,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(ROOT),
            "seed": seed}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it;
    "unknown" outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload, seed, mode, seconds=0, passes=0):
    """Run one worker process; returns ((spawn, ready) CLOCK_MONOTONIC
    readings, result dict)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--passes", str(passes)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"{mode} worker failed with exit code {proc.returncode}")
    return (started, float(lines[0].split()[1])), json.loads(lines[-1])


def timed(sampler, start, end):
    """(wall seconds, reference seconds) of the interval [start, end]."""
    work, calibration = speed.window(sampler.samples, start, end)
    return end - start, speed.reference_seconds(work, calibration)


def untraced(args, spec):
    with speed.Sampler() as sampler:
        # half the set-up probes before the measuring process, half after,
        # so that set-up is sampled at both ends of the run
        runs = [spawn(args.workload, args.seed, "setup") for _ in range(SETUP_PROBES // 2)]
        runs.append(spawn(args.workload, args.seed, "run", seconds=args.seconds))
        result = runs[-1][1]
        runs += [spawn(args.workload, args.seed, "setup")
                 for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups = [timed(sampler, *window) for window, _ in runs]
    passes = [timed(sampler, p["start"], p["end"]) for p in result["passes"]]
    metrics = {"setup_s": statistics.median(ref for _, ref in setups),
               "wall_s": statistics.median(ref for _, ref in passes),
               "peak_rss_mb": result["peak_rss_mb"]}
    attempted = len(passes) * len(result["tasks"])
    wall = {"setup_s": statistics.median(raw for raw, _ in setups),
            "wall_s": statistics.median(raw for raw, _ in passes)}
    notes = [f"setup_s median of {len(setups)} set-ups (reference s / wall s): "
             + " ".join(f"{ref:.4f}/{raw:.4f}" for raw, ref in setups),
             f"wall_s median of {len(passes)} passes of {len(result['tasks'])} tasks "
             "(reference s / wall s): "
             + " ".join(f"{ref:.3f}/{raw:.3f}" for raw, ref in passes),
             "wall " + json.dumps(wall)]
    return metrics, attempted, result["failures"], notes, []


DETERMINISTIC_SUFFIXES = (".calls", ".errors")


def deterministic_counts(layers) -> dict:
    return {k: v for k, v in layers.items()
            if k.endswith(DETERMINISTIC_SUFFIXES) or k in COUNT_NAMES
            or k == "trace.spans"}


def to_reference_seconds(sampler, result) -> None:
    """Scale every time in a traced worker's layers by its pass's
    reference seconds per wall second."""
    wall, ref = timed(sampler, result["passes"][0]["start"], result["passes"][0]["end"])
    layers = result["layers"]
    for name in layers:
        if name.endswith("_s"):
            layers[name] *= ref / wall


def traced(args, spec):
    with speed.Sampler() as sampler:
        _, plain = spawn(args.workload, args.seed, "run", passes=1)
        _, first = spawn(args.workload, args.seed, "trace")
        _, second = spawn(args.workload, args.seed, "trace")
    to_reference_seconds(sampler, first)
    to_reference_seconds(sampler, second)
    layers = first["layers"]
    problems = []
    a, b = deterministic_counts(layers), deterministic_counts(second["layers"])
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    problems += [f"count {k} differs between traced passes: {a.get(k)} vs {b.get(k)}"
                 for k in differ]
    problems += layer_problems(args.workload, lambda name: layers[f"{name}.calls"])
    untraced_raw, untraced_wall = timed(sampler, plain["passes"][0]["start"],
                                        plain["passes"][0]["end"])
    layers["wall_raw_s"] = untraced_raw
    layers["speed.factor"] = untraced_wall / untraced_raw
    layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced_wall
    layers["trace.counts_identical"] = int(not differ)
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] not in layers:
            raise BenchError(f"BENCHMARK.json names unknown per-layer metric {m['name']}")
        metrics[m["name"]] = layers[m["name"]]
    runs = (plain, first, second)
    attempted = sum(len(r["passes"]) * len(r["tasks"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    notes = [f"untraced pass {untraced_wall:.3f} s ({untraced_raw:.3f} wall s), traced passes "
             f"{first['layers']['trace.wall_s']:.3f} s and "
             f"{second['layers']['trace.wall_s']:.3f} s"]
    return metrics, attempted, failures, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Exact-solver benchmark (see the module docstring).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("bench: refusing to run under python -O: the solver's certificate "
              "checks are assert statements and would not run", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "signalgames" / "__init__.py").is_file():
            raise BenchError(f"no signalgames package under {ROOT / 'src'}")
        if not any((ROOT / "games").glob("*.game")):
            raise BenchError(f"no game files under {ROOT / 'games'}")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        print(f"bench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        speed.pin_to_one_cpu()
        measure, listed = ((traced, spec["per_layer"]) if args.trace
                           else (untraced, spec["end_to_end"]))
        metrics, attempted, failures, notes, problems = measure(args, spec)
    except (OSError, ValueError, KeyError, RuntimeError, BenchError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for m in listed:
        print(f"{m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"{'failed_frac':<40} {len(failures) / attempted:>14.6g} ratio "
          f"({len(failures)} of {attempted} tasks)")
    for line in notes + problems + [f"FAILED {f}" for f in failures]:
        print(line)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
