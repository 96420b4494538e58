"""One workload process: set up, signal readiness, run passes, report.

Started by ``run.py`` in a fresh interpreter for every measurement, so each
set-up pays the real import and load cost and no pass inherits caches from
another process.  Prints ``ready <CLOCK_MONOTONIC reading>`` on its own
line once set-up is done, then (unless ``--mode setup``) one JSON object
with the results.  Times are raw CLOCK_MONOTONIC readings and seconds;
``run.py`` turns them into reference seconds with the samples of its
``speed.Sampler``.  Modes:
  setup  set up and exit.
  run    untraced passes over the task list: ``--passes`` of them, or
         when that is 0, as many as fit in ``--seconds`` (at least one).
  trace  one pass with every layer function wrapped in spans; set-up is
         traced too, so ``gamefile.load_game`` is counted.
"""

from __future__ import annotations

import argparse
import copy
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def import_package():
    """Import ``signalgames`` from this checkout's ``src``, never from an
    installed copy elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import signalgames

    where = Path(signalgames.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"signalgames imported from {where}, not from {src}")


def run_pass(task_list, inputs):
    """Run every task on a fresh copy of the inputs; returns the pass's
    start and end and one problem (or None) per task."""
    fresh = copy.deepcopy(inputs)
    problems = []
    began = time.monotonic()
    for task in task_list:
        try:
            problems.append(task.run(fresh))
        except Exception as exc:  # any failure of a task is a failed task
            problems.append(f"{type(exc).__name__}: {exc}")
    return began, time.monotonic(), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    args = parser.parse_args(argv)

    import_package()
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer().install()
        args.passes = 1
    inputs = workloads.make_inputs(args.workload, args.seed, ROOT)
    task_list = workloads.tasks(args.workload)
    result = {"tasks": [task.name for task in task_list], "passes": [], "failures": []}
    # a system-wide clock, so that the parent can time set-up from spawn
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.mode == "setup":
        print(json.dumps(result), flush=True)
        return 0

    began = time.monotonic()
    while True:
        start, end, outcomes = run_pass(task_list, inputs)
        result["passes"].append({"start": start, "end": end})
        if "peak_rss_mb" not in result:  # passes after the first differ only in fragmentation
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["failures"] += [f"{task.name}: {problem}"
                               for task, problem in zip(task_list, outcomes) if problem]
        if args.passes:
            if len(result["passes"]) >= args.passes:
                break
        elif (time.monotonic() - began
              + statistics.median(p["end"] - p["start"] for p in result["passes"])
              > args.seconds):
            break

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, start, end)
    print(json.dumps(result), flush=True)
    return 0


def layer_metrics(tracer, window_start, window_end) -> dict:
    """Flat ``{metric name: value}`` of every layer function, module and
    count, with zeros for layers the pass never reached.  Times are raw
    seconds, the speed sampler's time inside spans included."""
    per_name, per_module = tracer.summarize()
    out = {}
    for name in tracer.layer_names:
        entry = per_name.get(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    for module in tracer.module_names():
        out[f"{module}.self_s"] = per_module.get(module, 0.0)
        out[f"{module}.errors"] = sum(entry["errors"] for name, entry in per_name.items()
                                      if name.startswith(module + "."))
    out.update(tracer.counts)
    c = tracer.counts
    nodes = c["seqform.live_nodes"] + c["seqform.closed_nodes"]
    out["seqform.closed_ratio"] = c["seqform.closed_nodes"] / nodes if nodes else 0.0
    seen = c["reduction.belief_nodes"] + c["reduction.merged"]
    out["reduction.merge_ratio"] = c["reduction.merged"] / seen if seen else 0.0

    _, in_window = tracer.summarize(since=window_start)
    out["trace.wall_s"] = window_end - window_start
    out["trace.hook_s"] = in_window.get("trace", 0.0)
    out["trace.remainder_s"] = out["trace.wall_s"] - sum(in_window.values())
    out["trace.spans"] = len(tracer.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
