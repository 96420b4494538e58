"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import signalgames  # noqa: E402
from signalgames import claims, gamefile, lp, recursive, reduction, seqform  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, str(BENCH / "run.py")]


def test_nested_spans_self_time_and_unchanged_result():
    plain = lp.solve_matrix_game([[0, F(-1, 2)], [F(-1, 2), F(1, 2)]])
    ticks = itertools.count()
    with tracing.Tracer(clock=lambda: next(ticks)) as tracer:
        got = reduction.solve_matrix_game([[0, F(-1, 2)], [F(-1, 2), F(1, 2)]])
    assert got == plain and got.value == F(-1, 6)
    names = [span[0] for span in tracer.spans]
    assert names == ["lp.solve_matrix_game", "lp.solve_lp", tracing.HOOK_SPAN]
    # solve_matrix_game 0..5 holds solve_lp 1..2 and the count hook 3..4
    assert [span[1:4] for span in tracer.spans] == [(0, 5, -1), (1, 2, 0), (3, 4, 0)]
    per_name, per_module = tracer.summarize()
    assert per_name["lp.solve_matrix_game"]["self_s"] == 3
    assert per_name["lp.solve_lp"]["self_s"] == 1
    assert per_module == {"lp": 4, "trace": 1}
    assert tracer.counts["lp.pivots"] > 0
    # two column rows and the simplex row over (p_0, p_1, v); the zero
    # payoff and v's coefficient in the simplex row are the two zeros
    assert tracer.counts["lp.rows_max"] == 3 and tracer.counts["lp.cols_max"] == 3
    assert tracer.counts["lp.nonzeros"] == 7


def test_summarize_window_and_errors():
    spans = [("a.f", 0, 10, -1, False), ("b.g", 2, 5, 0, True), ("a.f", 20, 24, -1, False)]
    per_name, per_module = tracing.summarize(spans)
    assert per_name["a.f"] == {"calls": 2, "self_s": 11, "errors": 0}
    assert per_name["b.g"] == {"calls": 1, "self_s": 3, "errors": 1}
    assert tracing.summarize(spans, since=20)[1] == {"a": 4}


def test_speed_window_and_reference_seconds():
    samples = [(1.0, 1.1), (2.0, 2.3), (5.0, 5.2)]
    work, calibration = speed.window(samples, 0.5, 3.0)
    # speeds 1/0.1 and 1/0.3 average to 1/0.15
    assert work == pytest.approx(2.1) and calibration == pytest.approx(0.15)
    # no sample inside: the nearest one, and no sampler time to take out
    assert speed.window(samples, 4.0, 4.5) == (0.5, pytest.approx(0.2))
    assert speed.reference_seconds(2.0, speed.REFERENCE_S) == 2.0
    assert speed.reference_seconds(2.0, 2 * speed.REFERENCE_S) == 1.0


@pytest.fixture
def one_cpu():
    cpus = os.sched_getaffinity(0)
    speed.pin_to_one_cpu()
    yield
    os.sched_setaffinity(0, cpus)


def test_sampler_samples_beside_a_busy_process(one_cpu):
    with speed.Sampler() as sampler:
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            pass
    assert len(sampler.samples) >= 10
    assert all(start < end < deadline + 1 for start, end in sampler.samples)


def test_calibration_does_not_follow_the_working_set_beside_it(one_cpu):
    """Phases that read 64 MB at random beside the sampler, interleaved with
    phases whose data fits in a few bytes, leave its calibration alike."""
    big = bytes(range(256)) * (2 ** 18)
    phases = []
    with speed.Sampler() as sampler:
        for churn in (False, True) * 8:
            start, i, acc = time.monotonic(), 0, 0
            while time.monotonic() - start < 0.3:
                for _ in range(1000):
                    i = (i * 1103515245 + 12345) & (len(big) - 1)
                    acc ^= big[i] if churn else i
            phases.append((churn, start, time.monotonic()))
    calibration = {False: [], True: []}
    for churn, start, end in phases:
        calibration[churn].append(speed.window(sampler.samples, start, end)[1])
    ratio = statistics.median(calibration[True]) / statistics.median(calibration[False])
    assert 0.8 < ratio < 1.25, ratio


def test_every_binding_is_wrapped_and_restored():
    modules = tracing.package_modules()
    originals = {id(fn) for _, _, fn in tracing.layer_functions(modules).values()}
    bindings = [(seqform, "solve_lp"), (reduction, "solve_matrix_game"),
                (claims, "solve_matrix_game"), (recursive, "build_auxiliary"),
                (recursive, "solve_backward"), (recursive, "nstage_value"),
                (recursive, "best_response_value"), (signalgames, "load_game")]
    before = [getattr(owner, attr) for owner, attr in bindings]
    with tracing.Tracer():
        for module in modules.values():
            leaked = [attr for attr, value in vars(module).items() if id(value) in originals]
            assert not leaked, (module.__name__, leaked)
        assert all(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in bindings)
        assert hasattr(signalgames.SymmetricGameSpec.expand, "__wrapped__")
    assert [getattr(owner, attr) for owner, attr in bindings] == before
    assert not hasattr(signalgames.SymmetricGameSpec.expand, "__wrapped__")


def test_seeded_inputs_repeat_and_have_fixed_dimensions():
    def snapshot(seed):
        inputs = workloads.make_inputs("kernel-identities", seed, ROOT, workloads.SMALL)
        return ([gamefile.serialize_spec(g) for g in inputs["games"]],
                [(s.table, t.table) for s, t in inputs["strategies"]])

    assert snapshot(5) == snapshot(5)
    assert snapshot(5) != snapshot(6)
    for game in workloads.make_inputs("seqform-lp", 5, ROOT)["games"]:
        assert (len(game.states), len(game.actions1), len(game.actions2),
                len(game.signals1), len(game.signals2)) == (2, 2, 2, 2, 2)
        dists = [game.initial] + list(game.transition.values())
        assert all(len(d) == 2 and sum(d.values()) == 1 and min(d.values()) > 0
                   for d in dists)


def test_mdp_reference_matches_exhaustive_plans():
    """The closed form against every blind action sequence, by hand."""
    step = {("s1", "Top"): {"s1": F(1, 2), "s2": F(1, 2)}, ("s1", "Bottom"): {"0*": 1},
            ("s2", "Top"): {"s2": 1}, ("s2", "Bottom"): {"1*": 1}}
    for n in range(1, 9):
        best = F(0)
        for plan in itertools.product(("Top", "Bottom"), repeat=n):
            dist, total = {"s1": F(1)}, F(0)
            for action in plan:
                total += dist.get("1*", 0)
                nxt = {}
                for x, p in dist.items():
                    for y, q in step.get((x, action), {x: 1}).items():
                        nxt[y] = nxt.get(y, 0) + p * q
                dist = nxt
            best = max(best, total / n)
        assert workloads.mdp_final_remark_value(n) == best, n


@pytest.mark.parametrize("workload", list(workloads.EXPECTED_CALLS))
def test_small_workload_passes_and_reaches_its_layers(workload):
    inputs = workloads.make_inputs(workload, 3, ROOT, workloads.SMALL)
    with tracing.Tracer() as tracer:
        problems = [task.run(inputs) for task in workloads.tasks(workload, workloads.SMALL)]
    assert problems and not any(problems), problems
    per_name, _ = tracer.summarize()
    calls = lambda name: per_name.get(name, {"calls": 0})["calls"]  # noqa: E731
    inputs_only = [n for n in workloads.EXPECTED_CALLS[workload] if n != "gamefile.load_game"]
    assert all(calls(name) for name in inputs_only)
    assert workloads.layer_problems(workload, calls) == [
        f"layer gamefile.load_game expected on {workload} recorded no calls"]


def test_small_workload_reports_a_wrong_value():
    inputs = workloads.make_inputs("seqform-lp", 3, ROOT, workloads.SMALL)
    inputs["corpus"]["bigmatch_nosignals"] = inputs["corpus"]["mdp_final_remark"]
    task = workloads.tasks("seqform-lp", workloads.SMALL)[0]
    assert "bigmatch_nosignals" in task.run(inputs)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(RUN + ["--workload", "kernel-identities", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 30
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.EXPECTED_CALLS)
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_optimized_interpreter():
    proc = subprocess.run([sys.executable, "-O"] + RUN[1:] + [
        "--workload", "seqform-lp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "-O" in proc.stderr and not proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "seqform-lp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "{" not in proc.stdout
