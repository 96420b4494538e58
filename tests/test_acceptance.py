"""Acceptance suite: the package's exit criteria, one test per criterion.

Every numeric assertion is exact rational equality unless the criterion
itself states a threshold.  Each test prints one line so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from oracles import bruteforce_mean_value, matrix_reply_value
from randgen import random_game, random_strategy, random_symmetric_game
from signalgames import corpus
from signalgames.cli import main as cli_main
from signalgames.errors import PreconditionError
from signalgames.histories import build_trees, conditional_check, exact_play_distribution
from signalgames.lp import solve_matrix_game
from signalgames.rationals import ZERO
from signalgames.recursive import uniform_value
from signalgames.reduction import MEAN as RED_MEAN
from signalgames.reduction import build_auxiliary, lift_payoff, solve_backward
from signalgames.seqform import nstage_value
from signalgames.supvalue import sup_lower_bound, sup_value_lowerbounds
from signalgames.claims import verify_example


def _report(num, title, detail, elapsed, limit):
    line = (f"ACCEPTANCE {num} [{title}]: PASS — {detail} "
            f"({elapsed:.1f}s, limit {limit}s)")
    print(line)
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"


def test_criterion_1_exact_matrix_value():
    start = time.perf_counter()
    matrix = [[F(0), F(-1, 2)], [F(-1, 2), F(1, 2)]]
    sol = solve_matrix_game(matrix)
    assert sol.value == F(-1, 6)
    # optimal mixes certified by exact best-response inequalities
    assert matrix_reply_value(matrix, sol.row_strategy, "row") == F(-1, 6)
    assert matrix_reply_value(matrix, sol.col_strategy, "col") == F(-1, 6)
    sol.check(matrix)
    _report(1, "exact matrix value",
            f"value {sol.value}, mixes {sol.row_strategy}/{sol.col_strategy}",
            time.perf_counter() - start, 1)


def test_criterion_2_kernel_identities():
    start = time.perf_counter()
    rng = random.Random(20240801)
    games_checked = 0
    pairs_checked = 0
    for seed in range(100):
        spec = random_game(seed, n_states=2, n_actions=2, n_signals=2)
        pair = build_trees(spec, 4)
        sigma = random_strategy(rng, spec, 1, 4)
        tau = random_strategy(rng, spec, 2, 4)
        for m in range(1, 5):
            for n in range(1, m + 1):
                report = conditional_check(pair, sigma, tau, n, m)
                assert report.all_exact, (seed, n, m)
                assert report.max_discrepancy == 0
                pairs_checked += report.checked_pairs
        games_checked += 1
    assert games_checked == 100
    _report(2, "kernel identities",
            f"100 games, {pairs_checked} (history, observation) pairs exact",
            time.perf_counter() - start, 120)


def test_criterion_3_transfer_identity(symmetric_games):
    start = time.perf_counter()
    rng = random.Random(7141)
    specs = list(symmetric_games.values())
    specs += [random_symmetric_game(seed) for seed in range(20)]
    games_checked = 0
    for sym in specs:
        spec = sym.expand()
        N = 4
        pair = build_trees(spec, N)
        f = {h: F(rng.randint(-8, 8), rng.randint(1, 4))
             for h in pair.histories(N)}
        fhat = lift_payoff(pair, f)
        for _ in range(20):
            sigma = random_strategy(rng, spec, 1, N)
            tau = random_strategy(rng, spec, 2, N)
            dist = exact_play_distribution(pair, sigma, tau, N)
            lhs = sum((p * f[h] for h, p in dist.probs.items()), ZERO)
            rhs = sum((p * fhat[v.view()]
                       for v, p in dist.observed_marginal().items()), ZERO)
            assert lhs == rhs
        games_checked += 1
    _report(3, "transfer identity",
            f"{games_checked} symmetric games x 20 strategy pairs, all exact",
            time.perf_counter() - start, 120)


def test_criterion_4_reduction_equivalence(symmetric_games):
    start = time.perf_counter()
    checked = []
    for name, sym in symmetric_games.items():
        for n in range(1, 5):
            aux = build_auxiliary(sym, n)
            back = solve_backward(aux, payoff=RED_MEAN, want_strategies=False)
            seq = nstage_value(sym, n)
            assert back.value == seq.value, (name, n)
        for n in (1, 2):
            brute = bruteforce_mean_value(sym.expand(), n)
            assert brute is not None and brute == nstage_value(sym, n).value
        checked.append(name)
    _report(4, "reduction equivalence",
            f"{checked}: backward induction == sequence form (N<=4) == "
            "pure-strategy enumeration (N<=2)",
            time.perf_counter() - start, 300)


def test_criterion_5_bigmatch_values():
    start = time.perf_counter()
    spec = corpus.build_game("bigmatch_nosignals")
    values = [nstage_value(spec, n).value for n in range(1, 7)]
    assert values == [F(1, 2)] * 6
    _report(5, "Big Match values", "mean-n value 1/2 for n = 1..6",
            time.perf_counter() - start, 60)


def test_criterion_6_example_gaps():
    start = time.perf_counter()
    eps = F(1, 100)
    c = verify_example(1, "maxmin", 20, eps)
    assert c.ok and c.bound <= F(-1, 2) + eps
    c = verify_example(1, "minmax", 20, eps)
    assert c.ok and c.bound >= F(1, 2) - eps
    c = verify_example(2, "minmax", 20, eps)
    assert c.ok and c.reduced_value == F(-1, 6)
    c = verify_example(2, "maxmin", 20, eps)
    assert c.ok and c.bound <= F(-1, 2) + eps
    c = verify_example(3, "minmax", 20, eps)
    assert c.ok and c.bound <= F(1, 2)
    c = verify_example(3, "maxmin", 20, eps)
    assert c.ok and c.bound <= eps
    _report(6, "example gaps",
            "all reply constructions certified at N=20, eps=1/100",
            time.perf_counter() - start, 120)


def test_criterion_7_sup_monotone_scheme():
    start = time.perf_counter()
    for name in corpus.NAMES:
        report = sup_value_lowerbounds(corpus.build_game(name), 4,
                                       compute_upper=False)
        values = [v for _, v in report.values]
        assert all(b >= a for a, b in zip(values, values[1:])), name
    for seed in range(8):
        report = sup_value_lowerbounds(random_game(seed), 4, compute_upper=False)
        values = [v for _, v in report.values]
        assert all(b >= a for a, b in zip(values, values[1:])), seed
    v100 = sup_lower_bound(corpus.build_game("example3_bigmatch_blind1"), 100)
    assert v100 == F(100, 101)
    assert v100 >= F(99, 100)
    _report(7, "sup monotone scheme",
            f"nondecreasing everywhere; Big Match variant v(F_100) = {v100} >= 0.99",
            time.perf_counter() - start, 120)


def test_criterion_8_recursive_uniform_value():
    start = time.perf_counter()
    spec = corpus.build_game("mdp_final_remark")
    sched = list(range(1, 13)) + [18, 27, 40, 60, 90, 135, 200, 300, 450,
                                  675, 1012, 1518, 2277, 3415, 5122, 7683,
                                  11524, 12800, 14400, 16200, 18000]
    report = uniform_value(spec, tol=F(1, 1000), n_max=18000, window=3,
                           schedule=sched)
    values = [v for _, v in report.value_sequence]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert report.stabilized
    assert report.certified_lower >= 1 - F(1, 1000)
    with pytest.raises(PreconditionError):
        uniform_value(corpus.build_game("example1_guessing"), n_max=4)
    _report(8, "recursive uniform value",
            f"MDP certified lower bound {float(report.certified_lower):.6f} "
            ">= 0.999 at stabilization; guessing game refused",
            time.perf_counter() - start, 60)


def test_criterion_9_verify_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for run in (1, 2):
        csv = tmp_path / f"report{run}.csv"
        js = tmp_path / f"report{run}.json"
        code = cli_main(["verify-paper", "--csv", str(csv), "--json", str(js)])
        assert code == 0
        outputs.append((csv.read_bytes(), js.read_bytes()))
    assert outputs[0] == outputs[1]
    golden = Path(__file__).parent / "golden"
    assert outputs[0] == ((golden / "verify_paper.csv").read_bytes(),
                          (golden / "verify_paper.json").read_bytes())
    _report(9, "determinism",
            "verify-paper run twice: byte-identical CSV and JSON reports, "
            "equal to the recorded ones",
            time.perf_counter() - start, 600)
