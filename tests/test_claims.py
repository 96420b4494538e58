import subprocess
import sys
from fractions import Fraction as F

import pytest

from oracles import mdp_nstage_value
from signalgames import corpus, recursive, reduction
from signalgames.claims import (
    FirstSwitchPlan,
    expected_limsup,
    expected_limsup_mixture,
    verify_example,
)
from signalgames.errors import (
    BudgetExceededError,
    CertificateError,
    GameModelError,
    PreconditionError,
)
from signalgames.model import GameSpec, SymmetricGameSpec, as_general
from signalgames.recursive import (
    classify,
    default_schedule,
    extract_eps_optimal,
    uniform_value,
)


def test_expected_limsup_always_T_vs_reply():
    # T forever against (L until 20, then R): half absorbed at -1, half
    # parked in s3 earning 0 -> exactly -1/2
    spec = corpus.build_game("example1_guessing")
    sigma = FirstSwitchPlan("T", "B", None)
    tau = FirstSwitchPlan("L", "R", 21)
    assert expected_limsup(spec, sigma, tau) == F(-1, 2)


def test_expected_limsup_transient_chain():
    """A transient state leading to another: x0 stays with 1/2 and moves
    to x1 with 1/2, and x1 is absorbed at 1 with 1/3 and at 0 with 2/3, so
    the expected limsup from x0 is 1/3, solved through the transient rows
    of the tail system."""
    absorb = {"one*": F(1), "zero*": F(0)}
    moves = {"x0": {"x0": F(1, 2), "x1": F(1, 2)},
             "x1": {"one*": F(1, 3), "zero*": F(2, 3)},
             "one*": {"one*": F(1)}, "zero*": {"zero*": F(1)}}
    spec = GameSpec(
        states=list(moves), actions1=["a"], actions2=["b"], signals1=["s"],
        signals2=["s"], initial={("x0", "s", "s"): F(1)},
        transition={(x, "a", "b"): {(y, "s", "s"): p for y, p in out.items()}
                    for x, out in moves.items()},
        reward={(x, "a", "b"): absorb.get(x, F(0)) for x in moves})
    plan1, plan2 = FirstSwitchPlan("a", "a"), FirstSwitchPlan("b", "b")
    assert expected_limsup(spec, plan1, plan2) == F(1, 3)


def test_expected_limsup_bigmatch_tail_classes():
    spec = corpus.build_game("example3_bigmatch_blind1")
    # B forever vs R forever: payoff 1 every stage, never absorbed
    assert expected_limsup(spec, FirstSwitchPlan("B", "T", None),
                           FirstSwitchPlan("R", "L", None)) == 1
    # B forever vs L forever: payoff 0 forever
    assert expected_limsup(spec, FirstSwitchPlan("B", "T", None),
                           FirstSwitchPlan("L", "R", None)) == 0
    # T at stage 3 vs L forever: absorbed at 1*
    assert expected_limsup(spec, FirstSwitchPlan("B", "T", 3),
                           FirstSwitchPlan("L", "R", None)) == 1


def test_example1_maxmin_bound():
    check = verify_example(1, "maxmin", horizon=20, eps=F(1, 100))
    assert check.ok
    assert check.bound == F(-1, 2)
    # every vertex of the truncated family earns exactly -1/2 here
    assert {v for _, v in check.vertex_values} == {F(-1, 2)}


def test_example1_minmax_bound():
    check = verify_example(1, "minmax", horizon=20, eps=F(1, 100))
    assert check.ok
    assert check.bound == F(1, 2)


def test_example2_minmax_exact_sixth():
    check = verify_example(2, "minmax", horizon=20)
    assert check.ok
    assert check.reduced_matrix == [[F(0), F(-1, 2)], [F(-1, 2), F(1, 2)]]
    assert check.reduced_value == F(-1, 6)


def test_example2_maxmin_bound():
    check = verify_example(2, "maxmin", horizon=20, eps=F(1, 100))
    assert check.ok
    assert check.bound == F(-1, 2)


def test_example3_minmax_even_mix_caps_half():
    check = verify_example(3, "minmax", horizon=20)
    assert check.ok
    assert check.bound == F(1, 2)
    # every first-switch vertex earns exactly 1/2 against the even mix
    assert {v for _, v in check.vertex_values} == {F(1, 2)}


def test_example3_maxmin_reply_zero():
    check = verify_example(3, "maxmin", horizon=20, eps=F(1, 100))
    assert check.ok
    assert check.bound == 0


def test_mixture_evaluation_linear():
    spec = corpus.build_game("example3_bigmatch_blind1")
    plan = FirstSwitchPlan("B", "T", 4)
    mix = [(F(1, 3), FirstSwitchPlan("L", "R", None)),
           (F(2, 3), FirstSwitchPlan("R", "L", None))]
    lhs = expected_limsup_mixture(spec, [(F(1), plan)], mix)
    rhs = (F(1, 3) * expected_limsup(spec, plan, mix[0][1])
           + F(2, 3) * expected_limsup(spec, plan, mix[1][1]))
    assert lhs == rhs


def test_unknown_example_raises():
    with pytest.raises(GameModelError):
        verify_example(4, "maxmin")


@pytest.mark.parametrize("example, side, kwargs, match", [
    (1, "maxmin", {"horizon": 0}, "^horizon must be >= 1"),
    (3, "minmax", {"horizon": -1}, "^horizon must be >= 1"),
    (1, "maxmin", {"horizon": 2.5}, "^horizon must be an integer"),
    (1, "minmax", {"horizon": True}, "^horizon must be an integer"),
    (2, "minmax", {"horizon": 1}, "^horizon must be >= 2 for example 2 minmax"),
    (3, "maxmin", {"eps": 0.01}, "^eps must be"),
    (2, "maxmin", {"eps": "a/b"}, "^eps must be"),
], ids=["zero", "negative", "float", "bool", "example-2-minmax-one-stage",
        "float-eps", "text-eps"])
def test_verify_example_checks_its_inputs(example, side, kwargs, match):
    """A horizon must be an integer >= 1 (>= 2 for example 2 minmax, whose
    probe runs at stage horizon // 2) and eps exact; anything else is a
    PreconditionError.  Horizon 0 used to give a vacuous certificate, 2.5 a
    TypeError, example 2 minmax at horizon 1 a misleading GameModelError,
    and eps 0.01 the binary fraction 5764607523034235/576460752303423488."""
    with pytest.raises(PreconditionError, match=match):
        verify_example(example, side, **kwargs)


# --- recursive solver ------------------------------------------------------


def test_classify_corpus(games):
    c1 = classify(games["example1_guessing"])
    assert c1.is_recursive and not c1.is_nonnegative
    assert {(x, p) for x, p in c1.absorbing} >= {("-2*", F(-2)), ("-1*", F(-1))}

    c3 = classify(games["example3_bigmatch_blind1"])
    assert not c3.is_recursive
    assert ("s", "B", "R", F(1)) in c3.offending

    cm = classify(games["mdp_final_remark"])
    assert cm.is_recursive and cm.is_nonnegative

    cq = classify(games["quitting_game"])
    assert cq.is_recursive and cq.is_nonnegative


def test_uniform_value_guard_example1(games):
    with pytest.raises(PreconditionError) as err:
        uniform_value(games["example1_guessing"], n_max=4)
    assert "negative absorbing payoffs" in str(err.value)


def test_uniform_value_mdp_small():
    spec = corpus.build_game("mdp_final_remark")
    report = uniform_value(spec, n_max=256, tol=F(1, 100), window=3)
    values = [v for _, v in report.value_sequence]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert report.certified_lower >= F(95, 100)
    assert report.route == "reduction-private"
    assert report.eps_optimal_strategy1 is not None
    assert report.player2_cap_at_horizon is not None
    assert report.player2_cap_at_horizon == report.strategy_guarantee


def test_uniform_value_quitting_game():
    sym = corpus.build_game("quitting_game")
    report = uniform_value(sym, n_max=64, tol=F(1, 50), window=3)
    values = dict(report.value_sequence)
    ordered = [v for _, v in report.value_sequence]
    assert all(b >= a for a, b in zip(ordered, ordered[1:]))
    assert report.route == "reduction-public"
    # closed form: quit immediately against an always-jamming opponent
    for n, v in report.value_sequence:
        assert v == F(n - 1, 2 * n), n
    assert report.certified_lower == F(63, 128)
    assert report.eps_optimal_strategy1 is not None


def test_extract_eps_optimal_mdp_shape():
    spec = corpus.build_game("mdp_final_remark")
    report = uniform_value(spec, n_max=256, tol=F(1, 100), window=3)
    result = extract_eps_optimal(spec, report, eps=F(1, 10))
    assert not result.warning
    assert report.certified_lower - result.guarantee <= F(1, 10)
    # plan shape: Top until some stage, then Bottom
    strat = result.strategy
    switched = []
    for view in sorted(strat.table, key=len):
        dist = strat.table[view]
        top = dist.get("Top", F(0))
        assert top in (F(0), F(1))
        switched.append(top == 0)
    assert any(switched), "the plan must eventually play Bottom"
    # certificates: best-response values never fall below the guarantee
    for m, br in result.certificates:
        assert br >= result.guarantee


def _single_chain_game(c):
    """One live state that absorbs at payoff c under every action pair."""
    return SymmetricGameSpec(
        states=["live", "done*"], actions1=["a"], actions2=["b"],
        signals=["o"],
        initial={("live", "o"): F(1)},
        transition={("live", "a", "b"): {("done*", "o"): F(1)},
                    ("done*", "a", "b"): {("done*", "o"): F(1)}},
        reward={("live", "a", "b"): F(0), ("done*", "a", "b"): c},
    )


def _already_absorbed_game(c):
    """Play starts absorbed at payoff c; player 1 has two equal actions."""
    return SymmetricGameSpec(
        states=["done*"], actions1=["a1", "a2"], actions2=["b"],
        signals=["o"],
        initial={("done*", "o"): F(1)},
        transition={("done*", i, "b"): {("done*", "o"): F(1)}
                    for i in ("a1", "a2")},
        reward={("done*", i, "b"): c for i in ("a1", "a2")},
    )


def test_uniform_value_single_chain_closed_form():
    # stage 1 pays nothing, the rest pay c, so v_n = c (n-1)/n exactly
    c = F(5, 7)
    sym = _single_chain_game(c)
    report = uniform_value(sym, n_max=12, schedule=list(range(1, 13)))
    for n, v in report.value_sequence:
        assert v == c * F(n - 1, n), n


def test_uniform_value_already_absorbed_game():
    c = F(2, 3)
    sym = _already_absorbed_game(c)
    report = uniform_value(sym, n_max=8, schedule=list(range(1, 9)))
    assert all(v == c for _, v in report.value_sequence)
    result = extract_eps_optimal(sym, report, eps=F(1, 100))
    # any strategy guarantees c: the extracted one has no forced choices
    assert result.guarantee == c
    assert result.strategy.table == {}


def test_extract_eps_optimal_infeasible_horizon_warns():
    # the quitting game's observed histories are exponential in the
    # horizon, and the strategy tables have one entry per history: with a
    # tight node budget, deep horizons are not extractable and the solver
    # falls back to the best feasible one, with a warning
    sym = corpus.build_game("quitting_game")
    report = uniform_value(sym, n_max=32, tol=F(1, 50), window=3)
    result = extract_eps_optimal(sym, report, eps=F(1, 10 ** 9), budget=3000)
    assert result.warning
    assert result.guarantee <= report.certified_lower


def _per_horizon_values(game, horizons, budget=None):
    """Reference: a merged, pruned build and a backward pass per horizon,
    stopping at the first horizon that does not fit the budget."""
    values = []
    for n in horizons:
        try:
            aux = reduction.build_auxiliary(game, n, budget=budget)
        except BudgetExceededError:
            break
        sol = reduction.solve_backward(aux, payoff=reduction.MEAN,
                                       want_strategies=False)
        values.append((n, sol.value))
    return values


@pytest.mark.parametrize("game, n_max, schedule", [
    (corpus.build_game("mdp_final_remark"), 256, None),
    (corpus.build_game("quitting_game"), 64, None),
    (_single_chain_game(F(5, 7)), 12, list(range(1, 13))),
    (_already_absorbed_game(F(2, 3)), 8, list(range(1, 9))),
], ids=["mdp_final_remark", "quitting_game", "single_chain", "already_absorbed"])
def test_uniform_value_sweep_matches_per_horizon_backward(game, n_max, schedule):
    report = uniform_value(game, n_max=n_max, tol=F(1, 100), window=3,
                           schedule=schedule)
    horizons = schedule or default_schedule(n_max)
    assert report.value_sequence == _per_horizon_values(game, horizons)


@pytest.mark.parametrize("game, n_max, options, closed_form", [
    (corpus.build_game("mdp_final_remark"), 4000, {"tol": F(1, 1000), "window": 3},
     mdp_nstage_value),
    (corpus.build_game("quitting_game"), 1000, {}, lambda n: F(n - 1, 2 * n)),
], ids=["mdp_final_remark", "quitting_game"])
def test_uniform_value_long_sweep_matches_closed_form(game, n_max, options, closed_form):
    """Every value of a long sweep, the extracted strategy's guarantee and
    player 2's cap equal the hand-derived closed form exactly."""
    report = uniform_value(game, n_max=n_max, **options)
    assert [n for n, _ in report.value_sequence] == default_schedule(n_max)
    for n, v in report.value_sequence:
        assert v == closed_form(n), n
    assert report.certified_lower == closed_form(n_max)
    n_star = report.strategy_horizon
    assert report.strategy_guarantee == closed_form(n_star)
    assert report.player2_cap_at_horizon == closed_form(n_star)


def test_uniform_value_budget_prefix_matches_per_horizon_builds():
    # the belief graph to depth n has 1 + 2(n-1) (mdp) or 1 + 3(n-1)
    # (quitting game) level memberships, each charged, so these budgets
    # cut the schedule mid-way
    for game, budget in ((corpus.build_game("mdp_final_remark"), 40),
                         (corpus.build_game("mdp_final_remark"), 23),
                         (corpus.build_game("quitting_game"), 50)):
        report = uniform_value(game, n_max=64, budget=budget)
        expected = _per_horizon_values(game, default_schedule(64), budget)
        assert report.value_sequence == expected
        assert 1 < len(expected) < len(default_schedule(64))
        assert report.budget_hit
    with pytest.raises(BudgetExceededError) as err:
        uniform_value(corpus.build_game("quitting_game"), n_max=64, budget=0)
    assert err.value.level_reached == 1


def test_uniform_value_budget_hit_on_the_sequence_form_route():
    """The per-horizon sequence-form loop sets ``budget_hit`` where the
    budget cuts its schedule, and only there: on a blind quitting game a
    budget of 40 fits horizons 1..4 of 6, and no budget fits all six."""
    g = as_general(corpus.build_game("quitting_game"))
    game = GameSpec(
        states=g.states, actions1=g.actions1, actions2=g.actions2,
        signals1=["o"], signals2=["o"], initial={("go", "o", "o"): F(1)},
        transition={key: {(x2, "o", "o"): p for (x2, _, _), p in dist.items()}
                    for key, dist in g.transition.items()},
        reward=g.reward)
    cut = uniform_value(game, n_max=6, budget=40)
    assert cut.route == "sequence-form"
    assert [n for n, _ in cut.value_sequence] == [1, 2, 3, 4] and cut.budget_hit
    whole = uniform_value(game, n_max=6)
    assert whole.value_sequence[:4] == cut.value_sequence
    assert len(whole.value_sequence) == 6 and not whole.budget_hit


def test_quitting_sweep_solves_one_matrix_game_per_stage_count(monkeypatch):
    """The n_max=64 values take one belief-graph build, one sweep and at most one
    matrix game per stage count (3 beliefs, 2 of them absorbed), and the
    strategies one more build at their horizon.  The sweep needs
    values only, so it decides each game in ``reduction._value``: at its
    saddle entry, or through ``solve_matrix_game``'s LP."""
    real_solve = reduction._value
    real_sweep = recursive.solve_horizons
    real_build = recursive.build_auxiliary
    builds, sweeps, games, active = [], [], [], []

    def counting_solve(matrix):
        if active:
            games.append(matrix)
        return real_solve(matrix)

    def tracked_sweep(aux, horizons):
        sweeps.append(list(horizons))
        active.append(True)
        try:
            return real_sweep(aux, horizons)
        finally:
            active.pop()

    def tracked_build(*args, **kwargs):
        aux = real_build(*args, **kwargs)
        builds.append(args[1])
        return aux

    monkeypatch.setattr(reduction, "_value", counting_solve)
    monkeypatch.setattr(recursive, "solve_horizons", tracked_sweep)
    monkeypatch.setattr(recursive, "build_auxiliary", tracked_build)
    report = uniform_value(corpus.build_game("quitting_game"), n_max=64, tol=F(1, 50),
                           window=3)
    assert [n for n, _ in report.value_sequence] == default_schedule(64)
    assert builds == [64, report.strategy_horizon]
    assert sweeps == [default_schedule(64)]
    assert 0 < len(games) <= 64


def test_extraction_skips_horizons_past_the_first_overflow(monkeypatch):
    """A build to n that overflows overflows at every larger n too, so
    extraction never tries one.  Under budget 500 the first horizon within
    1/20 (n=9) and the largest below it (n=8) overflow and n=7 fits: one
    build each, in that order, for both extraction entry points."""
    real_nstage = recursive._nstage
    built = []

    def tracked(spec, route, n, budget):
        built.append(n)
        return real_nstage(spec, route, n, budget)

    monkeypatch.setattr(recursive, "_nstage", tracked)
    game = corpus.build_game("quitting_game")
    report = uniform_value(game, n_max=64, budget=500)
    assert built == [9, 8, 7]
    assert report.strategy_horizon == 7
    assert report.strategy_eps_achieved == F(57, 896)
    assert report.player2_cap_at_horizon == F(3, 7)
    built.clear()
    result = extract_eps_optimal(game, report, eps=F(1, 100), budget=500)
    assert built == [40, 27, 18, 12, 11, 10, 9, 8, 7]
    assert result.horizon == 7 and result.achieved_eps == F(57, 896)
    assert result.warning.startswith("requested eps 1/100 unattainable")


@pytest.mark.parametrize("kwargs", [
    {"n_max": 0}, {"window": 0}, {"tol": 0}, {"tol": F(-1, 10)},
    {"n_max": 8, "schedule": [0, 1, 2]}, {"n_max": 8, "schedule": [9, 10]},
    # a decreasing schedule would be blamed on the game's monotonicity, and
    # a repeated point would count twice in the ``stabilized`` window
    {"n_max": 10, "schedule": [5, 3]}, {"n_max": 10, "schedule": [3, 3, 5]},
    {"n_max": 10, "schedule": [1, 2.5]}, {"n_max": 10, "schedule": [True, 2]},
    {"n_max": 10, "schedule": [1, 2, 30, 20]},
    {"n_max": -3}, {"n_max": 2.5}, {"n_max": True},
])
def test_uniform_value_rejects_bad_sweep_arguments(kwargs):
    with pytest.raises(PreconditionError):
        uniform_value(corpus.build_game("quitting_game"), **kwargs)
    if set(kwargs) == {"n_max"}:        # the default schedule checks it too
        with pytest.raises(PreconditionError, match="^n_max must be"):
            default_schedule(kwargs["n_max"])


def test_uniform_value_reads_the_schedule_up_to_n_max():
    report = uniform_value(corpus.build_game("quitting_game"), n_max=10,
                           schedule=[1, 3, 10, 11, 40])
    assert report.value_sequence == [(1, F(0)), (3, F(1, 3)), (10, F(9, 20))]


def test_tolerances_are_exact():
    """``tol`` and ``eps`` are exact: an int, a Fraction or a "p/q" string
    gives the Fraction it denotes, and a float, which is binary and so not
    the decimal it was written as, is refused."""
    game = corpus.build_game("quitting_game")
    for tol in (F(1, 100), "1/100"):
        assert uniform_value(game, n_max=8, tol=tol).tol == F(1, 100)
    assert uniform_value(game, n_max=8, tol=1).tol == 1
    for bad in (0.01, "a/b", None):
        with pytest.raises(PreconditionError, match="^tol must be"):
            uniform_value(game, n_max=8, tol=bad)
    report = uniform_value(game, n_max=8, tol=F(1, 100))
    for eps in (F(1, 20), "1/20"):
        assert extract_eps_optimal(game, report, eps).requested_eps == F(1, 20)
    with pytest.raises(PreconditionError, match="^eps must be"):
        extract_eps_optimal(game, report, 0.05)


def test_negative_eps_is_refused():
    """eps = 0 asks for the certified level itself; a negative eps asks for
    more than it and is refused, like a tol <= 0."""
    game = corpus.build_game("quitting_game")
    report = uniform_value(game, n_max=12)
    for eps in (F(-1, 10), -1, "-1/1000"):
        with pytest.raises(PreconditionError, match=r"^eps must be >= 0"):
            extract_eps_optimal(game, report, eps)
    result = extract_eps_optimal(game, report, 0)
    assert (result.requested_eps, result.horizon) == (0, 12)
    assert result.guarantee == report.certified_lower and not result.warning


def test_forged_certificates_raise_certificate_error(monkeypatch):
    spec = corpus.build_game("mdp_final_remark")
    report = uniform_value(spec, n_max=16, tol=F(1, 100), window=3)
    monkeypatch.setattr(recursive, "best_response_value",
                        lambda *args, **kwargs: F(-1))
    with pytest.raises(CertificateError, match="guarantees"):
        uniform_value(spec, n_max=16, tol=F(1, 100), window=3)
    with pytest.raises(CertificateError, match="monotone guarantee"):
        extract_eps_optimal(spec, report, eps=F(1, 10))


FORGED_DECREASING = """
from fractions import Fraction as F
from types import SimpleNamespace
from signalgames import corpus, recursive, supvalue
from signalgames.errors import CertificateError
assert False, 'asserts were not stripped'
recursive.solve_horizons = lambda aux, horizons: {n: F(1, n) for n in horizons}
try:
    recursive.uniform_value(corpus.build_game("mdp_final_remark"), n_max=4)
except CertificateError as err:
    print('uniform rejected:', err)
supvalue.nstage_value = lambda *args: SimpleNamespace(value=F(1, args[1]))
try:
    supvalue.sup_value_lowerbounds(corpus.build_game("example3_bigmatch_blind1"), 3)
except CertificateError as err:
    print('sup rejected:', err)
"""


def test_forged_decreasing_values_rejected_under_optimize():
    result = subprocess.run([sys.executable, "-O", "-c", FORGED_DECREASING],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["uniform rejected",
                                                      "sup rejected"]
