import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import signalgames.lp as lp_module
from oracles import matrix_reply_value
from randgen import dense_lp, random_lp
from signalgames import corpus, reduction, seqform, supvalue
from signalgames.errors import LPError
from signalgames.lp import (
    EQ,
    GEQ,
    INFEASIBLE,
    LEQ,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MatrixGameSolution,
    _integer_row,
    _matrix,
    _saddle,
    _verify_optimal,
    solve_lp,
    solve_matrix_game,
)


def test_lp_trivial_bound():
    # maximize v s.t. v <= 0, v <= 1  ->  0
    lp = LinearProgram(
        objective=[F(1)],
        rows=[{0: F(1)}, {0: F(1)}],
        senses=[LEQ, LEQ],
        rhs=[F(0), F(1)],
        free=frozenset({0}),
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == 0


def test_lp_degenerate_redundant_equalities_terminates():
    # Redundant equalities and a degenerate vertex; Bland's rule must not cycle.
    lp = LinearProgram(
        objective=[F(3), F(2), F(1)],
        rows=[
            {0: F(1), 1: F(1), 2: F(1)},
            {0: F(2), 1: F(2), 2: F(2)},      # redundant copy
            {0: F(1)},
            {1: F(1), 2: F(1)},               # ties the first row at the optimum
        ],
        senses=[EQ, EQ, LEQ, LEQ],
        rhs=[F(1), F(2), F(1), F(0)],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == 3
    assert sol.primal[0] == 1 and sol.primal[1] == 0 and sol.primal[2] == 0


def test_lp_infeasible_certificate():
    # x >= 2 and x <= 1 is infeasible.
    lp = LinearProgram(
        objective=[F(0)],
        rows=[{0: F(1)}, {0: F(1)}],
        senses=[GEQ, LEQ],
        rhs=[F(2), F(1)],
    )
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE
    y = sol.certificate
    # Farkas: sign pattern, nonpositive combination over columns, positive rhs.
    assert y[0] >= 0 and y[1] <= 0
    assert y[0] * 1 + y[1] * 1 <= 0
    assert y[0] * 2 + y[1] * 1 > 0


def test_lp_unbounded_ray():
    lp = LinearProgram(
        objective=[F(1), F(0)],
        rows=[{0: F(-1), 1: F(1)}],
        senses=[LEQ],
        rhs=[F(1)],
    )
    sol = solve_lp(lp)
    assert sol.status == UNBOUNDED
    d = sol.certificate
    # improving ray: objective strictly increases, all rows stay feasible
    assert d[0] * 1 + d[1] * 0 > 0
    assert -d[0] + d[1] <= 0
    assert all(v >= 0 for v in d)


def test_lp_duals_certify():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> vertex (8/5, 6/5), value 14/5.
    lp = LinearProgram(
        objective=[F(1), F(1)],
        rows=[{0: F(1), 1: F(2)}, {0: F(3), 1: F(1)}],
        senses=[LEQ, LEQ],
        rhs=[F(4), F(6)],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == F(14, 5)
    assert sol.primal == [F(8, 5), F(6, 5)]
    # dual objective equals primal objective (strong duality, exact)
    assert sol.duals[0] * 4 + sol.duals[1] * 6 == F(14, 5)


def test_matrix_game_paper_two_by_two():
    sol = solve_matrix_game([[F(0), F(-1, 2)], [F(-1, 2), F(1, 2)]])
    assert sol.value == F(-1, 6)
    assert sol.row_strategy == [F(2, 3), F(1, 3)]
    assert sol.col_strategy == [F(2, 3), F(1, 3)]


def test_matrix_game_one_by_one():
    sol = solve_matrix_game([[F(7, 3)]])
    assert sol.value == F(7, 3)
    assert sol.row_strategy == [1] and sol.col_strategy == [1]


def test_matrix_game_coordination():
    sol = solve_matrix_game([[F(1), F(0)], [F(0), F(1)]])
    assert sol.value == F(1, 2)
    assert sol.row_strategy == [F(1, 2), F(1, 2)]
    assert sol.col_strategy == [F(1, 2), F(1, 2)]


def test_matrix_game_transpose_duality():
    rng = random.Random(7)
    for _ in range(25):
        m = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
             for _ in range(2)]
        v = solve_matrix_game(m).value
        mt = [[-m[r][c] for r in range(2)] for c in range(3)]
        assert solve_matrix_game(mt).value == -v


def test_matrix_game_constant_shift():
    rng = random.Random(11)
    for _ in range(25):
        m = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)]
             for _ in range(3)]
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        v = solve_matrix_game(m).value
        shifted = [[e + c for e in row] for row in m]
        assert solve_matrix_game(shifted).value == v + c


def _random_scaling_cases(rng):
    """Integer matrices: one row, one column, saddle-free 2x2 and 3x3, and
    ones drawn from {0, 1, 2}, so tied entries occur."""
    def draw(rows, cols, lo, hi):
        return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]

    def saddle_free(size):
        while True:
            m = draw(size, size, -9, 9)
            if max(map(min, m)) != min(map(max, zip(*m))):
                return m

    cases = []
    for _ in range(15):
        cases.append(draw(1, rng.randint(1, 5), -9, 9))
        cases.append(draw(rng.randint(2, 5), 1, -9, 9))
        cases.append(saddle_free(2))
        cases.append(saddle_free(3))
        cases.append(draw(rng.randint(1, 4), rng.randint(1, 4), 0, 2))
    return cases


def test_matrix_game_scale_invariance():
    """solve_matrix_game(c M) has value c v and ``repr``-identical row and
    column strategies for every positive integer or rational c: Bland's
    rule, the ratio test's lowest-index tie-break and the vector games'
    lowest-index picks do not see a positive scaling.  Backward induction
    relies on this when it solves integer stage matrices scaled by
    D**(k-1) L s."""
    rng = random.Random(13)
    scales = [F(2), F(7), F(3 ** 40), F(1, 3), F(5, 12), F(2 ** 70, 3 ** 5)]
    lp_games = 0
    for m in _random_scaling_cases(rng):
        sol = solve_matrix_game(m)
        lp_games += len(m) > 1 and len(m[0]) > 1 and len(set(sol.row_strategy)) > 1
        for c in scales:
            scaled = solve_matrix_game([[c * e for e in row] for row in m])
            assert scaled.value == c * sol.value, (m, c)
            assert repr(scaled.row_strategy) == repr(sol.row_strategy), (m, c)
            assert repr(scaled.col_strategy) == repr(sol.col_strategy), (m, c)
    assert lp_games >= 30, lp_games


def _bruteforce_value_3x3(m):
    """Grid search over coarse mixed strategies; lower/upper sandwich."""
    grid = [F(a, 8) for a in range(9)]
    mixes = [(p, q, 1 - p - q) for p in grid for q in grid if p + q <= 1]
    lower = max(min(sum(mix[r] * m[r][c] for r in range(3)) for c in range(3))
                for mix in mixes)
    upper = min(max(sum(mix[c] * m[r][c] for c in range(3)) for r in range(3))
                for mix in mixes)
    return lower, upper


def test_matrix_game_dominated_row_and_bruteforce_sandwich():
    rng = random.Random(3)
    for _ in range(10):
        m = [[F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3)]
             for _ in range(3)]
        sol = solve_matrix_game(m)
        lower, upper = _bruteforce_value_3x3(m)
        assert lower <= sol.value <= upper
        # add a strictly dominated extra row: value unchanged
        dominated = [min(m[r][c] for r in range(3)) - 1 for c in range(3)]
        assert solve_matrix_game(m + [dominated]).value == sol.value


def test_matrix_game_guarantees_hold_exactly():
    rng = random.Random(19)
    for _ in range(20):
        rows_n = rng.randint(1, 4)
        cols_n = rng.randint(1, 4)
        m = [[F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(cols_n)]
             for _ in range(rows_n)]
        sol = solve_matrix_game(m)
        # min over columns of row-mix payoff == value == max over rows of col-mix
        assert matrix_reply_value(m, sol.row_strategy, "row") == sol.value
        assert matrix_reply_value(m, sol.col_strategy, "col") == sol.value


def test_matrix_reply_value_examples():
    assert matrix_reply_value([[F(1), F(0)], [F(0), F(1)]],
                              [F(1, 2), F(1, 2)], "row") == F(1, 2)
    assert matrix_reply_value([[F(0), F(-1, 2)], [F(-1, 2), F(1, 2)]],
                              [F(1), F(0)], "row") == F(-1, 2)
    assert matrix_reply_value([[F(0), F(-1, 2)], [F(-1, 2), F(1, 2)]],
                              [F(2, 3), F(1, 3)], "row") == F(-1, 6)


def test_matrix_game_rejects_malformed():
    with pytest.raises(LPError, match="nonempty"):
        solve_matrix_game([])
    with pytest.raises(LPError, match="rectangular"):
        _matrix([[F(1)], [F(1), F(2)]])
    half = [F(1, 2), F(1, 2)]
    with pytest.raises(LPError, match="rectangular"):
        MatrixGameSolution(F(1, 2), half, half).check([[F(1), F(0)], [F(0)]])


_small_rationals = st.builds(F, st.integers(-2, 2), st.integers(1, 2))


def _matrices(entries):
    return st.integers(1, 4).flatmap(lambda cols: st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_matrices(_small_rationals), _matrices(st.integers(-2, 2))))
@example([[F(1), F(0)], [F(0), F(1)]])
@example([[F(0), F(0)], [F(0), F(0)]])
@example([[1, 0], [0, 1]])
@example([[0, 0], [0, 0]])
@example([[2, 7, -1]])
def test_matrix_game_value_matches_solve_matrix_game(matrix):
    """The sweep's value-only solve ``reduction._value`` on saddle games
    (``max min == min max``) and games without a saddle, ties included,
    over int matrices, the sweep's stage games, and over Fraction ones,
    where an LP value entered a stage game: it returns the LP's value
    exactly.  A saddle's value is its entry as given, an int in an int
    matrix, and so is a one-row or one-column game's in
    ``solve_matrix_game``; an LP value is a Fraction."""
    got = reduction._value(matrix)
    sol = solve_matrix_game(matrix)
    assert got == sol.value
    exact = int if type(matrix[0][0]) is int else F
    saddle = max(map(min, matrix)) == min(map(max, zip(*matrix)))
    vector = len(matrix) == 1 or len(matrix[0]) == 1
    assert type(got) is (exact if saddle else F)
    assert type(sol.value) is (exact if vector else F)


def _count_lp_calls(monkeypatch):
    calls = []
    real = lp_module.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp_module, "solve_lp", counted)
    return calls


def test_matrix_game_value_without_saddle_runs_the_lp_once(monkeypatch):
    """``reduction._value`` hands a game without a saddle to one LP."""
    calls = _count_lp_calls(monkeypatch)
    assert reduction._value([[1, 0], [0, 1]]) == F(1, 2)
    assert len(calls) == 1


def test_value_without_saddle_validates_only_in_solve_matrix_game(monkeypatch):
    """A game without a saddle reaches ``lp._matrix`` once, at the entry of
    ``solve_matrix_game``: the certificate runs on the matrix validated
    there, and ``reduction._value`` validates nothing itself."""
    calls = []
    real = lp_module._matrix

    def counted(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(lp_module, "_matrix", counted)
    assert reduction._value([[1, 0], [0, 1]]) == F(1, 2)
    assert len(calls) == 1


def test_matrix_game_value_saddle_runs_no_lp(monkeypatch):
    """``reduction._value`` decides a saddle game at its entry, no LP."""
    calls = _count_lp_calls(monkeypatch)
    monkeypatch.setattr(reduction, "solve_matrix_game", None)
    # row 1's minimum 1 equals column 0's maximum 1
    assert reduction._value([[F(0), F(3)], [F(1), F(2)], [F(-1), F(5)]]) == 1
    assert reduction._value([[F(1, 3)], [F(1, 2)]]) == F(1, 2)
    assert reduction._value([[2, 7, -1]]) == -1
    # integer entries stay integers: the saddle entry is returned as given
    value = reduction._value([[0, 3], [10 ** 40, 2 * 10 ** 40]])
    assert type(value) is int and value == 10 ** 40
    assert calls == []


@pytest.mark.parametrize("matrix", [[], [[]], [[F(1)], [F(1), F(2)]],
                                    [[F(1), F(2)], [F(1)]]])
def test_matrix_game_value_rejects_malformed(matrix):
    """``solve_matrix_game`` refuses an empty or ragged game."""
    with pytest.raises(LPError):
        solve_matrix_game(matrix)


def test_matrix_game_value_under_optimize():
    """``solve_matrix_game``'s values and its refusal of a ragged game
    under ``python -O``."""
    script = (
        "from signalgames.errors import LPError\n"
        "from signalgames.lp import solve_matrix_game\n"
        "assert False, 'asserts were not stripped'\n"
        "print(solve_matrix_game([[1, 0], [0, 1]]).value,\n"
        "      solve_matrix_game([[0, 1]]).value)\n"
        "try:\n"
        "    solve_matrix_game([[1], [1, 2]])\n"
        "except LPError as err:\n"
        "    print('rejected:', err)\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "1/2 0", "rejected: matrix game must be rectangular"]


def test_lp_rejects_out_of_range_column():
    for bad in (2, -1, "0"):
        lp = LinearProgram(
            objective=[F(1), F(1)],
            rows=[{0: F(1), bad: F(1)}],
            senses=[LEQ],
            rhs=[F(1)],
        )
        with pytest.raises(LPError, match="column"):
            solve_lp(lp)


def _two_variable_lp(**changes) -> LinearProgram:
    # maximize 3/2 x + y  s.t.  x/10 + y <= 1, free variables as given
    fields = {"objective": [F(3, 2), F(1)], "rows": [{0: F(1, 10), 1: F(1)}],
              "senses": [LEQ], "rhs": [F(1)]}
    fields.update(changes)
    return LinearProgram(**fields)


@pytest.mark.parametrize("changes,match", [
    ({"rows": [{0: 0.1, 1: F(1)}]}, "row 0 has coefficient 0.1"),
    ({"rows": [{0: True, 1: F(1)}]}, "row 0 has coefficient True"),
    ({"rows": [{0: "1/10", 1: F(1)}]}, "row 0 has coefficient '1/10'"),
    ({"objective": [1.5, F(1)]}, "objective entry 1.5"),
    ({"objective": [F(3, 2), False]}, "objective entry False"),
    ({"rhs": [1.0]}, "right-hand side 1.0"),
    ({"rhs": ["1"]}, "right-hand side '1'"),
    ({"rows": [{True: F(1)}]}, "row 0 has column True"),
    ({"free": frozenset({5})}, "free variable 5"),
    ({"free": frozenset({-1})}, "free variable -1"),
])
def test_lp_refuses_inexact_or_out_of_range_input(changes, match):
    with pytest.raises(LPError, match=match):
        solve_lp(_two_variable_lp(**changes))


def test_lp_accepts_ints_and_fractions():
    sol = solve_lp(_two_variable_lp(rows=[{0: F(1, 10), 1: 1}], rhs=[1],
                                    free=frozenset({1})))
    assert sol.status == UNBOUNDED
    sol = solve_lp(_two_variable_lp())
    assert (sol.status, sol.objective, sol.primal) == (OPTIMAL, 15, [10, 0])


@pytest.mark.parametrize("matrix", [[[0.1]], [[F(1), True]], [[F(1)], ["1/2"]]])
def test_matrix_game_refuses_inexact_entries(matrix):
    with pytest.raises(LPError, match="not an int or a Fraction"):
        _matrix(matrix)
    with pytest.raises(LPError, match="not an int or a Fraction"):
        solve_matrix_game(matrix)


@pytest.mark.parametrize("mixed", [[0.5, 0.5], [F(1, 2), "1/2"], [True, 0]])
def test_matrix_reply_value_refuses_inexact_mixes(mixed):
    with pytest.raises(LPError, match="mixed strategy entry"):
        matrix_reply_value([[1, 0], [0, 1]], mixed, "row")


# maximize x0 + x1 + x2 (x2 free) s.t.  x0/2 + x1/2 <= 1,  x0/3 >= 1/3,
# 2/5 x2 = 2/5: optimal with value 3, primal (1, 1, 1) or (2, 0, 1) and
# duals (2, 0, 5/2).  Each forged (primal, duals) pair below fails one
# branch of the certificate check; the messages are those of the check
# when it ran on Fractions.
_CERTIFIED_LP = LinearProgram(
    objective=[F(1), F(1), F(1)],
    rows=[{0: F(1, 2), 1: F(1, 2)}, {0: F(1, 3)}, {2: F(2, 5)}],
    senses=[LEQ, GEQ, EQ], rhs=[F(1), F(1, 3), F(2, 5)], free=frozenset({2}))
_FORGED_CERTIFICATES = [
    ([2, 0, 1], [-2, 0, F(5, 2)], "dual sign violation on <= row"),
    ([2, 0, 1], [2, 3, F(5, 2)], "dual sign violation on >= row"),
    ([3, 0, 1], [2, 0, F(5, 2)], "primal infeasibility at row 0"),
    ([0, 2, 1], [2, 0, F(5, 2)], "primal infeasibility at row 1"),
    ([2, 0, 2], [2, 0, F(5, 2)], "primal infeasibility at row 2"),
    ([1, 0, 1], [2, 0, F(5, 2)], "complementary slackness violated at row 0"),
    ([2, 0, 1], [2, 0, 5], "dual feasibility violated at free var 2"),
    ([2, 0, 1], [1, 0, F(5, 2)], "dual feasibility violated at var 0"),
    ([2, 0, 1], [4, 0, F(5, 2)], "complementary slackness violated at var 0"),
    ([3, -1, 1], [2, 0, F(5, 2)], "negative value for nonnegative var 1"),
]


def _certificate_rows(lp: LinearProgram) -> list:
    return [_integer_row(row, rhs) for row, rhs in zip(lp.rows, lp.rhs)]


def test_certificate_check_fails_branch_by_branch():
    lp = _CERTIFIED_LP
    sol = solve_lp(lp)
    assert (sol.status, sol.objective) == (OPTIMAL, 3)
    assert sol.duals == [2, 0, F(5, 2)]
    rows = _certificate_rows(lp)
    for primal in (sol.primal, [F(2), F(0), F(1)]):
        _verify_optimal(lp, rows, primal, sol.duals)
    for primal, duals, message in _FORGED_CERTIFICATES:
        with pytest.raises(LPError) as err:
            _verify_optimal(lp, rows, [F(v) for v in primal], [F(v) for v in duals])
        assert str(err.value) == message


def test_certificate_check_fails_under_optimize():
    script = (
        "from fractions import Fraction as F\n"
        "from signalgames.errors import LPError\n"
        "from signalgames.lp import EQ, GEQ, LEQ, LinearProgram, _integer_row, _verify_optimal\n"
        "assert False, 'asserts were not stripped'\n"
        "lp = LinearProgram([F(1), F(1), F(1)], [{0: F(1, 2), 1: F(1, 2)}, {0: F(1, 3)},\n"
        "                   {2: F(2, 5)}], [LEQ, GEQ, EQ], [F(1), F(1, 3), F(2, 5)],\n"
        "                   frozenset({2}))\n"
        "rows = [_integer_row(row, rhs) for row, rhs in zip(lp.rows, lp.rhs)]\n"
        "try:\n"
        "    _verify_optimal(lp, rows, [F(2), F(0), F(1)], [F(4), F(0), F(5, 2)])\n"
        "except LPError as err:\n"
        "    print('rejected:', err)\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "rejected: complementary slackness violated at var 0\n"


def test_lp_pivot_cancellation_keeps_tableau_sparse(monkeypatch):
    # max x + y + z s.t. x + y <= 2, x + y + z <= 3.  The first pivot (x on
    # row 0) turns row 1's y coefficient into 1 - 1 = 0, which must leave
    # both the row and the column index.
    cancelled, minus_pivots, phase2_pivots, dropped = [], [], [], set()
    pivot, drop = lp_module._Tableau.pivot, lp_module._Tableau.drop

    def check(tab):
        minus = {j + 1 for j, s in enumerate(tab.split) if s}
        for r, entries in enumerate(tab.m):
            assert all(v != 0 for v in entries.values())
            # each row is integers over one positive denominator, in lowest
            # terms once the denominator is past the bound
            assert tab.d[r] > 0
            if tab.d[r].bit_length() > lp_module._REDUCE_BITS:
                assert math.gcd(tab.d[r], tab.b[r], *entries.values()) == 1
            # a basic column holds the row denominator (a minus column its
            # negation at the plus key), unless it was an artificial, dropped
            if r < tab.obj and tab.basis[r] not in dropped:
                key, sign = tab.key(tab.basis[r])
                assert entries[key] == sign * tab.d[r]
            # a minus column is never stored; an artificial is not once
            # phase 2 starts
            assert not minus.intersection(entries)
            assert not dropped.intersection(entries)
        for j, holders in enumerate(tab.cols):
            assert set(holders) == {r for r, entries in enumerate(tab.m) if j in entries}

    def checked_pivot(tab, row, col):
        before = [set(r) for r in tab.m]
        pivot(tab, row, col)
        check(tab)
        key, sign = tab.key(col)
        for r, entries in enumerate(tab.m):
            if r != row:
                cancelled.extend((r, j) for j in before[r] - set(entries) if j != key)
        # the entering column is stored as the pivot row's unit column: a
        # minus column as -d[row] at its plus key, nowhere else
        assert tab.basis[row] == col
        assert set(tab.cols[key]) == {row}
        assert tab.m[row][key] == sign * tab.d[row]
        if sign < 0:
            minus_pivots.append(col)
        if dropped:
            phase2_pivots.append(col)

    def checked_drop(tab, columns):
        dropped.update(columns)
        drop(tab, columns)
        check(tab)

    monkeypatch.setattr(lp_module._Tableau, "pivot", checked_pivot)
    monkeypatch.setattr(lp_module._Tableau, "drop", checked_drop)
    lp = LinearProgram(
        objective=[F(1), F(1), F(1)],
        rows=[{0: F(1), 1: F(1)}, {0: F(1), 1: F(1), 2: F(1)}],
        senses=[LEQ, LEQ],
        rhs=[F(2), F(3)],
    )
    sol = solve_lp(lp)
    assert (1, 1) in cancelled
    assert sol.status == OPTIMAL
    assert sol.objective == 3
    assert sol.primal == [F(2), F(0), F(1)]
    assert sol.duals == [F(0), F(1)]
    assert sol.pivots == 2
    # The same invariants along the pivots of programs with fractional data,
    # free variables and artificial rows, at the default bound and at one
    # low enough that these small programs pass it.
    for bits in (lp_module._REDUCE_BITS, 8):
        monkeypatch.setattr(lp_module, "_REDUCE_BITS", bits)
        rng = random.Random(5)
        for _ in range(40):
            dropped.clear()
            solve_lp(random_lp(rng))
    assert minus_pivots and phase2_pivots


# Programs pinned with what the full tableau returned before minus and
# artificial columns left it: each one reads a column the tableau no longer
# stores.  Columns are numbered as in the standard form: structural (a
# free variable's plus half, then its minus half), slacks, artificials.
def test_minus_column_enters_as_the_negated_plus_column():
    # max -x s.t. x >= -3, x free: the minus half of x enters at once.
    sol = solve_lp(LinearProgram([-1], [{0: 1}], [GEQ], [-3], frozenset({0})))
    assert (sol.status, sol.objective, sol.primal, sol.duals, sol.pivots) == (
        OPTIMAL, 3, [-3], [-1], 1)


def test_unbounded_ray_enters_through_a_minus_column(monkeypatch):
    # max y - x s.t. y + x <= 2, x/2 - 3y <= 7, x free: y enters, then the
    # minus half of x (column 2) meets no blocking row, and y grows with it.
    entered = []
    extract = lp_module._extract_ray

    def recording(tab, col, col_of):
        entered.append(col)
        return extract(tab, col, col_of)

    monkeypatch.setattr(lp_module, "_extract_ray", recording)
    sol = solve_lp(LinearProgram([1, -1], [{0: 1, 1: 1}, {0: -3, 1: F(1, 2)}],
                                 [LEQ, LEQ], [2, 7], frozenset({1})))
    assert entered == [2]
    assert (sol.status, sol.certificate, sol.pivots) == (UNBOUNDED, [1, -1], 1)


def test_equality_duals_after_phase_two_pivots(monkeypatch):
    # Row 4 is twice row 0, so its artificial (column 9) stays basic at 0.
    # The = rows read their duals through both phase-2 pivots, each of
    # which moves row 0's dual; row 1 (>=) reads its surplus column.
    seen = []
    backward = lp_module._backward_duals

    def recording(tab, cost, eq_cols):
        seen.append((len(tab.record), list(tab.basis), sorted(eq_cols)))
        return backward(tab, cost, eq_cols)

    monkeypatch.setattr(lp_module, "_backward_duals", recording)
    sol = solve_lp(LinearProgram(
        [3, 4, 1, 2],
        [{0: 2, 1: -1, 3: 1}, {1: -1, 2: 1, 3: F(-3, 2)}, {0: F(3, 2), 1: F(1, 2)},
         {0: 1, 1: 1, 2: 1, 3: 1}, {0: 4, 1: -2, 3: 2}],
        [EQ, GEQ, LEQ, LEQ, EQ], [F(1, 2), 2, F(5, 2), 10, 1]))
    assert seen == [(2, [0, 2, 1, 3, 9], [0, 4])]
    assert (sol.status, sol.objective, sol.pivots) == (OPTIMAL, F(197, 10), 4)
    assert sol.primal == [F(9, 10), F(23, 10), F(29, 5), 1]
    assert sol.duals == [F(-5, 7), F(-24, 35), F(64, 35), F(59, 35), 0]


def test_matrix_game_lp_equality_dual_is_the_value():
    # The LP solve_matrix_game builds for [[0, -1/2], [-1/2, 1/2]]: the
    # dual of its = row (sum p = 1) is the value, the others the column mix.
    sol = solve_lp(LinearProgram(
        [0, 0, 1], [{1: F(1, 2), 2: 1}, {0: F(1, 2), 1: F(-1, 2), 2: 1}, {0: 1, 1: 1}],
        [LEQ, LEQ, EQ], [0, 0, 1], frozenset({2})))
    assert (sol.status, sol.objective, sol.pivots) == (OPTIMAL, F(-1, 6), 3)
    assert sol.primal == [F(2, 3), F(1, 3), F(-1, 6)]
    assert sol.duals == [F(2, 3), F(1, 3), F(-1, 6)]


# Sequence-form LPs recorded before the LP core became sparse: the pivot
# path (Bland's rule) and every returned fraction must stay identical.
PINNED_SEQUENCE_FORM = {
    ("bigmatch_nosignals", 4): (
        31, "1/2",
        "1 1/5 4/5 1/5 3/5 1/5 2/5 1/5 1/5 1/2 1/2 3/10 3/20 1/20 1/20 3/20 "
        "1/20 1/20 3/10 3/20 1/20 1/20 3/20 1/20 1/20",
        "1 1/2 1/2 1/2 0 0 0 0 0 0 0 1/2 0 0 0 0 1/2 0 1/2 0 1/2 1/2 0 0 0 0 "
        "0 0 0 0 0 1/2 1/2 3/8 1/4 1/8"),
    ("noisy_public_2state", 2): (
        22, "3/8",
        "1 0 1 0 1 0 1 1 0 1 0 0 0 0 0 0 0 0 0 3/8 3/8 5/48 1/12 0 0 0 0 0 0",
        "1 0 1 0 1 0 1 0 0 0 0 0 1 1 0 0 0 0 0 3/8 3/8 5/48 1/12 0 0 5/48 "
        "5/24 0 0"),
}


@pytest.mark.parametrize("name,horizon", sorted(PINNED_SEQUENCE_FORM))
def test_sequence_form_lp_pivot_path_pinned(name, horizon, monkeypatch):
    solved = []

    def recording_solve(lp):
        sol = solve_lp(lp)
        solved.append(sol)
        return sol

    monkeypatch.setattr(seqform, "solve_lp", recording_solve)
    seqform.nstage_value(corpus.build_game(name), horizon)
    (sol,) = solved
    pivots, objective, primal, duals = PINNED_SEQUENCE_FORM[name, horizon]
    assert sol.pivots == pivots
    assert sol.objective == F(objective)
    assert sol.primal == [F(v) for v in primal.split()]
    assert sol.duals == [F(v) for v in duals.split()]


def test_sup_bound_lp_pivot_path_pinned(monkeypatch):
    # The benchmark's chain LP: v(F_50) of example3_bigmatch_blind1, one
    # 152-row program whose pivot count is pinned with its value.
    solved = []

    def recording_solve(lp):
        sol = solve_lp(lp)
        solved.append(sol)
        return sol

    monkeypatch.setattr(seqform, "solve_lp", recording_solve)
    value = supvalue.sup_lower_bound(corpus.build_game("example3_bigmatch_blind1"), 50)
    (sol,) = solved
    assert value == sol.objective == F(50, 51)
    assert sol.pivots == 152


GOLDEN_LP = Path(__file__).parent / "golden" / "lp_random.json"
GOLDEN_LP_SEED = 2026
GOLDEN_LP_COUNT = 500


def _fractions(text: str) -> list:
    return [F(v) for v in text.split()]


def _text(values) -> str | None:
    return None if values is None else " ".join(map(str, values))


def _lp_record(lp: LinearProgram, sol) -> dict:
    """One program and everything solve_lp returns for it, as strings."""
    return {
        "objective": _text(lp.objective),
        "rows": [" ".join(f"{j}:{v}" for j, v in sorted(row.items())) for row in lp.rows],
        "senses": " ".join(lp.senses),
        "rhs": _text(lp.rhs),
        "free": sorted(lp.free),
        "status": sol.status,
        "value": None if sol.objective is None else str(sol.objective),
        "primal": _text(sol.primal),
        "duals": _text(sol.duals),
        "certificate": _text(sol.certificate),
        "pivots": sol.pivots,
    }


def _lp_from_record(entry: dict) -> LinearProgram:
    rows = [{int(j): F(v) for j, v in (cell.split(":") for cell in row.split())}
            for row in entry["rows"]]
    return LinearProgram(objective=_fractions(entry["objective"]), rows=rows,
                         senses=entry["senses"].split(), rhs=_fractions(entry["rhs"]),
                         free=frozenset(entry["free"]))


def test_random_lps_match_golden():
    # 500 seeded random programs (tests/randgen.random_lp), each pinned with
    # its status, value, primal, duals, certificate and pivot count.
    # Rewrite the file with ``python tests/test_lp.py``.
    entries = json.loads(GOLDEN_LP.read_text())
    assert len(entries) == GOLDEN_LP_COUNT
    assert {e["status"] for e in entries} == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    for k, entry in enumerate(entries):
        lp = _lp_from_record(entry)
        assert _lp_record(lp, solve_lp(lp)) == entry, f"program {k}"


GOLDEN_DENSE = Path(__file__).parent / "golden" / "lp_dense.json"
GOLDEN_DENSE_SEED = 2028
GOLDEN_DENSE_COUNT = 10


@pytest.mark.parametrize("bits", [None, 0], ids=["default-bound", "every-row"])
def test_dense_lps_reduce_rows_and_match_golden(bits, monkeypatch):
    # Dense 25x25 programs (tests/randgen.dense_lp), recorded when every
    # tableau row was kept in lowest terms.  Their rows pass the reduction
    # bound, so pivots do reduce rows, and only rows past it; bound 0
    # reduces every row on every pivot.  Status, value, primal, duals and
    # pivot count match either way.  Rewrite with ``python tests/test_lp.py``.
    if bits is not None:
        monkeypatch.setattr(lp_module, "_REDUCE_BITS", bits)
    pivot, lowest = lp_module._Tableau.pivot, lp_module._lowest_terms
    pivoting, reduced = [], []

    def flagged_pivot(tab, row, col):
        pivoting.append(True)
        pivot(tab, row, col)
        pivoting.pop()

    def counted(row, b, d):
        if pivoting:
            reduced.append(d)
        return lowest(row, b, d)

    monkeypatch.setattr(lp_module._Tableau, "pivot", flagged_pivot)
    monkeypatch.setattr(lp_module, "_lowest_terms", counted)
    entries = json.loads(GOLDEN_DENSE.read_text())
    assert len(entries) == GOLDEN_DENSE_COUNT
    for k, entry in enumerate(entries):
        lp = _lp_from_record(entry)
        assert _lp_record(lp, solve_lp(lp)) == entry, f"program {k}"
    assert reduced
    assert all(d.bit_length() > lp_module._REDUCE_BITS for d in reduced)


def test_forged_matrix_game_solution_rejected():
    game = [[F(1), F(0)], [F(0), F(1)]]
    good = solve_matrix_game(game)
    forgeries = [
        MatrixGameSolution(F(1, 2), [F(1), F(1)], good.col_strategy),
        MatrixGameSolution(F(1, 2), good.row_strategy, [F(3, 2), F(-1, 2)]),
        MatrixGameSolution(F(1), good.row_strategy, good.col_strategy),
        MatrixGameSolution(F(0), good.row_strategy, good.col_strategy),
    ]
    for forged in forgeries:
        with pytest.raises(LPError):
            forged.check(game)


def test_matrix_game_check_rejects_mismatched_lengths():
    game = [[F(1), F(0)], [F(0), F(1)]]
    half = [F(1, 2), F(1, 2)]
    for forged in (MatrixGameSolution(F(1, 2), half + [F(0)], half),
                   MatrixGameSolution(F(1, 2), half, [F(1)])):
        with pytest.raises(LPError, match="lengths"):
            forged.check(game)


def test_forged_matrix_game_solution_rejected_under_optimize():
    script = (
        "from fractions import Fraction as F\n"
        "from signalgames.errors import LPError\n"
        "from signalgames.lp import MatrixGameSolution\n"
        "assert False, 'asserts were not stripped'\n"
        "game = [[F(1), F(0)], [F(0), F(1)]]\n"
        "forged = MatrixGameSolution(F(1), [F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])\n"
        "try:\n"
        "    forged.check(game)\n"
        "except LPError as err:\n"
        "    print('rejected:', err)\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("rejected:")


def test_vector_game_solutions_are_lowest_index_pure_optima():
    rng = random.Random(11)
    for _ in range(200):
        entries = [F(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(rng.randint(1, 5))]
        for game, matrix, best in (("row", [entries], min),
                                   ("col", [[e] for e in entries], max)):
            sol = solve_matrix_game(matrix)
            assert sol.value == best(entries)
            pure = sol.col_strategy if game == "row" else sol.row_strategy
            assert pure.index(1) == entries.index(sol.value)
            assert sorted(pure) == [0] * (len(entries) - 1) + [1]
            sol.check(matrix)


# Row 1 guarantees 2 against every column, and columns 1 and 2 both hold
# every row to 2: saddle points (1, 1) and (1, 2) with value 2.
_SADDLE_GAME = [[F(1), F(0), F(2)], [F(3), F(2), F(2)], [F(0), F(2), F(-1)]]
_COLUMN_GAME = [[F(1)], [F(3)], [F(3)], [F(2)]]
_ROW_GAME = [[F(1), F(3), F(3), F(2)]]


def _pure(game, r, c, value) -> MatrixGameSolution:
    """The pure pair (row r, column c) of ``game`` with ``value``."""
    return MatrixGameSolution(value, [F(k == r) for k in range(len(game))],
                              [F(k == c) for k in range(len(game[0]))])


def test_forged_vector_game_certificate_rejected():
    """The matrix-game certificate accepts every pure saddle point, ties
    included, and rejects a forged row, column or value on a 3x3 game with
    a saddle and on one-column and one-row games."""
    assert _saddle(_SADDLE_GAME) == (1, 1)
    assert _saddle(_COLUMN_GAME) == (1, 0)
    assert _saddle(_ROW_GAME) == (0, 0)
    assert _saddle([[F(1), F(0)], [F(0), F(1)]]) is None
    for game, r, c, value in [(_SADDLE_GAME, 1, 1, F(2)),
                              (_SADDLE_GAME, 1, 2, F(2)),     # a tie is a saddle too
                              (_COLUMN_GAME, 1, 0, F(3)),
                              (_COLUMN_GAME, 2, 0, F(3)),
                              (_ROW_GAME, 0, 0, F(1))]:
        _pure(game, r, c, value).check(game)
    for game, r, c, value in [(_SADDLE_GAME, 1, 1, F(3)),     # value is not the entry
                              (_SADDLE_GAME, 2, 1, F(2)),     # row 2 does not guarantee it
                              (_SADDLE_GAME, 1, 0, F(3)),     # nor does row 1 guarantee 3
                              (_SADDLE_GAME, 0, 1, F(0)),     # column 1 lets row 1 have 2
                              (_COLUMN_GAME, 0, 0, F(1)),     # not a maximum
                              (_COLUMN_GAME, 3, 0, F(2)),
                              (_COLUMN_GAME, 1, 0, F(2)),     # value is not the entry
                              (_ROW_GAME, 0, 1, F(3)),        # not a minimum
                              (_ROW_GAME, 0, 0, F(0))]:
        with pytest.raises(LPError):
            _pure(game, r, c, value).check(game)


def test_forged_vector_game_certificate_rejected_under_optimize():
    script = (
        "from fractions import Fraction as F\n"
        "from signalgames.errors import LPError\n"
        "from signalgames.lp import MatrixGameSolution\n"
        "assert False, 'asserts were not stripped'\n"
        "game = [[F(1), F(0)], [F(3), F(2)]]\n"
        "for r, c, value in ((1, 1, F(3)), (0, 1, F(0)), (1, 0, F(3))):\n"
        "    e_r = [F(k == r) for k in range(2)]\n"
        "    e_c = [F(k == c) for k in range(2)]\n"
        "    try:\n"
        "        MatrixGameSolution(value, e_r, e_c).check(game)\n"
        "    except LPError as err:\n"
        "        print('rejected:', err)\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("rejected:") == 3


def _write_golden(path: Path, make, seed: int, count: int) -> None:
    rng = random.Random(seed)
    programs = [make(rng) for _ in range(count)]
    lines = [json.dumps(_lp_record(lp, solve_lp(lp))) for lp in programs]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    _write_golden(GOLDEN_LP, random_lp, GOLDEN_LP_SEED, GOLDEN_LP_COUNT)
    _write_golden(GOLDEN_DENSE, dense_lp, GOLDEN_DENSE_SEED, GOLDEN_DENSE_COUNT)
