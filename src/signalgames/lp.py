"""Exact rational linear programming and matrix-game solving.

A two-phase primal simplex over exact rationals with Bland's anti-cycling
rule.  No floating point appears anywhere: optima of games whose data are
rational are themselves rational, and every acceptance value downstream is
asserted with exact equality.

Programs are sparse throughout.  A constraint row is a ``{column:
coefficient}`` dict of its nonzeros; the tableau keeps its rows in the same
form plus, per column, the set of rows that hold it, so a pivot touches only
the rows of the entering column and only the pivot row's nonzeros.  Entries
that cancel to exactly zero are dropped.  The optimality certificate is
checked in one pass over the nonzeros, O(nnz) rather than O(rows x cols).

Determinism: entering variable = lowest eligible index, leaving row = lowest
ratio with ties broken by lowest basic-variable index, which also guarantees
termination on degenerate programs.  Both choices are independent of the
order in which rows and columns are stored.  Fractions are reduced after
every pivot (automatic for Fraction/mpq), so coefficient growth stays in
check; a pivot limit aborts pathological instances instead of spinning.

gmpy2.mpq is used internally when importable (identical semantics, several
times faster); all public outputs are fractions.Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import LPError

try:  # optional fast exact-rational backend
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover - environment without gmpy2
    _Q = Fraction

_Q0 = _Q(0)
_Q1 = _Q(1)


def _to_fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


LEQ = "<="
GEQ = ">="
EQ = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """maximize objective . z   subject to  rows[k] . z  (sense_k)  rhs[k].

    ``objective`` is a dense list with one coefficient per variable; each
    row is a sparse ``{variable index: coefficient}`` dict of its nonzeros
    (a zero-valued entry is allowed and ignored).  Variables are
    nonnegative unless their index appears in ``free``.
    """

    objective: list
    rows: list
    senses: list
    rhs: list
    free: frozenset = frozenset()

    def validate(self) -> None:
        n = len(self.objective)
        if not (len(self.rows) == len(self.senses) == len(self.rhs)):
            raise LPError("row/sense/rhs length mismatch")
        for k, row in enumerate(self.rows):
            if not isinstance(row, dict):
                raise LPError(f"row {k} must be a {{column: coefficient}} dict")
            for j in row:
                if not (isinstance(j, int) and 0 <= j < n):
                    raise LPError(f"row {k} has column {j!r}, expected 0..{n - 1}")
        for s in self.senses:
            if s not in (LEQ, GEQ, EQ):
                raise LPError(f"unknown sense {s!r}")


@dataclass
class LPSolution:
    status: str
    objective: Fraction | None = None
    primal: list | None = None
    duals: list | None = None         # one per constraint row, original orientation
    certificate: list | None = None   # Farkas vector (infeasible) or ray (unbounded)
    pivots: int = 0


class _Tableau:
    """Sparse simplex tableau over exact rationals.

    ``m[r]`` is row r as a ``{column: nonzero value}`` dict and ``cols[j]``
    the set of rows whose dict holds column j; the two always agree.
    """

    def __init__(self, matrix, rhs, ncols):
        self.m = matrix            # list of sparse rows
        self.b = rhs               # right-hand sides, all >= 0
        self.ncols = ncols
        self.basis = [None] * len(matrix)
        self.cols = [set() for _ in range(ncols)]
        for r, row in enumerate(matrix):
            for j in row:
                self.cols[j].add(r)

    def dump(self) -> str:
        lines = []
        for r, row in enumerate(self.m):
            cells = " ".join(str(_to_fraction(row.get(j, _Q0)))
                             for j in range(self.ncols))
            lines.append(f"x{self.basis[r]} | {cells} | {self.b[r]}")
        return "\n".join(lines)

    def pivot(self, row: int, col: int) -> None:
        piv = self.m[row]
        inv = _Q1 / piv[col]
        if inv != 1:
            for j in piv:
                piv[j] *= inv
            self.b[row] *= inv
        brow = self.b[row]
        # Each update other[j] -= k * p is one exact rational with a single
        # reduction, computed from numerators and denominators.
        terms = [(j, p.numerator, p.denominator) for j, p in piv.items() if j != col]
        cols = self.cols
        for r in cols[col]:
            if r == row:
                continue
            other = self.m[r]
            k = other.pop(col)          # eliminated exactly: k - k * 1
            kn, kd = k.numerator, k.denominator
            for j, pn, pd in terms:
                a = other.get(j)
                if a is None:
                    other[j] = _Q(-kn * pn, kd * pd)
                    cols[j].add(r)
                else:
                    ad = a.denominator
                    den = kd * pd
                    a = _Q(a.numerator * den - kn * pn * ad, ad * den)
                    if a:
                        other[j] = a
                    else:
                        del other[j]
                        cols[j].discard(r)
            if brow:
                self.b[r] -= k * brow
        cols[col] = {row}
        self.basis[row] = col


def _subtract_row(red: dict, k, row: dict) -> None:
    """red -= k * row over sparse dicts, dropping exact zeros."""
    for j, v in row.items():
        a = red.get(j, _Q0) - k * v
        if a:
            red[j] = a
        else:
            red.pop(j, None)


def _run_simplex(tab: _Tableau, cost, allowed, pivot_limit: int):
    """Maximize cost over the tableau; returns (status, pivots, bad_col, obj).

    ``allowed[j]`` False bars column j from entering (used to freeze
    artificials in phase 2).  ``bad_col`` is the unbounded entering column.
    """
    # reduced costs, nonzeros only: r = cost - sum over basis rows of cost[basis]*row
    red = {j: c for j, c in enumerate(cost) if c}
    obj = _Q0
    for r, bcol in enumerate(tab.basis):
        cb = cost[bcol]
        if cb:
            _subtract_row(red, cb, tab.m[r])
            obj += cb * tab.b[r]

    pivots = 0
    while True:
        # Bland: lowest eligible index
        enter = min((j for j, v in red.items() if v > 0 and allowed[j]), default=-1)
        if enter < 0:
            return OPTIMAL, pivots, -1, obj

        leave, best, best_basis = -1, None, None
        for r in tab.cols[enter]:
            a = tab.m[r][enter]
            if a > 0:
                ratio = tab.b[r] / a
                key = tab.basis[r]
                if best is None or ratio < best or (ratio == best and key < best_basis):
                    leave, best, best_basis = r, ratio, key
        if leave < 0:
            return UNBOUNDED, pivots, enter, obj

        tab.pivot(leave, enter)
        # update reduced costs incrementally
        k = red[enter]
        _subtract_row(red, k, tab.m[leave])
        obj += k * tab.b[leave]
        pivots += 1
        if pivots > pivot_limit:
            raise LPError(f"pivot limit {pivot_limit} exceeded")


def solve_lp(lp: LinearProgram, pivot_limit: int | None = None, trace=None) -> LPSolution:
    """Two-phase exact simplex.

    Returns an LPSolution whose duals certify optimality: dual feasibility
    and complementary slackness are re-checked exactly before returning.
    Infeasibility returns a Farkas certificate y with y.A <= 0 (componentwise
    over variable columns) and y.b > 0; unboundedness returns an improving
    ray of the original variables.
    """
    lp.validate()
    # The program in the internal rational type, converted once; the
    # certificate is checked against this exact copy.
    exact = LinearProgram(
        objective=[_Q(c) for c in lp.objective],
        rows=[{j: _Q(v) for j, v in row.items() if v} for row in lp.rows],
        senses=lp.senses, rhs=[_Q(b) for b in lp.rhs], free=lp.free)

    # Variable mapping: free variables are split z = z+ - z-.
    col_of = []          # per original var: (plus_col, minus_col or None)
    cost_struct = []
    for k, c in enumerate(exact.objective):
        plus = len(cost_struct)
        cost_struct.append(c)
        if k in lp.free:
            cost_struct.append(-c)
            col_of.append((plus, plus + 1))
        else:
            col_of.append((plus, None))
    nstruct = len(cost_struct)

    # Row normalization to rhs >= 0; remember flips for dual orientation.
    rows, flips = [], []
    for row, rhs, sense in zip(exact.rows, exact.rhs, lp.senses):
        if rhs < 0:
            row = {j: -v for j, v in row.items()}
            rhs = -rhs
            sense = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[sense]
            flips.append(-1)
        else:
            flips.append(1)
        rows.append((row, rhs, sense))

    # Standard-form columns: structural | slacks/surplus | artificials.
    nrows = len(rows)
    slack_col = {}
    art_col = {}
    ncols = nstruct
    for r, (_, _, sense) in enumerate(rows):
        if sense in (LEQ, GEQ):
            slack_col[r] = ncols
            ncols += 1
    for r, (_, _, sense) in enumerate(rows):
        if sense in (GEQ, EQ):
            art_col[r] = ncols
            ncols += 1

    # Initial +1 unit column per row (slack for <=, artificial otherwise);
    # its final tableau column is B^-1 e_r, which yields the duals.
    unit_col = [slack_col[r] if rows[r][2] == LEQ else art_col[r]
                for r in range(nrows)]

    matrix, bvec = [], []
    for r, (row, rhs, sense) in enumerate(rows):
        full = {}
        for k, v in row.items():
            plus, minus = col_of[k]
            full[plus] = v
            if minus is not None:
                full[minus] = -v
        if sense == LEQ:
            full[slack_col[r]] = _Q1
        elif sense == GEQ:
            full[slack_col[r]] = -_Q1
        if r in art_col:
            full[art_col[r]] = _Q1
        matrix.append(full)
        bvec.append(rhs)

    tab = _Tableau(matrix, bvec, ncols)
    for r in range(nrows):
        tab.basis[r] = art_col.get(r, slack_col.get(r))

    limit = pivot_limit if pivot_limit is not None else 50000 + 200 * (nrows + ncols)
    total_pivots = 0
    art_set = set(art_col.values())

    # Phase 1: drive artificials to zero.
    if art_col:
        cost1 = [_Q0] * ncols
        for c in art_set:
            cost1[c] = -_Q1
        allowed = [True] * ncols
        status, pivots, _, obj1 = _run_simplex(tab, cost1, allowed, limit)
        total_pivots += pivots
        if trace:
            trace(f"phase1 done: pivots={pivots} objective={obj1}")
            trace(tab.dump())
        if obj1 < 0:
            # Farkas certificate: y = -(phase-1 duals), in original row
            # orientation; satisfies y.rhs > 0 while y'A <= 0 over columns.
            y = _duals_from_basis(tab, cost1, unit_col)
            cert = [_to_fraction(-flips[r] * y[r]) for r in range(nrows)]
            return LPSolution(status=INFEASIBLE, certificate=cert, pivots=total_pivots)
        # Pivot remaining artificials out of the basis on their lowest
        # non-artificial nonzero column.  A row with none is redundant: its
        # artificial stays basic at 0, harmlessly.
        for r in range(nrows):
            if tab.basis[r] in art_set:
                j = min((j for j in tab.m[r] if j not in art_set), default=None)
                if j is not None:
                    tab.pivot(r, j)
                    total_pivots += 1

    # Phase 2.
    cost2 = cost_struct + [_Q0] * (ncols - nstruct)
    allowed = [j not in art_set for j in range(ncols)]
    status, pivots, bad_col, obj = _run_simplex(tab, cost2, allowed, limit)
    total_pivots += pivots
    if trace:
        trace(f"phase2 done: pivots={pivots} status={status}")
        trace(tab.dump())

    if status == UNBOUNDED:
        ray = _extract_ray(tab, bad_col, col_of)
        return LPSolution(status=UNBOUNDED, certificate=ray, pivots=total_pivots)

    # Primal solution.
    values = dict(zip(tab.basis, tab.b))
    primal = []
    for plus, minus in col_of:
        v = values.get(plus, _Q0) - (values.get(minus, _Q0) if minus is not None else _Q0)
        primal.append(v)

    y = _duals_from_basis(tab, cost2, unit_col)
    duals = [flips[r] * y[r] for r in range(nrows)]

    _verify_optimal(exact, primal, duals)
    objective = sum((c * v for c, v in zip(exact.objective, primal)), _Q0)
    return LPSolution(
        status=OPTIMAL,
        objective=_to_fraction(objective),
        primal=[_to_fraction(v) for v in primal],
        duals=[_to_fraction(v) for v in duals],
        pivots=total_pivots,
    )


def _duals_from_basis(tab: _Tableau, cost, unit_col):
    """Duals y = c_B . B^-1, read off the transformed unit columns.

    Row r started with a +1 unit column (slack for <= rows, artificial
    otherwise); its final tableau column equals B^-1 e_r, hence
    y_r = c_B . (final column of unit_col[r]).
    """
    y = []
    for col in unit_col:
        acc = _Q0
        for rr in tab.cols[col]:
            cb = cost[tab.basis[rr]]
            if cb:
                acc += cb * tab.m[rr][col]
        y.append(acc)
    return y


def _extract_ray(tab: _Tableau, enter_col: int, col_of):
    """Improving direction: entering column increases, basics adjust."""
    direction = {enter_col: _Q1}
    for r in tab.cols[enter_col]:
        direction[tab.basis[r]] = -tab.m[r][enter_col]
    ray = []
    for plus, minus in col_of:
        v = direction.get(plus, _Q0) - (direction.get(minus, _Q0)
                                         if minus is not None else _Q0)
        ray.append(_to_fraction(v))
    return ray


def _verify_optimal(lp: LinearProgram, primal, duals) -> None:
    """Exact optimality certificate: primal feasibility, dual feasibility,
    complementary slackness.  A failure here is an internal bug.

    ``lp`` holds the program in the internal rational type.  One pass over the nonzeros yields every row's lhs and every column's
    dual combination, so the check costs O(nnz)."""
    used = [_Q0] * len(lp.objective)     # duals . column t
    for k, row in enumerate(lp.rows):
        y = duals[k]
        lhs = _Q0
        for t, coef in row.items():
            x = primal[t]
            if x:
                lhs += coef * x
            if y:
                used[t] += y * coef
        rhs = lp.rhs[k]
        sense = lp.senses[k]
        if sense == LEQ:
            ok = lhs <= rhs
            if y < 0:
                raise LPError("dual sign violation on <= row")
        elif sense == GEQ:
            ok = lhs >= rhs
            if y > 0:
                raise LPError("dual sign violation on >= row")
        else:
            ok = lhs == rhs
        if not ok:
            raise LPError(f"primal infeasibility at row {k}")
        if y != 0 and rhs != lhs:
            raise LPError(f"complementary slackness violated at row {k}")
    for t, col_used in enumerate(used):
        reduced = lp.objective[t] - col_used
        if t in lp.free:
            if reduced != 0:
                raise LPError(f"dual feasibility violated at free var {t}")
        else:
            if reduced > 0:
                raise LPError(f"dual feasibility violated at var {t}")
            if primal[t] != 0 and reduced != 0:
                raise LPError(f"complementary slackness violated at var {t}")
        if primal[t] < 0 and t not in lp.free:
            raise LPError(f"negative value for nonnegative var {t}")


# ---------------------------------------------------------------------------
# Matrix games
# ---------------------------------------------------------------------------


@dataclass
class MatrixGame:
    """Finite zero-sum game; the row player maximizes payoff[r][c]."""

    payoff: list

    def __post_init__(self):
        if not self.payoff or not self.payoff[0]:
            raise LPError("matrix game must be nonempty")
        width = len(self.payoff[0])
        if any(len(row) != width for row in self.payoff):
            raise LPError("matrix game must be rectangular")
        self.payoff = [[Fraction(v) for v in row] for row in self.payoff]

    @property
    def rows(self) -> int:
        return len(self.payoff)

    @property
    def cols(self) -> int:
        return len(self.payoff[0])


@dataclass
class MatrixGameSolution:
    value: Fraction
    row_strategy: list
    col_strategy: list

    def check(self, game: MatrixGame) -> None:
        """Exact guarantee inequalities for both strategies."""
        if sum(self.row_strategy) != 1 or any(p < 0 for p in self.row_strategy):
            raise LPError("row strategy is not a distribution")
        if sum(self.col_strategy) != 1 or any(q < 0 for q in self.col_strategy):
            raise LPError("column strategy is not a distribution")
        for c in range(game.cols):
            got = sum(self.row_strategy[r] * game.payoff[r][c] for r in range(game.rows))
            if got < self.value:
                raise LPError("row strategy fails its guarantee")
        for r in range(game.rows):
            got = sum(self.col_strategy[c] * game.payoff[r][c] for c in range(game.cols))
            if got > self.value:
                raise LPError("column strategy fails its guarantee")


def solve_matrix_game(game: MatrixGame | list) -> MatrixGameSolution:
    """Exact value and optimal mixed strategies of a matrix game.

    LP over (p, v): maximize v subject to  p^T M >= v per column,
    sum p = 1, p >= 0.  Column duals give the minimizer's optimal mix.
    Single-row and single-column games short-circuit to a pure min/max.
    """
    if not isinstance(game, MatrixGame):
        game = MatrixGame(game)
    R, C = game.rows, game.cols
    if R == 1 or C == 1:
        return _solve_vector_game(game)
    objective = [Fraction(0)] * R + [Fraction(1)]    # p_0..p_{R-1}, v
    rows, senses, rhs = [], [], []
    for c in range(C):                 # v - p^T M_col <= 0
        row = {r: -game.payoff[r][c] for r in range(R) if game.payoff[r][c]}
        row[R] = Fraction(1)
        rows.append(row)
        senses.append(LEQ)
        rhs.append(Fraction(0))
    rows.append(dict.fromkeys(range(R), Fraction(1)))
    senses.append(EQ)
    rhs.append(Fraction(1))

    sol = solve_lp(LinearProgram(objective, rows, senses, rhs, free=frozenset({R})))
    if sol.status != OPTIMAL:
        raise LPError(f"matrix game LP ended {sol.status}")
    value = sol.objective
    row_strategy = sol.primal[:R]
    # Duals of the C column constraints are >= 0 and sum to 1 (stationarity
    # of the free variable v): they are the minimizer's optimal mix.
    col_strategy = [sol.duals[c] for c in range(C)]
    if sum(col_strategy, Fraction(0)) != 1:
        raise LPError("column duals do not form a distribution")
    solution = MatrixGameSolution(value=value, row_strategy=row_strategy,
                                  col_strategy=col_strategy)
    solution.check(game)
    return solution


def _solve_vector_game(game: MatrixGame) -> MatrixGameSolution:
    """Degenerate games with one row or one column: pure optima.
    Ties break to the lowest index, keeping outputs deterministic."""
    R, C = game.rows, game.cols
    if R == 1:
        value = min(game.payoff[0])
        pick = game.payoff[0].index(value)
        col = [Fraction(1) if c == pick else Fraction(0) for c in range(C)]
        solution = MatrixGameSolution(value=value, row_strategy=[Fraction(1)],
                                      col_strategy=col)
    else:
        column = [game.payoff[r][0] for r in range(R)]
        value = max(column)
        pick = column.index(value)
        row = [Fraction(1) if r == pick else Fraction(0) for r in range(R)]
        solution = MatrixGameSolution(value=value, row_strategy=row,
                                      col_strategy=[Fraction(1)])
    solution.check(game)
    return solution


def best_response_value(game: MatrixGame | list, mixed: list, side: str) -> Fraction:
    """Exact value of the opponent's best pure reply to a mixed strategy.

    side="row": ``mixed`` is a row mix, returns min over columns.
    side="col": ``mixed`` is a column mix, returns max over rows.
    """
    if not isinstance(game, MatrixGame):
        game = MatrixGame(game)
    mixed = [Fraction(v) for v in mixed]
    if sum(mixed) != 1 or any(p < 0 for p in mixed):
        raise LPError("mixed strategy must be a distribution")
    if side == "row":
        if len(mixed) != game.rows:
            raise LPError("row mix has wrong length")
        return min(
            sum(mixed[r] * game.payoff[r][c] for r in range(game.rows))
            for c in range(game.cols)
        )
    if side == "col":
        if len(mixed) != game.cols:
            raise LPError("column mix has wrong length")
        return max(
            sum(mixed[c] * game.payoff[r][c] for c in range(game.cols))
            for r in range(game.rows)
        )
    raise LPError(f"side must be 'row' or 'col', got {side!r}")
