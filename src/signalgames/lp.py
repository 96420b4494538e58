"""Exact rational linear programming and matrix-game solving.

A two-phase primal simplex over exact rationals with Bland's anti-cycling
rule.  No floating point appears anywhere: optima of games whose data are
rational are themselves rational, and every acceptance value downstream is
asserted with exact equality.

Programs are sparse throughout.  A constraint row is a ``{column:
coefficient}`` dict of its nonzeros.  The tableau holds each row as integers:
the numerators of its nonzeros, a right-hand-side numerator and one positive
row denominator, in lowest terms.  Per column it keeps the set of rows that
hold it, so a pivot touches only the rows of the entering column.  A touched
row A with denominator d becomes (A*D - k*P) / (d*D), where P is the pivot
row scaled so that P[col] = D > 0 and k = A[col]; entries that cancel to
zero are dropped, and one gcd per touched row restores lowest terms.  The
pivot loop builds no Fraction: the ratio test compares b_r/a_r by
cross-multiplying integers (the row denominator cancels), and the reduced
costs and the objective are one more scaled row, updated by the same
elimination.  Rows the pivot does not touch keep their scale; that is what
separates this from an integer-preserving (Edmonds/Bareiss) tableau, which
rescales every row on every pivot.  Each input row is read once into
integer numerators over its lcm denominator; no Fraction copy of the
program is made.  Fractions appear only where results are read off the
final tableau, and the optimality certificate is checked in integers
against those input rows, in one pass over their nonzeros, O(nnz) rather
than O(rows x cols).  Coefficients, right-hand sides and objective
entries must be ints or Fractions, so no float's binary expansion enters.

Determinism: entering variable = lowest eligible index, leaving row = lowest
ratio with ties broken by lowest basic-variable index, which also guarantees
termination on degenerate programs.  Both choices are independent of the
order in which rows and columns are stored.  A pivot limit aborts
pathological instances instead of spinning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import LPError
from .rationals import ONE, ZERO, denominator_lcm

LEQ = "<="
GEQ = ">="
EQ = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# The exact scalar types: a bool, a float or a str is none of them.
_EXACT_TYPES = frozenset((Fraction, int))
_INDEX_TYPES = frozenset((int,))


def _inexact(values) -> object:
    """The first of ``values`` that is not an int or a Fraction (by type,
    so a bool is not an int here), else None."""
    if _EXACT_TYPES.issuperset(map(type, values)):
        return None
    return next(v for v in values if type(v) not in _EXACT_TYPES)


@dataclass
class LinearProgram:
    """maximize objective . z   subject to  rows[k] . z  (sense_k)  rhs[k].

    ``objective`` is a dense list with one coefficient per variable; each
    row is a sparse ``{variable index: coefficient}`` dict of its nonzeros
    (a zero-valued entry is allowed and ignored).  Variables are
    nonnegative unless their index appears in ``free``.  Every objective
    entry, coefficient and right-hand side is an int or a Fraction.
    """

    objective: list
    rows: list
    senses: list
    rhs: list
    free: frozenset = frozenset()

    def validate(self) -> None:
        """LPError unless the program is well formed: equal row, sense and
        rhs counts, int or Fraction numbers, int (not bool) column indices
        in 0..n-1, free indices among them and known senses.  O(nnz)."""
        n = len(self.objective)
        if not (len(self.rows) == len(self.senses) == len(self.rhs)):
            raise LPError("row/sense/rhs length mismatch")
        bad = _inexact(self.objective)
        if bad is not None:
            raise LPError(f"objective entry {bad!r} is not an int or a Fraction")
        bad = _inexact(self.rhs)
        if bad is not None:
            raise LPError(f"right-hand side {bad!r} is not an int or a Fraction")
        for k, row in enumerate(self.rows):
            if not isinstance(row, dict):
                raise LPError(f"row {k} must be a {{column: coefficient}} dict")
            if not _valid_columns(row, n):
                j = next(j for j in row if not _valid_columns((j,), n))
                raise LPError(f"row {k} has column {j!r}, expected 0..{n - 1}")
            bad = _inexact(row.values())
            if bad is not None:
                raise LPError(f"row {k} has coefficient {bad!r}, "
                              f"not an int or a Fraction")
        if not _valid_columns(self.free, n):
            t = next(t for t in self.free if not _valid_columns((t,), n))
            raise LPError(f"free variable {t!r}, expected 0..{n - 1}")
        for s in self.senses:
            if s not in (LEQ, GEQ, EQ):
                raise LPError(f"unknown sense {s!r}")


def _valid_columns(indices, n: int) -> bool:
    """Whether every index is an int (not a bool) in 0..n-1."""
    return not indices or (_INDEX_TYPES.issuperset(map(type, indices))
                           and min(indices) >= 0 and max(indices) < n)


@dataclass
class LPSolution:
    status: str
    objective: Fraction | None = None
    primal: list | None = None
    duals: list | None = None         # one per constraint row, original orientation
    certificate: list | None = None   # Farkas vector (infeasible) or ray (unbounded)
    pivots: int = 0


def _integer_row(row: dict, rhs) -> tuple:
    """``(numerators, rhs numerator, denominator)`` of a row of rationals,
    zero entries dropped.

    The denominator is the lcm of the entries' denominators, so the row
    comes out in lowest terms."""
    den = math.lcm(rhs.denominator, *(v.denominator for v in row.values()))
    return ({j: v.numerator * (den // v.denominator) for j, v in row.items() if v},
            rhs.numerator * (den // rhs.denominator), den)


def _eliminate(row: dict, b: int, d: int, k: int, terms: list, pb: int, pd: int,
               cols=None, r=None) -> tuple:
    """Row (row, b)/d minus k/d times the pivot row, in lowest terms.

    The pivot row is (P, pb)/pd with P[col] = pd, ``terms`` its (column,
    numerator) pairs off the pivot column, and k the row's numerator in the
    pivot column, already popped from ``row``.  The result is
    (A*pd - k*P) / (d*pd), with the scaling skipped when pd = 1, reduced by
    one gcd.  A factor common to k and pd is cancelled first, so the
    scaling is also skipped when pd divides k.  Returns ``(row, b, d)``;
    ``row`` may be a new dict.  With ``cols`` given, the column index
    follows row r's entries."""
    g = math.gcd(k, pd)
    if g != 1:
        k //= g
        pd //= g
    if pd != 1:
        row = {j: a * pd for j, a in row.items()}
        b *= pd
        d *= pd
    for j, p in terms:
        a = row.get(j)
        if a is None:
            row[j] = -k * p
            if cols is not None:
                cols[j].add(r)
        else:
            a -= k * p
            if a:
                row[j] = a
            else:
                del row[j]
                if cols is not None:
                    cols[j].discard(r)
    if pb:
        b -= k * pb
    g = math.gcd(d, b, *row.values())
    if g != 1:
        row = {j: a // g for j, a in row.items()}
        b //= g
        d //= g
    return row, b, d


class _Tableau:
    """Sparse simplex tableau over the integers, one denominator per row.

    Row r is ``(m[r], b[r]) / d[r]``: ``m[r]`` is a ``{column: numerator}``
    dict of its nonzeros, ``b[r] >= 0`` the right-hand side's numerator and
    ``d[r] > 0`` the row denominator, with gcd(d[r], b[r], *m[r].values())
    equal to 1.  A basic column has numerator d[r] in its row.  ``cols[j]``
    is the set of rows whose dict holds column j; the two always agree.
    """

    def __init__(self, matrix, rhs, dens, ncols):
        self.m = matrix            # list of sparse integer rows
        self.b = rhs               # right-hand-side numerators, all >= 0
        self.d = dens              # row denominators, all > 0
        self.basis = [None] * len(matrix)
        self.cols = [set() for _ in range(ncols)]
        for r, row in enumerate(matrix):
            for j in row:
                self.cols[j].add(r)

    def pivot(self, row: int, col: int) -> list:
        """Pivot on (row, col); returns the pivot row's (column, numerator)
        pairs off ``col``, for eliminating ``col`` from the objective row."""
        # Dividing the pivot row by m/d at col makes it (m, b) / m[col].  It
        # stays in lowest terms: its old basic column holds d[row], so the
        # numerators alone already have gcd 1.
        piv, pb, pd = self.m[row], self.b[row], self.m[row][col]
        if pd < 0:                      # only a phase-1 drive-out pivot
            piv = {j: -p for j, p in piv.items()}
            pb, pd = -pb, -pd
        m, b, d, cols = self.m, self.b, self.d, self.cols
        m[row], b[row], d[row] = piv, pb, pd
        terms = [(j, p) for j, p in piv.items() if j != col]
        for r in cols[col]:
            if r != row:
                other = m[r]
                k = other.pop(col)
                m[r], b[r], d[r] = _eliminate(other, b[r], d[r], k, terms, pb, pd, cols, r)
        cols[col] = {row}
        self.basis[row] = col
        return terms


def _run_simplex(tab: _Tableau, cost, allowed):
    """Maximize cost over the tableau; returns (status, pivots, bad_col, obj).

    ``allowed[j]`` False bars column j from entering (used to freeze
    artificials in phase 2).  ``bad_col`` is the unbounded entering column.
    More than 50000 + 200 * (rows + columns) pivots raise LPError.
    """
    pivot_limit = 50000 + 200 * (len(tab.m) + len(tab.cols))
    # The objective row (red, zb)/zd: reduced costs, nonzeros only, and
    # minus the objective value.  Start from the cost row and eliminate
    # every basic column, exactly as a pivot eliminates its column.
    red, zb, zd = _integer_row({j: c for j, c in enumerate(cost) if c}, 0)
    for r, bcol in enumerate(tab.basis):
        k = red.pop(bcol, 0)
        if k:
            terms = [(j, p) for j, p in tab.m[r].items() if j != bcol]
            red, zb, zd = _eliminate(red, zb, zd, k, terms, tab.b[r], tab.d[r])

    m, b, basis = tab.m, tab.b, tab.basis
    pivots = 0
    while True:
        # Bland: lowest eligible index
        enter = min((j for j, v in red.items() if v > 0 and allowed[j]), default=-1)
        if enter < 0:
            return OPTIMAL, pivots, -1, Fraction(-zb, zd)

        # Lowest ratio b[r]/a over rows with a = m[r][enter] > 0, compared
        # as b[r] * a_best < b_best * a; ties go to the lowest basic index.
        leave, best_b, best_a, best_basis = -1, 0, 1, None
        for r in tab.cols[enter]:
            a = m[r][enter]
            if a > 0:
                lhs, rhs = b[r] * best_a, best_b * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[r] < best_basis):
                    leave, best_b, best_a, best_basis = r, b[r], a, basis[r]
        if leave < 0:
            return UNBOUNDED, pivots, enter, Fraction(-zb, zd)

        terms = tab.pivot(leave, enter)
        k = red.pop(enter)
        red, zb, zd = _eliminate(red, zb, zd, k, terms, b[leave], tab.d[leave])
        pivots += 1
        if pivots > pivot_limit:
            raise LPError(f"pivot limit {pivot_limit} exceeded")


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Two-phase exact simplex.

    Returns an LPSolution whose duals certify optimality: primal and dual
    feasibility and complementary slackness are re-checked exactly, in
    integers, before returning.  Infeasibility returns a Farkas certificate
    y with y.A <= 0 (componentwise over variable columns) and y.b > 0;
    unboundedness returns an improving ray of the original variables.

    Each input row is read once into integer numerators over its lcm
    denominator (``_integer_row``).  That copy, in the input orientation,
    is the one the certificate is checked against; the tableau gets its
    own rows, negated where the rhs is negative, with free columns split.
    """
    lp.validate()
    rows = [_integer_row(row, rhs) for row, rhs in zip(lp.rows, lp.rhs)]

    # Variable mapping: free variables are split z = z+ - z-.
    col_of = []          # per original var: (plus_col, minus_col or None)
    cost_struct = []
    for k, c in enumerate(lp.objective):
        plus = len(cost_struct)
        cost_struct.append(c)
        if k in lp.free:
            cost_struct.append(-c)
            col_of.append((plus, plus + 1))
        else:
            col_of.append((plus, None))
    nstruct = len(cost_struct)

    # Standard-form columns: structural | slacks/surplus | artificials.
    # A row with a negative rhs is negated, which swaps <= and >=; its
    # flip turns the duals back to the input orientation.
    nrows = len(rows)
    flips = [-1 if b < 0 else 1 for _, b, _ in rows]
    senses = [{LEQ: GEQ, GEQ: LEQ, EQ: EQ}[sense] if flip < 0 else sense
              for sense, flip in zip(lp.senses, flips)]
    slack_col = {}
    art_col = {}
    ncols = nstruct
    for r, sense in enumerate(senses):
        if sense in (LEQ, GEQ):
            slack_col[r] = ncols
            ncols += 1
    for r, sense in enumerate(senses):
        if sense in (GEQ, EQ):
            art_col[r] = ncols
            ncols += 1

    # Initial +1 unit column per row (slack for <=, artificial otherwise);
    # its final tableau column is B^-1 e_r, which yields the duals.
    unit_col = [slack_col[r] if senses[r] == LEQ else art_col[r]
                for r in range(nrows)]

    matrix, bvec, dvec = [], [], []
    for r, ((row, b, den), sense, flip) in enumerate(zip(rows, senses, flips)):
        full = {}
        for k, v in row.items():
            v *= flip
            plus, minus = col_of[k]
            full[plus] = v
            if minus is not None:
                full[minus] = -v
        if sense == LEQ:
            full[slack_col[r]] = den
        elif sense == GEQ:
            full[slack_col[r]] = -den
        if r in art_col:
            full[art_col[r]] = den
        matrix.append(full)
        bvec.append(b * flip)
        dvec.append(den)

    tab = _Tableau(matrix, bvec, dvec, ncols)
    for r in range(nrows):
        tab.basis[r] = art_col.get(r, slack_col.get(r))

    total_pivots = 0
    art_set = set(art_col.values())

    # Phase 1: drive artificials to zero.
    if art_col:
        cost1 = [0] * ncols
        for c in art_set:
            cost1[c] = -1
        allowed = [True] * ncols
        status, pivots, _, obj1 = _run_simplex(tab, cost1, allowed)
        total_pivots += pivots
        if obj1 < 0:
            # Farkas certificate: y = -(phase-1 duals), in original row
            # orientation; satisfies y.rhs > 0 while y'A <= 0 over columns.
            y = _duals_from_basis(tab, cost1, unit_col)
            cert = [-flips[r] * y[r] for r in range(nrows)]
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
    cost2 = cost_struct + [0] * (ncols - nstruct)
    allowed = [j not in art_set for j in range(ncols)]
    status, pivots, bad_col, obj = _run_simplex(tab, cost2, allowed)
    total_pivots += pivots

    if status == UNBOUNDED:
        ray = _extract_ray(tab, bad_col, col_of)
        return LPSolution(status=UNBOUNDED, certificate=ray, pivots=total_pivots)

    values = {col: Fraction(b, d) for col, b, d in zip(tab.basis, tab.b, tab.d)}
    primal = _by_variable(values, col_of)

    y = _duals_from_basis(tab, cost2, unit_col)
    duals = [flips[r] * y[r] for r in range(nrows)]

    _verify_optimal(lp, rows, primal, duals)
    objective = sum((c * v for c, v in zip(lp.objective, primal) if c and v), ZERO)
    return LPSolution(status=OPTIMAL, objective=objective, primal=primal,
                      duals=duals, pivots=total_pivots)


def _duals_from_basis(tab: _Tableau, cost, unit_col):
    """Duals y = c_B . B^-1, read off the transformed unit columns.

    Row r started with a +1 unit column (slack for <= rows, artificial
    otherwise); its final tableau column equals B^-1 e_r, hence
    y_r = c_B . (final column of unit_col[r]).  The sum runs in integers:
    c_B over the lcm C of its denominators, the column's entries m / d
    over the lcm M of the denominators of the rows it touches, so y_r is
    one ``Fraction`` of sum c m (M / d) over C M.
    """
    cb, C = _over_common([cost[j] for j in tab.basis])
    m, d = tab.m, tab.d
    y = []
    for col in unit_col:
        touched = [rr for rr in tab.cols[col] if cb[rr]]
        M = math.lcm(*(d[rr] for rr in touched))    # 1 when none is
        acc = sum(cb[rr] * m[rr][col] * (M // d[rr]) for rr in touched)
        y.append(Fraction(acc, C * M))
    return y


def _extract_ray(tab: _Tableau, enter_col: int, col_of):
    """Improving direction: entering column increases, basics adjust."""
    direction = {enter_col: Fraction(1)}
    for r in tab.cols[enter_col]:
        direction[tab.basis[r]] = -Fraction(tab.m[r][enter_col], tab.d[r])
    return _by_variable(direction, col_of)


def _by_variable(values: dict, col_of) -> list:
    """Per original variable, z = z+ - z- from ``{column: value}``."""
    return [values.get(plus, ZERO) - (ZERO if minus is None else values.get(minus, ZERO))
            for plus, minus in col_of]


def _verify_optimal(lp: LinearProgram, rows: list, primal, duals) -> None:
    """Exact optimality certificate: primal feasibility, dual feasibility,
    complementary slackness.  A failure here is an internal bug.

    ``rows`` are ``lp``'s rows as ``_integer_row`` reads them, row k being
    (A_k, b_k) / d_k.  The check runs in integers: the primal is put over
    the lcm X of its denominators, the duals over theirs, Y, and the
    objective over its own, C.  Row k's lhs is then A_k . x / (d_k X),
    compared with b_k X.  Every dual combination goes over Y times the lcm
    M of the denominators of the rows with a nonzero dual, so column t's
    reduced cost has the sign of c_t Y M - C sum_k y_k A_kt M / d_k.  One
    pass over the nonzeros yields every row's lhs and every column's dual
    combination, so the check costs O(nnz)."""
    xs, X = _over_common(primal)
    ys, Y = _over_common(duals)
    cs, C = _over_common(lp.objective)
    M = math.lcm(1, *(den for (_, _, den), y in zip(rows, ys) if y))
    used = [0] * len(cs)                  # M Y (duals . column t)
    for k, (row, b, den) in enumerate(rows):
        y = ys[k] * (M // den) if ys[k] else 0
        lhs = 0
        for t, a in row.items():
            x = xs[t]
            if x:
                lhs += a * x
            if y:
                used[t] += y * a
        rhs = b * X
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
    scale = Y * M
    for t, col_used in enumerate(used):
        reduced = cs[t] * scale - col_used * C
        if t in lp.free:
            if reduced != 0:
                raise LPError(f"dual feasibility violated at free var {t}")
        else:
            if reduced > 0:
                raise LPError(f"dual feasibility violated at var {t}")
            if xs[t] != 0 and reduced != 0:
                raise LPError(f"complementary slackness violated at var {t}")
        if xs[t] < 0 and t not in lp.free:
            raise LPError(f"negative value for nonnegative var {t}")


# ---------------------------------------------------------------------------
# Matrix games
# ---------------------------------------------------------------------------


def _matrix(payoff: list) -> list:
    """``payoff`` itself, checked to be a matrix game: a nonempty list of
    rows of equal length, the row player maximizing ``payoff[r][c]``.
    Entries must be ints or Fractions (else LPError) and are used as
    given: no Fraction copy is made."""
    if not payoff or not payoff[0]:
        raise LPError("matrix game must be nonempty")
    if len(set(map(len, payoff))) != 1:
        raise LPError("matrix game must be rectangular")
    if not _EXACT_TYPES.issuperset(map(type, chain.from_iterable(payoff))):
        bad = _inexact(list(chain.from_iterable(payoff)))
        raise LPError(f"matrix game entry {bad!r} is not an int or a Fraction")
    return payoff


@dataclass
class MatrixGameSolution:
    value: Fraction | int                # a saddle entry is as given
    row_strategy: list
    col_strategy: list

    def check(self, payoff: list) -> None:
        """Exact guarantee inequalities for both strategies against the
        matrix game ``payoff`` (checked by ``_matrix``), in integers.

        The matrix is put over one denominator L and the strategies over
        theirs, P and Q.  With value = vn / vd, the row strategy's guarantee
        at column c is vd * sum_r p_r M_rc >= vn * P * L, and the column
        strategy's at row r is vd * sum_c q_c M_rc <= vn * Q * L: one
        integer dot product per column and per row."""
        R, C = len(_matrix(payoff)), len(payoff[0])
        if len(self.row_strategy) != R or len(self.col_strategy) != C:
            raise LPError("strategy lengths do not match the game")
        p, P = _over_common(self.row_strategy)
        q, Q = _over_common(self.col_strategy)
        if sum(p) != P or any(a < 0 for a in p):
            raise LPError("row strategy is not a distribution")
        if sum(q) != Q or any(b < 0 for b in q):
            raise LPError("column strategy is not a distribution")
        flat, L = _over_common([v for row in payoff for v in row])
        matrix = [flat[r * C:(r + 1) * C] for r in range(R)]
        vn, vd = self.value.numerator, self.value.denominator
        rows = [(a, matrix[r]) for r, a in enumerate(p) if a]
        floor = vn * P * L
        for c in range(C):
            if vd * sum(a * row[c] for a, row in rows) < floor:
                raise LPError("row strategy fails its guarantee")
        cols = [(b, c) for c, b in enumerate(q) if b]
        ceiling = vn * Q * L
        for row in matrix:
            if vd * sum(b * row[c] for b, c in cols) > ceiling:
                raise LPError("column strategy fails its guarantee")


def _over_common(values: list) -> tuple:
    """``(numerators, denominator)``: ``values`` over the lcm of their
    denominators."""
    den = denominator_lcm(values)
    return [v.numerator * (den // v.denominator) for v in values], den


def _saddle(M: list) -> tuple | None:
    """``(r, c)``, the lowest-index maximin row and the lowest-index
    minimax column, when max_r min_c M[r][c] == min_c max_r M[r][c]: a
    pure saddle point, whose entry M[r][c] is the value.  Else None.  A
    game with one row or one column always has one: the lowest-index min
    of its row, or max of its column."""
    mins = list(map(min, M))
    maxes = list(map(max, zip(*M)))
    lower = max(mins)
    if lower != min(maxes):
        return None
    return mins.index(lower), maxes.index(lower)


def _check_saddle(M: list, r: int, c: int, value) -> None:
    """Exact certificate of the pure saddle point (r, c) with ``value``:
    the value is the entry M[r][c], no entry of row r is below it (row r
    guarantees it against every column) and no entry of column c is above
    it (column c holds every row to it).  Lookups and comparisons only.
    Raises LPError, so the check also runs under ``python -O``."""
    if M[r][c] != value:
        raise LPError(f"saddle value {value} is not the entry at ({r}, {c})")
    if min(M[r]) < value:
        raise LPError(f"row {r} does not guarantee {value}")
    if max(row[c] for row in M) > value:
        raise LPError(f"column {c} does not hold the rows to {value}")


def solve_matrix_game(payoff: list) -> MatrixGameSolution:
    """Exact value and optimal mixed strategies of a matrix game, a list
    of rows (see ``_matrix``).

    A game with one row or one column is solved at its saddle point
    (``_saddle``): the value is that entry, as given, and both strategies
    are pure, certified by ``_check_saddle``.  Any other game, saddle or
    not, is the LP over (p, v): maximize v subject to p^T M >= v per
    column, sum p = 1, p >= 0.  Column duals give the minimizer's optimal
    mix, and ``MatrixGameSolution.check`` certifies both.
    """
    M = _matrix(payoff)
    R, C = len(M), len(M[0])
    if R == 1 or C == 1:
        r, c = _saddle(M)
        value = M[r][c]
        _check_saddle(M, r, c, value)
        return MatrixGameSolution(value=value,
                                  row_strategy=[ONE if k == r else ZERO for k in range(R)],
                                  col_strategy=[ONE if k == c else ZERO for k in range(C)])
    objective = [0] * R + [1]          # p_0..p_{R-1}, v
    rows, senses, rhs = [], [], []
    for c in range(C):                 # v - p^T M_col <= 0
        row = {r: -M[r][c] for r in range(R) if M[r][c]}
        row[R] = 1
        rows.append(row)
        senses.append(LEQ)
        rhs.append(0)
    rows.append(dict.fromkeys(range(R), 1))
    senses.append(EQ)
    rhs.append(1)

    sol = solve_lp(LinearProgram(objective, rows, senses, rhs, free=frozenset({R})))
    if sol.status != OPTIMAL:
        raise LPError(f"matrix game LP ended {sol.status}")
    value = sol.objective
    row_strategy = sol.primal[:R]
    # Duals of the C column constraints are >= 0 and sum to 1 (stationarity
    # of the free variable v): they are the minimizer's optimal mix.
    col_strategy = [sol.duals[c] for c in range(C)]
    if sum(col_strategy, ZERO) != 1:
        raise LPError("column duals do not form a distribution")
    solution = MatrixGameSolution(value=value, row_strategy=row_strategy,
                                  col_strategy=col_strategy)
    solution.check(M)
    return solution


def matrix_game_value(payoff: list) -> Fraction | int:
    """Exact value of a matrix game, without strategies.

    A game with a pure saddle point (``_saddle``) has that entry, as
    given, as its value, so an integer matrix with one needs no Fraction:
    max min == min max is itself the certificate, the maximin row
    guaranteeing the entry against every column and the minimax column
    holding every row to it.  Otherwise the value is
    ``solve_matrix_game``'s, a Fraction whose certificate is checked
    there.  Malformed input raises LPError (``_matrix``).
    """
    M = _matrix(payoff)
    saddle = _saddle(M)
    if saddle is not None:
        r, c = saddle
        return M[r][c]
    return solve_matrix_game(M).value
