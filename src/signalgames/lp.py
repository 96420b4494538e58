"""Exact rational linear programming and matrix-game solving.

A two-phase primal simplex over exact rationals with Bland's anti-cycling
rule.  No floating point appears anywhere: optima of games whose data are
rational are themselves rational, and every acceptance value downstream is
asserted with exact equality.

Programs are sparse throughout.  A constraint row is a ``{column:
coefficient}`` dict of its nonzeros.  The tableau holds each row, and the
objective row, as integers: the numerators of its nonzeros, a
right-hand-side numerator and one positive row denominator.  Per column it
keeps an index of the rows that hold it, so a pivot touches only the rows
of the entering column, in one elimination pass.  A touched row A with
denominator d becomes (A*D - k*P) / (d*D), where P is the pivot row scaled
so that P[col] = D > 0 and k = A[col]; entries that cancel to zero are
dropped.  A row is not kept in lowest terms: it is divided by the gcd of
its denominator and numerators only once its denominator passes
``_REDUCE_BITS`` bits, since every pivot decision reads a row only up to a
positive scale.  The pivot loop builds no Fraction: the ratio test
compares b_r/a_r by cross-multiplying integers (the row denominator
cancels), and the objective row (minus the reduced costs, and the
objective value) is one more touched row, whose signs are all Bland's
rule reads.  Rows the pivot does not touch keep their scale; that is what
separates this from an integer-preserving (Edmonds/Bareiss) tableau, which
rescales every row on every pivot.

Only columns that can change the pivot path are stored.  A free variable is
split z = z+ - z-, and the minus column, always minus the plus column, is
never stored: the entering scan, the ratio test, the pivot and the ray read
it as -1 times its plus column.  The artificial columns are deleted when
phase 2 starts, which never lets them enter.  Column numbering, the basis
and every tie-break are those of the full standard form, and as rationals the
rows are the full tableau's rows with those columns left out, so the pivot
path and every returned fraction are unchanged.  The duals are read off the
final objective row at each row's slack or surplus column; an = row's dual
comes from its artificial column at the start of phase 2 and one backward
pass over phase 2's pivots (``_backward_duals``).

Each input row is read once into integer numerators over its lcm
denominator; no Fraction copy of the program is made.  Fractions appear
only where results are read off the final tableau, and the optimality
certificate is checked in integers against those input rows, in one pass
over their nonzeros, O(nnz) rather than O(rows x cols).  Coefficients,
right-hand sides and objective entries must be ints or Fractions, so no
float's binary expansion enters.

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

# A tableau row is brought to lowest terms only once its denominator is
# longer than this many bits.  Below it, a gcd scan and a rebuilt row per
# touched row cost more than the longer integers they save; far above it,
# dense programs carry integers many times their reduced length.  On the
# sequence-form programs of the benchmark and on dense 25x25 random ones,
# 250 bits ran faster than reducing every row or than a 60-bit bound, and
# never reducing took 1.6 times as long as always reducing on the dense ones.
_REDUCE_BITS = 250

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


def _lowest_terms(row: dict, b: int, d: int) -> tuple:
    """``(row, b, d)`` divided by gcd(d, b, *row.values())."""
    g = math.gcd(d, b, *row.values())
    if g == 1:
        return row, b, d
    return {j: a // g for j, a in row.items()}, b // g, d // g


class _Tableau:
    """Sparse simplex tableau over the integers, one denominator per row.

    Rows 0..n-1 are the constraint rows and row n (``obj``) is the
    objective row.  Row r is ``(m[r], b[r]) / d[r]``: ``m[r]`` is a
    ``{column: numerator}`` dict of its nonzeros, ``b[r]`` the right-hand
    side's numerator (``>= 0`` on a constraint row) and ``d[r] > 0`` the row
    denominator.  A row need not be in lowest terms: one whose denominator
    is longer than ``_REDUCE_BITS`` bits is brought there by the pivot or
    ``drop`` that leaves it so, and any other keeps the common factors its
    eliminations left.  The objective row is z = c_B B^-1 A - c, minus the
    reduced costs, with the objective value c_B B^-1 b on its right.
    ``cols[j]`` is a ``{row: None}`` dict (smaller than a set) of the rows,
    the objective row included, whose dict holds column j; the two always
    agree.

    Only live columns are stored.  The minus half of a split free variable
    (column t + 1, with ``split[t]`` true for its plus half t) is always
    minus its plus half, so it has no key: its entries and its reduced cost
    are read as -1 times column t's (``key``).  A basic column holds
    numerator d[r] in its row; a basic minus column holds -d[r] at its plus
    key.  Artificial columns are stored in phase 1 and deleted (``drop``)
    before phase 2, where they could never enter.  Column numbering and the
    basis are those of the full standard form.  So every column Bland's
    rule could pick has the index, the reduced cost and the entries it has
    in the full tableau, the same pivots follow, and the pivot path cannot
    move.

    While ``record`` is a list, each pivot appends the entering column's
    elimination step (see ``pivot``), for ``_backward_duals``.

    Every pivot decision reads a row only up to a positive scale: Bland's
    rule the signs of the objective row, the ratio test b[r]/a within one
    row (d[r] cancels), and its tie-break the basis.  So leaving a common
    factor in a row moves no pivot and no returned fraction.
    """

    def __init__(self, matrix, rhs, dens, ncols, split):
        self.obj = len(matrix)
        self.m = matrix + [{}]
        self.b = rhs + [0]
        self.d = dens + [1]
        self.basis = [None] * len(matrix)
        self.split = split
        self.record = None
        self.cols = [{} for _ in range(ncols)]
        for r, row in enumerate(matrix):
            for j in row:
                self.cols[j][r] = None

    def key(self, col: int) -> tuple:
        """``(stored column, sign)`` of standard-form column ``col``: a
        minus column reads as -1 times its plus column."""
        if col and self.split[col - 1]:
            return col - 1, -1
        return col, 1

    def set_objective(self, cost) -> None:
        """Make the objective row z = c_B B^-1 A - c of ``cost`` (one entry
        per standard-form column) over the current basis.

        In integers: the costs over their lcm C, and the basic rows with a
        nonzero cost over the lcm L of their denominators, so z is the sum
        of cost(basis[r]) (L / d[r]) times row r, minus L c, over C L."""
        m, b, d, cols, z = self.m, self.b, self.d, self.cols, self.obj
        for j in m[z]:
            del cols[j][z]
        cs, C = _over_common(cost)
        basic = [(r, cs[j]) for r, j in enumerate(self.basis) if cs[j]]
        L = math.lcm(1, *(d[r] for r, _ in basic))
        row = {j: -c * L for j, c in enumerate(cs) if c and self.key(j)[1] > 0}
        zb = 0
        for r, c in basic:
            f = c * (L // d[r])
            for j, a in m[r].items():
                row[j] = row.get(j, 0) + f * a
            zb += f * b[r]
        m[z], b[z], d[z] = _lowest_terms({j: a for j, a in row.items() if a}, zb, C * L)
        for j in m[z]:
            cols[j][z] = None

    def drop(self, columns) -> None:
        """Delete ``columns`` from every row, and bring each row that held
        one and is past ``_REDUCE_BITS`` back to lowest terms."""
        m, b, d, cols = self.m, self.b, self.d, self.cols
        touched = set()
        for c in columns:
            for r in cols[c]:
                del m[r][c]
            touched.update(cols[c])
            cols[c] = {}
        for r in touched:
            if d[r].bit_length() > _REDUCE_BITS:
                m[r], b[r], d[r] = _lowest_terms(m[r], b[r], d[r])

    def pivot(self, row: int, col: int) -> None:
        """Pivot on (row, col): one elimination pass over the rows that
        hold the column, the objective row among them.

        The pivot row (P, pb)/pd is scaled so that its entry in ``col`` is
        pd > 0.  A touched row (A, b)/d, whose entry in ``col`` has
        numerator k, becomes (A*pd - k*P) / (d*pd), with a factor common to
        k and pd cancelled first, so the scaling is skipped when pd divides
        k.  Entries that cancel to zero leave the row and ``cols``.  A row,
        the pivot row included, whose new denominator is longer than
        ``_REDUCE_BITS`` bits is divided by gcd(d, b, *row); any other
        keeps its common factors.  With ``record`` on, the step is appended
        as (row, pivot numerator, old row denominator, (r, k, d[r], ...)),
        the last a flat tuple of the touched rows: the entering column,
        read before the pivot."""
        m, b, d, cols = self.m, self.b, self.d, self.cols
        key, sign = self.key(col)
        pd = m[row][key]
        hits = [(r, m[r].pop(key), d[r]) for r in cols[key] if r != row]
        if sign < 0:
            pd = -pd
            hits = [(r, -k, dr) for r, k, dr in hits]
        if self.record is not None:
            self.record.append((row, pd, d[row], tuple(chain.from_iterable(hits))))
        # Dividing the pivot row by its entry pd/d makes it (P, pb) / pd:
        # its old basic column holds +-d[row], so P shares with pd only the
        # common factor the row already had.
        piv, pb = m[row], b[row]
        if pd < 0:                      # only a phase-1 drive-out pivot
            piv = {j: -p for j, p in piv.items()}
            pb, pd = -pb, -pd
        bound = _REDUCE_BITS
        if pd.bit_length() > bound:
            piv, pb, pd = _lowest_terms(piv, pb, pd)
        m[row], b[row], d[row] = piv, pb, pd
        terms = [(j, p) for j, p in piv.items() if j != key]
        gcd = math.gcd
        for r, k, dr in hits:
            a_row, br = m[r], b[r]
            g = gcd(k, pd)
            scale = pd
            if g != 1:
                k //= g
                scale //= g
            if scale != 1:
                a_row = {j: a * scale for j, a in a_row.items()}
                br *= scale
                dr *= scale
            for j, p in terms:
                a = a_row.get(j)
                if a is None:
                    a_row[j] = -k * p
                    cols[j][r] = None
                else:
                    a -= k * p
                    if a:
                        a_row[j] = a
                    else:
                        del a_row[j]
                        del cols[j][r]
            if pb:
                br -= k * pb
            if dr.bit_length() > bound:
                a_row, br, dr = _lowest_terms(a_row, br, dr)
            m[r], b[r], d[r] = a_row, br, dr
        cols[key] = {row: None}
        self.basis[row] = col


def _run_simplex(tab: _Tableau):
    """Maximize the tableau's objective row; returns (status, pivots,
    bad_col), ``bad_col`` being the unbounded entering column.

    More than 50000 + 200 * (rows + columns) pivots raise LPError, columns
    counted in the full standard form."""
    n = tab.obj
    pivot_limit = 50000 + 200 * (n + len(tab.cols))
    m, b, basis, cols, split = tab.m, tab.b, tab.basis, tab.cols, tab.split
    pivots = 0
    while True:
        # Bland: lowest index with a positive reduced cost, i.e. a negative
        # z entry, or a positive one at the plus key of a minus column.
        enter = min((j if v < 0 else j + 1 for j, v in m[n].items() if v < 0 or split[j]),
                    default=-1)
        if enter < 0:
            return OPTIMAL, pivots, -1

        # Lowest ratio b[r]/a over rows with entry a > 0 in the entering
        # column, compared as b[r] * a_best < b_best * a; ties go to the
        # lowest basic index.  The objective row holds the column too, with
        # an entry of the wrong sign, so it never qualifies.
        key, sign = tab.key(enter)
        leave, best_b, best_a, best_basis = -1, 0, 1, None
        for r in cols[key]:
            a = m[r][key]
            if sign < 0:
                a = -a
            if a > 0:
                lhs, rhs = b[r] * best_a, best_b * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[r] < best_basis):
                    leave, best_b, best_a, best_basis = r, b[r], a, basis[r]
        if leave < 0:
            return UNBOUNDED, pivots, enter

        tab.pivot(leave, enter)
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
    own rows, negated where the rhs is negative, holding only live columns
    (see ``_Tableau``).
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
    split = [False] * ncols
    for plus, minus in col_of:
        split[plus] = minus is not None

    matrix, bvec, dvec = [], [], []
    for r, ((row, b, den), sense, flip) in enumerate(zip(rows, senses, flips)):
        full = {col_of[k][0]: v * flip for k, v in row.items()}
        if sense == LEQ:
            full[slack_col[r]] = den
        elif sense == GEQ:
            full[slack_col[r]] = -den
        if r in art_col:
            full[art_col[r]] = den
        matrix.append(full)
        bvec.append(b * flip)
        dvec.append(den)

    tab = _Tableau(matrix, bvec, dvec, ncols, split)
    for r in range(nrows):
        tab.basis[r] = art_col.get(r, slack_col.get(r))

    total_pivots = 0
    art_set = set(art_col.values())
    eq_cols = {}

    # Phase 1: drive artificials to zero.
    if art_col:
        cost1 = [0] * ncols
        for c in art_set:
            cost1[c] = -1
        tab.set_objective(cost1)
        _, pivots, _ = _run_simplex(tab)
        total_pivots += pivots
        if tab.b[tab.obj] < 0:
            # Farkas certificate: y = -(phase-1 duals), in original row
            # orientation; satisfies y.rhs > 0 while y'A <= 0 over columns.
            # Row r's +1 unit column is its slack (<=) or its artificial.
            units = [(slack_col[r] if senses[r] == LEQ else art_col[r], 1)
                     for r in range(nrows)]
            y = _duals_from_basis(tab, cost1, units)
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
        # Phase 2 never lets an artificial enter, so it stores none.  An =
        # row's dual needs its artificial's column B0^-1 e_r, kept here as
        # (row, numerator, denominator) triples, and phase 2's pivots.
        eq_cols = {r: [(i, tab.m[i][c], tab.d[i]) for i in tab.cols[c]]
                   for r, c in art_col.items() if senses[r] == EQ}
        tab.drop(art_set)
        if eq_cols:
            tab.record = []

    # Phase 2.
    cost2 = cost_struct + [0] * (ncols - nstruct)
    tab.set_objective(cost2)
    status, pivots, bad_col = _run_simplex(tab)
    total_pivots += pivots

    if status == UNBOUNDED:
        ray = _extract_ray(tab, bad_col, col_of)
        return LPSolution(status=UNBOUNDED, certificate=ray, pivots=total_pivots)

    values = {col: Fraction(b, d) for col, b, d in zip(tab.basis, tab.b, tab.d)}
    primal = _by_variable(values, col_of)

    # Row r's slack is +e_r (<=) and its surplus -e_r (>=).
    units = [None if r not in slack_col else (slack_col[r], 1 if senses[r] == LEQ else -1)
             for r in range(nrows)]
    y = _duals_from_basis(tab, cost2, units, eq_cols)
    duals = [flips[r] * y[r] for r in range(nrows)]

    _verify_optimal(lp, rows, primal, duals)
    objective = sum((c * v for c, v in zip(lp.objective, primal) if c and v), ZERO)
    return LPSolution(status=OPTIMAL, objective=objective, primal=primal,
                      duals=duals, pivots=total_pivots)


def _duals_from_basis(tab: _Tableau, cost, units, eq_cols=None) -> list:
    """Duals y = c_B B^-1 of the final basis, one per row.

    Where ``units[r]`` is (u, s), standard-form column u is s e_r: the
    row's slack (s = 1), its surplus (s = -1) or, in phase 1, its
    artificial (s = 1).  The objective row holds z_u = c_B B^-1 A_u - c_u
    = s y_r - c_u there, so y_r = s (z_u + c_u), one ``Fraction`` read off
    the row (c_u is the integer 0 or -1).  The other rows are the = rows
    after phase 2, whose artificial columns are not stored:
    ``_backward_duals`` gets theirs from ``eq_cols``.
    """
    z, zd = tab.m[tab.obj], tab.d[tab.obj]
    y = _backward_duals(tab, cost, eq_cols) if eq_cols else {}
    return [y[r] if unit is None
            else Fraction(unit[1] * (z.get(unit[0], 0) + cost[unit[0]] * zd), zd)
            for r, unit in enumerate(units)]


def _backward_duals(tab: _Tableau, cost, eq_cols: dict) -> dict:
    """``{r: y_r}`` for the = rows, from their artificial columns at the
    start of phase 2 and the pivots recorded since.

    ``eq_cols[r]`` is B0^-1 e_r as (row, numerator, denominator) triples.
    A recorded pivot on row p whose entering column was alpha (alpha_i =
    k_i / d_i off the pivot row, alpha_p = pd / dp) maps a column v to
    E v: v_p / alpha_p in row p and v_i - alpha_i v_p / alpha_p elsewhere.
    So the final artificial column is E_k...E_1 B0^-1 e_r, and y_r =
    c_B . E_k...E_1 B0^-1 e_r = w . B0^-1 e_r with w = c_B E_k...E_1.  One
    backward pass over the record builds w: each step changes only w_p,
    to (w_p - sum_i w_i alpha_i) / alpha_p, summed in integers over the
    lcm of its terms' denominators, one ``Fraction`` per step.  The
    objective row is no basis row: its weight is 0."""
    w = [cost[j] for j in tab.basis] + [0]
    for p, pd, dp, hits in reversed(tab.record):
        steps = iter(hits)
        terms = [(w[i], k, di) for i, k, di in zip(steps, steps, steps) if w[i]]
        if terms or w[p]:
            terms.append((w[p], -1, 1))
            acc, L = _dot(terms)            # sum_i w_i alpha_i - w_p
            w[p] = Fraction(-acc * dp, L * pd)
    return {r: Fraction(*_dot([(w[i], a, di) for i, a, di in col if w[i]]))
            for r, col in eq_cols.items()}


def _dot(terms) -> tuple:
    """``(acc, L)`` with acc / L the sum of v k / d over ``terms`` of (v,
    k, d), v an int or a Fraction, k and d integers: L is the lcm of the
    denominators of the v / d."""
    L = math.lcm(1, *(v.denominator * d for v, _, d in terms))
    return sum(v.numerator * k * (L // (v.denominator * d)) for v, k, d in terms), L


def _extract_ray(tab: _Tableau, enter_col: int, col_of):
    """Improving direction: entering column increases, basics adjust."""
    key, sign = tab.key(enter_col)
    direction = {enter_col: Fraction(1)}
    for r in tab.cols[key]:
        if r != tab.obj:
            direction[tab.basis[r]] = -Fraction(sign * tab.m[r][key], tab.d[r])
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
    """A matrix game's value with an optimal strategy per player, as lists
    of probabilities over rows and columns.  ``solve_matrix_game`` returns
    only solutions that ``_certify`` accepted on its validated matrix."""

    value: Fraction | int                # a saddle entry is as given
    row_strategy: list
    col_strategy: list

    def check(self, payoff: list) -> None:
        """Certify both strategies against the matrix game ``payoff``: the
        matrix is checked by ``_matrix``, then the solution by ``_certify``.
        This is the entry for callers outside the package, whose solution
        and matrix nothing has validated (a stored or hand-built
        solution); ``solve_matrix_game`` calls ``_certify`` on the matrix
        it validated.  Raises LPError, so the check also runs under
        ``python -O``."""
        self._certify(_matrix(payoff))

    def _certify(self, M: list) -> None:
        """Exact guarantee inequalities for both strategies against ``M``, a
        matrix ``_matrix`` accepted, in integers.

        The matrix is put over one denominator L and the strategies over
        theirs, P and Q.  With value = vn / vd, the row strategy's guarantee
        at column c is vd * sum_r p_r M_rc >= vn * P * L, and the column
        strategy's at row r is vd * sum_c q_c M_rc <= vn * Q * L: one
        integer dot product per column and per row.  For a pure pair (row
        r, column c) these say that no entry of row r is below the value and
        no entry of column c is above it, so the value is M[r][c]: the
        saddle-point test."""
        R, C = len(M), len(M[0])
        if len(self.row_strategy) != R or len(self.col_strategy) != C:
            raise LPError("strategy lengths do not match the game")
        p, P = _over_common(self.row_strategy)
        q, Q = _over_common(self.col_strategy)
        if sum(p) != P or any(a < 0 for a in p):
            raise LPError("row strategy is not a distribution")
        if sum(q) != Q or any(b < 0 for b in q):
            raise LPError("column strategy is not a distribution")
        flat, L = _over_common([v for row in M for v in row])
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


def solve_matrix_game(payoff: list) -> MatrixGameSolution:
    """Exact value and optimal mixed strategies of a matrix game, a list
    of rows, validated once by ``_matrix``.

    A game with one row or one column is solved at its saddle point
    (``_saddle``): the value is that entry, as given, and both strategies
    are pure.  Any other game, saddle or not, is the LP over (p, v):
    maximize v subject to p^T M >= v per column, sum p = 1, p >= 0.  Column
    duals give the minimizer's optimal mix.  Either solution is certified
    by ``MatrixGameSolution._certify`` before it is returned.
    """
    M = _matrix(payoff)
    R, C = len(M), len(M[0])
    if R == 1 or C == 1:
        r, c = _saddle(M)
        solution = MatrixGameSolution(
            value=M[r][c], row_strategy=[ONE if k == r else ZERO for k in range(R)],
            col_strategy=[ONE if k == c else ZERO for k in range(C)])
        solution._certify(M)
        return solution
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
    # Duals of the C column constraints are >= 0 and sum to 1 (stationarity
    # of the free variable v): they are the minimizer's optimal mix, which
    # ``_certify`` checks to be a distribution.
    solution = MatrixGameSolution(value=sol.objective, row_strategy=sol.primal[:R],
                                  col_strategy=[sol.duals[c] for c in range(C)])
    solution._certify(M)
    return solution
