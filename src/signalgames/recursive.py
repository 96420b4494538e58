"""Uniform value of recursive games with nonnegative absorbing payoffs.

For such games the n-stage mean values are nondecreasing in n, every
n-stage optimal strategy of the maximizer guarantees its n-stage value at
all longer horizons, and the supremum of the values is the uniform value.
The solver therefore reports a *certified lower bound* (the largest n-stage
value computed, sound unconditionally) separate from a *stabilized
estimate* (a heuristic stopping rule); no finite-horizon upper bound is
claimed because none is available in general.

Values are computed on an increasing horizon schedule — consecutive
horizons first, then geometrically spaced, densified near the top of
long schedules — because meaningful accuracy on blind games needs horizons far past
anything a per-horizon enumeration of every intermediate n could afford.
On the belief-reduction routes the whole schedule is one sweep: a single
belief graph built to the largest scheduled horizon (one node per distinct
belief, expanded once, and the list of nodes reached at each depth) and
one pass of the value recursion over the number of stages left
(``reduction.solve_horizons``) give every scheduled value at once.  The
graph is released before strategies are extracted at one horizon from the
same kind of build, whose solutions ``reduction.solve_backward`` spreads
over every observed history.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    CertificateError,
    PreconditionError,
    UnsupportedStructureError,
    _exact,
    require_horizon,
    require_nondecreasing,
)
from .model import MEAN, PUBLIC, BehavioralStrategy, GameSpec, as_general
from .reduction import _resolve_view, build_auxiliary, solve_backward, solve_horizons
from .seqform import best_response_value, nstage_value


@dataclass
class RecursiveClassification:
    is_recursive: bool
    is_nonnegative: bool
    absorbing: list                      # [(state, payoff)]
    offending: list                      # nonzero rewards outside absorbing states

    @property
    def solvable(self) -> bool:
        return self.is_recursive and self.is_nonnegative


def classify(spec_or_sym) -> RecursiveClassification:
    """Exact structural test: rewards vanish outside absorbing states, and
    absorbing payoffs are all nonnegative."""
    spec = as_general(spec_or_sym)
    form = spec.integer_form()
    absorbing = [(x, Fraction(a, form.L)) for x, a in form.absorbing.items()]
    offending = []
    for (x, i, j), g in spec.reward.items():
        if x not in form.absorbing and g != 0:
            offending.append((x, i, j, g))
    is_recursive = not offending
    is_nonnegative = all(pay >= 0 for _, pay in absorbing)
    return RecursiveClassification(is_recursive=is_recursive,
                                   is_nonnegative=is_nonnegative,
                                   absorbing=absorbing, offending=offending)


@dataclass
class UniformValueReport:
    value_sequence: list                 # [(n, Fraction)] nondecreasing
    certified_lower: Fraction            # max computed value: sound bound
    stabilized: bool
    window: int
    tol: Fraction
    eps_optimal_strategy1: BehavioralStrategy | None
    strategy_horizon: int | None
    strategy_guarantee: Fraction | None  # v_N of the returned strategy
    # Player 2's exactly-optimal uniform strategy exists but is not
    # constructible at finite horizon; what is returned is the cap v_N that
    # player 2's horizon-N optimal strategy certifies at that horizon.
    player2_strategy: BehavioralStrategy | None
    player2_cap_at_horizon: Fraction | None
    strategy_eps_achieved: Fraction | None
    route: str
    budget_hit: bool                     # the budget cut the schedule short


def default_schedule(n_max: int) -> list:
    """1..12 consecutively, then ratio 3/2, then, from n_max = 100 on, four
    points spaced n_max // 10 apart below n_max (tight spacing where the
    stopping rule looks).  ``n_max`` must be an integer >= 1, else
    PreconditionError."""
    require_horizon(n_max, "n_max", PreconditionError)
    pts = list(range(1, min(12, n_max) + 1))
    n = pts[-1]
    while n < n_max:
        n = min(n_max, max(n + 1, (n * 3) // 2))
        pts.append(n)
    if n_max >= 100:
        step = n_max // 10
        pts = sorted(set(pts) | {n_max - k * step for k in range(1, 5)})
    return pts


def _value_route(spec: GameSpec):
    """Pick the cheapest sound engine for n-stage values: the view the
    belief reduction would use, else the sequence form."""
    try:
        view, _ = _resolve_view(spec)
    except UnsupportedStructureError:
        return "sequence-form"
    return "reduction-public" if view == PUBLIC else "reduction-private"


def _nstage(spec: GameSpec, route: str, n: int, budget):
    """Both players' horizon-n optimal strategies."""
    if route.startswith("reduction"):
        aux = build_auxiliary(spec, n, budget=budget)
        sol = solve_backward(aux, payoff=MEAN, want_strategies=True)
    else:
        sol = nstage_value(spec, n, budget=budget)
    return sol.strategy1, sol.strategy2


def _extract(spec: GameSpec, route: str, values: list, target, budget):
    """Strategies at the first horizon whose value reaches ``target`` and
    whose build fits the budget, else at the largest horizon that fits.

    Returns ``(n, v_n, strategy1, strategy2)``; when no build fits, raises
    the first BudgetExceededError caught.  Levels 1..n of a build are the
    build to n, so a build that overflows at n overflows at every larger
    horizon too: neither search tries one.
    """
    limit = first = None
    for n, v in values:
        if v >= target:
            try:
                return (n, v, *_nstage(spec, route, n, budget))
            except BudgetExceededError as err:
                # without its traceback, whose frames hold the failed build
                first, limit = err.with_traceback(None), n
            break
    for n, v in reversed(values):
        if limit is None or n < limit:
            try:
                return (n, v, *_nstage(spec, route, n, budget))
            except BudgetExceededError as err:
                first = first or err.with_traceback(None)
    raise first


def _schedule_values(spec: GameSpec, route: str, horizons: list, budget) -> tuple:
    """``([(n, v_n)], budget_hit)`` for the longest prefix of ``horizons``
    that fits the node budget, ``budget_hit`` True when that prefix is
    shorter than ``horizons``; the first horizon's BudgetExceededError
    when none fits."""
    if route.startswith("reduction"):
        return _sweep_values(spec, horizons, budget)
    values = []
    for n in horizons:
        try:
            values.append((n, nstage_value(spec, n, budget=budget).value))
        except BudgetExceededError:
            if not values:
                raise
            return values, True
    return values, False


def _sweep_values(spec: GameSpec, horizons: list, budget) -> tuple:
    """One belief graph to the largest horizon, one stage-indexed pass;
    returns what ``_schedule_values`` does.

    Levels 1..n of that graph, the nodes reached at each depth and their
    charges, are those of the graph built to horizon n, so an overflow at
    level L rules out precisely the horizons n >= L: the sweep is rebuilt
    once, for the horizons before the first such n, the prefix a
    per-horizon loop would return.
    """
    def build(top):
        return build_auxiliary(spec, top, budget=budget)

    fits = horizons
    try:
        aux = build(max(horizons))
    except BudgetExceededError as err:
        fits = [n for n in horizons if n < err.level_reached]
        if not fits:
            raise
        aux = build(fits[-1])
    by_n = solve_horizons(aux, fits)
    return [(n, by_n[n]) for n in fits], len(fits) < len(horizons)


def uniform_value(spec_or_sym, tol=Fraction(1, 10000), n_max: int = 512,
                  window: int = 5, schedule: list | None = None,
                  budget: int | None = None) -> UniformValueReport:
    """Monotone scheme for the uniform value of recursive nonnegative games.

    Raises PreconditionError otherwise: with negative absorbing payoffs the
    n-stage values need not converge upward to anything (the guessing game
    has no uniform value at all), so the certificate below would be unsound.
    It is raised too for an ``n_max`` or ``window`` that is not an integer
    >= 1, and for a ``tol`` that is not a positive int, Fraction or
    ``"p/q"`` string.

    ``stabilized`` is True when the last value is within ``tol`` of the
    value ``window`` schedule points back; ``certified_lower`` needs no such
    heuristic and is always a true guarantee for player 1.  The schedule
    must be strictly increasing positive integers and is read up to its
    first point above ``n_max``.  Under a node budget the values stop
    before the first horizon that does not fit, with ``budget_hit`` set;
    when the first does not, its BudgetExceededError is raised.  The returned
    strategies are those of the first horizon within 1/20 of
    ``certified_lower`` whose build fits, else of the largest horizon that
    fits; ``extract_eps_optimal`` extracts for any other eps.
    """
    spec = as_general(spec_or_sym)
    require_horizon(n_max, "n_max", PreconditionError)
    require_horizon(window, "window", PreconditionError)
    tol = _exact(tol, "tol")
    if tol <= 0:
        raise PreconditionError(f"tol must be > 0, got {tol}")
    cls = classify(spec)
    if not cls.solvable:
        detail = ("rewards outside absorbing states: "
                  f"{cls.offending[:3]}" if not cls.is_recursive else
                  "negative absorbing payoffs: "
                  f"{[(x, p) for x, p in cls.absorbing if p < 0]}")
        raise PreconditionError(f"uniform_value needs a recursive nonnegative game; {detail}")

    route = _value_route(spec)
    pts = list(schedule) if schedule is not None else default_schedule(n_max)
    if not (all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
                for n in pts)
            and all(a < b for a, b in zip(pts, pts[1:]))):
        raise PreconditionError(
            f"the schedule must be strictly increasing positive integers, "
            f"got {pts}")
    horizons = [n for n in pts if n <= n_max]     # a prefix: pts increases
    if not horizons:
        raise PreconditionError(
            f"the schedule needs horizons in 1..n_max={n_max}, got {pts}")
    values, budget_hit = _schedule_values(spec, route, horizons, budget)
    require_nondecreasing(
        values, "n-stage values of a recursive nonnegative game")

    certified = values[-1][1]
    stabilized = (len(values) > window
                  and values[-1][1] - values[-1 - window][1] < tol)

    # Strategy extraction at the smallest horizon already within 1/20 of
    # the certified level (monotonicity then makes its n-stage guarantee a
    # uniform one), else at the largest horizon whose observed histories fit
    # the budget.
    try:
        strat_n, strat_value, strat, strat2 = _extract(
            spec, route, values, certified - Fraction(1, 20), budget)
    except BudgetExceededError:
        strat_n = strat_value = strat = strat2 = None
    p2_cap = None
    if strat is not None:
        # two exact certificates at the extraction horizon: player 1's
        # strategy floors the value, player 2's caps it, and they meet
        try:
            floor = best_response_value(spec, strat, strat_n,
                                        responder=2, budget=budget)
            if floor != strat_value:
                raise CertificateError(
                    f"player 1's horizon-{strat_n} strategy guarantees "
                    f"{floor}, not the value {strat_value}")
            if strat2 is not None:
                p2_cap = best_response_value(spec, strat2, strat_n,
                                             responder=1, budget=budget)
                if p2_cap != strat_value:
                    raise CertificateError(
                        f"player 2's horizon-{strat_n} strategy caps at "
                        f"{p2_cap}, not the value {strat_value}")
        except BudgetExceededError:
            p2_cap = None

    return UniformValueReport(
        value_sequence=values, certified_lower=certified,
        stabilized=stabilized, window=window, tol=tol,
        eps_optimal_strategy1=strat, strategy_horizon=strat_n,
        strategy_guarantee=strat_value,
        player2_strategy=strat2, player2_cap_at_horizon=p2_cap,
        strategy_eps_achieved=(certified - strat_value
                               if strat_value is not None else None),
        route=route, budget_hit=budget_hit)


@dataclass
class EpsOptimalResult:
    strategy: BehavioralStrategy
    horizon: int
    guarantee: Fraction                  # certified uniform guarantee v_N
    requested_eps: Fraction
    achieved_eps: Fraction
    warning: str
    certificates: list                   # [(m, best-response value at m)]


def extract_eps_optimal(spec_or_sym, report: UniformValueReport, eps,
                        budget: int | None = None) -> EpsOptimalResult:
    """Strategy guaranteeing certified_lower - eps in the uniform sense.

    Picks the smallest computed horizon N with v_N >= certified_lower - eps
    and returns the N-stage optimal strategy: by monotonicity its value
    against any reply at any horizon m >= N is at least v_N.  The
    certificate list re-verifies this with exact best responses at
    N..N+3.  When even the deepest extractable strategy misses eps, the
    best available one is returned with a warning.  ``eps`` is exact, like
    ``uniform_value``'s ``tol``, and >= 0: a float or a negative eps raises
    PreconditionError.
    """
    spec = as_general(spec_or_sym)
    eps = _exact(eps, "eps")
    if eps < 0:
        raise PreconditionError(f"eps must be >= 0, got {eps}")
    target = report.certified_lower - eps
    n, v, strategy, _ = _extract(spec, report.route, report.value_sequence,
                                 target, budget)
    warning = ""
    if v < target:
        warning = (f"requested eps {eps} unattainable within the computed "
                   f"schedule; returning the horizon-{n} strategy "
                   f"(gap {report.certified_lower - v})")
    certs = []
    for m in range(n, n + 4):
        try:
            br = best_response_value(spec, strategy, m, responder=2, budget=budget)
        except BudgetExceededError:
            break
        if br < v:
            raise CertificateError(
                f"monotone guarantee violated: the horizon-{n} strategy earns "
                f"{br} < {v} at horizon {m}")
        certs.append((m, br))
    return EpsOptimalResult(strategy=strategy, horizon=n, guarantee=v,
                            requested_eps=eps,
                            achieved_eps=report.certified_lower - v,
                            warning=warning, certificates=certs)
