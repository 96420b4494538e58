"""Finite-scale verification of the classical no-limsup-value examples.

The three corpus games in this family are all decided by *first-switch*
strategies: play a base action until one chosen stage, then play the other
action forever (possibly never switching).  The proofs of their limsup
bounds construct an explicit reply to any such strategy and bound the
expected limsup payoff; this module reconstructs those replies and computes
the bounds exactly.

Expected limsup of an eventually-constant action profile: propagate the
exact state distribution through the finitely many non-stationary stages,
then analyze the stationary tail chain — the limsup of stage payoffs equals
the best payoff of the recurrent class the chain settles in, and the
transient states' expected limsups solve a small exact linear system, one
certified ``lp.solve_lp`` call.

Because the expected payoff is linear in the first-switch weights, the
supremum over the whole truncated family is attained at a vertex (a
deterministic switch time), so enumerating vertices is an exact and
complete search — no grid refinement is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .corpus import build_game
from .errors import GameModelError, PreconditionError, _exact, require_horizon
from .lp import EQ, OPTIMAL, LinearProgram, solve_lp, solve_matrix_game
from .model import GameSpec
from .rationals import ONE, ZERO, format_rational


@dataclass(frozen=True)
class FirstSwitchPlan:
    """Deterministic eventually-constant action stream."""

    base: str
    switch_action: str
    switch_stage: int | None = None      # None: never switch

    def action_at(self, stage: int) -> str:
        if self.switch_stage is not None and stage >= self.switch_stage:
            return self.switch_action
        return self.base

    def describe(self) -> str:
        if self.switch_stage is None:
            return f"{self.base} forever"
        if self.switch_stage == 1:
            return f"{self.switch_action} from stage 1"
        return f"{self.base} until stage {self.switch_stage - 1}, then {self.switch_action}"


def first_switch_family(base: str, switch_action: str, horizon: int):
    """All vertices of the truncated first-switch family."""
    plans = [FirstSwitchPlan(base, switch_action, t) for t in range(1, horizon + 1)]
    plans.append(FirstSwitchPlan(base, switch_action, None))
    return plans


# ---------------------------------------------------------------------------
# Exact expected limsup of a deterministic profile
# ---------------------------------------------------------------------------


def _state_marginal(dist_items):
    out: dict = {}
    for (x, _, _), p in dist_items:
        if p > 0:
            out[x] = out.get(x, ZERO) + p
    return out


def _chain(spec: GameSpec, a: str, b: str) -> dict:
    chain: dict = {}
    for x in spec.states:
        row: dict = {}
        for (x2, _, _), p in spec.transition[(x, a, b)].items():
            if p > 0:
                row[x2] = row.get(x2, ZERO) + p
        chain[x] = row
    return chain


def _recurrent_classes(chain: dict):
    """Closed communicating classes of a finite chain (support graph SCCs
    with no outgoing edges)."""
    states = list(chain)
    reach: dict = {x: {x} for x in states}
    changed = True
    while changed:
        changed = False
        for x in states:
            new = set(reach[x])
            for y in chain[x]:
                new |= reach[y]
            if new != reach[x]:
                reach[x] = new
                changed = True
    classes = []
    seen = set()
    for x in states:
        if x in seen:
            continue
        cls = {y for y in reach[x] if x in reach[y]}
        if cls:
            seen |= cls
            closed = all(set(chain[y]) <= cls for y in cls)
            if closed and x in cls:
                classes.append(frozenset(cls))
    # dedupe (every member discovered the same frozenset)
    return sorted(set(classes), key=lambda c: sorted(c))


def _tail_limsup(spec: GameSpec, dist: dict, a: str, b: str) -> Fraction:
    """E[limsup stage payoff] when actions are (a, b) forever from now.

    A recurrent state's limsup is its class's best payoff.  On the transient
    states it solves h = Q h + r, Q the chain among them and r(x) the sum,
    over the recurrent classes, of x's one-step mass into the class times
    its best payoff: one exact LP of = rows over free variables with a zero
    objective.  The system is nonsingular because play leaves the transient
    states."""
    chain = _chain(spec, a, b)
    classes = _recurrent_classes(chain)
    best = {x: max(spec.reward[(y, a, b)] for y in cls)
            for cls in classes for x in cls}
    transient = [x for x in spec.states if x not in best]

    if transient:
        col = {x: k for k, x in enumerate(transient)}
        rows, rhs = [], []
        for x in transient:
            row = {col[x]: ONE}
            r = ZERO
            for y, p in chain[x].items():
                if y in col:
                    row[col[y]] = row.get(col[y], ZERO) - p
                else:
                    r += p * best[y]
            rows.append(row)
            rhs.append(r)
        sol = solve_lp(LinearProgram(objective=[ZERO] * len(transient), rows=rows,
                                     senses=[EQ] * len(transient), rhs=rhs,
                                     free=frozenset(col.values())))
        if sol.status != OPTIMAL:
            raise GameModelError(f"tail chain system is {sol.status}")
        best.update(zip(transient, sol.primal))

    return sum((p * best[x] for x, p in dist.items() if p != 0), ZERO)


def expected_limsup(spec: GameSpec, plan1: FirstSwitchPlan,
                    plan2: FirstSwitchPlan) -> Fraction:
    """Exact expected limsup payoff of a deterministic profile.

    Finitely many prefix stages cannot move a limsup, so only the state
    distribution when both streams have turned constant matters.
    """
    spec.require_valid()
    settle = max(plan1.switch_stage or 1, plan2.switch_stage or 1)
    dist = _state_marginal(spec.initial.items())
    for t in range(1, settle):
        a, b = plan1.action_at(t), plan2.action_at(t)
        nxt: dict = {}
        for x, p in dist.items():
            for (x2, _, _), q in spec.transition[(x, a, b)].items():
                if q > 0:
                    nxt[x2] = nxt.get(x2, ZERO) + p * q
        dist = nxt
    return _tail_limsup(spec, dist, plan1.action_at(settle), plan2.action_at(settle))


def expected_limsup_mixture(spec: GameSpec, mix1, mix2) -> Fraction:
    """Bilinear extension to finite mixtures [(prob, plan)]."""
    total = ZERO
    for p, plan1 in mix1:
        for q, plan2 in mix2:
            if p * q > 0:
                total += p * q * expected_limsup(spec, plan1, plan2)
    return total


# ---------------------------------------------------------------------------
# Example claim verifiers
# ---------------------------------------------------------------------------


@dataclass
class ClaimCheck:
    example: int
    side: str
    horizon: int
    eps: Fraction
    bound: Fraction                      # the exact extremal payoff found
    threshold: Fraction                  # the bound the sources assert
    comparison: str                      # "<=" or ">="
    ok: bool
    reply: str
    vertex_values: list = field(default_factory=list)
    reduced_matrix: list | None = None
    reduced_value: Fraction | None = None

    def describe(self) -> str:
        rel = self.comparison
        return (f"example {self.example} {self.side}: extremal payoff "
                f"{format_rational(self.bound)} {rel} "
                f"{format_rational(self.threshold)} against {self.reply}")


def _after_horizon(base: str, switch_action: str):
    """A pure reply: ``base`` at every stage of the horizon, then switch."""
    return lambda N: [(ONE, FirstSwitchPlan(base, switch_action, N + 1))]


def _even_stay_mix(N: int):
    """Player 2's even mix of L forever and R forever, at any horizon."""
    return [(Fraction(1, 2), FirstSwitchPlan("L", "R", None)),
            (Fraction(1, 2), FirstSwitchPlan("R", "L", None))]


# The claims settled by one fixed reply, one row per (example, side): the
# corpus game; the searched player's first-switch family (base, switch
# action); the replying player; the reply as a horizon -> [(probability,
# plan)] mixture; its description ("{plan}" is its pure plan); and the
# sources' bound a + b * eps as (a, b).  Against a player-2 reply the best
# plan's payoff must be at most the bound, against a player-1 reply at least.
_REPLY_BOUNDS = {
    (1, "maxmin"): ("example1_guessing", ("T", "B"), 2, _after_horizon("L", "R"),
                    "player 2 plays {plan}", (Fraction(-1, 2), 1)),
    (1, "minmax"): ("example1_guessing", ("L", "R"), 1, _after_horizon("T", "B"),
                    "player 1 plays {plan}", (Fraction(1, 2), -1)),
    (2, "maxmin"): ("example2_informed", ("T", "B"), 2, _after_horizon("L", "R"),
                    "player 2 plays {plan}", (Fraction(-1, 2), 1)),
    (3, "minmax"): ("example3_bigmatch_blind1", ("B", "T"), 2, _even_stay_mix,
                    "player 2 mixes L-forever and R-forever evenly", (Fraction(1, 2), 0)),
    (3, "maxmin"): ("example3_bigmatch_blind1", ("B", "T"), 2, _after_horizon("R", "L"),
                    "player 2 plays {plan}", (ZERO, 1)),
}


def verify_example(example: int, side: str, horizon: int = 20,
                   eps=Fraction(1, 100)) -> ClaimCheck:
    """Reconstruct the reply construction for one example and side, on the
    example's corpus game (``corpus.build_game``).

    All payoffs are exact; the finite scale (horizon for the truncated
    family, eps for the tail allowance) is reported in the check.
    ``horizon`` must be an integer >= 1 (>= 2 for example 2 minmax, which
    probes a switch at stage horizon // 2) and ``eps`` exact, else
    PreconditionError.
    """
    require_horizon(horizon, error=PreconditionError)
    eps = _exact(eps, "eps")
    N = horizon
    if (example, side) == (2, "minmax"):
        if N < 2:
            raise PreconditionError(
                f"horizon must be >= 2 for example 2 minmax, got {N}")
        spec = build_game("example2_informed")
        # the two relevant strategies per player span the reduced game:
        # stay forever vs. switch once (switch times do not change the
        # entries; exactness of that collapse is re-verified here)
        sigma1 = FirstSwitchPlan("T", "B", None)
        sigma2 = FirstSwitchPlan("T", "B", N + 1)
        tau1 = FirstSwitchPlan("L", "R", None)
        tau2 = FirstSwitchPlan("L", "R", 1)
        matrix = [[expected_limsup(spec, s, t) for t in (tau1, tau2)]
                  for s in (sigma1, sigma2)]
        for m in (2, N // 2):
            alt = expected_limsup(spec, sigma2, FirstSwitchPlan("L", "R", m))
            if alt != matrix[1][1]:
                raise GameModelError("reduced matrix is not switch-time invariant")
        sol = solve_matrix_game(matrix)
        threshold = Fraction(-1, 6)
        return ClaimCheck(example=2, side=side, horizon=N, eps=eps,
                          bound=sol.value, threshold=threshold, comparison="<=",
                          ok=sol.value == threshold,
                          reply="reduced 2x2 game over stay/switch strategies",
                          reduced_matrix=matrix, reduced_value=sol.value)
    row = _REPLY_BOUNDS.get((example, side))
    if row is None:
        raise GameModelError(f"unknown example/side: {example}/{side}")
    game, (base, switch_action), replier, reply, text, (a, b) = row
    spec = build_game(game)
    mix = reply(N)
    values = []
    for plan in first_switch_family(base, switch_action, N):
        alone = [(ONE, plan)]
        pair = (alone, mix) if replier == 2 else (mix, alone)
        values.append((plan.describe(), expected_limsup_mixture(spec, *pair)))
    threshold = a + b * eps
    if replier == 2:
        bound = max(v for _, v in values)
        comparison, ok = "<=", bound <= threshold
    else:
        bound = min(v for _, v in values)
        comparison, ok = ">=", bound >= threshold
    return ClaimCheck(example=example, side=side, horizon=N, eps=eps,
                      bound=bound, threshold=threshold, comparison=comparison,
                      ok=ok, reply=text.format(plan=mix[0][1].describe()),
                      vertex_values=values)
