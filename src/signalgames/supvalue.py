"""Sup-evaluation machinery: running-max augmentation and monotone bounds.

The strategic evaluation  E[max of the first n stage rewards]  is the
n-stage value of an augmented game whose state carries the running maximum
achieved so far, with the terminal payoff  max(m, last stage reward).
These values are nondecreasing in n and every one of them is a guarantee
for the maximizer in the game evaluated by the all-time supremum, so the
sequence yields certified lower bounds of the sup value.

No finite horizon certifies the sup value from above in general; the report
therefore pairs the lower bounds with an optimistic-completion upper bound
(terminal payoff also counts the best reward still reachable from the final
state) and flags the value "exact" only when the two meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    PreconditionError,
    require_horizon,
    require_nondecreasing,
)
from .model import GameSpec, as_general
from .rationals import ZERO, format_rational
from .seqform import TerminalPayoff, nstage_value

_NOMAX = None  # running max before any stage reward exists


@dataclass
class AugmentedGame:
    """Base game with states (state, running max of completed stages)."""

    spec: GameSpec                      # augmented spec (encoded state ids)
    base: GameSpec
    decode: dict                        # aug state id -> (base state, max or None)

    def _determined_fn(self, reach: dict):
        """The running maximum's final value, where play can no longer move
        it: in an absorbing state, or once no reachable reward exceeds it."""
        base = self.base
        decode = self.decode

        def determined_fn(aug_state):
            x, m = decode[aug_state]
            if x in base.absorbing_states:
                g = base.absorbing_payoff(x)
                return g if m is None else max(m, g)
            if m is not None and m >= reach[x]:
                return m
            return None

        return determined_fn

    def terminal_running_max(self) -> TerminalPayoff:
        base = self.base
        decode = self.decode
        reach = reachable_max_reward(base)

        def action_fn(aug_state, i, j):
            x, m = decode[aug_state]
            g = base.reward[(x, i, j)]
            return g if m is None else max(m, g)

        return TerminalPayoff(action_fn=action_fn,
                              determined_fn=self._determined_fn(reach))

    def terminal_optimistic(self) -> TerminalPayoff:
        """Pathwise upper bound: unfinished play is credited with the best
        stage reward still reachable."""
        base = self.base
        decode = self.decode
        reach = reachable_max_reward(base)

        def action_fn(aug_state, i, j):
            x, m = decode[aug_state]
            g = base.reward[(x, i, j)]
            best = max((reach[x2] for (x2, _, _) in base.transition[(x, i, j)]),
                       default=g)
            out = max(g, best)
            return out if m is None else max(m, out)

        return TerminalPayoff(action_fn=action_fn,
                              determined_fn=self._determined_fn(reach))


def reachable_max_reward(spec: GameSpec) -> dict:
    """Best stage reward obtainable now or after any path from each state."""
    succ = {x: set() for x in spec.states}
    best_here = {x: max(spec.reward[(x, i, j)] for i in spec.actions1
                        for j in spec.actions2) for x in spec.states}
    for (x, i, j), dist in spec.transition.items():
        for (x2, _, _), p in dist.items():
            if p > 0:
                succ[x].add(x2)
    reach = dict(best_here)
    changed = True
    while changed:
        changed = False
        for x in spec.states:
            cap = max([reach[x]] + [reach[y] for y in succ[x]])
            if cap != reach[x]:
                reach[x] = cap
                changed = True
    return reach


def _aug_id(x: str, m) -> str:
    return x if m is None else f"{x} [max={format_rational(m)}]"


def augment_running_max(spec_or_sym) -> AugmentedGame:
    """Materialize the reachable part of the running-max augmentation.

    Signals and actions are untouched, so the players' information is
    exactly as in the base game; only the chance state grows.  Distinct
    reward triples with equal value share max-labels, keeping the state
    count at (states) x (distinct reward values reached).
    """
    base = as_general(spec_or_sym)

    frontier = []
    decode = {}
    initial = {}
    for (x, c, d), p in base.initial.items():
        if p <= 0:
            continue
        sid = _aug_id(x, _NOMAX)
        if sid not in decode:
            decode[sid] = (x, _NOMAX)
            frontier.append(sid)
        initial[(sid, c, d)] = initial.get((sid, c, d), ZERO) + p

    transition = {}
    reward = {}
    states = []
    while frontier:
        sid = frontier.pop()
        if sid in states:
            continue
        states.append(sid)
        x, m = decode[sid]
        for i in base.actions1:
            for j in base.actions2:
                g = base.reward[(x, i, j)]
                m2 = g if m is None else max(m, g)
                reward[(sid, i, j)] = g
                dist = {}
                for (x2, c, d), p in base.transition[(x, i, j)].items():
                    if p <= 0:
                        continue
                    sid2 = _aug_id(x2, m2)
                    if sid2 not in decode:
                        decode[sid2] = (x2, m2)
                        frontier.append(sid2)
                    dist[(sid2, c, d)] = dist.get((sid2, c, d), ZERO) + p
                transition[(sid, i, j)] = dist

    states.sort(key=lambda s: (base.states.index(decode[s][0]),
                               decode[s][1] is not None, decode[s][1] or 0))
    aug = GameSpec(states=states, actions1=list(base.actions1),
                   actions2=list(base.actions2), signals1=list(base.signals1),
                   signals2=list(base.signals2), initial=initial,
                   transition=transition, reward=reward,
                   comment=f"running-max augmentation of: {base.comment}",
                   public_label=dict(base.public_label))
    return AugmentedGame(spec=aug, base=base, decode=decode)


@dataclass
class SupValueReport:
    values: list                        # [(n, Fraction lower bound v(F_n))]
    best_lower: Fraction
    upper: Fraction | None
    exact: bool
    stabilized: bool
    budget_hit: bool


def sup_lower_bound(spec_or_sym, horizon: int, budget: int | None = None) -> Fraction:
    """v(F_horizon): the n-stage guarantee of the sup evaluation."""
    aug = augment_running_max(spec_or_sym)
    sol = nstage_value(aug.spec, horizon, aug.terminal_running_max(), budget)
    return sol.value


def sup_value_lowerbounds(spec_or_sym, max_horizon: int,
                          budget: int | None = None,
                          compute_upper: bool = True) -> SupValueReport:
    """Nondecreasing lower bounds v(F_1) <= ... <= v(F_max_horizon).

    Monotonicity is checked exactly (it is a theorem, so a violation is an
    implementation bug and raises CertificateError).  On budget exhaustion
    the prefix computed so far is returned with ``budget_hit`` set; when
    horizon 1 does not fit, its BudgetExceededError is raised.
    ``stabilized`` is True when the last bound equals the one three
    horizons back.
    """
    require_horizon(max_horizon, "max_horizon", PreconditionError)
    aug = augment_running_max(spec_or_sym)
    terminal = aug.terminal_running_max()
    values = []
    budget_hit = False
    for n in range(1, max_horizon + 1):
        try:
            sol = nstage_value(aug.spec, n, terminal, budget)
        except BudgetExceededError:
            if not values:
                raise
            budget_hit = True
            break
        values.append((n, sol.value))
        require_nondecreasing(values[-2:], "sup lower bounds")

    best_lower = values[-1][1]
    upper = None
    if compute_upper:
        try:
            up_sol = nstage_value(aug.spec, len(values), aug.terminal_optimistic(),
                                  budget)
            upper = up_sol.value
        except BudgetExceededError:
            upper = None
    stabilized = len(values) > 3 and values[-1][1] == values[-4][1]
    exact = upper is not None and upper == best_lower
    return SupValueReport(values=values, best_lower=best_lower, upper=upper,
                          exact=exact, stabilized=stabilized,
                          budget_hit=budget_hit)
