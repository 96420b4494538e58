"""Seeded random generators for games and strategies (test-side only)."""

import random
from fractions import Fraction as F

from signalgames.errors import GameModelError
from signalgames.lp import EQ, GEQ, LEQ, LinearProgram
from signalgames.model import BehavioralStrategy, GameSpec, SymmetricGameSpec


def rational_weights(rng, n, denom_max=4):
    """n nonnegative rationals summing to exactly 1, all positive."""
    weights = [rng.randint(1, denom_max) for _ in range(n)]
    total = sum(weights)
    return [F(w, total) for w in weights]


def random_dist(rng, outcomes, support_max=2):
    k = rng.randint(1, min(support_max, len(outcomes)))
    chosen = rng.sample(outcomes, k)
    ws = rational_weights(rng, k)
    return dict(zip(chosen, ws))


def random_game(seed, n_states=2, n_actions=2, n_signals=2, support_max=2) -> GameSpec:
    """Small general game with sparse exact-rational transitions."""
    rng = random.Random(seed)
    states = [f"x{k}" for k in range(rng.randint(1, n_states))]
    I = [f"a{k}" for k in range(rng.randint(1, n_actions))]
    J = [f"b{k}" for k in range(rng.randint(1, n_actions))]
    C = [f"c{k}" for k in range(rng.randint(1, n_signals))]
    D = [f"d{k}" for k in range(rng.randint(1, n_signals))]
    triples = [(x, c, d) for x in states for c in C for d in D]
    initial = random_dist(rng, triples, support_max)
    transition = {}
    reward = {}
    for x in states:
        for i in I:
            for j in J:
                transition[(x, i, j)] = random_dist(rng, triples, support_max)
                reward[(x, i, j)] = F(rng.randint(-8, 8), rng.randint(1, 4))
    return GameSpec(states=states, actions1=I, actions2=J, signals1=C,
                    signals2=D, initial=initial, transition=transition,
                    reward=reward)


def random_symmetric_game(seed, n_states=2, n_actions=2, n_signals=2,
                          support_max=2) -> SymmetricGameSpec:
    rng = random.Random(seed)
    states = [f"x{k}" for k in range(rng.randint(1, n_states))]
    I = [f"a{k}" for k in range(rng.randint(1, n_actions))]
    J = [f"b{k}" for k in range(rng.randint(1, n_actions))]
    S = [f"s{k}" for k in range(rng.randint(1, n_signals))]
    pairs = [(x, s) for x in states for s in S]
    initial = random_dist(rng, pairs, support_max)
    transition = {}
    reward = {}
    for x in states:
        for i in I:
            for j in J:
                transition[(x, i, j)] = random_dist(rng, pairs, support_max)
                reward[(x, i, j)] = F(rng.randint(-4, 4), rng.randint(1, 4))
    return SymmetricGameSpec(states=states, actions1=I, actions2=J, signals=S,
                             initial=initial, transition=transition,
                             reward=reward)


def _reachable_views(spec: GameSpec, player: int, horizon: int):
    """All views of the given player with positive chance weight, lengths
    1..horizon stages (independent walk, no library tree reuse)."""
    views = set()
    frontier = {}
    for (x, c, d), p in spec.initial.items():
        if p > 0:
            v = (c,) if player == 1 else (d,)
            views.add(v)
            frontier.setdefault(v, set()).add(x)
    for _ in range(horizon - 1):
        nxt = {}
        for v, xs in frontier.items():
            for x in xs:
                for i in spec.actions1:
                    for j in spec.actions2:
                        for (x2, c, d), p in spec.transition[(x, i, j)].items():
                            if p <= 0:
                                continue
                            if player == 1:
                                v2 = v + (i, c)
                            else:
                                v2 = v + (j, d)
                            views.add(v2)
                            nxt.setdefault(v2, set()).add(x2)
        frontier = nxt
    return sorted(views)


def random_strategy(rng_or_seed, spec: GameSpec, player: int,
                    horizon: int) -> BehavioralStrategy:
    """Random exact behavioral strategy defined on every reachable view."""
    rng = (rng_or_seed if isinstance(rng_or_seed, random.Random)
           else random.Random(rng_or_seed))
    actions = spec.actions1 if player == 1 else spec.actions2
    table = {}
    for v in _reachable_views(spec, player, horizon):
        ws = rational_weights(rng, len(actions))
        table[v] = dict(zip(actions, ws))
    return BehavioralStrategy(player=player, horizon=horizon, table=table,
                              tail={a: F(1, len(actions)) for a in actions})


def constant_strategy(spec: GameSpec, player: int, action: str) -> BehavioralStrategy:
    """The strategy that always plays ``action``."""
    actions = spec.actions1 if player == 1 else spec.actions2
    if action not in actions:
        raise GameModelError(f"unknown action {action!r} for player {player}")
    return BehavioralStrategy(player=player, horizon=0, table={},
                              tail={a: F(1 if a == action else 0) for a in actions})


_LARGE_PRIMES = (999961, 999979, 999983, 1000003, 1000033, 1000037)


def _coprime_dist(rng, outcomes) -> dict:
    """Positive weights on ``outcomes`` summing to 1 over a denominator
    that is a product of two large primes."""
    den = rng.choice(_LARGE_PRIMES) * rng.choice(_LARGE_PRIMES)
    cuts = sorted(rng.randint(1, den - 1) for _ in outcomes[1:])
    return {a: F(hi - lo, den)
            for a, lo, hi in zip(outcomes, [0] + cuts, cuts + [den])}


def coprime_strategy(rng, spec: GameSpec, player: int,
                     stages: int) -> BehavioralStrategy:
    """Random exact behavioral strategy on every reachable view of at most
    ``stages`` stages, with a random ``tail`` beyond.  Each distribution
    has its own denominator, a product of two large primes, so the
    weights along a history rarely share factors."""
    actions = spec.actions1 if player == 1 else spec.actions2
    table = {v: _coprime_dist(rng, actions)
             for v in _reachable_views(spec, player, stages)}
    return BehavioralStrategy(player=player, horizon=stages, table=table,
                              tail=_coprime_dist(rng, actions))


def coprime_game(seed) -> GameSpec:
    """``random_game(seed)`` with the initial and every transition
    distribution reweighted on its support over a product of two large
    primes: the lcm of the transition denominators is large, and the
    chance weights along a history rarely share factors."""
    spec = random_game(seed)
    rng = random.Random(seed)
    return GameSpec(
        states=spec.states, actions1=spec.actions1, actions2=spec.actions2,
        signals1=spec.signals1, signals2=spec.signals2,
        initial=_coprime_dist(rng, list(spec.initial)),
        transition={key: _coprime_dist(rng, list(dist))
                    for key, dist in spec.transition.items()},
        reward=spec.reward)


def random_lp(rng) -> LinearProgram:
    """Small exact LP: at most 8 rows and 8 columns, sparse rational
    coefficients, mixed senses, each column free with probability 1/4.
    Half the programs take their right-hand sides from a planted point, so
    they are feasible; half get a row bounding the sum of the columns.
    Statuses come out roughly a third each."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
    density = rng.choice((0.3, 0.5, 0.8))
    rows = [{j: F(rng.randint(-6, 6), rng.randint(1, 5))
             for j in range(ncols) if rng.random() < density}
            for _ in range(nrows)]
    senses = [rng.choice((LEQ, GEQ, EQ)) for _ in range(nrows)]
    if rng.random() < 0.5:
        rhs = [F(rng.randint(-3, 8), rng.randint(1, 4)) for _ in range(nrows)]
    else:
        point = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(ncols)]
        room = {LEQ: 1, GEQ: -1, EQ: 0}
        rhs = [sum(v * point[j] for j, v in row.items()) + room[s] * rng.randint(0, 2)
               for row, s in zip(rows, senses)]
    free = frozenset(j for j in range(ncols) if rng.random() < 0.25)
    if rng.random() < 0.5:
        rows.append({j: F(rng.choice((-1, 1)) if j in free else 1)
                     for j in range(ncols)})
        senses.append(LEQ)
        rhs.append(F(rng.randint(1, 20), rng.randint(1, 3)))
    return LinearProgram(
        objective=[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)],
        rows=rows, senses=senses, rhs=rhs, free=free)


def dense_lp(rng, size=25) -> LinearProgram:
    """Dense exact LP: ``size`` full rows of integers in -9..9 over ``size``
    nonnegative columns, mostly <= with some >= and = rows, right-hand
    sides from a planted rational point, and one more row bounding the sum
    of the columns: bounded, and infeasible only where the point breaks
    that bound.  Its tableau rows grow to denominators of hundreds of
    bits."""
    rows = [{j: rng.randint(-9, 9) for j in range(size)} for _ in range(size)]
    senses = [rng.choice((LEQ, LEQ, LEQ, GEQ, EQ)) for _ in range(size)]
    point = [F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(size)]
    room = {LEQ: 1, GEQ: -1, EQ: 0}
    rhs = [sum(v * point[j] for j, v in row.items()) + room[s] * rng.randint(0, 3)
           for row, s in zip(rows, senses)]
    rows.append(dict.fromkeys(range(size), 1))
    senses.append(LEQ)
    rhs.append(rng.randint(20, 60))
    return LinearProgram(objective=[rng.randint(-5, 9) for _ in range(size)],
                         rows=rows, senses=senses, rhs=rhs)
