"""Game schema, validation, signaling classification and observer views.

A game instance is a finite two-player zero-sum repeated game with signals:
states, two action alphabets, two signal alphabets, an exact initial
distribution over (state, signal1, signal2), an exact transition kernel
(state, a1, a2) -> distribution over (state, signal1, signal2), and a
rational stage reward per (state, a1, a2).  Player 1 maximizes.

Everything is immutable by convention after construction; instances are
safe to share across solver tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import GameModelError, IncompleteStrategyError, UnsupportedStructureError
from .rationals import ZERO, format_rational

# A finite-support exact distribution.
Dist = dict


def check_distribution(dist: Dist, what: str) -> list[str]:
    """What keeps ``dist`` from being a distribution: a probability that is
    not a Fraction, one outside [0, 1], or a mass (of the Fractions) other
    than 1.  The range test reads numerators and denominators, and the mass
    is one integer fraction num/den, cross-multiplied; a Fraction is built
    only for a message."""
    problems = []
    num, den = 0, 1
    for outcome, p in dist.items():
        if not isinstance(p, Fraction):
            problems.append(f"{what}: probability of {outcome!r} is not a Fraction")
            continue
        n, d = p.numerator, p.denominator
        if n < 0 or n > d:
            problems.append(f"{what}: probability {format_rational(p)} of {outcome!r} outside [0,1]")
        if d == den:
            num += n
        else:
            num, den = num * d + n * den, den * d
    if num != den:
        problems.append(f"{what}: mass {format_rational(Fraction(num, den))} != 1")
    return problems


@dataclass(eq=False)
class GameSpec:
    """Finite-support description of a repeated game with signals.

    Iteration everywhere follows the declared list order of ``states``,
    ``actions1``, ... so outputs are deterministic and bit-reproducible.
    """

    states: list[str]
    actions1: list[str]
    actions2: list[str]
    signals1: list[str]
    signals2: list[str]
    initial: Dist                       # (state, sig1, sig2) -> Fraction
    transition: dict                    # (state, a1, a2) -> {(state', c, d): Fraction}
    reward: dict                        # (state, a1, a2) -> Fraction
    comment: str = ""
    # When this spec is the expansion of a SymmetricGameSpec, maps each
    # composite signal id back to its public component (used for display).
    public_label: dict = field(default_factory=dict)

    # -- indices ---------------------------------------------------------

    def action_pairs(self):
        for i in self.actions1:
            for j in self.actions2:
                yield i, j

    # -- validation ------------------------------------------------------

    def validate(self) -> list[str]:
        """Return violations; empty list means the spec is well formed."""
        v: list[str] = []
        for name, ids in (("states", self.states), ("actions1", self.actions1),
                          ("actions2", self.actions2), ("signals1", self.signals1),
                          ("signals2", self.signals2)):
            if not ids:
                v.append(f"{name}: empty alphabet")
            if len(set(ids)) != len(ids):
                v.append(f"{name}: duplicate ids")

        states, sig1, sig2 = set(self.states), set(self.signals1), set(self.signals2)

        def check_triple(trip, where):
            x, c, d = trip
            if x not in states:
                v.append(f"{where}: unknown state {x!r}")
            if c not in sig1:
                v.append(f"{where}: unknown signal1 {c!r}")
            if d not in sig2:
                v.append(f"{where}: unknown signal2 {d!r}")

        v.extend(check_distribution(self.initial, "initial"))
        for trip in self.initial:
            check_triple(trip, "initial")

        for x in self.states:
            for i, j in self.action_pairs():
                key = (x, i, j)
                if key not in self.transition:
                    v.append(f"transition: missing entry {key}")
                else:
                    v.extend(check_distribution(self.transition[key], f"transition{key}"))
                    for trip in self.transition[key]:
                        check_triple(trip, f"transition{key}")
                if key not in self.reward:
                    v.append(f"reward: missing entry {key}")
                elif not isinstance(self.reward[key], Fraction):
                    v.append(f"reward{key}: not a Fraction")
        for key in self.transition:
            if key[0] not in states or key[1] not in set(self.actions1) or key[2] not in set(self.actions2):
                v.append(f"transition: spurious entry {key}")
        return v

    def require_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise GameModelError("invalid game spec: " + "; ".join(problems[:5]))

    # -- derived structure -------------------------------------------------

    @cached_property
    def absorbing_states(self) -> frozenset[str]:
        """States that self-loop with probability 1 under every action pair,
        with an action-independent reward.  Detected, never declared."""
        out = set()
        for x in self.states:
            rewards = set()
            ok = True
            for i, j in self.action_pairs():
                dist = self.transition.get((x, i, j), {})
                stay = sum((p for (x2, _, _), p in dist.items() if x2 == x), ZERO)
                if stay != 1:
                    ok = False
                    break
                rewards.add(self.reward.get((x, i, j)))
            if ok and len(rewards) == 1:
                out.add(x)
        return frozenset(out)

    def absorbing_payoff(self, x: str) -> Fraction:
        if x not in self.absorbing_states:
            raise GameModelError(f"state {x!r} is not absorbing")
        return self.reward[(x, self.actions1[0], self.actions2[0])]


@dataclass(eq=False)
class SymmetricGameSpec:
    """Game in which both players observe the played actions plus a common
    public signal.  ``transition[(x,i,j)]`` is a distribution over
    (next state, public signal)."""

    states: list[str]
    actions1: list[str]
    actions2: list[str]
    signals: list[str]                  # public signal alphabet
    initial: Dist                       # (state, signal) -> Fraction
    transition: dict                    # (x,i,j) -> {(x', s): Fraction}
    reward: dict
    comment: str = ""

    def action_pairs(self):
        for i in self.actions1:
            for j in self.actions2:
                yield i, j

    def validate(self) -> list[str]:
        v: list[str] = []
        for name, ids in (("states", self.states), ("actions1", self.actions1),
                          ("actions2", self.actions2), ("signals", self.signals)):
            if not ids:
                v.append(f"{name}: empty alphabet")
            if len(set(ids)) != len(ids):
                v.append(f"{name}: duplicate ids")
        states, sigs = set(self.states), set(self.signals)
        v.extend(check_distribution(self.initial, "initial"))
        for (x, s) in self.initial:
            if x not in states:
                v.append(f"initial: unknown state {x!r}")
            if s not in sigs:
                v.append(f"initial: unknown signal {s!r}")
        for x in self.states:
            for i, j in self.action_pairs():
                key = (x, i, j)
                if key not in self.transition:
                    v.append(f"transition: missing entry {key}")
                else:
                    v.extend(check_distribution(self.transition[key], f"transition{key}"))
                    for (x2, s) in self.transition[key]:
                        if x2 not in states:
                            v.append(f"transition{key}: unknown state {x2!r}")
                        if s not in sigs:
                            v.append(f"transition{key}: unknown signal {s!r}")
                if key not in self.reward:
                    v.append(f"reward: missing entry {key}")
        actions1, actions2 = set(self.actions1), set(self.actions2)
        for key in self.transition:
            if key[0] not in states or key[1] not in actions1 or key[2] not in actions2:
                v.append(f"transition: spurious entry {key}")
        return v

    def require_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise GameModelError("invalid symmetric game spec: " + "; ".join(problems[:5]))

    def signal_id(self, i: str, j: str, s: str) -> str:
        return f"{i}|{j}|{s}"

    def expand(self) -> GameSpec:
        """Canonical expansion: both players receive the composite signal
        (last action pair, public signal).  Initial signals borrow the first
        action pair as a constant, uninformative action component."""
        i0, j0 = self.actions1[0], self.actions2[0]
        comp = [self.signal_id(i, j, s)
                for i in self.actions1 for j in self.actions2 for s in self.signals]
        public_label = {self.signal_id(i, j, s): s
                        for i in self.actions1 for j in self.actions2 for s in self.signals}
        initial = {}
        for (x, s), p in self.initial.items():
            c = self.signal_id(i0, j0, s)
            initial[(x, c, c)] = initial.get((x, c, c), ZERO) + p
        transition = {}
        for x in self.states:
            for i, j in self.action_pairs():
                dist = {}
                for (x2, s), p in self.transition[(x, i, j)].items():
                    c = self.signal_id(i, j, s)
                    dist[(x2, c, c)] = dist.get((x2, c, c), ZERO) + p
                transition[(x, i, j)] = dist
        return GameSpec(
            states=list(self.states),
            actions1=list(self.actions1),
            actions2=list(self.actions2),
            signals1=list(comp),
            signals2=list(comp),
            initial=initial,
            transition=transition,
            reward=dict(self.reward),
            comment=self.comment,
            public_label=public_label,
        )


def as_general(spec_or_sym) -> GameSpec:
    """The validated general form of a game spec.  A symmetric spec is
    checked in its own terms before it is expanded (expanding reads every
    transition entry), then its expansion is checked too."""
    spec_or_sym.require_valid()
    if not isinstance(spec_or_sym, SymmetricGameSpec):
        return spec_or_sym
    spec = spec_or_sym.expand()
    spec.require_valid()
    return spec


# The mean-payoff evaluation: the average of the stage rewards.
MEAN = "mean"


# ---------------------------------------------------------------------------
# Symmetric-signaling detection
# ---------------------------------------------------------------------------


@dataclass
class SymmetryWitness:
    """Outcome of structural symmetric-signaling detection.

    On success ``reduced`` holds the recovered public-signal game and
    ``public_of`` maps each player-1 signal id to its public id.  On failure
    ``reason`` names the offending entry.
    """

    symmetric: bool
    reduced: SymmetricGameSpec | None = None
    public_of: dict | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.symmetric


def is_symmetric_signaling(spec: GameSpec) -> SymmetryWitness:
    """Decide whether both players always receive the same signal and that
    signal reveals the played action pair.

    The factorization into (action pair, public component) is recovered
    structurally by pairing the two signal alphabets along positive-mass
    entries — file authors do not need to encode tuples in signal names.
    """
    pair_c: dict[str, str] = {}
    pair_d: dict[str, str] = {}

    def bind(c, d, where):
        if pair_c.setdefault(c, d) != d:
            return f"{where}: signal1 {c!r} pairs with both {pair_c[c]!r} and {d!r}"
        if pair_d.setdefault(d, c) != c:
            return f"{where}: signal2 {d!r} pairs with both {pair_d[d]!r} and {c!r}"
        return None

    for (x, c, d), p in spec.initial.items():
        if p > 0:
            err = bind(c, d, "initial")
            if err:
                return SymmetryWitness(False, reason=err)

    # Which action pair emits each signal; must be unique per signal.
    context: dict[str, tuple[str, str]] = {}
    for x in spec.states:
        for i, j in spec.action_pairs():
            for (x2, c, d), p in spec.transition[(x, i, j)].items():
                if p <= 0:
                    continue
                err = bind(c, d, f"transition({x},{i},{j})")
                if err:
                    return SymmetryWitness(False, reason=err)
                if context.setdefault(c, (i, j)) != (i, j):
                    return SymmetryWitness(
                        False,
                        reason=(f"signal {c!r} emitted under both actions "
                                f"{context[c]} and {(i, j)}: does not reveal the action pair"),
                    )

    # Assign public ids: per emitting context, signals in declared order get
    # s0, s1, ...; initial-only signals form their own context.
    counters: dict[tuple, int] = {}
    public_of: dict[str, str] = {}
    for c in spec.signals1:
        if c in context:
            ctx = context[c]
        elif c in pair_c:
            ctx = ("<initial>",)
        else:
            continue  # unused id
        k = counters.get(ctx, 0)
        counters[ctx] = k + 1
        public_of[c] = f"s{k}"
    n_public = max(counters.values(), default=1)
    public_ids = [f"s{k}" for k in range(n_public)]

    initial = {}
    for (x, c, d), p in spec.initial.items():
        if p > 0:
            key = (x, public_of[c])
            initial[key] = initial.get(key, ZERO) + p
    transition = {}
    for x in spec.states:
        for i, j in spec.action_pairs():
            dist = {}
            for (x2, c, d), p in spec.transition[(x, i, j)].items():
                if p > 0:
                    key = (x2, public_of[c])
                    dist[key] = dist.get(key, ZERO) + p
            transition[(x, i, j)] = dist
    reduced = SymmetricGameSpec(
        states=list(spec.states),
        actions1=list(spec.actions1),
        actions2=list(spec.actions2),
        signals=public_ids,
        initial=initial,
        transition=transition,
        reward=dict(spec.reward),
        comment=spec.comment,
    )
    return SymmetryWitness(True, reduced=reduced, public_of=public_of)


# ---------------------------------------------------------------------------
# Observer views
# ---------------------------------------------------------------------------


PLAYER1 = "player1"
PLAYER2 = "player2"
PUBLIC = "public"
JOINT = "joint"


def public_labels(spec: GameSpec) -> dict | None:
    """Public component of each player-1 signal id: the spec's own
    ``public_label``, else the symmetry witness's ``public_of``; None when
    the spec has no symmetric signaling.  Uncached on purpose: a spec's
    ``public_label`` may be set after construction."""
    return spec.public_label or is_symmetric_signaling(spec).public_of


def require_public_labels(spec: GameSpec) -> dict:
    """``public_labels``, raising UnsupportedStructureError with the
    witness's reason when the spec has no symmetric signaling."""
    if spec.public_label:
        return spec.public_label
    witness = is_symmetric_signaling(spec)
    if not witness:
        raise UnsupportedStructureError(
            f"public view needs symmetric signaling: {witness.reason}")
    return witness.public_of


def projection(view: str, public_of: dict | None = None) -> tuple:
    """``(edge_of, label_of)`` of an observer view.

    ``edge_of(i, j)`` is the observed part of an action pair and
    ``label_of(c, d)`` that of a signal pair: player1 sees (i,) and c,
    player2 (j,) and d, joint both actions and (c, d), forgetting only the
    states, and public both actions and the public component of c under
    ``public_of`` (c itself without a map).  Builders call this once, not
    per node.
    """
    if view == PLAYER1:
        return (lambda i, j: (i,)), (lambda c, d: c)
    if view == PLAYER2:
        return (lambda i, j: (j,)), (lambda c, d: d)
    if view == JOINT:
        return (lambda i, j: (i, j)), (lambda c, d: (c, d))
    if view == PUBLIC:
        labels = public_of or {}
        return (lambda i, j: (i, j)), (lambda c, d: labels.get(c, c))
    raise GameModelError(f"unknown view {view!r}")


def _viewer(strategy: BehavioralStrategy, spec: GameSpec, player: int) -> tuple:
    """The ``projection`` of ``strategy``'s views, the public or its player's
    own; GameModelError unless ``strategy`` is ``player``'s."""
    if strategy.player != player:
        raise GameModelError(f"the strategy must be player {player}'s, got "
                             f"player {strategy.player}'s")
    if strategy.view_kind == "public":
        return projection(PUBLIC, require_public_labels(spec))
    return projection(PLAYER1 if player == 1 else PLAYER2)


# ---------------------------------------------------------------------------
# Behavioral strategies
# ---------------------------------------------------------------------------

TAIL_REPEAT_LAST = "repeat-last"


@dataclass(eq=False)
class BehavioralStrategy:
    """Map from a player's observed views to exact action distributions.

    ``table`` is keyed by view tuples (c_1, i_1, ..., c_t).  Views missing
    from the table but longer than ``horizon`` fall back to ``tail``: either
    a fixed distribution, or "repeat-last" which reuses the distribution of
    the longest stored prefix.  A missing view within the horizon raises
    IncompleteStrategyError naming the view.
    """

    player: int
    horizon: int
    table: dict
    tail: object = None  # None | dict[action, Fraction] | TAIL_REPEAT_LAST
    # "player": keys are own views (c_1,i_1,...,c_t);
    # "public": keys are public views (s_1,i_1,j_1,...,s_t) — usable by either
    # player in a symmetric-signaling game.
    view_kind: str = "player"

    def _stride(self) -> int:
        return 2 if self.view_kind == "player" else 3

    def stage_of(self, view: tuple) -> int:
        return (len(view) + self._stride() - 1) // self._stride()

    def action_dist(self, view: tuple) -> dict:
        dist = self.table.get(view)
        if dist is not None:
            return dist
        if self.stage_of(view) <= self.horizon or self.tail is None:
            raise IncompleteStrategyError(self.player, view)
        if self.tail == TAIL_REPEAT_LAST:
            probe = view
            stride = self._stride()
            while probe:
                probe = probe[:-stride]
                dist = self.table.get(probe)
                if dist is not None:
                    return dist
            raise IncompleteStrategyError(self.player, view)
        return self.tail

    def validate(self) -> list[str]:
        v = []
        for view, dist in self.table.items():
            v.extend(check_distribution(dist, f"strategy view {view!r}"))
        if isinstance(self.tail, dict):
            v.extend(check_distribution(self.tail, "strategy tail"))
        return v


def uniform_strategy(spec: GameSpec, player: int) -> BehavioralStrategy:
    actions = spec.actions1 if player == 1 else spec.actions2
    p = Fraction(1, len(actions))
    return BehavioralStrategy(player=player, horizon=0, table={},
                              tail={a: p for a in actions})

