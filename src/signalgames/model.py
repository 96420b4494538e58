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
from .rationals import ZERO, denominator_lcm, format_rational

def check_distribution(dist: dict, what: str) -> list[str]:
    """What keeps a spec's ``dist`` from being a distribution: a probability
    that is not a Fraction, one outside [0, 1], or a mass (of the Fractions)
    other than 1.  The range test reads numerators and denominators, and the
    mass is one integer fraction num/den, cross-multiplied; a Fraction is
    built only for a message."""
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


def _violations(spec, signals) -> list[str]:
    """What keeps ``spec``, of either kind, from being well formed, in one
    order: its alphabets, the initial distribution, each transition and
    reward entry in declared order, then spurious transition keys, then
    spurious reward keys.  A distribution that is not a dict, an outcome
    that is not a tuple of a state and one id per signal alphabet, and a
    key that is not a (state, action1, action2) tuple of declared ids are
    reported, not raised.
    ``signals`` gives, for each signal position of an outcome (after its
    state), the alphabet's name, the id kind its messages name, and the
    alphabet."""
    v: list[str] = []
    for name, ids in (("states", spec.states), ("actions1", spec.actions1),
                      ("actions2", spec.actions2), *((n, ids) for n, _, ids in signals)):
        if not ids:
            v.append(f"{name}: empty alphabet")
        if len(set(ids)) != len(ids):
            v.append(f"{name}: duplicate ids")
    states = set(spec.states)
    alphabets = [(kind, set(ids)) for _, kind, ids in signals]
    width = 1 + len(alphabets)

    def check_dist(dist, where):
        if not isinstance(dist, dict):
            v.append(f"{where}: not a dict")
            return
        v.extend(check_distribution(dist, where))
        for outcome in dist:
            if not isinstance(outcome, tuple) or len(outcome) != width:
                v.append(f"{where}: outcome {outcome!r} is not a {width}-tuple")
                continue
            x, *sigs = outcome
            if x not in states:
                v.append(f"{where}: unknown state {x!r}")
            for (kind, ids), s in zip(alphabets, sigs, strict=True):
                if s not in ids:
                    v.append(f"{where}: unknown {kind} {s!r}")

    check_dist(spec.initial, "initial")
    for x in spec.states:
        for i, j in spec.action_pairs():
            key = (x, i, j)
            if key not in spec.transition:
                v.append(f"transition: missing entry {key}")
            else:
                check_dist(spec.transition[key], f"transition{key}")
            if key not in spec.reward:
                v.append(f"reward: missing entry {key}")
            elif not isinstance(spec.reward[key], Fraction):
                v.append(f"reward{key}: not a Fraction")
    actions1, actions2 = set(spec.actions1), set(spec.actions2)
    for name, table in (("transition", spec.transition), ("reward", spec.reward)):
        for key in table:
            if not (isinstance(key, tuple) and len(key) == 3 and key[0] in states
                    and key[1] in actions1 and key[2] in actions2):
                v.append(f"{name}: spurious entry {key}")
    return v


@dataclass(frozen=True)
class IntegerForm:
    """A game's numbers as integers over three scales (``GameSpec.integer_form``):
    P, D and L are the lcms of the denominators of the positive initial
    probabilities, the positive transition probabilities and the rewards.
    Zero-probability outcomes are dropped; the rest keep the spec's order.

    The chance tables are derived with the form; L, ``reward`` and
    ``absorbing`` are derived from ``spec`` on first read, so a caller
    that reads only chance (``histories.build_trees``) derives no reward
    and detects no absorbing state.  ``absorbing`` is the one place a
    game's absorbing states and payoffs are derived."""

    P: int
    initial: list                       # [(x, c, d, mass over P)]
    D: int
    transition: dict                    # (x, i, j) -> [(x2, c, d, numerator over D)]
    spec: "GameSpec" = field(repr=False, compare=False)

    @cached_property
    def L(self) -> int:
        return denominator_lcm(self.spec.reward.values())

    @cached_property
    def reward(self) -> dict:
        """(x, i, j) -> reward over L."""
        L = self.L
        return {key: g.numerator * (L // g.denominator)
                for key, g in self.spec.reward.items()}

    @cached_property
    def absorbing(self) -> dict:
        """Absorbing state -> its payoff over L, in ``spec.states`` order.
        A state is absorbing when, under every action pair, its stay
        numerators sum to D and its reward is the same.  Detected, never
        declared."""
        moves, reward = self.transition, self.reward
        out = {}
        for x in self.spec.states:
            pays = set()
            for i, j in self.spec.action_pairs():
                if sum(q for x2, _, _, q in moves[(x, i, j)] if x2 == x) != self.D:
                    break
                pays.add(reward[(x, i, j)])
            else:
                if len(pays) == 1:
                    out[x] = pays.pop()
        return out


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
    initial: dict                       # (state, sig1, sig2) -> Fraction
    transition: dict                    # (state, a1, a2) -> {(state', c, d): Fraction}
    reward: dict                        # (state, a1, a2) -> Fraction
    comment: str = ""
    # When this spec is the expansion of a SymmetricGameSpec, maps each
    # composite signal id back to its public component: the public view's
    # label of that signal (``public_labels`` reads it before any witness).
    public_label: dict = field(default_factory=dict)

    # -- indices ---------------------------------------------------------

    def action_pairs(self):
        for i in self.actions1:
            for j in self.actions2:
                yield i, j

    # -- validation ------------------------------------------------------

    def validate(self) -> list[str]:
        """Return violations; empty list means the spec is well formed."""
        return _violations(self, (("signals1", "signal1", self.signals1),
                                  ("signals2", "signal2", self.signals2)))

    def require_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise GameModelError("invalid game spec: " + "; ".join(problems[:5]))

    # -- integer form ----------------------------------------------------

    def integer_form(self) -> IntegerForm:
        """The spec's ``IntegerForm``, derived on every call, so it
        follows every change to the spec; its reward and absorbing tables
        on their first read."""
        initial = [(key, p) for key, p in self.initial.items() if p]
        transition = {key: [(out, p) for out, p in dist.items() if p]
                      for key, dist in self.transition.items()}
        P = denominator_lcm(p for _, p in initial)
        D = denominator_lcm(p for outs in transition.values() for _, p in outs)
        return IntegerForm(
            P, [(*key, p.numerator * (P // p.denominator)) for key, p in initial],
            D, {key: [(*out, p.numerator * (D // p.denominator)) for out, p in outs]
                for key, outs in transition.items()},
            self)


@dataclass(eq=False)
class SymmetricGameSpec:
    """Game in which both players observe the played actions plus a common
    public signal.  ``transition[(x,i,j)]`` is a distribution over
    (next state, public signal)."""

    states: list[str]
    actions1: list[str]
    actions2: list[str]
    signals: list[str]                  # public signal alphabet
    initial: dict                       # (state, signal) -> Fraction
    transition: dict                    # (x,i,j) -> {(x', s): Fraction}
    reward: dict
    comment: str = ""

    def action_pairs(self):
        for i in self.actions1:
            for j in self.actions2:
                yield i, j

    def validate(self) -> list[str]:
        """Return violations; empty list means the spec is well formed."""
        return _violations(self, (("signals", "signal", self.signals),))

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

    On success ``public_of`` maps each player-1 signal id of positive mass
    to its public label ``s0``, ``s1``, ...: the signals that one action
    pair emits get distinct labels, in declared order where no two initial
    signals would collide, and so do the signals the initial distribution
    draws.  On failure ``reason`` names the offending entry.
    """

    symmetric: bool
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

    initial: set[str] = set()
    for (x, c, d), p in spec.initial.items():
        if p > 0:
            err = bind(c, d, "initial")
            if err:
                return SymmetryWitness(False, reason=err)
            initial.add(c)

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

    # Assign public ids: each signal gets the lowest s<k> not yet given
    # among the signals its action pair emits nor, for a signal of the
    # initial distribution, among the initial signals, so the actions and
    # the label tell apart every two signals the players do.  Emitted
    # signals go first, in declared order, so the k-th signal an action pair
    # emits gets s<k> unless two initial signals would share it.
    given: dict[tuple, set] = {}        # group -> labels given in it
    low: dict[tuple, int] = {}          # group -> lowest label not given in it
    label: dict[str, str] = {}
    for c in sorted(spec.signals1, key=lambda c: c not in context):
        groups = [g for g in (context.get(c), ("<initial>",) if c in initial else None)
                  if g is not None]
        if not groups:
            continue  # unused id
        k = max(low.get(g, 0) for g in groups)
        while any(k in given.get(g, ()) for g in groups):
            k += 1
        for g in groups:
            taken = given.setdefault(g, set())
            taken.add(k)
            j = low.get(g, 0)
            while j in taken:
                j += 1
            low[g] = j
        label[c] = f"s{k}"
    public_of = {c: label[c] for c in spec.signals1 if c in label}
    return SymmetryWitness(True, public_of=public_of)


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
    the spec has no symmetric signaling.  Not cached on the spec: the
    witness is one linear pass, cheap next to the builds that ask for it."""
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


def _read_mix(dist: dict, actions, player: int) -> tuple:
    """``(pairs, problem)``: the mix's positive entries as ``{action:
    (numerator, denominator)}``, in its order, and its first problem or None:
    an action not in ``actions``, a probability negative or not an int or a
    Fraction, a mass other than 1."""
    pairs, num, den = {}, 0, 1
    for a, p in dist.items():
        if a not in actions:
            return pairs, f"{a!r} is not an action of player {player}"
        if not isinstance(p, (int, Fraction)) or isinstance(p, bool):
            return pairs, f"the probability of {a!r} is {p!r}, not an int or a Fraction"
        if (n := p.numerator) < 0:
            return pairs, f"the probability {p} of {a!r} is negative"
        if n:
            d = p.denominator
            pairs[a] = (n, d)
            num, den = num * d + n * den, den * d
    return pairs, None if num == den else f"the mass is {Fraction(num, den)}, not 1"


def _viewer(strategy: BehavioralStrategy, spec: GameSpec, player: int) -> tuple:
    """``(edge_of, label_of, mix_of)``: the ``projection`` of ``strategy``'s
    ``view_kind`` and its one mix reader, the ``_read_mix`` pairs or
    GameModelError naming the view and its problem; GameModelError unless
    ``strategy`` is ``player``'s, of view kind "player" or "public"."""
    if strategy.player != player:
        raise GameModelError(f"the strategy must be player {player}'s, got "
                             f"player {strategy.player}'s")
    if strategy.view_kind not in ("player", "public"):
        raise GameModelError(f"unknown view kind {strategy.view_kind!r}")
    actions = set(spec.actions1 if player == 1 else spec.actions2)

    def mix_of(view: tuple) -> dict:
        pairs, problem = _read_mix(strategy.action_dist(view), actions, player)
        if problem:
            raise GameModelError(f"player {player} strategy at view {view!r}: {problem}")
        return pairs

    if strategy.view_kind == "public":
        return (*projection(PUBLIC, require_public_labels(spec)), mix_of)
    return (*projection(PLAYER1 if player == 1 else PLAYER2), mix_of)


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

    def validate(self, actions=None) -> list[str]:
        """Each mix's ``_read_mix`` problem; actions checked if given."""
        mixes = {f"strategy view {view!r}": d for view, d in self.table.items()}
        if isinstance(self.tail, dict):
            mixes["strategy tail"] = self.tail
        return [f"{where}: {problem}" for where, d in mixes.items()
                if (problem := _read_mix(d, d if actions is None else actions,
                                         self.player)[1])]


def uniform_strategy(spec: GameSpec, player: int) -> BehavioralStrategy:
    actions = spec.actions1 if player == 1 else spec.actions2
    p = Fraction(1, len(actions))
    return BehavioralStrategy(player=player, horizon=0, table={},
                              tail={a: p for a in actions})

