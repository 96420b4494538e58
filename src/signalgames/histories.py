"""Reachable history trees, observation trees and exact play distributions.

The two central objects:

* the *history tree*: all full histories h_n = (x_1,c_1,d_1,i_1,j_1,...) with
  positive chance weight, each annotated with that weight
  (``alpha``: the product of initial and transition probabilities along h,
  ignoring the players' action probabilities);

* the *observed tree* for a chosen observer view: the projections of those
  histories, annotated with ``beta`` = the sum of alpha over the preimage.

The weights are integers over a level scale: with P and D the initial and
transition scales of ``GameSpec.integer_form``, a level-n history carries
the integer ``mass`` with alpha = mass / (P * D**(n-1)), the scale shared
by its level, and an observation the sum of its members' masses, with
beta = mass / scale.  ``build_trees`` multiplies integers per child, adds
them per observation and builds no ``Fraction``; ``alpha`` and ``beta``
are derived on demand.

The ratio  sum of alpha over {h' extending h_n whose projection is v_m}
divided by beta(v_m)  is the conditional probability of h_n given the
observation v_m.  Its defining property — the reason the whole reduction
works — is that it equals the Bayes conditional induced by *any* strategy
pair, because both players' action probabilities are measurable with
respect to the observation and cancel in the ratio.  That cancellation
requires the view to contain both players' actions and signals, so
``build_trees`` derives it from the game: the "public" view under symmetric
signaling, else the "joint" view (forget only the states), never a
per-player view.

That kernel is never built as a table of ``Fraction``s.
``conditional_check`` certifies its identities in Python integers: one
play walk gives each history's strategy weight as an integer pair (the
same walk serves ``exact_play_distribution``), and per observation the
member masses and the play masses are compared with the observation's
mass, all over their level's scale; an observation whose one member
carries its whole mass needs only that comparison.  At the horizon the
kernel row of an observation is its members' masses over its own, which
is all ``reduction.lift_payoff`` reads.

The play walk belongs to the (tree pair, sigma, tau) triple, not to a
call: the pair keeps the levels walked so far for the last strategy pair
it was given, with each walked observation's play masses, and a later
call with the same two strategy objects extends the walk instead of
starting again.  What is kept depends only on the strategies and the
tree's shape, which are not changed once built (the convention of the
``model`` module docstring, held by the trees too); masses are read
afresh on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, isfinite, lcm

from .errors import Budget, GameModelError, require_horizon
from .model import (
    JOINT,
    PUBLIC,
    BehavioralStrategy,
    GameSpec,
    _viewer,
    as_general,
    projection,
    public_labels,
)
from .rationals import ZERO


@dataclass(eq=False)
class HistoryNode:
    """One full history; identity is the object itself (trees are tries).

    Its chance weight is alpha = mass / scale, ``scale`` = P * D**(depth-1)
    being shared by the level (P, D: the scales of ``GameSpec.integer_form``).
    """

    state: str
    sig1: str
    sig2: str
    mass: int
    scale: int
    depth: int
    parent: "HistoryNode | None" = None
    via: tuple | None = None            # (i, j) taken from parent

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.mass, self.scale)

    def seen_through(self, edge_of, label_of) -> tuple:
        """View tuple under the ``projection`` functions of a view."""
        parts: list = []
        for node in _path_to(self):
            if node.via is not None:
                parts.extend(edge_of(*node.via))
            parts.append(label_of(node.sig1, node.sig2))
        return tuple(parts)

    def stage_path(self):
        """(states, action pairs) along the history, oldest first."""
        chain = _path_to(self)
        return [n.state for n in chain], [n.via for n in chain[1:]]


def _path_to(node) -> list:
    """The nodes from the root down to ``node``, following ``parent``."""
    chain = []
    while node is not None:
        chain.append(node)
        node = node.parent
    chain.reverse()
    return chain


@dataclass(eq=False)
class ObservedNode:
    """One observed history; groups the full histories projecting onto it.

    Its weight is beta = mass / scale, ``mass`` being its members' mass sum
    and ``scale`` their level's."""

    label: object                       # this stage's observed component
    edge: tuple | None                  # observed action part from parent
    mass: int
    scale: int
    depth: int
    parent: "ObservedNode | None" = None
    members: list = field(default_factory=list)

    @property
    def beta(self) -> Fraction:
        return Fraction(self.mass, self.scale)

    def view(self) -> tuple:
        """The observed history: each node's edge, then its label."""
        parts: list = []
        for node in _path_to(self):
            if node.edge is not None:
                parts.extend(node.edge)
            parts.append(node.label)
        return tuple(parts)


@dataclass(eq=False)
class TreePair:
    """History tree and observed tree built jointly to a horizon.

    ``_walk`` keeps the play walk of the last strategy pair given to
    ``exact_play_distribution`` or ``conditional_check`` (see
    ``_PlayWalk``); another pair replaces it.  It refers only to the
    strategies and to the pair's own nodes, so a dropped pair is still
    freed by reference counting.
    """

    spec: GameSpec
    view: str
    horizon: int
    levels: list                        # levels[n-1] = list[HistoryNode] at length n
    obs_levels: list                    # same for ObservedNode
    _walk: "_PlayWalk | None" = field(default=None, init=False, repr=False)

    def histories(self, n: int):
        return self.levels[n - 1]

    def observations(self, n: int):
        return self.obs_levels[n - 1]


def build_trees(spec_or_sym, horizon: int,
                budget: int | None = None) -> TreePair:
    """Build H-bar and V-bar levels 1..horizon with exact alpha/beta weights.

    A child's mass is its parent's times the transition numerator over D,
    and an observation's mass its members' sum; no ``Fraction`` is built.
    The view is "public" when ``public_labels`` finds symmetric signaling
    and "joint" otherwise.
    Budget overruns raise BudgetExceededError naming the level reached.
    """
    spec = as_general(spec_or_sym)
    require_horizon(horizon)
    public_of = public_labels(spec)
    view = JOINT if public_of is None else PUBLIC
    edge_of, label_of = projection(view, public_of)
    nodes = Budget(budget)

    # integer transition numerators over D, per state in the order
    # (i, j, outcome), with the observation key of each move
    form = spec.integer_form()
    moves: dict = {}
    for x in spec.states:
        moves[x] = [((i, j), (edge_of(i, j), label_of(c, d)), x2, c, d, q)
                    for i in spec.actions1 for j in spec.actions2
                    for x2, c, d, q in form.transition[(x, i, j)]]

    # Level 1 from the initial distribution.  Each history joins the
    # observation of its key under its parent's observation, opened on
    # first sight: ``groups`` maps the key, (edge, label) below level 1,
    # to that ObservedNode.
    scale = form.P
    level1 = []
    groups: dict = {}
    for x, c, d, mass in form.initial:
        nodes.charge(1)
        node = HistoryNode(x, c, d, mass, scale, 1)
        level1.append(node)
        key = label_of(c, d)
        ob = groups.get(key)
        if ob is None:
            ob = groups[key] = ObservedNode(key, None, 0, scale, 1)
        ob.members.append(node)
        ob.mass += mass

    levels = [level1]
    obs_levels = [list(groups.values())]

    for depth in range(2, horizon + 1):
        scale *= form.D
        next_level: list = []
        next_obs: list = []
        for parent_ob in obs_levels[-1]:
            groups = {}
            for h in parent_ob.members:
                for via, key, x2, c, d, q in moves[h.state]:
                    nodes.charge(depth)
                    mass = h.mass * q
                    child = HistoryNode(x2, c, d, mass, scale, depth, h, via)
                    next_level.append(child)
                    ob = groups.get(key)
                    if ob is None:
                        ob = groups[key] = ObservedNode(key[1], key[0], 0, scale,
                                                        depth, parent_ob)
                        next_obs.append(ob)
                    ob.members.append(child)
                    ob.mass += mass
        levels.append(next_level)
        obs_levels.append(next_obs)

    return TreePair(spec=spec, view=view, horizon=horizon, levels=levels,
                    obs_levels=obs_levels)


# ---------------------------------------------------------------------------
# Exact play distributions
# ---------------------------------------------------------------------------


@dataclass
class PlayDistribution:
    """Exact probability of every positive-weight history at the horizon."""

    horizon: int
    probs: dict                         # HistoryNode -> Fraction
    pair: TreePair

    def observed_marginal(self) -> dict:
        """Probability of each observation at the horizon that some played
        history projects onto, in the observed tree's order."""
        out: dict = {}
        for v in self.pair.observations(self.horizon):
            played = [self.probs[h] for h in v.members if h in self.probs]
            if played:
                out[v] = sum(played, ZERO)
        return out


def exact_play_distribution(pair: TreePair, sigma: BehavioralStrategy,
                            tau: BehavioralStrategy,
                            horizon: int) -> PlayDistribution:
    """P(h) = alpha(h) * product of the players' action probabilities along h.

    ``pair`` is a ``build_trees`` result covering the horizon, ``sigma``
    player 1's strategy and ``tau`` player 2's.  The marginal of the result
    on the observed tree is the distribution over observed plays.  The
    strategy weights come from the play walk kept on ``pair``, so a later
    call (or ``conditional_check``) with the same strategies walks only
    levels not yet walked; alpha is read from the nodes on every call.  A
    malformed mix raises GameModelError naming its view (``model._viewer``).
    """
    require_horizon(horizon)
    probs = {h: Fraction(h.mass * num, h.scale * den)
             for h, (num, den) in _strategy_weights(pair, sigma, tau,
                                                    horizon).items()}
    return PlayDistribution(horizon=horizon, probs=probs, pair=pair)


@dataclass(eq=False)
class _PlayWalk:
    """The play walk of one strategy pair on one tree pair, kept on the
    pair and compared to a call's strategies by identity.

    ``weights[n-1]`` maps each level-n history that the strategies play to
    the product of both players' action probabilities along it, as an
    unreduced integer pair (num, den), in tree order; histories played
    with probability 0 are left out.  ``plays[m]`` holds, for each level-m
    observation in tree order with two or more members, its play
    denominator (the lcm of its played members' weight denominators) and
    each member's play numerator over it (0 where the member is not
    played), and None for a one-member observation: ``conditional_check``
    needs no play mass there unless the member's mass differs from the
    observation's, and then reads the member's weight.  Only the
    strategies and the tree's shape determine either; no mass is kept.
    """

    sigma: BehavioralStrategy
    tau: BehavioralStrategy
    weights: list
    plays: dict = field(default_factory=dict)


def _strategy_weights(pair: TreePair, sigma: BehavioralStrategy,
                      tau: BehavioralStrategy, horizon: int) -> dict:
    """The level-``horizon`` weights of the play walk kept on ``pair``
    (``_PlayWalk.weights``), extending the walk level by level as far as
    needed; strategies other than the kept ones start a new walk.

    A missing view (IncompleteStrategyError) or malformed mix (GameModelError,
    ``model._viewer``) raises at the first such view in tree order; the walk
    keeps the levels it completed, so a repeated call raises the same error.
    """
    if pair.horizon < horizon:
        raise GameModelError("tree pair shorter than requested horizon")
    edge1, label1, mix1 = _viewer(sigma, pair.spec, 1)
    edge2, label2, mix2 = _viewer(tau, pair.spec, 2)
    walk = pair._walk
    if walk is None or walk.sigma is not sigma or walk.tau is not tau:
        walk = pair._walk = _PlayWalk(
            sigma, tau, [{root: (1, 1) for root in pair.histories(1)}])
    for n in range(len(walk.weights), horizon):
        weights = walk.weights[-1]
        nxt: dict = {}
        dists: dict = {}                # parent -> both players' (num, den) maps
        for h in pair.histories(n + 1):
            parent = h.parent
            base = weights.get(parent)
            if base is None:
                continue
            both = dists.get(parent)
            if both is None:
                both = dists[parent] = (mix1(parent.seen_through(edge1, label1)),
                                        mix2(parent.seen_through(edge2, label2)))
            i, j = h.via
            pi, pj = both[0].get(i), both[1].get(j)
            if pi is not None and pj is not None:
                nxt[h] = (base[0] * pi[0] * pj[0], base[1] * pi[1] * pj[1])
        walk.weights.append(nxt)
    return walk.weights[horizon - 1]


def _play_masses(pair: TreePair, sigma: BehavioralStrategy,
                 tau: BehavioralStrategy, m: int) -> tuple:
    """The level-m weights and ``_PlayWalk.plays[m]`` of the walk kept on
    ``pair``, the latter made on first request from the former."""
    weights = _strategy_weights(pair, sigma, tau, m)
    plays = pair._walk.plays
    kept = plays.get(m)
    if kept is None:
        kept = plays[m] = []
        for v in pair.observations(m):
            if len(v.members) == 1:
                kept.append(None)
                continue
            ws = [weights.get(h) for h in v.members]
            play_den = lcm(*(w[1] for w in ws if w is not None))
            kept.append((play_den, [0 if w is None else w[0] * (play_den // w[1])
                                    for w in ws]))
    return weights, kept


# ---------------------------------------------------------------------------
# Kernel identity checks
# ---------------------------------------------------------------------------


@dataclass
class KernelCheckReport:
    """The kernel identities that a tree can fail, at depths (n, m)."""

    n: int
    m: int
    checked_pairs: int
    max_discrepancy: Fraction
    normalization_ok: bool
    bayes_ok: bool
    sum_identity_ok: bool

    @property
    def all_exact(self) -> bool:
        return (self.normalization_ok and self.bayes_ok
                and self.sum_identity_ok and self.max_discrepancy == 0)


def conditional_check(pair: TreePair, sigma, tau, n: int,
                      m: int) -> KernelCheckReport:
    """Exact regression test of the kernel identities at depths (n, m) of
    ``pair``, a ``build_trees`` result covering m, under player 1's
    ``sigma`` and player 2's ``tau``.

    Checks, with exact rational equality:
      * normalization: the kernel row over level-n histories sums to 1 at
        every positive-weight observation;
      * Bayes: the kernel equals the conditional distribution induced by the
        given strategy pair wherever the observation has positive
        probability (strategy independence);
      * sum identity: P(h_n and v_m) = kernel * Q(v_m) for all pairs.

    The identities are compared in integers.  At each observation v_m its
    mass and its members' masses are over one denominator, their level's
    scale S, and the play masses (mass times the strategy weight from the
    play walk that ``exact_play_distribution`` uses) are put over
    S * play_den; s(h_n) is the mass of the members extending h_n, jp(h_n)
    their play mass and q the total.  The kernel is s / mass, so
    normalization is sum of s == mass, and the sum identity and Bayes are
    both jp * mass == s * q (Bayes only where q > 0, where the two tests
    coincide).  The walk, and each level-m observation's play denominator
    and members' play numerators, are kept on ``pair`` for these strategies
    (``_PlayWalk``), so checking every n <= m walks once; the masses are
    read afresh on every call; a malformed mix raises as in the play walk.
    ``Fraction``s are built only when a test fails, to report the exact
    discrepancy, so the report equals the dense every-pair check in
    ``Fraction``s.

    Arithmetic is done only where an identity can fail.  An observation
    with one member h whose mass a equals the observation's is certified
    by that comparison: its kernel row is the point mass at h's level-n
    ancestor, and with p the member's play numerator, s = a and
    jp = q = a * p, so sum of s == mass and jp * mass == s * q hold for
    every strategy pair.  Such an observation keeps no play masses in the
    walk.  Where the two masses differ (a tree changed after it was
    built), the observation is checked like any other, its member's play
    numerator read from the walk's weights (0 when it is not played).

    One-step compatibility (the level-n kernel is its level-(n+1)
    refinement folded onto parents) is not checked here: both sides fold
    the same member masses along the same ``parent`` links, so no tree can
    fail it.  It rests on the structure ``build_trees`` makes: a history's
    parent is one level up and held by the parent of its observation.

    Each observation v_m is checked on its support only: the level-n
    histories with a nonzero kernel or a nonzero joint mass at v_m.  Every
    other pair has kernel 0 and joint mass 0 and satisfies both identities
    trivially.  ``checked_pairs`` still counts every (observation, level-n
    history) pair, since every pair is certified.
    """
    require_horizon(n, "n")
    require_horizon(m, "m")
    if n > m:
        raise GameModelError("need 1 <= n <= m")

    weights, plays = _play_masses(pair, sigma, tau, m)
    max_disc = ZERO
    checked = 0
    width = len(pair.histories(n))
    normalization_ok = True
    bayes_ok = True
    sum_ok = True

    for v, kept in zip(pair.observations(m), plays):
        mass = v.mass
        if mass <= 0:
            raise GameModelError("observation has zero weight")
        if kept is None:                # one member: a point-mass row
            h = v.members[0]
            if h.mass == mass:
                checked += width
                continue
            w = weights.get(h)
            play_den, nums = (1, [0]) if w is None else (w[1], [w[0]])
        else:
            play_den, nums = kept
        s: dict = {}                    # h_n -> mass over S
        jp: dict = {}                   # h_n -> play mass over S * play_den
        for h, p in zip(v.members, nums):
            a = h.mass
            anc = h
            while anc.depth > n:
                anc = anc.parent
            s[anc] = s.get(anc, 0) + a
            jp[anc] = jp.get(anc, 0) + a * p
        if sum(s.values()) != mass:
            normalization_ok = False
        q = sum(jp.values())
        checked += width
        for h, sh in s.items():
            j = jp.get(h, 0)
            if j * mass != sh * q:
                k = Fraction(sh, mass)
                jpf = Fraction(j, v.scale * play_den)
                qv = Fraction(q, v.scale * play_den)
                sum_ok = False
                max_disc = max(max_disc, abs(jpf - k * qv))
                if q > 0:
                    bayes_ok = False
                    max_disc = max(max_disc, abs(jpf / qv - k))

    return KernelCheckReport(n=n, m=m, checked_pairs=checked,
                             max_discrepancy=max_disc,
                             normalization_ok=normalization_ok,
                             bayes_ok=bayes_ok, sum_identity_ok=sum_ok)


# ---------------------------------------------------------------------------
# Monte Carlo simulation (the one floating-point corner, by design)
# ---------------------------------------------------------------------------


@dataclass
class ReplicaResult:
    mean_payoff: float
    sup_payoff: float
    absorbed: bool
    absorption_stage: int | None
    absorbing_payoff: float | None


@dataclass
class SimulationSummary:
    replicas: int
    horizon: int
    seed: int
    mean_of_means: float
    var_of_means: float
    mean_sup: float
    absorbed_fraction: float
    stage1_absorbed_fraction: float
    results: list

    def stderr_of_means(self) -> float:
        if self.replicas < 2:
            return 0.0
        return (self.var_of_means / self.replicas) ** 0.5


def _counter_uniform(sha256, seed: int, replica: int, stage: int,
                     purpose: str) -> int:
    """Deterministic uniform in [0,1) as its numerator over 2**128, counter-based
    and order-independent; ``sha256`` is ``hashlib.sha256``, bound by ``simulate``."""
    payload = f"{seed}:{replica}:{stage}:{purpose}".encode()
    return int.from_bytes(sha256(payload).digest()[:16], "big")


def _draw(pairs, k: int):
    """The first outcome of ``pairs`` whose running mass passes k / 2**128, else the last."""
    num, den, last = 0, 1, None
    for outcome, (n, d) in pairs:
        num, den, last = num * d + n * den, den * d, outcome
        if k * den < num << 128:
            return outcome
    return last


def simulate(spec_or_sym, sigma: BehavioralStrategy, tau: BehavioralStrategy,
             horizon: int, seed: int, replicas: int) -> SimulationSummary:
    """Sample plays under (sigma, tau); reproducible given the seed.

    Uses a counter-based generator keyed by (seed, replica, stage, purpose):
    replicas are independent of execution order.  Sampling comparisons are
    exact; only the reported statistics are floats, and the rewards are
    converted to floats once, up front: one past float range raises
    GameModelError naming its entry, and so does a statistic (the mean
    payoff, the variance of the mean payoffs, the mean sup payoff) whose
    float sum leaves float range.  Each strategy sees the views of its
    ``view_kind``, and a malformed mix (``model._viewer``) raises
    GameModelError naming its view.  Once play is absorbed the strategies
    are no longer asked: an absorbing state pays the same and stays put
    under every action pair, so the statistics do not depend on the
    actions, and a strategy pruned at absorbed views (as the eps-optimal
    ones are) plays the whole horizon.  ``hashlib`` is imported here, on
    first use: it maps OpenSSL into the process, and no solver needs it.
    """
    from hashlib import sha256

    spec = as_general(spec_or_sym)
    require_horizon(horizon)
    require_horizon(replicas, "replicas")
    gains: dict = {}                    # (x, i, j) -> the reward as a float
    for (x, i, j), g in spec.reward.items():
        try:
            gains[(x, i, j)] = float(g)
        except OverflowError:
            raise GameModelError(f"reward at state {x!r}, actions {i!r}, "
                                 f"{j!r} is beyond float range") from None
    form = spec.integer_form()
    # absorbing state -> its payoff, the reward under any action pair
    held = {x: gains[(x, spec.actions1[0], spec.actions2[0])]
            for x in form.absorbing}
    init_items = sorted((((x, c, d), (m, form.P)) for x, c, d, m in form.initial),
                        key=lambda kv: str(kv[0]))
    moves = {key: sorted((((x2, c, d), (q, form.D)) for x2, c, d, q in outs),
                         key=lambda kv: str(kv[0]))
             for key, outs in form.transition.items()}
    edge1, label1, mix1 = _viewer(sigma, spec, 1)
    edge2, label2, mix2 = _viewer(tau, spec, 2)

    results = []
    for r in range(replicas):
        x, c, d = _draw(init_items, _counter_uniform(sha256, seed, r, 0, "init"))
        v1: tuple = (label1(c, d),)
        v2: tuple = (label2(c, d),)
        total = 0.0
        sup = None
        # absorption_stage = the stage whose transition landed in an
        # absorbing state (0 when the game starts absorbed already)
        absorbed_stage = 0 if x in held else None
        absorbing_payoff = held.get(x)
        for t in range(1, horizon + 1):
            if absorbed_stage is not None:
                total += absorbing_payoff
                sup = absorbing_payoff if sup is None else max(sup, absorbing_payoff)
                continue
            i = _draw(sorted(mix1(v1).items()), _counter_uniform(sha256, seed, r, t, "a1"))
            j = _draw(sorted(mix2(v2).items()), _counter_uniform(sha256, seed, r, t, "a2"))
            g = gains[(x, i, j)]
            total += g
            sup = g if sup is None else max(sup, g)
            x, c, d = _draw(moves[(x, i, j)], _counter_uniform(sha256, seed, r, t, "trans"))
            if x in held:
                absorbed_stage = t
                absorbing_payoff = held[x]
            v1 = v1 + edge1(i, j) + (label1(c, d),)
            v2 = v2 + edge2(i, j) + (label2(c, d),)
        results.append(ReplicaResult(
            mean_payoff=total / horizon,
            sup_payoff=sup if sup is not None else 0.0,
            absorbed=absorbed_stage is not None,
            absorption_stage=absorbed_stage,
            absorbing_payoff=absorbing_payoff,
        ))

    means = [res.mean_payoff for res in results]
    mean = sum(means) / replicas
    try:
        var = (sum((v - mean) ** 2 for v in means) / (replicas - 1)
               if replicas > 1 else 0.0)
    except OverflowError:
        var = inf
    mean_sup = sum(res.sup_payoff for res in results) / replicas
    for name, value in (("mean payoff", mean), ("variance of the mean payoffs", var),
                        ("mean sup payoff", mean_sup)):
        if not isfinite(value):
            raise GameModelError(f"simulated {name} is beyond float range")
    absorbed = [res for res in results if res.absorbed]
    stage1 = [res for res in results if res.absorption_stage == 1]
    return SimulationSummary(
        replicas=replicas, horizon=horizon, seed=seed,
        mean_of_means=mean, var_of_means=var,
        mean_sup=mean_sup,
        absorbed_fraction=len(absorbed) / replicas,
        stage1_absorbed_fraction=len(stage1) / replicas,
        results=results,
    )
