"""Auxiliary game on observed histories and belief backward induction.

For a symmetric-signaling game, the observed histories form the state space
of an equivalent stochastic game with full monitoring: the transition
probability to the child observation (i, j, s) is the ratio of observed
weights  beta(v + (i,j,s)) / beta(v),  and a stage-measurable payoff f on
full histories lifts to  fhat(v) = sum_h kernel(h, v) f(h)  with equal
expectation under every strategy pair.  Values are then computed by
backward induction, solving one exact matrix game per observed node.

The observed tree is built by a belief recursion that carries only (beta,
posterior over current states) per node — equivalent to grouping the
explicit history tree by observation, because both the signal transition
and the child posterior are functions of the current posterior — which
scales to long horizons when absorbed nodes are pruned.

``solve_horizons`` runs Shapley's value recursion, indexed by the number of
stages left, over one merged belief DAG: every requested horizon's mean
value in a single pass, one matrix game per distinct posterior and stage
count.  It needs values only, so each game is certified by a pure saddle
point (``lp.matrix_game_value``), and only a game without one runs the LP.

The same machinery solves blind single-controller games (one player has a
single action) on that player's private view; with an opponent who truly
has choices, a private view would not support the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Budget, GameModelError, UnsupportedStructureError
from .histories import ObservedNode, TreePair, phi_row
from .lp import matrix_game_value, solve_matrix_game
from .model import (
    JOINT,
    MEAN,
    PLAYER1,
    PLAYER2,
    PUBLIC,
    BehavioralStrategy,
    GameSpec,
    as_general,
    projection,
    public_labels,
    require_public_labels,
)
from .rationals import ZERO


@dataclass(eq=False)
class BeliefNode:
    """Observed history carried as (weight, posterior over current states).

    ``children`` maps (edge, label) -> (transition weight, child node); the
    weight is the probability of the child observation given the node and
    the actions on the edge.  With belief merging the structure is a DAG
    (children shared between nodes of equal posterior), ``parent`` is then
    the first discoverer and views are unavailable.
    """

    label: object
    edge: tuple | None
    beta: Fraction
    posterior: dict                      # state -> Fraction, sums to 1
    depth: int
    parent: "BeliefNode | None" = None
    children: dict = field(default_factory=dict)
    pruned: bool = False                 # posterior fully on absorbing states
    key: int | None = None               # posterior number (merged builds)

    view = ObservedNode.view


@dataclass(eq=False)
class AuxiliaryGame:
    """Stochastic game over observed histories, built to a horizon."""

    spec: GameSpec                       # expanded/general form
    view: str
    horizon: int
    roots: list                          # level-1 BeliefNodes
    levels: list                         # levels[n-1] = BeliefNodes at depth n
    actions1: list
    actions2: list
    edge_of: object                      # the view's edge_of, model.projection
    merged: bool = False                 # belief DAG (no per-history views)

    def signal_transition(self, node: BeliefNode, i: str, j: str) -> dict:
        """Distribution over child labels under (i, j): exact beta ratios."""
        edge = self.edge_of(i, j)
        return {label: weight
                for (e, label), (weight, child) in node.children.items()
                if e == edge}


def _resolve_view(spec: GameSpec, view: str | None) -> tuple:
    """``(view, public_of)`` of the auxiliary game: the public view when the
    spec has symmetric signaling, else the private view of a player whose
    opponent has a single action."""
    if view == PUBLIC:
        return view, require_public_labels(spec)
    if view is not None:
        if view in (PLAYER1, PLAYER2):
            free = spec.actions2 if view == PLAYER1 else spec.actions1
            if len(free) != 1:
                raise UnsupportedStructureError(
                    "a private view only supports the reduction when the "
                    "unobserved player has a single action")
        return view, None
    public_of = public_labels(spec)
    if public_of is not None:
        return PUBLIC, public_of
    if len(spec.actions2) == 1:
        return PLAYER1, None
    if len(spec.actions1) == 1:
        return PLAYER2, None
    raise UnsupportedStructureError(
        "auxiliary game needs symmetric signaling or a single-action opponent")


def build_auxiliary(spec_or_sym, horizon: int, view: str | None = None,
                    budget: int | None = None,
                    prune_absorbed: bool = False,
                    merge_beliefs: bool = False) -> AuxiliaryGame:
    """Build the observed-history game by exact belief recursion.

    With ``prune_absorbed`` the children of nodes whose posterior sits
    entirely on absorbing states are not expanded: from there every
    continuation earns the same constant per stage, so solvers can close
    the node in closed form.  This is what makes long horizons tractable.

    With ``merge_beliefs`` nodes of equal depth and posterior are shared (a
    DAG instead of a tree): sound for stage-additive payoffs because stage
    reward, signal transition and child posteriors are all functions of the
    posterior alone, and often exponentially smaller.  Each node then gets
    the number of its posterior as ``key``, hashed once here so solvers can
    share work across depths without re-hashing the fractions.  Strategy
    extraction needs per-history views, hence an unmerged tree.
    """
    spec = as_general(spec_or_sym)
    view, public_of = _resolve_view(spec, view)
    edge_of, label_of = projection(view, public_of)
    absorbing = spec.absorbing_states
    nodes = Budget(budget)

    keys: dict = {}                      # exact posterior -> number

    def belief_key(posterior):
        # integers, not Fractions: Fraction equality is slow Python code.
        # Numbers hash modulo 2**61 - 1, where 2**d hashes like 2**(d % 61),
        # so dyadic posteriors of many depths would share hashes in this one
        # dict over all depths; the bit length tells them apart.
        exact = tuple(sorted((x, a.numerator, a.denominator,
                              a.denominator.bit_length())
                             for x, a in posterior.items()))
        return keys.setdefault(exact, len(keys))

    # Level 1.
    groups: dict = {}
    for (x, c, d), p in spec.initial.items():
        if p <= 0:
            continue
        lab = label_of(c, d)
        bucket = groups.setdefault(lab, {})
        bucket[x] = bucket.get(x, ZERO) + p
    roots = []
    seen: dict = {}
    for lab in sorted(groups, key=str):
        bucket = groups[lab]
        beta = sum(bucket.values(), ZERO)
        posterior = {x: a / beta for x, a in bucket.items()}
        bkey = None
        if merge_beliefs:
            bkey = belief_key(posterior)
            if (lab, bkey) in seen:
                seen[(lab, bkey)].beta += beta
                continue
        nodes.charge(1)
        node = BeliefNode(label=lab, edge=None, beta=beta, posterior=posterior,
                          depth=1, key=bkey)
        node.pruned = prune_absorbed and all(x in absorbing for x in node.posterior)
        if merge_beliefs:
            seen[(lab, bkey)] = node
        roots.append(node)

    levels = [roots]
    for n in range(1, horizon):
        nxt = []
        seen = {}
        for node in levels[-1]:
            if node.pruned:
                continue
            buckets: dict = {}
            for x, w in node.posterior.items():
                for i in spec.actions1:
                    for j in spec.actions2:
                        edge = edge_of(i, j)
                        for (x2, c, d), p in spec.transition[(x, i, j)].items():
                            if p <= 0:
                                continue
                            key = (edge, label_of(c, d))
                            bucket = buckets.setdefault(key, {})
                            bucket[x2] = bucket.get(x2, ZERO) + w * p
            for key in sorted(buckets, key=str):
                bucket = buckets[key]
                mass = sum(bucket.values(), ZERO)
                posterior = {x: a / mass for x, a in bucket.items()}
                bkey = None
                if merge_beliefs:
                    bkey = belief_key(posterior)
                    child = seen.get(bkey)
                    if child is not None:
                        child.beta += node.beta * mass
                        node.children[key] = (mass, child)
                        continue
                nodes.charge(n + 1)
                child = BeliefNode(
                    label=key[1], edge=key[0],
                    beta=node.beta * mass,
                    posterior=posterior,
                    depth=n + 1, parent=node, key=bkey)
                child.pruned = (prune_absorbed
                                and all(x in absorbing for x in child.posterior))
                if merge_beliefs:
                    seen[bkey] = child
                node.children[key] = (mass, child)
                nxt.append(child)
        levels.append(nxt)

    return AuxiliaryGame(spec=spec, view=view, horizon=horizon, roots=roots,
                         levels=levels, actions1=list(spec.actions1),
                         actions2=list(spec.actions2), edge_of=edge_of,
                         merged=merge_beliefs)


# ---------------------------------------------------------------------------
# Lifted payoffs
# ---------------------------------------------------------------------------


@dataclass
class LiftedPayoff:
    """Terminal payoff on observed histories equivalent to f on full ones.

    Keyed by observed view tuples so the same payoff works on trees built
    either from explicit histories or by the belief recursion.
    """

    horizon: int
    values: dict                         # view tuple -> Fraction

    def value_at(self, node) -> Fraction:
        return self.values[node.view()]


def lift_payoff(pair: TreePair, f) -> LiftedPayoff:
    """fhat(v) = sum over horizon histories of kernel(h, v) * f(h).

    ``f`` maps HistoryNode -> Fraction (callable or dict) and must be defined
    on every positive-weight horizon history.  The defining identity — the
    expectation of f under any strategy pair equals the expectation of fhat
    under the induced observed-play distribution — is exercised by tests.
    """
    n = pair.horizon
    get = f.__getitem__ if isinstance(f, dict) else f
    values = {}
    for v in pair.observations(n):
        row = phi_row(pair, n, v)
        total = ZERO
        for h, k in row.items():
            try:
                fh = get(h)
            except KeyError:
                raise GameModelError(
                    f"payoff undefined on reachable history at level {n}") from None
            total += k * fh
        values[v.view()] = total
    return LiftedPayoff(horizon=n, values=values)


# ---------------------------------------------------------------------------
# Backward induction
# ---------------------------------------------------------------------------

@dataclass
class BackwardSolution:
    value: Fraction
    horizon: int
    evaluation: str
    strategy1: BehavioralStrategy | None
    strategy2: BehavioralStrategy | None
    node_count: int
    merged_count: int


def _absorbing_stage_payoff(spec: GameSpec, post: dict) -> Fraction:
    return sum((w * spec.absorbing_payoff(x) for x, w in post.items()), ZERO)


def _stage_matrix(aux: AuxiliaryGame, node: BeliefNode, stage_reward: bool,
                  continuation) -> list:
    """Payoff matrix at ``node``: the expected stage reward (if counted)
    plus the transition-weighted ``continuation(child)`` (if given).

    Entry (i, j) is  sum_x post(x) g(x, i, j) + sum_children w V(child)
    over the children whose edge is ``edge_of(i, j)``, with no rational
    work that cannot change it: a zero reward adds no term, a transition
    weight of 1 adds ``continuation(child)`` itself, each entry starts from
    its first term, and an entry with no term is ``ZERO``."""
    reward = aux.spec.reward
    post = node.posterior.items()
    children = node.children.items() if continuation is not None else ()
    rows = []
    for i in aux.actions1:
        row = []
        for j in aux.actions2:
            total = None
            if stage_reward:
                for x, w in post:
                    g = reward[(x, i, j)]
                    if g:
                        term = w * g
                        total = term if total is None else total + term
            edge = aux.edge_of(i, j)
            for (e, label), (w, child) in children:
                if e == edge:
                    term = continuation(child)
                    if w != 1:
                        term = w * term
                    total = term if total is None else total + term
            row.append(ZERO if total is None else total)
        rows.append(row)
    return rows


def solve_backward(aux: AuxiliaryGame, payoff="mean",
                   want_strategies: bool = True) -> BackwardSolution:
    """Backward induction over the auxiliary game.

    ``payoff``: "mean" (average of stage rewards over the horizon) or a
    LiftedPayoff terminal map on depth-``horizon`` observed nodes.  A
    general terminal payoff is history-dependent, so it is refused on a
    merged belief DAG.

    Absorption-pruned nodes (see build_auxiliary) are closed in closed form:
    a posterior concentrated on absorbing states earns its expected
    absorbing payoff every remaining stage.

    Every other node solves its stage matrix, once per distinct matrix in
    the call: ``solve_matrix_game`` is a deterministic function of the exact
    entries, so nodes with equal matrices share one solution and get the
    value and strategies a solve of their own would give.  Without
    ``want_strategies`` only the value is solved, by
    ``matrix_game_value``: a pure saddle point where one exists, the LP
    otherwise.  ``node_count`` still counts every node.
    """
    spec = aux.spec
    N = aux.horizon
    if aux.view == JOINT:
        raise UnsupportedStructureError(
            "cannot solve on the joint view: neither player observes it")
    terminal = None
    if isinstance(payoff, LiftedPayoff):
        if payoff.horizon != N:
            raise GameModelError("lifted payoff horizon mismatch")
        if aux.merged:
            raise GameModelError("belief merging needs a stage-additive payoff")
        terminal = payoff
    elif payoff != MEAN:
        raise GameModelError(f"unknown payoff {payoff!r}")
    if want_strategies and aux.merged:
        want_strategies = False

    results: dict = {}               # id(node) -> (total value, matrix solution)
    solved: dict = {}                # exact stage matrix -> its solution
    node_count = 0

    def continuation(child):
        return results[id(child)][0]

    # bottom-up over levels: children are always resolved before parents,
    # and no recursion depth limits bite at long horizons
    for depth in range(N, 0, -1):
        remaining = N - depth + 1
        for node in aux.levels[depth - 1]:
            node_count += 1
            if terminal is None and node.pruned:
                per_stage = _absorbing_stage_payoff(spec, node.posterior)
                result = per_stage * remaining, None
            elif terminal is not None and depth == N:
                result = terminal.value_at(node), None
            elif terminal is not None and node.pruned:
                raise GameModelError("terminal payoff undefined on pruned node")
            else:
                matrix = _stage_matrix(aux, node, terminal is None,
                                       continuation if depth < N else None)
                entries = tuple(map(tuple, matrix))
                result = solved.get(entries)
                if result is None:
                    if want_strategies:
                        sol = solve_matrix_game(matrix)
                        result = sol.value, sol
                    else:
                        result = matrix_game_value(matrix), None
                    solved[entries] = result
            results[id(node)] = result

    total = ZERO
    for root in aux.roots:
        total += root.beta * results[id(root)][0]

    strategy1 = strategy2 = None
    if want_strategies:
        table1: dict = {}
        table2: dict = {}
        for level in aux.levels:
            for node in level:
                sol = results[id(node)][1]
                if sol is None:
                    continue
                view = node.view()
                table1[view] = dict(zip(aux.actions1, sol.row_strategy))
                table2[view] = dict(zip(aux.actions2, sol.col_strategy))
        kind = "public" if aux.view == PUBLIC else "player"
        if aux.view == PLAYER2:
            strategy1 = _trivial_strategy(aux.actions1, player=1, horizon=N)
        else:
            strategy1 = BehavioralStrategy(player=1, horizon=N, table=table1,
                                           tail=_uniform_tail(aux.actions1),
                                           view_kind=kind)
        if aux.view == PLAYER1:
            strategy2 = _trivial_strategy(aux.actions2, player=2, horizon=N)
        else:
            strategy2 = BehavioralStrategy(player=2, horizon=N, table=table2,
                                           tail=_uniform_tail(aux.actions2),
                                           view_kind=kind)

    return BackwardSolution(value=total if terminal is not None else total / N,
                            horizon=N,
                            evaluation=("terminal" if terminal is not None
                                        else payoff),
                            strategy1=strategy1, strategy2=strategy2,
                            node_count=node_count,
                            merged_count=0)


def solve_horizons(aux: AuxiliaryGame, horizons) -> dict:
    """Mean values ``{n: v_n}`` of every requested horizon in one pass.

    ``aux`` is a merged belief DAG (``build_auxiliary(merge_beliefs=True)``)
    built at least to the largest horizon.  The pass is Shapley's value
    recursion indexed by the number k of stages left: layer k holds V_k,
    the k-stage total value, for the beliefs at depth n - k + 1 of every
    requested n >= k, once per posterior (``BeliefNode.key``), since stage
    rewards, signal transitions and child posteriors depend on the
    posterior alone.  A pruned belief takes k times its absorbing payoff
    per stage; every other belief takes the exact value of its stage
    matrix from ``matrix_game_value``: certified by a pure saddle point
    where one exists, by the checked LP otherwise.
    Then v_n is the root-weighted V_n divided by n.  Only layers k - 1 and
    k are held.
    """
    if not aux.merged:
        raise GameModelError("solve_horizons needs a merged belief DAG")
    if aux.view == JOINT:
        raise UnsupportedStructureError(
            "cannot solve on the joint view: neither player observes it")
    wanted = sorted(set(horizons))
    if not wanted or wanted[0] < 1 or wanted[-1] > aux.horizon:
        raise GameModelError(
            f"horizons must lie in 1..{aux.horizon}, got {wanted}")
    per_stage: dict = {}                 # key -> absorbing payoff per stage
    previous: dict = {}                  # key -> V_{k-1}
    values = {}

    def continuation(child):
        return previous[child.key]

    for k in range(1, wanted[-1] + 1):
        current: dict = {}
        for n in wanted:
            if n < k:
                continue
            for node in aux.levels[n - k]:
                key = node.key
                if key in current:
                    continue
                if node.pruned:
                    stage = per_stage.get(key)
                    if stage is None:
                        stage = per_stage[key] = _absorbing_stage_payoff(
                            aux.spec, node.posterior)
                    current[key] = stage * k
                else:
                    current[key] = matrix_game_value(_stage_matrix(
                        aux, node, True,
                        continuation if k > 1 else None))
        if k in wanted:
            total = ZERO
            for root in aux.roots:
                total += root.beta * current[root.key]
            values[k] = total / k
        previous = current
    return values


def _uniform_tail(actions):
    p = Fraction(1, len(actions))
    return {a: p for a in actions}


def _trivial_strategy(actions, player, horizon):
    """The other side of a single-controller game: one action, no choices."""
    return BehavioralStrategy(player=player, horizon=0, table={},
                              tail=_uniform_tail(actions))
