"""Auxiliary game on observed histories and belief backward induction.

For a symmetric-signaling game, the observed histories form the state space
of an equivalent stochastic game with full monitoring: the transition
probability to the child observation (i, j, s) is the ratio of observed
weights  beta(v + (i,j,s)) / beta(v),  and a stage-measurable payoff f on
full histories lifts to  fhat(v) = sum_h kernel(h, v) f(h)  with equal
expectation under every strategy pair.  Values are then computed by
backward induction, solving one exact matrix game per observed node.

The observed tree is built by a belief recursion that carries only the
belief over current states per node — equivalent to grouping the explicit
history tree by observation, because both the signal transition and the
child belief are functions of the current belief.  Beliefs are unnormalized
integer vectors (``BeliefNode``), so the build divides nothing.  The build,
for stage-additive payoffs, is a belief graph: one node per distinct
belief, expanded once, the first time the belief is reached, at whatever
depth, with links that may lead back to an earlier belief (a cycle), and a
per-depth membership list of the nodes reached at each depth up to the
horizon.  Absorbed beliefs are pruned.  A payoff of the whole horizon
history is not stage-additive; ``lift_payoff`` gives its observed
equivalent, for the transfer identity.

One private recursion, Shapley's value recursion indexed by the number of
stages left, serves both solvers: ``solve_horizons`` runs it on one belief
graph for every requested horizon's mean value in a single pass;
``solve_backward`` runs it at the single horizon of the build and reads
both players' strategies, one table entry per observed history, off the
solution of each path's (stages left, node key) game.  The recursion runs
up stage-count layers listed once, top down, from the graph's links: layer
k holds the live children of layer k + 1, plus the live roots when k is a
requested horizon, so each (stage count, live belief) pair is one visit
and one stage game.  The value is positively homogeneous of degree 1 in
the unnormalized belief (Smallwood & Sondik 1973; Mertens, Sorin & Zamir,
*Repeated Games*), so the stage matrices are integer matrices.  Under the
mean payoff an absorbed (pruned) belief earns a constant per stage, so it
is folded into its parents' stage cells in closed form and enters no
layer.  A value-only game with one row or one column is the min or max of
its entries, computed in one loop over the cells planned once per belief;
any other is decided inside the sweep at its pure saddle point, the
largest row minimum when it equals the smallest column maximum
(``lp._saddle``), and only a game without one goes to
``lp.solve_matrix_game`` and its LP (Shapley & Snow 1950; Shapley 1953).

The observer view is derived from the game, never chosen by the caller:
the public view under symmetric signaling, else, in a single-controller
game (one player has a single action), the private view of the player who
has choices.  With an opponent who truly has choices, a private view would
not support the reduction, so any other game is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import count
from math import gcd

from .errors import (
    Budget,
    BudgetExceededError,
    GameModelError,
    UnsupportedStructureError,
    require_exact,
    require_horizon,
)
from .histories import TreePair
from .lp import _saddle, solve_matrix_game
from .model import (
    MEAN,
    PLAYER1,
    PLAYER2,
    PUBLIC,
    BehavioralStrategy,
    GameSpec,
    IntegerForm,
    as_general,
    projection,
    public_labels,
    uniform_strategy,
)
from .rationals import ZERO


@dataclass(eq=False, slots=True)
class BeliefNode:
    """A belief, carried as a primitive integer vector.

    ``mu`` maps the support's states to coprime positive integers; the
    posterior is mu / s, s = sum(mu).  ``links`` maps (edge, label) ->
    (h, child) where D * mu * Q = h * child.mu, Q the transition to the
    child's observation and D = ``step`` the transition scale of
    ``GameSpec.integer_form``.  ``children`` derives the link weights
    h * s_child / (D * s), which depend on the two beliefs alone, not on a
    depth.

    A node is a belief: ``key`` numbers it, it is expanded once, and it
    stands at every depth its belief is reached (``AuxiliaryGame.levels``).
    Its ``label`` is that of the first link that reached it.  Only a root
    carries a history weight, beta = mass * s / scale with ``scale`` = P,
    the initial scale of ``GameSpec.integer_form``; roots of equal belief
    (and different labels) share one ``links`` dict.  A node below the
    roots stands for every history that reaches its belief, so it has no
    ``mass`` or ``scale``.
    """

    label: object
    mu: dict                             # state -> int, entries coprime
    mass: int | None                     # None below the roots
    scale: int | None
    pruned: bool                         # fully on absorbing states
    key: int                             # belief number
    step: int = field(repr=False)        # D, the same for every node
    # out of repr: through them a node's repr would hold its descendants'
    # reprs, exponentially many on a deep graph
    links: dict = field(default_factory=dict, repr=False)

    @property
    def posterior(self) -> dict:
        """state -> Fraction, summing to 1."""
        s = sum(self.mu.values())
        return {x: Fraction(a, s) for x, a in self.mu.items()}

    @property
    def children(self) -> dict:
        """(edge, label) -> (transition weight, child node); the weight
        h * s_child / (D * s) is the probability of the child observation
        given the node and the actions on the edge."""
        s = self.step * sum(self.mu.values())
        return {key: (Fraction(h * sum(child.mu.values()), s), child)
                for key, (h, child) in self.links.items()}


@dataclass(eq=False)
class AuxiliaryGame:
    """Stochastic game over observed histories, built to a horizon."""

    spec: GameSpec                       # expanded/general form
    view: str
    horizon: int
    roots: list                          # level-1 BeliefNodes, one per label
    # levels[n-1]: the nodes reached at depth n, each once, in the order
    # first reached; a node is a member of every level its belief is
    # reached at, so a level is a membership list, not a set of nodes of
    # its own
    levels: list
    actions1: list
    actions2: list
    edge_of: object                      # the view's edge_of, model.projection
    form: IntegerForm                    # the spec's, derived by the build
    budget: int                          # the node limit the build was charged

    def signal_transition(self, node: BeliefNode, i: str, j: str) -> dict:
        """Distribution over child labels under (i, j): exact beta ratios.

        A node never expanded, a belief first reached at the horizon, has
        no links and gives ``{}``.  A pruned node is never expanded and
        has no distribution: GameModelError."""
        if node.pruned:
            raise GameModelError(
                "a pruned (absorbed) belief node has no signal transition: "
                "the build never expands it")
        edge = self.edge_of(i, j)
        return {label: weight
                for (e, label), (weight, child) in node.children.items()
                if e == edge}


def _resolve_view(spec: GameSpec) -> tuple:
    """``(view, public_of)`` of the auxiliary game, derived from the spec:
    the public view when it has symmetric signaling, else the private view
    of player 1 when player 2 has a single action, else that of player 2
    when player 1 has one.  UnsupportedStructureError otherwise: on any
    other view a player would face an opponent whose choices it does not
    see."""
    public_of = public_labels(spec)
    if public_of is not None:
        return PUBLIC, public_of
    if len(spec.actions2) == 1:
        return PLAYER1, None
    if len(spec.actions1) == 1:
        return PLAYER2, None
    raise UnsupportedStructureError(
        "auxiliary game needs symmetric signaling or a single-action opponent")


def _primitive(vector: dict) -> tuple:
    """``(h, vector / h)`` for h the gcd of the positive integer entries."""
    h = gcd(*vector.values())
    if h == 1:
        return 1, vector
    return h, {x: a // h for x, a in vector.items()}


def build_auxiliary(spec_or_sym, horizon: int,
                    budget: int | None = None) -> AuxiliaryGame:
    """Build the observed-history game by exact belief recursion.

    The observer view is the one ``_resolve_view`` derives from the game:
    public under symmetric signaling, else the private view of the only
    player with choices.

    A child's vector sums mu(x) * D * p over the transitions into its
    observation, divided by its gcd h.  No fraction is built here.  A
    node's links are ordered by the ``str`` of their (edge, label), ranked
    once per build.

    The build is for stage-additive payoffs, whose stage reward, signal
    transition and child beliefs are all functions of the belief alone.
    It is a belief graph: one node per distinct belief, numbered as
    ``key``, hashed once here, so solvers share work across depths
    without re-hashing the vectors.  One loop walks the depths: a member
    of a level that has no links yet is expanded, so a belief is expanded
    once, the first time it is reached, and roots of equal belief share
    that expansion; the next level lists the members' children, each once.
    A node whose belief sits entirely on absorbing states is pruned, its
    children not expanded: from there every continuation earns the same
    constant per stage, so solvers close it in closed form.  This is what
    makes long horizons tractable.  The budget is charged once per level
    membership, a (depth, belief) pair, so levels 1..n of any build, and
    their charges, are the build to n.
    """
    spec = as_general(spec_or_sym)
    require_horizon(horizon)
    view, public_of = _resolve_view(spec)
    edge_of, label_of = projection(view, public_of)
    nodes = Budget(budget)

    # integer transition numerators, flattened per state in the order
    # (i, j, outcome), so children and beliefs keep their insertion order
    form = spec.integer_form()
    absorbing, D = form.absorbing.keys(), form.D
    moves: dict = {}
    for x in spec.states:
        moves[x] = [((edge_of(i, j), label_of(c, d)), x2, q)
                    for i in spec.actions1 for j in spec.actions2
                    for x2, c, d, q in form.transition[(x, i, j)]]
    rank = {link: r for r, link in enumerate(sorted(
        {link for row in moves.values() for link, _, _ in row}, key=str))}

    graph: dict = {}                     # exact belief -> its node
    running = count()

    def node_of(mu, label, mass=None, scale=None):
        """The belief's node, made and numbered the first time it is
        reached."""
        # Integers hash modulo 2**61 - 1, where 2**d hashes like
        # 2**(d % 61), so the vectors of many depths would share hashes
        # in this one dict; the bit length tells them apart.
        exact = (tuple(sorted(mu.items())), max(mu.values()).bit_length())
        made = graph.get(exact)
        if made is None:
            made = graph[exact] = BeliefNode(label, mu, mass, scale,
                                             absorbing >= mu.keys(),
                                             next(running), D)
        return made

    # Level 1: one root per label, each with its mass.
    groups: dict = {}
    for x, c, d, mass in form.initial:
        bucket = groups.setdefault(label_of(c, d), {})
        bucket[x] = bucket.get(x, 0) + mass
    roots = []
    for lab in sorted(groups, key=str):
        g, mu = _primitive(groups[lab])
        nodes.charge(1)
        root = node_of(mu, lab, g, form.P)
        if root in roots:                # an earlier root's belief: this
            root = replace(root, label=lab, mass=g)    # one shares its links
        roots.append(root)

    levels = [roots]
    for depth in range(2, horizon + 1):
        members: dict = {}               # key -> node, in the order reached
        for parent in levels[-1]:
            if parent.pruned:
                continue
            links = parent.links         # shared by roots of equal belief
            if not links:                # reached for the first time
                buckets: dict = {}
                for x, a in parent.mu.items():
                    for link, x2, q in moves[x]:
                        bucket = buckets.get(link)
                        if bucket is None:
                            bucket = buckets[link] = {}
                        bucket[x2] = bucket.get(x2, 0) + a * q
                for link in sorted(buckets, key=rank.__getitem__):
                    mu = buckets[link]   # made primitive: divided by its gcd
                    h = gcd(*mu.values())
                    if h != 1:
                        mu = {x: a // h for x, a in mu.items()}
                    links[link] = (h, node_of(mu, link[1]))
            for _, child in links.values():
                if child.key not in members:
                    nodes.charge(depth)
                    members[child.key] = child
        levels.append(list(members.values()))

    return AuxiliaryGame(spec=spec, view=view, horizon=horizon, roots=roots,
                         levels=levels, actions1=list(spec.actions1),
                         actions2=list(spec.actions2), edge_of=edge_of,
                         form=form, budget=nodes.limit)


# ---------------------------------------------------------------------------
# Lifted payoffs
# ---------------------------------------------------------------------------


def lift_payoff(pair: TreePair, f) -> dict:
    """fhat(v) = sum over horizon histories of kernel(h, v) * f(h), as a
    dict from each horizon observation's ``view()`` to its value.

    At the horizon the kernel row of v is each member's mass over v's
    mass, their sum, so fhat(v) = sum of mass(h) * f(h) over v's members,
    divided by mass(v).  ``f`` maps HistoryNode -> Fraction
    (callable or dict) and must be defined on every positive-weight horizon
    history, with int or Fraction values (any other, a float or a bool,
    raises GameModelError).  The defining identity — the expectation of f
    under any strategy pair equals the expectation of fhat under the
    induced observed-play distribution — is exercised by tests.
    """
    n = pair.horizon
    get = f.__getitem__ if isinstance(f, dict) else f
    values = {}
    for v in pair.observations(n):
        total = ZERO
        for h in v.members:
            try:
                fh = get(h)
            except KeyError:
                raise GameModelError(
                    f"payoff undefined on reachable history at level {n}") from None
            total += h.mass * require_exact(fh, "a lifted payoff")
        values[v.view()] = total / v.mass
    return values


# ---------------------------------------------------------------------------
# Backward induction
# ---------------------------------------------------------------------------

@dataclass
class BackwardSolution:
    value: Fraction
    horizon: int
    strategy1: BehavioralStrategy | None
    strategy2: BehavioralStrategy | None
    # level memberships of the build, one per (depth, node): on a belief
    # graph more than its nodes, which recur across depths
    node_count: int
    merged_count: int


def _absorbed_rate(form: IntegerForm, node: BeliefNode) -> int:
    """a = sum_x mu(x) L g_abs(x) of a pruned node, so that U_k = D**(k-1) k a
    (``form.absorbing`` holds L g_abs)."""
    return sum(m * form.absorbing[x] for x, m in node.mu.items())


def _grid(aux: AuxiliaryGame) -> tuple:
    """``(grid, rewards)`` for ``_cells``: the edge of each action pair in
    row-major order, and each state's L g over the pairs, for the states
    with a nonzero reward only."""
    pairs = [(i, j) for i in aux.actions1 for j in aux.actions2]
    reward = aux.form.reward
    rewards = {x: [reward[(x, i, j)] for i, j in pairs] for x in aux.spec.states}
    return ([aux.edge_of(i, j) for i, j in pairs],
            {x: row for x, row in rewards.items() if any(row)})


def _cells(grid: list, rewards: dict, form: IntegerForm, node: BeliefNode,
           absorbed: dict) -> list:
    """The cells of the node's integer stage matrix before scaling, one per
    action pair in row-major order: ``(r, live, closed)``, r the reward
    term sum_x mu(x) L g(x, i, j), and the links on the pair's edge as
    ``(h, child.key)`` pairs, split into live children and pruned ones,
    whose a ``absorbed`` caches by key.  ``grid`` and ``rewards`` are
    ``_grid``'s: a belief on no state with a nonzero reward has r = 0 and
    sums nothing.  Links are grouped by edge once; the cells of one edge
    share their pair tuples."""
    by_edge: dict = {}
    for (e, _), (h, child) in node.links.items():
        live, closed = by_edge.setdefault(e, ([], []))
        key = child.key
        if child.pruned:
            if key not in absorbed:
                absorbed[key] = _absorbed_rate(form, child)
            closed.append((h, key))
        else:
            live.append((h, key))
    pairs = {e: (tuple(live), tuple(closed))
             for e, (live, closed) in by_edge.items()}
    terms = [(a, rewards[x]) for x, a in node.mu.items() if x in rewards]
    return [(sum(a * row[c] for a, row in terms) if terms else 0,
             *pairs.get(e, ((), ())))
            for c, e in enumerate(grid)]


def _entries(games: list, factor: int, previous: dict | None, tail: tuple,
             absorbed: dict, pick=None) -> list:
    """The entries of each game of a layer, a game a list of cells, in one
    loop per game: factor * r + sum h U(child) over the live pairs, U =
    ``previous``, + t 2**shift * sum h a(child) over the closed ones, a =
    ``absorbed``, ``tail`` = (t, shift); with ``previous`` None no
    continuation is counted.  A zero reward adds no term, h = 1 no product,
    and the power of 2 is a shift.  Returns one item per game: the list of
    its entries, or with ``pick`` (min or max) the entry it picks, no list
    built."""
    if previous is None:
        found = [[factor * r for r, _, _ in cells] for cells in games]
        return found if pick is None else list(map(pick, found))
    t, shift = tail
    lower = pick is min
    out = []
    for cells in games:
        entries = [] if pick is None else None
        best = None
        for r, live, closed in cells:
            total = factor * r if r else 0
            for h, child in live:
                u = previous[child]
                total += u if h == 1 else h * u
            if closed:
                rate = 0
                for h, key in closed:
                    a = absorbed[key]
                    rate += a if h == 1 else h * a
                total += t * rate << shift
            if entries is not None:
                entries.append(total)
            elif best is None or (total < best if lower else total > best):
                best = total
        out.append(best if entries is None else entries)
    return out


def _rows(entries: list, width: int) -> list:
    """The row-major ``entries`` as a matrix of ``width`` columns."""
    return [entries[c:c + width] for c in range(0, len(entries), width)]


def _value(rows: list):
    """The value of the integer matrix game ``rows``: the entry of its pure
    saddle point (``lp._saddle``: the largest row minimum equals the
    smallest column maximum, so the maximin row guarantees it against
    every column and the minimax column holds every row to it), else
    ``solve_matrix_game``'s LP value."""
    saddle = _saddle(rows)
    if saddle is None:
        return solve_matrix_game(rows).value
    r, c = saddle
    return rows[r][c]


def _shapley(aux: AuxiliaryGame, horizons, solutions: dict | None = None) -> dict:
    """Shapley's value recursion over the number k of stages left.

    Layer k holds each live belief with k stages left at a requested
    horizon: the live roots when k is requested, and the live children of
    layer k + 1, each ``BeliefNode.key`` once.  The layers are listed top
    down once, from ``links``, before the recursion runs up them; a pruned
    node enters none.  Each layer member gets the integer-scaled k-stage
    value U_k(mu) = D**(k-1) L s V_k(mu/s), with D and L (and P below) the
    scales of ``GameSpec.integer_form``.  A matrix game's value scales with
    its entries, so U_k(mu) is the value of the integer matrix D**(k-1)
    sum_x mu(x) L g(x, i, j) + sum of h U_{k-1}(child) over the children on
    edge (i, j) (an LP value enters U as the ``Fraction`` it is).  A pruned
    belief has U_k = D**(k-1) k a, a = sum_x mu(x) L g_abs(x), so it is
    folded into its parents' cells: an absorbed child enters an entry as h
    D**(k-2) (k-1) a(child), a cached per key in ``absorbed`` and the power
    of 2 in D**(k-2) applied as a shift, and a pruned root enters v_k in
    closed form.  The one fraction per horizon is the mean v_n = sum over
    roots of mass U_n / (P D**(n-1) L n).  Only layers k - 1 and k are
    valued at a time.

    A node's cells are planned once per key, when its key first enters a
    layer, against one grid of action-pair edges: a node's links are those
    of its belief.  ``_entries`` forms a whole layer's entries per call.
    Without ``solutions`` a game with one row (one column) takes the min
    (max) of its entries, no list built; any other game is decided here by
    ``_value``: its saddle entry where max-min equals min-max, else
    ``solve_matrix_game``'s LP value.  With ``solutions`` every game is
    ``solve_matrix_game`` and ``solutions[(k, key)]`` its solution: Bland's
    rule and the ratio test's tie-break, like the vector games'
    lowest-index picks, do not see a positive scaling of the entries, so
    these are the strategies of the node's ``Fraction`` matrix (D**(k-1) L
    s times smaller), and nodes of equal belief have equal ones.
    """
    form = aux.form
    requested = set(horizons)
    top = max(requested)
    width = len(aux.actions2)
    grid, rewards = _grid(aux)
    absorbed = {root.key: _absorbed_rate(form, root)
                for root in aux.roots if root.pruned}    # pruned key -> a
    pick = None                          # a vector game's min or max
    if solutions is None:
        if width == 1:
            pick = max
        elif len(aux.actions1) == 1:
            pick = min

    # The layers' live nodes, each key once per layer, listed top down in
    # one flat list: layer k starts at starts[k - 1] and ends where layer
    # k - 1 starts, so the recursion cuts layer 1 off the end first.
    roots = {root.key: root for root in aux.roots if not root.pruned}
    order, starts = [], []
    layer: dict = {}
    for k in range(top, 0, -1):
        layer = {child.key: child for parent in layer.values()
                 for _, child in parent.links.values() if not child.pruned}
        if k in requested:
            layer.update(roots)
        starts.append(len(order))
        order.extend(layer.values())

    plans: dict = {}                     # key -> its cells
    previous: dict | None = None         # key -> U_{k-1}
    values = {}
    factor = 1                           # D**(k-1)
    tail = (0, 0)                        # closed children's multiplier
    twos = (form.D & -form.D).bit_length() - 1    # D = odd * 2**twos
    for k in range(1, top + 1):
        if k > 1:                        # D**(k-2) (k-1) = t 2**shift
            shift = twos * (k - 2)
            tail = ((k - 1) * (factor // form.D >> shift), shift)
        start = starts.pop()
        layer = order[start:]
        del order[start:]
        keys = [node.key for node in layer]
        games = list(map(plans.get, keys))
        if None in games:                # keys that enter their first layer
            for at, node in enumerate(layer):
                if games[at] is None:
                    games[at] = plans[node.key] = _cells(
                        grid, rewards, form, node, absorbed)
        found = _entries(games, factor, previous, tail, absorbed, pick)
        if solutions is not None:
            solved = [solve_matrix_game(_rows(entries, width)) for entries in found]
            solutions.update(((k, key), sol) for key, sol in zip(keys, solved))
            found = [sol.value for sol in solved]
        elif pick is None:
            found = [_value(_rows(entries, width)) for entries in found]
        current = dict(zip(keys, found))
        if k in requested:
            total = 0
            for root in aux.roots:
                u = (factor * k * absorbed[root.key] if root.pruned
                     else current[root.key])
                total += root.mass * u
            values[k] = Fraction(total, form.P * factor * form.L * k)
        previous = current
        factor *= form.D
    return values


def _count_paths(aux: AuxiliaryGame) -> None:
    """Count the build's paths to its horizon, its observed histories,
    level by level: a root is one path, and a node's count is the
    sum of its parents' counts, one term per link.  Raise
    BudgetExceededError at the first level where the running total passes
    the build's limit."""
    counts = dict.fromkeys(aux.roots, 1)
    total = 0
    for depth in range(1, aux.horizon + 1):
        if depth > 1:
            below: dict = {}
            for node, paths in counts.items():
                for _, child in node.links.values():
                    below[child] = below.get(child, 0) + paths
            counts = below
        total += sum(counts.values())
        if total > aux.budget:
            raise BudgetExceededError(aux.budget, depth)


def solve_backward(aux: AuxiliaryGame, payoff="mean",
                   want_strategies: bool = True) -> BackwardSolution:
    """Backward induction over the auxiliary game at its horizon N.

    ``payoff`` must be "mean", the average of the stage rewards over the
    horizon (any other is a GameModelError): the belief graph holds a
    stage-additive payoff only.

    This is ``_shapley`` at the single horizon N: pruned nodes (see
    build_auxiliary) enter their parents' matrices in closed form, every
    other node solves its integer stage matrix.  With ``want_strategies``
    both players' tables have one entry per observed history that is
    neither pruned nor below a pruned node, read off the solution of the
    history's (stages left, node key) game.  One breadth-first walk over
    the build's paths to the horizon, in ``links`` order, yields them.
    Before anything is solved, ``_count_paths`` counts those paths per
    level, so BudgetExceededError is raised at the level where the
    observed histories would exceed the build's limit, without a walk.
    ``node_count`` counts the build's level memberships.
    """
    N = aux.horizon
    if payoff != MEAN:
        raise GameModelError(f"unknown payoff {payoff!r}")

    if want_strategies:
        _count_paths(aux)
    solutions = {} if want_strategies else None
    value = _shapley(aux, [N], solutions)[N]

    strategy1 = strategy2 = None
    if want_strategies:
        table1: dict = {}
        table2: dict = {}
        level = [((root.label,), root) for root in aux.roots]
        for depth in range(1, N + 1):
            if depth > 1:
                level = [((*view, *edge, label), child) for view, node in level
                         for (edge, label), (_, child) in node.links.items()]
            for view, node in level:
                sol = solutions.get((N - depth + 1, node.key))
                if sol is not None:
                    table1[view] = dict(zip(aux.actions1, sol.row_strategy))
                    table2[view] = dict(zip(aux.actions2, sol.col_strategy))
        kind = "public" if aux.view == PUBLIC else "player"

        def strategy(player, table, single_action):
            # the other side of a single-controller game has no choices
            uniform = uniform_strategy(aux.spec, player)
            if single_action:
                return uniform
            return BehavioralStrategy(player=player, horizon=N, table=table,
                                      tail=uniform.tail, view_kind=kind)

        strategy1 = strategy(1, table1, aux.view == PLAYER2)
        strategy2 = strategy(2, table2, aux.view == PLAYER1)

    return BackwardSolution(value=value, horizon=N,
                            strategy1=strategy1, strategy2=strategy2,
                            node_count=sum(map(len, aux.levels)),
                            merged_count=0)


def solve_horizons(aux: AuxiliaryGame, horizons) -> dict:
    """Mean values ``{n: v_n}`` of every requested horizon in one pass of
    ``_shapley`` up the stage-count layers of a belief graph built at
    least to the largest horizon: one stage game per distinct live belief
    and stage count, a saddle game decided in the pass, the LP of
    ``solve_matrix_game`` only for a game without a pure saddle point.
    Horizons must be integers in 1..``aux.horizon`` (GameModelError)."""
    wanted = list(horizons)
    for n in wanted:
        require_horizon(n)
    wanted = sorted(set(wanted))
    if not wanted or wanted[-1] > aux.horizon:
        raise GameModelError(
            f"horizons must lie in 1..{aux.horizon}, got {wanted}")
    return _shapley(aux, wanted)
