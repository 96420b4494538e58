"""Independent oracles: absorbing-state detection in Fractions,
pure-strategy enumeration, closed forms, the game
whose states are a tree's histories, the history trees, the play
distribution, the conditional kernel and the dense kernel-identity check
in Fractions, the per-history observed tree read off an explicit tree,
a matrix game's value, the value recursion in Fractions, a best reply that walks every history
on its own, and the best pure reply to a mix in a matrix game.

Deliberately reimplements game evaluation with plain recursion so the
sequence-form and backward-induction paths are checked against something
that shares no code with them (the matrix-game solver is the only shared
piece, and it has its own grid-search oracle tests).
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction as F

from randgen import _reachable_views
from signalgames.errors import Budget, GameModelError, LPError
from signalgames.histories import (
    HistoryNode,
    KernelCheckReport,
    ObservedNode,
    TreePair,
)
from signalgames.lp import solve_matrix_game
from signalgames.model import (
    JOINT,
    PLAYER1,
    PLAYER2,
    PUBLIC,
    GameSpec,
    as_general,
    projection,
    public_labels,
    require_public_labels,
)
from signalgames.reduction import _resolve_view


def absorbing_payoffs(spec_or_sym) -> dict:
    """Absorbing state -> its payoff, in the spec's state order: the states
    that stay put with probability 1 and pay the same under every action
    pair, detected in Fractions.  Reference for ``IntegerForm.absorbing``."""
    spec = as_general(spec_or_sym)
    out = {}
    for x in spec.states:
        keys = [(x, i, j) for i in spec.actions1 for j in spec.actions2]
        stays = all(sum((p for (x2, _, _), p in spec.transition[key].items()
                         if x2 == x), F(0)) == 1 for key in keys)
        pays = {spec.reward[key] for key in keys}
        if stays and len(pays) == 1:
            out[x] = pays.pop()
    return out


def pure_strategies(spec, player, horizon, cap=None):
    views = _reachable_views(spec, player, horizon)
    actions = spec.actions1 if player == 1 else spec.actions2
    count = len(actions) ** len(views)
    if cap is not None and count > cap:
        return None
    out = []
    for combo in itertools.product(actions, repeat=len(views)):
        out.append(dict(zip(views, combo)))
    return out


def profile_mean_payoff(spec, pure1, pure2, horizon):
    """Expected mean payoff of a pure strategy pair, by direct recursion."""
    total = [F(0)]

    def walk(x, v1, v2, weight, depth):
        i, j = pure1[v1], pure2[v2]
        total[0] += weight * spec.reward[(x, i, j)]
        if depth < horizon:
            for (x2, c, d), p in spec.transition[(x, i, j)].items():
                if p > 0:
                    walk(x2, v1 + (i, c), v2 + (j, d), weight * p, depth + 1)

    for (x, c, d), p in spec.initial.items():
        if p > 0:
            walk(x, (c,), (d,), p, 1)
    return total[0] / horizon


def bruteforce_mean_value(spec, horizon, cap=4096):
    """Normal-form value via full pure-strategy enumeration, or None when
    the enumeration would exceed ``cap`` strategies per player."""
    pures1 = pure_strategies(spec, 1, horizon, cap)
    pures2 = pure_strategies(spec, 2, horizon, cap)
    if pures1 is None or pures2 is None:
        return None
    matrix = [[profile_mean_payoff(spec, p1, p2, horizon) for p2 in pures2]
              for p1 in pures1]
    return solve_matrix_game(matrix).value


def guessing_matrix_value(n):
    """Stopping-game oracle for the Big Match variant's sup bounds.

    Both players reduce to a single switch time in {1..n, never}; the
    maximizer scores except on a simultaneous switch (or mutual never), so
    the matrix is all-ones minus the identity and the value is n/(n+1).
    """
    size = n + 1
    matrix = [[F(0) if a == b else F(1) for b in range(size)] for a in range(size)]
    return solve_matrix_game(matrix).value


def matrix_reply_value(matrix, mixed, side):
    """Exact value of the opponent's best pure reply to a mix in a matrix
    game, a list of rows.

    side="row": ``mixed`` is a row mix, returns min over columns.
    side="col": ``mixed`` is a column mix, returns max over rows.
    Its probabilities are ints or Fractions, else LPError.
    """
    mixed = list(mixed)
    bad = next((p for p in mixed if type(p) not in (int, F)), None)
    if bad is not None:
        raise LPError(f"mixed strategy entry {bad!r} is not an int or a Fraction")
    if sum(mixed) != 1 or any(p < 0 for p in mixed):
        raise LPError("mixed strategy must be a distribution")
    rows = range(len(matrix))
    cols = range(len(matrix[0]))
    if side == "row":
        if len(mixed) != len(matrix):
            raise LPError("row mix has wrong length")
        return min(sum((mixed[r] * matrix[r][c] for r in rows), F(0)) for c in cols)
    if side == "col":
        if len(mixed) != len(matrix[0]):
            raise LPError("column mix has wrong length")
        return max(sum((mixed[c] * matrix[r][c] for c in cols), F(0)) for r in rows)
    raise LPError(f"side must be 'row' or 'col', got {side!r}")


def mdp_nstage_value(n):
    """Blind MDP closed form: commit to Bottom after k Tops."""
    best = F(0)
    for k in range(n):
        best = max(best, (F(1) - F(1, 2 ** k)) * F(n - k - 1, n))
    return best


def naive_stage_matrix(aux, node, continuation):
    """Stage matrix at a belief node with every product and sum taken:
    entry (i, j) starts at 0, adds post(x) g(x, i, j) for every state and
    w V(child) for every child on an edge the view shows of (i, j).
    ``aux`` is a ``build_auxiliary`` game or an ``ObservedTree``.
    Reference for the entries ``reduction._entries`` forms from
    ``reduction._cells``, which are these scaled by D**(k-1) L s, with the
    terms that cannot change an entry skipped."""
    def on_edge(edge, i, j):
        if aux.view in (PUBLIC, JOINT):
            return edge == (i, j)
        return edge == ((i,) if aux.view == PLAYER1 else (j,))

    rows = []
    for i in aux.actions1:
        row = []
        for j in aux.actions2:
            total = sum((w * aux.spec.reward[(x, i, j)]
                         for x, w in node.posterior.items()), F(0))
            if continuation is not None:
                for (edge, label), (w, child) in node.children.items():
                    if on_edge(edge, i, j):
                        total += w * continuation(child)
            row.append(total)
        rows.append(row)
    return rows


def game_value(matrix):
    """Value of a matrix game: its largest row minimum when that equals the
    smallest column maximum (a pure saddle point), else the LP's value."""
    lower = max(map(min, matrix))
    if lower == min(map(max, zip(*matrix))):
        return lower
    return solve_matrix_game(matrix).value


def fraction_solve_horizons(aux, horizons):
    """Mean values ``{n: v_n}`` by Shapley's recursion in Fractions over a
    belief graph's levels: layer k holds the k-stage total value V_k per belief
    key, from the normalized posterior, the transition weights and
    ``naive_stage_matrix``; a pruned belief takes k times its absorbing
    payoff; v_n is the beta-weighted V_n over the roots, divided by n.

    Reference for ``reduction.solve_horizons``, which runs the same
    recursion on unnormalized integer beliefs."""
    wanted = sorted(set(horizons))
    held = absorbing_payoffs(aux.spec)
    previous = {}
    values = {}
    for k in range(1, wanted[-1] + 1):
        current = {}
        for n in wanted:
            if n < k:
                continue
            for node in aux.levels[n - k]:
                if node.key in current:
                    continue
                if node.pruned:
                    current[node.key] = k * sum(
                        (w * held[x] for x, w in node.posterior.items()), F(0))
                else:
                    current[node.key] = game_value(naive_stage_matrix(
                        aux, node,
                        (lambda child: previous[child.key]) if k > 1 else None))
        if k in wanted:
            values[k] = sum((root_weight(root) * current[root.key]
                             for root in aux.roots), F(0)) / k
        previous = current
    return values


def root_weight(root):
    """A belief graph root's history weight, beta = mass * s / scale."""
    return F(root.mass * sum(root.mu.values()), root.scale)


def ancestor(node, n):
    """The level-``n`` history that ``node`` extends (itself at its own
    level), following ``parent`` links."""
    if not 1 <= n <= node.depth:
        raise GameModelError(f"no ancestor at level {n}")
    while node.depth > n:
        node = node.parent
    return node


def phi_row(pair, n, v_m):
    """Conditional probability of each level-n history given v_m (m >= n).

    Exact ratio of chance weights: the alpha mass of the level-m members of
    v_m that extend h_n, divided by beta(v_m).  Maps HistoryNode -> Fraction;
    histories inconsistent with v_m have kernel 0 and are left out.

    Reference for the kernel that ``histories.conditional_check`` checks in
    integers and that ``reduction.lift_payoff`` reads at n = m."""
    if v_m.beta <= 0:
        raise GameModelError("observation has zero weight")
    sums = {}
    for h in v_m.members:
        anc = ancestor(h, n)
        sums[anc] = sums.get(anc, F(0)) + h.alpha
    return {h: a / v_m.beta for h, a in sums.items()}


def lift_payoff_by_kernel(pair, f):
    """fhat(v) = sum over v's kernel row at the horizon of kernel * f(h),
    keyed by view in observation order; reference for
    ``reduction.lift_payoff``."""
    n = pair.horizon
    get = f.__getitem__ if isinstance(f, dict) else f
    values = {}
    for v in pair.observations(n):
        total = F(0)
        for h, k in phi_row(pair, n, v).items():
            try:
                total += k * get(h)
            except KeyError:
                raise GameModelError(
                    f"payoff undefined on reachable history at level {n}") from None
        values[v.view()] = total
    return values


@dataclass(eq=False)
class FractionHistory:
    """A full history whose chance weight ``alpha`` is a stored Fraction."""

    state: str
    sig1: str
    sig2: str
    alpha: F
    depth: int
    parent: "FractionHistory | None" = None
    via: tuple | None = None

    seen_through = HistoryNode.seen_through
    stage_path = HistoryNode.stage_path


@dataclass(eq=False)
class FractionObservation:
    """An observed history whose weight ``beta`` is a stored Fraction, the
    sum of its members' alphas."""

    label: object
    edge: tuple | None
    beta: F
    depth: int
    parent: "FractionObservation | None" = None
    members: list = field(default_factory=list)

    view = ObservedNode.view


def history_augmented(spec, pair, f=None):
    """The game whose states are the histories of ``pair``'s tree, so that
    a payoff of the whole horizon history is a payoff of the last state.

    Returns ``(game, state_of)``, ``state_of`` mapping each HistoryNode to
    its state.  A level-1 history starts with its alpha and signals; a
    history below the horizon moves under (i, j) to each child reached by
    (i, j), with probability alpha(child) / alpha(history) and the child's
    signals; a horizon history loops to itself.  Every reward is 0, but
    for ``f`` (HistoryNode -> value): a horizon history h then pays
    N * f(h), so the N-stage mean is the expectation of f, the lifted
    terminal payoff's value.  The players see the signals and actions
    they see in ``spec``, and the game keeps ``spec``'s public labels, so
    each player's views, the public view, and so the N-stage game, are
    those of ``spec``."""
    state_of = {h: f"h{k}" for k, h in enumerate(
        h for level in pair.levels for h in level)}
    below = {}
    for level in pair.levels[1:]:
        for h in level:
            below.setdefault((h.parent, h.via), []).append(h)
    transition, reward = {}, {}
    for h, x in state_of.items():
        for i in spec.actions1:
            for j in spec.actions2:
                if h.depth == pair.horizon:
                    dist = {(x, h.sig1, h.sig2): F(1)}
                else:
                    dist = {(state_of[c], c.sig1, c.sig2): c.alpha / h.alpha
                            for c in below[(h, (i, j))]}
                transition[(x, i, j)] = dist
                reward[(x, i, j)] = (pair.horizon * F(f[h])
                                     if f is not None and h.depth == pair.horizon
                                     else F(0))
    game = GameSpec(
        states=list(state_of.values()), actions1=list(spec.actions1),
        actions2=list(spec.actions2), signals1=list(spec.signals1),
        signals2=list(spec.signals2),
        initial={(state_of[h], h.sig1, h.sig2): h.alpha
                 for h in pair.histories(1)},
        transition=transition, reward=reward,
        public_label=dict(spec.public_label))
    game.require_valid()
    return game, state_of


def fraction_build_trees(spec_or_sym, horizon, budget=None, view=None):
    """History and observed trees built by multiplying Fractions: each
    child's alpha is its parent's times the transition probability, and
    each observation's beta sums its members' alphas as they arrive.

    Reference for ``histories.build_trees``, which carries integer masses
    over a level scale; nodes, their order and the budget charges must
    agree.  The view is ``view`` when given, else the public one under
    symmetric signaling, else the joint one."""
    spec = as_general(spec_or_sym)
    if horizon < 1:
        raise GameModelError("horizon must be >= 1")
    public_of = public_labels(spec)
    if view is None:
        view = JOINT if public_of is None else PUBLIC
    edge_of, label_of = projection(view, public_of)
    nodes = Budget(budget)

    level1 = []
    obs1 = {}
    for (x, c, d), p in spec.initial.items():
        if p <= 0:
            continue
        nodes.charge(1)
        node = FractionHistory(state=x, sig1=c, sig2=d, alpha=p, depth=1)
        level1.append(node)
        label = label_of(c, d)
        ob = obs1.get(label)
        if ob is None:
            ob = obs1[label] = FractionObservation(label=label, edge=None,
                                                   beta=F(0), depth=1)
        ob.beta += p
        ob.members.append(node)
    levels = [level1]
    obs_levels = [list(obs1.values())]
    for n in range(1, horizon):
        next_level = []
        next_obs = []
        for ob in obs_levels[-1]:
            children = {}
            for h in ob.members:
                for i in spec.actions1:
                    for j in spec.actions2:
                        edge = edge_of(i, j)
                        for (x2, c, d), p in spec.transition[(h.state, i, j)].items():
                            if p <= 0:
                                continue
                            nodes.charge(n + 1)
                            child = FractionHistory(
                                state=x2, sig1=c, sig2=d, alpha=h.alpha * p,
                                depth=n + 1, parent=h, via=(i, j))
                            next_level.append(child)
                            label = label_of(c, d)
                            ob2 = children.get((edge, label))
                            if ob2 is None:
                                ob2 = children[(edge, label)] = FractionObservation(
                                    label=label, edge=edge, beta=F(0),
                                    depth=n + 1, parent=ob)
                            ob2.beta += child.alpha
                            ob2.members.append(child)
            next_obs.extend(children.values())
        levels.append(next_level)
        obs_levels.append(next_obs)
    return TreePair(spec=spec, view=view, horizon=horizon, levels=levels,
                    obs_levels=obs_levels)


def fraction_play_distribution(pair, sigma, tau, horizon):
    """Exact probability of every level-``horizon`` history that the
    strategies play, by a walk that multiplies ``Fraction``s level by level:
    the parent's probability, this step's chance factor alpha(h) /
    alpha(parent) and both players' action probabilities.

    Reference for ``histories.exact_play_distribution``, which carries the
    strategy weights as integer pairs and multiplies by alpha once.
    """
    def sees(strategy):
        if strategy.view_kind == "public":
            return projection(PUBLIC, require_public_labels(pair.spec))
        return projection(PLAYER1 if strategy.player == 1 else PLAYER2)

    sees1, sees2 = sees(sigma), sees(tau)
    weights = {root: root.alpha for root in pair.histories(1)}
    for n in range(1, horizon):
        nxt = {}
        dists = {}
        for h in pair.histories(n + 1):
            base = weights.get(h.parent)
            if base is None or base == 0:
                continue
            both = dists.get(h.parent)
            if both is None:
                both = dists[h.parent] = (
                    sigma.action_dist(h.parent.seen_through(*sees1)),
                    tau.action_dist(h.parent.seen_through(*sees2)))
            i, j = h.via
            pi, pj = both[0].get(i, F(0)), both[1].get(j, F(0))
            if pi == 0 or pj == 0:
                continue
            nxt[h] = base * (h.alpha / h.parent.alpha) * pi * pj
        weights = nxt
    return weights


def dense_conditional_check(pair, sigma, tau, n, m):
    """The kernel identities checked in Fractions on every (observation,
    history) pair.

    The kernel is ``phi_row``; the joint masses come from
    ``fraction_play_distribution``.  Reference for
    ``histories.conditional_check``, which walks only each observation's
    support and compares integers: zero pairs are compared here too, so the
    two reports must agree field by field.
    """
    obs_of = {h: v for v in pair.observations(m) for h in v.members}
    q = {}
    joint = {}
    for h, p in fraction_play_distribution(pair, sigma, tau, m).items():
        v = obs_of[h]
        q[v] = q.get(v, F(0)) + p
        key = (v, ancestor(h, n))
        joint[key] = joint.get(key, F(0)) + p

    max_disc = F(0)
    checked = 0
    normalization_ok = bayes_ok = sum_ok = True
    for v in pair.observations(m):
        row = phi_row(pair, n, v)
        if sum(row.values(), F(0)) != 1:
            normalization_ok = False
        qv = q.get(v, F(0))
        for h in pair.histories(n):
            k = row.get(h, F(0))
            checked += 1
            jp = joint.get((v, h), F(0))
            if jp != k * qv:
                sum_ok = False
                max_disc = max(max_disc, abs(jp - k * qv))
            if qv > 0 and jp / qv != k:
                bayes_ok = False
                max_disc = max(max_disc, abs(jp / qv - k))
    return KernelCheckReport(n=n, m=m, checked_pairs=checked,
                             max_discrepancy=max_disc,
                             normalization_ok=normalization_ok,
                             bayes_ok=bayes_ok, sum_identity_ok=sum_ok)


def posterior_of_observed(node):
    """Exact current-state posterior at an observed-tree node (from members)."""
    if node.beta <= 0:
        raise GameModelError("observation has zero weight")
    out = {}
    for h in node.members:
        out[h.state] = out.get(h.state, F(0)) + h.alpha
    return {x: a / node.beta for x, a in out.items()}


@dataclass(eq=False)
class ObservedBelief:
    """An observed history with the Fractions the belief graph derives
    from its integers: weight, posterior and transition weights."""

    label: object
    edge: tuple | None
    beta: F
    posterior: dict
    depth: int
    parent: "ObservedBelief | None"
    children: dict = field(default_factory=dict)

    view = ObservedNode.view


def auxiliary_from_trees(pair):
    """Levels of ``ObservedBelief`` read off an explicit observed tree
    (posteriors from members, transition weights beta(child) / beta), in
    the belief build's order: roots by the ``str`` of their label, each
    node's children by the ``str`` of their (edge, label), breadth first.
    Reference for the belief recursion of ``build_auxiliary``."""
    below = {}
    for level in pair.obs_levels[1:]:
        for ob in level:
            below.setdefault(id(ob.parent), []).append(ob)

    def belief(ob, parent):
        return ObservedBelief(label=ob.label, edge=ob.edge, beta=ob.beta,
                              posterior=posterior_of_observed(ob),
                              depth=ob.depth, parent=parent)

    level = [(ob, belief(ob, None)) for ob in
             sorted(pair.observations(1), key=lambda ob: str(ob.label))]
    levels = []
    while level:
        levels.append([node for _, node in level])
        deeper = []
        for ob, node in level:
            for child in sorted(below.get(id(ob), ()),
                                key=lambda c: str((c.edge, c.label))):
                made = belief(child, node)
                node.children[(child.edge, child.label)] = (
                    child.beta / ob.beta, made)
                deeper.append((child, made))
        level = deeper
    return levels


@dataclass(eq=False)
class ObservedTree:
    """The per-history observed tree of a game: one ``ObservedBelief`` per
    observed history, nothing merged or pruned, on the view the belief
    graph of ``build_auxiliary`` uses."""

    spec: GameSpec
    view: str
    horizon: int
    actions1: list
    actions2: list
    levels: list

    @property
    def roots(self):
        return self.levels[0]


def observed_tree(spec_or_sym, horizon):
    """The ``ObservedTree`` read off ``fraction_build_trees`` on the view
    that ``reduction._resolve_view`` derives: the public view under
    symmetric signaling, else the private view of the only player with
    choices.  Reference for ``build_auxiliary``'s belief graph, whose
    paths from the roots are these histories."""
    spec = as_general(spec_or_sym)
    view, _ = _resolve_view(spec)
    pair = fraction_build_trees(spec, horizon, view=view)
    return ObservedTree(spec=spec, view=view, horizon=horizon,
                        actions1=list(spec.actions1),
                        actions2=list(spec.actions2),
                        levels=auxiliary_from_trees(pair))


def naive_best_response_value(spec_or_sym, fixed, horizon, responder=2):
    """Best reply against ``fixed`` by a depth-first walk that visits every
    positive-weight history on its own.

    Reference for ``seqform.best_response_value``, which merges histories
    with equal state and views.  Each history banks its weighted stage
    reward over N (or its closed-form continuation) on the responder's
    sequence; the responder's view tree is then folded by min
    (responder 2) or max (responder 1).  Returns ``(value, frames)``, the
    number of histories walked."""
    spec = as_general(spec_or_sym)
    N = horizon
    public_of = (require_public_labels(spec) if fixed.view_kind == "public"
                 else None)
    actions = list(spec.actions2 if responder == 2 else spec.actions1)
    banked = {}                          # responder sequence -> Fraction
    infosets = {}                        # responder view -> None, in order
    held = absorbing_payoffs(spec)

    def bank(seq, amount):
        banked[seq] = banked.get(seq, F(0)) + amount

    stack = []
    for (x, c, d), p in sorted(spec.initial.items(), key=str):
        if p > 0:
            vf, vr = ((c,), (d,)) if responder == 2 else ((d,), (c,))
            vpub = (public_of.get(c, c),) if public_of is not None else None
            stack.append((x, p, vf, vr, vpub, 1))
    frames = 0
    while stack:
        x, weight, vf, vr, vpub, depth = stack.pop()
        frames += 1
        if x in held:
            bank(vr[:-1], weight * held[x] * (N - depth + 1) / N)
            continue
        infosets.setdefault(vr)
        dist = fixed.action_dist(vpub if fixed.view_kind == "public" else vf)
        for a_resp in actions:
            for a_fixed, pf in dist.items():
                if pf == 0:
                    continue
                i, j = (a_fixed, a_resp) if responder == 2 else (a_resp, a_fixed)
                w = weight * pf
                bank(vr + (a_resp,), w * spec.reward[(x, i, j)] / N)
                if depth < N:
                    for (x2, c, d), p in spec.transition[(x, i, j)].items():
                        if p > 0:
                            vf2 = vf + ((i, c) if responder == 2 else (j, d))
                            vr2 = vr + ((j, d) if responder == 2 else (i, c))
                            vpub2 = (vpub + (i, j, public_of.get(c, c))
                                     if vpub is not None else None)
                            stack.append((x2, w * p, vf2, vr2, vpub2, depth + 1))

    pick = min if responder == 2 else max
    for view in sorted(infosets, key=len, reverse=True):
        bank(view[:-1], pick(banked.get(view + (a,), F(0)) for a in actions))
    return banked.get((), F(0)), frames
