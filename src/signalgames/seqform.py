"""Finite-horizon solving of games with arbitrary signaling via sequence form.

A horizon-N truncation with perfect recall is solved exactly as one linear
program over realization plans: player 1's plan x lives on his sequences
(own view followed by an action), player 2's plan enters through the dual.
The payoff matrix couples sequence pairs through the chance weight alpha of
each history, so the LP value is the exact game value.

Histories whose continuation payoff no longer depends on anything (for the
mean payoff: the state is absorbing; for terminal payoffs: an
evaluation-supplied rule) are closed early, banking  alpha * constant  on
the sequence pair that reached them.  This keeps trees small on absorbing
games and makes long horizons reachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Budget, GameModelError, require_exact, require_horizon
from .lp import EQ, LEQ, OPTIMAL, LPError, LinearProgram, solve_lp
from .model import (
    MEAN,
    PLAYER1,
    PLAYER2,
    BehavioralStrategy,
    GameSpec,
    IntegerForm,
    _viewer,
    as_general,
    projection,
)
from .rationals import ONE, ZERO


@dataclass
class TerminalPayoff:
    """Terminal evaluation of an N-stage game.

    ``action_fn(state, i, j)`` is the payoff collected at stage N; it may
    depend on the stage-N actions.  ``determined_fn(state)`` returns the
    constant continuation value at a state where the remaining payoff no
    longer depends on play, which closes the history early, and None
    elsewhere.  Every value either returns must be an int or a Fraction:
    the solvers refuse any other (a float, a bool) with GameModelError.  A
    payoff of the whole history is the ``action_fn`` of a game whose states
    carry the history.
    """

    action_fn: object
    determined_fn: object

    def __post_init__(self):
        if not (callable(self.action_fn) and callable(self.determined_fn)):
            raise GameModelError("terminal payoff needs callable action_fn "
                                 "and determined_fn")


@dataclass
class _PlayerForm:
    """Sequence-form bookkeeping for one player."""

    seq_index: dict = field(default_factory=dict)      # seq tuple -> int
    infosets: dict = field(default_factory=dict)       # view tuple -> list[seq ids]
    parent_seq: dict = field(default_factory=dict)     # view tuple -> seq id
    actions: list = field(default_factory=list)

    def __post_init__(self):
        self.seq_index[()] = 0

    def sequence(self, seq: tuple) -> int:
        idx = self.seq_index.get(seq)
        if idx is None:
            idx = self.seq_index[seq] = len(self.seq_index)
        return idx

    def visit(self, view: tuple) -> None:
        if view not in self.infosets:
            self.parent_seq[view] = self.sequence(view[:-1])
            self.infosets[view] = [self.sequence(view + (a,)) for a in self.actions]


@dataclass
class SequenceFormProgram:
    spec: GameSpec
    horizon: int
    p1: _PlayerForm
    p2: _PlayerForm
    payoff: dict                                       # (s1, s2) -> Fraction
    live_nodes: int
    closed_nodes: int


@dataclass
class NStageSolution:
    value: Fraction
    horizon: int
    strategy1: BehavioralStrategy
    strategy2: BehavioralStrategy


def _determined(form: IntegerForm, terminal, state: str, depth: int, N: int):
    """The constant continuation value at a depth-``depth`` history in
    ``state``, or None while it still depends on play.  For the mean payoff
    (``terminal`` None) an absorbing state is determined, worth its payoff
    over L (``form.absorbing``) times the stages left: the walks bank stage
    sums over L, not means.  A terminal payoff decides through its
    ``determined_fn``."""
    if terminal is None:
        payoff = form.absorbing.get(state)
        return None if payoff is None else payoff * (N - depth + 1)
    value = terminal.determined_fn(state)
    return None if value is None else require_exact(value, "a determined payoff")


def build_sequence_form(spec_or_sym, horizon: int, evaluation=MEAN,
                        budget: int | None = None) -> SequenceFormProgram:
    """Walk the positive-weight history tree and assemble the program.

    A depth-d history carries its chance weight as an integer mass over
    P * D**(d-1), with P, D and L the scales of ``GameSpec.integer_form``,
    as in ``histories.build_trees``; a child's mass is its parent's times
    the transition numerator over D.  Every payoff is banked over one
    program denominator: under the mean P * D**(N-1) * L * N, so each bank
    is one integer product.  A ``TerminalPayoff`` banks over P * D**(N-1),
    multiplying its exact value in where it banks.  A history closes where
    ``_determined`` finds its continuation constant.  One Fraction is built
    per payoff entry, at the end.
    """
    spec = as_general(spec_or_sym)
    require_horizon(horizon)
    N = horizon
    terminal = evaluation if isinstance(evaluation, TerminalPayoff) else None
    if terminal is None and evaluation != MEAN:
        raise GameModelError(f"unknown evaluation {evaluation!r}")

    p1 = _PlayerForm(actions=list(spec.actions1))
    p2 = _PlayerForm(actions=list(spec.actions2))
    banked: dict = {}                    # (s1, s2) -> numerator over ``den``
    nodes = Budget(budget)
    live = closed = 0

    form = spec.integer_form()
    step, moves, reward = form.D, form.transition, form.reward
    lift: dict = {}                      # depth -> D**(N-depth), on first use
    den = form.P * step ** (N - 1) * (form.L * N if terminal is None else 1)

    def bank(s1: int, s2: int, amount):
        if amount:
            key = (s1, s2)
            banked[key] = banked.get(key, 0) + amount

    # Iterative DFS; each frame: (state, mass, v1, v2, depth).
    stack = [(x, mass, (c,), (d,), 1) for x, c, d, mass
             in sorted(form.initial, key=lambda entry: str(entry[:3]))]

    while stack:
        x, mass, v1, v2, depth = stack.pop()
        up = lift.get(depth)
        if up is None:
            up = lift[depth] = step ** (N - depth)
        w = mass * up                    # the mass over P * D**(N-1)
        det = _determined(form, terminal, x, depth, N)
        if det is not None:
            # closed nodes count against the budget; only live ones check it
            closed += 1
            nodes.count += 1
            bank(p1.sequence(v1[:-1]), p2.sequence(v2[:-1]), w * det)
            continue
        live += 1
        nodes.charge(depth)
        p1.visit(v1)
        p2.visit(v2)
        for i in spec.actions1:
            s1 = p1.sequence(v1 + (i,))
            for j in spec.actions2:
                s2 = p2.sequence(v2 + (j,))
                if terminal is None:
                    bank(s1, s2, w * reward[(x, i, j)])
                elif depth == N:
                    bank(s1, s2, w * require_exact(
                        terminal.action_fn(x, i, j), "a terminal payoff"))
                if depth < N:
                    for x2, c, d, q in moves[(x, i, j)]:
                        stack.append((x2, mass * q, v1 + (i, c),
                                      v2 + (j, d), depth + 1))

    payoff = {key: Fraction(amount, den) for key, amount in banked.items()}
    return SequenceFormProgram(spec=spec, horizon=N, p1=p1, p2=p2,
                               payoff=payoff, live_nodes=live,
                               closed_nodes=closed)


def _solve_program(prog: SequenceFormProgram):
    """One LP solve: maximize player 2's tree value cap q_root subject to
    every player-2 sequence being covered by payoff + released q's."""
    n1 = len(prog.p1.seq_index)
    # q variables sit after the x block: column n1 is the root payment,
    # then one per p2 infoset.
    inf2 = list(prog.p2.infosets)
    q_of = {view: n1 + 1 + k for k, view in enumerate(inf2)}
    nq = 1 + len(inf2)
    nvars = n1 + nq

    # children-of-sequence maps
    released_by_seq: dict = {}
    for view, qidx in q_of.items():
        released_by_seq.setdefault(prog.p2.parent_seq[view], []).append(qidx)

    payoff_by_s2: dict = {}
    for (s1, s2), val in prog.payoff.items():
        payoff_by_s2.setdefault(s2, []).append((s1, val))

    rows, senses, rhs = [], [], []
    seq2_rows = []                       # (seq index, row number) for duals
    for seq, s2 in prog.p2.seq_index.items():
        if seq == ():
            row = {n1: ONE}
        else:
            view = seq[:-1]
            if view not in q_of:
                continue  # unreachable p2 sequence with no infoset: no constraint
            row = {q_of[view]: ONE}
        for qidx in released_by_seq.get(s2, []):
            row[qidx] = -ONE
        for (s1, val) in payoff_by_s2.get(s2, []):
            if val:
                row[s1] = -val
        seq2_rows.append((s2, len(rows)))
        rows.append(row)
        senses.append(LEQ)
        rhs.append(ZERO)

    # player 1 plan constraints
    rows.append({0: ONE})
    senses.append(EQ)
    rhs.append(ONE)
    for view, seqs in prog.p1.infosets.items():
        row = dict.fromkeys(seqs, ONE)
        row[prog.p1.parent_seq[view]] = -ONE
        rows.append(row)
        senses.append(EQ)
        rhs.append(ZERO)

    objective = [ZERO] * nvars
    objective[n1] = ONE
    lp = LinearProgram(objective=objective, rows=rows, senses=senses, rhs=rhs,
                       free=frozenset(range(n1, nvars)))
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise LPError(f"sequence-form LP ended {sol.status}")

    plan1_vec = sol.primal[:n1]
    plan2_vec = [ZERO] * len(prog.p2.seq_index)
    for s2, rownum in seq2_rows:
        plan2_vec[s2] = sol.duals[rownum]
    # dual feasibility already makes plan2 a realization plan; check the
    # flow equations exactly as a belt-and-braces certificate
    if plan2_vec[0] != 1:
        raise LPError("player 2 realization plan does not start at 1")
    for view, seqs in ((v, [prog.p2.seq_index[v + (a,)] for a in prog.p2.actions])
                       for v in prog.p2.infosets):
        total = sum((plan2_vec[s] for s in seqs), ZERO)
        if total != plan2_vec[prog.p2.parent_seq[view]]:
            raise LPError(f"player 2 realization plan breaks flow at {view!r}")
    return sol.objective, plan1_vec, plan2_vec


def _plan_to_strategy(form: _PlayerForm, plan_vec, player: int,
                      horizon: int) -> BehavioralStrategy:
    table = {}
    uniform = Fraction(1, len(form.actions))
    for view, seqs in form.infosets.items():
        enter = plan_vec[form.parent_seq[view]]
        if enter == 0:
            table[view] = {a: uniform for a in form.actions}
        else:
            table[view] = {a: plan_vec[s] / enter
                           for a, s in zip(form.actions, seqs)}
    return BehavioralStrategy(player=player, horizon=horizon, table=table,
                              tail={a: uniform for a in form.actions})


def nstage_value(spec_or_sym, horizon: int, evaluation=MEAN,
                 budget: int | None = None) -> NStageSolution:
    """Exact value and optimal behavioral strategies of the N-stage game.

    ``evaluation``: "mean" for the average of the N stage rewards, or a
    TerminalPayoff.  The LP's realization plans are returned only as these
    behavioral strategies.  Strategies at views their own plan never
    reaches carry uniform placeholders.
    """
    prog = build_sequence_form(spec_or_sym, horizon, evaluation, budget)
    value, plan1_vec, plan2_vec = _solve_program(prog)
    return NStageSolution(value=value, horizon=horizon,
                          strategy1=_plan_to_strategy(prog.p1, plan1_vec, 1, horizon),
                          strategy2=_plan_to_strategy(prog.p2, plan2_vec, 2, horizon))


# ---------------------------------------------------------------------------
# Best response against a fixed behavioral strategy
# ---------------------------------------------------------------------------


def best_response_value(spec_or_sym, fixed: BehavioralStrategy, horizon: int,
                        responder: int = 2, budget: int | None = None) -> Fraction:
    """Exact mean payoff of the responder's best reply against ``fixed`` in
    the N-stage game: the average of the N stage rewards.

    responder=2 minimizes, responder=1 maximizes; ``fixed`` is the other
    player's (else GameModelError).  Works by collapsing the fixed player
    with chance and running backward induction over the responder's view
    tree; independent of the LP path, so it doubles as a certificate check
    for returned strategies.  ``fixed``'s mixes are read through the mix
    reader of ``model._viewer``, so a malformed one raises GameModelError
    naming its view, as in the play walk and ``histories.simulate``.

    The walk goes one depth at a time and merges frames: histories that
    agree on the state, the fixed strategy's view (``model._viewer``) and
    the responder's are one frame carrying their summed weight.  Everything
    a frame banks and every child weight is linear in its weight, so a
    merged frame banks exactly what its histories would have.  The budget
    is charged once per merged frame, at its depth.

    Views are interned: a frame is ``(state, fixed id, responder id)``, an
    id handed out per (parent id, step), so equal ids are equal views.  A
    responder sequence is ``(responder id, action)``, and ``()`` the empty
    one.  A fixed view's tuple is built only to read its mix, once per id,
    from its parent's tuple, and only the previous depth's tuples are kept.
    """
    spec = as_general(spec_or_sym)
    require_horizon(horizon)
    if responder not in (1, 2) or isinstance(responder, bool):
        raise GameModelError(f"responder must be 1 or 2, got {responder!r}")
    N = horizon
    edge_f, label_f, mix_f = _viewer(fixed, spec, 3 - responder)
    _, label_r = projection(PLAYER2 if responder == 2 else PLAYER1)
    actions = spec.actions2 if responder == 2 else spec.actions1

    form = spec.integer_form()
    cost: dict = {}                      # responder sequence -> banked Fraction
    nodes = Budget(budget)
    resp_ids: dict = {}                  # (sequence, label) -> responder id
    resp_parent: list = []               # responder id -> its parent sequence
    infosets: dict = {}                  # live responder id -> parent sequence
    moves: dict = {}                     # (x, i, j) -> [(x2, fixed step, label, p)]

    def bank(seq, amount):
        if amount:
            cost[seq] = cost.get(seq, ZERO) + amount

    def add(frames, key, weight):
        old = frames.get(key)
        frames[key] = weight if old is None else old + weight

    def resp_id(seq, label):
        rid = resp_ids.get((seq, label))
        if rid is None:
            rid = resp_ids[(seq, label)] = len(resp_parent)
            resp_parent.append(seq)
        return rid

    # one depth of frames: (state, fixed id, responder id) -> summed weight;
    # a fixed id of this depth is origins[id] = (parent id, step)
    level: dict = {}
    fixed_ids: dict = {}                 # (parent id, step) -> fixed id
    for (x, c, d), p in sorted(spec.initial.items(), key=str):
        if p > 0:
            fid = fixed_ids.setdefault((-1, (label_f(c, d),)), len(fixed_ids))
            add(level, (x, fid, resp_id((), label_r(c, d))), p)
    origins = list(fixed_ids)
    views = {-1: ()}                     # fixed id -> view, previous depth

    for depth in range(1, N + 1):
        nxt: dict = {}
        fixed_ids = {}
        last_views, views, mixes = views, {}, {}
        for (x, fid, rid), weight in level.items():
            nodes.charge(depth)
            det = _determined(form, None, x, depth, N)
            if det is not None:
                bank(resp_parent[rid], weight * det)
                continue
            infosets[rid] = resp_parent[rid]
            mix = mixes.get(fid)
            if mix is None:
                parent, step = origins[fid]
                view = views[fid] = last_views[parent] + step
                mix = mixes[fid] = [(a, Fraction(*nd)) for a, nd in mix_f(view).items()]
            for a_resp in actions:
                s_resp = (rid, a_resp)
                for a_fixed, pf in mix:
                    i, j = ((a_fixed, a_resp) if responder == 2
                            else (a_resp, a_fixed))
                    # a product by 1 and a zero reward change nothing banked
                    w = weight if pf == 1 else weight * pf
                    g = form.reward[(x, i, j)]
                    if g:
                        bank(s_resp, w * g)
                    if depth < N:
                        out = moves.get((x, i, j))
                        if out is None:
                            edge = edge_f(i, j)
                            out = moves[(x, i, j)] = [
                                (x2, edge + (label_f(c, d),), label_r(c, d), p)
                                for (x2, c, d), p
                                in spec.transition[(x, i, j)].items() if p > 0]
                        for x2, step, label, p in out:
                            fid2 = fixed_ids.setdefault((fid, step),
                                                        len(fixed_ids))
                            add(nxt, (x2, fid2, resp_id(s_resp, label)),
                                w if p == 1 else w * p)
        level, origins = nxt, list(fixed_ids)

    # fold the responder tree: minimize (responder 2) or maximize (1).  An
    # information set enters ``infosets`` before any of its successors
    # (depths are walked in order), so a pass in reverse order folds every
    # sequence's successors into it before the sequence itself is read.
    # The walk banked stage sums over L: min and max commute with the
    # positive scale 1/(N L), so the root is divided once.
    pick = min if responder == 2 else max
    for rid, parent in reversed(infosets.items()):
        cost[parent] = cost.get(parent, ZERO) + pick(
            cost.get((rid, a), ZERO) for a in actions)
    return cost.get((), ZERO) / (N * form.L)
