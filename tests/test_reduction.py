import random
from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    absorbing_payoffs,
    auxiliary_from_trees,
    fraction_solve_horizons,
    history_augmented,
    lift_payoff_by_kernel,
    naive_stage_matrix,
    observed_tree,
    root_weight,
)
from randgen import random_dist, random_game, random_strategy, random_symmetric_game
from signalgames import corpus, reduction
from signalgames import lp as lp_module
from signalgames.errors import (
    Budget,
    BudgetExceededError,
    GameModelError,
    UnsupportedStructureError,
)
from signalgames.histories import build_trees, exact_play_distribution
from signalgames.lp import solve_matrix_game
from signalgames.model import (
    JOINT,
    PLAYER1,
    PLAYER2,
    PUBLIC,
    GameSpec,
    SymmetricGameSpec,
    public_labels,
)
from signalgames.rationals import ZERO
from signalgames.reduction import (
    MEAN,
    _cells,
    _integer_matrix,
    build_auxiliary,
    lift_payoff,
    solve_backward,
    solve_horizons,
)
from signalgames.seqform import nstage_value


def test_signal_transition_noisy_example():
    # prior 1/2-1/2, likelihoods 1/3 vs 2/3: marginal of signal u is 1/2
    aux = build_auxiliary(corpus.build_game("noisy_public_2state"), 2)
    (root,) = aux.roots
    for i in aux.actions1:
        for j in aux.actions2:
            psi = aux.signal_transition(root, i, j)
            assert psi["u"] == F(1, 2)
            assert psi["w"] == F(1, 2)
            assert sum(psi.values(), ZERO) == 1


def test_signal_transition_rows_sum_one_random():
    """A pruned node has no children."""
    for seed in range(15):
        sym = random_symmetric_game(seed)
        aux = build_auxiliary(sym, 3)
        for node in (node for level in aux.levels[:-1] for node in level
                     if not node.pruned):
            for i in aux.actions1:
                for j in aux.actions2:
                    psi = aux.signal_transition(node, i, j)
                    assert sum(psi.values(), ZERO) == 1


def test_signal_transition_refuses_pruned_nodes_and_is_empty_at_leaves():
    """A pruned node of the belief graph is never expanded, so it has no
    distribution, and the refusal names no build option.  A node never
    expanded, a belief first reached at the horizon, has the empty one.  A
    horizon member whose belief was expanded at an earlier depth has that
    belief's distribution."""
    game = corpus.build_game("quitting_game")
    dag = build_auxiliary(game, 3)
    pruned = [node for level in dag.levels for node in level if node.pruned]
    assert pruned
    for node in pruned:
        for i in dag.actions1:
            for j in dag.actions2:
                with pytest.raises(GameModelError, match="pruned") as err:
                    dag.signal_transition(node, i, j)
                assert "merge" not in str(err.value)
                assert "build with" not in str(err.value)
    seen = {"unexpanded": 0, "expanded": 0}
    for game in (corpus.build_game("quitting_game"), corpus.build_game("noisy_public_2state")):
        dag = build_auxiliary(game, 3)
        above = {node.key for level in dag.levels[:-1] for node in level}
        for node in dag.levels[-1]:
            if node.pruned:
                continue
            expanded = node.key in above
            seen["expanded" if expanded else "unexpanded"] += 1
            assert bool(node.links) == expanded
            for i in dag.actions1:
                for j in dag.actions2:
                    psi = dag.signal_transition(node, i, j)
                    if expanded:
                        assert sum(psi.values(), ZERO) == 1
                    else:
                        assert psi == {}
    assert all(seen.values()), seen


def test_constant_signal_psi_trivial():
    aux = build_auxiliary(corpus.build_game("bigmatch_fullmonitor"), 3)
    (root,) = aux.roots
    for i in aux.actions1:
        for j in aux.actions2:
            psi = aux.signal_transition(root, i, j)
            assert psi == {"o": F(1)}


def test_belief_recursion_matches_member_trees():
    """The belief graph read along each observed history's links and the
    explicit member-based observed tree agree, history by history, on
    beta (a root's weight times the link weights on the path), posterior,
    and the links and their weights, in the same order: so the graph's
    paths are the tree's histories, down to the graph's pruned beliefs."""
    seen = {"pruned": 0, "several roots": 0, "paths": 0}
    for seed in range(12):
        for sym in (random_symmetric_game(seed), _absorbing_symmetric_game(seed)):
            from_members = auxiliary_from_trees(build_trees(sym, 4))
            dag = build_auxiliary(sym, 4)
            seen["several roots"] += len(dag.roots) > 1
            level = [(t, g, root_weight(g))
                     for t, g in zip(from_members[0], dag.roots, strict=True)]
            for depth in range(1, 5):
                deeper = []
                for t_node, dag_node, beta in level:
                    seen["paths"] += 1
                    assert (t_node.beta, t_node.posterior) == \
                        (beta, dag_node.posterior), (seed, depth)
                    if dag_node.pruned:
                        seen["pruned"] += 1
                    elif depth < 4:
                        t_links = list(t_node.children.items())
                        dag_links = list(dag_node.children.items())
                        assert [(link, w) for link, (w, _) in t_links] == \
                            [(link, w) for link, (w, _) in dag_links], seed
                        deeper += [(t_child, dag_child, beta * w)
                                   for (_, (w, t_child)), (_, (_, dag_child))
                                   in zip(t_links, dag_links)]
                level = deeper
    assert all(seen.values()), seen


def test_posterior_examples():
    # Dirac prior, deterministic transitions -> Dirac posterior
    aux = build_auxiliary(corpus.build_game("bigmatch_fullmonitor"), 2)
    (root,) = aux.roots
    assert root.posterior == {"s": F(1)}
    for w, child in root.children.values():
        assert len(child.posterior) == 1 and sum(child.posterior.values()) == 1

    # likelihood 1/3 vs 2/3 -> posterior (1/3, 2/3) after u
    aux2 = build_auxiliary(corpus.build_game("noisy_public_2state"), 2)
    (root2,) = aux2.roots
    for (edge, label), (w, child) in root2.children.items():
        if label == "u":
            assert child.posterior == {"xa": F(1, 3), "xb": F(2, 3)}
        else:
            assert child.posterior == {"xa": F(2, 3), "xb": F(1, 3)}


def test_posterior_uninformative_equals_markov_marginal():
    """With a constant public signal the posterior must equal the plain
    Markov forward marginal under the played actions (independent oracle)."""
    sym = SymmetricGameSpec(
        states=["xa", "xb"], actions1=["T", "B"], actions2=["L"],
        signals=["o"],
        initial={("xa", "o"): F(1, 4), ("xb", "o"): F(3, 4)},
        transition={
            ("xa", "T", "L"): {("xa", "o"): F(1, 3), ("xb", "o"): F(2, 3)},
            ("xb", "T", "L"): {("xb", "o"): F(1)},
            ("xa", "B", "L"): {("xa", "o"): F(1)},
            ("xb", "B", "L"): {("xa", "o"): F(1, 2), ("xb", "o"): F(1, 2)},
        },
        reward={(x, i, "L"): F(0) for x in ("xa", "xb") for i in ("T", "B")},
    )
    aux = build_auxiliary(sym, 3)

    def forward(dist, action):
        out = {}
        for x, w in dist.items():
            for (x2, s), p in sym.transition[(x, action, "L")].items():
                out[x2] = out.get(x2, ZERO) + w * p
        return out

    marg = {"xa": F(1, 4), "xb": F(3, 4)}
    (node,) = aux.roots
    assert node.posterior == marg
    for action in ("T", "B"):
        marg2 = forward(marg, action)
        (child,) = [c for (edge, lab), (w, c) in node.children.items()
                    if edge[0] == action]
        assert child.posterior == marg2


def test_posterior_martingale_one_step():
    """The expected next-stage posterior under the signal transition equals
    the one-step predicted law of the next state, for every action pair."""
    for seed in range(12):
        sym = random_symmetric_game(seed)
        spec = sym.expand()
        aux = build_auxiliary(sym, 3)
        for node in (node for level in aux.levels[:-1] for node in level
                     if not node.pruned):
            for i in aux.actions1:
                for j in aux.actions2:
                    predicted = {}
                    for x, w in node.posterior.items():
                        for (x2, c, d), p in spec.transition[(x, i, j)].items():
                            predicted[x2] = predicted.get(x2, ZERO) + w * p
                    mixed = {}
                    for (edge, label), (w, child) in node.children.items():
                        if edge == (i, j):
                            for x2, q in child.posterior.items():
                                mixed[x2] = mixed.get(x2, ZERO) + w * q
                    assert predicted == mixed, (seed, i, j)


def test_lift_payoff_constant_and_revealing():
    sym = corpus.build_game("noisy_public_2state")
    pair = build_trees(sym, 3)
    lifted = lift_payoff(pair, lambda h: F(7, 3))
    assert set(lifted.values()) == {F(7, 3)}

    # fully revealing: public signal names the state, so fhat is f renamed
    revealing = SymmetricGameSpec(
        states=["xa", "xb"], actions1=["T"], actions2=["L"],
        signals=["sa", "sb"],
        initial={("xa", "sa"): F(1, 2), ("xb", "sb"): F(1, 2)},
        transition={
            ("xa", "T", "L"): {("xa", "sa"): F(2, 5), ("xb", "sb"): F(3, 5)},
            ("xb", "T", "L"): {("xb", "sb"): F(1)},
        },
        reward={("xa", "T", "L"): F(0), ("xb", "T", "L"): F(1)},
    )
    pair2 = build_trees(revealing, 3)
    f = lambda h: F(1) if h.state == "xb" else F(0)
    lifted2 = lift_payoff(pair2, f)
    for v in pair2.observations(3):
        assert lifted2[v.view()] == (F(1) if v.label == "sb" else F(0))


def test_lift_payoff_refuses_inexact_values():
    """A payoff value must be an int or a Fraction: a float would enter the
    solvers as its binary expansion, 0.1 as
    3602879701896397/36028797018963968, passed off as an exact value."""
    pair = build_trees(corpus.build_game("quitting_game"), 2)
    for bad in (0.1, 1.0, True, False, "1/10", None):
        with pytest.raises(GameModelError, match="an int or a Fraction"):
            lift_payoff(pair, lambda h, bad=bad: bad)
        with pytest.raises(GameModelError, match="an int or a Fraction"):
            lift_payoff(pair, dict.fromkeys(pair.histories(2), bad))
    for good, value in ((1, F(1)), (F(1, 10), F(1, 10))):
        f = dict.fromkeys(pair.histories(2), good)
        assert set(lift_payoff(pair, f).values()) == {value}
        augmented, _ = history_augmented(pair.spec, pair, f)
        assert solve_backward(build_auxiliary(augmented, 2)).value == value


def test_transfer_identity_random_symmetric():
    """E_P[f] = E_Q[fhat] exactly for random games, strategies and payoffs."""
    rng = random.Random(99)
    for seed in range(10):
        sym = random_symmetric_game(seed)
        spec = sym.expand()
        N = 3
        pair = build_trees(spec, N)
        f = {h: F(rng.randint(-6, 6), rng.randint(1, 4))
             for h in pair.histories(N)}
        lifted = lift_payoff(pair, f)
        for _ in range(4):
            sigma = random_strategy(rng, spec, 1, N)
            tau = random_strategy(rng, spec, 2, N)
            dist = exact_play_distribution(pair, sigma, tau, N)
            lhs = sum((p * f[h] for h, p in dist.probs.items()), ZERO)
            rhs = sum((p * lifted[v.view()]
                       for v, p in dist.observed_marginal().items()), ZERO)
            assert lhs == rhs, seed


def test_lift_bounds():
    # min f <= fhat <= max f
    rng = random.Random(5)
    sym = random_symmetric_game(3)
    pair = build_trees(sym, 3)
    f = {h: F(rng.randint(-5, 5)) for h in pair.histories(3)}
    lifted = lift_payoff(pair, f)
    lo, hi = min(f.values()), max(f.values())
    for value in lifted.values():
        assert lo <= value <= hi


def test_lift_payoff_matches_kernel_oracle():
    """``lift_payoff`` reads member masses; the oracle sums the ``phi_row``
    kernel times f.  Keys, key order and values agree on random symmetric
    games (public view) and random general games (joint view) at horizons
    1 to 4, for f as a dict and as a callable, and both refuse an f
    undefined on a reachable history."""
    rng = random.Random(20)
    for seed in range(6):
        for game, view in ((random_symmetric_game(seed), PUBLIC),
                           (random_game(seed), JOINT)):
            for n in range(1, 5):
                pair = build_trees(game, n)
                assert pair.view == view
                f = {h: F(rng.randint(-9, 9), rng.randint(1, 7))
                     for h in pair.histories(n)}
                want = list(lift_payoff_by_kernel(pair, f).items())
                assert list(lift_payoff(pair, f).items()) == want
                assert list(lift_payoff(pair, f.get).items()) == want
                del f[pair.histories(n)[-1]]
                for lift in (lift_payoff, lift_payoff_by_kernel):
                    with pytest.raises(GameModelError,
                                       match="payoff undefined on reachable "
                                             f"history at level {n}"):
                        lift(pair, f)


def test_solve_backward_horizon1_is_stage_game():
    sym = corpus.build_game("noisy_public_2state")
    aux = build_auxiliary(sym, 1)
    sol = solve_backward(aux, payoff=MEAN)
    # expected stage matrix under the prior
    spec = sym.expand()
    prior = {"xa": F(1, 2), "xb": F(1, 2)}
    matrix = [[sum((prior[x] * spec.reward[(x, i, j)] for x in prior), ZERO)
               for j in spec.actions2] for i in spec.actions1]
    assert sol.value == solve_matrix_game(matrix).value


def _every_node_backward(game, N, prune=True, strategies=True):
    """Reference backward induction under the mean payoff on the
    per-history tree (``oracles.observed_tree``): one
    ``naive_stage_matrix`` and one solve at every node.  With ``prune`` a
    node whose belief sits on absorbing states takes its closed-form value
    and the nodes below it are left out, as the belief graph prunes them.
    Returns the value and both players' strategy tables, which are empty
    without ``strategies``: then each node takes its game's value only."""
    tree = observed_tree(game, N)
    held = absorbing_payoffs(tree.spec) if prune else {}
    closed, below = set(), set()
    for level in tree.levels:
        for node in level:
            if id(node.parent) in closed | below:
                below.add(id(node))
            elif held.keys() >= node.posterior.keys():
                closed.add(id(node))
    values, solutions = {}, {}
    for depth in range(N, 0, -1):
        for node in tree.levels[depth - 1]:
            if id(node) in below:
                continue
            if id(node) in closed:
                values[id(node)] = (N - depth + 1) * sum(
                    (w * held[x] for x, w in node.posterior.items()), ZERO)
                continue
            matrix = naive_stage_matrix(
                tree, node, (lambda child: values[id(child)]) if depth < N else None)
            if strategies:
                solutions[id(node)] = solve_matrix_game(matrix)
                values[id(node)] = solutions[id(node)].value
            else:
                values[id(node)] = lp_module.matrix_game_value(matrix)
    table1, table2 = {}, {}
    for level in tree.levels:
        for node in level:
            sol = solutions.get(id(node))
            if sol is not None:
                table1[node.view()] = dict(zip(tree.actions1, sol.row_strategy))
                table2[node.view()] = dict(zip(tree.actions2, sol.col_strategy))
    value = sum((root.beta * values[id(root)] for root in tree.roots), ZERO)
    return value / N, table1, table2


def _assert_matches_every_node(aux):
    """``solve_backward`` on the belief graph ``aux`` against
    ``_every_node_backward`` on the per-history tree of the same game and
    horizon, which has the same view.  On a private view the
    single-action player's strategy has no table."""
    sol = solve_backward(aux, payoff=MEAN)
    value, table1, table2 = _every_node_backward(aux.spec, aux.horizon)
    assert repr(sol.value) == repr(value)
    if aux.view != PLAYER2:
        assert repr(sol.strategy1.table) == repr(table1)
    if aux.view != PLAYER1:
        assert repr(sol.strategy2.table) == repr(table2)
    return sol


def test_solve_backward_solves_each_distinct_stage_matrix_once(monkeypatch):
    """On the public quitting game at n=7 the merged build holds 3 beliefs
    in 19 nodes, 7 of them live, and ``solve_backward`` solves one matrix
    game per live (stages left, belief) pair, 7 distinct games, and
    returns what solving every node of the per-history tree gives (127
    live histories above the absorbed ones), ``repr`` for ``repr``."""
    from signalgames import reduction

    aux = build_auxiliary(corpus.build_game("quitting_game"), 7)
    solved = []

    def counted(matrix):
        solved.append(tuple(map(tuple, matrix)))
        return solve_matrix_game(matrix)

    monkeypatch.setattr(reduction, "solve_matrix_game", counted)
    sol = solve_backward(aux, payoff=MEAN)
    monkeypatch.undo()
    assert len(solved) == len(set(solved)) == 7
    nodes = [node for level in aux.levels for node in level]
    assert sol.node_count == len(nodes) == 19
    assert sum(not node.pruned for node in nodes) == 7
    assert len({node.key for node in nodes}) == 3
    value, table1, table2 = _every_node_backward(aux.spec, 7)
    assert len(table1) == len(table2) == 127
    assert repr(sol.value) == repr(value)
    assert repr(sol.strategy1.table) == repr(table1)
    assert repr(sol.strategy2.table) == repr(table2)


def test_solve_backward_strategies_equal_every_node_solve(games):
    """The integer recursion's values and strategy tables are those of one
    ``Fraction`` stage-matrix solve per history, ``repr`` for ``repr``: the
    blind MDP on player 1's view, the noisy public game, random symmetric
    games and games with absorbing states, on the belief graph (pruned
    where beliefs absorb)."""
    for n in (1, 2, 5, 9):
        aux = build_auxiliary(games["mdp_final_remark"], n)
        assert aux.view == PLAYER1
        _assert_matches_every_node(aux)
    for n in range(1, 5):
        _assert_matches_every_node(build_auxiliary(games["noisy_public_2state"], n))
    pruned = 0
    for seed in range(12):
        _assert_matches_every_node(build_auxiliary(random_symmetric_game(seed), 3))
        aux = build_auxiliary(_absorbing_symmetric_game(seed), 3)
        pruned += any(node.pruned for level in aux.levels for node in level)
        _assert_matches_every_node(aux)
    assert pruned


def _augmented_paths(aux):
    """``{view: node}`` over the paths of ``aux`` to its horizon, in
    ``links`` order."""
    level = [((root.label,), root) for root in aux.roots]
    for _ in range(aux.horizon - 1):
        level = [((*view, *edge, label), child) for view, node in level
                 for (edge, label), (_, child) in node.links.items()]
    return dict(level)


def test_history_augmented_game_keeps_the_public_view(symmetric_games):
    """The game whose states are the histories keeps its base game's
    public labels, so ``_resolve_view`` finds the public view on it for
    the symmetric corpus games at N = 3; without the labels its signals
    admit no public view and it is refused."""
    for name, sym in symmetric_games.items():
        spec = sym.expand()
        pair = build_trees(spec, 3)
        augmented, _ = history_augmented(spec, pair)
        assert augmented.public_label == spec.public_label
        assert reduction._resolve_view(augmented)[0] == PUBLIC, name
        with pytest.raises(UnsupportedStructureError):
            reduction._resolve_view(replace(augmented, public_label={}))


def test_solve_backward_lifted_terminal_equals_every_node_solve():
    """A lifted terminal payoff (the first eight cases of
    ``test_backward_equals_sequence_form_lifted_terminal``) is the mean
    payoff of the game whose states are the histories: there the integer
    recursion gives the per-node ``Fraction`` solves' value and strategy
    tables, the value-only pass the same value, and at each horizon view
    the posterior mean of f is the lift of f."""
    rng = random.Random(77)
    for seed in range(8):
        sym = random_symmetric_game(seed)
        pair = build_trees(sym, 3)
        f = {h: F(rng.randint(-4, 4), rng.randint(1, 3))
             for h in pair.histories(3)}
        augmented, state_of = history_augmented(pair.spec, pair, f)
        aux = build_auxiliary(augmented, 3)
        sol = _assert_matches_every_node(aux)
        assert sol.strategy1.table, seed
        assert repr(solve_backward(aux, want_strategies=False).value) \
            == repr(sol.value), seed
        f_of = {state_of[h]: value for h, value in f.items()}
        assert {view: sum(w * f_of[x] for x, w in node.posterior.items())
                for view, node in _augmented_paths(aux).items()} \
            == lift_payoff(pair, f), seed


def _per_horizon_values(game, horizons):
    """Reference: one per-history tree and one plain backward pass per
    horizon, nothing pruned."""
    return {n: _every_node_backward(game, n, prune=False, strategies=False)[0]
            for n in horizons}


def test_initial_signals_get_distinct_public_labels():
    """Signal a is drawn initially and emitted under (T, L), e is emitted
    under (B, L) and b is drawn initially only.  Per action pair a and b
    would both be the first label; the public view must still tell the
    two initial observations apart, which reveal the state: the value is
    1 (play T in x, B in y) on both engines."""
    half = F(1, 2)
    spec = GameSpec(
        states=["x", "y"], actions1=["T", "B"], actions2=["L"],
        signals1=["a", "b", "e"], signals2=["a", "b", "e"],
        initial={("x", "a", "a"): half, ("y", "b", "b"): half},
        transition={(x, i, "L"): {(x, c, c): F(1)}
                    for x in ("x", "y") for i, c in (("T", "a"), ("B", "e"))},
        reward={(x, i, "L"): F(int((x, i) in {("x", "T"), ("y", "B")}))
                for x in ("x", "y") for i in ("T", "B")})
    labels = public_labels(spec)
    assert labels["a"] != labels["b"]
    assert labels["a"] == labels["e"] == "s0"
    for n in (1, 2, 3):
        assert solve_backward(build_auxiliary(spec, n)).value == 1, n
        assert nstage_value(spec, n).value == 1, n


def test_solve_backward_merge_agrees_with_plain():
    """The stage-indexed sweep over one merged, pruned DAG gives every
    horizon's value of plain backward induction on unmerged trees."""
    for seed in range(25):
        sym = random_symmetric_game(seed)
        dag = build_auxiliary(sym, 4)
        assert solve_horizons(dag, range(1, 5)) == _per_horizon_values(
            sym, range(1, 5)), seed
        tree = observed_tree(sym, 4)
        assert (sum(len(level) for level in dag.levels)
                <= sum(len(level) for level in tree.levels))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       horizons=st.sets(st.integers(min_value=1, max_value=4), min_size=1))
def test_solve_horizons_equals_per_horizon_backward(seed, horizons):
    sym = random_symmetric_game(seed)
    dag = build_auxiliary(sym, max(horizons))
    assert solve_horizons(dag, horizons) == _per_horizon_values(sym, horizons)


def _absorbing_symmetric_game(seed):
    """A random symmetric game with an absorbing state ``z`` of constant
    reward: non-dyadic transition denominators, reward denominators up to
    5, negative rewards, up to three roots, and beliefs that absorb."""
    rng = random.Random(seed)
    states = ["x0", "x1", "z"]
    I = [f"a{k}" for k in range(rng.randint(1, 2))]
    J = [f"b{k}" for k in range(rng.randint(1, 2))]
    S = ["s0", "s1"]
    pairs = [(x, t) for x in states for t in S]
    stay = [("z", t) for t in S]
    initial = random_dist(rng, pairs, support_max=3)
    transition, reward = {}, {}
    absorbed = F(rng.randint(-3, 3), rng.randint(1, 5))
    for x in states:
        for i in I:
            for j in J:
                if x == "z":
                    transition[(x, i, j)] = random_dist(rng, stay)
                    reward[(x, i, j)] = absorbed
                else:
                    transition[(x, i, j)] = random_dist(rng, pairs, support_max=3)
                    reward[(x, i, j)] = F(rng.randint(-4, 4), rng.randint(1, 5))
    return SymmetricGameSpec(states=states, actions1=I, actions2=J, signals=S,
                             initial=initial, transition=transition,
                             reward=reward)


def test_integer_sweep_equals_fraction_recursion(monkeypatch):
    """The integer sweep returns the Fraction recursion's values, ``repr``
    for ``repr``: public views of symmetric games with absorbing states,
    and both private views of single-controller games.  Transition
    denominators that are not powers of 2, fractional rewards (L > 1),
    several roots, pruned beliefs and link gcds h > 1 all occur, and both
    the saddle and the LP path of ``matrix_game_value`` are taken."""
    games = [_absorbing_symmetric_game(seed) for seed in range(60)]
    games += [_single_controller_game(seed, c)
              for seed in range(10) for c in (1, 2)]
    lp_calls, games_solved = [], []

    def counted_lp(matrix):
        lp_calls.append(matrix)
        return solve_matrix_game(matrix)

    def counted_value(matrix):
        games_solved.append(matrix)
        return lp_module.matrix_game_value(matrix)

    seen = {"non-dyadic step": 0, "reward lcm > 1": 0, "several roots": 0,
            "pruned": 0, "link gcd > 1": 0, PUBLIC: 0, PLAYER1: 0, PLAYER2: 0}
    for game in games:
        dag = build_auxiliary(game, 4)
        seen[dag.view] += 1
        nodes = [node for level in dag.levels for node in level]
        seen["non-dyadic step"] += dag.form.D & (dag.form.D - 1) != 0
        seen["reward lcm > 1"] += any(g.denominator > 1
                                      for g in dag.spec.reward.values())
        seen["several roots"] += len(dag.roots) > 1
        seen["pruned"] += any(node.pruned for node in nodes)
        seen["link gcd > 1"] += any(h > 1 for node in nodes
                                    for h, _ in node.links.values())
        with monkeypatch.context() as patch:
            patch.setattr(lp_module, "solve_matrix_game", counted_lp)
            patch.setattr(reduction, "matrix_game_value", counted_value)
            got = solve_horizons(dag, [1, 2, 4])
        assert repr(got) == repr(fraction_solve_horizons(dag, [1, 2, 4])), dag.view
    assert all(seen.values()), seen
    assert 0 < len(lp_calls) < len(games_solved), (len(lp_calls), len(games_solved))


def test_solve_backward_reads_strategies_on_a_merged_dag():
    """On the merged quitting DAG ``solve_backward`` gives the sweep's value
    with and without strategies, and its tables are the per-history
    tree's: one entry per live observed history, 1 + 2 + 4 at n = 3."""
    dag = build_auxiliary(corpus.build_game("quitting_game"), 3)
    sol = _assert_matches_every_node(dag)
    assert sol.value == solve_backward(dag, want_strategies=False).value == \
        solve_horizons(dag, [3])[3]
    assert len(sol.strategy1.table) == len(sol.strategy2.table) == 7


def _keys_and_posteriors(dag):
    by_key: dict = {}
    for level in dag.levels:
        for node in level:
            post = tuple(sorted(node.posterior.items()))
            assert by_key.setdefault(node.key, post) == post
    assert len(by_key) == len(set(by_key.values()))
    return by_key


def test_belief_keys_number_posteriors_across_depths():
    """Keys are equal, at any depths, exactly when posteriors are."""
    dag = build_auxiliary(corpus.build_game("quitting_game"), 6)
    assert len(_keys_and_posteriors(dag)) == 3
    for seed in range(20):
        sym = random_symmetric_game(seed, n_states=3, n_signals=3)
        _keys_and_posteriors(build_auxiliary(sym, 4))


def test_solve_horizons_rejects_bad_input():
    dag = build_auxiliary(corpus.build_game("quitting_game"), 3)
    for horizons in ([], [0, 1], [4], [2.5], [1, 2.0], [True]):
        with pytest.raises(GameModelError):
            solve_horizons(dag, horizons)


def test_solve_backward_refuses_every_payoff_but_the_mean():
    """The belief graph holds a stage-additive payoff only: any payoff
    other than "mean", the lifted values of ``lift_payoff`` among them,
    is refused before anything is solved."""
    game = corpus.build_game("quitting_game")
    dag = build_auxiliary(game, 3)
    pair = build_trees(game, 3)
    lifted = lift_payoff(pair, dict.fromkeys(pair.histories(3), F(1)))
    for payoff in ("total", "Mean", None, lifted, {}):
        for strategies in (True, False):
            with pytest.raises(GameModelError, match="unknown payoff"):
                solve_backward(dag, payoff=payoff, want_strategies=strategies)
    assert solve_backward(dag, payoff="mean").value == \
        solve_backward(dag).value


def test_solve_backward_strategies_are_distributions():
    aux = build_auxiliary(corpus.build_game("quitting_game"), 3)
    sol = solve_backward(aux, payoff=MEAN)
    for table in (sol.strategy1.table, sol.strategy2.table):
        for view, dist in table.items():
            assert sum(dist.values(), ZERO) == 1


def test_build_auxiliary_private_view_requires_single_opponent(games):
    """Without symmetric signaling the view is the private one of the only
    player with choices; a game where both have choices is refused."""
    with pytest.raises(UnsupportedStructureError):
        build_auxiliary(games["example3_bigmatch_blind1"], 2)
    # the blind MDP has a single-action opponent: allowed
    aux = build_auxiliary(games["mdp_final_remark"], 3)
    assert aux.view == PLAYER1


def test_mdp_belief_values_match_closed_form(games):
    """Blind MDP: total value of the n-stage game equals
    max_k (1 - 2^-k) (n - k - 1), the hand-derived plan value."""
    spec = games["mdp_final_remark"]
    for n in (2, 4, 7, 12):
        aux = build_auxiliary(spec, n)
        sol = solve_backward(aux, payoff=MEAN, want_strategies=False)
        expected = max(
            (F(1) - F(1, 2 ** k)) * (n - k - 1) for k in range(n)) / n
        expected = max(expected, F(0))
        assert sol.value == expected, n


def _single_controller_game(seed, controller):
    """``random_game`` with the other player cut down to one action."""
    spec = random_game(seed, n_states=3, n_actions=3, n_signals=2)
    keep1 = spec.actions1 if controller == 1 else spec.actions1[:1]
    keep2 = spec.actions2 if controller == 2 else spec.actions2[:1]
    kept = {key: val for key, val in spec.transition.items()
            if key[1] in keep1 and key[2] in keep2}
    return GameSpec(states=spec.states, actions1=keep1, actions2=keep2,
                    signals1=spec.signals1, signals2=spec.signals2,
                    initial=spec.initial, transition=kept,
                    reward={key: spec.reward[key] for key in kept})


def test_integer_stage_matrix_is_scaled_naive_formula():
    """Every entry of the integer stage matrix with k stages left, divided
    by c = D**(k-1) L s, is ``naive_stage_matrix``'s entry, Fraction for
    Fraction, when the live children carry U = D**(k-2) L s_child V and
    the pruned children are folded into the cells and enter at their
    closed form V = (k-1) sum_x post(x) g_abs(x): with and without the
    continuation; on public views of symmetric games (with absorbing
    states among them) and private views of single-controller games."""
    rng = random.Random(7)
    cases = [random_symmetric_game(seed, n_states=3, n_signals=3)
             for seed in range(12)]
    cases += [_single_controller_game(seed, c)
              for seed in range(12) for c in (1, 2)]
    cases += [_absorbing_symmetric_game(seed) for seed in range(12)]
    seen = {"zero reward": 0, "nonzero reward": 0, "unit weight": 0,
            "other weight": 0, "folded child": 0,
            PUBLIC: 0, PLAYER1: 0, PLAYER2: 0}
    for game in cases:
        aux = build_auxiliary(game, 4)
        seen[aux.view] += 1
        form = aux.form
        D = form.D
        L = lcm(*(g.denominator for g in aux.spec.reward.values()))
        held = absorbing_payoffs(aux.spec)
        values = {}

        def absorbed_value(child, k):
            return (k - 1) * sum((w * held[x] for x, w in child.posterior.items()),
                                 F(0))

        def continuation(child, k):
            if child.pruned:
                return absorbed_value(child, k)
            # zero for some children, so empty cells occur too
            return values.setdefault(id(child), F(rng.randint(-3, 5),
                                                  rng.randint(1, 6)))

        for level in aux.levels:
            for node in level:
                for x, w in node.posterior.items():
                    for key, g in aux.spec.reward.items():
                        if key[0] == x:
                            seen["zero reward" if g == 0 else "nonzero reward"] += 1
                for w, _ in node.children.values():
                    seen["unit weight" if w == 1 else "other weight"] += 1
                absorbed = {}
                cells = _cells(aux, form, node, absorbed)
                folded = [key for row in cells for _, _, closed in row
                          for _, key in closed]
                assert all(key in absorbed for key in folded)
                seen["folded child"] += len(folded)
                for k in (1, 2, 3):
                    cont = None if k == 1 else (
                        lambda child, k=k: continuation(child, k))
                    previous = None if cont is None else {
                        child.key: D ** (k - 2) * L
                        * sum(child.mu.values()) * cont(child)
                        for _, child in node.links.values()
                        if not child.pruned}
                    tail = (0 if k == 1 else D ** (k - 2) * (k - 1), 0)
                    c = D ** (k - 1) * L * sum(node.mu.values())
                    got = [[F(e) / c for e in row]
                           for row in _integer_matrix(
                               cells, D ** (k - 1), previous, tail, absorbed)]
                    want = naive_stage_matrix(aux, node, cont)
                    assert repr(got) == repr(want), (aux.view, node.key, k)
    assert all(seen.values()), seen


def test_strategy_walk_charges_one_node_per_observed_history():
    """The strategies' walk over the merged quitting DAG charges a fresh
    budget of the build's limit once per observed history above the
    absorbed ones, 2**(n+1) - 3 of them: 4093 to n = 11 and 8189 to
    n = 12.  So it raises where a build of one node per observed history
    would, though the DAG itself holds 3n - 2 nodes."""
    game = corpus.build_game("quitting_game")
    assert len(solve_backward(build_auxiliary(game, 11, budget=4093))
               .strategy1.table) == 2 ** 11 - 1
    with pytest.raises(BudgetExceededError) as err:
        solve_backward(build_auxiliary(game, 11, budget=4092))
    assert (err.value.budget, err.value.level_reached) == (4092, 11)
    dag = build_auxiliary(game, 12, budget=5000)
    assert sum(map(len, dag.levels)) == 34
    assert solve_backward(dag, want_strategies=False).value == F(11, 24)
    with pytest.raises(BudgetExceededError) as err:
        solve_backward(dag)
    assert (err.value.budget, err.value.level_reached) == (5000, 12)


def _charged_walk(aux):
    """The strategies' path walk as it once charged the budget: a fresh
    ``Budget`` of the build's limit, one charge per path, in walk order,
    down to the horizon (on the belief graph a horizon member may have
    links, from an earlier depth of its belief)."""
    paths = Budget(aux.budget)
    level = []
    for root in aux.roots:
        paths.charge(1)
        level.append(root)
    for depth in range(1, aux.horizon):
        below = []
        for node in level:
            for _, child in node.links.values():
                paths.charge(depth + 1)
                below.append(child)
        level = below
    return paths.count


def _overflow(call, *args):
    try:
        call(*args)
    except BudgetExceededError as err:
        return err.budget, err.level_reached
    return None


def test_path_count_precheck_matches_charged_walk():
    """``solve_backward``'s path count overflows at the level, and with the
    budget, where the charged walk would, on belief graphs of random
    symmetric games under budgets around their path totals; with nothing
    pruned the walk charges one per history of the per-history tree."""
    rng = random.Random(17)
    overflows = fits = 0
    for seed in range(32):
        sym = random_symmetric_game(seed)
        dag = build_auxiliary(sym, 4)
        total = _charged_walk(dag)
        if not any(node.pruned for level in dag.levels for node in level):
            assert total == sum(map(len, observed_tree(sym, 4).levels)), seed
        for budget in {total - 1, total, rng.randint(1, total), rng.randint(1, total)}:
            try:
                aux = build_auxiliary(sym, 4, budget=budget)
            except BudgetExceededError:
                continue
            expected = _overflow(_charged_walk, aux)
            assert _overflow(reduction._count_paths, aux) == expected
            assert _overflow(solve_backward, aux) == expected
            if expected is None:
                fits += 1
            else:
                overflows += 1
    assert overflows >= 10 and fits >= 10


def test_build_auxiliary_rejects_horizons_below_one():
    for horizon in (0, -1):
        with pytest.raises(GameModelError, match="horizon must be >= 1"):
            build_auxiliary(corpus.build_game("quitting_game"), horizon)


def _recursive_game(seed, start_absorbed=False):
    """A random recursive symmetric game: rewards vanish on the live states
    x0, x1, and every live transition reaches an absorbing state, z0* or
    z1*, under the revealing signal ``a`` (so beliefs are pruned at every
    depth) and may reach one under a live signal too (so beliefs mix live
    and absorbing states).  Each player has one or two actions, and
    ``start_absorbed`` adds an absorbed root (or, when ``seed`` is even,
    makes the only root an absorbed one)."""
    rng = random.Random(seed)
    live, absorbing = ["x0", "x1"], ["z0*", "z1*"]
    I = [f"a{k}" for k in range(rng.randint(1, 2))]
    J = [f"b{k}" for k in range(rng.randint(1, 2))]
    S = ["s0", "s1", "a"]
    payoff = {z: F(rng.randint(0, 4), rng.randint(1, 5)) for z in absorbing}
    transition, reward = {}, {}
    for i in I:
        for j in J:
            for z in absorbing:
                transition[(z, i, j)] = {(z, "a"): F(1)}
                reward[(z, i, j)] = payoff[z]
            for x in live:
                quit_to = (rng.choice(absorbing), "a")
                rest = random_dist(rng, [(y, t) for y in live + absorbing
                                         for t in ("s0", "s1")], support_max=3)
                p = F(rng.randint(1, 3), rng.choice((4, 6, 9)))
                dist = {key: (1 - p) * w for key, w in rest.items()}
                dist[quit_to] = dist.get(quit_to, F(0)) + p
                transition[(x, i, j)] = dist
                reward[(x, i, j)] = F(0)
    initial = random_dist(rng, [(x, t) for x in live for t in ("s0", "s1")])
    if start_absorbed:
        kept = {} if seed % 2 == 0 else {key: w / 2 for key, w in initial.items()}
        initial = {**kept, (rng.choice(absorbing), "a"): 1 - sum(kept.values(), F(0))}
    return SymmetricGameSpec(states=live + absorbing, actions1=I, actions2=J,
                             signals=S, initial=initial,
                             transition=transition, reward=reward)


def test_folded_sweep_equals_unpruned_and_fraction_recursion():
    """Folding absorbed beliefs into their parents' cells changes no value
    and no strategy: on random recursive games whose beliefs are absorbed
    at every depth (pruned roots included, and the one-row and one-column
    games read as a min or a max) ``solve_horizons`` on the pruned DAG
    equals backward induction on the unpruned per-history tree and
    ``fraction_solve_horizons``, and ``solve_backward`` on the DAG gives
    the unpruned tree's value and its strategies at every live history,
    and matches a per-node solve."""
    seen = {"pruned root": 0, "live root": 0, "one row": 0, "one column": 0,
            "square": 0, "pruned at every depth": 0}
    games = [_recursive_game(seed) for seed in range(16)]
    games += [_recursive_game(seed, start_absorbed=True) for seed in range(8)]
    for game in games:
        dag = build_auxiliary(game, 5)
        seen["pruned root"] += any(root.pruned for root in dag.roots)
        seen["live root"] += any(not root.pruned for root in dag.roots)
        seen["one row"] += len(game.actions1) == 1
        seen["one column"] += len(game.actions2) == 1
        seen["square"] += len(game.actions1) == len(game.actions2) == 2
        seen["pruned at every depth"] += all(
            any(node.pruned for node in level) for level in dag.levels[1:])
        horizons = [1, 2, 3, 5]
        got = solve_horizons(dag, horizons)
        assert got == _per_horizon_values(game, horizons)
        assert got == fraction_solve_horizons(dag, horizons)
        for n in (1, 3):
            pruned = build_auxiliary(game, n)
            value, table1, table2 = _every_node_backward(game, n, prune=False)
            assert solve_backward(pruned).value == value == got[n]
            sol = _assert_matches_every_node(pruned)
            for mine, theirs in ((sol.strategy1, table1),
                                 (sol.strategy2, table2)):
                assert all(theirs[view] == mix
                           for view, mix in mine.table.items())
    assert all(seen.values()), seen


def test_lifted_terminal_on_absorbed_roots_is_the_augmented_mean():
    """A lifted terminal payoff on games with absorbed roots is the mean
    payoff of the game whose states are the histories, where the horizon
    histories are absorbing and pruned: its belief graph gives the value
    and strategies of the per-node solves, f's constant at every horizon
    history."""
    for seed in range(6):
        game = _recursive_game(seed, start_absorbed=True)
        assert any(root.pruned for root in build_auxiliary(game, 2).roots)
        pair = build_trees(game, 2)
        f = {h: F(h.depth) for h in pair.histories(2)}
        augmented, _ = history_augmented(pair.spec, pair, f)
        aux = build_auxiliary(augmented, 2)
        assert all(node.pruned for node in aux.levels[-1])
        assert _assert_matches_every_node(aux).value == 2
    game = _recursive_game(0, start_absorbed=True)
    pair = build_trees(game, 1)
    augmented, _ = history_augmented(
        pair.spec, pair, {h: F(3) for h in pair.histories(1)})
    assert solve_backward(build_auxiliary(augmented, 1)).value == 3


def test_mdp_sweep_evaluates_live_beliefs_only(monkeypatch, games):
    """On the blind MDP to n = 4000 the sweep builds cells for no pruned
    node and evaluates each of its 26380 live (belief, stage count) pairs
    once, two cells each; its one-column games build no matrix, and
    ``_entries`` returns their max, no list."""
    from signalgames.recursive import default_schedule

    dag = build_auxiliary(games["mdp_final_remark"], 4000)
    planned, games_cells = [], []
    real_cells, real_entries = reduction._cells, reduction._entries

    def cells(aux, form, node, *args):
        planned.append(node)
        return real_cells(aux, form, node, *args)

    def counted_entries(plan, *args):
        found = real_entries(plan, *args)
        assert not isinstance(found, list)
        games_cells.append(len(plan))
        return found

    def no_matrix(*args):
        raise AssertionError("a one-column game built a matrix")

    monkeypatch.setattr(reduction, "_cells", cells)
    monkeypatch.setattr(reduction, "_entries", counted_entries)
    monkeypatch.setattr(reduction, "_integer_matrix", no_matrix)
    monkeypatch.setattr(reduction, "matrix_game_value", no_matrix)
    solve_horizons(dag, default_schedule(4000))
    assert planned and not any(node.pruned for node in planned)
    assert games_cells == [2] * 26380
    assert sum(node.pruned for level in dag.levels for node in level) == 3999


def test_solve_horizons_builds_one_fraction_per_horizon(monkeypatch, games):
    """The sweep divides once per requested horizon, through ``reduction``'s
    binding of ``Fraction``, on one-column games and on 2x2 ones."""
    built = []

    def counted(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(reduction, "Fraction", counted)
    for game, n_max in ((games["mdp_final_remark"], 300),
                        (corpus.build_game("quitting_game"), 100)):
        dag = build_auxiliary(game, n_max)
        horizons = list(range(1, 13)) + [40, n_max]
        built.clear()
        solve_horizons(dag, horizons)
        assert len(built) == len(horizons)


def test_belief_node_repr_shows_its_own_fields_only():
    """Through ``links`` a node's repr would nest its descendants' reprs,
    exponentially many on a deep graph, and a failed assertion reprs the
    values it compared."""
    dag = build_auxiliary(corpus.build_game("quitting_game"), 4)
    for level in dag.levels:
        for node in level:
            assert repr(node) == (
                f"BeliefNode(label={node.label!r}, mu={node.mu!r}, "
                f"mass={node.mass}, scale={node.scale}, "
                f"pruned={node.pruned}, key={node.key})")


def _equal_belief_roots(seed):
    """``random_symmetric_game(seed)`` on two states, restarted from two
    roots of equal belief (1, 2) and masses 1 and 2, labels s0 and s1."""
    sym = random_symmetric_game(seed, n_states=2, n_signals=2)
    states = ["x0", "x1"]
    transition = {(x, i, j): {(y, s): F(1, 4) for y in states
                              for s in ("s0", "s1")}
                  for x in states for i in sym.actions1 for j in sym.actions2}
    transition.update({key: dist for key, dist in sym.transition.items()
                       if all(s in ("s0", "s1") for _, s in dist)})
    reward = {key: sym.reward.get(key, F(key[0] == "x1"))
              for key in transition}
    return SymmetricGameSpec(
        states=states, actions1=sym.actions1, actions2=sym.actions2,
        signals=["s0", "s1"],
        initial={("x0", "s0"): F(1, 9), ("x1", "s0"): F(2, 9),
                 ("x0", "s1"): F(2, 9), ("x1", "s1"): F(4, 9)},
        transition=transition, reward=reward)


def test_roots_of_equal_belief_share_one_expansion():
    """Two roots of equal belief and different labels are two nodes, each
    with its label and mass, sharing one ``links`` dict, so the second is
    expanded with the first: values, strategy tables and path counts are
    the per-history tree's."""
    for seed in range(12):
        game = _equal_belief_roots(seed)
        dag = build_auxiliary(game, 4)
        first, second = dag.roots
        assert (first.label, first.mass, second.label, second.mass) == \
            ("s0", 1, "s1", 2)
        assert first.key == second.key
        assert first.mu == second.mu == {"x0": 1, "x1": 2}
        assert first.links and first.links is second.links
        got = solve_horizons(dag, [1, 2, 3, 4])
        assert got == _per_horizon_values(game, [1, 2, 3, 4]), seed
        assert repr(got) == repr(fraction_solve_horizons(dag, [1, 2, 3, 4]))
        _assert_matches_every_node(build_auxiliary(game, 3))
        assert _charged_walk(dag) == sum(map(len, observed_tree(game, 4).levels))


def _tree_and_graph_pairs(tree, dag):
    """``(tree node, graph node)`` for every history of the per-history
    tree that is neither pruned on the graph nor below a pruned node,
    paired by following the same links from the roots."""
    pairs = list(zip(tree.roots, dag.roots))
    found = []
    while pairs:
        found.extend(pairs)
        pairs = [(t_child, dag_node.links[link][1])
                 for t_node, dag_node in pairs if not dag_node.pruned
                 for link, (_, t_child) in t_node.children.items()]
    return found


def test_graph_link_weights_are_depth_free():
    """On the quitting game at n >= 4 the live belief recurs at every
    depth as one node, the root.  Every live member's signal transition
    sums to 1, also at the horizon, and each graph node's link weights
    equal those of every tree history it stands for (a weight scaled by
    its node's depth would be off by a power of D)."""
    game = corpus.build_game("quitting_game")
    for n in (4, 5, 7):
        dag = build_auxiliary(game, n)
        tree = observed_tree(game, n)
        assert len({node.key for level in dag.levels for node in level}) == 3
        live = [node for level in dag.levels for node in level if not node.pruned]
        assert len(live) == n and all(node is dag.roots[0] for node in live)
        for node in live:
            for i in dag.actions1:
                for j in dag.actions2:
                    psi = dag.signal_transition(node, i, j)
                    assert sum(psi.values(), ZERO) == 1
        # above the horizon: 2**(n-1) - 1 live histories, 2**(n-1) - 2
        # absorbed ones
        pairs = [(t, g) for t, g in _tree_and_graph_pairs(tree, dag)
                 if t.depth < n]
        assert len(pairs) == 2 ** n - 3
        pairs = [(t, g) for t, g in pairs if not g.pruned]
        assert len(pairs) == 2 ** (n - 1) - 1
        for t_node, dag_node in pairs:
            assert {link: w for link, (w, _) in t_node.children.items()} == \
                {link: w for link, (w, _) in dag_node.children.items()}
            assert [(link, child.posterior) for link, (_, child)
                    in t_node.children.items()] == \
                [(link, child.posterior) for link, (_, child)
                 in dag_node.children.items()]


def test_belief_graph_node_counts_pinned():
    """One node per distinct belief, level memberships per (depth,
    belief): 3 nodes and 2998 memberships for the quitting game to
    n = 1000, 399 nodes and 20100 memberships for the noisy public game
    to n = 200."""
    for game, n, distinct, members in (
            (corpus.build_game("quitting_game"), 1000, 3, 2998),
            (corpus.build_game("noisy_public_2state"), 200, 399, 20100)):
        dag = build_auxiliary(game, n)
        nodes = {id(node): node for level in dag.levels for node in level}
        assert len(nodes) == len({node.key for node in nodes.values()}) == distinct
        assert sum(map(len, dag.levels)) == members
        assert all(len({node.key for node in level}) == len(level)
                   for level in dag.levels)
