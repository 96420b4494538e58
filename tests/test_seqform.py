import dataclasses
import random
import sys
from fractions import Fraction as F

import pytest

from oracles import (
    bruteforce_mean_value,
    history_augmented,
    naive_best_response_value,
)
from randgen import (
    random_game,
    random_strategy,
    random_symmetric_game,
    rational_weights,
)
from signalgames import corpus, seqform
from signalgames.errors import (
    BudgetExceededError,
    GameModelError,
    UnsupportedStructureError,
)
from signalgames.gamefile import parse_spec, serialize_spec
from signalgames.lp import LPError, solve_matrix_game
from signalgames.model import PUBLIC, BehavioralStrategy, uniform_strategy
from signalgames.reduction import MEAN as RED_MEAN
from signalgames.reduction import build_auxiliary, solve_backward
from signalgames.histories import (
    build_trees,
    conditional_check,
    exact_play_distribution,
    simulate,
)
from signalgames.seqform import (
    TerminalPayoff,
    best_response_value,
    build_sequence_form,
    nstage_value,
)


def test_single_stage_reduces_to_matrix_game(games):
    spec = games["bigmatch_nosignals"]
    sol = nstage_value(spec, 1)
    stage = [[spec.reward[("s", i, j)] for j in spec.actions2]
             for i in spec.actions1]
    assert sol.value == solve_matrix_game(stage).value == F(1, 2)


def test_single_stage_averages_initial(games):
    # two initial states under one signal: stage game of the expected matrix
    sym = games["noisy_public_2state"]
    spec = sym.expand()
    sol = nstage_value(spec, 1)
    matrix = [[(spec.reward[("xa", i, j)] + spec.reward[("xb", i, j)]) / 2
               for j in spec.actions2] for i in spec.actions1]
    assert sol.value == solve_matrix_game(matrix).value


def test_bigmatch_nosignals_values_half(games):
    spec = games["bigmatch_nosignals"]
    for n in range(1, 7):
        sol = nstage_value(spec, n)
        assert sol.value == F(1, 2), n


def test_example2_mean2_matches_bruteforce(games):
    spec = games["example2_informed"]
    expected = bruteforce_mean_value(spec, 2)
    assert expected is not None
    sol = nstage_value(spec, 2)
    assert sol.value == expected


def test_corpus_nstage_matches_bruteforce_n2(games):
    for name in ("example1_guessing", "example3_bigmatch_blind1",
                 "bigmatch_nosignals", "mdp_final_remark"):
        spec = games[name]
        expected = bruteforce_mean_value(spec, 2)
        assert expected is not None, name
        assert nstage_value(spec, 2).value == expected, name


def test_random_games_match_bruteforce():
    checked = 0
    for seed in range(40):
        if checked >= 20:
            break
        spec = random_game(seed)
        for n in (1, 2):
            expected = bruteforce_mean_value(spec, n, cap=512)
            if expected is None:
                continue
            assert nstage_value(spec, n).value == expected, (seed, n)
            checked += 1


def test_strategies_certified_by_best_response():
    for seed in (0, 3, 5, 11):
        spec = random_game(seed)
        for n in (2, 3):
            sol = nstage_value(spec, n)
            # opponent best response cannot push below/above the value
            assert best_response_value(spec, sol.strategy1, n, responder=2) == sol.value
            assert best_response_value(spec, sol.strategy2, n, responder=1) == sol.value


def test_backward_equals_sequence_form_symmetric_corpus(symmetric_games):
    for name, sym in symmetric_games.items():
        for n in range(1, 5):
            aux = build_auxiliary(sym, n)
            back = solve_backward(aux, payoff=RED_MEAN, want_strategies=False)
            seq = nstage_value(sym, n)
            assert back.value == seq.value, (name, n)


def test_backward_equals_sequence_form_random_symmetric():
    for seed in range(12):
        sym = random_symmetric_game(seed)
        for n in (2, 3):
            aux = build_auxiliary(sym, n)
            back = solve_backward(aux, payoff=RED_MEAN, want_strategies=False)
            seq = nstage_value(sym, n)
            assert back.value == seq.value, (seed, n)


def test_backward_equals_sequence_form_lifted_terminal():
    """Terminal payoff f on full histories, on the game whose states are
    the histories: the belief graph's mean value, where the horizon
    histories pay N f, equals the sequence form's value with f as a
    terminal payoff of the last state.  In the second family, several
    states and a transition support of 3 put beliefs with s = sum(mu) > 1
    on the players' best replies, so the lift's weighting by the
    posterior counts."""
    rng = random.Random(77)
    cases = [random_symmetric_game(seed) for seed in range(8)]
    cases += [random_symmetric_game(seed, n_states=3, support_max=3)
              for seed in range(8)]
    for case, sym in enumerate(cases):
        spec = sym.expand()
        N = 3
        pair = build_trees(spec, N)
        f = {h: F(rng.randint(-4, 4), rng.randint(1, 3))
             for h in pair.histories(N)}
        augmented, state_of = history_augmented(spec, pair, f)
        back = solve_backward(build_auxiliary(augmented, N),
                              payoff=RED_MEAN, want_strategies=False)
        f_last = {state_of[h]: v for h, v in f.items()}
        seq = nstage_value(augmented, N, TerminalPayoff(
            action_fn=lambda x, i, j: f_last[x], determined_fn=lambda x: None))
        assert back.value == seq.value, case


def test_terminal_payoff_is_two_callables():
    """A terminal payoff is its stage-N ``action_fn`` and its
    ``determined_fn``, both required and both callable."""
    assert [f.name for f in dataclasses.fields(TerminalPayoff)] == [
        "action_fn", "determined_fn"]
    with pytest.raises(GameModelError, match="callable"):
        TerminalPayoff(action_fn=lambda x, i, j: F(0), determined_fn=None)
    with pytest.raises(GameModelError, match="callable"):
        TerminalPayoff(action_fn=F(0), determined_fn=lambda x: None)


def test_terminal_payoff_values_must_be_exact():
    """``nstage_value`` refuses a terminal or determined payoff value that
    is not an int or a Fraction (a float, a bool), which would otherwise
    come back as a binary expansion passed off as an exact value."""
    game = corpus.build_game("quitting_game")
    for bad in (0.1, True, "1/10"):
        for terminal in (
                TerminalPayoff(lambda x, i, j, bad=bad: bad, lambda x: None),
                TerminalPayoff(lambda x, i, j: F(0),
                               lambda x, bad=bad: bad if x == "1*" else None)):
            with pytest.raises(GameModelError, match="an int or a Fraction"):
                nstage_value(game, 2, evaluation=terminal)
    exact = TerminalPayoff(lambda x, i, j: F(1, 10), lambda x: None)
    assert nstage_value(game, 2, evaluation=exact).value == F(1, 10)
    whole = TerminalPayoff(lambda x, i, j: 1, lambda x: 1 if x == "1*" else None)
    assert nstage_value(game, 2, evaluation=whole).value == 1


@pytest.mark.parametrize("name", ["quitting_game", "noisy_public_2state",
                                  "bigmatch_fullmonitor", *range(6)])
def test_public_strategies_on_a_general_form_copy(name):
    """A general-form copy of a symmetric game, written and read back, has
    symmetric signaling but no ``public_label``: its public view comes from
    the symmetry witness.  At n <= 3 its belief value equals the symmetric
    original's and the sequence form's, and the best replies to its public
    strategies, which read the witness's labels, meet at that value."""
    sym = (random_symmetric_game(name) if isinstance(name, int)
           else corpus.build_game(name))
    general = parse_spec(serialize_spec(sym.expand()))
    assert not general.public_label
    for n in range(1, 4):
        back = solve_backward(build_auxiliary(general, n))
        assert back.strategy1.view_kind == back.strategy2.view_kind == PUBLIC
        assert back.value == solve_backward(build_auxiliary(sym, n)).value
        assert back.value == nstage_value(general, n).value
        assert best_response_value(general, back.strategy1, n, responder=2) == back.value
        assert best_response_value(general, back.strategy2, n, responder=1) == back.value


def test_public_strategy_certificates(games):
    sym = games["quitting_game"]
    n = 3
    aux = build_auxiliary(sym, n)
    back = solve_backward(aux, payoff=RED_MEAN)
    spec = sym.expand()
    assert best_response_value(spec, back.strategy1, n, responder=2) == back.value
    assert best_response_value(spec, back.strategy2, n, responder=1) == back.value


@pytest.mark.parametrize("forge, match", [
    (lambda duals: [2 * y for y in duals], "does not start at 1"),
    (lambda duals: duals[:1] + [0] * (len(duals) - 1), "breaks flow"),
], ids=["doubled", "root-only"])
def test_forged_player2_plan_is_refused(monkeypatch, forge, match):
    """Player 2's realization plan is read off the LP's duals and its flow
    equations are checked exactly: doubled duals do not start at 1, and a
    plan with mass on the empty sequence alone breaks flow at the first
    information set."""
    real = seqform.solve_lp

    def forged(lp):
        sol = real(lp)
        return dataclasses.replace(sol, duals=forge(sol.duals))

    monkeypatch.setattr(seqform, "solve_lp", forged)
    with pytest.raises(LPError, match=match):
        nstage_value(corpus.build_game("bigmatch_nosignals"), 2)


def test_sequence_form_program_prunes_absorbed(games):
    prog = build_sequence_form(games["bigmatch_nosignals"], 5)
    assert prog.closed_nodes > 0
    # live histories are exactly the all-B paths: 2^(t-1) per level
    assert prog.live_nodes == sum(2 ** (t - 1) for t in range(1, 6))


def test_best_response_public_strategy_needs_symmetric_signaling(games):
    spec = games["example1_guessing"]
    uniform = {a: F(1, len(spec.actions1)) for a in spec.actions1}
    fixed = BehavioralStrategy(player=1, horizon=0, table={}, tail=uniform,
                               view_kind="public")
    with pytest.raises(UnsupportedStructureError, match="symmetric signaling"):
        best_response_value(spec, fixed, 2)


@pytest.mark.parametrize("responder, fixed_player, match", [
    (3, 1, "responder must be 1 or 2"), (0, 1, "responder must be 1 or 2"),
    (True, 2, "responder must be 1 or 2"),
    (2, 2, "must be player 1's"), (1, 1, "must be player 2's"),
])
def test_best_response_refuses_a_bad_responder_or_fixed_player(
        responder, fixed_player, match):
    """The responder is player 1 or 2, and ``fixed`` is its opponent's
    strategy: either mistake is a GameModelError before the walk, where it
    used to end in a KeyError on a stage key."""
    spec = corpus.build_game("quitting_game").expand()
    fixed = uniform_strategy(spec, fixed_player)
    with pytest.raises(GameModelError, match=match):
        best_response_value(spec, fixed, 3, responder=responder)


def test_best_response_fold_runs_below_recursion_limit(games):
    """The fold over the responder's tree is a loop: a horizon of 150
    stages solves under a recursion limit of 100, which the solver leaves
    alone."""
    spec = games["mdp_final_remark"]
    horizon = 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        value = best_response_value(spec, uniform_strategy(spec, 1), horizon)
        assert sys.getrecursionlimit() == 100
    finally:
        sys.setrecursionlimit(limit)
    # player 2 has a single action, so the best reply earns the mean payoff
    # of uniform play: one forward pass over the state distribution
    dist, total = {"s1": F(1)}, F(0)
    for _ in range(horizon):
        nxt = {}
        for x, p in dist.items():
            for i in spec.actions1:
                total += p * spec.reward[(x, i, "-")] / 2
                for (x2, _, _), q in spec.transition[(x, i, "-")].items():
                    nxt[x2] = nxt.get(x2, F(0)) + p * q / 2
        dist = nxt
    assert value == total / horizon


def _random_public_strategy(rng, spec, player, horizon):
    """Random exact strategy on every public view to ``horizon``, no tail."""
    actions = spec.actions1 if player == 1 else spec.actions2
    pair = build_trees(spec, horizon)
    table = {o.view(): dict(zip(actions, rational_weights(rng, len(actions))))
             for n in range(1, horizon + 1) for o in pair.observations(n)}
    return BehavioralStrategy(player=player, horizon=horizon, table=table,
                              view_kind="public")


@pytest.mark.parametrize("kind", ["general", "symmetric"])
def test_best_response_matches_history_walk(kind):
    """Merged frames give the value of the walk over every history, for
    both responders and for player and public views; and some runs fit a
    budget below the walk's frame count, so frames really merge."""
    runs = merged = 0
    for seed in range(8):
        if kind == "general":
            spec, kinds = random_game(seed), ("player",)
        else:
            spec, kinds = random_symmetric_game(seed).expand(), ("player", PUBLIC)
        rng = random.Random(seed)
        for horizon in range(1, 5):
            for responder in (1, 2):
                fixed_player = 3 - responder
                for view_kind in kinds:
                    fixed = (random_strategy(rng, spec, fixed_player, horizon)
                             if view_kind == "player" else
                             _random_public_strategy(rng, spec, fixed_player,
                                                     horizon))
                    want, frames = naive_best_response_value(
                        spec, fixed, horizon, responder)
                    got = best_response_value(spec, fixed, horizon, responder)
                    assert got == want, (seed, horizon, responder, view_kind)
                    runs += 1
                    try:
                        best_response_value(spec, fixed, horizon, responder,
                                            budget=frames - 1)
                        merged += 1
                    except BudgetExceededError:
                        pass
    assert 0 < merged < runs, (merged, runs)


def test_nstage_value_refuses_an_unknown_evaluation():
    """An evaluation that is neither "mean" nor a TerminalPayoff is a
    GameModelError in ``nstage_value``, never read as the mean payoff."""
    spec = corpus.build_game("quitting_game").expand()
    for bad in ("bogus", None, 0):
        with pytest.raises(GameModelError, match="unknown evaluation"):
            nstage_value(spec, 2, evaluation=bad)


_MALFORMED_TAILS = [
    ({"Z": F(1)}, "'Z' is not an action of player 1"),
    ({"C": F(1, 2), "Q": F(1, 3)}, "the mass is 5/6, not 1"),
    ({"C": F(5, 4), "Q": F(-1, 4)}, "-1/4 of 'Q' is negative"),
    ({"C": F(-1), "Q": F(2)}, "-1 of 'C' is negative"),
    ({"C": F(3, 2)}, "the mass is 3/2, not 1"),
    ({"C": 0.5, "Q": 0.5}, "not an int or a Fraction"),
    ({"C": True}, "not an int or a Fraction"),
]

# each engine that reads player 1's mixes, run at horizon 2 against player
# 2's uniform strategy on one tree pair: (spec, fixed, tau, pair) -> result
_MIX_READERS = {
    "best_response": lambda spec, fixed, tau, pair: best_response_value(spec, fixed, 2),
    "play_distribution": lambda spec, fixed, tau, pair: sum(
        exact_play_distribution(pair, fixed, tau, 2).probs.values()),
    "conditional_check": lambda spec, fixed, tau, pair: conditional_check(
        pair, fixed, tau, 1, 2).all_exact,
    "simulate": lambda spec, fixed, tau, pair: simulate(
        spec, fixed, tau, 2, seed=1, replicas=4).mean_of_means,
}


# the best-reply cases keep the ids they had with the tail as the only
# parameter; the other engines' ids end in the engine's name
@pytest.mark.parametrize("tail, match, engine", [
    pytest.param(tail, match, engine, id=f"tail{k}-{match}" + (
        "" if engine == "best_response" else f"-{engine}"))
    for engine in _MIX_READERS for k, (tail, match) in enumerate(_MALFORMED_TAILS)])
def test_best_response_refuses_a_malformed_fixed_mix(tail, match, engine):
    """A fixed mix with an action its player lacks, a mass other than 1,
    or a probability that is negative or not exact is a GameModelError
    naming the view (with none negative, mass 1 keeps each in [0, 1]), in
    the best reply, the play walk (``exact_play_distribution``,
    ``conditional_check``) and ``simulate`` alike, and again on a second
    call with the same tree pair.  The best reply used to end in a KeyError
    on the stage key, or return a number that certifies nothing (1/12 for
    mass 5/6, -1/8 for a negative weight, 0.125 for floats).  The play
    walk read the mix unchecked: a play distribution of mass 5/6 or 3/2,
    or 0 for an unknown action, each with a kernel check reporting all
    exact, and an AttributeError on floats; ``simulate`` sampled from the
    same mixes and ended in a KeyError on an unknown action."""
    spec = corpus.build_game("quitting_game").expand()
    tau = uniform_strategy(spec, 2)
    run = _MIX_READERS[engine]
    pair = build_trees(spec, 2)
    fixed = BehavioralStrategy(player=1, horizon=0, table={}, tail=tail)
    with pytest.raises(GameModelError, match=match) as err:
        run(spec, fixed, tau, pair)
    assert "player 1 strategy at view (" in str(err.value)
    with pytest.raises(GameModelError) as again:
        run(spec, fixed, tau, pair)
    assert str(again.value) == str(err.value)
    exact = BehavioralStrategy(player=1, horizon=0, table={},
                               tail={"C": 1, "Q": F(0)})
    assert run(spec, exact, tau, pair) == {
        "best_response": 0, "play_distribution": 1,
        "conditional_check": True, "simulate": 0}[engine]


def test_best_response_at_a_long_horizon_matches_the_blind_mdp():
    """At n = 1000 player 1's best reply to player 2's only strategy in the
    blind MDP is its n-stage value: a blind plan is an action sequence, and
    only its first Bottom counts, at stage t, for (n - t)(1 - 2**(1-t))/n;
    t <= 64 covers every n below 2**64."""
    spec = corpus.build_game("mdp_final_remark")
    n = 1000
    want = max(F((n - t) * (2 ** (t - 1) - 1), n * 2 ** (t - 1))
               for t in range(1, 65))
    assert best_response_value(spec, uniform_strategy(spec, 2), n,
                               responder=1) == want


# smallest budget under which the best reply to a uniform strategy fits, at
# horizons 1-4: one merged frame per (state, fixed view, responder view)
_BEST_REPLY_FRAMES = {
    ("example1_guessing", "player"): (1, 7, 21, 51),
    ("example2_informed", "player"): (1, 6, 15, 32),
    ("example3_bigmatch_blind1", "player"): (1, 5, 13, 29),
    ("bigmatch_nosignals", "player"): (1, 5, 13, 29),
    ("bigmatch_fullmonitor", "player"): (1, 5, 13, 29),
    ("bigmatch_fullmonitor", PUBLIC): (1, 5, 13, 29),
    ("mdp_final_remark", "player"): (1, 4, 8, 12),
    ("noisy_public_2state", "player"): (2, 18, 146, 1170),
    ("noisy_public_2state", PUBLIC): (2, 18, 146, 1170),
    ("quitting_game", "player"): (1, 6, 16, 36),
    ("quitting_game", PUBLIC): (1, 6, 16, 36),
}


@pytest.mark.parametrize("name, view_kind", list(_BEST_REPLY_FRAMES))
def test_best_response_frame_counts_pinned(games, name, view_kind):
    """Each corpus best reply fits a budget of its pinned merged-frame
    count, for both responders, and not one below it."""
    game = games[name]
    spec = game.expand() if hasattr(game, "expand") else game
    for responder in (1, 2):
        fixed = dataclasses.replace(uniform_strategy(spec, 3 - responder),
                                    view_kind=view_kind)
        for n, frames in enumerate(_BEST_REPLY_FRAMES[(name, view_kind)], 1):
            best_response_value(spec, fixed, n, responder=responder,
                                budget=frames)
            with pytest.raises(BudgetExceededError):
                best_response_value(spec, fixed, n, responder=responder,
                                    budget=frames - 1)
