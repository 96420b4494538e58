import gc
import hashlib
import random
import weakref
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

from oracles import (
    ancestor,
    dense_conditional_check,
    fraction_build_trees,
    fraction_play_distribution,
    phi_row,
)
from randgen import (
    constant_strategy,
    coprime_game,
    coprime_strategy,
    random_game,
    random_strategy,
    random_symmetric_game,
)
from signalgames import corpus
from signalgames.errors import (
    BudgetExceededError,
    GameModelError,
    IncompleteStrategyError,
    PreconditionError,
)
from signalgames.histories import (
    build_trees,
    conditional_check,
    exact_play_distribution,
    simulate,
)
from signalgames.model import (
    JOINT,
    PUBLIC,
    BehavioralStrategy,
    GameSpec,
    as_general,
    projection,
    public_labels,
    uniform_strategy,
)
from signalgames.rationals import ZERO, format_rational
from signalgames.recursive import extract_eps_optimal, uniform_value
from signalgames.reduction import build_auxiliary, solve_horizons
from signalgames.seqform import best_response_value, build_sequence_form, nstage_value
from signalgames.supvalue import sup_lower_bound, sup_value_lowerbounds


def test_alpha_dirac_initial(games):
    pair = build_trees(games["example1_guessing"], 1)
    (root,) = pair.histories(1)
    assert root.alpha == 1 and root.state == "s2"


def test_alpha_product_formula():
    # uniform prior over two states, then a 1/3-mass transition => alpha 1/6
    sym = corpus.build_game("noisy_public_2state")
    pair = build_trees(sym, 2)
    level2 = pair.histories(2)
    a_sixth = [h for h in level2 if h.alpha == F(1, 6)]
    # (xa, u) branch has mass 1/2 * 1/3 per action pair
    assert any(h.stage_path()[0] == ["xa", "xa"] for h in a_sixth)


def test_beta_sums_members(games):
    sym = games["noisy_public_2state"]
    pair = build_trees(sym, 2)
    for v in pair.observations(1):
        assert v.beta == sum((h.alpha for h in v.members), ZERO)
    (root,) = pair.observations(1)
    assert root.beta == 1  # two level-1 histories, equal observation


def _tree_rows(pair):
    """Every node of both trees, level by level in tree order, with its
    parent (and an observation's members) as positions in their levels."""
    sees = projection(pair.view, public_labels(pair.spec))
    pos = {}
    rows = []
    for n in range(1, pair.horizon + 1):
        for k, h in enumerate(pair.histories(n)):
            pos[id(h)] = k
            rows.append(("h", n, k, h.state, h.sig1, h.sig2, h.via, h.depth,
                         h.alpha, h.seen_through(*sees),
                         None if h.parent is None else pos[id(h.parent)]))
        for k, v in enumerate(pair.observations(n)):
            pos[id(v)] = k
            rows.append(("v", n, k, v.label, v.edge, v.depth, v.beta, v.view(),
                         [pos[id(h)] for h in v.members],
                         None if v.parent is None else pos[id(v.parent)]))
    return rows


def test_build_trees_matches_fraction_oracle(games):
    """The integer build gives the Fraction build's trees node by node:
    order, states, signals, actions, depths, alpha, beta and views, on
    random general games (small and large coprime denominators), symmetric
    games and the corpus games to horizon 4.  Both derive the view from the
    game: the public one for the symmetric games, the joint one for the
    random general ones."""
    cases = [random_game(seed) for seed in range(12)]
    cases += [coprime_game(seed) for seed in range(12)]
    cases += [random_symmetric_game(50 + seed) for seed in range(8)]
    cases += [games[name] for name in sorted(games)]
    for spec in cases:
        got = build_trees(spec, 4)
        want = fraction_build_trees(spec, 4)
        assert got.view == want.view
        assert _tree_rows(got) == _tree_rows(want)
    assert {build_trees(spec, 1).view for spec in cases[:24]} == {"joint"}
    assert {build_trees(spec, 1).view for spec in cases[24:32]} == {PUBLIC}


def test_build_trees_builds_no_fraction(games, monkeypatch):
    """Both trees carry integer masses over their level's scale: with
    ``Fraction`` refused inside ``histories``, the build still gives the
    trees an unpatched build gives, and alpha and beta are derived only
    when read."""
    from signalgames import histories

    def refuse(*args):
        raise AssertionError("build_trees built a Fraction")

    cases = [random_game(3), coprime_game(1), random_symmetric_game(51)]
    cases += [games[name] for name in sorted(games)]
    monkeypatch.setattr(histories, "Fraction", refuse)
    built = [build_trees(spec, 3) for spec in cases]
    monkeypatch.undo()
    for spec, got in zip(cases, built):
        assert _tree_rows(got) == _tree_rows(build_trees(spec, 3))
        for n in range(1, 4):
            for v in got.observations(n):
                assert v.mass == sum(h.mass for h in v.members)
                assert {v.scale} == {h.scale for h in v.members}


def test_build_trees_reads_no_reward(games):
    """The trees need chance only: on a fresh general spec ``build_trees``
    leaves the cached ``absorbing_states`` uncomputed, and a later read of
    the integer form's absorbing table still finds the corpus game's
    absorbing states."""
    spec = random_game(3)
    build_trees(spec, 3)
    assert "absorbing_states" not in vars(spec)
    spec = as_general(games["bigmatch_nosignals"])
    build_trees(spec, 3)
    assert "absorbing_states" not in vars(spec)
    assert set(spec.integer_form().absorbing) == spec.absorbing_states != set()


def test_coprime_game_masses_need_the_level_scale():
    # the integer masses carry the full product of transition numerators:
    # with denominators of two large primes, alpha rarely reduces
    pair = build_trees(coprime_game(0), 3)
    assert any(h.alpha.denominator > 10 ** 30 for h in pair.histories(3))
    for n in range(1, 4):
        (scale,) = {h.scale for h in pair.histories(n)}
        assert all(h.alpha == F(h.mass, scale) for h in pair.histories(n))


def test_build_trees_budget_overrun_matches_fraction_oracle():
    """Both builds charge the budget node by node in the same order, so
    an overrun raises at the same level, or neither overruns."""
    def outcome(build, spec, budget):
        try:
            build(spec, 5, budget=budget)
        except BudgetExceededError as err:
            return err.budget, err.level_reached
        return "fits"

    for seed in range(10):
        for spec in (random_game(seed), coprime_game(seed)):
            for budget in (1, 3, 10, 40, 150, 700):
                assert (outcome(build_trees, spec, budget)
                        == outcome(fraction_build_trees, spec, budget)), \
                    (seed, budget)


def test_dropped_tree_pair_is_freed_without_the_cycle_collector():
    # no node refers back to a node that refers to it, and the play walk
    # a checked pair keeps refers only to its nodes and the strategies, so
    # reference counting alone frees a dropped tree
    spec = corpus.build_game("noisy_public_2state")
    sigma, tau = uniform_strategy(spec, 1), uniform_strategy(spec, 2)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for checked in (False, True):
            pair = build_trees(spec, 3)
            if checked:
                assert conditional_check(pair, sigma, tau, 2, 3).all_exact
            leaf = weakref.ref(pair.histories(3)[-1])
            root = weakref.ref(pair.observations(1)[0])
            del pair
            assert leaf() is None and root() is None, checked
    finally:
        if was_enabled:
            gc.enable()


def test_budget_exceeded_reports_level():
    spec = random_game(0)
    with pytest.raises(BudgetExceededError) as err:
        build_trees(spec, 12, budget=40)
    assert err.value.level_reached <= 12


def test_phi_uninformative_signals_stay_half():
    # uniform prior over 2 states, state-independent transitions and signals:
    # no information ever arrives, the kernel stays at the prior
    from signalgames.model import SymmetricGameSpec
    sym2 = SymmetricGameSpec(
        states=["xa", "xb"], actions1=["T"], actions2=["L"],
        signals=["s0", "u", "w"],
        initial={("xa", "s0"): F(1, 2), ("xb", "s0"): F(1, 2)},
        transition={
            ("xa", "T", "L"): {("xa", "u"): F(1, 3), ("xa", "w"): F(2, 3)},
            ("xb", "T", "L"): {("xb", "u"): F(1, 3), ("xb", "w"): F(2, 3)},
        },
        reward={("xa", "T", "L"): F(0), ("xb", "T", "L"): F(1)},
    )
    pair = build_trees(sym2, 3)
    (root,) = pair.observations(1)
    h_a = next(h for h in pair.histories(1) if h.state == "xa")
    for m in (1, 2, 3):
        for v in pair.observations(m):
            assert phi_row(pair, 1, v)[h_a] == F(1, 2)


def test_phi_likelihood_posterior_bruteforce():
    """Signal u has likelihood 1/3 under xa, 2/3 under xb: the level-1
    conditional after u must be 1/3, computed independently here by direct
    enumeration of level-2 histories."""
    sym = corpus.build_game("noisy_public_2state")
    pair = build_trees(sym, 2)
    h_a = next(h for h in pair.histories(1) if h.state == "xa")
    # independent brute force: alpha sums over explicit paths
    num = F(1, 2) * F(1, 3)     # xa then u
    den = num + F(1, 2) * F(2, 3)
    expected = num / den
    assert expected == F(1, 3)
    for v in pair.observations(2):
        if v.label == "u":
            assert phi_row(pair, 1, v)[h_a] == F(1, 3)
        elif v.label == "w":
            assert phi_row(pair, 1, v)[h_a] == F(2, 3) / (F(2, 3) + F(1, 3))


def test_phi_fully_revealing_is_indicator():
    # public signal names the arrival state: kernel degenerates to 0/1
    from signalgames.model import SymmetricGameSpec
    sym = SymmetricGameSpec(
        states=["xa", "xb"], actions1=["T"], actions2=["L"],
        signals=["sa", "sb"],
        initial={("xa", "sa"): F(1, 2), ("xb", "sb"): F(1, 2)},
        transition={
            ("xa", "T", "L"): {("xa", "sa"): F(1, 2), ("xb", "sb"): F(1, 2)},
            ("xb", "T", "L"): {("xb", "sb"): F(1)},
        },
        reward={("xa", "T", "L"): F(0), ("xb", "T", "L"): F(1)},
    )
    pair = build_trees(sym, 3)
    for m in (1, 2, 3):
        for v in pair.observations(m):
            assert v.beta > 0
            for n in range(1, m + 1):
                row = phi_row(pair, n, v)
                assert sum(row.values(), ZERO) == 1
                assert all(val == 1 for val in row.values())
                assert len(row) == 1


def test_play_distribution_pure_dirac(games):
    spec = games["bigmatch_nosignals"]
    dist = exact_play_distribution(build_trees(spec, 4),
                                   constant_strategy(spec, 1, "B"),
                                   constant_strategy(spec, 2, "R"), 4)
    assert sum(dist.probs.values(), ZERO) == 1
    supported = [h for h, p in dist.probs.items() if p > 0]
    assert len(supported) == 1  # deterministic transitions, pure strategies
    states, actions = supported[0].stage_path()
    assert states == ["s", "s", "s", "s"] and set(actions) == {("B", "R")}


def test_play_distribution_normalizes_random():
    for seed in range(12):
        spec = random_game(seed)
        sigma = random_strategy(seed * 31 + 1, spec, 1, 3)
        tau = random_strategy(seed * 31 + 2, spec, 2, 3)
        dist = exact_play_distribution(build_trees(spec, 3), sigma, tau, 3)
        assert sum(dist.probs.values(), ZERO) == 1
        # support inside positive-alpha histories by construction
        assert all(h.alpha > 0 for h in dist.probs)


def test_play_distribution_example3_stage1_absorption(games):
    spec = games["example3_bigmatch_blind1"]
    dist = exact_play_distribution(build_trees(spec, 2),
                                   uniform_strategy(spec, 1),
                                   uniform_strategy(spec, 2), 2)
    absorbed = sum((p for h, p in dist.probs.items()
                    if h.state in spec.absorbing_states), ZERO)
    assert absorbed == F(1, 2)


def test_incomplete_strategy_error_names_view(games):
    spec = games["bigmatch_nosignals"]
    from signalgames.model import BehavioralStrategy
    broken = BehavioralStrategy(player=1, horizon=5, table={("n1",): {"T": F(1)}},
                                tail=None)
    with pytest.raises(IncompleteStrategyError) as err:
        exact_play_distribution(build_trees(spec, 3), broken,
                                uniform_strategy(spec, 2), 3)
    assert err.value.view == ("n1", "T", "n1")


def test_conditional_check_corpus_games(games):
    for name in ("example1_guessing", "example3_bigmatch_blind1"):
        spec = games[name]
        sigma = uniform_strategy(spec, 1)
        tau = uniform_strategy(spec, 2)
        pair = build_trees(spec, 3)
        for n, m in ((1, 1), (1, 3), (2, 3), (3, 3)):
            report = conditional_check(pair, sigma, tau, n, m)
            assert report.all_exact, (name, n, m)


def test_conditional_check_random_games_exact():
    """Strategy independence of the kernel: random games, random exact
    strategies, all depth pairs up to 4."""
    rng = random.Random(2024)
    for seed in range(20):
        spec = random_game(seed)
        sigma = random_strategy(rng, spec, 1, 4)
        tau = random_strategy(rng, spec, 2, 4)
        pair = build_trees(spec, 4)
        for m in range(1, 5):
            for n in range(1, m + 1):
                report = conditional_check(pair, sigma, tau, n, m)
                assert report.all_exact, (seed, n, m)
                assert report.max_discrepancy == 0


def test_conditional_check_matches_dense_oracle():
    """The support walk gives the dense every-pair check's report, field by
    field, pair count and discrepancy included."""
    rng = random.Random(77)
    for seed in range(8):
        spec = random_game(100 + seed)
        sigma = random_strategy(rng, spec, 1, 4)
        tau = random_strategy(rng, spec, 2, 4)
        pair = build_trees(spec, 4)
        for m in range(1, 5):
            for n in range(1, m + 1):
                got = conditional_check(pair, sigma, tau, n, m)
                want = dense_conditional_check(pair, sigma, tau, n, m)
                assert got == want, (seed, n, m)


def test_conditional_check_matches_oracle_coprime_strategies():
    """Strategies whose denominators are large and rarely share factors,
    with a tail past stage 2: the integer play walk gives the Fraction
    walk's distribution, key order included, and the integer check the
    dense oracle's report."""
    rng = random.Random(4099)
    for seed in range(5):
        spec = random_game(200 + seed)
        sigma = coprime_strategy(rng, spec, 1, 2)
        tau = coprime_strategy(rng, spec, 2, 2)
        pair = build_trees(spec, 4)
        for m in range(1, 5):
            got = exact_play_distribution(pair, sigma, tau, m).probs
            want = fraction_play_distribution(pair, sigma, tau, m)
            assert list(got.items()) == list(want.items()), (seed, m)
            for n in range(1, m + 1):
                assert (conditional_check(pair, sigma, tau, n, m)
                        == dense_conditional_check(pair, sigma, tau, n, m)), \
                    (seed, n, m)


def test_conditional_check_corrupted_beta_matches_oracle():
    """One level-3 observation's mass, and so its beta, scaled by 7:
    normalization, Bayes and the sum identity all fail at m = 3, with the
    oracle's exact discrepancy; levels 1 and 2 stay exact."""
    spec = random_game(7)
    rng = random.Random(7)
    sigma = random_strategy(rng, spec, 1, 3)
    tau = random_strategy(rng, spec, 2, 3)
    pair = build_trees(spec, 3)
    pair.observations(3)[0].mass *= 7
    for m in range(1, 4):
        for n in range(1, m + 1):
            report = conditional_check(pair, sigma, tau, n, m)
            assert report == dense_conditional_check(pair, sigma, tau, n, m)
            if m < 3:
                assert report.all_exact, (n, m)
            else:
                assert not (report.normalization_ok or report.bayes_ok
                            or report.sum_identity_ok), n
                assert report.max_discrepancy == F(6, 7), n


def test_kept_walk_serves_alternating_strategy_pairs():
    """One tree pair given two strategy pairs in turn, A, B, A, at every
    1 <= n <= m <= 3: each report is the dense oracle's and each play
    distribution the Fraction walk's, so a replaced walk never leaks into
    the other pair's results."""
    rng = random.Random(3001)
    for seed in range(4):
        spec = random_game(300 + seed)
        a = (random_strategy(rng, spec, 1, 3), random_strategy(rng, spec, 2, 3))
        b = (coprime_strategy(rng, spec, 1, 2), coprime_strategy(rng, spec, 2, 2))
        pair = build_trees(spec, 3)
        for m in range(1, 4):
            for n in range(1, m + 1):
                for sigma, tau in (a, b, a):
                    assert (conditional_check(pair, sigma, tau, n, m)
                            == dense_conditional_check(pair, sigma, tau, n, m)), \
                        (seed, n, m)
                    got = exact_play_distribution(pair, sigma, tau, m).probs
                    want = fraction_play_distribution(pair, sigma, tau, m)
                    assert list(got.items()) == list(want.items()), (seed, n, m)


def test_kept_walk_repeats_an_incomplete_strategy_error(games):
    """A strategy missing a level-2 view fails the level-3 walk with the
    same error on every call, also after a complete pair was walked on the
    same tree; the levels it completed still check as the oracle does."""
    spec = games["bigmatch_nosignals"]
    broken = BehavioralStrategy(player=1, horizon=5,
                                table={("n1",): {"T": F(1)}}, tail=None)
    tau = uniform_strategy(spec, 2)
    sigma = uniform_strategy(spec, 1)
    pair = build_trees(spec, 3)

    def fails():
        with pytest.raises(IncompleteStrategyError) as err:
            conditional_check(pair, broken, tau, 1, 3)
        return err.value.player, err.value.view

    first = fails()
    assert first == (1, ("n1", "T", "n1"))
    assert fails() == first
    assert (conditional_check(pair, broken, tau, 2, 2)
            == dense_conditional_check(pair, broken, tau, 2, 2))
    assert fails() == first
    assert conditional_check(pair, sigma, tau, 1, 3).all_exact
    assert fails() == first
    with pytest.raises(IncompleteStrategyError) as err:
        exact_play_distribution(pair, broken, tau, 3)
    assert err.value.view == first[1]


def test_kept_walk_reads_masses_afresh():
    """A pair checked at every (n, m), then given a level-3 observation
    mass scaled by 7 and a member mass of another scaled by 3, reports what
    the dense oracle reports on the corrupted tree: the pair keeps no
    mass."""
    spec = random_game(7)
    rng = random.Random(7)
    sigma = random_strategy(rng, spec, 1, 3)
    tau = random_strategy(rng, spec, 2, 3)
    pair = build_trees(spec, 3)
    for m in range(1, 4):
        for n in range(1, m + 1):
            assert conditional_check(pair, sigma, tau, n, m).all_exact
    pair.observations(3)[0].mass *= 7
    pair.observations(3)[1].members[0].mass *= 3
    for m in range(1, 4):
        for n in range(1, m + 1):
            report = conditional_check(pair, sigma, tau, n, m)
            assert report == dense_conditional_check(pair, sigma, tau, n, m)
            assert report.all_exact == (m < 3), (n, m)


def _one_member_observations(pair, m, probs, played):
    """The level-m observations with exactly one member, in tree order,
    whose member is in the play distribution ``probs`` if ``played``,
    else not."""
    return [v for v in pair.observations(m)
            if len(v.members) == 1 and (v.members[0] in probs) == played]


@pytest.mark.parametrize("corruption", [
    "one-member-observation-mass",
    "one-member-member-mass",
    "unplayed-one-member-observation-mass",
])
def test_one_member_observations_match_dense_oracle(corruption):
    """A one-member observation whose member carries the observation's
    whole mass satisfies every identity; the check takes a shortcut there.
    Where the two masses differ the observation is checked in full: one
    level-3 observation's mass x7, one member's mass x3, or the mass x5 of
    an observation that a pure sigma never plays each give the dense
    oracle's report at every (n, m), failing only at m = 3, and the
    unplayed one only normalization."""
    spec = random_game(12)
    rng = random.Random(12)
    tau = random_strategy(rng, spec, 2, 3)
    sigma = random_strategy(rng, spec, 1, 3)
    if corruption.startswith("unplayed"):
        sigma = constant_strategy(spec, 1, spec.actions1[0])
    pair = build_trees(spec, 3)
    assert pair.view == JOINT
    for m in (2, 3):
        sizes = [len(v.members) for v in pair.observations(m)]
        assert 1 in sizes and max(sizes) > 1, m
    probs = exact_play_distribution(pair, sigma, tau, 3).probs
    if corruption == "one-member-observation-mass":
        _one_member_observations(pair, 3, probs, True)[0].mass *= 7
        flags = (False, False, False)
    elif corruption == "one-member-member-mass":
        _one_member_observations(pair, 3, probs, True)[1].members[0].mass *= 3
        flags = (False, False, False)
    else:
        _one_member_observations(pair, 3, probs, False)[0].mass *= 5
        flags = (False, True, True)
    for m in range(1, 4):
        for n in range(1, m + 1):
            report = conditional_check(pair, sigma, tau, n, m)
            assert report == dense_conditional_check(pair, sigma, tau, n, m), (n, m)
            if m < 3:
                assert report.all_exact, (n, m)
            else:
                assert (report.normalization_ok, report.bayes_ok,
                        report.sum_identity_ok) == flags, n


def test_conditional_check_reports_pinned():
    """Every report at 1 <= n <= m <= 3 on 12 general and 4 symmetric
    random games under seeded strategies, each field in declared order
    through ``format_rational``, one line per report: the SHA-256 of the
    lines is the one the full per-observation check gave."""
    digest = hashlib.sha256()
    games = ([random_game(seed) for seed in range(12)]
             + [random_symmetric_game(seed) for seed in range(4)])
    for k, game in enumerate(games):
        spec = as_general(game)
        rng = random.Random(k)
        sigma = random_strategy(rng, spec, 1, 3)
        tau = random_strategy(rng, spec, 2, 3)
        pair = build_trees(game, 3)
        for m in range(1, 4):
            for n in range(1, m + 1):
                report = conditional_check(pair, sigma, tau, n, m)
                digest.update(" ".join(format_rational(getattr(report, f.name))
                                       for f in fields(report)).encode() + b"\n")
    assert digest.hexdigest() == (
        "27212445f91d406385ff6b27de11c2c94967021cb461f77c46c31fb05f2e7899")


def _count_action_dists(strategy, calls: list) -> None:
    """Record every ``action_dist`` call of ``strategy`` in ``calls``."""
    ask = strategy.action_dist

    def action_dist(view):
        calls.append((strategy.player, view))
        return ask(view)

    strategy.action_dist = action_dist


def test_checks_at_every_depth_pair_walk_once():
    """Checking every 1 <= n <= m <= 3 asks the strategies exactly what one
    level-3 play distribution asks, and a play distribution after the
    checks asks nothing more."""
    spec = random_game(42)
    rng = random.Random(42)
    sigma = random_strategy(rng, spec, 1, 3)
    tau = random_strategy(rng, spec, 2, 3)
    calls: list = []
    _count_action_dists(sigma, calls)
    _count_action_dists(tau, calls)

    exact_play_distribution(build_trees(spec, 3), sigma, tau, 3)
    once = list(calls)
    assert once
    calls.clear()
    pair = build_trees(spec, 3)
    for m in range(1, 4):
        for n in range(1, m + 1):
            assert conditional_check(pair, sigma, tau, n, m).all_exact
    assert calls == once
    exact_play_distribution(pair, sigma, tau, 3)
    assert calls == once


def _parent_links_compatible(pair) -> bool:
    """Every level-(n+1) history's parent is a level-n history of the
    same tree, held by the parent of the observation that holds it: the
    structure on which one-step compatibility of the kernel rests."""
    for n in range(1, pair.horizon):
        level = set(pair.histories(n))
        holder = {h: v for v in pair.observations(n) for h in v.members}
        for v in pair.observations(n + 1):
            for h in v.members:
                if h.parent not in level or holder.get(h.parent) is not v.parent:
                    return False
    return True


def test_build_trees_parent_links_are_compatible(games):
    """Compatibility is checked on the structure, where a tree can fail
    it: on corpus and random trees it holds, and rewiring one parent link
    to another observation's history breaks it."""
    for spec in games.values():
        assert _parent_links_compatible(build_trees(spec, 3))
    for seed in range(12):
        assert _parent_links_compatible(build_trees(random_game(seed), 4))
        assert _parent_links_compatible(
            build_trees(random_symmetric_game(seed), 4))
    pair = build_trees(random_game(11), 3)
    deep = next(h for h in pair.histories(3)
                if any(o is not h.parent for o in pair.histories(2)))
    deep.parent = next(o for o in pair.histories(2) if o is not deep.parent)
    assert not _parent_links_compatible(pair)


def test_conditional_check_violation_matches_dense_oracle():
    """A public label that merges all of player 1's signals hides what the
    strategies depend on: the identities fail, and the support walk reports
    the same failures and discrepancy as the dense check.  The label map
    makes ``build_trees`` take the public view."""
    spec = random_game(0)
    spec = replace(spec, public_label={c: "merged" for c in spec.signals1})
    rng = random.Random(0)
    sigma = random_strategy(rng, spec, 1, 3)
    tau = random_strategy(rng, spec, 2, 3)
    pair = build_trees(spec, 3)
    assert pair.view == PUBLIC
    discrepancies = {}
    for m in range(1, 4):
        for n in range(1, m + 1):
            report = conditional_check(pair, sigma, tau, n, m)
            want = dense_conditional_check(pair, sigma, tau, n, m)
            assert report == want, (n, m)
            discrepancies[(n, m)] = report.max_discrepancy
            if report.max_discrepancy > 0:
                assert not report.bayes_ok and not report.sum_identity_ok
                assert not report.all_exact
    assert discrepancies[(1, 2)] == F(2, 55)
    assert discrepancies[(2, 3)] == F(177, 1015)


def test_out_of_range_levels_raise_model_error():
    spec = random_game(3)
    pair = build_trees(spec, 2)
    h = pair.histories(2)[0]
    for level in (0, -1, 3):
        with pytest.raises(GameModelError):
            ancestor(h, level)
    with pytest.raises(GameModelError):
        phi_row(pair, 0, pair.observations(2)[0])
    with pytest.raises(GameModelError):
        conditional_check(pair, uniform_strategy(spec, 1),
                          uniform_strategy(spec, 2), 1, 3)


def test_simulate_deterministic_and_bigmatch(games):
    spec = games["bigmatch_nosignals"]
    res = simulate(spec, constant_strategy(spec, 1, "B"),
                   constant_strategy(spec, 2, "R"), horizon=20, seed=7,
                   replicas=50)
    assert all(r.mean_payoff == 1.0 for r in res.results)
    res2 = simulate(spec, constant_strategy(spec, 1, "B"),
                    constant_strategy(spec, 2, "R"), horizon=20, seed=7,
                    replicas=50)
    assert res.mean_of_means == res2.mean_of_means
    assert [r.mean_payoff for r in res.results] == [r.mean_payoff for r in res2.results]


def test_simulate_example3_matches_exact(games):
    spec = games["example3_bigmatch_blind1"]
    res = simulate(spec, uniform_strategy(spec, 1), uniform_strategy(spec, 2),
                   horizon=3, seed=123, replicas=4000)
    # exact stage-1 absorption probability is 1/2; 3 standard errors of a
    # Bernoulli(1/2) over 4000 replicas
    se = (0.25 / 4000) ** 0.5
    assert abs(res.stage1_absorbed_fraction - 0.5) <= 3 * se


def test_simulate_public_view_strategy():
    # A public-view strategy defined on exactly the public views of
    # noisy_public_2state (no tail) plays like a tail-only strategy with the
    # same distribution: the same draws, so the same replicas.
    spec = corpus.build_game("noisy_public_2state")
    dist = {"T": F(1, 3), "B": F(2, 3)}
    pair = build_trees(spec, 4)
    public = BehavioralStrategy(
        player=1, horizon=4, view_kind="public",
        table={o.view(): dist for n in range(1, 5) for o in pair.observations(n)})
    tail_only = BehavioralStrategy(player=1, horizon=0, table={}, tail=dist)
    tau = uniform_strategy(spec, 2)
    runs = [simulate(spec, sigma, tau, horizon=4, seed=3, replicas=40)
            for sigma in (public, tail_only)]
    assert runs[0].results == runs[1].results


@pytest.mark.parametrize("entry", [
    lambda g, sigma, tau: simulate(g, sigma, tau, 2, seed=0, replicas=2),
    lambda g, sigma, tau: exact_play_distribution(build_trees(g, 2), sigma,
                                                  tau, 2),
    lambda g, sigma, tau: conditional_check(build_trees(g, 2), sigma, tau,
                                            1, 2),
], ids=["simulate", "exact_play_distribution", "conditional_check"])
def test_strategies_of_the_wrong_player_are_refused(entry):
    """``sigma`` must be player 1's strategy and ``tau`` player 2's: a
    strategy in the wrong slot is a GameModelError naming the player, where
    ``simulate`` used to end in a KeyError on a stage key and
    ``conditional_check`` reported every identity exact."""
    game = corpus.build_game("bigmatch_nosignals")
    sigma, tau = uniform_strategy(game, 1), uniform_strategy(game, 2)
    with pytest.raises(GameModelError, match="must be player 1's, got player 2's"):
        entry(game, tau, tau)
    with pytest.raises(GameModelError, match="must be player 2's, got player 1's"):
        entry(game, sigma, sigma)


@pytest.mark.parametrize("build, fits, overrun", [
    # 146 history nodes to level 3
    (lambda b: build_trees(corpus.build_game("noisy_public_2state"), 3, budget=b),
     146, (145, 3)),
    # 9 beliefs in the merged, pruned DAG to level 5
    (lambda b: build_auxiliary(corpus.build_game("mdp_final_remark"), 5, budget=b),
     9, (8, 5)),
    # 7 live and 6 closed nodes: closed nodes count, but only live ones
    # check, so 12 fits and the first overrun is at budget 8
    (lambda b: build_sequence_form(corpus.build_game("bigmatch_nosignals"), 3, budget=b),
     12, (8, 3)),
    # 13 responder frames, none merged; charged level by level, the 13th
    # frame sits at level 3
    (lambda b: best_response_value(
        corpus.build_game("bigmatch_nosignals"),
        uniform_strategy(corpus.build_game("bigmatch_nosignals"), 2), 3, responder=1,
        budget=b),
     13, (12, 3)),
    # the cap check on mdp_final_remark at horizon 64: 4096 histories, but
    # only 252 merged frames (at most 4 distinct state/view keys per level)
    (lambda b: best_response_value(
        corpus.build_game("mdp_final_remark"),
        uniform_strategy(corpus.build_game("mdp_final_remark"), 2), 64, responder=1,
        budget=b),
     252, (251, 64)),
], ids=["build_trees", "build_auxiliary", "build_sequence_form",
        "best_response_value", "best_response_value_merged"])
def test_budget_overrun_pinned(build, fits, overrun):
    build(fits)
    with pytest.raises(BudgetExceededError) as err:
        build(overrun[0])
    assert (err.value.budget, err.value.level_reached) == overrun


@pytest.mark.parametrize("bad", ["10", True, 2.5, -1])
@pytest.mark.parametrize("entry", [
    lambda g, b: build_trees(g, 3, budget=b),
    lambda g, b: build_auxiliary(g, 3, budget=b),
    lambda g, b: build_sequence_form(g, 3, budget=b),
    lambda g, b: best_response_value(g, uniform_strategy(g, 1), 3, budget=b),
], ids=["build_trees", "build_auxiliary", "build_sequence_form",
        "best_response_value"])
def test_budget_must_be_an_integer_at_least_zero(entry, bad):
    """A budget that is a string, a bool, a float or negative is a
    GameModelError before any work: "10" used to end in a TypeError, and
    True, 2.5 or -1 in an overrun reporting that limit."""
    with pytest.raises(GameModelError, match="budget must be an integer >= 0"):
        entry(corpus.build_game("quitting_game"), bad)


def _blind_two_root_quitting_game():
    """``quitting_game`` with blind players and two equally likely initial
    signals: no view, so the sequence-form route, and two level-1
    histories, so a budget of 1 fits no horizon."""
    g = as_general(corpus.build_game("quitting_game"))
    game = GameSpec(
        states=g.states, actions1=g.actions1, actions2=g.actions2,
        signals1=["o", "p"], signals2=["o", "p"],
        initial={("go", "o", "o"): F(1, 2), ("go", "p", "p"): F(1, 2)},
        transition={key: {(x2, "o", "o"): p for (x2, _, _), p in dist.items()}
                    for key, dist in g.transition.items()},
        reward=g.reward)
    game.require_valid()
    return game


@pytest.mark.parametrize("entry, overrun", [
    (lambda b: sup_value_lowerbounds(corpus.build_game("noisy_public_2state"), 3,
                                     budget=b), (1, 1)),
    (lambda b: uniform_value(_blind_two_root_quitting_game(), n_max=6,
                             budget=b), (1, 1)),
    (lambda b: extract_eps_optimal(
        _blind_two_root_quitting_game(),
        uniform_value(_blind_two_root_quitting_game(), n_max=6), F(1, 100),
        budget=b), (1, 2)),
    (lambda b: extract_eps_optimal(
        corpus.build_game("quitting_game"), uniform_value(corpus.build_game("quitting_game"), n_max=8),
        F(1, 100), budget=b), (0, 1)),
], ids=["sup_value_lowerbounds", "uniform_value_sequence_form",
        "extract_eps_optimal_sequence_form", "extract_eps_optimal_reduction"])
def test_nothing_fits_reports_the_real_limit(entry, overrun):
    """A sweep none of whose horizons fits re-raises its first overrun, so
    the error names the limit it was given and the level it reached, where
    it used to name budget 0 at level 1.  The sequence-form extraction
    first tries the horizon that meets eps, whose depth-first walk passes
    budget 1 at level 2."""
    budget, level = overrun
    with pytest.raises(BudgetExceededError) as err:
        entry(budget)
    assert (err.value.budget, err.value.level_reached) == overrun
    assert str(err.value) == (f"node budget {budget} exceeded while "
                              f"expanding level {level}")


def _uniform_pair(game):
    return uniform_strategy(game, 1), uniform_strategy(game, 2)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, 0, -1])
@pytest.mark.parametrize("entry", [
    lambda g, n: build_trees(g, n),
    lambda g, n: build_auxiliary(g, n),
    lambda g, n: solve_horizons(build_auxiliary(g, 3), [n]),
    lambda g, n: build_sequence_form(g, n),
    lambda g, n: nstage_value(g, n),
    lambda g, n: sup_lower_bound(g, n),
    lambda g, n: best_response_value(g, uniform_strategy(g, 1), n),
    lambda g, n: exact_play_distribution(build_trees(g, 3), *_uniform_pair(g), n),
    lambda g, n: conditional_check(build_trees(g, 3), *_uniform_pair(g), n, 3),
    lambda g, n: conditional_check(build_trees(g, 3), *_uniform_pair(g), 1, n),
    lambda g, n: simulate(g, *_uniform_pair(g), n, seed=0, replicas=2),
    lambda g, n: simulate(g, *_uniform_pair(g), 2, seed=0, replicas=n),
], ids=["build_trees", "build_auxiliary", "solve_horizons",
        "build_sequence_form", "nstage_value", "sup_lower_bound",
        "best_response_value", "exact_play_distribution",
        "conditional_check_n", "conditional_check_m", "simulate",
        "simulate_replicas"])
def test_horizons_must_be_integers_at_least_one(entry, bad):
    """A horizon (or a replica count) that is a float, a bool or below 1 is
    refused with a GameModelError before any work: a float used to reach
    the LP and give a value with a float's denominator, and True or 0 a
    value of 0; ``simulate`` ended in a ZeroDivisionError or a TypeError,
    or gave a summary of -1 replicas."""
    with pytest.raises(GameModelError, match="must be"):
        entry(corpus.build_game("quitting_game"), bad)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, 0, -1])
@pytest.mark.parametrize("name, entry", [
    ("max_horizon", lambda g, n: sup_value_lowerbounds(g, n)),
    ("n_max", lambda g, n: uniform_value(g, n_max=n)),
    ("window", lambda g, n: uniform_value(g, n_max=8, window=n)),
], ids=["sup_value_lowerbounds", "uniform_value_n_max", "uniform_value_window"])
def test_sweep_counts_must_be_integers_at_least_one(name, entry, bad):
    """A sweep's horizon count or window that is a float, a bool or below 1
    is refused with a PreconditionError naming the argument: a float used
    to end in a TypeError from ``range`` or a list index, and True was
    taken as 1."""
    with pytest.raises(PreconditionError, match=f"^{name} must be"):
        entry(corpus.build_game("quitting_game"), bad)
