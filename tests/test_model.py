from decimal import Decimal
from fractions import Fraction as F

import pytest

from oracles import ancestor
from randgen import constant_strategy, random_game, random_symmetric_game
from signalgames import corpus, reduction
from signalgames.errors import GameModelError, UnsupportedStructureError
from signalgames.histories import build_trees, exact_play_distribution
from signalgames.model import (
    JOINT,
    PLAYER1,
    PLAYER2,
    PUBLIC,
    BehavioralStrategy,
    GameSpec,
    check_distribution,
    is_symmetric_signaling,
    projection,
    public_labels,
    uniform_strategy,
)
from signalgames.rationals import decimal_repr, format_rational, parse_rational


def test_parse_rational_exact():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("-7/14") == F(-1, 2)
    assert parse_rational("4") == F(4)
    assert format_rational(F(2, 4)) == "1/2"
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_rationals_past_the_int_str_limit_round_trip():
    # v_10 of this game has 5174-digit terms, past CPython's default
    # 4300-digit int/str limit; v_9 (3779 characters) is below it.
    values = reduction.solve_horizons(
        reduction.build_auxiliary(random_symmetric_game(17), 10), [9, 10])
    v9, v10 = values[9], values[10]
    assert format_rational(v9) == f"{v9.numerator}/{v9.denominator}"
    text = format_rational(v10)
    # the decimal module converts without the int/str limit
    assert text == f"{Decimal(v10.numerator)}/{Decimal(v10.denominator)}"
    assert len(text) > 10000
    assert parse_rational(text) == v10
    assert parse_rational(format_rational(-v10)) == -v10
    num, den = text.split("/")
    assert format_rational(v10.numerator) == num
    assert parse_rational(f" 007/ {den}") == F(7, v10.denominator)


def test_decimal_repr_past_float_range():
    # within float range the text is float's, whatever the size of the
    # numerator and denominator; past it, decimal gives the same style
    assert decimal_repr(F(2, 3)) == "0.666667"
    assert decimal_repr(F(10 ** 5000 + 1, 10 ** 5000)) == "1"
    assert decimal_repr(F(3, 2) * 10 ** 300) == f"{1.5e300:.6g}" == "1.5e+300"
    assert decimal_repr(F(3, 2) * 10 ** 400) == "1.5e+400"
    assert decimal_repr(F(-7, 3) * 10 ** 5000) == "-2.33333e+5000"
    assert decimal_repr(10 ** 400) == "1e+400"
    assert decimal_repr(F(1, 10 ** 400)) == "0"


def test_corpus_games_validate(games):
    for name, spec in games.items():
        assert spec.validate() == [], name


def test_validate_reports_bad_mass_and_missing_entry():
    spec = corpus.example1_guessing()
    spec.initial = {("s2", "n1", "n2"): F(9, 10)}
    problems = spec.validate()
    assert any("9/10" in p and "initial" in p for p in problems)

    spec2 = corpus.example1_guessing()
    del spec2.transition[("s1", "T", "R")]
    problems2 = spec2.validate()
    assert any("missing entry ('s1', 'T', 'R')" in p for p in problems2)


def test_symmetric_validate_reports_spurious_transition_entries():
    """A transition key outside states x actions1 x actions2, which
    ``expand`` would drop, is reported as ``GameSpec.validate`` reports
    it."""
    spec = corpus.quitting_game()
    assert spec.validate() == []
    some = next(iter(spec.transition.values()))
    spec.transition[("nowhere", "Q", "J")] = dict(some)
    x = spec.states[0]
    spec.transition[(x, spec.actions1[0], "no_action")] = dict(some)
    assert spec.validate() == [
        "transition: spurious entry ('nowhere', 'Q', 'J')",
        f"transition: spurious entry ({x!r}, {spec.actions1[0]!r}, 'no_action')"]


def test_absorbing_detection_matches_bruteforce(games):
    for name, spec in games.items():
        if hasattr(spec, "expand"):
            spec = spec.expand()
        expected = set()
        for x in spec.states:
            stays = all(
                sum((p for (x2, _, _), p in spec.transition[(x, i, j)].items()
                     if x2 == x), F(0)) == 1
                for i in spec.actions1 for j in spec.actions2)
            same_pay = len({spec.reward[(x, i, j)] for i in spec.actions1
                            for j in spec.actions2}) == 1
            if stays and same_pay:
                expected.add(x)
        assert set(spec.absorbing_states) == expected, name
        # idempotent (cached) and stable
        assert spec.absorbing_states == spec.absorbing_states


def test_absorbing_payoffs_example1():
    spec = corpus.example1_guessing()
    assert spec.absorbing_states == frozenset({"1*", "-1*", "2*", "-2*", "0*"})
    assert spec.absorbing_payoff("-2*") == F(-2)


def test_symmetric_detection_roundtrip_corpus(games):
    for name in corpus.SYMMETRIC_GAMES:
        sym = games[name]
        witness = is_symmetric_signaling(sym.expand())
        assert witness, name
        red = witness.reduced
        assert red.states == sym.states
        assert red.actions1 == sym.actions1 and red.actions2 == sym.actions2
        # recovery may merge initial-only signals; never invents new ones
        assert len(red.signals) <= len(sym.signals)
        assert red.validate() == []
        # the recovered game expands to a symmetric spec again
        assert is_symmetric_signaling(red.expand()), name


def test_symmetric_detection_roundtrip_random():
    for seed in range(25):
        sym = random_symmetric_game(seed)
        witness = is_symmetric_signaling(sym.expand())
        assert witness, seed
        # weights survive the round trip: compare transition mass by index
        red = witness.reduced
        for x in sym.states:
            for i in sym.actions1:
                for j in sym.actions2:
                    lhs = sorted(sym.transition[(x, i, j)].values())
                    rhs = sorted(red.transition[(x, i, j)].values())
                    assert lhs == rhs


def test_example2_not_symmetric(games):
    witness = is_symmetric_signaling(games["example2_informed"])
    assert not witness
    assert witness.reason


def test_fullmonitor_bigmatch_symmetric(games):
    assert is_symmetric_signaling(games["bigmatch_fullmonitor"].expand())


def test_asymmetric_pairing_detected():
    spec = corpus.bigmatch_nosignals()
    # same signal emitted under different action pairs -> not symmetric
    witness = is_symmetric_signaling(spec)
    assert not witness


def test_project_views():
    # one path: (x1, c1, d1) -(i1, j1)-> (x2, c2, d2)
    spec = GameSpec(
        states=["x1", "x2"], actions1=["i1"], actions2=["j1"],
        signals1=["c1", "c2"], signals2=["d1", "d2"],
        initial={("x1", "c1", "d1"): F(1)},
        transition={(x, "i1", "j1"): {("x2", "c2", "d2"): F(1)}
                    for x in ("x1", "x2")},
        reward={(x, "i1", "j1"): F(0) for x in ("x1", "x2")})
    (h,) = build_trees(spec, 2).histories(2)
    assert h.seen_through(*projection(PLAYER1)) == ("c1", "i1", "c2")
    assert h.seen_through(*projection(PLAYER2)) == ("d1", "j1", "d2")
    assert (h.seen_through(*projection(JOINT))
            == (("c1", "d1"), "i1", "j1", ("c2", "d2")))


def test_project_prefix_monotone():
    pair = build_trees(random_game(3), 3)
    for h in pair.histories(3):
        for who in (PLAYER1, PLAYER2, JOINT):
            full = h.seen_through(*projection(who))
            for n in (1, 2, 3):
                pref = ancestor(h, n).seen_through(*projection(who))
                assert full[: len(pref)] == pref


def test_project_public_requires_symmetric(games):
    # a public-view strategy has no views in a game without symmetric
    # signaling
    spec = games["example1_guessing"]
    uniform = uniform_strategy(spec, 1)
    public = BehavioralStrategy(player=1, horizon=0, table={},
                                tail=uniform.tail, view_kind="public")
    with pytest.raises(UnsupportedStructureError, match="symmetric signaling"):
        exact_play_distribution(build_trees(spec, 1), public,
                                uniform_strategy(spec, 2), 1)


def test_project_public_forgets_states(games):
    pair = build_trees(games["noisy_public_2state"], 2)
    assert pair.view == PUBLIC
    h1, h2 = [h for h in pair.histories(2)
              if h.via == ("T", "L") and h.sig1 == "T|L|u"]
    assert {h1.state, h2.state} == {"xa", "xb"}
    public = projection(PUBLIC, public_labels(pair.spec))
    assert h1.seen_through(*public) == h2.seen_through(*public)
    assert h1.seen_through(*public) == ("s0", "T", "L", "u")


def test_strategy_lookup_and_tail():
    spec = corpus.bigmatch_nosignals()
    sigma = BehavioralStrategy(
        player=1, horizon=1,
        table={("n1",): {"T": F(1, 3), "B": F(2, 3)}},
        tail="repeat-last",
    )
    assert sigma.action_dist(("n1",)) == {"T": F(1, 3), "B": F(2, 3)}
    # beyond horizon, repeat-last falls back to the longest stored prefix
    assert sigma.action_dist(("n1", "T", "n1")) == {"T": F(1, 3), "B": F(2, 3)}

    incomplete = BehavioralStrategy(player=1, horizon=3, table={}, tail=None)
    with pytest.raises(GameModelError):
        incomplete.action_dist(("n1",))

    u = uniform_strategy(spec, 2)
    assert u.action_dist(("n2", "L", "n2")) == {"L": F(1, 2), "R": F(1, 2)}
    c = constant_strategy(spec, 1, "B")
    assert c.action_dist(("n1",))["B"] == 1


def test_random_games_validate():
    for seed in range(30):
        assert random_game(seed).validate() == []


def test_check_distribution_messages():
    # the integer range and mass tests report what the Fraction ones did
    assert check_distribution({"a": F(1, 3), "b": F(2, 3)}, "w") == []
    assert check_distribution({}, "w") == ["w: mass 0 != 1"]
    assert check_distribution({"a": F(3, 2), "b": F(-1, 2)}, "w") == [
        "w: probability 3/2 of 'a' outside [0,1]",
        "w: probability -1/2 of 'b' outside [0,1]"]
    assert check_distribution({"a": F(1, 2), "b": 0.5, "c": F(1, 3)}, "w") == [
        "w: probability of 'b' is not a Fraction", "w: mass 5/6 != 1"]
    assert check_distribution({"a": F(1, 4), "b": F(1, 6), "c": 1}, "w") == [
        "w: probability of 'c' is not a Fraction", "w: mass 5/12 != 1"]
