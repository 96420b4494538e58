from fractions import Fraction as F

import pytest

from oracles import guessing_matrix_value
from randgen import random_game
from signalgames.errors import PreconditionError
from signalgames.recursive import uniform_value
from signalgames.supvalue import (
    augment_running_max,
    reachable_max_reward,
    sup_value_lowerbounds,
)


def test_augmentation_merges_by_reward_value(games):
    aug = augment_running_max(games["example3_bigmatch_blind1"])
    # rewards take two values (0 and 1): max-labels come from that set only
    labels = {m for (_, m) in aug.decode.values() if m is not None}
    assert labels <= {F(0), F(1)}
    assert aug.spec.validate() == []


def test_reachable_max_reward(games):
    spec = games["example1_guessing"]
    reach = reachable_max_reward(spec)
    assert reach["s2"] == 2      # can still reach the 2* payoff via s3
    assert reach["-2*"] == -2
    assert reach["s1"] == 0      # only s1 (0) and -2* (-2) lie ahead


def test_constant_reward_game_exact():
    from signalgames.model import SymmetricGameSpec
    c = F(3, 7)
    sym = SymmetricGameSpec(
        states=["x"], actions1=["a"], actions2=["b"], signals=["o"],
        initial={("x", "o"): F(1)},
        transition={("x", "a", "b"): {("x", "o"): F(1)}},
        reward={("x", "a", "b"): c},
    )
    report = sup_value_lowerbounds(sym, 4)
    assert [v for _, v in report.values] == [c] * 4
    assert report.exact and report.upper == c


def test_example3_matches_stopping_game_oracle(games):
    spec = games["example3_bigmatch_blind1"]
    report = sup_value_lowerbounds(spec, 6, compute_upper=True)
    for n, v in report.values:
        assert v == guessing_matrix_value(n) == F(n, n + 1)
    # the optimistic bound is the true sup value here; not yet met from below
    assert report.upper == 1
    assert not report.exact


def test_monotone_on_random_games():
    for seed in range(12):
        spec = random_game(seed)
        report = sup_value_lowerbounds(spec, 4, compute_upper=False)
        values = [v for _, v in report.values]
        assert all(b >= a for a, b in zip(values, values[1:])), seed


def test_sup_bounds_dominate_mean_values_recursive(games):
    # recursive nonnegative: the running-max guarantee dominates the mean
    sym = games["quitting_game"]
    sup_report = sup_value_lowerbounds(sym, 6, compute_upper=False)
    uv = uniform_value(sym, n_max=6, schedule=list(range(1, 7)))
    mean_values = dict(uv.value_sequence)
    for n, v in sup_report.values:
        assert v >= mean_values[n], n


def test_budget_prefix(games):
    report = sup_value_lowerbounds(games["example2_informed"], 12, budget=600,
                                   compute_upper=False)
    assert report.budget_hit
    assert 1 <= len(report.values) < 12


def test_max_horizon_must_be_positive(games):
    with pytest.raises(PreconditionError):
        sup_value_lowerbounds(games["example3_bigmatch_blind1"], 0)
