"""Standing identity pin for the belief sweep, the sequence form, best
replies, sup bounds, matrix games, strategy extraction and the kernel
layer.

Each case is the SHA-256 of a canonical text of one result: values through
``format_rational``, strategies through ``gamefile.serialize_strategy``,
reports field by field in declared order, never the ``repr`` of a node.
Values and strategies are separate cases, so a change of strategies alone
shows as such.  The digests are in ``golden/identity.json``; a change that
moves an output on purpose re-records them with

    PYTHONPATH=src python tests/test_identity.py > tests/golden/identity.json

and lists each changed case.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

from randgen import random_game, random_symmetric_game
from signalgames import corpus
from signalgames.gamefile import serialize_strategy
from signalgames.histories import build_trees, conditional_check, exact_play_distribution
from signalgames.lp import solve_matrix_game
from signalgames.model import as_general, uniform_strategy
from signalgames.rationals import format_rational
from signalgames.recursive import extract_eps_optimal, uniform_value
from signalgames.reduction import (build_auxiliary, lift_payoff, solve_backward,
                                   solve_horizons)
from signalgames.seqform import best_response_value, nstage_value
from signalgames.supvalue import sup_value_lowerbounds

GOLDEN = Path(__file__).parent / "golden" / "identity.json"

# the corpus games that have a belief route
BELIEF_GAMES = ("bigmatch_fullmonitor", "mdp_final_remark",
                "noisy_public_2state", "quitting_game")
# the report fields pinned, in declared order
REPORT_FIELDS = ("value_sequence", "certified_lower", "stabilized", "window",
                 "tol", "eps_optimal_strategy1", "strategy_horizon",
                 "strategy_guarantee", "player2_strategy",
                 "player2_cap_at_horizon", "strategy_eps_achieved", "route")
SUP_FIELDS = ("values", "best_lower", "upper", "exact", "stabilized",
              "budget_hit")
EPS_FIELDS = ("strategy", "horizon", "guarantee", "achieved_eps", "warning",
              "certificates")
KERNEL_FIELDS = ("n", "m", "checked_pairs", "max_discrepancy",
                 "normalization_ok", "bayes_ok", "sum_identity_ok")


def _text(value) -> str:
    """Canonical text of a result field."""
    if value is None or isinstance(value, (bool, str)):
        return str(value)
    if isinstance(value, list):
        return ";".join(f"{n} {format_rational(v)}" for n, v in value)
    if hasattr(value, "table"):
        return serialize_strategy(value)
    return format_rational(value)


def _sweep(game, n_max) -> str:
    values = solve_horizons(build_auxiliary(game, n_max), range(1, n_max + 1))
    return _text(sorted(values.items()))


def _fields(report, names) -> str:
    return "\n".join(f"{name}={_text(getattr(report, name))}" for name in names)


def _report(game, n_max) -> str:
    return _fields(uniform_value(game, n_max=n_max), REPORT_FIELDS)


def _backward(game, n_max) -> tuple:
    """``(values, strategies)`` texts of ``solve_backward`` at n <= n_max."""
    values, strategies = [], []
    for n in range(1, n_max + 1):
        sol = solve_backward(build_auxiliary(game, n))
        values.append((n, sol.value))
        strategies += [_text(sol.strategy1), _text(sol.strategy2)]
    return _text(values), "\n".join(strategies)


def _nstage(game, n_max) -> tuple:
    """``(values, strategies, best replies)`` texts of ``nstage_value`` at
    n <= n_max, each player's best reply to the other's optimal strategy."""
    values, strategies, replies = [], [], []
    for n in range(1, n_max + 1):
        sol = nstage_value(game, n)
        values.append((n, sol.value))
        strategies += [_text(sol.strategy1), _text(sol.strategy2)]
        replies += [(n, best_response_value(game, sol.strategy2, n, responder=1)),
                    (n, best_response_value(game, sol.strategy1, n, responder=2))]
    return _text(values), "\n".join(strategies), _text(replies)


def _sequence_form_cases(games: dict, n_max: int) -> dict:
    texts = {}
    for name, game in games.items():
        value, strategies, replies = _nstage(game, n_max)
        texts[f"nstage_value values {name}"] = value
        texts[f"nstage_value strategies {name}"] = strategies
        texts[f"best_response_value {name}"] = replies
    return texts


def _matrix_games() -> list:
    """200 seeded matrix games: 1 x k, k x 1 and k x k for k <= 4, with int
    or Fraction entries; small entries give games with and without a pure
    saddle point."""
    rng = random.Random(39)
    shapes = ([(1, k) for k in range(1, 5)] + [(k, 1) for k in range(2, 5)]
              + [(k, k) for k in range(2, 5)])
    games = []
    for t in range(200):
        R, C = shapes[t % len(shapes)]
        if t % 2:
            games.append([[rng.randint(-4, 4) for _ in range(C)] for _ in range(R)])
        else:
            games.append([[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(C)]
                          for _ in range(R)])
    return games


def _matrix_game_cases() -> dict:
    values, strategies = [], []
    for k, game in enumerate(_matrix_games()):
        sol = solve_matrix_game(game)
        values.append((k, sol.value))
        strategies.append(" ".join(map(format_rational, sol.row_strategy)) + " | "
                          + " ".join(map(format_rational, sol.col_strategy)))
    return {"solve_matrix_game values": _text(values),
            "solve_matrix_game strategies": "\n".join(strategies)}


def _kernel_cases(games: dict) -> dict:
    """``conditional_check`` at every 1 <= n <= m <= 3 and the horizon-3
    play distribution (probabilities in tree order), uniform strategies."""
    texts = {}
    for name, game in games.items():
        spec = as_general(game)
        pair = build_trees(spec, 3)
        sigma, tau = uniform_strategy(spec, 1), uniform_strategy(spec, 2)
        texts[f"conditional_check {name}"] = "\n".join(
            _fields(conditional_check(pair, sigma, tau, n, m), KERNEL_FIELDS)
            for m in range(1, 4) for n in range(1, m + 1))
        texts[f"exact_play_distribution {name}"] = " ".join(
            map(format_rational, exact_play_distribution(pair, sigma, tau, 3).probs.values()))
    return texts


def _lift_case(game) -> str:
    """``lift_payoff`` of verify-paper's transfer payoff at n = 3."""
    pair = build_trees(game, 3)
    lifted = lift_payoff(pair, {h: (F(3, 2) if h.state == "xb" else F(-1, 4))
                                for h in pair.histories(3)})
    return "\n".join(f"{view!r} {format_rational(v)}" for view, v in lifted.items())


def _cases() -> dict:
    """Case name -> canonical text."""
    games = {name: corpus.build_game(name) for name in BELIEF_GAMES}
    games.update({f"random_symmetric_game({seed})": random_symmetric_game(seed)
                  for seed in range(12)})
    texts = {}
    for name, game in games.items():
        texts[f"solve_horizons {name}"] = _sweep(
            game, 60 if name in BELIEF_GAMES else 7)
        value, strategies = _backward(game, 4)
        texts[f"solve_backward values {name}"] = value
        texts[f"solve_backward strategies {name}"] = strategies
    texts["uniform_value mdp_final_remark"] = _report(games["mdp_final_remark"], 4000)
    texts["uniform_value quitting_game"] = _report(games["quitting_game"], 1000)
    # verify-paper's plan-shape claim, then the quitting game's short schedule
    mdp, quitting = games["mdp_final_remark"], games["quitting_game"]
    texts["extract_eps_optimal mdp_final_remark"] = _fields(extract_eps_optimal(
        mdp, uniform_value(mdp, tol=F(1, 100), n_max=256, window=3), F(1, 10)),
        EPS_FIELDS)
    texts["extract_eps_optimal quitting_game"] = _fields(extract_eps_optimal(
        quitting, uniform_value(quitting, tol=F(1, 50), n_max=24, window=3), F(1, 20)),
        EPS_FIELDS)
    corpus_games = {name: corpus.build_game(name) for name in corpus.NAMES}
    texts.update(_sequence_form_cases(corpus_games, 3))
    # private signals: the sequence form is the only engine
    texts.update(_sequence_form_cases(
        {f"random_game({seed})": random_game(seed) for seed in range(12)}, 2))
    for name, game in corpus_games.items():
        texts[f"sup_value_lowerbounds {name}"] = _fields(
            sup_value_lowerbounds(game, 3), SUP_FIELDS)
    texts.update(_matrix_game_cases())
    texts.update(_kernel_cases(corpus_games))
    texts["lift_payoff noisy_public_2state"] = _lift_case(corpus_games["noisy_public_2state"])
    return texts


def _digests() -> dict:
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in _cases().items()}


def test_sweep_and_strategies_match_recorded_digests():
    """Every case's digest equals the recorded one, and no case is missing
    or new."""
    recorded = json.loads(GOLDEN.read_text())
    got = _digests()
    assert sorted(got) == sorted(recorded)
    changed = [name for name in got if got[name] != recorded[name]]
    assert not changed, changed


if __name__ == "__main__":
    print(json.dumps(_digests(), indent=1, sort_keys=True))
