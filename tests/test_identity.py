"""Standing identity pin for the belief sweep and its strategies.

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
from pathlib import Path

from randgen import random_symmetric_game
from signalgames import corpus
from signalgames.gamefile import serialize_strategy
from signalgames.rationals import format_rational
from signalgames.recursive import uniform_value
from signalgames.reduction import build_auxiliary, solve_backward, solve_horizons

GOLDEN = Path(__file__).parent / "golden" / "identity.json"

# the corpus games that have a belief route
BELIEF_GAMES = ("bigmatch_fullmonitor", "mdp_final_remark",
                "noisy_public_2state", "quitting_game")
# the report fields pinned, in declared order
REPORT_FIELDS = ("value_sequence", "certified_lower", "stabilized", "window",
                 "tol", "eps_optimal_strategy1", "strategy_horizon",
                 "strategy_guarantee", "player2_strategy",
                 "player2_cap_at_horizon", "strategy_eps_achieved", "route")


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


def _report(game, n_max) -> str:
    report = uniform_value(game, n_max=n_max)
    return "\n".join(f"{name}={_text(getattr(report, name))}"
                     for name in REPORT_FIELDS)


def _backward(game, n_max) -> tuple:
    """``(values, strategies)`` texts of ``solve_backward`` at n <= n_max."""
    values, strategies = [], []
    for n in range(1, n_max + 1):
        sol = solve_backward(build_auxiliary(game, n))
        values.append((n, sol.value))
        strategies += [_text(sol.strategy1), _text(sol.strategy2)]
    return _text(values), "\n".join(strategies)


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
