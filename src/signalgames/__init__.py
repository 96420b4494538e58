"""Exact solvers for two-player zero-sum repeated games with signals.

Everything on the solving paths is exact rational arithmetic; the only
floating point in the package is the Monte Carlo simulator's statistics
and the decimal renderings printed next to exact values.
"""

from .model import (
    BehavioralStrategy,
    GameSpec,
    SymmetricGameSpec,
    is_symmetric_signaling,
)
from .gamefile import load_game, parse_spec, serialize_spec
from .lp import (
    LinearProgram,
    MatrixGame,
    MatrixGameSolution,
    matrix_reply_value,
    solve_lp,
    solve_matrix_game,
)
from .histories import (
    build_trees,
    conditional_check,
    exact_play_distribution,
    simulate,
)
from .reduction import build_auxiliary, lift_payoff, solve_backward
from .seqform import TerminalPayoff, nstage_value
from .supvalue import augment_running_max, sup_value_lowerbounds
from .claims import expected_limsup, first_switch_family, verify_example
from .recursive import classify, extract_eps_optimal, uniform_value
from .verify import build_corpus, run_verification

__version__ = "0.1.0"

__all__ = [
    "BehavioralStrategy",
    "GameSpec",
    "SymmetricGameSpec",
    "LinearProgram",
    "MatrixGame",
    "MatrixGameSolution",
    "TerminalPayoff",
    "augment_running_max",
    "build_auxiliary",
    "build_corpus",
    "build_trees",
    "classify",
    "conditional_check",
    "exact_play_distribution",
    "expected_limsup",
    "extract_eps_optimal",
    "first_switch_family",
    "is_symmetric_signaling",
    "lift_payoff",
    "load_game",
    "matrix_reply_value",
    "nstage_value",
    "parse_spec",
    "run_verification",
    "serialize_spec",
    "simulate",
    "solve_backward",
    "solve_lp",
    "solve_matrix_game",
    "sup_value_lowerbounds",
    "uniform_value",
    "verify_example",
]
