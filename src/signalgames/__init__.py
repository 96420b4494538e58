"""Exact solvers for two-player zero-sum repeated games with signals.

Everything on the solving paths is exact rational arithmetic; the only
floating point in the package is the Monte Carlo simulator's statistics
and the decimal renderings printed next to exact values.

``import signalgames`` loads the solver modules (model, gamefile, lp,
histories, reduction, seqform, supvalue, recursive) and nothing else: the
claims, the corpus and the verification stack behind ``verify-paper``
load on first use of one of their names (``expected_limsup``,
``first_switch_family``, ``verify_example``, ``build_corpus``,
``run_verification``, or the submodules ``claims``, ``verify`` and
``corpus``), and the simulator's hash on the first ``simulate`` call.
The solver modules stay eager so that they are in ``sys.modules`` right
after the import, where tools that rebind their functions look for them.
"""

import importlib

from .model import (
    BehavioralStrategy,
    GameSpec,
    SymmetricGameSpec,
    is_symmetric_signaling,
)
from .gamefile import load_game, parse_spec, serialize_spec
from .lp import (
    LinearProgram,
    MatrixGameSolution,
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
from .recursive import classify, extract_eps_optimal, uniform_value

__version__ = "0.1.0"

# name -> home module (None: the name is a submodule), resolved by
# __getattr__ on first use
_LAZY = {
    "expected_limsup": "claims",
    "first_switch_family": "claims",
    "verify_example": "claims",
    "build_corpus": "verify",
    "run_verification": "verify",
    "claims": None,
    "corpus": None,
    "verify": None,
}

__all__ = [
    "BehavioralStrategy",
    "GameSpec",
    "SymmetricGameSpec",
    "LinearProgram",
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


def __getattr__(name):
    """Import a lazily loaded name's home module and cache the name in the
    package namespace (PEP 562)."""
    try:
        home = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{home or name}", __name__)
    value = getattr(module, name) if home else module
    globals()[name] = value
    return value
