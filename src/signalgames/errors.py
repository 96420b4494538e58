"""Shared exception types and the node budget."""

from __future__ import annotations

import os
from fractions import Fraction

DEFAULT_NODE_BUDGET = 10 ** 6
NODE_BUDGET_ENV = "SIGNALGAMES_NODE_BUDGET"


class GameModelError(Exception):
    """Malformed game data or misuse of a model-level operation."""


class ParseError(GameModelError):
    """Game document cannot be parsed; carries a location string."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class UnknownIdError(ParseError):
    """A document refers to a state/action/signal id that was not declared."""


class UnsupportedStructureError(GameModelError):
    """Operation requires a signaling structure the spec does not have."""


class IncompleteStrategyError(GameModelError):
    """A strategy has no action distribution at a reachable view."""

    def __init__(self, player: int, view: tuple):
        self.player = player
        self.view = view
        super().__init__(f"player {player} strategy undefined at view {view!r}")


class BudgetExceededError(GameModelError):
    """Tree construction hit the node budget; reports the level reached."""

    def __init__(self, budget: int, level_reached: int):
        self.budget = budget
        self.level_reached = level_reached
        super().__init__(
            f"node budget {budget} exceeded while expanding level {level_reached}"
        )


class Budget:
    """The node budget of one build: ``limit`` is the explicit override,
    else ``SIGNALGAMES_NODE_BUDGET``, else the default.  Either must be an
    integer >= 0, else GameModelError.  ``charge`` counts one node and
    raises BudgetExceededError, naming the level being expanded, once the
    count passes the limit."""

    def __init__(self, override: int | None = None):
        source = "budget"
        if override is None:
            raw = os.environ.get(NODE_BUDGET_ENV)
            source = NODE_BUDGET_ENV
            try:
                override = DEFAULT_NODE_BUDGET if raw is None else int(raw)
            except ValueError:
                raise GameModelError(f"invalid {NODE_BUDGET_ENV}: {raw!r}") from None
        if (not isinstance(override, int) or isinstance(override, bool)
                or override < 0):
            raise GameModelError(
                f"{source} must be an integer >= 0, got {override!r}")
        self.limit = override
        self.count = 0

    def charge(self, level: int) -> None:
        self.count += 1
        if self.count > self.limit:
            raise BudgetExceededError(self.limit, level)


class PreconditionError(GameModelError):
    """Solver invoked on a game outside its guaranteed class."""


class LPError(Exception):
    """Linear-programming failure (malformed input or pivot-limit abort)."""


class CertificateError(LPError):
    """An exact certificate or theorem check failed: an implementation bug,
    never a property of the input.  Raised explicitly, so it also fires
    under ``python -O``."""


def require_horizon(n, name: str = "horizon", error=GameModelError) -> None:
    """Raise ``error`` unless ``n`` is an integer (not a bool) >= 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise error(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise error(f"{name} must be >= 1, got {n}")


def _exact(value, name: str) -> Fraction:
    """``value``, an int, a Fraction or a ``"p/q"`` string, as a Fraction.
    Anything else raises PreconditionError, a float too: 0.01 is binary,
    5764607523034235/576460752303423488."""
    if not isinstance(value, float):
        try:
            return Fraction(value)
        except (TypeError, ValueError):
            pass
    raise PreconditionError(
        f"{name} must be an int, a Fraction or a 'p/q' string, got {value!r}")


def require_nondecreasing(values, what: str) -> None:
    """Raise CertificateError unless the ``(n, value)`` pairs never decrease."""
    for (n0, v0), (n1, v1) in zip(values, values[1:]):
        if v1 < v0:
            raise CertificateError(
                f"{what} must be nondecreasing: {v1} at n={n1} "
                f"is below {v0} at n={n0}")
