"""Exact rational scalars.

All probabilities, payoffs and values in the solver paths are
`fractions.Fraction` instances; nothing is ever rounded.  Game documents
carry numbers as strings like ``"2/3"`` or ``"-1"`` so that parsing is
exact as well.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or an integer string into an exact Fraction.

    Float syntax is rejected on purpose: decimal literals in a game file
    would smuggle rounding into exact solver paths.
    """
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def denominator_lcm(values) -> int:
    """The lcm of the denominators of ``values`` (1 when there are none):
    the one scale that puts them all over a common denominator."""
    return lcm(1, *(v.denominator for v in values))


def format_rational(value: Fraction) -> str:
    """Render in lowest terms, ``"p/q"`` or plain integer."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal_repr(value: Fraction) -> str:
    """Six-significant-digit decimal rendering for humans; never fed back
    into solvers."""
    return f"{float(value):.6g}"
