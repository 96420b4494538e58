"""Exact rational scalars.

All probabilities, payoffs and values in the solver paths are
`fractions.Fraction` instances; nothing is ever rounded.  Game documents
carry numbers as strings like ``"2/3"`` or ``"-1"`` so that parsing is
exact as well.

CPython refuses to convert an int of more than
``sys.get_int_max_str_digits()`` digits (4300 by default, never fewer
than 640) to or from a decimal string.  Exact values outgrow that, so
numbers are converted in pieces of at most ``_PIECE`` digits, split at
powers of ten; the text is the same decimal text ``str`` and ``int`` give,
at any length.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)

_PIECE = 600
_PIECE_BITS = 1993          # 2**1993 < 10**600: at most _PIECE digits

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
    num = _parse_int(m.group(1))
    den = _parse_int(m.group(2)) if m.group(2) else 1
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
        return _format_int(value.numerator)
    return f"{_format_int(value.numerator)}/{_format_int(value.denominator)}"


def _format_int(n: int) -> str:
    """``str(n)`` at any length: a number of more than ``_PIECE`` digits
    is split as hi * 10**k + lo, lo padded to its k digits."""
    if n.bit_length() <= _PIECE_BITS:
        return str(n)
    if n < 0:
        return "-" + _format_int(-n)
    k = n.bit_length() * 30103 // 200000          # about half its digits
    hi, lo = divmod(n, 10 ** k)
    return _format_int(hi) + _format_int(lo).zfill(k)


def _parse_int(text: str) -> int:
    """``int(text)`` of an optionally signed digit string, at any length:
    a string of more than ``_PIECE`` digits is read as its leading digits
    times 10**k plus its last k."""
    if len(text) <= _PIECE:
        return int(text)
    if text.startswith("-"):
        return -_parse_int(text[1:])
    k = len(text) // 2
    return _parse_int(text[:-k]) * 10 ** k + _parse_int(text[-k:])


def decimal_repr(value: Fraction) -> str:
    """Six-significant-digit decimal rendering for humans; never fed back
    into solvers.  Past float range the quotient is rounded to six digits
    in ``decimal`` instead, which reads integers of any length exactly, and
    printed in the same style (``1.5e+400``); ``decimal`` is imported there,
    on first use."""
    try:
        return f"{float(value):.6g}"
    except OverflowError:
        pass
    from decimal import Decimal, localcontext
    with localcontext() as context:
        context.prec = 6
        digits = Decimal(value.numerator) / value.denominator
        return f"{digits.normalize():.6g}"
