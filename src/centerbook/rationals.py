"""Exact rational values, serialized as "p/q" strings.

Fractions carry every probability, payoff, and expected value in the
engine. Floats never enter a computation: whether a book is a Dutch book
can hinge on a strict inequality, and no rounding error may decide it.
The one place a float appears is the optional decimal display mode,
applied after all arithmetic is done.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DocumentError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:\s*/\s*\d+)?$")

# Longest integer literal accepted: CPython's default int(str) limit, on every version.
MAX_DIGITS = 4300


class OversizeInteger:
    """A JSON integer literal over MAX_DIGITS digits, left for its field to reject."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return abbreviate(self.text)


def json_integer(text: str) -> int | OversizeInteger:  # json.loads parse_int hook
    return OversizeInteger(text) if len(text.lstrip("-")) > MAX_DIGITS else int(text)


def abbreviate(text: str) -> str:
    """Long input shortened to a prefix plus its length, for error messages."""
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def parse_integer(text: str, where: str) -> int:
    """int(text), refusing a decimal literal longer than MAX_DIGITS digits."""
    digits = text.strip().lstrip("+-")
    if digits.isdecimal() and len(digits) > MAX_DIGITS:
        raise DocumentError(
            f"{where}: integer {digits[:20]}... has {len(digits)} digits, "
            f"more than the {MAX_DIGITS} accepted"
        )
    return int(text)


def parse_rational(value: object, where: str = "value") -> Fraction:
    """Parse "p/q" (or a bare integer) into a Fraction, rejecting decimals."""
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, OversizeInteger):
        return Fraction(parse_integer(value.text, where))
    if isinstance(value, float):
        raise DocumentError(
            f'{where}: decimal numbers are not accepted, write a "p/q" string'
        )
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL_RE.match(text):
            num, slash, den = (part.strip() for part in text.partition("/"))
            numerator = parse_integer(num, where)
            if not slash:
                return Fraction(numerator)
            denominator = parse_integer(den, where)
            if denominator == 0:
                raise DocumentError(f"{where}: zero denominator in {abbreviate(value)!r}")
            return Fraction(numerator, denominator)
        value = abbreviate(value)
    raise DocumentError(f'{where}: {value!r} is not a "p/q" rational')


def format_rational(x: Fraction, decimal: bool = False) -> str:
    """Render a Fraction as "p/q" ("p" when integral), or as a decimal for display."""
    if decimal:
        return f"{float(x):g}"
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
