"""The input type: dense univariate polynomials with exact rational coefficients.

Coefficients are :class:`fractions.Fraction` values: always reduced,
positive denominator, arbitrary precision.  ``UniPoly`` stores them
ascending by power; the zero polynomial is the empty coefficient tuple so
that ``degree`` is never silently queried on it.  Every computation clears
a ``UniPoly`` to integers once, with :meth:`UniPoly.clear_denominators`,
and runs on those, so the type holds a value and has no ring arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def parse_rational(text: str) -> Fraction:
    """Fraction(text) without exponent notation: "1e100000" alone would start
    large-integer work before any check could see its size.

    A plain integer, decimal digits with an optional "-" before them, goes
    straight to int(), which reads exactly the tokens of that form that
    Fraction's pattern reads, with the same value; every other token goes
    through Fraction."""
    if text.isdecimal() or text[:1] == "-" and text[1:].isdecimal():
        return Fraction(int(text))
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    return Fraction(text)


def _positive_degree(poly: "UniPoly") -> int:
    """The degree of ``poly``, or ValueError below 1: the one degree gate of
    every path that takes a polynomial, as a constant has no discriminant."""
    if len(poly.coeffs) < 2:
        raise ValueError("polynomial must have degree at least 1")
    return len(poly.coeffs) - 1


class UniPoly:
    """Immutable a0 + a1*x + ... + an*x^n with Fraction coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        # Fraction(Fraction) rebuilds an equal value; an immutable one is kept as given
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_descending(cls, coeffs: Iterable[Scalar]) -> "UniPoly":
        """Build from a coefficient sequence given highest power first."""
        return cls(list(coeffs)[::-1])

    def descending_coeffs(self) -> tuple[Fraction, ...]:
        return self.coeffs[::-1]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def eval(self, point: Scalar) -> Fraction:
        """Exact Horner evaluation."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def clear_denominators(self) -> tuple[tuple[int, ...], Fraction]:
        """(ints, c): the ascending integer coefficients of c * self, content 1, c > 0."""
        if self.is_zero:
            raise ValueError("cannot clear denominators of the zero polynomial")
        # a list, not a generator: lcm(*generator) resizes its argument tuple,
        # which then fills CPython's tuple free list, one tuple per call
        den_lcm = lcm(*[c.denominator for c in self.coeffs])
        ints = [c.numerator * (den_lcm // c.denominator) for c in self.coeffs]
        content = gcd(*ints)
        return tuple(v // content for v in ints), Fraction(den_lcm, content)

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading
        quo = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - d - 1, -1, -1):
            factor = rem[i + d] / lead
            if factor:
                quo[i] = factor
                for j, c in enumerate(other.coeffs):
                    rem[i + j] -= factor * c
        return UniPoly(quo), UniPoly(rem[:d])

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"
