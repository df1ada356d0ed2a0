"""The type of a parametric discriminant: a sparse integer polynomial in a0..an.

Terms map an exponent tuple (one slot per indeterminate a0..an) to a
nonzero integer coefficient.  :mod:`multidisc.engine` computes on packed dicts
of its own, so a SymPoly is no ring: it holds the entries of a symbolic matrix
and the result, scales by an int, divides by a single term, evaluates,
compares and prints in the graded lex order an > a(n-1) > ... > a0.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Mapping


def _is_int(value) -> bool:
    # a bool is not an exponent or a coefficient, although it is an int
    return isinstance(value, int) and not isinstance(value, bool)


def _check_nvars(nvars) -> None:
    if not _is_int(nvars) or nvars < 1:
        raise ValueError(f"nvars must be an integer of at least 1, got {nvars!r}")


class SymPoly:
    """Integer polynomial in the coefficient indeterminates a0..a(nvars-1)."""

    __slots__ = ("nvars", "terms")

    nvars: int
    terms: dict[tuple[int, ...], int]

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        _check_nvars(nvars)
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        # a tuple key only: two distinct tuples are two distinct exponent
        # vectors, so no terms merge
        for exps, coeff in (terms or {}).items():
            if (
                not isinstance(exps, tuple)
                or len(exps) != nvars
                or not all(_is_int(e) and e >= 0 for e in exps)
            ):
                raise ValueError(f"bad exponent vector {exps!r} for {nvars} variables")
            if not _is_int(coeff):
                raise ValueError(f"coefficient {coeff!r} of {exps!r} is not an int")
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SymPoly":
        _check_nvars(nvars)
        if not _is_int(index) or not 0 <= index < nvars:
            raise ValueError(f"variable index must be an integer in 0..{nvars - 1}, got {index!r}")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    def _new(self, terms: dict[tuple[int, ...], int]) -> "SymPoly":
        """A polynomial of this ring on ``terms`` as they are: every exponent
        vector must fit the ring and every coefficient be nonzero."""
        result = object.__new__(SymPoly)
        result.nvars = self.nvars
        result.terms = terms
        return result

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in decreasing graded-lex order: by total degree, then by the
        exponents read from a(nvars-1) down to a0.

        Two sorts with C-level keys: the exponents read backwards, then a
        stable sort by total degree, which keeps that order within a degree.
        """
        exps = sorted(self.terms, key=itemgetter(*range(self.nvars - 1, -1, -1)), reverse=True)
        exps.sort(key=sum, reverse=True)
        return [(e, self.terms[e]) for e in exps]

    def __mul__(self, other) -> "SymPoly":
        if not isinstance(other, int):
            return NotImplemented
        return self._new({e: c * other for e, c in self.terms.items()} if other else {})

    def exact_divide(self, divisor: "SymPoly") -> "SymPoly":
        """Exact quotient by a single term c * a^e in Z[a0..an].

        One pass shifts every exponent vector down by e and divides every
        coefficient by c.  Raises ArithmeticError if a term is not divisible,
        and ValueError if the divisor has more than one term or lives in
        another ring.
        """
        if self.nvars != divisor.nvars:
            raise ValueError("operands live in different polynomial rings")
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(divisor.terms) > 1:
            raise ValueError("exact division needs a single-term divisor")
        ((d_exps, d_coeff),) = divisor.terms.items()
        quot: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            q_exps = tuple(a - b for a, b in zip(exps, d_exps))
            q_coeff, r = divmod(coeff, d_coeff)
            if r or any(e < 0 for e in q_exps):
                raise ArithmeticError(
                    f"not exactly divisible: term {exps}:{coeff} by {d_exps}:{d_coeff}"
                )
            quot[q_exps] = q_coeff
        return self._new(quot)

    def evaluate(self, values) -> Fraction | int:
        """Substitute one value per indeterminate (a0 first)."""
        values = tuple(values)
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _render(self, latex: bool) -> str:
        if self.is_zero:
            return "0"
        if latex:
            names, hat, close, times = [f"a_{{{i}}}" for i in range(self.nvars)], "^{", "}", ""
        else:
            names, hat, close, times = [f"a{i}" for i in range(self.nvars)], "^", "", "*"
        order = range(self.nvars - 1, -1, -1)
        powers = [{1: name} for name in names]  # the text of a_i^e, made once per call
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i in order:
                e = exps[i]
                if e:
                    text = powers[i].get(e)
                    if text is None:
                        text = powers[i][e] = f"{names[i]}{hat}{e}{close}"
                    factors.append(text)
            joined = times.join(factors)
            if not joined:
                text = str(coeff)
            elif coeff == 1:
                text = joined
            elif coeff == -1:
                text = f"-{joined}"
            else:
                text = f"{coeff}{times}{joined}"
            if parts:
                text = f"- {text[1:]}" if coeff < 0 else f"+ {text}"
            parts.append(text)
        return " ".join(parts)

    def __str__(self) -> str:
        return self._render(latex=False)

    def to_latex(self) -> str:
        return self._render(latex=True)

    def __repr__(self) -> str:
        return f"SymPoly({self.nvars}, {self.terms!r})"
