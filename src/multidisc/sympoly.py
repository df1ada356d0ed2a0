"""Sparse multivariate polynomials over the integers in a0..an.

Terms map an exponent tuple (one slot per indeterminate a0..an) to a
nonzero arbitrary-precision integer coefficient.  Serialization uses a
fixed graded lexicographic order with an > a(n-1) > ... > a0, so output
is reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


def _term_key(exps: tuple[int, ...]) -> tuple:
    # graded lex, highest-index variable strongest
    return (sum(exps), exps[::-1])


class SymPoly:
    """Integer polynomial in the coefficient indeterminates a0..a(nvars-1)."""

    __slots__ = ("nvars", "terms")

    nvars: int
    terms: dict[tuple[int, ...], int]

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if nvars < 1:
            raise ValueError("need at least one indeterminate")
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for {nvars} variables")
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "SymPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: int) -> "SymPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars: int, coeff: int, exps: tuple[int, ...]) -> "SymPoly":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SymPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
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

    @property
    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("total degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in decreasing graded-lex order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_term_key, reverse=True)]

    def _check_compatible(self, other: "SymPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("operands live in different polynomial rings")

    def __add__(self, other) -> "SymPoly":
        if isinstance(other, int):
            other = SymPoly.const(self.nvars, other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            s = out.get(exps, 0) + coeff
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self) -> "SymPoly":
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SymPoly":
        if isinstance(other, int):
            other = SymPoly.const(self.nvars, other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "SymPoly":
        if isinstance(other, int):
            return self._new({e: c * other for e, c in self.terms.items()} if other else {})
        if not isinstance(other, SymPoly):
            return NotImplemented
        self._check_compatible(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exps, 0) + c1 * c2
                if s:
                    out[exps] = s
                else:
                    del out[exps]
        return self._new(out)

    __rmul__ = __mul__

    def exact_divide(self, divisor: "SymPoly") -> "SymPoly":
        """Exact quotient by a single term c * a^e in Z[a0..an].

        One pass shifts every exponent vector down by e and divides every
        coefficient by c.  Raises ArithmeticError if a term is not divisible,
        and ValueError if the divisor has more than one term.
        """
        self._check_compatible(divisor)
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

    def _format_term(self, exps: tuple[int, ...], coeff: int, latex: bool) -> str:
        factors = []
        for idx in range(self.nvars - 1, -1, -1):
            e = exps[idx]
            if not e:
                continue
            name = f"a_{{{idx}}}" if latex else f"a{idx}"
            if e == 1:
                factors.append(name)
            elif latex:
                factors.append(f"{name}^{{{e}}}")
            else:
                factors.append(f"{name}^{e}")
        if not factors:
            return str(coeff)
        joined = "".join(factors) if latex else "*".join(factors)
        if coeff == 1:
            return joined
        if coeff == -1:
            return f"-{joined}"
        return f"{coeff}{joined}" if latex else f"{coeff}*{joined}"

    def _render(self, latex: bool) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            text = self._format_term(exps, coeff, latex)
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append(f"- {text[1:]}")
            else:
                parts.append(f"+ {text}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self._render(latex=False)

    def to_latex(self) -> str:
        return self._render(latex=True)

    def __repr__(self) -> str:
        return f"SymPoly({self.nvars}, {self.terms!r})"
