"""Root-side ground truth: build polynomials from prescribed roots and
verify multiplicity structure independently of the coefficient matrices.

Two independent routes live here: Yun squarefree decomposition (the
multiplicity oracle) and the evaluation-side determinant formulas that
express a discriminant through the roots instead of the coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .engine import det_fraction_free
from .partitions import Partition, as_partition
from .unipoly import UniPoly


@dataclass(frozen=True)
class RootSpec:
    """Pairwise distinct roots with positive multiplicities, plus a leading coefficient."""

    roots: tuple[tuple[Fraction, int], ...]
    leading: Fraction

    def __post_init__(self):
        roots = tuple((Fraction(r), m) for r, m in self.roots)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "leading", Fraction(self.leading))
        if not roots:
            raise ValueError("at least one root is required")
        # the multiplicity vector is a partition: 2.5 and True are rejected, not truncated
        as_partition(self.multiplicities())
        values = [r for r, _ in roots]
        if len(set(values)) != len(values):
            raise ValueError(f"roots must be pairwise distinct: {values!r}")
        if not self.leading:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def n(self) -> int:
        return sum(m for _, m in self.roots)

    def multiplicities(self) -> Partition:
        """Multiplicity vector: the multiplicities sorted weakly decreasing."""
        return tuple(sorted((m for _, m in self.roots), reverse=True))


def parse_root_spec(text: str) -> RootSpec:
    """Parse "leading; r1^m1, r2^m2, ..." with rationals written as p/q.

    A bare root without ^m means multiplicity 1.
    """
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError("expected 'leading; r1^m1, r2^m2, ...'")
    try:
        leading = Fraction(head.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad leading coefficient {head.strip()!r}") from exc
    roots = []
    for item in tail.split(","):
        item = item.strip()
        if not item:
            raise ValueError("empty root entry")
        base, sep, mult = item.partition("^")
        try:
            root = Fraction(base.strip())
            m = int(mult) if sep else 1
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad root entry {item!r}") from exc
        roots.append((root, m))
    return RootSpec(tuple(roots), leading)


def format_root_spec(spec: RootSpec) -> str:
    body = ", ".join(f"{r}^{m}" for r, m in spec.roots)
    return f"{spec.leading}; {body}"


def expand(spec: RootSpec) -> UniPoly:
    """Expand leading * prod (x - r)^m into dense coefficients."""
    acc = UniPoly([spec.leading])
    for root, mult in spec.roots:
        acc = acc * UniPoly([-root, 1]) ** mult
    return acc


def _poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while not b.is_zero:
        _, r = divmod(a, b)
        a, b = b, r
    if a.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return a * (1 / a.leading)


def _exact_quo(a: UniPoly, b: UniPoly) -> UniPoly:
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ArithmeticError("division was expected to be exact")
    return q


def squarefree_decomposition(poly: UniPoly) -> tuple[Fraction, list[tuple[UniPoly, int]]]:
    """Yun's algorithm: poly = lc * prod g_i^i with the g_i monic, squarefree,
    and pairwise coprime.  Factors with empty content (degree 0) are skipped.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    lead = poly.leading
    f = poly * (1 / lead)
    df = f.derivative()
    u = _poly_gcd(f, df)
    v = _exact_quo(f, u)
    w = _exact_quo(df, u)
    factors: list[tuple[UniPoly, int]] = []
    i = 1
    while v.degree > 0:
        z = w - v.derivative()
        h = _poly_gcd(v, z) if not z.is_zero else v
        if h.degree > 0:
            factors.append((h, i))
        v = _exact_quo(v, h)
        w = _exact_quo(z, h)
        i += 1
    return lead, factors


def squarefree_multiplicity(poly: UniPoly) -> Partition:
    """Multiplicity vector via squarefree decomposition (the independent oracle)."""
    _, factors = squarefree_decomposition(poly)
    mults: list[int] = []
    for g, i in factors:
        mults.extend([i] * g.degree)
    return tuple(sorted(mults, reverse=True))


def disc_from_distinct_roots(spec: RootSpec, gamma) -> Fraction:
    """Discriminant evaluated through n distinct roots.

    Builds the n x n matrix whose block rows are F^(i)(alpha_j) * alpha_j^k
    for i = 1..s and k = gi-1..0, divides by the alternating power-matrix
    determinant of the roots, and scales by leading^(g1 - 2).
    """
    gamma = as_partition(gamma, spec.n)
    if any(m != 1 for _, m in spec.roots):
        raise ValueError("all multiplicities must be 1 (distinct-roots formula)")
    alphas = [r for r, _ in spec.roots]
    n = spec.n
    poly = expand(spec)
    derivs = {i: poly.derivative(i) for i in range(1, len(gamma) + 1)}
    rows = []
    for i, gi in enumerate(gamma, start=1):
        values = [derivs[i].eval(a) for a in alphas]
        for k in range(gi - 1, -1, -1):
            rows.append([v * a**k for v, a in zip(values, alphas)])
    numer = det_fraction_free(rows)
    vandermonde = det_fraction_free(
        [[Fraction(a) ** (n - 1 - i) for a in alphas] for i in range(n)]
    )
    return spec.leading ** (gamma[0] - 2) * numer / vandermonde


def disc_from_multiple_roots_abs(spec: RootSpec, gamma) -> Fraction:
    """Absolute value of the discriminant through repeated roots.

    Column blocks run over the distinct roots r_j with inner index
    l = 0..m_j-1; the entry is the l-th derivative of F^(i) * x^k at r_j.
    The overall sign of the scaling constant is not pinned down, so only
    the absolute value is returned.
    """
    gamma = as_partition(gamma, spec.n)
    poly = expand(spec)
    rows = []
    for i, gi in enumerate(gamma, start=1):
        base = poly.derivative(i)
        for k in range(gi - 1, -1, -1):
            shifted = base.mul_power(k)
            row = []
            for root, mult in spec.roots:
                row.extend(shifted.derivative(ell).eval(root) for ell in range(mult))
            rows.append(row)
    det = det_fraction_free(rows)
    fact_product = 1
    for _, mult in spec.roots:
        for j in range(mult):
            fact_product *= factorial(j)
    denom = Fraction(1)
    roots = [r for r, _ in spec.roots]
    mults = [m for _, m in spec.roots]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            denom *= (roots[i] - roots[j]) ** (mults[i] * mults[j])
    scale = spec.leading ** (gamma[0] - 2) / fact_product
    return abs(scale * det / denom)


# Half-integers in [-9, 9]; small values keep the exact arithmetic compact.
_ROOT_POOL = [Fraction(k, 2) for k in range(-18, 19)]
_LEADING_POOL = [i for i in range(-5, 6) if i]


def random_root_spec(rng: random.Random, multiplicities) -> RootSpec:
    """Seeded random spec with the given multiplicity vector."""
    mults = tuple(multiplicities)
    roots = rng.sample(_ROOT_POOL, len(mults))
    leading = Fraction(rng.choice(_LEADING_POOL))
    return RootSpec(tuple(zip(roots, mults)), leading)
