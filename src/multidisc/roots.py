"""Root-side ground truth: build polynomials from prescribed roots and
verify multiplicity structure independently of the coefficient matrices.

Two independent routes live here: Yun squarefree decomposition (the
multiplicity oracle) and the evaluation-side determinant formulas that
express a discriminant through the roots instead of the coefficients.

The root-side formulas run over the integers.  With Q the lcm of the root
denominators, each root is r_j = P_j / Q with P_j an integer, and
F = leading * Q^-n * K(Q x) for the monic integer K = prod (x - P_j)^m_j.
So F^(d)(r_j) = leading * Q^(d-n) * K^(d)(P_j), and the values K^(d)(P_j)
come from one Taylor shift of K per distinct root (repeated synthetic
division; von zur Gathen and Gerhard, "Fast algorithms for Taylor
shifts", 1997).  The entry (x^k F^(i))^(l)(r_j) follows from these by the
Leibniz rule as an integer times leading * Q^(i-k-n) (a row factor) and
Q^l (a column factor), so the determinant runs on integer rows and one
exact rescale gives the rational value; no Fraction entry is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, perm

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


def _parse_rational(text: str) -> Fraction:
    # Fraction() reads exponent notation, and "1e100000" alone starts
    # large-integer work before any check could see its size
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    return Fraction(text)


def parse_root_spec(text: str) -> RootSpec:
    """Parse "leading; r1^m1, r2^m2, ..." with rationals written as p/q.

    A bare root without ^m means multiplicity 1.  Decimals such as 0.5 are
    read exactly; exponent notation such as 1e5 is rejected.
    """
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError("expected 'leading; r1^m1, r2^m2, ...'")
    try:
        leading = _parse_rational(head.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad leading coefficient {head.strip()!r}") from exc
    roots = []
    for item in tail.split(","):
        item = item.strip()
        if not item:
            raise ValueError("empty root entry")
        base, sep, mult = item.partition("^")
        try:
            root = _parse_rational(base.strip())
            m = int(mult) if sep else 1
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad root entry {item!r}") from exc
        roots.append((root, m))
    return RootSpec(tuple(roots), leading)


def format_root_spec(spec: RootSpec) -> str:
    body = ", ".join(f"{r}^{m}" for r, m in spec.roots)
    return f"{spec.leading}; {body}"


def _scaled_roots(spec: RootSpec) -> tuple[int, list[int]]:
    """Q, the lcm of the root denominators, and the integers P_j = Q * r_j."""
    q = lcm(*[r.denominator for r, _ in spec.roots])
    return q, [r.numerator * (q // r.denominator) for r, _ in spec.roots]


def _monic_product(points: list[int], mults: list[int]) -> list[int]:
    """Ascending integer coefficients of K = prod (x - P_j)^m_j.

    K is multiplied by one linear factor at a time, O(deg) per factor.
    """
    coeffs = [1]
    for p, m in zip(points, mults):
        for _ in range(m):
            coeffs.insert(0, 0)
            for e in range(len(coeffs) - 1):
                coeffs[e] -= p * coeffs[e + 1]
    return coeffs


def expand(spec: RootSpec) -> UniPoly:
    """Expand leading * prod (x - r)^m into dense coefficients.

    With r_j = P_j / Q this is leading * Q^-n * K(Q x), so the coefficient
    of x^e is leading * K_e / Q^(n - e), with K from :func:`_monic_product`.
    """
    q, points = _scaled_roots(spec)
    coeffs = _monic_product(points, [m for _, m in spec.roots])
    return UniPoly(spec.leading * Fraction(c, q ** (spec.n - e)) for e, c in enumerate(coeffs))


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


def _derivative_values(desc: list[int], p: int, top: int) -> list[int]:
    """K^(d)(p) for d = 0..top, with K given highest power first.

    One Taylor shift: pass d of repeated synthetic division by x - p leaves
    the Taylor coefficient K^(d)(p) / d! in ``work[deg - d]``.  Orders above
    the degree are 0.
    """
    work = list(desc)
    deg = len(work) - 1
    values = []
    for d in range(min(top, deg) + 1):
        for e in range(1, deg + 1 - d):
            work[e] += p * work[e - 1]
        values.append(work[deg - d] * factorial(d))
    return values + [0] * (top - deg)


def _root_side_det(spec: RootSpec, gamma: Partition) -> Fraction:
    """Determinant of the matrix with row (i, k) and column (r_j, l) entry
    (x^k F^(i))^(l)(r_j): rows i = 1..s, k = gi-1..0; columns in root order,
    l = 0..m_j-1.

    With r_j = P_j / Q and K as in :func:`expand`, F^(d)(r_j) =
    leading * Q^(d-n) * K^(d)(P_j), and by the Leibniz rule the entry is
    leading * Q^(i-k-n) * Q^l times the integer
    sum_t C(l, t) * k!/(k-t)! * P_j^(k-t) * K^(i+l-t)(P_j).
    So ``det_fraction_free`` runs on those integers, and the row factors
    leading * Q^(i-k-n) and the column factors Q^l are put back in one
    exact rescale.
    """
    q, points = _scaled_roots(spec)
    mults = [m for _, m in spec.roots]
    desc = _monic_product(points, mults)[::-1]
    n, s = spec.n, len(gamma)
    values = [_derivative_values(desc, p, s + m - 1) for p, m in zip(points, mults)]
    q_exp = sum(m * (m - 1) // 2 for m in mults)
    rows = []
    for i, gi in enumerate(gamma, start=1):
        for k in range(gi - 1, -1, -1):
            q_exp += i - k - n
            row = []
            for p, m, vals in zip(points, mults, values):
                row.extend(
                    sum(
                        comb(ell, t) * perm(k, t) * p ** (k - t) * vals[i + ell - t]
                        for t in range(min(ell, k) + 1)
                    )
                    for ell in range(m)
                )
            rows.append(row)
    return spec.leading**n * Fraction(q) ** q_exp * det_fraction_free(rows)


def disc_from_distinct_roots(spec: RootSpec, gamma) -> Fraction:
    """Discriminant evaluated through n distinct roots.

    Takes the n x n matrix whose block rows are F^(i)(alpha_j) * alpha_j^k
    for i = 1..s and k = gi-1..0, divides its determinant by the
    alternating power-matrix determinant of the roots, and scales by
    leading^(g1 - 2).  Both determinants run over the integers: the first
    is the l = 0 case of :func:`disc_from_multiple_roots_abs`'s matrix,
    and the power matrix of the alpha_j = P_j / Q is the power matrix of
    the integers P_j with row i scaled by Q^-(n-1-i), i = 0..n-1.  Every
    factor is put back exactly, so the result equals the Fraction
    determinants' quotient.
    """
    gamma = as_partition(gamma, spec.n)
    if any(m != 1 for _, m in spec.roots):
        raise ValueError("all multiplicities must be 1 (distinct-roots formula)")
    n = spec.n
    numer = _root_side_det(spec, gamma)
    q, points = _scaled_roots(spec)
    power_det = det_fraction_free([[p ** (n - 1 - i) for p in points] for i in range(n)])
    vandermonde = Fraction(power_det, q ** (n * (n - 1) // 2))
    return spec.leading ** (gamma[0] - 2) * numer / vandermonde


def disc_from_multiple_roots_abs(spec: RootSpec, gamma) -> Fraction:
    """Absolute value of the discriminant through repeated roots.

    Column blocks run over the distinct roots r_j with inner index
    l = 0..m_j-1; the entry is the l-th derivative of F^(i) * x^k at r_j.
    Every entry comes from one integer Taylor shift per distinct root and
    the Leibniz rule, and the determinant runs over the integers with the
    row and column scales put back exactly (see ``_root_side_det``).
    The overall sign of the scaling constant is not pinned down, so only
    the absolute value is returned.
    """
    gamma = as_partition(gamma, spec.n)
    det = _root_side_det(spec, gamma)
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
