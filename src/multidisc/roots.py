"""Root-side ground truth: build polynomials from prescribed roots and
verify multiplicity structure independently of the coefficient matrices.

Two independent routes live here: Yun squarefree decomposition (the
multiplicity oracle) and the root-side determinant formula that
expresses a signed discriminant through the roots instead of the
coefficients, with the confluent Vandermonde product of the roots as its
divisor.  ``disc_from_roots`` is that signed formula for any multiplicities.

Yun's algorithm runs over the integers.  The input is cleared once to a
primitive integer polynomial; every gcd is a primitive polynomial
remainder sequence (Collins 1967; Knuth, TAOCP vol. 2, 4.6.1) and every
quotient an exact integer division, so no rational is formed until the
factors are returned as monic rational polynomials.  Its gcds are not the
subresultant sequence of ``engine.sylvester_resultant``, which the
classifier uses, so the two gcd routes share no code.

The root-side formula runs over the integers.  With Q the lcm of the root
denominators, each root is r_j = P_j / Q with P_j an integer, and
F = leading * Q^-n * K(Q x) for the monic integer K = prod (x - P_j)^m_j.
So F^(d)(r_j) = leading * Q^(d-n) * K^(d)(P_j), and the values K^(d)(P_j)
come from one Taylor shift of K per distinct root (repeated synthetic
division; von zur Gathen and Gerhard, "Fast algorithms for Taylor
shifts", 1997).  The entry (x^k F^(i))^(l)(r_j) is leading * Q^(i-k-n)
(a row factor) times Q^l (a column factor) times the integer
E(k, l) = (y^k K^(i))^(l)(P_j).  As y'' = 0, the Leibniz rule gives
(y g)^(l) = y g^(l) + l g^(l-1), so E(k, l) = P_j E(k-1, l) + l E(k-1, l-1)
with E(0, l) = K^(i+l)(P_j): each row of a block is built from the row
above it, one product and one sum per entry.  The determinant runs on
these integer rows, the difference product on the integers P_j, and one
exact division at the end gives the rational value; no Fraction entry is
built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

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
    num, den = spec.leading.numerator, spec.leading.denominator
    # one normalization per coefficient, not one for K_e / Q^(n-e) and one for the product
    return UniPoly(Fraction(num * c, den * q ** (spec.n - e)) for e, c in enumerate(coeffs))


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content, with a positive leading coefficient."""
    c = gcd(*p)
    if p[0] < 0:
        c = -c
    return [x // c for x in p]


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials, highest power first.

    Primitive PRS (Collins 1967; Knuth, TAOCP vol. 2, 4.6.1): each
    pseudo-remainder is divided by its content, so the coefficients stay
    near the size of the inputs' instead of growing along the sequence as
    Euclid's do.  A pass whose top coefficient is already 0 only drops it;
    that changes the remainder by a power of lc(b), a constant the content
    takes out again.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        lead, tail, rem = b[0], b[1:], a
        while len(rem) >= len(b):
            top = rem[0]
            if top:
                rem = [lead * x - top * y for x, y in zip(rem[1:], tail)] + [
                    lead * x for x in rem[len(b) :]
                ]
            else:
                rem = rem[1:]
        start = next((i for i, c in enumerate(rem) if c), None)
        if start is None:
            return b
        a, b = b, _primitive(rem[start:])
    return [1]


def _exact_divide(a: list[int], b: list[int]) -> list[int]:
    """a / b over the integers, highest power first; a remainder raises ArithmeticError."""
    lead = b[0]
    rem = list(a)
    quo = []
    for i in range(len(a) - len(b) + 1):
        q, r = divmod(rem[i], lead)
        if r:
            _inexact()
        quo.append(q)
        if q:
            for j in range(1, len(b)):
                rem[i + j] -= q * b[j]
    if any(rem[len(quo) :]):
        _inexact()
    return quo


def _inexact() -> None:
    # b divides a by construction in Yun's algorithm; a remainder is a fault
    raise ArithmeticError("non-exact integer division in squarefree decomposition")


def _derivative(p: list[int]) -> list[int]:
    # not engine.derivative_coeffs, so the oracle's gcds share no code with the resultant's
    d = len(p) - 1
    return [c * (d - k) for k, c in enumerate(p[:-1])]


def _squarefree_ints(poly: UniPoly) -> list[tuple[list[int], int]]:
    """Yun's algorithm over Z: the primitive squarefree factors H_i, each
    with a positive leading coefficient and paired with i, of degree >= 1.

    F is poly cleared to a primitive integer polynomial with lc(F) > 0.
    The monic run over Q keeps v = V / lc(V) and w = W / lc(V) with V, W
    integer: V = F / U and W = F' / U for U = gcd(F, F') primitive, and
    then V / H and Z / H for Z = W - V' and H = gcd(V, Z) primitive.  By
    Gauss's lemma each quotient by a primitive divisor is exact over Z, so
    the invariant holds at every step and no rational is formed.  W and V'
    both have degree deg V - 1, and lc(Z) = lc(V) * sum_(j>i) (j - i) deg H_j,
    so Z is 0 exactly when V = H_i, and otherwise has degree deg V - 1.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    f = list(poly.clear_denominators()[0][::-1])
    if f[0] < 0:
        f = [-c for c in f]
    df = _derivative(f)
    u = _prs_gcd(f, df)
    v = _exact_divide(f, u)
    w = _exact_divide(df, u)
    factors: list[tuple[list[int], int]] = []
    i = 1
    while len(v) > 1:
        z = [c - d for c, d in zip(w, _derivative(v), strict=True)]
        if not any(z):
            factors.append((v, i))
            break
        h = _prs_gcd(v, z)
        if len(h) > 1:
            factors.append((h, i))
        v = _exact_divide(v, h)
        w = _exact_divide(z, h)
        i += 1
    return factors


def squarefree_decomposition(poly: UniPoly) -> tuple[Fraction, list[tuple[UniPoly, int]]]:
    """Yun's algorithm: poly = lc * prod g_i^i with the g_i monic, squarefree,
    and pairwise coprime.  Factors with empty content (degree 0) are skipped.

    Every step runs over Python ints with primitive-PRS gcds (see
    :func:`_squarefree_ints`); a factor becomes a monic Fraction polynomial
    only here, when it is returned.
    """
    factors = _squarefree_ints(poly)
    return poly.leading, [(UniPoly(Fraction(c, h[0]) for c in h[::-1]), i) for h, i in factors]


def squarefree_multiplicity(poly: UniPoly) -> Partition:
    """Multiplicity vector via squarefree decomposition (the independent oracle)."""
    mults: list[int] = []
    for h, i in _squarefree_ints(poly):
        mults.extend([i] * (len(h) - 1))
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


def disc_from_roots(spec: RootSpec, gamma) -> Fraction:
    """Signed D_gamma through the roots r_j of multiplicity m_j:

        (-1)^(sum C(m_j, 2)) * leading^(g1 - 2) * det M
        / (prod_j prod_(l<m_j) l! * prod_(i<j) (r_i - r_j)^(m_i m_j))

    M has row (i, k) and column (r_j, l) entry (x^k F^(i))^(l)(r_j): rows
    i = 1..s, k = gi-1..0; columns in root order, l = 0..m_j-1.  The sign
    is that of the confluent Vandermonde determinant in this column order;
    with every m_j = 1 it is +1 and this is the distinct-roots formula.

    With r_j = P_j / Q and K as in :func:`expand`, F^(d)(r_j) =
    leading * Q^(d-n) * K^(d)(P_j), and the entry is leading * Q^(i-k-n) *
    Q^l times the integer E(k, l) = (y^k K^(i))^(l)(P_j).  As y'' = 0, the
    Leibniz rule gives (y g)^(l) = y g^(l) + l g^(l-1), so within block i

        E(k, l) = P_j * E(k-1, l) + l * E(k-1, l-1),   E(0, l) = K^(i+l)(P_j).

    Row 0 is read off the Taylor values, each later row is built from the
    one above it (the left neighbour is the same root at l - 1), and the
    block is reversed so that k runs descending.  So ``det_fraction_free``
    runs on those integers, the difference product runs on the P_j, and
    leading and the powers of Q are put back as exponents in the one
    Fraction returned.  ``gamma`` must be a partition of n, or ValueError.
    """
    gamma = as_partition(gamma, spec.n)
    q, points = _scaled_roots(spec)
    mults = [m for _, m in spec.roots]
    desc = _monic_product(points, mults)[::-1]
    n, s = spec.n, len(gamma)
    values = [_derivative_values(desc, p, s + m - 1) for p, m in zip(points, mults)]
    # sum C(m_j, 2) is the sign's exponent and that of the column factors Q^l;
    # each factor (P_i - P_j) / Q of the difference product adds Q^(m_i m_j)
    pairs = sum(m * (m - 1) // 2 for m in mults)
    q_exp = pairs
    denom = 1
    for j, (p, m) in enumerate(zip(points, mults)):
        for ell in range(m):
            denom *= factorial(ell)
        for r, mr in zip(points[j + 1 :], mults[j + 1 :]):
            denom *= (p - r) ** (m * mr)
            q_exp += m * mr
    # (P_j, l) per column; at l = 0 the left neighbour belongs to another root
    # and its factor l is 0
    cols = [(p, ell) for p, m in zip(points, mults) for ell in range(m)]
    rows = []
    for i, gi in enumerate(gamma, start=1):
        row = [v for vals, m in zip(values, mults) for v in vals[i : i + m]]
        block = []
        for k in range(gi):
            if k:
                row = [p * e + ell * left for (p, ell), e, left in zip(cols, row, [0, *row])]
            q_exp += i - k - n
            block.append(row)
        rows.extend(reversed(block))
    numer = det_fraction_free(rows)
    if pairs % 2:
        numer = -numer
    lead_exp = n + gamma[0] - 2
    numer *= spec.leading.numerator**lead_exp * q ** max(q_exp, 0)
    denom *= spec.leading.denominator**lead_exp * q ** max(-q_exp, 0)
    return Fraction(numer, denom)


def disc_from_distinct_roots(spec: RootSpec, gamma) -> Fraction:
    """:func:`disc_from_roots` for n distinct roots; a repeated root raises ValueError.

    Kept only for the benchmark's verify workload, which calls it and wraps it.
    """
    if any(m != 1 for _, m in spec.roots):
        raise ValueError("all multiplicities must be 1 (distinct-roots formula)")
    return disc_from_roots(spec, gamma)


def disc_from_multiple_roots_abs(spec: RootSpec, gamma) -> Fraction:
    """The absolute value of :func:`disc_from_roots`.

    Kept only for the benchmark's verify workload, which calls it and wraps it.
    """
    return abs(disc_from_roots(spec, gamma))


# Half-integers in [-9, 9]; small values keep the exact arithmetic compact.
_ROOT_POOL = [Fraction(k, 2) for k in range(-18, 19)]
_LEADING_POOL = [i for i in range(-5, 6) if i]


def random_root_spec(rng: random.Random, multiplicities) -> RootSpec:
    """Seeded random spec with the given multiplicity vector."""
    mults = tuple(multiplicities)
    roots = rng.sample(_ROOT_POOL, len(mults))
    leading = Fraction(rng.choice(_LEADING_POOL))
    return RootSpec(tuple(zip(roots, mults)), leading)
