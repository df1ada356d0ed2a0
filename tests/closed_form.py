"""D_delta in closed form from the roots: an oracle that runs no determinant.

    PYTHONPATH=src python tests/closed_form.py

Let F = lead * prod_j (x - r_j)^(m_j) have degree n and k distinct roots,
listed by non-increasing multiplicity m_1 >= ... >= m_k (ties in any order),
and let delta = conjugate(m), the partition at which the classification
breaks.  With d_m the number of roots of multiplicity m,

    H = prod_j prod_(l=1..m_j) l^l,
    e = sum_m C(m+1, 2) C(d_m, 2) + sum_(a>b) C(b+1, 2) d_a d_b,

the discriminant at delta is

    D_delta = (-1)^e * H * lead^(n+k-2) * prod_(i<j) (r_i - r_j)^(m_i m_j + min(m_i, m_j)).

It is nonzero for every F with these multiplicities, which is the
non-vanishing half of the classification (the row count in the ``classify``
docstring is the other half).

Proof.  ``roots.disc_from_roots`` gives, for a partition gamma of s parts,

    D_gamma = (-1)^(sum_j C(m_j, 2)) * lead^(g1-2) * det M
              / (prod_j prod_(l<m_j) l! * prod_(i<j) (r_i - r_j)^(m_i m_j)),

where M has rows (i, k), i = 1..s and k = g_i - 1..0, columns (j, l) in
root order with l = 0..m_j - 1, and entry (x^k F^(i))^(l)(r_j).  Take
gamma = delta, so s = m_1, g_i = #{j : m_j >= i} and g1 = k.  Group the
columns by t = m_j - l, from t = 1 to s; group t has one column per root
with m_j >= t, g_t columns in all.

* Row block i vanishes on every column with t > i: F^(i) vanishes to order
  m_j - i at r_j, so does x^k F^(i), and l = m_j - t < m_j - i.  With the
  row blocks i = 1..s and the column groups t = 1..s, M is block lower
  triangular with square diagonal blocks.
* On the diagonal, t = i, and every Leibniz term of (x^k F^(t))^(m_j - t)
  at r_j but the one that puts all derivatives on F^(t) is 0, so the entry
  is r_j^k F^(m_j)(r_j).  The block is the Vandermonde matrix of the r_j
  with m_j >= t, rows k descending, which has determinant
  prod_(a<b) (r_a - r_b), times diag F^(m_j)(r_j).
* Each root j lies in the m_j groups t = 1..m_j.  So the diagonal blocks
  give prod_(i<j) (r_i - r_j)^(min(m_i, m_j)) * prod_j F^(m_j)(r_j)^(m_j).
* F^(m)(r_j) = m! * lead * prod_(l != j) (r_j - r_l)^(m_l) for m = m_j, so
  prod_j F^(m_j)(r_j)^(m_j) = prod_j (m_j!)^(m_j) * lead^n
  * (-1)^(sum_(i<j) m_i m_j) * prod_(i<j) (r_i - r_j)^(2 m_i m_j).
* Dividing by the root side's divisor leaves the exponents
  m_i m_j + min(m_i, m_j), the power lead^(n + g1 - 2) = lead^(n+k-2), and
  the constant prod_j (m_j!)^(m_j) / prod_(l<m_j) l! = H: the quotient
  (m!)^m / prod_(l<m) l! is prod_(l<m) (l+1)(l+2)...m, where each i <= m
  is a factor once for each l < i, so it is prod_(i<=m) i^i.
* The sign.  Moving the columns from root order into the groups is a
  permutation.  Within one root, its columns run t = m_j..1 and must run
  upwards: C(m_j, 2) inversions, which cancel the root side's sign.  For
  roots i < j with m_i = a >= b = m_j, a column pair inverts when its t at
  r_i exceeds its t at r_j: ab - C(b+1, 2) pairs.  Adding the
  sum_(i<j) m_i m_j above, the sign's exponent is
  sum_(i<j) C(min(m_i, m_j) + 1, 2) mod 2, which is e grouped by the
  multiplicities.  Swapping two roots of one multiplicity m changes no
  sign, as m^2 + m is even.

The value is built with ``fractions``, ``itertools`` and ``math`` alone,
from the spec's roots and leading coefficient: no ``multidisc`` code runs
in it.
tests/test_roots.py compares it with ``classify_trace(expand(spec)).value``
on every mu with n <= 12 at two leading coefficients and on the deep inputs
up to n = 60; the script runs the deep inputs from n = 59 to 80, where the
root-side determinant is the slow check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, prod

from multidisc import RootSpec, classify_trace, expand


def closed_form(spec) -> Fraction:
    """D_delta of ``lead * prod (x - r)^m`` for ``spec`` (a ``RootSpec``)."""
    roots = sorted(spec.roots, key=lambda root: -root[1])
    mults = [m for _, m in roots]
    n, k = sum(mults), len(mults)
    e = sum(comb(min(a, b) + 1, 2) for a, b in combinations(mults, 2))
    h = prod(ell**ell for m in mults for ell in range(1, m + 1))
    diffs = prod(
        (ri - rj) ** (mi * mj + min(mi, mj)) for (ri, mi), (rj, mj) in combinations(roots, 2)
    )
    return (-1) ** e * h * spec.leading ** (n + k - 2) * diffs


def _power_product(roots, m: int, lead=1) -> RootSpec:
    return RootSpec(tuple((r, m) for r in roots), lead)


# (20,20) at rational roots; (x - 1)^3 (x - 2) ... (x - 57); prod (x - i)^3
# over i <= 20 at lead -3/7; and prod (x - i)^2 over i <= h for n = 2h = 60..80
DEEP = (
    RootSpec(((Fraction(3, 2), 20), (-2, 20)), -3),
    RootSpec(((1, 3), *((i, 1) for i in range(2, 58))), 1),
    _power_product(range(1, 21), 3, Fraction(-3, 7)),
    *(_power_product(range(1, h + 1), 2) for h in range(30, 41)),
)


def check(specs) -> int:
    """Number of specs checked; AssertionError at the first whose closed form
    is not the classification's D_delta."""
    count = 0
    for spec in specs:
        value = classify_trace(expand(spec)).value
        assert closed_form(spec) == value, f"closed form differs at {spec.roots}"
        count += 1
    return count


if __name__ == "__main__":
    deep = [spec for spec in DEEP if spec.n >= 59]
    count = check(deep)
    low, high = min(spec.n for spec in deep), max(spec.n for spec in deep)
    print(f"OK: closed form = D_delta on {count} inputs of degree {low}-{high}")
