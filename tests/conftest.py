"""Shared helpers for the test suite.

The Fraction polynomial helpers (``coeff``, ``derivative``, ``mul_power``,
``product``, ``scaled``, ``difference``) build the reference rows,
root-side values and test inputs the library is checked against; the
library itself never needs them, and ``UniPoly`` has no arithmetic.
``reference_rows`` writes the staircase rows of a discriminant matrix
entry by entry from ``math.perm``, sharing no code with the library's row
layout.  The
determinant oracles here are deliberately naive (permutation expansion, and Gaussian
elimination over the rationals) so they share no code path with the
fraction-free elimination they check; over SymPoly entries the expansion
sums and multiplies the term dicts itself, sharing no code with the packed
cofactor expansion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import perm

import pytest

from multidisc import SymPoly, UniPoly, engine, expand
from multidisc.roots import random_root_spec


@pytest.fixture(autouse=True)
def fresh_resultant_memo():
    """Empty the one-entry memo of ``disc_resultant`` around every test.

    A test that patches ``sylvester_resultant`` must see the PRS run, not an
    entry an earlier test left, and must not leave its own entry behind.
    """
    engine._last_resultant = (None, None)
    yield
    engine._last_resultant = (None, None)


def _signed_permutations(n):
    """Each permutation of range(n) with its sign, from the parity of its inversions."""
    for cols in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if cols[i] > cols[j])
        yield (-1 if inv % 2 else 1), cols


def reference_rows(coeffs, order: int, count: int, size: int) -> list:
    """The rows x^k * F^(order), k = count - 1 down to 0, of width ``size``.

    F has the ascending ``coeffs``.  Column j holds the coefficient of
    x^(size - 1 - j), which is coeffs[d] * d!/(d - order)! for the power
    d = size - 1 - j - k + order of F, and 0 when d is not in order..n.
    """
    n = len(coeffs) - 1
    rows = []
    for k in range(count - 1, -1, -1):
        powers = [size - 1 - j - k + order for j in range(size)]
        rows.append([coeffs[d] * perm(d, order) if order <= d <= n else 0 for d in powers])
    return rows


def perm_det(rows):
    """Determinant by explicit permutation expansion; fine up to ~7x7."""
    total = 0
    for sign, cols in _signed_permutations(len(rows)):
        prod = sign
        for row, j in zip(rows, cols):
            prod = prod * row[j]
        total = total + prod
    return total


def terms_sum(p: dict, q: dict) -> dict:
    """Sum of two term dicts, exponent tuple -> nonzero int coefficient."""
    out = dict(p)
    for exps, c in q.items():
        out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c}


def terms_product(p: dict, q: dict) -> dict:
    """Product of two term dicts, every term of p times every term of q."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            out[exps] = out.get(exps, 0) + c1 * c2
    return {exps: c for exps, c in out.items() if c}


def sym_perm_det(rows) -> SymPoly:
    """Determinant of a matrix of SymPoly entries of one ring by permutation
    expansion, with the sum and product of term dicts above."""
    nvars = rows[0][0].nvars
    total: dict = {}
    for sign, cols in _signed_permutations(len(rows)):
        prod = {(0,) * nvars: sign}
        for row, j in zip(rows, cols):
            prod = terms_product(prod, row[j].terms)
        total = terms_sum(total, prod)
    return SymPoly(nvars, total)


def det_rational(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals; any size, any
    int or Fraction entries, and always a Fraction."""
    rows = [[Fraction(e) for e in row] for row in rows]
    n = len(rows)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    return det


def random_int_poly(rng: random.Random, n: int, bound: int = 9) -> UniPoly:
    """Random integer polynomial of exact degree n."""
    coeffs = [rng.randint(-bound, bound) for _ in range(n)]
    lead = rng.choice([c for c in range(-bound, bound + 1) if c])
    return UniPoly(coeffs + [lead])


def coeff(poly: UniPoly, i: int) -> Fraction:
    """Coefficient of x^i, zero beyond the degree."""
    if 0 <= i < len(poly.coeffs):
        return poly.coeffs[i]
    return Fraction(0)


def derivative(poly: UniPoly, order: int = 1) -> UniPoly:
    """Formal derivative of the given order; zero when order exceeds degree."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return poly
    if order >= len(poly.coeffs):
        return UniPoly()
    return UniPoly(poly.coeffs[i] * perm(i, order) for i in range(order, len(poly.coeffs)))


def mul_power(poly: UniPoly, k: int) -> UniPoly:
    """Multiply by x^k (shift coefficients up by k)."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    if poly.is_zero or k == 0:
        return poly
    return UniPoly((Fraction(0),) * k + poly.coeffs)


def product(*polys: UniPoly) -> UniPoly:
    """Product of the given polynomials by schoolbook convolution; 1 for none."""
    out = [Fraction(1)]
    for poly in polys:
        acc = [Fraction(0)] * (len(out) + len(poly.coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(poly.coeffs):
                acc[i + j] += a * b
        out = acc
    return UniPoly(out)


def scaled(poly: UniPoly, c) -> UniPoly:
    """c * poly for a scalar c."""
    return UniPoly(c * a for a in poly.coeffs)


def difference(a: UniPoly, b: UniPoly) -> UniPoly:
    """a - b."""
    return UniPoly(coeff(a, i) - coeff(b, i) for i in range(max(len(a.coeffs), len(b.coeffs))))


def reference_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while not b.is_zero:
        _, r = divmod(a, b)
        a, b = b, r
    return scaled(a, 1 / a.leading)


def shift_poly(poly: UniPoly, offset) -> UniPoly:
    """Substitute x + offset for x (Horner over polynomials)."""
    base = UniPoly([Fraction(offset), 1])
    acc = UniPoly()
    for c in reversed(poly.coeffs):
        acc = difference(product(acc, base), UniPoly([-c]))
    return acc


def sqf_list_inputs() -> list[UniPoly]:
    """30 seeded polynomials of degree 20-40 for the sympy ``sqf_list`` oracles.

    Odd entries are root specs with 1..5 distinct roots and multiplicities
    from a random composition of n; even entries are dense rationals.
    """
    rng = random.Random(2040)
    polys = []
    for i in range(30):
        n = rng.randint(20, 40)
        if i % 2:
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, 4)))
            mu = sorted((b - a for a, b in zip([0, *cuts], [*cuts, n])), reverse=True)
            polys.append(expand(random_root_spec(rng, tuple(mu))))
        else:
            polys.append(UniPoly(
                [Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3])) for _ in range(n)]
                + [rng.choice([-4, 1, 3])]
            ))
    return polys
