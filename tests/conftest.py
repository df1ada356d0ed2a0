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

The harness: ``spy`` records the args of each call of a function or
method and lets the call run; ``traced_peak`` is the one tracemalloc probe;
``QUINTIC`` is the paper's reference quintic; ``ENGINE``, ``CLASSIFY`` and
``CLI`` are the modules that tests patch.

The checkers below the Fraction helpers each check one fact that several
tests check, every test on its own inputs.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from fractions import Fraction
from importlib import import_module
from itertools import permutations
from math import perm, prod

import pytest

from multidisc import (
    SymPoly,
    UniPoly,
    classify,
    classify_trace,
    conjugate,
    degree_table,
    disc_from_roots,
    disc_value,
    expand,
    iter_partitions,
    squarefree_multiplicity,
)
from multidisc.roots import random_root_spec

# the package's classify function shadows the module of the same name
ENGINE, CLASSIFY, CLI = (import_module(f"multidisc.{name}") for name in ("engine", "classify", "cli"))

# x^5 - 5x^4 + 7x^3 + x^2 - 8x + 4 = (x - 1)^2 (x + 1) (x - 2)^2, delta = (3, 2)
QUINTIC = UniPoly.from_descending([1, -5, 7, 1, -8, 4])

# Table 1 of the paper, n = 3..9: (d_yhz, d_hy21, d_hy22)
TABLE_1 = {
    3: (5, 5, 4),
    4: (9, 7, 6),
    5: (15, 9, 8),
    6: (27, 11, 10),
    7: (45, 13, 12),
    8: (81, 15, 14),
    9: (135, 17, 16),
}


@pytest.fixture(autouse=True)
def fresh_resultant_memo():
    """Empty the one-entry memo of ``disc_resultant`` around every test.

    A test that patches ``sylvester_resultant`` must see the PRS run, not an
    entry an earlier test left, and must not leave its own entry behind.
    """
    ENGINE._last_resultant = (None, None)
    yield
    ENGINE._last_resultant = (None, None)


def spy(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name``, a function or a method, and return the list that
    gets each call's args tuple; the call itself runs unchanged."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


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
    values = [coeffs[d] * perm(d, order) for d in range(n + 1)]
    rows = []
    for k in range(count - 1, -1, -1):
        powers = [size - 1 - j - k + order for j in range(size)]
        rows.append([values[d] if order <= d <= n else 0 for d in powers])
    return rows


def row_layout(gamma) -> list[tuple[int, int]]:
    """(derivative order, shift) of each row of the gamma matrix, top to bottom.

    g1 - 1 rows of F, then gi rows of F^(i) for each part gi, every block's
    shifts descending to 0.
    """
    counts = [gamma[0] - 1, *gamma]
    return [(order, shift) for order, count in enumerate(counts) for shift in range(count - 1, -1, -1)]


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


def assert_quintic_trace(trace) -> None:
    """``trace`` is QUINTIC's: D(5) = D(4,1) = 0 and D(3,2) != 0, so mu = (2, 2, 1)."""
    assert list(trace.zero_steps()) == [(5,), (4, 1)]
    assert trace.delta == (3, 2) and trace.value != 0
    assert trace.result == (2, 2, 1) == conjugate(trace.delta)


def encoder_record(text: str) -> dict:
    """The record the JSON line ``text`` holds, which must be the bytes
    ``json.dumps(record, sort_keys=True)`` gives for it."""
    data = json.loads(text)
    assert json.dumps(data, sort_keys=True) == text
    return data


def assert_quintic_record(text: str) -> None:
    """``text`` is the JSON line of QUINTIC's classification, in the bytes
    ``json.dumps(record, sort_keys=True)`` gives."""
    data = encoder_record(text)
    assert (data["input"], data["n"], data["multiplicity"]) == ("1,-5,7,1,-8,4", 5, [2, 2, 1])
    zero = [{"gamma": gamma, "nonzero": False, "value": "0"} for gamma in ([5], [4, 1])]
    assert data["steps"][:2] == zero and len(data["steps"]) == 3
    assert data["steps"][-1]["nonzero"] is True


def trace_steps(trace) -> list[tuple]:
    """(gamma, D_gamma, D_gamma != 0) per step of ``trace``: the zero steps, then delta."""
    zero = Fraction(0)
    steps = [(gamma, zero, False) for gamma in trace.zero_steps()]
    return steps + [(trace.delta, trace.value, trace.value != 0)]


def json_steps(trace) -> list[dict]:
    """The steps of ``trace`` as the CLI's JSON record holds them."""
    return [{"gamma": list(gamma), "value": str(value), "nonzero": nonzero}
            for gamma, value, nonzero in trace_steps(trace)]


def reference_trace(poly) -> list[tuple]:
    """The plain scan: (gamma, D_gamma, D_gamma != 0) for every gamma in
    order, up to the first nonzero D_gamma."""
    steps = []
    for gamma in iter_partitions(poly.degree):
        value = disc_value(poly, gamma).value
        steps.append((gamma, value, value != 0))
        if value:
            return steps
    raise AssertionError("chain exhausted")


def assert_trace_is_reference(poly) -> None:
    """classify_trace(poly) holds the plain scan's steps, and mu = conj(delta)."""
    trace = classify_trace(poly)
    assert trace_steps(trace) == reference_trace(poly), poly
    assert trace.result == conjugate(trace.delta)


def assert_classified(poly, mu):
    """The classification and Yun's squarefree decomposition both give ``mu``,
    and the chain breaks at delta = conj(mu); returns the trace.  They share
    no gcd code (``roots._prs_gcd`` is Yun's own), so each checks the other."""
    trace = classify_trace(poly)
    assert (trace.result, trace.delta) == (mu, conjugate(mu)), poly
    assert squarefree_multiplicity(poly) == mu, poly
    return trace


def zeros_before_conjugate(poly, mu) -> int:
    """The paper's two lemmas for ``poly`` of multiplicity vector ``mu``:
    D_lam = 0 for every lam before conj(mu), and D_conj(mu) != 0.  Returns
    the number of zeros checked."""
    steps = reference_trace(poly)
    assert steps[-1][0] == conjugate(mu), (mu, poly)
    return len(steps) - 1


def assert_root_side(spec, gammas) -> list[Fraction]:
    """The signed root-side formula ``disc_from_roots(spec, gamma)`` is
    D_gamma of expand(spec), the same Fraction, for each gamma; returns the
    values."""
    poly = expand(spec)
    values = []
    for gamma in gammas:
        value, expected = disc_from_roots(spec, gamma), disc_value(poly, gamma).value
        assert type(value) is type(expected) and value == expected, (spec, gamma)
        values.append(value)
    return values


def all_ones_disc(n: int, leading):
    """D_(1^n) in closed form: prod_(i<=n) i^i * leading^(n-1)."""
    return prod(i**i for i in range(1, n + 1)) * leading ** (n - 1)


def check_all_ones(rng: random.Random, trials: int) -> int:
    """D_(1^n) of ``trials`` random integer polynomials of each degree
    n = 2..8 against ``all_ones_disc``; returns the number checked."""
    degrees = range(2, 9)
    for n in degrees:
        for _ in range(trials):
            poly = random_int_poly(rng, n)
            assert disc_value(poly, (1,) * n).value == all_ones_disc(n, poly.leading), poly
    return len(degrees) * trials


def assert_leaf_invariant(poly, gamma, c, t=None):
    """D_gamma(c F) = c^(n + g1 - 2) D_gamma(F), and, given ``t``,
    D_gamma(F(x + t)) = D_gamma(F); returns D_gamma(F)."""
    value = disc_value(poly, gamma).value
    scaled_value = disc_value(scaled(poly, c), gamma).value
    assert scaled_value == c ** (poly.degree + gamma[0] - 2) * value, (poly, gamma, c)
    if t is not None:
        assert disc_value(shift_poly(poly, t), gamma).value == value, (poly, gamma, t)
    return value


def assert_scale_and_shift_invariant(poly, mu, c, t) -> None:
    """``classify`` gives ``mu`` for c * poly and for poly(x + t)."""
    assert classify(scaled(poly, c)) == mu, (mu, c, poly)
    assert classify(shift_poly(poly, t)) == mu, (mu, t, poly)


def assert_table_1() -> None:
    """degree_table(9) yields the rows n = 3..9 of TABLE_1, in order."""
    rows = [(row.n, row.d_yhz, row.d_hy21, row.d_hy22) for row in degree_table(9)]
    assert rows == [(n, *columns) for n, columns in TABLE_1.items()]
