"""Invariants of the parametric discriminants: an oracle past degree 8.

    PYTHONPATH=src python tests/symbolic_invariants.py 9

The CLI digests pin the bytes of ``disc_symbolic`` for n <= 8 and at (8, 1)
of n = 9 only.  For every gamma of each given n, this checks
D_gamma = disc_symbolic(n, gamma) against facts that do not come from its own
output:

* It is homogeneous of degree n + g1 - 2: every entry of the matrix, of
  order n + g1 - 1, is one term of degree 1 or 0, and the division by an
  takes one degree off.
* It is isobaric: with a_d of weight d, every term has weight

      w(gamma) = C(n + g1 - 1, 2) - C(g1 - 1, 2) + sum_i (i g_i - C(g_i, 2)) - n.

  In the column of x^j, the row x^k F^(o) holds a multiple of a_(j - k + o),
  so a term weighs sum (o - k) over the rows plus sum j over the columns.
  Block 0 has shifts 0..g1 - 2 and block i has g_i rows of order i with
  shifts 0..g_i - 1; the columns give C(n + g1 - 1, 2), and an takes n off.
* At one seeded integer point it equals ``disc_value``, which takes the
  concrete route: the row count, the reduction through gcd(F, F') or Bareiss.
* D_(n) has as many terms as the classical discriminant of degree n, OEIS
  A007878, for n = 3..10.

For n = 9 and n = 10 it also pins the bytes of D_(n): the sha256 of its
``str`` and one newline, which is what ``multidisc discriminant --format poly``
prints (tests/test_cli.py checks that the CLI prints the library's text).
These two digests were recorded from the code itself, so they catch a change
of output, not a wrong one.

L * D = 0, the translation invariance, is not checked: ``disc_symbolic``
builds D from it.  It needs no pytest; tests/test_engine.py runs it for
n <= 7, and CI for n = 9 and n = 10, the only run that builds D_(9) and D_(10).

``sweep`` is the homogeneity and specialization check alone, and
``check_symbolic`` runs it and returns the largest total degree it saw; the
tests of these facts call it.
"""

from __future__ import annotations

import hashlib
import random
import sys
from math import comb

from multidisc import UniPoly, disc_symbolic, disc_value, iter_partitions

# terms of the classical discriminant of degree n (OEIS A007878)
A007878 = {3: 5, 4: 16, 5: 59, 6: 246, 7: 1103, 8: 5247, 9: 26059, 10: 133881}
# sha256 of str(D_(n)) + "\n", the bytes that ``discriminant --format poly`` prints
SHA256 = {
    9: "147ed0209e6b2b068c8f29c7885a1689dfa8871e914c1621eec9cf03874732ca",
    10: "86a22f616efabbabf2c802d9ba31f0bfbc7bfb258e8ad553c77688b946cd9714",
}


def weight(gamma) -> int:
    """The isobaric weight w(gamma) of the module docstring."""
    n, g1 = sum(gamma), gamma[0]
    blocks = sum(i * g - comb(g, 2) for i, g in enumerate(gamma, start=1))
    return comb(n + g1 - 1, 2) - comb(g1 - 1, 2) + blocks - n


def sweep(n: int, rng=None, points: int = 0, bound: int = 20, leads=(-3, -1, 1, 2, 5)):
    """Yield (gamma, D_gamma) for every gamma of n, each once it is checked.

    D_gamma must be nonzero and homogeneous of degree n + g1 - 2, and equal
    ``disc_value`` at ``points`` integer points drawn from ``rng``: n entries
    in -bound..bound, then a leading entry from the nonzero ``leads``.
    """
    leads = [c for c in leads if c]
    for gamma in iter_partitions(n):
        value = disc_symbolic(n, gamma).value
        degree = n + gamma[0] - 2
        assert value.terms, f"{gamma}: D_gamma is 0"
        for exps in value.terms:
            assert sum(exps) == degree, f"{gamma}: term {exps} is not of degree {degree}"
        for _ in range(points):
            point = [rng.randint(-bound, bound) for _ in range(n)] + [rng.choice(leads)]
            expected = disc_value(UniPoly(point), gamma).value
            assert value.evaluate(point) == expected, f"{gamma}: differs from disc_value at {point}"
        yield gamma, value


def check_symbolic(n: int, rng=None, **options) -> int:
    """Check every D_gamma of n by ``sweep(n, rng, **options)``; returns the
    largest total degree among them."""
    return max(max(map(sum, value.terms)) for _, value in sweep(n, rng, **options))


def check(n: int, seed: int = 9) -> int:
    """Number of gamma of n checked; AssertionError at the first that fails."""
    rng = random.Random(seed * 1000 + n)
    count = 0
    for gamma, value in sweep(n, rng, points=1):
        w = weight(gamma)
        for exps in value.terms:
            assert sum(d * e for d, e in enumerate(exps)) == w, f"{gamma}: {exps} weighs not {w}"
        if gamma == (n,) and n in A007878:
            terms = len(value.terms)
            assert terms == A007878[n], f"D_({n}) has {terms} terms, not {A007878[n]}"
        if gamma == (n,) and n in SHA256:
            digest = hashlib.sha256((str(value) + "\n").encode()).hexdigest()
            assert digest == SHA256[n], f"D_({n}) prints with sha256 {digest}, not {SHA256[n]}"
        count += 1
    return count


if __name__ == "__main__":
    for n in map(int, sys.argv[1:] or ["7"]):
        count = check(n)
        print(f"OK: {count} D_gamma of degree {n} are homogeneous, isobaric and equal disc_value")
