"""Check ``d_yhz`` against the nested gcd system itself, restricted to a line.

    PYTHONPATH=src python tests/nested_system.py 9 10

For every multiplicity vector mu of each given n, with delta = conjugate(mu)
and D_j = delta_j + ... + delta_s, level j of the nested system takes P_j,
of formal degree D_j (P_1 = F, the generic polynomial of degree n), and its
derivative.  It computes psc_i(P_j, P_j') for i = 0..D_(j+1), and passes
P_(j+1) = S_(D_(j+1))(P_j, P_j') to the next level (Yang-Hou-Zeng 1996;
subresultants as in Collins 1967).  Each psc_i and each coefficient of S_i is
a determinant of the integer Sylvester rows of the pair.

The coefficients of F are put on the line a = u + t v, with seeded integer
vectors u and v (v has no zero entry), and the system is evaluated at
t = 0..B + 1 with B = d_yhz(mu).  A polynomial's degree in t is its highest
nonzero forward difference.  The degree along a line is at most the total
degree, and every polynomial of the system has total degree at most B (a
determinant of order r with entries of degree e has degree at most r e), so
a line degree of B proves that B is the system's exact maximum degree.  The
point t = B + 1 checks that bound too: a d_yhz below the true degree would
show as line degree B + 1, where B + 1 points could still fit degree B.  The
rows come from ``reference_rows`` of tests/conftest.py, so it needs pytest,
which the test extra installs; tests/test_degrees.py runs it for n <= 8.
"""

from __future__ import annotations

import random
import sys

from multidisc import conjugate, d_yhz
from multidisc.engine import det_fraction_free
from multidisc.partitions import iter_partitions

from conftest import reference_rows

NONZERO = [c for c in range(-9, 10) if c]


def _rows(p: list[int], i: int) -> list[list[int]]:
    """The D - 1 - i shifts of ``p`` above the D - i shifts of p', of width
    2D - 1 - i; ``p`` has descending coefficients and formal degree D = len(p) - 1."""
    d = len(p) - 1
    width = 2 * d - 1 - i
    return reference_rows(p[::-1], 0, d - 1 - i, width) + reference_rows(p[::-1], 1, d - i, width)


def _pscs(coeffs: list[int], delta) -> list[int]:
    """Every psc of the nested system for the polynomial with descending
    ``coeffs``, level by level."""
    p = coeffs
    pscs = []
    rest = sum(delta)
    for part in delta:
        rest -= part
        for i in range(rest):
            rows = _rows(p, i)
            r = len(rows)
            pscs.append(det_fraction_free([row[:r] for row in rows]))
        # P_(j+1) = S_rest(P_j, P_j'): the coefficient of x^(rest - e) is the
        # determinant of the first r - 1 columns and column r - 1 + e, and the
        # leading one is psc_rest (at the last level, rest = 0 and it is Res)
        rows = _rows(p, rest)
        r = len(rows)
        p = [
            det_fraction_free([row[: r - 1] + [row[r - 1 + e]] for row in rows])
            for e in range(rest + 1)
        ]
        pscs.append(p[0])
    return pscs


def _degree(values: list[int]) -> int:
    """Degree in t of the polynomial of degree below len(values) that takes
    these values at t = 0, 1, ...; -1 for the zero polynomial."""
    degree = -1
    for k in range(len(values)):
        if values[0]:
            degree = k
        values = [b - a for a, b in zip(values, values[1:])]
    return degree


def check(n: int) -> int:
    """Number of mu of ``n`` checked; AssertionError at the first whose line
    degree is not ``d_yhz(mu)``."""
    rng = random.Random(f"nested/{n}")
    count = 0
    for mu in iter_partitions(n):
        u = [rng.randint(-9, 9) for _ in range(n + 1)]
        v = [rng.choice(NONZERO) for _ in range(n + 1)]
        bound = d_yhz(mu)
        delta = conjugate(mu)
        columns = [_pscs([a + t * b for a, b in zip(u, v)], delta) for t in range(bound + 2)]
        reached = max(_degree(list(values)) for values in zip(*columns))
        assert reached == bound, f"mu = {mu}: line degree {reached}, d_yhz = {bound}"
        count += 1
    return count


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(f"OK: n = {arg}, line degree = d_yhz on all {check(int(arg))} mu")
