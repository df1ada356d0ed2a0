"""Deep checks of the classification and the resultant at degree 36-85.

    PYTHONPATH=src python tests/deep_checks.py root-side
    PYTHONPATH=src python tests/deep_checks.py resultant

``root-side`` classifies (20,20), (12,12,12), (10,10,10,10) and (14,11,11)
at degree 36-40, with integer and half-integer roots and leading
coefficient -3, and compares D_delta with the signed root-side determinant
``disc_from_roots``, which takes 0.04-0.09 s each; the Fraction references
are far too slow at this degree.  The sign (-1)^(sum C(m_j, 2)) is odd only
for the last.

``resultant`` compares ``sylvester_resultant(F, F')`` with the Bareiss
determinant of the Sylvester matrix for seeded dense F at n = 40, 60, 80,
where the wrapped ``engine._prem`` sees every step drop the degree by one
(the one-pass step), and for F * (x - 2)^2 * (x + 1)^3 at n = 85, built on
the integer list one linear factor at a time, where G = (x - 2)(x + 1)^2,
the determinant is 0 and psc is nonzero.  0.07, 0.3 and 1.1 s for the
dense F, 1.6 s for the last.

Each check raises AssertionError at its first mismatch.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction as F

from multidisc import RootSpec, classify_trace, disc_from_roots, engine, expand
from multidisc.engine import derivative_coeffs, det_fraction_free, sylvester_resultant


def root_side() -> None:
    for roots in (
        ((F(3, 2), 20), (-2, 20)),
        ((1, 12), (F(-1, 2), 12), (3, 12)),
        ((F(1, 2), 10), (-1, 10), (F(-5, 2), 10), (2, 10)),
        ((-1, 14), (F(5, 2), 11), (0, 11)),
    ):
        spec = RootSpec(roots, -3)
        trace = classify_trace(expand(spec))
        assert trace.result == spec.multiplicities(), (roots, trace.result)
        assert trace.value and disc_from_roots(spec, trace.delta) == trace.value, roots


def resultant() -> None:
    deltas = []
    prem = engine._prem
    engine._prem = lambda a, b: deltas.append(len(a) - len(b)) or prem(a, b)

    def check(ints):
        a, b = derivative_coeffs(ints, 0), derivative_coeffs(ints, 1)
        m, l = len(a) - 1, len(b) - 1
        rows = [[0] * i + a + [0] * (l - 1 - i) for i in range(l)]
        rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
        deltas.clear()
        divisor, psc = sylvester_resultant(a, b)
        assert psc and det_fraction_free(rows) == (psc if divisor == [1] else 0)
        return divisor

    rng = random.Random(4080)
    for n in (40, 60, 80):
        ints = [rng.randint(-99, 99) for _ in range(n)] + [rng.choice([-7, 3, 5])]
        assert check(ints) == [1] and deltas == [1] * (n - 1), n
    repeated = ints
    for root in (2, 2, -1, -1, -1):
        # times (x - root): the coefficient of x^e is a_(e-1) - root * a_e
        repeated = [a - root * b for a, b in zip([0] + repeated, repeated + [0])]
    divisor = check(repeated)
    assert divisor in ([1, 0, -3, -2], [-1, 0, 3, 2]), divisor


CHECKS = {"root-side": root_side, "resultant": resultant}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(CHECKS)}}}")
    CHECKS[sys.argv[1]]()
    print(f"OK: deep {sys.argv[1]} check")
