"""Acceptance suite: one test per criterion, every check exact (no epsilons).

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; with ``-s`` each test also prints a summary of what it swept.
"""

import random
import time
from fractions import Fraction

import pytest

from multidisc import (
    UniPoly,
    classify,
    classify_trace,
    conjugate,
    degree_table,
    disc_from_roots,
    disc_symbolic,
    disc_value,
    expand,
    iter_partitions,
    squarefree_multiplicity,
)
from multidisc.roots import disc_from_distinct_roots, disc_from_multiple_roots_abs, random_root_spec

from conftest import random_int_poly, scaled, shift_poly

QUINTIC = UniPoly.from_descending([1, -5, 7, 1, -8, 4])

SWEEP_SEED = 20230417
SWEEP_TRIALS = 20
SWEEP_MAX_N = 7


@pytest.fixture(scope="module")
def sweep_specs():
    """Seeded root specs: 20 per multiplicity vector, degrees 1..7."""
    rng = random.Random(SWEEP_SEED)
    specs = {}
    for n in range(1, SWEEP_MAX_N + 1):
        for mu in iter_partitions(n):
            specs[(n, mu)] = [random_root_spec(rng, mu) for _ in range(SWEEP_TRIALS)]
    return specs


def test_criterion_1_reference_quintic_classification():
    start = time.perf_counter()
    trace = classify_trace(QUINTIC)
    elapsed = time.perf_counter() - start
    assert trace.result == (2, 2, 1)
    assert [s.gamma for s in trace.steps] == [(5,), (4, 1), (3, 2)]
    assert trace.steps[0].value == 0
    assert trace.steps[1].value == 0
    assert trace.steps[2].value != 0
    assert elapsed < 1.0
    print(f"PASS criterion 1: quintic -> (2,2,1) in {elapsed * 1000:.1f} ms")


def test_criterion_2_last_discriminant_closed_form():
    rng = random.Random(SWEEP_SEED + 1)
    checked = 0
    for n in range(2, 9):
        product = 1
        for i in range(1, n + 1):
            product *= i**i
        for _ in range(20):
            poly = random_int_poly(rng, n)
            value = disc_value(poly, (1,) * n).value
            assert value == product * poly.leading ** (n - 1), (n, poly)
            checked += 1
    print(f"PASS criterion 2: closed form exact on {checked} random polynomials")


def test_criterion_3_oracle_equivalence_sweep(sweep_specs):
    checked = 0
    for (n, mu), specs in sweep_specs.items():
        for spec in specs:
            poly = expand(spec)
            assert classify(poly) == mu, (n, mu, spec)
            assert squarefree_multiplicity(poly) == mu, (n, mu, spec)
            checked += 1
    print(f"PASS criterion 3: {checked} classifications agree with both oracles")


def test_criterion_4_vanishing_and_nonvanishing_lemmas(sweep_specs):
    zero_checks = 0
    nonzero_checks = 0
    for (n, mu), specs in sweep_specs.items():
        partitions = list(iter_partitions(n))
        bar_mu = conjugate(mu)
        for spec in specs:
            poly = expand(spec)
            for lam in partitions:
                if lam > bar_mu:
                    assert disc_value(poly, lam).value == 0, (mu, lam, spec)
                    zero_checks += 1
                elif lam == bar_mu:
                    assert disc_value(poly, lam).value != 0, (mu, spec)
                    nonzero_checks += 1
    print(
        f"PASS criterion 4: {zero_checks} vanishing and "
        f"{nonzero_checks} nonvanishing checks"
    )


def test_criterion_5_distinct_roots_identity():
    rng = random.Random(SWEEP_SEED + 2)
    checked = 0
    for n in range(1, 7):
        partitions = list(iter_partitions(n))
        for _ in range(10):
            spec = random_root_spec(rng, (1,) * n)
            poly = expand(spec)
            for gamma in partitions:
                lhs = disc_from_distinct_roots(spec, gamma)
                rhs = disc_value(poly, gamma).value
                assert lhs == rhs, (n, gamma, spec)
                checked += 1
    print(f"PASS criterion 5: root-side identity exact on {checked} (spec, gamma) pairs")


def test_criterion_6_multiple_roots_identity_abs():
    rng = random.Random(SWEEP_SEED + 3)
    checked = 0
    for n in range(1, 7):
        partitions = list(iter_partitions(n))
        for mu in partitions:
            for _ in range(10):
                spec = random_root_spec(rng, mu)
                poly = expand(spec)
                for gamma in partitions:
                    rhs = disc_value(poly, gamma).value
                    assert disc_from_roots(spec, gamma) == rhs, (mu, gamma, spec)
                    lhs = disc_from_multiple_roots_abs(spec, gamma)
                    assert lhs == abs(rhs), (mu, gamma, spec)
                    checked += 1
    print(f"PASS criterion 6: signed and absolute identities exact on {checked} (spec, gamma) pairs")


def test_criterion_7_degree_table_reproduction():
    rows = list(degree_table(9))
    assert [r.d_yhz for r in rows] == [5, 9, 15, 27, 45, 81, 135]
    assert [r.d_hy21 for r in rows] == [5, 7, 9, 11, 13, 15, 17]
    assert [r.d_hy22 for r in rows] == [4, 6, 8, 10, 12, 14, 16]
    print("PASS criterion 7: degree table rows n=3..9 match exactly")


def test_criterion_8_symbolic_degrees_and_specialization():
    rng = random.Random(SWEEP_SEED + 4)
    specialized = 0
    for n in range(1, 6):
        worst = 0
        for gamma in iter_partitions(n):
            d = disc_symbolic(n, gamma)
            worst = max(worst, max(map(sum, d.value.terms)))
            for _ in range(5):
                vec = [rng.randint(-9, 9) for _ in range(n)]
                vec.append(rng.choice([c for c in range(-9, 10) if c]))
                poly = UniPoly(vec)
                assert d.value.evaluate(vec) == disc_value(poly, gamma).value, (n, gamma)
                specialized += 1
        assert worst == 2 * n - 2, n
    print(f"PASS criterion 8: symbolic degrees peak at 2n-2; {specialized} specializations match")


def test_criterion_9_invariance_under_scaling_and_shift(sweep_specs):
    rng = random.Random(SWEEP_SEED + 5)
    checked = 0
    for (n, mu), specs in sweep_specs.items():
        for spec in specs[:3]:
            poly = expand(spec)
            c = Fraction(rng.choice([2, -3, 5, 7, -11]), rng.choice([1, 2, 3, 4]))
            t = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            assert classify(scaled(poly, c)) == mu, (mu, c, spec)
            assert classify(shift_poly(poly, t)) == mu, (mu, t, spec)
            checked += 2
    print(f"PASS criterion 9: {checked} invariance checks (scaling and shift)")
