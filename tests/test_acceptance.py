"""Acceptance suite: one test per criterion, every check exact (no epsilons).

Each criterion is the widest sampled sweep of its fact in the suite; the
per-module tests keep the worked examples and the inputs outside its ranges.
A fact that other tests check too has its checker in ``conftest.py`` or
``symbolic_invariants.py``; the rest are written out here.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; with ``-s`` each test also prints a summary of what it swept.
"""

import random
import time
from fractions import Fraction

import pytest

from multidisc import (
    classify,
    classify_trace,
    conjugate,
    degree_table,
    disc_value,
    expand,
    iter_partitions,
)
from multidisc.roots import random_root_spec

from conftest import (
    QUINTIC,
    all_ones_disc,
    assert_classified,
    assert_root_side,
    random_int_poly,
    scaled,
    shift_poly,
    zeros_before_conjugate,
)
from symbolic_invariants import check_symbolic

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
    # D(5) = D(4,1) = 0 and D(3,2) != 0, so mu = (2, 2, 1)
    assert list(trace.zero_steps()) == [(5,), (4, 1)]
    assert trace.delta == (3, 2) and trace.value != 0
    assert trace.result == (2, 2, 1) == conjugate(trace.delta)
    assert elapsed < 1.0
    print(f"PASS criterion 1: quintic -> (2,2,1) in {elapsed * 1000:.1f} ms")


def test_criterion_2_last_discriminant_closed_form():
    # D_(1^n) of 20 random integer polynomials of each degree n = 2..8
    rng = random.Random(SWEEP_SEED + 1)
    checked = 0
    for n in range(2, 9):
        for _ in range(20):
            poly = random_int_poly(rng, n)
            assert disc_value(poly, (1,) * n).value == all_ones_disc(n, poly.leading), poly
            checked += 1
    print(f"PASS criterion 2: closed form exact on {checked} random polynomials")


def test_criterion_3_oracle_equivalence_sweep(sweep_specs):
    checked = 0
    for (n, mu), specs in sweep_specs.items():
        for spec in specs:
            assert_classified(expand(spec), mu)
            checked += 1
    print(f"PASS criterion 3: {checked} classifications agree with both oracles")


def test_criterion_4_vanishing_and_nonvanishing_lemmas(sweep_specs):
    zero_checks = 0
    nonzero_checks = 0
    for (n, mu), specs in sweep_specs.items():
        for spec in specs:
            zero_checks += zeros_before_conjugate(expand(spec), mu)
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
            checked += len(assert_root_side(random_root_spec(rng, (1,) * n), partitions))
    print(f"PASS criterion 5: root-side identity exact on {checked} (spec, gamma) pairs")


def test_criterion_6_multiple_roots_identity_abs():
    rng = random.Random(SWEEP_SEED + 3)
    checked = 0
    for n in range(1, 7):
        partitions = list(iter_partitions(n))
        for mu in partitions:
            for _ in range(10):
                checked += len(assert_root_side(random_root_spec(rng, mu), partitions))
    print(f"PASS criterion 6: signed and absolute identities exact on {checked} (spec, gamma) pairs")


def test_criterion_7_degree_table_reproduction():
    # Table 1 of the paper, rows n = 3..9: (n, d_yhz, d_hy21, d_hy22)
    table = [
        (3, 5, 5, 4),
        (4, 9, 7, 6),
        (5, 15, 9, 8),
        (6, 27, 11, 10),
        (7, 45, 13, 12),
        (8, 81, 15, 14),
        (9, 135, 17, 16),
    ]
    assert [(row.n, row.d_yhz, row.d_hy21, row.d_hy22) for row in degree_table(9)] == table
    print("PASS criterion 7: degree table rows n=3..9 match exactly")


def test_criterion_8_symbolic_degrees_and_specialization():
    rng = random.Random(SWEEP_SEED + 4)
    specialized = 0
    for n in range(1, 9):
        assert check_symbolic(n, rng, points=5, bound=9, leads=range(-9, 10)) == 2 * n - 2, n
        specialized += 5 * len(list(iter_partitions(n)))
    print(f"PASS criterion 8: symbolic degrees peak at 2n-2; {specialized} specializations match")


def test_criterion_9_invariance_under_scaling_and_shift(sweep_specs):
    rng = random.Random(SWEEP_SEED + 5)
    checked = 0
    for (n, mu), specs in sweep_specs.items():
        for spec in specs[:3]:
            c = Fraction(rng.choice([2, -3, 5, 7, -11]), rng.choice([1, 2, 3, 4]))
            t = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            poly = expand(spec)
            assert classify(scaled(poly, c)) == mu, (mu, c, poly)
            assert classify(shift_poly(poly, t)) == mu, (mu, t, poly)
            checked += 2
    print(f"PASS criterion 9: {checked} invariance checks (scaling and shift)")
