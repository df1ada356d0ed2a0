from fractions import Fraction

import pytest

from multidisc import (
    DegreeRow,
    d_yhz,
    degree_table,
    iter_partitions,
)

from conftest import assert_table_1
from nested_system import check
from symbolic_invariants import check_symbolic


def test_nested_system_examples():
    assert d_yhz((2, 1)) == 5
    assert d_yhz((2, 2, 1)) == 15
    for n in range(1, 10):
        assert d_yhz((n,)) == 2 * n - 1


def test_linear_systems_are_functions_of_n_only():
    for n in range(1, 31):
        for d in (0, 10**6):
            row = DegreeRow(n, d)
            assert (row.d_hy21, row.d_hy22) == (2 * n - 1, 2 * n - 2)


def test_reference_table_reproduced_exactly():
    assert_table_1()


def test_degree_ten_row_against_brute_force():
    partitions = list(iter_partitions(10))
    assert len(partitions) == 42
    brute = max(d_yhz(mu) for mu in partitions)
    row = list(degree_table(10))[-1]
    assert row == DegreeRow(10, brute)
    assert (row.d_hy21, row.d_hy22) == (19, 18)


def test_degree_table_yields_one_row_at_a_time(monkeypatch):
    # the rows up to n = 80 walk 123 million partitions; the first row must
    # walk only those of 3
    walked = []

    def recorded(n):
        walked.append(n)
        if n > 3:
            raise AssertionError(f"the first row walked the partitions of {n}")
        return iter_partitions(n)

    monkeypatch.setattr("multidisc.degrees.iter_partitions", recorded)
    assert next(degree_table(80)) == DegreeRow(3, 5)
    assert walked == [3]


def test_lower_bound_inequality():
    for n in range(2, 11):
        for mu in iter_partitions(n):
            if len(mu) == 1:
                continue
            assert d_yhz(mu) >= 2 * n + 3 ** mu[1] - 4 * mu[1]


def _transcribed_d_yhz(mu):
    """The paper's closed form, as transcribed before the level rule replaced it."""
    n = sum(mu)
    if len(mu) == 1:
        return 2 * n - 1
    mu1, mu2 = mu[0], mu[1]
    m = [sum(1 for p in mu if p >= j) for j in range(1, mu2 + 1)]
    product = Fraction(1)
    for mj in m:
        product *= 2 * mj - 1
    if mu1 == mu2:
        factor = Fraction(1)
    elif mu1 == mu2 + 1:
        factor = 1 + Fraction(2, 2 * m[-1] - 1)
    else:
        factor = Fraction(2 * (mu1 - mu2) - 1)
    value = product * factor
    assert value.denominator == 1, mu
    return int(value)


def test_level_rule_equals_the_transcribed_formula():
    count = 0
    for n in range(1, 26):
        for mu in iter_partitions(n):
            assert d_yhz(mu) == _transcribed_d_yhz(mu), mu
            count += 1
    assert count == 9295


def test_d_yhz_is_the_degree_of_the_nested_system():
    # on a seeded line, the nested gcd system reaches degree d_yhz(mu) for
    # every mu; the CI runs n = 9 and 10 through the same script
    assert [check(n) for n in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]


def test_invariant_relations_between_columns():
    for row in degree_table(12):
        assert row.d_hy22 == row.d_hy21 - 1 == 2 * row.n - 2
        assert row.d_yhz >= row.d_hy21


def test_rejects_bad_inputs():
    for max_n in (2, 4.0, "5", None, True):
        with pytest.raises(ValueError):
            degree_table(max_n)
    with pytest.raises(ValueError):
        d_yhz((1, 2))  # not weakly decreasing


def test_engine_degrees_peak_at_table_value():
    # worst case over the partitions equals the table column for small n
    for n in range(3, 6):
        assert check_symbolic(n) == 2 * n - 2
