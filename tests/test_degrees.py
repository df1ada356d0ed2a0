import pytest

from multidisc import (
    DegreeRow,
    d_hy21,
    d_hy22,
    d_yhz,
    degree_table,
    disc_symbolic,
    partitions_of,
)
from multidisc.degrees import degree_table_csv

TABLE_1 = {
    3: (5, 5, 4),
    4: (9, 7, 6),
    5: (15, 9, 8),
    6: (27, 11, 10),
    7: (45, 13, 12),
    8: (81, 15, 14),
    9: (135, 17, 16),
}


def test_nested_system_examples():
    assert d_yhz((2, 1)) == 5
    assert d_yhz((2, 2, 1)) == 15
    for n in range(1, 10):
        assert d_yhz((n,)) == 2 * n - 1


def test_linear_systems_are_functions_of_n_only():
    for mu in [(5,), (3, 2), (2, 2, 1), (1, 1, 1, 1, 1)]:
        assert d_hy21(mu) == 9
        assert d_hy22(mu) == 8
    assert (d_hy21((2, 1)), d_hy22((2, 1))) == (5, 4)
    assert (d_hy21((9,)), d_hy22((9,))) == (17, 16)


def test_reference_table_reproduced_exactly():
    rows = degree_table(9)
    assert [r.n for r in rows] == list(range(3, 10))
    for row in rows:
        assert (row.d_yhz, row.d_hy21, row.d_hy22) == TABLE_1[row.n]


def test_degree_ten_row_against_brute_force():
    partitions = partitions_of(10)
    assert len(partitions) == 42
    brute = max(d_yhz(mu) for mu in partitions)
    row = degree_table(10)[-1]
    assert row == DegreeRow(10, brute)
    assert (row.d_hy21, row.d_hy22) == (19, 18)


def test_lower_bound_inequality():
    for n in range(2, 11):
        for mu in partitions_of(n):
            if len(mu) == 1:
                continue
            assert d_yhz(mu) >= 2 * n + 3 ** mu[1] - 4 * mu[1]


def test_near_equal_top_parts_branch_is_integral():
    # mu1 = mu2 + 1 goes through a rational factor that must always clear
    for n in range(2, 13):
        for mu in partitions_of(n):
            if len(mu) > 1 and mu[0] == mu[1] + 1:
                assert isinstance(d_yhz(mu), int)


def test_invariant_relations_between_columns():
    for row in degree_table(12):
        assert row.d_hy22 == row.d_hy21 - 1 == 2 * row.n - 2
        assert row.d_yhz >= row.d_hy21


def test_csv_format():
    csv = degree_table_csv(9)
    lines = csv.splitlines()
    assert lines[0] == "n,d_yhz,d_hy21,d_hy22"
    assert lines[1] == "3,5,5,4"
    assert lines[-1] == "9,135,17,16"
    assert csv.endswith("\n")


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        degree_table(2)
    with pytest.raises(ValueError):
        d_yhz((1, 2))  # not weakly decreasing


def test_engine_degrees_peak_at_table_value():
    # worst case over the partitions equals the table column for small n
    for n in range(3, 6):
        worst = max(disc_symbolic(n, g).value.total_degree for g in partitions_of(n))
        assert worst == d_hy22((n,)) == 2 * n - 2
