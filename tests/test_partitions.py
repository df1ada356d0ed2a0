import re
from fractions import Fraction

import pytest

from multidisc import (
    RootSpec,
    SymPoly,
    UniPoly,
    build_matrix,
    build_symbolic_matrix,
    conditions,
    conjugate,
    d_yhz,
    degree_table,
    disc_from_roots,
    disc_symbolic,
    disc_value,
    iter_partitions,
)
from multidisc.cli import run_selftest
from multidisc.partitions import as_partition, classification_order
from multidisc.roots import disc_from_distinct_roots, disc_from_multiple_roots_abs


def partition_count(n: int) -> int:
    """Independent oracle: p(n, k) = partitions of n with parts <= k."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for total in range(1, n + 1):
        for k in range(1, n + 1):
            table[total][k] = table[total][k - 1]
            if total >= k:
                table[total][k] += table[total - k][k]
    return table[n][n]


def test_five_has_the_seven_known_partitions():
    got = list(iter_partitions(5))
    assert set(got) == {
        (1, 1, 1, 1, 1),
        (2, 1, 1, 1),
        (2, 2, 1),
        (3, 1, 1),
        (3, 2),
        (4, 1),
        (5,),
    }
    # descending lexicographic enumeration, no duplicates
    assert got == sorted(set(got), reverse=True)
    assert got[0] == (5,)
    assert got[-1] == (1, 1, 1, 1, 1)


def test_one_has_one_partition():
    assert list(iter_partitions(1)) == [(1,)]


def test_partition_counts_against_recurrence():
    for n in range(1, 13):
        assert len(list(iter_partitions(n))) == partition_count(n)
    assert len(list(iter_partitions(9))) == 30


def test_partitions_are_valid_and_sum_correctly():
    for n in range(1, 11):
        for p in iter_partitions(n):
            assert as_partition(p) == p
            assert sum(p) == n


def test_iter_partitions_gives_each_partition_once_in_order():
    # p(n) valid partitions, strictly descending: exactly the partitions of
    # n in the classification order
    for n in range(1, 21):
        got = list(iter_partitions(n))
        assert len(got) == partition_count(n)
        assert all(as_partition(p, n) == p for p in got)
        assert all(a > b for a, b in zip(got, got[1:]))


def test_partitions_of_rejects_nonpositive():
    with pytest.raises(ValueError):
        iter_partitions(0)
    with pytest.raises(ValueError):
        iter_partitions(-3)
    with pytest.raises(ValueError):
        iter_partitions(True)


def test_iter_partitions_rejects_bad_n_at_the_call():
    # a plain generator function would raise only at the first next()
    for bad in [0, -3, True, 2.0]:
        with pytest.raises(ValueError):
            iter_partitions(bad)


def test_every_count_is_checked_by_the_one_integer_rule():
    # a count is an int, not a bool, and at least its least value; each entry
    # point reports a bad one in the same words, before any work starts
    entry_points = [
        (lambda v: as_partition((2,), v), "n", 1),
        (iter_partitions, "n", 1),
        (conditions, "n", 1),
        (lambda v: build_symbolic_matrix(v, (1,)), "n", 1),
        (lambda v: disc_symbolic(v, (1,)), "n", 1),
        (degree_table, "max_n", 3),
        (SymPoly, "nvars", 1),
        (lambda v: SymPoly.variable(v, 0), "nvars", 1),
        (lambda v: run_selftest(v, 1, 0, quiet=True), "max_n", 1),
        (lambda v: run_selftest(1, v, 0, quiet=True), "trials", 1),
    ]
    for entry, name, least in entry_points:
        for bad in [least - 1, -1, True, 2.0, "2"]:
            message = f"{name} must be an integer of at least {least}, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                entry(bad)


def test_conjugate_examples():
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate((2, 2, 1)) == (3, 2)
    for n in range(1, 8):
        assert conjugate((n,)) == (1,) * n


def test_conjugate_is_involution():
    for n in range(1, 13):
        for p in iter_partitions(n):
            assert conjugate(conjugate(p)) == p


def test_conjugate_is_involution_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def partitions(draw):
        n = draw(st.integers(1, 30))
        parts, rest = [], n
        while rest:
            part = draw(st.integers(1, rest))
            parts.append(part)
            rest -= part
        return n, tuple(sorted(parts, reverse=True))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(partitions())
    def check(drawn):
        n, p = drawn
        gamma = conjugate(p)
        assert as_partition(gamma, n) == gamma
        assert conjugate(gamma) == p

    check()


def test_conjugate_part_counts():
    # first conjugate part = number of parts; number of conjugate parts = largest part
    for n in range(1, 13):
        for mu in iter_partitions(n):
            gamma = conjugate(mu)
            assert gamma[0] == len(mu)
            assert len(gamma) == mu[0]


def test_tuple_order_is_lex_order_of_partitions():
    # for partitions of one integer, native tuple order needs no zero padding
    assert (3, 1, 1) > (2, 2, 1)
    assert (5,) > (4, 1)
    assert (3, 2) > (3, 1, 1)
    assert (2, 2, 1) == (2, 2, 1)
    assert (2, 1, 1, 1) < (3, 2)


def test_non_integer_parts_are_rejected_not_truncated():
    quintic = UniPoly.from_descending([1, -5, 7, 1, -8, 4])
    repeated = RootSpec(((Fraction(1), 3), (Fraction(-2), 2)), Fraction(1))
    distinct = RootSpec(tuple((Fraction(r), 1) for r in range(5)), Fraction(1))
    entry_points = [
        lambda parts: disc_value(quintic, parts),
        lambda parts: build_matrix(quintic, parts),
        lambda parts: build_symbolic_matrix(5, parts),
        lambda parts: disc_from_roots(repeated, parts),
        lambda parts: disc_from_multiple_roots_abs(repeated, parts),
        lambda parts: disc_from_distinct_roots(distinct, parts),
        d_yhz,
        conjugate,
    ]
    for parts in [(3.5, 2.5), (3.2, 2.1), (3.0, 2), (2.5,), (4, True), (True,) * 5]:
        for entry in entry_points:
            with pytest.raises(ValueError, match="not a partition"):
                entry(parts)


def test_classification_order_for_degree_five():
    pairs = classification_order(5)
    assert [g for _, g in pairs] == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert [m for m, _ in pairs] == [
        (1, 1, 1, 1, 1),
        (2, 1, 1, 1),
        (2, 2, 1),
        (3, 1, 1),
        (3, 2),
        (4, 1),
        (5,),
    ]


def test_classification_order_degenerate_and_large():
    assert classification_order(1) == [((1,), (1,))]
    pairs = classification_order(9)
    assert len(pairs) == 30
    gammas = [g for _, g in pairs]
    for a, b in zip(gammas, gammas[1:]):
        assert a > b
    # both columns cover all partitions exactly once
    assert set(gammas) == set(iter_partitions(9))
    assert set(m for m, _ in pairs) == set(iter_partitions(9))
    for mu, gamma in pairs:
        assert conjugate(mu) == gamma
