import json
import random
from fractions import Fraction

import pytest

from multidisc import (
    SymPoly,
    UniPoly,
    build_matrix,
    build_symbolic_matrix,
    det_fraction_free,
    det_minor_expansion,
    disc_symbolic,
    disc_value,
    partitions_of,
)

from conftest import perm_det, random_int_poly

QUINTIC = UniPoly.from_descending([1, -5, 7, 1, -8, 4])


def _a(idx, nvars):
    exps = [0] * nvars
    exps[idx] = 1
    return tuple(exps)


class TestMatrixLayout:
    def test_quintic_gamma_32_block_structure(self):
        m = build_symbolic_matrix(5, (3, 2))
        assert m.size == 7
        assert m.gamma0 == 2
        assert m.row_provenance == (
            (0, 1),
            (0, 0),
            (1, 2),
            (1, 1),
            (1, 0),
            (2, 1),
            (2, 0),
        )
        assert m.blocks() == [(0, [0, 1]), (1, [2, 3, 4]), (2, [5, 6])]
        # second-derivative rows carry 5*4 a5, 4*3 a4, 3*2 a3, 2*1 a2
        nv = 6
        row = m.entries[5]  # F'' * x^1, right-aligned to width 7
        coeffs = [(e.sorted_terms()[0][1] if not e.is_zero else 0) for e in row]
        assert coeffs == [0, 0, 20, 12, 6, 2, 0]
        assert row[2] == SymPoly.monomial(nv, 20, _a(5, nv))
        assert row[5] == SymPoly.monomial(nv, 2, _a(2, nv))

    def test_all_ones_gamma_has_empty_order_zero_block(self):
        m = build_symbolic_matrix(5, (1, 1, 1, 1, 1))
        assert m.size == 5
        assert m.gamma0 == 0
        assert m.row_provenance == ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0))
        assert m.blocks()[0] == (0, [])

    def test_degree_one_matrix(self):
        m = build_matrix(UniPoly([0, Fraction(7)], ), (1,))
        assert m.size == 1
        assert m.entries == ((Fraction(7),),)

    def test_staircase_right_alignment(self):
        # first row of the gamma=(5) matrix is F*x^3: a5..a0 then three blanks
        m = build_matrix(QUINTIC, (5,))
        assert m.size == 9
        first = [str(e) for e in m.entries[0]]
        assert first == ["1", "-5", "7", "1", "-8", "4", "0", "0", "0"]

    def test_row_count_matches_size_for_all_partitions(self):
        for n in range(1, 11):
            poly = UniPoly([1] * n + [1])
            for gamma in partitions_of(n):
                m = build_matrix(poly, gamma)
                assert m.size == n + gamma[0] - 1
                assert len(m.entries) == m.size
                assert all(len(row) == m.size for row in m.entries)

    def test_rows_match_shifted_derivatives(self):
        # the definition of row (order, shift): the coefficients of F^(order) * x^shift
        rng = random.Random(99)
        for n in range(1, 9):
            integer = random_int_poly(rng, n)
            rational = UniPoly(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                + [Fraction(rng.choice([-7, 5, 11]), rng.choice([2, 3, 4]))]
            )
            for poly in (integer, rational):
                for gamma in partitions_of(n):
                    m = build_matrix(poly, gamma)
                    for row, (order, shift) in zip(m.entries, m.row_provenance):
                        p = poly.derivative(order).mul_power(shift)
                        assert row == tuple(p.coeff(m.size - 1 - j) for j in range(m.size))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_matrix(QUINTIC, (3, 3))  # not a partition of 5
        with pytest.raises(ValueError):
            build_matrix(QUINTIC, (3, 2, 0))
        with pytest.raises(ValueError):
            build_matrix(UniPoly([4]), (1,))  # constant
        with pytest.raises(ValueError):
            build_matrix(UniPoly(), (1,))


class TestDeterminants:
    def test_identity_and_proportional_rows(self):
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert det_fraction_free(eye) == 1
        assert det_fraction_free([[2, 1], [4, 2]]) == 0

    def test_random_integer_matrices_match_oracles(self):
        rng = random.Random(2024)
        for size in range(1, 7):
            for _ in range(8):
                rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
                expected = perm_det(rows)
                assert det_fraction_free(rows) == expected
                assert det_minor_expansion(rows) == expected

    def test_larger_matrices_against_minor_expansion(self):
        rng = random.Random(77)
        for _ in range(4):
            rows = [[rng.randint(-6, 6) for _ in range(8)] for _ in range(8)]
            assert det_fraction_free(rows) == det_minor_expansion(rows)

    def test_singular_matrices(self):
        rng = random.Random(5)
        for size in range(2, 7):
            rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            rows[size - 1] = list(rows[0])  # duplicate row
            assert det_fraction_free(rows) == 0
        # leading column of zeros exercises the pivot-missing path
        rows = [[0, 1], [0, 5]]
        assert det_fraction_free(rows) == 0

    def test_fraction_matrices(self):
        rng = random.Random(31)
        for _ in range(10):
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                for _ in range(4)
            ]
            assert det_fraction_free(rows) == perm_det(rows)

    def test_symbolic_matrix_against_minor_expansion(self):
        rng = random.Random(8)
        nv = 3
        for _ in range(6):
            rows = [
                [
                    SymPoly(nv, {tuple(rng.randint(0, 1) for _ in range(nv)): rng.randint(-3, 3)})
                    for _ in range(4)
                ]
                for _ in range(4)
            ]
            assert det_fraction_free(rows) == det_minor_expansion(rows)

    def test_symbolic_zero_pivot_column_falls_back(self):
        nv = 2
        zero = SymPoly.zero(nv)
        a0 = SymPoly.variable(nv, 0)
        rows = [[zero, a0], [zero, a0 * a0]]
        assert det_fraction_free(rows).is_zero

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_fraction_free([[1, 2]])
        with pytest.raises(ValueError):
            det_fraction_free([])


class TestDiscValue:
    def test_reference_quintic_chain_values(self):
        assert disc_value(QUINTIC, (5,)).value == 0
        assert disc_value(QUINTIC, (4, 1)).value == 0
        assert disc_value(QUINTIC, (3, 2)).value != 0

    def test_closed_form_for_all_ones(self):
        rng = random.Random(404)
        for n in range(2, 9):
            expected_product = 1
            for i in range(1, n + 1):
                expected_product *= i**i
            for _ in range(6):
                poly = random_int_poly(rng, n)
                value = disc_value(poly, (1,) * n).value
                assert value == expected_product * poly.leading ** (n - 1)

    def test_determinant_is_divisible_by_leading_coefficient(self):
        rng = random.Random(17)
        for n in range(2, 7):
            for gamma in partitions_of(n):
                poly = random_int_poly(rng, n)
                m = build_matrix(poly, gamma)
                dp = det_fraction_free([[e.numerator for e in row] for row in m.entries])
                assert dp % poly.leading.numerator == 0

    def test_homogeneity_scaling(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(2, 6)
            gamma = rng.choice(partitions_of(n))
            poly = random_int_poly(rng, n)
            c = Fraction(rng.choice([2, -3, 5]), rng.choice([1, 2, 7]))
            base = disc_value(poly, gamma).value
            scaled = disc_value(poly * c, gamma).value
            assert scaled == c ** (n + gamma[0] - 2) * base

    def test_rational_coefficients_supported(self):
        poly = QUINTIC * Fraction(3, 7)
        assert disc_value(poly, (5,)).value == 0
        expected = disc_value(QUINTIC, (3, 2)).value * Fraction(3, 7) ** (5 + 3 - 2)
        assert disc_value(poly, (3, 2)).value == expected


class TestDiscSymbolic:
    def test_all_ones_closed_form_single_term(self):
        d = disc_symbolic(5, (1, 1, 1, 1, 1))
        assert len(d.value.terms) == 1
        assert d.value == SymPoly.monomial(6, 86400000, (0, 0, 0, 0, 0, 4))

    def test_total_degree_is_homogeneity_degree(self):
        for n in range(1, 6):
            for gamma in partitions_of(n):
                d = disc_symbolic(n, gamma)
                value = d.value
                assert not value.is_zero
                assert value.total_degree == n + gamma[0] - 2
                # homogeneous: every term has the same total degree
                assert {sum(e) for e in value.terms} == {n + gamma[0] - 2}

    def test_specialization_matches_concrete_engine(self):
        rng = random.Random(606)
        for n in range(2, 6):
            for gamma in partitions_of(n):
                d = disc_symbolic(n, gamma)
                for _ in range(3):
                    vec = [rng.randint(-6, 6) for _ in range(n)]
                    vec.append(rng.choice([c for c in range(-5, 6) if c]))
                    poly = UniPoly(vec)
                    assert d.value.evaluate(vec) == disc_value(poly, gamma).value

    def test_degree_six_agreement_with_concrete_engine(self):
        rng = random.Random(808)
        for gamma in partitions_of(6):
            d = disc_symbolic(6, gamma)
            for _ in range(2):
                vec = [rng.randint(-5, 5) for _ in range(6)]
                vec.append(rng.choice([c for c in range(-4, 5) if c]))
                poly = UniPoly(vec)
                assert d.value.evaluate(vec) == disc_value(poly, gamma).value

    def test_cap_is_enforced_and_overridable(self):
        with pytest.raises(ValueError, match="cap 6"):
            disc_symbolic(7, (7,))
        with pytest.raises(ValueError, match="cap 3"):
            disc_symbolic(4, (4,), cap=3)
        # explicit higher cap unlocks the computation
        d = disc_symbolic(7, (1,) * 7, cap=7)
        assert len(d.value.terms) == 1


class TestSerialization:
    def test_json_dict_concrete(self):
        m = build_matrix(QUINTIC, (3, 2))
        data = m.to_json_dict()
        assert data["n"] == 5
        assert data["gamma"] == [3, 2]
        assert data["size"] == 7
        assert data["symbolic"] is False
        assert data["blocks"] == [
            {"derivative": 0, "rows": [0, 1]},
            {"derivative": 1, "rows": [2, 3, 4]},
            {"derivative": 2, "rows": [5, 6]},
        ]
        assert data["entries"][0][0] == "1"
        json.dumps(data)  # must be serializable as-is

    def test_json_dict_symbolic_monomial_lists(self):
        m = build_symbolic_matrix(5, (1, 1, 1, 1, 1))
        data = m.to_json_dict()
        assert data["blocks"][0] == {"derivative": 0, "rows": []}
        first = data["entries"][0][0]
        assert first == [["5", [0, 0, 0, 0, 0, 1]]]
        assert data["entries"][1][0] == []  # structural zero below the staircase
        json.dumps(data)

    def test_latex_blocks_and_blanks(self):
        m = build_symbolic_matrix(5, (3, 2))
        tex = m.to_latex()
        assert tex.count(r"\hline") == 2  # three blocks, two separators
        assert tex.startswith(r"\left|\begin{array}{ccccccc}")
        assert tex.endswith(r"\end{array}\right|")
        lines = tex.splitlines()[1:-1]
        assert len(lines) == 7
        # zeros render as blank cells, preserving the staircase look
        assert lines[1].startswith(" & ")
        assert "20a_{5}" in lines[5]

    def test_latex_concrete_fractions(self):
        m = build_matrix(UniPoly([Fraction(1, 2), 1]), (1,))
        tex = m.to_latex()
        assert "1" in tex
        m2 = build_matrix(UniPoly([Fraction(-3, 2), Fraction(1, 2)]), (1,))
        assert r"\frac{1}{2}" in m2.to_latex()
