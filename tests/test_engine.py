import gc
import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest

from multidisc import (
    RootSpec,
    SymPoly,
    UniPoly,
    build_matrix,
    build_symbolic_matrix,
    conjugate,
    disc_symbolic,
    disc_value,
    expand,
    iter_partitions,
    squarefree_multiplicity,
)
from multidisc.engine import (
    _build,
    _exact,
    _packed,
    _prem,
    _translation_rebuild,
    derivative_coeffs,
    det_fraction_free,
    det_minor_expansion,
    disc_resultant,
    sylvester_resultant,
)
from multidisc.roots import random_root_spec

from conftest import (
    ENGINE,
    QUINTIC,
    assert_leaf_invariant,
    coeff,
    derivative,
    det_rational,
    mul_power,
    perm_det,
    product,
    random_int_poly,
    reference_gcd,
    reference_rows,
    row_layout,
    scaled,
    spy,
    sym_perm_det,
    traced_peak,
    zeros_before_conjugate,
)
from symbolic_invariants import check as check_invariants, weight


def _a(idx, nvars):
    exps = [0] * nvars
    exps[idx] = 1
    return tuple(exps)


class TestMatrixLayout:
    # the JSON and LaTeX layout of these matrices (size, blocks, row
    # provenance) is checked through the CLI in test_cli.TestDiscriminant
    def test_quintic_gamma_32_block_structure(self):
        m = build_symbolic_matrix(5, (3, 2))
        assert len(m) == 7
        # second-derivative rows carry 5*4 a5, 4*3 a4, 3*2 a3, 2*1 a2
        nv = 6
        row = m[5]  # F'' * x^1, right-aligned to width 7
        coeffs = [(e.sorted_terms()[0][1] if not e.is_zero else 0) for e in row]
        assert coeffs == [0, 0, 20, 12, 6, 2, 0]
        assert row[2] == SymPoly(nv, {_a(5, nv): 20})
        assert row[5] == SymPoly(nv, {_a(2, nv): 2})

    def test_all_ones_gamma_has_empty_order_zero_block(self):
        m = build_symbolic_matrix(5, (1, 1, 1, 1, 1))
        assert len(m) == 5
        # no row of F: the first row is F' = 5 a5 x^4 + ... + a1
        assert m[0] == tuple(SymPoly(6, {_a(d, 6): d}) for d in range(5, 0, -1))

    def test_degree_one_matrix(self):
        m = build_matrix(UniPoly([0, Fraction(7)], ), (1,))
        assert m == ((Fraction(7),),)

    def test_staircase_right_alignment(self):
        # first row of the gamma=(5) matrix is F*x^3: a5..a0 then three blanks
        m = build_matrix(QUINTIC, (5,))
        assert len(m) == 9
        first = [str(e) for e in m[0]]
        assert first == ["1", "-5", "7", "1", "-8", "4", "0", "0", "0"]

    def test_row_count_matches_size_for_all_partitions(self):
        for n in range(1, 11):
            poly = UniPoly([1] * n + [1])
            for gamma in iter_partitions(n):
                m = build_matrix(poly, gamma)
                size = n + gamma[0] - 1
                assert len(m) == size
                assert all(len(row) == size for row in m)

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
                for gamma in iter_partitions(n):
                    m = build_matrix(poly, gamma)
                    size = len(m)
                    assert size == len(row_layout(gamma))
                    for row, (order, shift) in zip(m, row_layout(gamma)):
                        p = mul_power(derivative(poly, order), shift)
                        assert row == tuple(coeff(p, size - 1 - j) for j in range(size))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_matrix(QUINTIC, (3, 3))  # not a partition of 5
        with pytest.raises(ValueError):
            build_matrix(QUINTIC, (3, 2, 0))
        with pytest.raises(ValueError):
            build_matrix(UniPoly([4]), (1,))  # constant
        with pytest.raises(ValueError):
            build_matrix(UniPoly(), (1,))
        for constant in (UniPoly([4]), UniPoly()):
            with pytest.raises(ValueError, match="degree at least 1"):
                disc_value(constant, (1,))


def _sparse_rows(rng, size, density, entry):
    """A size x size matrix whose entries are ``entry()`` with probability density, else 0."""
    return [[entry() if rng.random() < density else 0 for _ in range(size)] for _ in range(size)]


def _constants(rows):
    """An integer matrix as constants of the one-variable ring, for det_minor_expansion."""
    return [[SymPoly(1, {(0,): e}) for e in row] for row in rows]


class TestDeterminants:
    def test_identity_and_proportional_rows(self):
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert det_fraction_free(eye) == 1
        assert det_fraction_free([[2, 1], [4, 2]]) == 0

    def test_random_integer_matrices_match_oracles(self):
        # sparse matrices leave many rows zero in the pivot column, so the
        # elimination skips them and catches them up later
        rng = random.Random(2024)
        for density in (1.0, 0.7, 0.4, 0.2):
            for size in range(1, 8):
                for _ in range(8):
                    rows = _sparse_rows(rng, size, density, lambda: rng.randint(-9, 9))
                    expected = perm_det(rows)
                    got = det_fraction_free(rows)
                    assert got == expected and type(got) is int
                    assert det_minor_expansion(_constants(rows)) == SymPoly(1, {(0,): expected})

    def test_larger_matrices_against_minor_expansion(self):
        rng = random.Random(77)
        for _ in range(4):
            rows = [[rng.randint(-6, 6) for _ in range(8)] for _ in range(8)]
            assert det_fraction_free(rows) == det_rational(rows)
        for density in (0.7, 0.4, 0.2):
            for size in range(8, 13):
                for _ in range(3):
                    rows = _sparse_rows(rng, size, density, lambda: rng.randint(-30, 30))
                    expected = det_rational(rows)
                    assert det_fraction_free(rows) == expected
                    assert det_minor_expansion(_constants(rows)) == SymPoly(1, {(0,): int(expected)})

    def test_discriminant_matrices_match_sympy_berkowitz(self):
        # orders 14..23, above the reach of perm_det and det_minor_expansion
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1616)
        for gamma in [(10,), (5, 3, 2), (6, 4, 2, 2), (4, 4, 4, 1), (8, 8)]:
            poly = random_int_poly(rng, sum(gamma), bound=30)
            rows = [[e.numerator for e in row] for row in build_matrix(poly, gamma)]
            assert det_fraction_free(rows) == sympy.Matrix(rows).det(method="berkowitz")

    def test_skipped_rows_are_caught_up(self):
        # diagonal: every row stays skipped until it is the pivot or the last entry
        primes = [2, -3, 5, 7, -11, 13, 17, 19]
        for size in range(1, 9):
            rows = [[primes[i] if i == j else 0 for j in range(size)] for i in range(size)]
            assert det_fraction_free(rows) == prod(primes[:size])
        # the swap at step 1 brings up row 2, skipped at step 0, above row 1,
        # reduced at step 0; each keeps its own stage
        rows = [[2, 1, 1, 3], [4, 2, 1, 1], [0, 3, 1, 2], [1, 1, 2, 1]]
        assert det_fraction_free(rows) == perm_det(rows) != 0
        # the last row is zero until the last column: skipped until the exit
        rows = [[3, 1, 4, 1, 5], [9, 2, 6, 5, 3], [5, 8, 9, 7, 9], [3, 2, 3, 8, 4], [0, 0, 0, 0, 6]]
        assert det_fraction_free(rows) == perm_det(rows) != 0
        # a staircase whose rows start ever further right, then one full row at the bottom
        rows = [[0] * i + [i + 2] * (6 - i) for i in range(5)] + [[1, -1, 2, -3, 5, -8]]
        assert det_fraction_free(rows) == perm_det(rows) != 0

    def test_singular_matrices(self):
        rng = random.Random(5)
        for size in range(2, 7):
            rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            rows[size - 1] = list(rows[0])  # duplicate row
            assert det_fraction_free(rows) == 0
        # leading column of zeros exercises the pivot-missing path
        rows = [[0, 1], [0, 5]]
        got = det_fraction_free(rows)
        assert got == 0 and type(got) is int
        # a zero pivot column reached after steps that skipped rows
        rows = [[2, 1, 5, 3], [0, 3, 7, 1], [0, 0, 0, 4], [4, 2, 10, 9]]
        got = det_fraction_free(rows)
        assert got == perm_det(rows) == 0 and type(got) is int

    def test_fraction_and_float_rows_rejected(self):
        # the elimination runs on ints only; a rational matrix is cleared by its
        # caller, and a float is never read as an exact value
        ints = [[2, 1, 5], [0, 3, 7], [4, 2, 9]]
        for bad in (Fraction(1, 2), Fraction(4), 2.0, 0.5):
            for i, j in ((0, 0), (1, 2), (2, 2)):
                rows = [list(row) for row in ints]
                rows[i][j] = bad
                with pytest.raises(TypeError, match="int entries only"):
                    det_fraction_free(rows)
        with pytest.raises(TypeError):
            det_fraction_free([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
        with pytest.raises(TypeError):
            det_fraction_free([[0, 1.5], [0, 2.5]])

    def test_minor_expansion_on_sparse_multi_term_matrices(self):
        # orders 1..6, odd and even, so the sign (-1)^(place + column) of the
        # build pass meets both parities of each; every matrix is checked as
        # drawn, with one row zero, with one column zero, and with two rows
        # that are zero in every column before a random one, so their row sets
        # leave the forward pass early
        rng = random.Random(3607)
        nv = 3

        def entry():
            terms = {
                tuple(rng.randint(0, 2) for _ in range(nv)): rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
                for _ in range(rng.randint(1, 3))
            }
            return SymPoly(nv, terms)

        zero = SymPoly(nv)
        nonzero = [0, 0]
        for size in range(1, 7):
            for _ in range(4):
                drawn = [[entry() if rng.random() < 0.6 else zero for _ in range(size)] for _ in range(size)]
                variants = [drawn, [list(row) for row in drawn], [list(row) for row in drawn]]
                variants[1][rng.randrange(size)] = [zero] * size
                col = rng.randrange(size)
                for row in variants[2]:
                    row[col] = zero
                trailing = [list(row) for row in drawn]
                for r in rng.sample(range(size), min(2, size)):
                    start = rng.randrange(1, size) if size > 1 else 0
                    trailing[r][:start] = [zero] * start
                    trailing[r][start:] = [entry() for _ in range(size - start)]
                variants.append(trailing)
                for rows in variants:
                    got = det_minor_expansion(rows)
                    assert got == sym_perm_det(rows), (size, rows)
                    nonzero[rows is trailing] += not got.is_zero
                assert det_minor_expansion(variants[1]).is_zero
                assert det_minor_expansion(variants[2]).is_zero
        # 19 of the 24 matrices as drawn and 14 of the 24 with trailing rows
        # have a nonzero determinant, so the expansion is not checked on zeros alone
        assert min(nonzero) >= 10

    def test_symbolic_zero_pivot_column_falls_back(self):
        nv = 2
        zero = SymPoly(nv)
        a0 = SymPoly.variable(nv, 0)
        rows = [[zero, a0], [zero, SymPoly(nv, {(2, 0): 1})]]
        assert det_minor_expansion(rows).is_zero

    def test_symbolic_rows_rejected_by_bareiss(self):
        a0 = SymPoly.variable(1, 0)
        with pytest.raises(TypeError):
            det_fraction_free([[a0, a0], [a0, SymPoly(1, {(2,): 1})]])

    def test_minor_expansion_leaves_no_garbage_cycles(self):
        # a reference cycle would keep the minors alive until the next full
        # collection, whatever the expansion holds while it runs
        gc.collect()
        gc.disable()
        try:
            det_minor_expansion(build_symbolic_matrix(5, (3, 2)))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_minor_expansion_rejects_mixed_rings(self):
        a = SymPoly.variable(2, 0)
        b = SymPoly.variable(3, 0)
        with pytest.raises(ValueError, match="different polynomial rings"):
            det_minor_expansion([[a, SymPoly(2)], [SymPoly(3), b]])
        with pytest.raises(ValueError, match="different polynomial rings"):
            det_minor_expansion([[a, b], [b, a]])

    def test_minor_expansion_rejects_non_symbolic_entries(self):
        # the integers have one determinant, det_fraction_free; a constant of
        # the ring is a SymPoly with the one term (0, 0)
        a = SymPoly.variable(2, 0)
        for bad in (0, 1, Fraction(1, 2)):
            with pytest.raises(TypeError, match="SymPoly entries only"):
                det_minor_expansion([[a, bad], [a * 2, a]])
        with pytest.raises(TypeError, match="SymPoly entries only"):
            det_minor_expansion([[0]])
        with pytest.raises(TypeError, match="SymPoly entries only"):
            det_minor_expansion([[1, 2], [3, 4]])
        one, two = SymPoly(2, {(0, 0): 1}), SymPoly(2, {(0, 0): 2})
        assert det_minor_expansion([[a, one], [two, a]]) == sym_perm_det([[a, one], [two, a]])

    def test_minor_expansion_order_one(self):
        a1 = SymPoly.variable(3, 1)
        for entry in (a1, SymPoly(3, {(0, 1, 0): 5, (0, 0, 0): 2}), SymPoly(3)):
            got = det_minor_expansion([[entry]])
            assert isinstance(got, SymPoly) and got == entry

    def test_minor_expansion_packing_boundary(self):
        # the row maxima 3 and 4 (and 1, 2, 4) sum to 7 = 2**3 - 1, so x^7 fills
        # the 3-bit field of its variable; a field one bit narrower would carry
        # into the next variable, or past the last one
        nv = 3
        for idx in (0, nv - 1):
            other = tuple(int(i == (1 if idx == 0 else 0)) for i in range(nv))

            def exps(e):
                return tuple(e if i == idx else 0 for i in range(nv))

            def x(e=None, y=0, c=0):
                # x^e + y * (the other variable) + c, where x is a_idx and e=None leaves x^e out
                terms = {other: y, (0,) * nv: c}
                if e is not None:
                    terms[exps(e)] = 1
                return SymPoly(nv, terms)

            cases = [
                [[x(3), x()], [x(), x(4)]],
                [[x(3), x(y=2)], [x(y=-3), x(4, y=5)]],
                [[x(1), x(y=1), x()], [x(), x(2), x(y=4, c=1)], [x(y=1), x(), x(4, c=-2)]],
            ]
            for rows in cases:
                got = det_minor_expansion(rows)
                assert got == sym_perm_det(rows) and got.terms[exps(7)] == 1

    def test_minor_expansion_holds_two_column_levels(self):
        # the 13 x 13 generic matrix of gamma = (7): keeping every minor to the
        # end peaked at about 9 MB, two column levels of SymPoly minors at
        # 3.6 MB, the same two levels as dicts on packed int keys at 1.9 MB,
        # and those levels built on the leading columns at 1.0 MB; keeping
        # every level of the packed expansion peaks at 2.6 MB
        rows = build_symbolic_matrix(7, (7,))
        _, peak = traced_peak(lambda: det_minor_expansion(rows))
        assert peak < 1.5 * 2**20

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_fraction_free([[1, 2]])
        with pytest.raises(ValueError):
            det_fraction_free([])
        for rows in ([[SymPoly(1, {(1,): 1}), SymPoly(1)]], []):
            with pytest.raises(ValueError, match="square nonempty matrix required"):
                det_minor_expansion(rows)


def _descending_ints(poly):
    assert all(c.denominator == 1 for c in poly.coeffs)
    return [c.numerator for c in poly.descending_coeffs()]


def _pair_rows(a, b, d=0):
    """The l - d shifts of descending ``a`` above the m - d shifts of ``b``, of
    degrees m and l, each of width m + l - d: the Sylvester matrix at d = 0."""
    m, l = len(a) - 1, len(b) - 1
    size = m + l - d
    return reference_rows(a[::-1], 0, l - d, size) + reference_rows(b[::-1], 0, m - d, size)


def _rank(rows):
    """Rank over the rationals by plain Gaussian elimination."""
    rows = [[Fraction(e) for e in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _resultant_inputs(rng):
    """Integer polynomials of degree 1..30: dense and squarefree, with repeated
    roots, with content, with a negative leading coefficient, and sparse."""
    for n in range(1, 31):
        yield random_int_poly(rng, n, bound=40)
        mu = rng.choice(list(iter_partitions(n)))
        cleared = UniPoly(expand(random_root_spec(rng, mu)).clear_denominators()[0])
        yield scaled(cleared, rng.choice([-6, 4, 15]))
        yield UniPoly([1] + [0] * (n - 1) + [1])  # x^n + 1
        if n > 1:
            yield UniPoly([0, -1] + [0] * (n - 2) + [1])  # x^n - x
        yield UniPoly([rng.randint(-3, 3) if rng.random() < 0.25 else 0 for _ in range(n)] + [-2])


def _dense_pair(rng):
    """Descending integer a and b of degree 0..7, a with content 1 or 6, and a
    common factor of degree 1..3 in two of five."""
    a = [rng.choice([-4, -1, 2, 3, 6])] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 7))]
    b = [rng.choice([-3, 1, 4, 10])] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 7))]
    if rng.random() < 0.4:
        f = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [3])
        a = _descending_ints(product(UniPoly.from_descending(a), f))
        b = _descending_ints(product(UniPoly.from_descending(b), f))
    content = rng.choice([1, 1, 6])
    return [c * content for c in a], b


def _sparse_pair(rng):
    """Descending integer a and b of degree 0..6 with about half their lower
    coefficients 0, content on both, and a common factor in one of two."""

    def sparse(leads, degree):
        return [rng.choice(leads)] + [rng.choice([0, rng.randint(-5, 5)]) for _ in range(degree)]

    a = sparse([-4, -1, 2, 3, 6], rng.randint(0, 6))
    b = sparse([-3, 1, 4, 10], rng.randint(0, 6))
    if rng.random() < 0.5:
        f = UniPoly.from_descending(sparse([1, 2, -3], rng.randint(1, 3)))
        a = _descending_ints(product(UniPoly.from_descending(a), f))
        b = _descending_ints(product(UniPoly.from_descending(b), f))
    return [c * rng.choice([1, 1, 6]) for c in a], [c * rng.choice([1, 1, 10]) for c in b]


def _check_general_pairs(seed, pair):
    """300 pairs from ``pair``: unequal degrees in either order and equal
    ones, both odd included (the swap's sign), with and without a common
    factor and content. psc_d for d = deg G is the determinant of the first
    m + l - 2d columns of the pair's rows, deg G is the Sylvester matrix's
    rank defect, and on a coprime pair psc is the resultant."""
    rng = random.Random(seed)
    coprime = 0
    for _ in range(300):
        a, b = pair(rng)
        divisor, psc = sylvester_resultant(a, b)
        m, l, d = len(a) - 1, len(b) - 1, len(divisor) - 1
        leading = [row[: m + l - 2 * d] for row in _pair_rows(a, b, d)]
        assert psc == (det_fraction_free(leading) if leading else 1), (a, b)
        rows = _pair_rows(a, b)
        assert d == len(rows) - _rank(rows), (a, b)
        if not d:
            coprime += 1
            continue
        # Res = 0 with psc nonzero, and G divides both and is primitive
        assert det_fraction_free(rows) == 0 and psc, (a, b)
        g = UniPoly.from_descending(divisor)
        assert not divmod(UniPoly.from_descending(a), g)[1], (a, b)
        assert not divmod(UniPoly.from_descending(b), g)[1], (a, b)
        assert gcd(*divisor) == 1
    assert 50 < coprime < 250, seed


class TestSylvesterResultant:
    def test_equals_the_bareiss_determinant_of_the_gamma_n_matrix(self):
        rng = random.Random(3737)
        for poly in _resultant_inputs(rng):
            n = poly.degree
            ints = [c.numerator for c in poly.coeffs]
            size = 2 * n - 1
            rows = reference_rows(ints, 0, n - 1, size) + reference_rows(ints, 1, n, size)
            divisor, psc = sylvester_resultant(derivative_coeffs(ints, 0), derivative_coeffs(ints, 1))
            common = len(divisor) - 1
            det = det_fraction_free(rows)
            # psc is Res(F, F') when G = [1], and Res(F, F') = 0 otherwise
            assert det == (0 if common else psc) and psc != 0, poly
            assert n - common == len(squarefree_multiplicity(poly)), poly
            assert disc_value(poly, (n,)).value == Fraction(det, ints[-1])

    def test_rational_input_rescales_like_the_matrix(self):
        rng = random.Random(4242)
        for n in range(1, 31):
            poly = UniPoly(
                [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
                + [Fraction(rng.choice([-5, 2, 7]), rng.randint(1, 6))]
            )
            if n % 3 == 0:  # a repeated root, so the value is 0
                poly = product(poly, *[UniPoly([Fraction(1, 3), -2])] * 2)
            m = poly.degree
            size = 2 * m - 1
            rows = reference_rows(poly.coeffs, 0, m - 1, size) + reference_rows(poly.coeffs, 1, m, size)
            assert disc_value(poly, (m,)).value == det_rational(rows) / poly.leading

    def test_general_pairs_and_the_gcd_degree(self):
        _check_general_pairs(5151, _dense_pair)
        assert sylvester_resultant([3], [5, 1]) == ([1], 3)
        assert sylvester_resultant([2, 0, 1], [-5]) == ([1], 25)

    def test_dense_and_repeated_inputs_at_degree_40_to_85(self, monkeypatch):
        # dense F at n = 40, 60 and 80, where every pseudo-remainder drops the
        # degree by exactly one (the one-pass step); then that F of degree 80
        # times (x - 2)^2 (x + 1)^3, where G = (x - 2)(x + 1)^2, the
        # determinant is 0 and psc is nonzero
        prems = spy(monkeypatch, ENGINE, "_prem")

        def check(ints):
            a, b = derivative_coeffs(ints, 0), derivative_coeffs(ints, 1)
            prems.clear()
            divisor, psc = sylvester_resultant(a, b)
            assert psc and det_fraction_free(_pair_rows(a, b)) == (psc if divisor == [1] else 0)
            return divisor

        rng = random.Random(4080)
        for n in (40, 60, 80):
            ints = [rng.randint(-99, 99) for _ in range(n)] + [rng.choice([-7, 3, 5])]
            assert check(ints) == [1] and [len(a) - len(b) for a, b in prems] == [1] * (n - 1), n
        for root in (2, 2, -1, -1, -1):
            # times (x - root): the coefficient of x^e is a_(e-1) - root * a_e
            ints = [a - root * b for a, b in zip([0] + ints, ints + [0])]
        assert check(ints) in ([1, 0, -3, -2], [-1, 0, 3, 2])

    def test_rejects_zero_leading_and_flags_inexact_division(self):
        with pytest.raises(ValueError):
            sylvester_resultant([0, 1], [1, 1])
        with pytest.raises(ValueError):
            sylvester_resultant([1, 1], [])
        with pytest.raises(ArithmeticError, match="non-exact"):
            _exact(7, 2)
        assert _exact(-12, 4) == -3

    def test_pseudo_remainder_is_the_rational_remainder(self):
        # lc(b)^(delta + 1) * a mod b by division over the rationals, padded
        # with leading zeros to len(b) - 1 entries; delta = 1 is the one-pass
        # step, the others the loop, and a zero top term of a is still a pass
        rng = random.Random(4343)
        cases = Counter()
        for _ in range(400):
            b = [rng.choice([-6, -2, 1, 3, 7])] + [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            delta = rng.randint(0, 3)
            a = [rng.choice([-5, 2, 4])] + [rng.randint(-9, 9) for _ in range(len(b) - 1 + delta)]
            zero_top = rng.random() < 0.3
            if zero_top:
                a[0] = 0
            _, rem = divmod(scaled(UniPoly.from_descending(a), b[0] ** (delta + 1)), UniPoly.from_descending(b))
            want = [0] * (len(b) - 1 - len(rem.coeffs)) + list(rem.descending_coeffs())
            assert _prem(a, b) == want, (a, b)
            cases[delta, zero_top] += 1
        assert len(cases) == 8

    def test_a_remainder_in_a_quotient_raises(self, monkeypatch):
        # one coefficient of the second pseudo-remainder off by one: that step
        # divides it by lc(F')^2 = 18^2, which leaves a remainder, and the
        # division loop raises rather than go on with a wrong sequence
        a = [3, -1, 4, 1, -5, 9, 2]
        b = derivative_coeffs(a[::-1], 1)
        assert sylvester_resultant(a, b)[0] == [1]
        real, steps = ENGINE._prem, []

        def perturbed(a, b):
            rem = real(a, b)
            steps.append(rem)
            if len(steps) == 2:
                rem[-1] += 1
            return rem

        monkeypatch.setattr(ENGINE, "_prem", perturbed)
        with pytest.raises(ArithmeticError, match="non-exact"):
            sylvester_resultant(a, b)


def _leaf_factor(poly):
    """lc(G)^(2k-1) * Res(F/G, F'/G) for F = ``poly`` cleared to integers, with
    no PRS: G = gcd(F, F') by Euclid over the rationals, made a primitive
    integer polynomial, and the resultant by Bareiss on the Sylvester matrix."""
    f = UniPoly(poly.clear_denominators()[0])
    g = UniPoly(reference_gcd(f, derivative(f)).clear_denominators()[0])
    (a, r), (b, s) = divmod(f, g), divmod(derivative(f), g)
    assert r.is_zero and s.is_zero
    k = f.degree - g.degree
    res = det_fraction_free(_pair_rows(_descending_ints(a), _descending_ints(b)))
    return g.leading.numerator ** (2 * k - 1) * res


def _psc(poly):
    ints = poly.clear_denominators()[0]
    return sylvester_resultant(derivative_coeffs(ints, 0), derivative_coeffs(ints, 1))[1]


class TestPrincipalSubresultant:
    """The second value of sylvester_resultant, psc_d(a, b) for d = deg gcd(a, b)."""

    def test_is_the_leaf_factor_on_dense_rational_inputs(self):
        count = 0
        for n in range(1, 10):
            for mu in iter_partitions(n):
                roots = [Fraction(2 * i - 3, 5) for i in range(len(mu))]
                for lead in (1, Fraction(-3, 7)):
                    poly = expand(RootSpec(tuple(zip(roots, mu)), lead))
                    assert _psc(poly) == _leaf_factor(poly), (mu, lead)
                    count += 1
        assert count == 192

    def test_is_the_leaf_factor_on_sparse_inputs(self):
        # products of powers of c * x^j + e: their PRS drops the degree by
        # more than one, where the sign of psc needs the degrees lowered by d
        rng = random.Random(2754)
        cases = Counter()
        for _ in range(300):
            poly = UniPoly([1])
            for _ in range(rng.randint(1, 2)):
                j = rng.randint(1, 4)
                c, e = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-3, -2, -1, 1, 2, 3])
                poly = product(poly, *[UniPoly([e] + [0] * (j - 1) + [c])] * rng.randint(1, 3))
            if poly.degree > 14:
                continue
            assert _psc(poly) == _leaf_factor(poly), poly
            cases[len(squarefree_multiplicity(poly)) < poly.degree] += 1
        assert cases[True] > 100 and cases[False] > 20

    def test_is_the_leading_columns_determinant_of_general_pairs(self):
        _check_general_pairs(6262, _sparse_pair)


class TestDiscValue:
    def test_reference_quintic_chain_values(self):
        # D(5) = D(4,1) = 0 and D(3,2) != 0
        assert zeros_before_conjugate(QUINTIC, (2, 2, 1)) == 2

    def test_determinant_is_divisible_by_leading_coefficient(self):
        rng = random.Random(17)
        for n in range(2, 7):
            for gamma in iter_partitions(n):
                poly = random_int_poly(rng, n)
                rows = [[e.numerator for e in row] for row in build_matrix(poly, gamma)]
                dp = det_fraction_free(rows)
                # the staircase layout skips rows in most elimination steps
                assert dp == det_rational(rows)
                assert dp % poly.leading.numerator == 0

    def test_homogeneity_scaling(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(2, 6)
            gamma = rng.choice(list(iter_partitions(n)))
            poly = random_int_poly(rng, n)
            c = Fraction(rng.choice([2, -3, 5]), rng.choice([1, 2, 7]))
            assert_leaf_invariant(poly, gamma, c)
        # gamma = (n) at the classify workloads' degrees, on the resultant path;
        # D_(n) is also invariant under a shift of x
        for n in range(20, 31, 2):
            poly = random_int_poly(rng, n, bound=30)
            c = Fraction(rng.choice([2, -3, 5]), rng.choice([1, 2, 7]))
            t = Fraction(rng.randint(-4, 4), rng.choice([1, 3]))
            assert assert_leaf_invariant(poly, (n,), c, t) != 0

    def test_classical_discriminant_at_workload_degrees_matches_sympy(self):
        # the classify workloads run D_(n) at n = 20..28, far above perm_det's reach
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(2028)
        for n in (20, 24, 28):
            integer = random_int_poly(rng, n, bound=50)
            rational = UniPoly(
                [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n)]
                + [Fraction(rng.choice([-7, 3, 11]), rng.choice([2, 5, 9]))]
            )
            for poly in (integer, rational):
                f = sum(sympy.Rational(c.numerator, c.denominator) * x**i
                        for i, c in enumerate(poly.coeffs))
                expected = (-1) ** (n * (n - 1) // 2) * sympy.discriminant(f, x)
                value = disc_value(poly, (n,)).value
                assert value != 0
                assert sympy.Rational(value.numerator, value.denominator) == expected

    def test_rational_coefficients_supported(self):
        assert disc_value(scaled(QUINTIC, Fraction(3, 7)), (5,)).value == 0
        assert_leaf_invariant(QUINTIC, (3, 2), Fraction(3, 7))


def _bareiss_value(poly, gamma):
    """D_gamma by the Bareiss elimination of the full matrix, rescaled by hand."""
    ints, scale = poly.clear_denominators()
    dp = det_fraction_free(_build(ints, gamma))
    return Fraction(dp, ints[-1]) / scale ** (poly.degree + gamma[0] - 2)


def _many_roots(n):
    """(x - 1)^2 (x - 2) ... (x - (n - 1)): k = n - 1 distinct roots, delta = (n - 1, 1)."""
    return expand(RootSpec(((1, 2),) + tuple((i, 1) for i in range(2, n)), 1))


class TestReducedLeaf:
    """disc_value routes on g1 against k: 0 for g1 > k, the reduction through
    G = gcd(F, F') for g1 = k, and the Bareiss elimination for g1 < k."""

    def test_reduction_equals_bareiss_for_every_gamma_with_g1_equal_k(self):
        cases = {True: 0, False: 0}
        for n in range(1, 11):
            for mu in iter_partitions(n):
                k = len(mu)
                roots = [Fraction(2 * i - 3, 5) for i in range(k)]
                for lead in (1, -2, Fraction(5, 3), Fraction(-3, 7)):
                    poly = expand(RootSpec(tuple(zip(roots, mu)), lead))
                    delta = conjugate(mu)
                    for gamma in iter_partitions(n):
                        if gamma[0] == k:
                            value = disc_value(poly, gamma).value
                            assert value == _bareiss_value(poly, gamma), (mu, lead, gamma)
                            if gamma >= delta:  # 0 before delta by the row count
                                assert (value != 0) == (gamma == delta), (mu, lead, gamma)
                            cases[value != 0] += 1
        assert cases == {True: 1392, False: 904}

    @pytest.mark.parametrize(
        "poly",
        [
            expand(RootSpec(((1, 20), (2, 20)), 1)),
            expand(RootSpec(((1, 12), (2, 12), (3, 12)), 1)),
            expand(RootSpec(((1, 30),), 1)),
            _many_roots(40),
        ],
        ids=["(20,20)", "(12,12,12)", "(x-1)^30", "many-roots-40"],
    )
    def test_reduction_equals_bareiss_at_high_degree(self, poly):
        delta = conjugate(squarefree_multiplicity(poly))
        gammas = [gamma for gamma in iter_partitions(poly.degree) if gamma[0] == delta[0]]
        values = [disc_value(poly, gamma).value for gamma in gammas]
        assert values == [_bareiss_value(poly, gamma) for gamma in gammas]
        assert values[gammas.index(delta)] != 0

    def test_routing(self, monkeypatch):
        # the first gamma on a polynomial runs the one PRS of F and F', and
        # every later gamma on it reads that PRS from the memo; g1 > k runs no
        # determinant, g1 = k reads psc_(n-k)(F, F') off the PRS and runs one
        # determinant of order n - k (none for gamma = (n) on a squarefree F),
        # and g1 < k runs one Bareiss at its full order n + g1 - 1
        dets = spy(monkeypatch, ENGINE, "det_fraction_free")
        resultants = spy(monkeypatch, ENGINE, "sylvester_resultant")
        for mu in [(1, 1, 1, 1, 1), (3, 2), (2, 2, 1), (4, 1, 1), (6,), (3, 3, 1, 1)]:
            poly = expand(RootSpec(tuple((i - 1, m) for i, m in enumerate(mu)), 2))
            n, k = poly.degree, len(mu)
            for first, gamma in enumerate(iter_partitions(n)):
                dets.clear()
                resultants.clear()
                disc_value(poly, gamma)
                prs = 0 if first else 1
                if gamma[0] > k:
                    expected = []
                elif gamma[0] == k:
                    expected = [n - k] if n > k else []
                else:
                    expected = [n + gamma[0] - 1]
                orders = [len(rows) for (rows,) in dets]
                assert (orders, len(resultants)) == (expected, prs), (mu, gamma)

    def test_inexact_division_is_an_engine_fault(self, monkeypatch):
        # a divisor that is not G = gcd(F, F') = x - 1: the remainder of F''
        # by 8x - 1 is -29/4, so psc * det R = -2 * -29/4 is no integer, and
        # the final exact division raises rather than return a wrong value
        poly = expand(RootSpec(((1, 2), (2, 1)), 1))
        real = ENGINE.disc_resultant

        def wrong_gcd(poly):
            ints, scale, _, psc = real(poly)
            assert psc == -2
            return ints, scale, (8, -1), psc

        monkeypatch.setattr(ENGINE, "disc_resultant", wrong_gcd)
        with pytest.raises(ArithmeticError, match="non-exact"):
            disc_value(poly, (2, 1))

    def test_row_count_route_runs_no_determinant(self, monkeypatch):
        # every gamma with g1 > k is 0 by the row count at level 1, and the
        # Bareiss elimination of its full matrix agrees
        calls = spy(monkeypatch, ENGINE, "det_fraction_free")
        checked = 0
        for n in range(1, 9):
            for mu in iter_partitions(n):
                k = len(mu)
                poly = expand(RootSpec(tuple((Fraction(2 * i - 3, 5), m) for i, m in enumerate(mu)), -2))
                for gamma in iter_partitions(n):
                    if gamma[0] > k:
                        calls.clear()
                        assert disc_value(poly, gamma).value == 0, (mu, gamma)
                        assert calls == [], (mu, gamma)
                        assert _bareiss_value(poly, gamma) == 0, (mu, gamma)
                        checked += 1
        assert checked == 373
        # prod_{i<=40} (x - i)^2 has k = 40: D_(41,39) is 0 with no determinant,
        # where the Bareiss elimination of its matrix, of order 120, takes 12 s
        poly = expand(RootSpec(tuple((i, 2) for i in range(1, 41)), 1))
        calls.clear()
        assert disc_value(poly, (41, 39)).value == 0
        assert calls == []


class TestResultantMemo:
    """disc_resultant keeps its last result, keyed on the identity of poly.coeffs."""

    POLY = expand(RootSpec(((1, 3), (-2, 2), (Fraction(1, 3), 1)), 3))  # delta = (3, 2, 1)
    SQUAREFREE = UniPoly([5, -2, 0, 1, 0, 0, 3])  # 3x^6 + x^3 - 2x + 5, D_(6) != 0
    OTHER = expand(RootSpec(((2, 2), (-1, 2), (0, 2)), Fraction(-5, 2)))  # delta = (3, 3)

    def test_a_multiple_shares_ints_but_not_the_value(self):
        # P and c * P clear to the same ints with scales that differ by 1/c,
        # and D_gamma is homogeneous of degree n + g1 - 2, so a memo keyed on
        # ints alone would hand c * P the D_(n) of P
        c = 7
        for poly in (self.SQUAREFREE, self.POLY):
            multiple = scaled(poly, c)
            ints, scale = poly.clear_denominators()
            assert multiple.clear_denominators() == (ints, scale / c)
            n = poly.degree
            for gamma in iter_partitions(n):
                value = disc_value(poly, gamma).value
                assert disc_value(multiple, gamma).value == c ** (n + gamma[0] - 2) * value, gamma
        assert disc_value(self.SQUAREFREE, (6,)).value != 0

    def test_interleaved_polynomials_give_the_cleared_values(self, monkeypatch):
        # P, c * P and another polynomial in turn: a call hits the memo only
        # right after a call on the same polynomial, and every value equals
        # the one computed with an empty memo
        multiple = scaled(self.POLY, 7)
        gammas = list(iter_partitions(self.POLY.degree))
        expected = {}
        for poly in (self.POLY, multiple, self.OTHER):
            for gamma in gammas:
                ENGINE._last_resultant = (None, None)
                expected[poly, gamma] = disc_value(poly, gamma).value
        ENGINE._last_resultant = (None, None)
        resultants = spy(monkeypatch, ENGINE, "sylvester_resultant")
        order = [
            (poly, gamma)
            for gamma in gammas
            for poly in (self.POLY, multiple, multiple, self.OTHER, self.POLY)
        ]
        assert [disc_value(*case).value for case in order] == [expected[case] for case in order]
        # four misses for the first gamma, then three for each (P hits after P)
        assert len(resultants) == 4 + 3 * (len(gammas) - 1)

    def test_the_memoized_gcd_is_a_tuple(self):
        first = disc_resultant(self.POLY)
        ints, scale, divisor, psc = first
        assert (ints, scale) == self.POLY.clear_denominators()
        assert isinstance(divisor, tuple) and len(divisor) == 4  # deg G = n - k = 3
        assert disc_resultant(self.POLY) is first
        # an equal polynomial with its own coefficient tuple misses, and gives
        # an equal result
        equal = UniPoly(self.POLY.coeffs)
        assert equal == self.POLY and equal.coeffs is not self.POLY.coeffs
        again = disc_resultant(equal)
        assert again == first and again is not first
        # the memo holds its key, so a freed input's tuple cannot be mistaken
        # for a later one's
        for c in range(1, 30):
            assert disc_resultant(UniPoly([c, 0, 1]))[3] == 4 * c


def full_expansion(n, gamma):
    """D_gamma from the expansion of the whole generic matrix, its first
    column divided by an: the reference for the translation recurrence."""
    an = SymPoly.variable(n + 1, n)
    rows = [(row[0].exact_divide(an), *row[1:]) for row in build_symbolic_matrix(n, gamma)]
    return det_minor_expansion(rows)


def _packed_run(monkeypatch, n, gamma):
    """The rows of the one _packed_det call of disc_symbolic(n, gamma), which
    runs with SymPoly.exact_divide barred; the checks every packed run meets."""
    width = (n + gamma[0] - 1).bit_length()
    divided = []

    def barred(self, divisor):
        divided.append(self)
        raise AssertionError("disc_symbolic divided a SymPoly")

    with monkeypatch.context() as patch:
        patch.setattr(SymPoly, "exact_divide", barred)
        calls = spy(patch, ENGINE, "_packed_det")
        value = disc_symbolic(n, gamma).value
    assert len(calls) == 1 and divided == []
    [(rows,)] = calls
    keys = [key for row in rows for entry in row for key in entry]
    # no key has an a(n-1) field, and every key of the first column is the monomial 1
    assert keys and not any(key >> (n - 1) * width & (1 << width) - 1 for key in keys)
    assert all(key == 0 for row in rows for key in row[0])
    assert value == full_expansion(n, gamma)
    return rows


# sha256 of disc_symbolic(n, gamma).value.to_latex() for every gamma with
# n <= 6, recorded before the symbolic matrix was built packed; no CLI path
# prints a multi-term result in LaTeX, so the CLI digests do not pin these
LATEX_DIGESTS = {
    "1": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    "2": "2b30da8e12f787a380abd7df939efd8e6856ef9f3b7d60467fd2aa2db27ae4ce",
    "1,1": "8d6487860e333330e22494e82e349b7947551bd904b1f75b7075ee1b24452fb4",
    "3": "b1e232775751a16eca7ad561d1db1f49a7824ea3cdeb69427af729d0f59490a9",
    "2,1": "8695afacaae64419fdb737467b23ec063c251adf0c2055564bdae2f5bfa37d31",
    "1,1,1": "aaaaa7ad08adf2a82bd30a6b48a280cf18310634cfcefcfa4da866d58cf4fe52",
    "4": "67bde77916c0dc3b46378a551b6ea009a1152ad0f3396904602e2c45aa36e2f2",
    "3,1": "02e5878abb0ab8f7745df4917498e85c033fd26c6d453ab7b35a08a1f9aaf21b",
    "2,2": "9d8d5d27b6b340a225e64cf6e90c8ecd2aad794fd74c28eac4832ace43afb3e9",
    "2,1,1": "560626bdc9fdef223e91a61434d33ea24485664547433b127ba2a42f01fb3400",
    "1,1,1,1": "9e0d51e82b2f0b0ce3f8d46f12bf2ac0807a9bcd20475f637639f7a27ac6d3c4",
    "5": "d4252a6226daaa7ab819bb5080306442767abb92884855a85437236245f99223",
    "4,1": "6f41a908be33fb8e85013213e3da72b43635884afd4401e8faeaf9b5c994dc27",
    "3,2": "0bc7c756c7eb75e0fa3420ff3e25ec677fc9578d5e3ee375cd784cfdf88fb621",
    "3,1,1": "ec7bdd0c893b749c72c1d004e7c85c8e56a727a7d030572e8fbef5bebf42cecd",
    "2,2,1": "718dcd502f04430b6d96d5ceb2154508b10b9a92b092d765990fa5d45e5649a2",
    "2,1,1,1": "e63b55cfdf8d6a22329d32fbf0484a9a5df1cc3a5f27c4a9b0ac4b11dd1aad5a",
    "1,1,1,1,1": "a7e5cf55c5b17ba2b02dbe27ced6461c87617fca66f91f6a1e79d1e27f9e7009",
    "6": "f6412e187530221414c575c0d8a61729e3598648a7e8a294e06a1628fbb52478",
    "5,1": "f2309ea71d9d3ea608ef2e13d93ac0b32cd1ab85e20c53091eb39fa07721bc67",
    "4,2": "4684a5ec9255e5cfebb90bdbe70f7c32d05869442f0e3ab5a347a23b47263f5b",
    "4,1,1": "35576c9287b170d5bbc8f1a3b2b9f7c8b0d01db16c9adddcad9a1d16662a3815",
    "3,3": "6c553d05d7c4b3844b8ce9ae006f731aeb18ade2813910512093dd46bfeab9ad",
    "3,2,1": "74699146fdb39140fa4cf20e28f9ac00e718829f1a7c773af9a3909f113ca614",
    "3,1,1,1": "faef9741d092ad0ab0d328b687c05eaa5c362f85df66a0d7514bd22a035828bb",
    "2,2,2": "632d015aab55270310e7c7ddbb1570060154e64395637fe2bd41d0ea7fbdf928",
    "2,2,1,1": "f23849e5c143fb5287586338aaa180a6be7022318b3cf733d0150854b7ba719c",
    "2,1,1,1,1": "f187ba7db7afdb39f1cbbf91d24083e2a3c98221cd61832826b08d6dc04e33a6",
    "1,1,1,1,1,1": "ef0df8615173528ca0229e66a3129b8f0b3f69ee7cfa24fba1c3e64387ca3b88",
}


class TestDiscSymbolic:
    def test_all_ones_closed_form_single_term(self):
        d = disc_symbolic(5, (1, 1, 1, 1, 1))
        assert len(d.value.terms) == 1
        assert d.value == SymPoly(6, {(0, 0, 0, 0, 0, 4): 86400000})

    def test_divides_the_first_column_not_the_determinant(self, monkeypatch):
        # an leaves through the n + g1 - 1 entries of the first column, each
        # packed as {0: c} or empty; no SymPoly division runs, over the
        # matrix or the determinant
        rows = _packed_run(monkeypatch, 6, (6,))
        column = [row[0] for row in rows]
        assert len(column) == 11
        assert [r for r, entry in enumerate(column) if entry] == [0, 5]  # blocks 0 and 1 start there
        assert column[0] == {0: 1} and column[5] == {0: 6}  # a6 and 6 * a6 over a6

    def test_rebuild_matches_the_full_expansion(self):
        # the translation recurrence against the expansion of the whole
        # divided matrix, a(n-1) kept, for every gamma with n <= 6
        for n in range(1, 7):
            for gamma in iter_partitions(n):
                assert disc_symbolic(n, gamma).value == full_expansion(n, gamma), (n, gamma)

    def test_recurrence_runs_past_a_zero_coefficient(self):
        # at (2,1,1,1) D has no a4^4 part but an a4^5 part, so a stop at the
        # first zero D_j would drop -27648*a4^5
        full = full_expansion(5, (2, 1, 1, 1))
        assert sorted({exps[4] for exps in full.terms}) == [0, 1, 2, 3, 5]
        assert full.terms[(0, 0, 0, 0, 5, 0)] == -27648
        assert disc_symbolic(5, (2, 1, 1, 1)).value == full

    def test_degrees_one_and_two_where_l2_is_empty(self):
        # L'' has no term for n <= 2; for n = 1, a(n-1) is a0 and D_(1) = 1
        assert disc_symbolic(1, (1,)).value == SymPoly(2, {(0, 0): 1})
        assert disc_symbolic(2, (2,)).value == SymPoly(3, {(1, 0, 1): 4, (0, 2, 0): -1})
        assert disc_symbolic(2, (1, 1)).value == SymPoly(3, {(0, 0, 1): 4})

    def test_expands_one_matrix_free_of_a_n_minus_1(self, monkeypatch):
        # one packed expansion, 4-bit fields at order 8, none of them a5's
        rows = _packed_run(monkeypatch, 6, (3, 2, 1))
        assert len(rows) == 8
        # F, F', F'' and F''' have 7, 6, 5, 4 coefficients, one of them a5's
        assert sum(1 for row in rows for entry in row if entry) == 2 * 6 + 3 * 5 + 2 * 4 + 1 * 3

    def test_packed_rows_are_the_divided_matrix(self, monkeypatch):
        # the rows handed to _packed_det against the SymPoly construction:
        # build_symbolic_matrix, its first column divided by an, the entries
        # that hold a(n-1) dropped, packed at w = (n + g1 - 1).bit_length();
        # at order 8 that is 4 bits, where the recurrence's degree 7 needs 3
        calls = spy(monkeypatch, ENGINE, "_packed_det")
        widths = set()
        for n in range(1, 9):
            an = SymPoly.variable(n + 1, n)
            for gamma in iter_partitions(n):
                calls.clear()
                disc_symbolic(n, gamma)
                width = (n + gamma[0] - 1).bit_length()
                widths.add(width)
                shifts = [i * width for i in range(n + 1)]
                expected = [
                    [
                        {} if _a(n - 1, n + 1) in e.terms else _packed(e, shifts)
                        for e in (row[0].exact_divide(an), *row[1:])
                    ]
                    for row in build_symbolic_matrix(n, gamma)
                ]
                assert calls == [(expected,)], (n, gamma)
        assert widths == {1, 2, 3, 4}

    def test_degree_seven_peaks_below_0_6_mb(self):
        # D_0 of gamma = (7), its minors built on the leading columns, and the
        # rebuild peaked at 0.34 MB; the minors on the trailing columns at 1.0 MB
        _, peak = traced_peak(lambda: disc_symbolic(7, (7,)))
        assert peak < 0.6 * 2**20

    def test_recurrence_raises_on_a_remainder(self):
        # D_0 = a0 or a0*a2 at n = 2 is no D_0 of an invariant polynomial:
        # D_2 needs 1 / (4 a2) and a2 / (4 a2) respectively; keys have 2-bit fields
        for base in ({1: 1}, {1 + (1 << 4): 1}):
            with pytest.raises(ArithmeticError, match="translation recurrence"):
                _translation_rebuild(base, 2, 2, 2)

    def test_terms_are_isobaric(self):
        # a_d has weight d.  In the column of x^j, row (order o, shift k)
        # holds a multiple of a_(j - k + o), the coefficient of x^j in
        # x^k F^(o).  So every term of the determinant has weight
        # sum(o - k) over the rows plus sum(j) = size(size - 1)/2, and the
        # division by an takes n off.  Not n(n - 1) in general: 18 for
        # (3, 2) and 17 for (2, 2, 1) at n = 5.  check_invariants holds every
        # D_gamma of n <= 7 to weight(gamma)
        expected = {}
        for n in range(1, 7):
            for gamma in iter_partitions(n):
                layout = row_layout(gamma)
                size = len(layout)
                expected[gamma] = sum(order - shift for order, shift in layout) + size * (size - 1) // 2 - n
                assert weight(gamma) == expected[gamma], (n, gamma)
        assert (expected[(3, 2)], expected[(2, 2, 1)], expected[(5,)]) == (18, 17, 20)

    def test_classical_discriminant_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in range(2, 7):
            a = sympy.symbols(f"a0:{n + 1}")
            x = sympy.Symbol("x")
            generic = sum(a[i] * x**i for i in range(n + 1))
            expected = (-1) ** (n * (n - 1) // 2) * sympy.discriminant(generic, x)
            value = disc_symbolic(n, (n,)).value
            ours = sum(
                c * sympy.Mul(*(a[i] ** e for i, e in enumerate(exps)))
                for exps, c in value.terms.items()
            )
            assert sympy.expand(ours - expected) == 0

    def test_latex_output_is_pinned(self):
        got = {}
        for n in range(1, 7):
            for gamma in iter_partitions(n):
                latex = disc_symbolic(n, gamma).value.to_latex()
                got[",".join(map(str, gamma))] = hashlib.sha256(latex.encode()).hexdigest()
        assert got == LATEX_DIGESTS

    def test_invariants_to_degree_seven(self):
        # tests/symbolic_invariants.py, which a CI step runs at n = 9
        assert [check_invariants(n) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]
