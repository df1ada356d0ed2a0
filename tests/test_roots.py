import random
from fractions import Fraction

import pytest

from multidisc import (
    RootSpec,
    UniPoly,
    conjugate,
    disc_from_distinct_roots,
    disc_from_multiple_roots_abs,
    disc_value,
    expand,
    parse_root_spec,
    partitions_of,
    squarefree_multiplicity,
)
from multidisc.roots import format_root_spec, random_root_spec, squarefree_decomposition

from conftest import random_int_poly

QUINTIC = UniPoly.from_descending([1, -5, 7, 1, -8, 4])


def _spec(pairs, leading=1):
    return RootSpec(tuple((Fraction(r), m) for r, m in pairs), Fraction(leading))


class TestRootSpec:
    def test_expand_reference_quintic(self):
        spec = _spec([(1, 2), (-1, 1), (2, 2)])
        assert expand(spec) == QUINTIC

    def test_expand_pure_power_and_simple_product(self):
        for n in (1, 3, 6):
            spec = _spec([(0, n)], leading=-3)
            assert expand(spec) == UniPoly([0] * n + [-3])
        spec = _spec([(1, 1), (2, 1)], leading=3)
        assert expand(spec) == UniPoly.from_descending([3, -9, 6])

    def test_duplicate_roots_rejected(self):
        with pytest.raises(ValueError):
            _spec([(1, 2), (1, 1)])

    def test_zero_leading_rejected(self):
        with pytest.raises(ValueError):
            _spec([(1, 1)], leading=0)

    def test_float_and_bool_multiplicities_rejected(self):
        # int() used to truncate these: ((1, 2.5), (2, True)) read as (2, 1)
        for mults in ((2.5, True), (2.0, 1), (True,), (3, False)):
            pairs = tuple(zip((Fraction(1), Fraction(2), Fraction(3)), mults))
            with pytest.raises(ValueError, match="not a partition"):
                RootSpec(pairs, 1)
            with pytest.raises(ValueError, match="not a partition"):
                random_root_spec(random.Random(3), mults)

    def test_parse_and_format_round_trip(self):
        spec = parse_root_spec("-2; 1^2, -1/2^1, 7/3^3")
        assert spec.leading == -2
        assert spec.roots == ((Fraction(1), 2), (Fraction(-1, 2), 1), (Fraction(7, 3), 3))
        assert parse_root_spec(format_root_spec(spec)) == spec

    def test_parse_defaults_multiplicity_to_one(self):
        spec = parse_root_spec("1; 4, 5^2")
        assert spec.roots == ((Fraction(4), 1), (Fraction(5), 2))

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_root_spec("no-semicolon")
        with pytest.raises(ValueError):
            parse_root_spec("1; x^2")
        with pytest.raises(ValueError):
            parse_root_spec("q; 1^2")

    def test_random_spec_is_seeded_and_in_range(self):
        a = random_root_spec(random.Random(9), (3, 1))
        b = random_root_spec(random.Random(9), (3, 1))
        assert a == b
        for root, _ in a.roots:
            assert abs(root) <= 9
            assert root.denominator in (1, 2)
        assert 1 <= abs(a.leading) <= 5 and a.leading.denominator == 1


class TestSquarefreeOracle:
    def test_reference_quintic(self):
        assert squarefree_multiplicity(QUINTIC) == (2, 2, 1)

    def test_squarefree_inputs(self):
        assert squarefree_multiplicity(UniPoly.from_descending([1, 0, 0, 0, 1, 1])) == (1,) * 5
        assert squarefree_multiplicity(UniPoly([1, 1])) == (1,)

    def test_round_trip_random_specs(self):
        rng = random.Random(100)
        for n in range(1, 11):
            for _ in range(5):
                mu = rng.choice(partitions_of(n))
                spec = random_root_spec(rng, mu)
                assert squarefree_multiplicity(expand(spec)) == mu

    def test_decomposition_reconstructs_and_factors_are_coprime(self):
        from multidisc.roots import _poly_gcd

        rng = random.Random(3)
        for _ in range(12):
            n = rng.randint(2, 8)
            mu = rng.choice(partitions_of(n))
            poly = expand(random_root_spec(rng, mu))
            lead, factors = squarefree_decomposition(poly)
            rebuilt = UniPoly([lead])
            for g, i in factors:
                rebuilt = rebuilt * g**i
            assert rebuilt == poly
            for idx, (g, _) in enumerate(factors):
                # squarefree: coprime with its own derivative
                assert _poly_gcd(g, g.derivative()).degree == 0
                for h, _ in factors[idx + 1 :]:
                    assert _poly_gcd(g, h).degree == 0

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            squarefree_multiplicity(UniPoly([5]))


class TestDistinctRootsFormula:
    def test_two_root_worked_example(self):
        spec = _spec([(0, 1), (1, 1)])  # F = x^2 - x
        value = disc_from_distinct_roots(spec, (2,))
        assert value == -1
        assert value == disc_value(expand(spec), (2,)).value

    def test_identity_against_engine(self):
        rng = random.Random(55)
        for n in range(1, 6):
            for _ in range(4):
                spec = random_root_spec(rng, (1,) * n)
                poly = expand(spec)
                for gamma in partitions_of(n):
                    assert disc_from_distinct_roots(spec, gamma) == disc_value(poly, gamma).value

    def test_all_ones_gamma_closed_form(self):
        rng = random.Random(66)
        for n in range(2, 6):
            spec = random_root_spec(rng, (1,) * n)
            product = 1
            for i in range(1, n + 1):
                product *= i**i
            assert disc_from_distinct_roots(spec, (1,) * n) == product * spec.leading ** (n - 1)

    def test_repeated_roots_rejected(self):
        with pytest.raises(ValueError):
            disc_from_distinct_roots(_spec([(1, 2), (2, 1)]), (3,))


class TestMultipleRootsFormula:
    def test_worked_mult_32_case_layout(self):
        # mult (3,2) with gamma = (2,2,1): 5x5 matrix, constant 1/2
        spec = _spec([(3, 3), (-2, 2)], leading=2)
        value = disc_from_multiple_roots_abs(spec, (2, 2, 1))
        assert value == abs(disc_value(expand(spec), (2, 2, 1)).value)
        assert value != 0

    def test_reference_quintic_cross_engine_value(self):
        spec = _spec([(1, 2), (-1, 1), (2, 2)])
        lhs = disc_from_multiple_roots_abs(spec, (3, 2))
        assert lhs == abs(disc_value(QUINTIC, (3, 2)).value)
        assert lhs != 0

    def test_identity_against_engine(self):
        rng = random.Random(91)
        for n in range(2, 6):
            partitions = partitions_of(n)
            for mu in partitions:
                spec = random_root_spec(rng, mu)
                poly = expand(spec)
                for gamma in partitions:
                    lhs = disc_from_multiple_roots_abs(spec, gamma)
                    assert lhs == abs(disc_value(poly, gamma).value)

    def test_reduces_to_distinct_roots_up_to_sign(self):
        rng = random.Random(121)
        for n in range(2, 6):
            spec = random_root_spec(rng, (1,) * n)
            for gamma in partitions_of(n):
                assert disc_from_multiple_roots_abs(spec, gamma) == abs(
                    disc_from_distinct_roots(spec, gamma)
                )


def test_leibniz_vanishing_structure():
    # For mult(F) = mu and any i <= s with mu_j >= i:
    # (F^(i) x^k)^(l)(r_j) is 0 below l = mu_j - i and F^(mu_j)(r_j) r_j^k there.
    rng = random.Random(777)
    for _ in range(10):
        n = rng.randint(2, 7)
        mu = rng.choice(partitions_of(n))
        spec = random_root_spec(rng, mu)
        poly = expand(spec)
        gamma = conjugate(mu)
        for i, gi in enumerate(gamma, start=1):
            for root, mult in spec.roots:
                if mult < i:
                    continue
                target = poly.derivative(mult).eval(root)
                for k in range(gi):
                    shifted = poly.derivative(i).mul_power(k)
                    for ell in range(mult - i):
                        assert shifted.derivative(ell).eval(root) == 0
                    assert shifted.derivative(mult - i).eval(root) == target * root**k


def test_derivatives_vanish_to_multiplicity():
    rng = random.Random(888)
    for _ in range(8):
        n = rng.randint(2, 6)
        mu = rng.choice(partitions_of(n))
        spec = random_root_spec(rng, mu)
        poly = expand(spec)
        for root, mult in spec.roots:
            for order in range(mult):
                assert poly.derivative(order).eval(root) == 0
            assert poly.derivative(mult).eval(root) != 0


def test_multiplicities_property():
    spec = _spec([(5, 1), (2, 4), (0, 2)])
    assert spec.multiplicities() == (4, 2, 1)
    assert spec.n == 7


def test_random_int_poly_helper_contract():
    rng = random.Random(1)
    poly = random_int_poly(rng, 5)
    assert poly.degree == 5
