import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from multidisc import UniPoly
from multidisc.unipoly import parse_rational

from conftest import QUINTIC, coeff, derivative, difference, mul_power, product, random_int_poly, scaled


def test_zero_polynomial_has_no_degree():
    zero = UniPoly()
    assert zero.is_zero
    with pytest.raises(ValueError):
        zero.degree
    with pytest.raises(ValueError):
        zero.leading


def test_trailing_zeros_are_normalized():
    assert UniPoly([1, 2, 0, 0]) == UniPoly([1, 2])
    assert UniPoly([0, 0]).is_zero


def test_fraction_coefficients_are_kept_and_others_converted():
    half = Fraction(1, 2)
    poly = UniPoly([half, 3, True, Decimal("0.25"), Fraction(0), 0])
    assert poly.coeffs[0] is half
    assert poly.coeffs == (half, 3, 1, Fraction(1, 4))
    assert all(type(c) is Fraction for c in poly.coeffs)


def test_derivative_order_zero_is_identity():
    assert derivative(QUINTIC, 0) == QUINTIC


def test_derivative_generic_first_order():
    # d/dx (a5 x^5 + ... + a0) = 5 a5 x^4 + 4 a4 x^3 + 3 a3 x^2 + 2 a2 x + a1
    poly = UniPoly([Fraction(i, 7) for i in range(1, 7)])  # a0..a5 = 1/7..6/7
    got = derivative(poly)
    expected = UniPoly([coeff(poly, i) * i for i in range(1, 6)])
    assert got == expected
    assert got.degree == 4


def test_derivative_beyond_degree_is_zero():
    assert derivative(UniPoly.from_descending([1, 0, 0, 0, 0, 0]), 6).is_zero


def test_derivative_composes_additively():
    rng = random.Random(101)
    for _ in range(25):
        poly = random_int_poly(rng, rng.randint(1, 9))
        i, j = rng.randint(0, 4), rng.randint(0, 4)
        assert derivative(derivative(poly, i), j) == derivative(poly, i + j)


def test_mul_power_examples():
    poly = UniPoly([1, 1])  # x + 1
    assert mul_power(poly, 0) == poly
    assert mul_power(poly, 2) == UniPoly([0, 0, 1, 1])  # x^3 + x^2
    assert mul_power(UniPoly(), 5).is_zero


def test_mul_power_matches_evaluation():
    rng = random.Random(7)
    for _ in range(20):
        poly = random_int_poly(rng, rng.randint(1, 6))
        k = rng.randint(0, 4)
        r = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert mul_power(poly, k).eval(r) == poly.eval(r) * r**k


def test_eval_examples():
    assert QUINTIC.eval(1) == 0
    assert QUINTIC.eval(0) == coeff(QUINTIC, 0) == 4
    assert UniPoly([-2, 0, 1]).eval(Fraction(3, 2)) == Fraction(1, 4)


def test_clear_denominators_examples():
    half_third = UniPoly([Fraction(1, 3), Fraction(1, 2)])  # x/2 + 1/3
    assert half_third.clear_denominators() == ((2, 3), 6)  # 3x + 2

    assert UniPoly([3, -2, 5]).clear_denominators() == ((3, -2, 5), 1)

    doubled = UniPoly([4, 2])  # 2x + 4
    assert doubled.clear_denominators() == ((2, 1), Fraction(1, 2))

    # the sign stays with the integers: the scale is always positive
    assert UniPoly([Fraction(-1, 2), 0, Fraction(-3, 4)]).clear_denominators() == ((-2, 0, -3), 4)


def test_clear_denominators_round_trip_and_rejects_zero():
    rng = random.Random(55)
    for _ in range(30):
        coeffs = [
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(rng.randint(1, 8))
        ]
        poly = UniPoly(coeffs)
        if poly.is_zero:
            continue
        ints, scale = poly.clear_denominators()
        assert type(ints) is tuple and all(type(c) is int for c in ints)
        assert len(ints) == len(poly.coeffs) and gcd(*ints) == 1
        assert type(scale) is Fraction and scale > 0
        assert scaled(UniPoly(ints), 1 / scale) == poly
    with pytest.raises(ValueError):
        UniPoly().clear_denominators()


def test_divmod_is_euclidean():
    rng = random.Random(9)
    for _ in range(30):
        a = random_int_poly(rng, rng.randint(0, 8))
        b = random_int_poly(rng, rng.randint(0, 5))
        q, r = divmod(a, b)
        assert difference(a, product(q, b)) == r
        assert r.is_zero or r.degree < b.degree
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        divmod(QUINTIC, UniPoly())
    with pytest.raises(TypeError):
        divmod(QUINTIC, 3)


def test_parse_rational_is_exact_and_rejects_exponents():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational(" 12 ") == 12
    for text in ("1e5", "2E-3", "1/2e1"):
        with pytest.raises(ValueError, match="exponent notation"):
            parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_parse_rational_reads_what_fraction_reads():
    # plain integers skip Fraction's pattern; every token gives the value and
    # the type that Fraction gives, or ValueError where Fraction raises it or
    # the token has an exponent
    def reference(text):
        if "e" in text or "E" in text:
            raise ValueError("exponent notation")
        return Fraction(text)

    tokens = [str(k) for k in range(-1000, 1001)]
    # an Arabic-Indic three is a decimal digit, a superscript two is not
    tokens += ["\u0663", "0003", "-0", "+3", "1_0", " 12 ", "\u00b2", "-", "--3", "-+3"]
    tokens += ["1e5", "-1E2", "3/6", ""]
    for text in tokens:
        try:
            want = reference(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_rational(text)
            continue
        got = parse_rational(text)
        assert type(got) is Fraction and got == want, text
