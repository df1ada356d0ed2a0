import random
from fractions import Fraction
from operator import add

import pytest

from multidisc import SymPoly


def _var(idx, nvars=6):
    return SymPoly.variable(nvars, idx)


def _random_poly(rng, nvars=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[exps] = rng.randint(-5, 5)
    return SymPoly(nvars, terms)


def test_exact_divide_monomials():
    a5a5a4, a5a4 = SymPoly(6, {(0, 0, 0, 0, 1, 2): 1}), SymPoly(6, {(0, 0, 0, 0, 1, 1): 1})
    assert a5a5a4.exact_divide(_var(5)) == a5a4


def test_exact_divide_rejects_non_divisible():
    a5a5_plus_a4 = SymPoly(6, {(0, 0, 0, 0, 0, 2): 1, (0, 0, 0, 0, 1, 0): 1})
    with pytest.raises(ArithmeticError):
        a5a5_plus_a4.exact_divide(_var(5))
    with pytest.raises(ArithmeticError):
        SymPoly(6, {(0,) * 6: 3}).exact_divide(SymPoly(6, {(0,) * 6: 2}))
    with pytest.raises(ZeroDivisionError, match="zero polynomial"):
        a5a5_plus_a4.exact_divide(SymPoly(6))


def test_exact_divide_round_trip():
    rng = random.Random(12)
    for _ in range(40):
        p = _random_poly(rng)
        exps, c = tuple(rng.randint(0, 2) for _ in range(4)), rng.choice([-3, -1, 1, 2, 5])
        product = SymPoly(4, {tuple(map(add, e, exps)): coeff * c for e, coeff in p.terms.items()})
        assert product.exact_divide(SymPoly(4, {exps: c})) == p
        assert (p * c).exact_divide(SymPoly(4, {(0,) * 4: c})) == p
    a5a4 = SymPoly(6, {(0, 0, 0, 0, 1, 1): 1})
    a5_plus_a4 = SymPoly(6, {(0, 0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 1, 0): 1})
    with pytest.raises(ValueError, match="single-term divisor"):
        a5a4.exact_divide(a5_plus_a4)


def test_zero_coefficients_never_stored():
    p = SymPoly(3, {(1, 0, 0): 2, (0, 1, 0): 0})
    assert (0, 1, 0) not in p.terms
    assert (p * 0).is_zero
    assert not (p * 0).terms


def test_graded_lex_ordering_of_terms():
    nvars = 3
    p = SymPoly(
        nvars,
        {
            (0, 0, 1): 1,  # a2
            (2, 0, 0): 1,  # a0^2
            (0, 1, 1): 1,  # a1*a2
            (1, 1, 0): 1,  # a0*a1
        },
    )
    exps = [e for e, _ in p.sorted_terms()]
    # degree 2 terms first; within a degree the highest variable wins
    assert exps == [(0, 1, 1), (1, 1, 0), (2, 0, 0), (0, 0, 1)]


def test_sorted_terms_is_the_graded_lex_key_order():
    # the two C-level sorts against the one key (total degree, exponents
    # read from the last variable), on polynomials of mixed degrees; at
    # nvars = 1 the reversed reading is a single int, not a tuple
    rng = random.Random(2641)
    for nvars in range(1, 7):
        mixed = 0
        for _ in range(30):
            terms = {
                tuple(rng.randint(0, 3) for _ in range(nvars)): rng.choice([-2, -1, 1, 3])
                for _ in range(rng.randint(0, 25))
            }
            p = SymPoly(nvars, terms)
            expected = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0][::-1]), reverse=True)
            assert p.sorted_terms() == expected, (nvars, terms)
            mixed += len({sum(e) for e in p.terms}) > 2
        assert mixed >= 20, nvars


def test_string_rendering():
    nvars = 6
    one_term = SymPoly(nvars, {(0, 0, 0, 0, 0, 4): 86400000})
    assert str(one_term) == "86400000*a5^4"
    mixed = SymPoly(nvars, {(0, 0, 0, 1, 0, 1): 1, (0, 0, 0, 0, 1, 0): -2})
    assert str(mixed) == "a5*a3 - 2*a4"
    assert str(SymPoly(nvars)) == "0"
    assert str(SymPoly(nvars, {(0,) * nvars: -7})) == "-7"
    assert one_term.to_latex() == "86400000a_{5}^{4}"


def test_evaluate_matches_hand_expansion():
    nvars = 3
    p = SymPoly(nvars, {(1, 2, 0): 3, (0, 0, 1): -1})
    # 3*a0*a1^2 - a2 at (2, 5, 7)
    assert p.evaluate((2, 5, 7)) == 3 * 2 * 25 - 7
    for values in ((2, 5), (2, 5, 7, 1)):
        with pytest.raises(ValueError, match=f"expected 3 values, got {len(values)}"):
            p.evaluate(values)


def test_incompatible_rings_rejected():
    with pytest.raises(ValueError, match="different polynomial rings"):
        SymPoly.variable(3, 0).exact_divide(SymPoly.variable(4, 0))


def test_never_equal_to_an_int():
    # equal objects must hash alike, and a SymPoly does not hash as an int
    for value in (0, 1, 5, -7):
        const = SymPoly(2, {(0, 0): value})
        assert const != value and value != const
        assert value not in {const} and const not in {value}
    assert SymPoly(3) != 0


def test_exponents_and_coefficients_must_be_ints():
    # a float or bool exponent or coefficient is rejected at the call: 1.5
    # printed as a0^1.5 and broke the packing of det_minor_expansion, True was
    # stored as the exponent, and 2.5 printed as 2.5*a0 in the integer ring
    for exps in ((1.5, 0), (1.0, 0), (True, 0), (0, False)):
        with pytest.raises(ValueError, match="bad exponent vector"):
            SymPoly(2, {exps: 1})
    for coeff in (2.5, 2.0, True, False, Fraction(1, 2), Fraction(4)):
        with pytest.raises(ValueError, match="is not an int"):
            SymPoly(2, {(1, 0): coeff})
    with pytest.raises(TypeError):
        SymPoly.variable(2, 0) * 0.5
    assert SymPoly(2, {(1, 0): 2, (0, 3): -1}).terms == {(1, 0): 2, (0, 3): -1}


def test_nvars_and_index_must_be_ints():
    # True was stored as nvars, 2.0 was built and then broke str(), "3" raised
    # a raw TypeError, and SymPoly.variable(3, True) returned a1
    for nvars in (True, False, 2.0, "3", None, 0, -1):
        message = f"nvars must be an integer of at least 1, got {nvars!r}"
        with pytest.raises(ValueError, match=message):
            SymPoly(nvars, {(1,): 3})
        with pytest.raises(ValueError, match=message):
            SymPoly.variable(nvars, 0)
    for index in (True, False, 1.0, "1", None, -1, 3):
        with pytest.raises(ValueError, match=f"index must be an integer in 0..2, got {index!r}"):
            SymPoly.variable(3, index)
    assert SymPoly.variable(3, 2).terms == {(0, 0, 1): 1}
