import random

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


def test_difference_of_squares():
    a5, a4 = _var(5), _var(4)
    assert (a5 + a4) * (a5 - a4) == a5 * a5 - a4 * a4


def test_exact_divide_monomials():
    a5, a4 = _var(5), _var(4)
    assert (a5 * a5 * a4).exact_divide(a5) == a5 * a4


def test_exact_divide_rejects_non_divisible():
    a5, a4 = _var(5), _var(4)
    with pytest.raises(ArithmeticError):
        (a5 * a5 + a4).exact_divide(a5)
    with pytest.raises(ArithmeticError):
        SymPoly.const(6, 3).exact_divide(SymPoly.const(6, 2))


def test_exact_divide_round_trip():
    rng = random.Random(12)
    for _ in range(40):
        p = _random_poly(rng)
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        q = SymPoly.monomial(4, rng.choice([-3, -1, 1, 2, 5]), exps)
        assert (p * q).exact_divide(q) == p
    with pytest.raises(ValueError):
        (_var(5) * _var(4)).exact_divide(_var(5) + _var(4))


def test_zero_coefficients_never_stored():
    p = SymPoly(3, {(1, 0, 0): 2, (0, 1, 0): 0})
    assert (0, 1, 0) not in p.terms
    assert (p - p).is_zero
    assert not (p - p).terms


def test_ring_axioms_hold_exactly():
    rng = random.Random(99)
    for _ in range(30):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


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


def test_string_rendering():
    nvars = 6
    one_term = SymPoly.monomial(nvars, 86400000, (0, 0, 0, 0, 0, 4))
    assert str(one_term) == "86400000*a5^4"
    mixed = _var(5) * _var(3) - SymPoly.const(nvars, 2) * _var(4)
    assert str(mixed) == "a5*a3 - 2*a4"
    assert str(SymPoly.zero(nvars)) == "0"
    assert str(SymPoly.const(nvars, -7)) == "-7"
    assert one_term.to_latex() == "86400000a_{5}^{4}"


def test_evaluate_matches_hand_expansion():
    nvars = 3
    p = SymPoly(nvars, {(1, 2, 0): 3, (0, 0, 1): -1})
    # 3*a0*a1^2 - a2 at (2, 5, 7)
    assert p.evaluate((2, 5, 7)) == 3 * 2 * 25 - 7


def test_incompatible_rings_rejected():
    with pytest.raises(ValueError):
        SymPoly.variable(3, 0) + SymPoly.variable(4, 0)


def test_never_equal_to_an_int():
    # equal objects must hash alike, and a SymPoly does not hash as an int
    for value in (0, 1, 5, -7):
        const = SymPoly.const(2, value)
        assert const != value and value != const
        assert value not in {const} and const not in {value}
    assert SymPoly.zero(3) != 0
