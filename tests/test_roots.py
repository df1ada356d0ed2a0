import random
from fractions import Fraction
from math import factorial

import pytest

from multidisc import (
    RootSpec,
    UniPoly,
    classify_trace,
    conjugate,
    disc_from_roots,
    disc_value,
    expand,
    iter_partitions,
    squarefree_multiplicity,
)
from multidisc.engine import sylvester_resultant
from multidisc.roots import (
    _exact_divide,
    _prs_gcd,
    disc_from_distinct_roots,
    disc_from_multiple_roots_abs,
    random_root_spec,
    squarefree_decomposition,
)

from closed_form import DEEP, check
from conftest import (
    QUINTIC,
    derivative,
    det_rational,
    difference,
    mul_power,
    product,
    random_int_poly,
    reference_gcd,
    scaled,
    sqf_list_inputs,
)


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

    def test_no_roots_rejected(self):
        with pytest.raises(ValueError, match="at least one root is required"):
            _spec([])

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

    def test_random_spec_is_seeded_and_in_range(self):
        a = random_root_spec(random.Random(9), (3, 1))
        b = random_root_spec(random.Random(9), (3, 1))
        assert a == b
        for root, _ in a.roots:
            assert abs(root) <= 9
            assert root.denominator in (1, 2)
        assert 1 <= abs(a.leading) <= 5 and a.leading.denominator == 1


def _cleared(poly):
    return list(poly.clear_denominators()[0][::-1])


def _coprime(g, h):
    divisor, psc = sylvester_resultant(_cleared(g), _cleared(h))
    return psc != 0 and divisor == [1]


def _reference_quo(a, b):
    q, r = divmod(a, b)
    assert r.is_zero
    return q


def _reference_squarefree(poly):
    """Yun's algorithm on monic Fraction polynomials, Euclid over Q for each gcd."""
    lead = poly.leading
    f = scaled(poly, 1 / lead)
    df = derivative(f)
    u = reference_gcd(f, df)
    v = _reference_quo(f, u)
    w = _reference_quo(df, u)
    factors = []
    i = 1
    while v.degree > 0:
        z = difference(w, derivative(v))
        h = reference_gcd(v, z) if not z.is_zero else v
        if h.degree > 0:
            factors.append((h, i))
        v = _reference_quo(v, h)
        w = _reference_quo(z, h)
        i += 1
    return lead, factors


def _decomposition_key(decomposition):
    lead, factors = decomposition
    return (
        lead,
        type(lead),
        [(g.coeffs, i) for g, i in factors],
        [all(type(c) is Fraction for c in g.coeffs) for g, _ in factors],
    )


def _seeded_sqf_inputs():
    """Root specs and dense rationals of degree 1-20, plus the edge cases."""
    rng = random.Random(1505)
    polys = []
    for n in range(1, 21):
        if n <= 12:
            partitions = list(iter_partitions(n))
        else:
            partitions = [(1,) * n, (n,), (3, 3, 2) + (1,) * (n - 8)]
        for mu in rng.sample(partitions, min(3, len(partitions))):
            spec = random_root_spec(rng, mu)
            polys.append(expand(spec))
            # a rational leading coefficient and rational roots
            roots = [(Fraction(rng.randint(-12, 12), rng.randint(1, 7)), m) for m in mu]
            if len({r for r, _ in roots}) == len(roots):
                leading = Fraction(rng.choice([-7, -2, 3, 5]), rng.randint(2, 9))
                polys.append(expand(_spec(roots, leading)))
        polys.append(UniPoly(
            [Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 7])) for _ in range(n)]
            + [Fraction(rng.choice([-4, -1, 1, 3]), rng.choice([1, 2, 5]))]
        ))
    polys += [
        UniPoly([-6, 0, 6]),  # content 6
        UniPoly([1, -3, 3, -1]),  # negative leading coefficient, (1 - x)^3
        UniPoly([1, Fraction(1, 2)]),  # x/2 + 1
        expand(_spec([(1, 30)])),  # a pure power
        UniPoly([0] * 7 + [7]),  # c * x^n
        UniPoly([0] * 12 + [Fraction(-3, 4)]),
        product(*[UniPoly([Fraction(-9, 2), 0, 1])] * 4),  # empty factors for i = 1..3
        UniPoly.from_descending([1, 0, 0, 0, 1, 1]),  # already squarefree
    ]
    return polys


class TestIntegerYun:
    """The integer Yun gives the Euclid-over-Q reference's decomposition exactly.

    Every input ends on the z = 0 branch: at the last i, v = g_i and w = v'.
    """

    def test_matches_the_rational_reference(self):
        polys = _seeded_sqf_inputs()
        assert len(polys) > 100 and max(p.degree for p in polys) == 30
        for poly in polys:
            got = _decomposition_key(squarefree_decomposition(poly))
            assert got == _decomposition_key(_reference_squarefree(poly)), poly
        # its divisions are exact by construction; a remainder in a quotient
        # coefficient (3x / (2x + 1)) or left over ((x^2 + 1) / (x + 1)) raises
        assert _exact_divide([2, 3, 1], [2, 1]) == [1, 1]
        for a, b in (([3, 0], [2, 1]), ([1, 0, 1], [1, 1])):
            with pytest.raises(ArithmeticError, match="non-exact"):
                _exact_divide(a, b)

    def test_content_sign_and_rational_leading(self):
        lead, factors = squarefree_decomposition(UniPoly([-6, 0, 6]))
        assert lead == 6 and [(g.coeffs, i) for g, i in factors] == [((-1, 0, 1), 1)]
        lead, factors = squarefree_decomposition(UniPoly([1, -3, 3, -1]))
        assert lead == -1 and [(g.coeffs, i) for g, i in factors] == [((-1, 1), 3)]
        lead, factors = squarefree_decomposition(UniPoly([1, Fraction(1, 2)]))
        assert lead == Fraction(1, 2) and [(g.coeffs, i) for g, i in factors] == [((2, 1), 1)]

    def test_prs_gcd_is_the_rational_gcd_in_either_degree_order(self):
        # Yun passes deg a = deg b + 1; a shorter a is swapped by the first pass
        rng = random.Random(129)
        orders = set()
        for _ in range(60):
            common = random_int_poly(rng, rng.randint(0, 3))
            f, g = (product(common, random_int_poly(rng, rng.randint(0, 6))) for _ in range(2))
            for a, b in ((f, g), (g, f)):
                ints = ([int(c) for c in p.descending_coeffs()] for p in (a, b))
                got = UniPoly.from_descending(_prs_gcd(*ints))
                assert scaled(got, 1 / got.leading) == reference_gcd(a, b), (a, b)
                orders.add((a.degree > b.degree) - (a.degree < b.degree))
        assert orders == {-1, 0, 1}

    def test_pure_powers_and_empty_low_factors(self):
        lead, factors = squarefree_decomposition(expand(_spec([(1, 30)])))
        assert lead == 1 and [(g.coeffs, i) for g, i in factors] == [((-1, 1), 30)]
        lead, factors = squarefree_decomposition(UniPoly([0] * 7 + [7]))
        assert lead == 7 and [(g.coeffs, i) for g, i in factors] == [((0, 1), 7)]
        # i = 1 and 2 give degree-0 factors, which are skipped
        spec = _spec([(Fraction(1, 3), 3), (-2, 3)], leading=Fraction(-5, 2))
        lead, factors = squarefree_decomposition(expand(spec))
        assert lead == Fraction(-5, 2) and [i for _, i in factors] == [3]

    def test_factors_match_sympy_sqf_list(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for poly in sqf_list_inputs():
            coeffs = [sympy.Rational(c.numerator, c.denominator) for c in poly.descending_coeffs()]
            _, expected = sympy.sqf_list(sympy.Poly(coeffs, x))
            _, factors = squarefree_decomposition(poly)
            ours = [([Fraction(c) for c in g.descending_coeffs()], i) for g, i in factors]
            theirs = [
                ([Fraction(int(c.p), int(c.q)) for c in g.monic().all_coeffs()], m)
                for g, m in expected
            ]
            assert ours == theirs, poly


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
                mu = rng.choice(list(iter_partitions(n)))
                spec = random_root_spec(rng, mu)
                assert squarefree_multiplicity(expand(spec)) == mu

    def test_decomposition_reconstructs_and_factors_are_coprime(self):
        # squarefree and coprime are proved by nonzero resultants, a route
        # that shares no code with the oracle's primitive-PRS gcds
        rng = random.Random(3)
        for _ in range(12):
            n = rng.randint(2, 8)
            mu = rng.choice(list(iter_partitions(n)))
            poly = expand(random_root_spec(rng, mu))
            lead, factors = squarefree_decomposition(poly)
            assert scaled(product(*[g for g, i in factors for _ in range(i)]), lead) == poly
            for idx, (g, _) in enumerate(factors):
                # squarefree: coprime with its own derivative
                assert _coprime(g, derivative(g))
                for h, _ in factors[idx + 1 :]:
                    assert _coprime(g, h)

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
                for gamma in iter_partitions(n):
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
        with pytest.raises(ValueError, match="all multiplicities must be 1"):
            disc_from_distinct_roots(_spec([(1, 2), (2, 1)]), (3,))
        # with a bad gamma as well, the gamma is reported, as by disc_from_roots
        with pytest.raises(ValueError, match=r"\(2, 2\) is not a partition of 3"):
            disc_from_distinct_roots(_spec([(1, 2), (2, 1)]), (2, 2))


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
            partitions = list(iter_partitions(n))
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
            for gamma in iter_partitions(n):
                signed = disc_from_roots(spec, gamma)
                assert disc_from_distinct_roots(spec, gamma) == signed
                assert disc_from_multiple_roots_abs(spec, gamma) == abs(signed)


def _reference_expand(spec):
    # one linear factor at a time, sharing no code with expand
    linear = [UniPoly([-root, 1]) for root, mult in spec.roots for _ in range(mult)]
    return scaled(product(*linear), spec.leading)


def _reference_distinct(spec, gamma):
    # every entry F^(i)(alpha_j) * alpha_j^k built and evaluated in Fractions
    alphas = [r for r, _ in spec.roots]
    n = spec.n
    poly = _reference_expand(spec)
    derivs = {i: derivative(poly, i) for i in range(1, len(gamma) + 1)}
    rows = []
    for i, gi in enumerate(gamma, start=1):
        values = [derivs[i].eval(a) for a in alphas]
        for k in range(gi - 1, -1, -1):
            rows.append([v * a**k for v, a in zip(values, alphas)])
    numer = det_rational(rows)
    vandermonde = det_rational(
        [[Fraction(a) ** (n - 1 - i) for a in alphas] for i in range(n)]
    )
    return spec.leading ** (gamma[0] - 2) * numer / vandermonde


def _reference_multiple_abs(spec, gamma):
    # every entry (x^k F^(i))^(l)(r_j) built as a UniPoly and evaluated in Fractions
    poly = _reference_expand(spec)
    rows = []
    for i, gi in enumerate(gamma, start=1):
        base = derivative(poly, i)
        for k in range(gi - 1, -1, -1):
            shifted = mul_power(base, k)
            row = []
            for root, mult in spec.roots:
                row.extend(derivative(shifted, ell).eval(root) for ell in range(mult))
            rows.append(row)
    det = det_rational(rows)
    fact_product = 1
    for _, mult in spec.roots:
        for j in range(mult):
            fact_product *= factorial(j)
    denom = Fraction(1)
    roots = [r for r, _ in spec.roots]
    mults = [m for _, m in spec.roots]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            denom *= (roots[i] - roots[j]) ** (mults[i] * mults[j])
    scale = spec.leading ** (gamma[0] - 2) / fact_product
    return abs(scale * det / denom)


# Q = 1 with a root at 0; and denominators 3, 5, 4 (Q = 60) with 0 among them
INTEGER_ROOTS = [0, 2, -1, 3, -4, 1, -2, 5]
MIXED_ROOTS = [
    Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4), 0,
    Fraction(-5, 3), 2, Fraction(3, 4), Fraction(-1, 5),
]


def _exact(a, b):
    return type(a) is type(b) and a == b


def _assert_matches_reference(spec, gammas):
    got = expand(spec)
    want = _reference_expand(spec)
    assert got == want and all(type(c) is Fraction for c in got.coeffs)
    distinct = all(m == 1 for _, m in spec.roots)
    for gamma in gammas:
        signed = disc_from_roots(spec, gamma)
        reference = _reference_multiple_abs(spec, gamma)
        assert _exact(abs(signed), reference), (spec, gamma)
        assert _exact(disc_from_multiple_roots_abs(spec, gamma), reference), (spec, gamma)
        if distinct:
            reference = _reference_distinct(spec, gamma)
            assert _exact(signed, reference), (spec, gamma)
            assert _exact(disc_from_distinct_roots(spec, gamma), reference), (spec, gamma)


class TestTaylorShiftRows:
    """The integer Taylor-shift rows give the Fraction construction's values exactly."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_gamma_up_to_degree_8(self, n):
        partitions = list(iter_partitions(n))
        for idx, mu in enumerate(partitions):
            pool, leading = (INTEGER_ROOTS, 3) if idx % 2 else (MIXED_ROOTS, Fraction(-3, 7))
            # rotate so each root of the pool takes each multiplicity in turn
            roots = [pool[(idx + j) % len(pool)] for j in range(len(mu))]
            spec = _spec(zip(roots, mu), leading)
            _assert_matches_reference(spec, partitions)

    def test_sampled_gamma_at_verify_degrees(self):
        rng = random.Random(1409)
        pool = MIXED_ROOTS + [Fraction(k, 2) for k in range(-9, 10, 2)] + [Fraction(3, 7)]
        for n in range(9, 15):
            partitions = list(iter_partitions(n))
            for mu in ((1,) * n, rng.choice(partitions[1:-1]), rng.choice(partitions[1:-1])):
                leading = rng.choice([Fraction(-3, 7), Fraction(2), Fraction(5, 4)])
                spec = _spec(zip(rng.sample(pool, len(mu)), mu), leading)
                gammas = {conjugate(mu), *rng.sample(partitions, 2)}
                _assert_matches_reference(spec, sorted(gammas))

    @pytest.mark.parametrize("n", range(9, 15))
    def test_high_multiplicity_at_verify_degrees(self, n):
        # A root of multiplicity m runs the row recurrence to l = m - 1, up to
        # 13 here.  Every D_gamma before conj(mu) is 0, and at conj(mu) each
        # pivot's left neighbour E(k - 1, l - 1) is 0, so the term
        # l * E(k - 1, l - 1) shows only in the gammas after conj(mu): for
        # (n - 2, 1, 1) at gamma = (2, 2, 1, ...), with l = n - 3, up to 11.
        rng = random.Random(2900 + n)
        pool = MIXED_ROOTS + [Fraction(k, 2) for k in range(-9, 10, 2)]
        partitions = list(iter_partitions(n))
        for mu in ((n,), (n - 1, 1), ((n + 1) // 2, n // 2), (n - 2, 1, 1)):
            leading = rng.choice([Fraction(-3, 7), Fraction(2), Fraction(5, 4)])
            spec = _spec(zip(rng.sample(pool, len(mu)), mu), leading)
            _assert_matches_reference(spec, partitions[partitions.index(conjugate(mu)) :])

    def test_common_denominator_and_zero_root(self):
        spec = _spec([(Fraction(1, 3), 2), (Fraction(-2, 5), 1), (Fraction(7, 4), 3), (0, 1)],
                     Fraction(-3, 7))
        assert spec.n == 7
        _assert_matches_reference(spec, iter_partitions(7))
        value = disc_from_multiple_roots_abs(spec, conjugate(spec.multiplicities()))
        assert value == abs(disc_value(expand(spec), conjugate(spec.multiplicities())).value)
        assert value != 0


@pytest.mark.parametrize("n", range(1, 9))
def test_signed_root_side_formula_is_disc_value(n):
    # the confluent-Vandermonde sign (-1)^(sum C(m_j, 2)) makes the root side
    # equal D_gamma itself, not only its absolute value
    partitions = list(iter_partitions(n))
    for idx, mu in enumerate(partitions):
        for pool, leading in ((INTEGER_ROOTS, -2), (MIXED_ROOTS, Fraction(5, 3))):
            roots = [pool[(idx + j) % len(pool)] for j in range(len(mu))]
            spec = _spec(zip(roots, mu), leading)
            poly = expand(spec)
            for gamma in partitions:
                assert _exact(disc_from_roots(spec, gamma), disc_value(poly, gamma).value), (
                    spec, gamma)


@pytest.mark.parametrize(
    "pairs",
    [
        [(Fraction(3, 2), 20), (-2, 20)],
        [(1, 12), (Fraction(-1, 2), 12), (3, 12)],
        [(Fraction(1, 2), 10), (-1, 10), (Fraction(-5, 2), 10), (2, 10)],
        [(-1, 14), (Fraction(5, 2), 11), (0, 11)],
    ],
    ids=lambda pairs: ",".join(str(m) for _, m in pairs),
)
def test_signed_root_side_formula_at_degree_36_to_40(pairs):
    # the classification's D_delta, lead -3; the sign exponent sum C(m_j, 2)
    # is odd only for (14,11,11), where it is 201
    spec = _spec(pairs, -3)
    trace = classify_trace(expand(spec))
    assert trace.result == spec.multiplicities()
    assert trace.value and trace.value == disc_from_roots(spec, trace.delta)


def test_signed_formula_rejects_a_bad_gamma():
    # the partition check is disc_from_roots' own, not only its wrappers':
    # a non-partition, and partitions of 4 and 5 for a spec of degree 3
    spec = _spec([(1, 2), (-1, 1)])
    for gamma in [(1, 2), (3, 0), (), (3.0,), (2, 2), (2, 2, 1)]:
        with pytest.raises(ValueError, match="not a partition"):
            disc_from_roots(spec, gamma)


def test_leibniz_vanishing_structure():
    # For mult(F) = mu and any i <= s with mu_j >= i:
    # (F^(i) x^k)^(l)(r_j) is 0 below l = mu_j - i and F^(mu_j)(r_j) r_j^k there.
    rng = random.Random(777)
    for _ in range(10):
        n = rng.randint(2, 7)
        mu = rng.choice(list(iter_partitions(n)))
        spec = random_root_spec(rng, mu)
        poly = expand(spec)
        gamma = conjugate(mu)
        for i, gi in enumerate(gamma, start=1):
            for root, mult in spec.roots:
                if mult < i:
                    continue
                target = derivative(poly, mult).eval(root)
                for k in range(gi):
                    shifted = mul_power(derivative(poly, i), k)
                    for ell in range(mult - i):
                        assert derivative(shifted, ell).eval(root) == 0
                    assert derivative(shifted, mult - i).eval(root) == target * root**k


def test_derivatives_vanish_to_multiplicity():
    rng = random.Random(888)
    for _ in range(8):
        n = rng.randint(2, 6)
        mu = rng.choice(list(iter_partitions(n)))
        spec = random_root_spec(rng, mu)
        poly = expand(spec)
        for root, mult in spec.roots:
            for order in range(mult):
                assert derivative(poly, order).eval(root) == 0
            assert derivative(poly, mult).eval(root) != 0


def test_multiplicities_property():
    spec = _spec([(5, 1), (2, 4), (0, 2)])
    assert spec.multiplicities() == (4, 2, 1)
    assert spec.n == 7


def test_random_int_poly_helper_contract():
    rng = random.Random(1)
    poly = random_int_poly(rng, 5)
    assert poly.degree == 5


class TestClosedForm:
    """tests/closed_form.py against the classification's D_delta."""

    @pytest.mark.parametrize("lead", [Fraction(-3, 7), Fraction(4)])
    def test_every_mu_to_degree_12(self, lead):
        rng = random.Random(f"closed-form/{lead}")
        pool = [Fraction(a, 3) for a in range(-15, 16)]
        specs = []
        for n in range(1, 13):
            for mu in iter_partitions(n):
                pairs = list(zip(rng.sample(pool, len(mu)), mu))
                rng.shuffle(pairs)  # the closed form orders the roots itself
                specs.append(RootSpec(tuple(pairs), lead))
        assert check(specs) == 271

    def test_deep_inputs_to_degree_60(self):
        # (20,20), the 57 roots of degree 59, prod (x - i)^3 and prod (x - i)^2
        # at degree 60; the script tests/closed_form.py runs degree 59-80
        assert check(spec for spec in DEEP if spec.n <= 60) == 4
