import json
import random
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd

import pytest

from multidisc import (
    RootSpec,
    UniPoly,
    classify,
    classify_trace,
    conditions,
    conjugate,
    disc_value,
    expand,
    iter_partitions,
    squarefree_multiplicity,
)
from multidisc.roots import random_root_spec

from conftest import (
    CLASSIFY,
    CLI,
    ENGINE,
    QUINTIC,
    assert_classified,
    assert_leaf_invariant,
    assert_quintic_record,
    assert_quintic_trace,
    assert_scale_and_shift_invariant,
    assert_trace_is_reference,
    json_steps,
    product,
    random_int_poly,
    reference_rows,
    reference_trace,
    scaled,
    spy,
    sqf_list_inputs,
    traced_peak,
    zeros_before_conjugate,
)


def test_reference_quintic():
    assert classify(QUINTIC) == (2, 2, 1)


def test_reference_quintic_trace():
    assert_quintic_trace(classify_trace(QUINTIC))


def test_single_root_full_chain():
    for n in range(1, 7):
        poly = expand(RootSpec(((1, n),), 1))  # (x-1)^n
        trace = classify_trace(poly)
        assert trace.result == (n,)
        # every earlier discriminant vanishes, so the chain runs to the end
        assert list(trace.zero_steps()) == list(iter_partitions(n))[:-1]


def test_squarefree_quintic_single_step():
    trace = assert_classified(UniPoly.from_descending([1, 0, 0, 0, 1, 1]), (1,) * 5)  # x^5 + x + 1
    assert list(trace.zero_steps()) == []


def test_expanded_product_with_mult_32():
    trace = assert_classified(expand(RootSpec(((1, 2), (2, 3)), 1)), (3, 2))
    assert trace.delta == (2, 2, 1)


def test_rejects_constant_and_zero():
    with pytest.raises(ValueError):
        classify(UniPoly([3]))
    with pytest.raises(ValueError):
        classify(UniPoly())


def test_trace_values_match_disc_value_for_rational_input():
    assert_trace_is_reference(scaled(QUINTIC, Fraction(2, 3)))


def test_oracle_equivalence_sample():
    rng = random.Random(314)
    for n in range(1, 7):
        for mu in iter_partitions(n):
            for _ in range(3):
                assert_classified(expand(random_root_spec(rng, mu)), mu)


def test_vanishing_and_nonvanishing_sample():
    rng = random.Random(2718)
    for n in range(2, 6):
        for mu in iter_partitions(n):
            zeros_before_conjugate(expand(random_root_spec(rng, mu)), mu)


def test_vanishing_is_not_monotone_along_the_chain():
    # x^4 - x has four simple roots, so the scan stops at D(4); below it
    # D(3,1) vanishes while D(2,2) does not, so the chain of zeros cannot be
    # found by bisection.
    poly = UniPoly.from_descending([1, 0, 0, -1, 0])
    assert disc_value(poly, (4,)).value == -27
    assert disc_value(poly, (3, 1)).value == 0
    assert disc_value(poly, (2, 2)).value == -432
    assert classify(poly) == (1, 1, 1, 1)


def test_pruned_trace_equals_plain_scan_up_to_degree_8():
    rng = random.Random(8)
    for n in range(1, 9):
        for mu in iter_partitions(n):
            poly = expand(random_root_spec(rng, mu))
            assert_trace_is_reference(poly)
            assert_trace_is_reference(scaled(poly, Fraction(-7, 3)))


def test_pruned_trace_equals_plain_scan_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def root_specs(draw):
        mu = draw(
            st.integers(1, 10).flatmap(lambda n: st.sampled_from(list(iter_partitions(n))))
        )
        roots = draw(
            st.lists(
                st.fractions(-9, 9, max_denominator=4),
                min_size=len(mu),
                max_size=len(mu),
                unique=True,
            )
        )
        leading = draw(st.fractions(-10, 10, max_denominator=6).filter(bool))
        return RootSpec(tuple(zip(roots, mu)), leading)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(root_specs())
    def check(spec):
        assert_trace_is_reference(expand(spec))

    check()


@pytest.mark.parametrize("mu", [(8, 8), (6, 5, 5)])
def test_pruned_trace_equals_plain_scan_at_degree_16(mu):
    spec = RootSpec(tuple((Fraction(2 * i - 3, 2), m) for i, m in enumerate(mu)), 3)
    assert_trace_is_reference(expand(spec))


def extend_echelon(echelon: list[tuple[int, list[int]]], rows) -> bool:
    """Append integer ``rows`` to ``echelon``; False at the first dependent row.

    The reference echelon: ``echelon`` holds (pivot column, row) pairs, each
    row zero in the pivot columns of the rows stored before it.  A new row is
    reduced fraction-free against them in that order and divided by its
    content (Bareiss 1968); it reduces to zero exactly when it lies in the
    span of the rows before it.
    """
    for row in rows:
        for pivot, base in echelon:
            factor = row[pivot]
            if factor:
                head = base[pivot]
                row = [head * a - factor * b for a, b in zip(row, base)]
        content = gcd(*row)
        if not content:
            return False
        pivot = next(j for j, v in enumerate(row) if v)
        echelon.append((pivot, [v // content for v in row]))
    return True


def test_first_two_blocks_are_dependent_iff_g1_exceeds_distinct_roots():
    # blocks 0..1 hold A*F + B*F' for deg A < g1 - 1 and deg B < g1; a
    # dependency A*F = -B*F' needs deg B >= n - deg gcd(F, F'), which is the
    # number of distinct roots
    rng = random.Random(968)
    cases = 0
    for n in range(2, 11):
        for mu in iter_partitions(n):
            poly = expand(random_root_spec(rng, mu))
            coeffs = poly.clear_denominators()[0]
            for g1 in range(1, n):
                size = n + g1 - 1
                rows = reference_rows(coeffs, 0, g1 - 1, size) + reference_rows(coeffs, 1, g1, size)
                assert extend_echelon([], rows) == (g1 <= len(mu)), (mu, g1)
                cases += 1
    assert cases == 968


def test_degree_count_rule_is_the_full_width_rule():
    # F^(i) vanishes to order m - i at a root of multiplicity m, so for i <= j
    # every row of blocks 0..j is a multiple of G_j = prod (x - r)^max(m - j, 0)
    # of degree below n + g1 - 1.  A gamma before delta first differs from it
    # at a level j with g_j > delta_j, and there its rows outnumber the
    # dimension n + g1 - 1 - deg G_j of that space; every prefix of delta is
    # independent, the full matrix (det != 0) included
    cases = Counter()
    for n in range(1, 10):
        for mu in iter_partitions(n):
            delta = conjugate(mu)
            for spec in (
                RootSpec(tuple((i - 2, m) for i, m in enumerate(mu)), -2),
                RootSpec(tuple((Fraction(2 * i - 3, 5), m) for i, m in enumerate(mu)), Fraction(5, 3)),
            ):
                coeffs = expand(spec).clear_denominators()[0]
                for gamma in iter_partitions(n):
                    size = n + gamma[0] - 1
                    rows = reference_rows(coeffs, 0, gamma[0] - 1, size)
                    if gamma == delta:
                        echelon = []
                        assert extend_echelon(echelon, rows), spec
                        for j, part in enumerate(gamma, 1):
                            rows = reference_rows(coeffs, j, part, size)
                            assert extend_echelon(echelon, rows), (spec, j)
                            cases[True] += 1
                        break
                    j = next(j for j, (g, d) in enumerate(zip(gamma, delta), 1) if g != d)
                    assert gamma[j - 1] > delta[j - 1], (spec, gamma)
                    for i in range(1, j + 1):
                        rows += reference_rows(coeffs, i, gamma[i - 1], size)
                    assert len(rows) > size - sum(max(m - j, 0) for m in mu), (spec, gamma)
                    assert not extend_echelon([], rows), (spec, gamma)
                    cases[False] += 1
    assert cases == {True: 690, False: 1722}


def test_trace_delta_is_the_conjugate_of_yun():
    # the chain G_j = gcd(G_(j-1), G_(j-1)') against Yun's decomposition
    for n in range(1, 13):
        for mu in iter_partitions(n):
            for spec in (
                RootSpec(tuple((i, m) for i, m in enumerate(mu)), 1),
                RootSpec(tuple((Fraction(2 * i - 3, 5), m) for i, m in enumerate(mu)), Fraction(-3, 7)),
            ):
                assert_classified(expand(spec), mu)


@pytest.mark.parametrize("mu", [(40,), (20, 20), (12, 12, 12)])
def test_trace_delta_is_the_conjugate_of_yun_at_high_multiplicity(mu):
    # too deep for the reference scan: p(40) = 37338 determinants
    poly = expand(RootSpec(tuple((i + 1, m) for i, m in enumerate(mu)), 1))  # (x - 1)^40, ...
    assert assert_classified(poly, mu).value != 0


Work = namedtuple("Work", "length resultants leaves dets clears builds")


def chain_work(poly):
    """classify_trace(poly) and a ``Work`` of what it ran: the number of steps,
    of ``sylvester_resultant`` calls by the engine and the walk, the leaf
    gammas, each determinant's order, and the clearing and ``_build`` calls."""
    with pytest.MonkeyPatch.context() as patch:
        resultants = [spy(patch, owner, "sylvester_resultant") for owner in (ENGINE, CLASSIFY)]
        leaves = spy(patch, CLASSIFY, "disc_value")
        dets = spy(patch, ENGINE, "det_fraction_free")
        clears = spy(patch, UniPoly, "clear_denominators")
        builds = spy(patch, ENGINE, "_build")
        trace = classify_trace(poly)
    return trace, Work(sum(1 for _ in trace.zero_steps()) + 1, sum(map(len, resultants)),
                       [gamma for _, gamma in leaves], [len(rows) for (rows,) in dets],
                       len(clears), len(builds))


def test_squarefree_input_runs_one_resultant_and_no_matrix():
    trace, work = chain_work(random_int_poly(random.Random(28), 28, bound=40))
    assert trace.result == (1,) * 28 and work.length == 1
    # _build is the one builder of every numeric route's full matrix
    # the leaf is delta = (n) at g1 = k = n: psc_0(F, F') = Res(F, F') from
    # the first PRS, times the determinant of an empty remainder matrix
    assert (work.resultants, len(work.leaves), work.dets, work.builds) == (1, 1, [], 0)


@pytest.mark.parametrize("mu", [(10, 10), (8, 7, 5), (15, 15), (8, 8), (6, 5, 5)])
def test_walk_starts_its_echelon_at_the_number_of_distinct_roots(mu):
    # the gcd chain takes m_1 resultants in all, Res(F, F') the first, and
    # decides every step before delta; delta starts at g1 = k, so its leaf
    # reads G = gcd(F, F') and psc_(n-k)(F, F') from the first step's memo,
    # takes no resultant, and eliminates only the remainder matrix R_delta,
    # of order n - k
    spec = RootSpec(tuple((Fraction(2 * i - 3, 2), m) for i, m in enumerate(mu)), 3)
    poly = expand(spec)
    n, k = poly.degree, len(mu)
    trace, work = chain_work(poly)
    assert (work.resultants, work.leaves, work.dets) == (mu[0], [trace.delta], [n - k])
    assert trace.result == mu and trace.delta[0] == k
    chain = list(iter_partitions(n))
    assert list(trace.zero_steps()) == chain[: chain.index(trace.delta)]
    if n <= 16:
        assert_trace_is_reference(poly)


@pytest.mark.parametrize(
    "mu, work",
    [
        ((10, 10), (617, 10, 1)),
        ((8, 7, 5), (586, 8, 1)),
        ((15, 15), (5589, 15, 1)),
        ((6, 5, 5), (202, 6, 1)),
        ((4, 3, 3, 2, 2, 1), (71, 4, 1)),
        ((3, 3, 3, 3, 2, 2, 2, 1, 1), (145, 3, 1)),
        ((2, 2, 2, 2, 1, 1), (8, 2, 1)),
    ],
)
def test_walk_does_the_same_work(mu, work):
    # (steps, resultants, leaf determinants) for F = prod (x - i)^mu_i,
    # i = 0, 1, 2, ...: one resultant per level of the gcd chain, m_1 in all,
    # and one leaf, on delta, which takes none: G = gcd(F, F') and
    # psc_(n-k)(F, F') come from the memo of the first step's PRS
    trace, done = chain_work(expand(RootSpec(tuple((Fraction(i), m) for i, m in enumerate(mu)), 1)))
    assert trace.result == mu
    assert (done.length, done.resultants, len(done.leaves)) == work


@pytest.mark.parametrize(
    "mu, determinants",
    [((1,) * 6, 0), ((10, 10), 1), ((8, 7, 5), 1), ((4, 3, 3, 2, 2, 1), 1), ((2, 2, 1), 1)],
)
def test_classification_clears_its_input_once(mu, determinants):
    # one clearing feeds the first PRS, whose G_1 starts the gcd chain; the
    # leaf ``disc_value`` runs on every input and reads the cleared integers
    # from the memo of ``disc_resultant``.  Its remainder matrix is empty for
    # a squarefree input, so no determinant runs there
    spec = RootSpec(tuple((Fraction(2 * i - 3, 5), m) for i, m in enumerate(mu)), Fraction(-3, 7))
    trace, work = chain_work(expand(spec))
    assert trace.result == mu
    assert (work.clears, len(work.leaves)) == (1, 1)
    assert len(work.dets) == determinants


def test_walk_takes_the_partitions_lazily():
    # p(60) = 966467 partitions, a few hundred MB as a list; this input
    # breaks the chain at the second partition, (59, 1)
    poly = product(expand(RootSpec(((1, 2),), 1)), UniPoly([-2] + [0] * 57 + [1]))  # (x - 1)^2 (x^58 - 2)
    trace, peak = traced_peak(lambda: classify_trace(poly))
    assert (list(trace.zero_steps()), trace.delta) == ([(60,)], (59, 1))
    assert trace.result == (2,) + (1,) * 58
    assert peak < 16 * 2**20


DEEP = {
    "(x-1)^60": expand(RootSpec(((1, 60),), 1)),  # delta = (1,) * 60, the last of p(60) = 966467
    "(20,20)": expand(RootSpec(((1, 20), (2, 20)), 1)),  # delta = (2,) * 20
}


@pytest.mark.parametrize("name", list(DEEP))
def test_classify_never_walks_the_partitions(monkeypatch, name):
    # the zero steps before delta are only walked when they are asked for
    def walked(n):
        raise AssertionError("classify walked the partitions")

    monkeypatch.setattr(CLASSIFY, "iter_partitions", walked)
    poly = DEEP[name]
    mu, peak = traced_peak(lambda: classify(poly))
    assert mu == squarefree_multiplicity(poly)
    assert peak < 2**19  # 0.16 MB for (x - 1)^60 on CPython 3.11


def test_steps_are_expanded_on_demand_and_match_the_reference():
    polys = [
        QUINTIC,
        expand(RootSpec(((Fraction(-1, 2), 3), (2, 3), (0, 2)), Fraction(5, 3))),
        expand(RootSpec(((1, 9),), 1)),
        UniPoly.from_descending([1, 0, 0, 0, 1, 1]),
    ]
    for poly in polys:
        trace = classify_trace(poly)
        assert "steps" not in vars(trace)
        assert [(s.gamma, s.value, s.nonzero) for s in trace.steps] == reference_trace(poly)
        assert trace.steps is trace.steps
        assert list(trace.zero_steps()) == [s.gamma for s in trace.steps[:-1]]
        assert (trace.delta, trace.value) == (trace.steps[-1].gamma, trace.steps[-1].value)


def test_leaf_values_are_shift_invariant_and_homogeneous():
    # D_gamma(F(x + t)) = D_gamma(F) and D_gamma(c F) = c^(n + g1 - 2) D_gamma(F)
    # for every gamma of n <= 7, dense and repeated-root rational F
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(-9, 9, max_denominator=5)
    nonzero = rationals.filter(bool)

    @st.composite
    def polys(draw):
        n = draw(st.integers(1, 7))
        if draw(st.booleans()):
            return UniPoly(draw(st.lists(rationals, min_size=n, max_size=n)) + [draw(nonzero)])
        mu = draw(st.sampled_from(list(iter_partitions(n))))
        roots = draw(st.lists(rationals, min_size=len(mu), max_size=len(mu), unique=True))
        return expand(RootSpec(tuple(zip(roots, mu)), draw(nonzero)))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(polys(), rationals, nonzero)
    def check(poly, t, c):
        for gamma in iter_partitions(poly.degree):
            assert_leaf_invariant(poly, gamma, c, t)

    check()


def test_classify_matches_sympy_sqf_list():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for poly in sqf_list_inputs():
        f = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in poly.descending_coeffs()], x)
        _, factors = sympy.sqf_list(f)
        expected = sorted((m for g, m in factors for _ in range(g.degree())), reverse=True)
        assert classify(poly) == tuple(expected), poly


def test_deep_two_root_scan_is_all_zero_until_the_last_step():
    poly = expand(RootSpec(((Fraction(-1), 15), (Fraction(2), 15)), 1))
    trace = classify_trace(poly)
    assert trace.result == (15, 15)
    assert trace.delta == (2,) * 15
    assert trace.value != 0


def test_scaling_and_shift_invariance():
    rng = random.Random(161)
    for _ in range(12):
        n = rng.randint(2, 6)
        mu = rng.choice(list(iter_partitions(n)))
        poly = expand(random_root_spec(rng, mu))
        c = Fraction(rng.choice([2, -3, 5, 7]), rng.choice([1, 2, 3]))
        t = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        assert_scale_and_shift_invariant(poly, mu, c, t)


def test_conditions_for_degree_five():
    table = list(conditions(5))
    by_mu = {mu: (zero, nonzero) for mu, zero, nonzero in table}
    assert by_mu[(2, 2, 1)] == ([(5,), (4, 1)], (3, 2))
    assert by_mu[(1, 1, 1, 1, 1)] == ([], (5,))
    zero, nonzero = by_mu[(5,)]
    assert len(zero) == 6 and nonzero == (1, 1, 1, 1, 1)


def test_conditions_are_chain_prefixes():
    for n in (1, 4, 6):
        chain = list(iter_partitions(n))
        table = list(conditions(n))
        assert table == [(conjugate(gamma), chain[:idx], gamma) for idx, gamma in enumerate(chain)]


def test_conditions_yields_one_row_at_a_time():
    # p(35) = 14883, p(50) = 204226 and p(60) = 966467 rows, listing 110
    # million, 21 billion and 467 billion partitions in all; the first row must
    # come without enumerating the others
    for n in (35, 50, 60):
        (mu, zero, nonzero), peak = traced_peak(lambda: next(iter(conditions(n))))
        assert (mu, zero, nonzero) == ((1,) * n, [], (n,))
        assert peak < 2**20, (n, peak)


def test_conditions_rejects_bad_n_at_the_call():
    # a plain generator function would raise only at the first next()
    for bad in [0, -3, True, 2.0, "x"]:
        with pytest.raises(ValueError, match="n must be a positive integer"):
            conditions(bad)


def test_trace_json_schema_and_round_trip():
    # the JSON line the CLI writes for a trace
    assert_quintic_record(CLI._classification_json(QUINTIC, classify_trace(QUINTIC)))


@pytest.mark.parametrize(
    "poly",
    [
        pytest.param(CLI.parse_coeffs("2,3"), id="n=1"),
        pytest.param(expand(RootSpec(((1, 2), (-2, 1)), Fraction(-3, 7))), id="lead=-3/7"),
        # 626 zero steps, every partition of 20 but the last
        pytest.param(expand(RootSpec(((1, 20),), 1)), id="(x-1)^20"),
        pytest.param(
            expand(
                RootSpec(tuple((Fraction(2 * i - 5, 2), m) for i, m in enumerate((4, 3, 3, 2, 1, 1))), 1)
            ),
            id="half-integer-roots-n=14",
        ),
        # the PRS sign-rule inputs of test_cli_digests
        pytest.param(CLI.parse_coeffs("1,0,0,-1,0"), id="x^4-x"),
        pytest.param(CLI.parse_coeffs("3,0,0,-10,0,0,3"), id="3x^6-10x^3+3"),
        pytest.param(CLI.parse_coeffs("2,0,0,-2,-2,0,0,2"), id="2x^7-2x^4-2x^3+2"),
    ],
)
def test_classification_json_is_the_encoders_text(poly):
    # the CLI writes the line as text: it must be the bytes json.dumps gives
    # for the same record, and hold every step of the trace in order
    trace = classify_trace(poly)
    text = CLI._classification_json(poly, trace)
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True)
    assert data["input"] == ",".join(map(str, poly.descending_coeffs()))
    assert (data["n"], data["multiplicity"]) == (poly.degree, list(trace.result))
    assert data["steps"] == json_steps(trace)
