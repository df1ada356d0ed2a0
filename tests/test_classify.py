import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from importlib import import_module
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
from multidisc.classify import trace_json_dict
from multidisc.partitions import classification_order
from multidisc.roots import random_root_spec

from conftest import product, random_int_poly, reference_rows, scaled, shift_poly, sqf_list_inputs

# the package's classify function shadows the module of the same name
CLASSIFY = import_module("multidisc.classify")
ENGINE = import_module("multidisc.engine")

QUINTIC = UniPoly.from_descending([1, -5, 7, 1, -8, 4])


def test_reference_quintic():
    assert classify(QUINTIC) == (2, 2, 1)


def test_reference_quintic_trace():
    trace = classify_trace(QUINTIC)
    assert [s.gamma for s in trace.steps] == [(5,), (4, 1), (3, 2)]
    assert [s.nonzero for s in trace.steps] == [False, False, True]
    assert trace.steps[0].value == 0 and trace.steps[1].value == 0
    assert trace.steps[2].value != 0
    assert trace.delta == (3, 2)
    assert trace.result == (2, 2, 1) == conjugate(trace.delta)


def test_single_root_full_chain():
    for n in range(1, 7):
        poly = expand(RootSpec(((1, n),), 1))  # (x-1)^n
        trace = classify_trace(poly)
        assert trace.result == (n,)
        # every earlier discriminant vanishes, so the chain runs to the end
        assert len(trace.steps) == len(list(iter_partitions(n)))
        assert all(not s.nonzero for s in trace.steps[:-1])


def test_squarefree_quintic_single_step():
    poly = UniPoly.from_descending([1, 0, 0, 0, 1, 1])  # x^5 + x + 1
    assert squarefree_multiplicity(poly) == (1, 1, 1, 1, 1)
    trace = classify_trace(poly)
    assert len(trace.steps) == 1
    assert trace.steps[0].gamma == (5,)
    assert trace.result == (1, 1, 1, 1, 1)


def test_expanded_product_with_mult_32():
    poly = expand(RootSpec(((1, 2), (2, 3)), 1))
    trace = classify_trace(poly)
    assert trace.result == (3, 2)
    assert trace.delta == (2, 2, 1) == conjugate((3, 2))
    assert squarefree_multiplicity(poly) == (3, 2)


def test_rejects_constant_and_zero():
    with pytest.raises(ValueError):
        classify(UniPoly([3]))
    with pytest.raises(ValueError):
        classify(UniPoly())


def test_trace_values_match_disc_value_for_rational_input():
    poly = scaled(QUINTIC, Fraction(2, 3))
    trace = classify_trace(poly)
    for step in trace.steps:
        assert step.value == disc_value(poly, step.gamma).value


def test_oracle_equivalence_sample():
    rng = random.Random(314)
    for n in range(1, 7):
        for mu in iter_partitions(n):
            for _ in range(3):
                spec = random_root_spec(rng, mu)
                poly = expand(spec)
                assert classify(poly) == mu
                assert squarefree_multiplicity(poly) == mu


def test_vanishing_and_nonvanishing_sample():
    rng = random.Random(2718)
    for n in range(2, 6):
        partitions = list(iter_partitions(n))
        for mu in partitions:
            spec = random_root_spec(rng, mu)
            poly = expand(spec)
            bar_mu = conjugate(mu)
            assert disc_value(poly, bar_mu).value != 0
            for lam in partitions:
                if lam > bar_mu:
                    assert disc_value(poly, lam).value == 0


def test_vanishing_is_not_monotone_along_the_chain():
    # x^4 - x has four simple roots, so the scan stops at D(4); below it
    # D(3,1) vanishes while D(2,2) does not, so the chain of zeros cannot be
    # found by bisection.
    poly = UniPoly.from_descending([1, 0, 0, -1, 0])
    assert disc_value(poly, (4,)).value == -27
    assert disc_value(poly, (3, 1)).value == 0
    assert disc_value(poly, (2, 2)).value == -432
    assert classify(poly) == (1, 1, 1, 1)


def reference_trace(poly):
    """The plain scan: every discriminant in order up to the first nonzero one."""
    steps = []
    for gamma in iter_partitions(poly.degree):
        value = disc_value(poly, gamma).value
        steps.append((gamma, value, value != 0))
        if value:
            return steps
    raise AssertionError("chain exhausted")


def assert_trace_is_reference(poly):
    trace = classify_trace(poly)
    assert [(s.gamma, s.value, s.nonzero) for s in trace.steps] == reference_trace(poly)
    assert trace.delta == trace.steps[-1].gamma
    assert trace.result == conjugate(trace.delta)


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
    # the chain G_j = gcd(G_(j-1), G_(j-1)') and Yun's decomposition share no
    # gcd code (``roots._prs_gcd`` is Yun's own), so each checks the other
    for n in range(1, 13):
        for mu in iter_partitions(n):
            for spec in (
                RootSpec(tuple((i, m) for i, m in enumerate(mu)), 1),
                RootSpec(tuple((Fraction(2 * i - 3, 5), m) for i, m in enumerate(mu)), Fraction(-3, 7)),
            ):
                poly = expand(spec)
                delta = classify_trace(poly).delta
                assert delta == conjugate(squarefree_multiplicity(poly)) == conjugate(mu), spec


@pytest.mark.parametrize("mu", [(40,), (20, 20), (12, 12, 12)])
def test_trace_delta_is_the_conjugate_of_yun_at_high_multiplicity(mu):
    # too deep for the reference scan: p(40) = 37338 determinants
    poly = expand(RootSpec(tuple((i + 1, m) for i, m in enumerate(mu)), 1))  # (x - 1)^40, ...
    trace = classify_trace(poly)
    assert trace.delta == conjugate(squarefree_multiplicity(poly)) == conjugate(mu)
    assert all(not s.nonzero for s in trace.steps[:-1]) and trace.steps[-1].nonzero


def _count_calls(monkeypatch, module, name, calls, record=None):
    """Count the calls of ``module.name`` in ``calls[name]``, passing their args to ``record``."""
    original = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        if record is not None:
            record(*args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_squarefree_input_runs_one_resultant_and_no_matrix(monkeypatch):
    poly = random_int_poly(random.Random(28), 28, bound=40)
    calls = Counter()
    for name in ("sylvester_resultant", "det_fraction_free", "build_matrix"):
        _count_calls(monkeypatch, ENGINE, name, calls)
    for name in ("sylvester_resultant", "disc_value"):
        _count_calls(monkeypatch, CLASSIFY, name, calls)
    trace = classify_trace(poly)
    assert trace.result == (1,) * 28 and len(trace.steps) == 1
    # the leaf is delta = (n) at g1 = k = n: psc_0(F, F') = Res(F, F') from
    # the first PRS, times the determinant of an empty remainder matrix
    assert calls == Counter(sylvester_resultant=1, disc_value=1)


@pytest.mark.parametrize("mu", [(10, 10), (8, 7, 5), (15, 15), (8, 8), (6, 5, 5)])
def test_walk_starts_its_echelon_at_the_number_of_distinct_roots(monkeypatch, mu):
    # the gcd chain takes m_1 resultants in all, Res(F, F') the first, and
    # decides every step before delta; delta starts at g1 = k, so its leaf
    # reads G = gcd(F, F') and psc_(n-k)(F, F') from the first step's memo,
    # takes no resultant, and eliminates only the remainder matrix R_delta,
    # of order n - k
    spec = RootSpec(tuple((Fraction(2 * i - 3, 2), m) for i, m in enumerate(mu)), 3)
    poly = expand(spec)
    n, k = poly.degree, len(mu)
    leaves, orders = [], []
    calls = Counter()
    _count_calls(monkeypatch, ENGINE, "sylvester_resultant", calls)
    _count_calls(monkeypatch, CLASSIFY, "sylvester_resultant", calls)
    _count_calls(monkeypatch, CLASSIFY, "disc_value", calls, lambda poly, gamma: leaves.append(gamma))
    _count_calls(monkeypatch, ENGINE, "det_fraction_free", calls, lambda rows: orders.append(len(rows)))
    trace = classify_trace(poly)
    assert calls["sylvester_resultant"] == mu[0]
    assert leaves == [trace.delta] and orders == [n - k]
    assert trace.result == mu and trace.delta[0] == k
    chain = list(iter_partitions(n))
    assert [s.gamma for s in trace.steps] == chain[: chain.index(trace.delta) + 1]
    assert all(s.value == 0 for s in trace.steps[:-1])
    if n <= 16:
        monkeypatch.undo()
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
def test_walk_does_the_same_work(monkeypatch, mu, work):
    # (steps, resultants, leaf determinants) for F = prod (x - i)^mu_i,
    # i = 0, 1, 2, ...: one resultant per level of the gcd chain, m_1 in all,
    # and one leaf, on delta, which takes none: G = gcd(F, F') and
    # psc_(n-k)(F, F') come from the memo of the first step's PRS
    poly = expand(RootSpec(tuple((Fraction(i), m) for i, m in enumerate(mu)), 1))
    calls = Counter()
    _count_calls(monkeypatch, ENGINE, "sylvester_resultant", calls)
    _count_calls(monkeypatch, CLASSIFY, "sylvester_resultant", calls)
    _count_calls(monkeypatch, CLASSIFY, "disc_value", calls)
    trace = classify_trace(poly)
    assert trace.result == mu
    assert (len(trace.steps), calls["sylvester_resultant"], calls["disc_value"]) == work


@pytest.mark.parametrize(
    "mu, determinants",
    [((1,) * 6, 0), ((10, 10), 1), ((8, 7, 5), 1), ((4, 3, 3, 2, 2, 1), 1), ((2, 2, 1), 1)],
)
def test_classification_clears_its_input_once(monkeypatch, mu, determinants):
    # one clearing feeds the first PRS, whose G_1 starts the gcd chain; the
    # leaf ``disc_value`` runs on every input and reads the cleared integers
    # from the memo of ``disc_resultant``.  Its remainder matrix is empty for
    # a squarefree input, so no determinant runs there
    spec = RootSpec(tuple((Fraction(2 * i - 3, 5), m) for i, m in enumerate(mu)), Fraction(-3, 7))
    calls = Counter()
    _count_calls(monkeypatch, UniPoly, "clear_denominators", calls)
    _count_calls(monkeypatch, CLASSIFY, "disc_value", calls)
    _count_calls(monkeypatch, ENGINE, "det_fraction_free", calls)
    assert classify_trace(expand(spec)).result == mu
    assert (calls["clear_denominators"], calls["disc_value"]) == (1, 1)
    assert calls["det_fraction_free"] == determinants


def test_walk_takes_the_partitions_lazily():
    # p(60) = 966467 partitions, a few hundred MB as a list; this input
    # breaks the chain at the second partition, (59, 1)
    poly = product(expand(RootSpec(((1, 2),), 1)), UniPoly([-2] + [0] * 57 + [1]))  # (x - 1)^2 (x^58 - 2)
    tracemalloc.start()
    try:
        trace = classify_trace(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.gamma for s in trace.steps] == [(60,), (59, 1)]
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
    tracemalloc.start()
    try:
        mu = classify(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
        assert trace_json_dict(poly, trace)["steps"] == [
            {"gamma": list(s.gamma), "value": str(s.value), "nonzero": s.nonzero}
            for s in trace.steps
        ]


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
        n = poly.degree
        for gamma in iter_partitions(n):
            value = disc_value(poly, gamma).value
            assert disc_value(shift_poly(poly, t), gamma).value == value
            assert disc_value(scaled(poly, c), gamma).value == c ** (n + gamma[0] - 2) * value

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
    assert all(step.value == 0 and not step.nonzero for step in trace.steps[:-1])
    assert trace.steps[-1].nonzero


def test_scaling_and_shift_invariance():
    rng = random.Random(161)
    for _ in range(12):
        n = rng.randint(2, 6)
        mu = rng.choice(list(iter_partitions(n)))
        poly = expand(random_root_spec(rng, mu))
        c = Fraction(rng.choice([2, -3, 5, 7]), rng.choice([1, 2, 3]))
        t = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        assert classify(scaled(poly, c)) == mu
        assert classify(shift_poly(poly, t)) == mu


def test_conditions_for_degree_five():
    table = list(conditions(5))
    by_mu = {mu: (zero, nonzero) for mu, zero, nonzero in table}
    assert by_mu[(2, 2, 1)] == ([(5,), (4, 1)], (3, 2))
    assert by_mu[(1, 1, 1, 1, 1)] == ([], (5,))
    zero, nonzero = by_mu[(5,)]
    assert len(zero) == 6 and nonzero == (1, 1, 1, 1, 1)


def test_conditions_are_chain_prefixes():
    for n in (1, 4, 6):
        order = classification_order(n)
        table = list(conditions(n))
        assert len(table) == len(order)
        for idx, (mu, zero, nonzero) in enumerate(table):
            assert mu == order[idx][0]
            assert nonzero == order[idx][1]
            assert zero == [g for _, g in order[:idx]]


def test_conditions_yields_one_row_at_a_time():
    # p(35) = 14883 and p(50) = 204226 rows, listing 110 million and 21 billion
    # partitions in all; the first row must come without enumerating the others
    for n in (35, 50):
        tracemalloc.start()
        try:
            mu, zero, nonzero = next(iter(conditions(n)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (mu, zero, nonzero) == ((1,) * n, [], (n,))
        assert peak < 2**20, (n, peak)


def test_conditions_rejects_bad_n_at_the_call():
    # a plain generator function would raise only at the first next()
    for bad in [0, -3, True, 2.0, "x"]:
        with pytest.raises(ValueError, match="n must be a positive integer"):
            conditions(bad)


def test_trace_json_dict_under_the_default_int_bound():
    # D_delta of this squarefree degree-30 input has over 4300 digits, so
    # str() of it raises under the interpreter's default bound; the dict is
    # built anyway, and the bound is left as it was
    rng = random.Random(5)
    poly = UniPoly.from_descending([rng.randint(10**79, 10**80) for _ in range(31)])
    trace = classify_trace(poly)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(trace.value)
        text = trace_json_dict(poly, trace)["steps"][-1]["value"]
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
        sys.set_int_max_str_digits(0)
        assert len(text) > 4300
        assert text == str(trace.value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_trace_json_dict_writes_long_rationals_and_signs_whole():
    # the input's coefficients are written as exactly as the value
    for value in (Fraction(-(10**5000) - 7, 3**2000), Fraction(10**3000 + 1), Fraction(-12, 5)):
        poly = UniPoly([value, 1])
        trace = CLASSIFY.ClassificationTrace((1,), value)
        data = trace_json_dict(poly, trace)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert data["steps"][-1]["value"] == str(value)
            assert data["input"] == f"1,{value}"
        finally:
            sys.set_int_max_str_digits(limit)


def test_text_past_the_int_bound_is_the_unbounded_text():
    # str() raises above the bound, and the Decimal text that replaces it is
    # the text str() gives with no bound
    values = [Fraction(-(7**800)), Fraction(3**1400 + 1, 10**700 + 3), Fraction(-5, 10**650)]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = [str(value) for value in values]
        sys.set_int_max_str_digits(640)
        for value, text in zip(values, want):
            with pytest.raises(ValueError, match="Exceeds the limit"):
                str(value)
            assert CLASSIFY._text(value) == text
    finally:
        sys.set_int_max_str_digits(limit)


def test_trace_json_schema_and_round_trip():
    trace = classify_trace(QUINTIC)
    data = trace_json_dict(QUINTIC, trace)
    assert data["input"] == "1,-5,7,1,-8,4"
    assert data["n"] == 5
    assert data["multiplicity"] == [2, 2, 1]
    assert data["steps"][0] == {"gamma": [5], "value": "0", "nonzero": False}
    assert data["steps"][-1]["nonzero"] is True
    encoded = json.dumps(data, sort_keys=True)
    assert json.dumps(json.loads(encoded), sort_keys=True) == encoded
