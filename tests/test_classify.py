import json
import random
from fractions import Fraction

import pytest

from multidisc import (
    UniPoly,
    classification_order,
    classify,
    classify_trace,
    conditions,
    conjugate,
    disc_value,
    expand,
    partitions_of,
    random_root_spec,
    squarefree_multiplicity,
    trace_json_dict,
)

from conftest import shift_poly

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
        poly = UniPoly([-1, 1]) ** n  # (x-1)^n
        trace = classify_trace(poly)
        assert trace.result == (n,)
        # every earlier discriminant vanishes, so the chain runs to the end
        assert len(trace.steps) == len(partitions_of(n))
        assert all(not s.nonzero for s in trace.steps[:-1])


def test_squarefree_quintic_single_step():
    poly = UniPoly.from_descending([1, 0, 0, 0, 1, 1])  # x^5 + x + 1
    assert squarefree_multiplicity(poly) == (1, 1, 1, 1, 1)
    trace = classify_trace(poly)
    assert len(trace.steps) == 1
    assert trace.steps[0].gamma == (5,)
    assert trace.result == (1, 1, 1, 1, 1)


def test_expanded_product_with_mult_32():
    poly = (UniPoly([-1, 1]) ** 2) * (UniPoly([-2, 1]) ** 3)
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
    poly = QUINTIC * Fraction(2, 3)
    trace = classify_trace(poly)
    for step in trace.steps:
        assert step.value == disc_value(poly, step.gamma).value


def test_oracle_equivalence_sample():
    rng = random.Random(314)
    for n in range(1, 7):
        for mu in partitions_of(n):
            for _ in range(3):
                spec = random_root_spec(rng, mu)
                poly = expand(spec)
                assert classify(poly) == mu
                assert squarefree_multiplicity(poly) == mu


def test_vanishing_and_nonvanishing_sample():
    rng = random.Random(2718)
    for n in range(2, 6):
        partitions = partitions_of(n)
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


def test_scaling_and_shift_invariance():
    rng = random.Random(161)
    for _ in range(12):
        n = rng.randint(2, 6)
        mu = rng.choice(partitions_of(n))
        poly = expand(random_root_spec(rng, mu))
        c = Fraction(rng.choice([2, -3, 5, 7]), rng.choice([1, 2, 3]))
        t = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        assert classify(poly * c) == mu
        assert classify(shift_poly(poly, t)) == mu


def test_conditions_for_degree_five():
    table = conditions(5)
    by_mu = {mu: (zero, nonzero) for mu, zero, nonzero in table}
    assert by_mu[(2, 2, 1)] == ([(5,), (4, 1)], (3, 2))
    assert by_mu[(1, 1, 1, 1, 1)] == ([], (5,))
    zero, nonzero = by_mu[(5,)]
    assert len(zero) == 6 and nonzero == (1, 1, 1, 1, 1)


def test_conditions_are_chain_prefixes():
    for n in (1, 4, 6):
        order = classification_order(n)
        table = conditions(n)
        assert len(table) == len(order)
        for idx, (mu, zero, nonzero) in enumerate(table):
            assert mu == order[idx][0]
            assert nonzero == order[idx][1]
            assert zero == [g for _, g in order[:idx]]


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
