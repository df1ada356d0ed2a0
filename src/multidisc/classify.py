"""Multiplicity classification by scanning discriminants in conjugate order.

The discriminants are taken along the classification order (partition
conjugates, lexicographically decreasing).  The first nonzero value stops
the scan; the multiplicity vector is the conjugate of the partition that
produced it.  The scan always terminates because the final discriminant
equals prod(i^i) * an^(n-1), which cannot vanish.

Partitions with a common prefix (g1..gj) are contiguous in that order and
share the row blocks 0..j; when those rows are dependent, every discriminant
under the prefix is exactly 0.  The first step, D_(n) = Res(F, F') / an by a
subresultant PRS, also gives G = gcd(F, F'), of degree n - k for k distinct
roots.  Every partition with g1 > k is then 0, and the one that breaks the
chain starts with k, so the scan tests g1 = k only.  There the rows of blocks
0..1 span exactly G * P_(2k-1), the multiples of G of degree below n + k - 1
(Collins 1967; Brown-Traub 1971), so a prefix is independent exactly when the
remainders mod G of its blocks 2..j are: rows of width n - k, none at level
1.  The scan takes the partitions one at a time from a lazy enumerator, skips
those under the last prefix found dependent, and tests the proper prefixes of
any other on a fresh echelon; a partition whose proper prefixes are all
independent runs the exact determinant.  Vanishing is not monotone along the
order (x^4 - x has D(3,1) = 0 but D(2,2) != 0), so the scan never bisects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

from .engine import derivative_coeffs, disc_resultant, disc_value, pseudo_remainder
from .partitions import Partition, classification_order, conjugate, iter_partitions
from .unipoly import UniPoly


@dataclass(frozen=True)
class TraceStep:
    gamma: Partition
    value: Fraction
    nonzero: bool


@dataclass(frozen=True)
class ClassificationTrace:
    """Evaluation trail: zero steps, then exactly one nonzero step."""

    steps: tuple[TraceStep, ...]
    result: Partition  # the multiplicity vector
    delta: Partition  # the partition whose discriminant broke the chain


def _extend_echelon(echelon: list[tuple[int, list[int]]], rows) -> bool:
    """Append integer ``rows`` to ``echelon``; False at the first dependent row.

    ``echelon`` holds (pivot column, row) pairs, each row zero in the pivot
    columns of the rows stored before it.  A new row is reduced fraction-free
    against them in that order and divided by its content (Bareiss 1968); it
    reduces to zero exactly when it lies in the span of the rows before it.
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


def _reduced_rows(coeffs, divisor: list[int], order: int, count: int) -> list[list[int]]:
    """x^s * F^(order) mod G for s < count, each up to a nonzero factor.

    F has the ascending ``coeffs`` and G the descending ``divisor``; each row
    has deg G entries, and that of s + 1 is that of s times x, reduced once.
    """
    row = pseudo_remainder(derivative_coeffs(coeffs, order), divisor)
    rows = [row]
    for _ in range(1, count):
        row = pseudo_remainder(row + [0], divisor)
        rows.append(row)
    return rows


def classify_trace(poly: UniPoly) -> ClassificationTrace:
    """Full short-circuit evaluation trail for the classification chain.

    The input is cleared to integers once, for the first step and the walk's
    rows.  The first partition, gamma = (n), comes from Res(F, F') by
    ``disc_resultant``, which also gives G = gcd(F, F'), so k = n - deg G.
    The walk takes the partitions from ``iter_partitions`` and records a
    gamma as 0 without work when g1 > k or when it starts with the last prefix
    found dependent.  Otherwise g1 = k, and its proper prefixes are tested on
    a fresh echelon from level 2 on, level j adding x^s * F^(j) mod G, s < g_j;
    a dependent row marks the prefix dead and gamma 0.  If all are independent,
    gamma runs ``disc_value`` on the input polynomial.  A walk that leaves
    g1 = k without a nonzero step is an engine fault.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    n = poly.degree
    coeffs, scale = poly.clear_denominators()
    first, divisor = disc_resultant(coeffs, scale)
    if first.value:
        return ClassificationTrace((TraceStep((n,), first.value, True),), conjugate((n,)), (n,))
    k = n - len(divisor) + 1
    zero = Fraction(0)
    steps: list[TraceStep] = []
    dead: Partition = (n,)  # the last prefix found dependent
    for gamma in iter_partitions(n):  # (n,) first: 0 by the resultant, and n > k
        if gamma[0] > k or gamma[: len(dead)] == dead:
            steps.append(TraceStep(gamma, zero, False))
            continue
        if gamma[0] < k:
            break
        echelon: list[tuple[int, list[int]]] = []
        for depth in range(1, len(gamma) - 1):  # level 1 spans G * P_(2k-1): no test
            if not _extend_echelon(echelon, _reduced_rows(coeffs, divisor, depth + 1, gamma[depth])):
                dead = gamma[: depth + 1]
                steps.append(TraceStep(gamma, zero, False))
                break
        else:
            value = disc_value(poly, gamma).value
            steps.append(TraceStep(gamma, value, value != 0))
            if value:
                return ClassificationTrace(tuple(steps), conjugate(gamma), gamma)
    raise ArithmeticError("no discriminant with g1 = k is nonzero; engine bug")


def classify(poly: UniPoly) -> Partition:
    """Multiplicity vector of the distinct complex roots of ``poly``."""
    return classify_trace(poly).result


def conditions(n: int) -> Iterator[tuple[Partition, list[Partition], Partition]]:
    """Per multiplicity vector: the partitions whose discriminants must vanish
    and the single partition whose discriminant must not.

    Row k lists the k partitions before its own, so all rows together grow as
    p(n)^2; they are yielded one at a time, and each list is the row's own.
    """
    zero: list[Partition] = []
    for mu, gamma in classification_order(n):
        yield mu, list(zero), gamma
        zero.append(gamma)


def trace_json_dict(poly: UniPoly, trace: ClassificationTrace) -> dict:
    """JSON-ready trace: all numbers as strings to keep them exact."""
    return {
        "input": ",".join(str(c) for c in poly.descending_coeffs()),
        "n": poly.degree,
        "steps": [
            {
                "gamma": list(step.gamma),
                "value": str(step.value),
                "nonzero": step.nonzero,
            }
            for step in trace.steps
        ],
        "multiplicity": list(trace.result),
    }
