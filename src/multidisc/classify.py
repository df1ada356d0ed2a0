"""Multiplicity classification by scanning discriminants in conjugate order.

The discriminants are taken along the classification order (partition
conjugates, lexicographically decreasing).  The first nonzero value stops
the scan; the multiplicity vector is the conjugate of the partition that
produced it.  The scan always terminates because the final discriminant
equals prod(i^i) * an^(n-1), which cannot vanish.

Partitions with a common prefix (g1..gj) are contiguous in that order and
their matrices share the width n + g1 - 1 and the row blocks 0..j.  When
those rows are linearly dependent, every discriminant under the prefix is
exactly 0.  The first step, D_(n) = Res(F, F') / an by a subresultant PRS,
also gives the number k = n - deg gcd(F, F') of distinct roots.  Every
partition with g1 > k is then 0, and the one that breaks the chain, the
conjugate of a vector with k parts, starts with k; so the scan tests g1 = k
only, at width n + k - 1, where blocks 0..1 form the subresultant matrix
S_(n-k)(F, F'), of full rank by that gcd degree (Collins 1967; Brown-Traub
1971).  Level 1 is therefore seeded into one integer echelon, untested.
The scan takes the partitions one at a time from a lazy enumerator and
keeps that echelon for the prefix it tested last: a partition under a
prefix found dependent is recorded as 0 without work, and any other cuts
the echelon back to the prefix they share and adds the rows of its own
proper prefixes.  A partition whose proper prefixes are all independent
runs the exact determinant.  Vanishing is not monotone along the order
(x^4 - x has D(3,1) = 0 but D(2,2) != 0), so the scan never bisects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

from .engine import block_rows, disc_resultant, disc_value
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
    The rows stored before a dependent one stay stored.
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


def classify_trace(poly: UniPoly) -> ClassificationTrace:
    """Full short-circuit evaluation trail for the classification chain.

    The input is cleared to integers once, for the first step and the walk's
    rows.  The first partition, gamma = (n), comes from Res(F, F') by
    ``disc_resultant``, which also gives the number k of distinct roots.
    The walk then takes the partitions one at a time from ``iter_partitions``
    and records a gamma as 0 without work when g1 > k, or when it starts with
    the last prefix whose rows were found dependent.  Otherwise g1 = k: the
    echelon, seeded untested with level 1 (blocks 0..1) before the first
    level-2 test, is cut back to the prefix it shares with gamma[:-1] and
    extended from level 2 on, level j adding the rows of derivative order j.
    A dependent row marks its level's prefix dead and gamma 0; in the seed it
    is an engine fault, as is a walk that leaves g1 = k.  A gamma whose proper
    prefixes are all independent runs ``disc_value`` on the input polynomial.
    Only the partition that breaks the chain is conjugated.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    n = poly.degree
    coeffs, scale = poly.clear_denominators()
    first, common = disc_resultant(coeffs, scale)
    if first.value:
        return ClassificationTrace((TraceStep((n,), first.value, True),), conjugate((n,)), (n,))
    k = n - common
    size = n + k - 1  # the width of every matrix the walk tests
    zero = Fraction(0)
    steps: list[TraceStep] = []
    echelon: list[tuple[int, list[int]]] = []
    held: Partition = (k,)  # the prefix whose row blocks 0..len(held) the echelon holds
    dead: Partition = (n,)  # the last prefix found dependent
    for gamma in iter_partitions(n):  # (n,) first: 0 by the resultant, and n > k
        if gamma[0] > k or gamma[: len(dead)] == dead:
            steps.append(TraceStep(gamma, zero, False))
            continue
        if gamma[0] < k:
            break
        depth = 1
        while depth < len(held) and held[depth] == gamma[depth]:
            depth += 1
        del echelon[sum(gamma[1:depth], 2 * k - 1) :]  # keeps blocks 0..depth
        held = gamma[:-1]
        if len(held) > 1 and not echelon:  # level 2 comes next; level 1 needs no test
            seed = block_rows(coeffs, 0, k - 1, size) + block_rows(coeffs, 1, k, size)
            if not _extend_echelon(echelon, seed):
                raise ArithmeticError("blocks 0..1 are dependent at g1 = k; engine bug")
        for depth in range(depth, len(held)):
            if not _extend_echelon(echelon, block_rows(coeffs, depth + 1, gamma[depth], size)):
                held, dead = gamma[:depth], gamma[: depth + 1]
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
