"""Multiplicity classification by scanning discriminants in conjugate order.

The discriminants are taken along the classification order (partition
conjugates, lexicographically decreasing).  The first nonzero value stops
the scan; the multiplicity vector is the conjugate of the partition that
produced it.  The scan always terminates because the final discriminant
equals prod(i^i) * an^(n-1), which cannot vanish.

Partitions with a common prefix (g1..gj) are contiguous in that order and
their matrices share the width n + g1 - 1 and the row blocks 0..j.  When
those rows are linearly dependent, every discriminant under the prefix is
exactly 0.  The scan takes the partitions one at a time from a lazy
enumerator and keeps one integer echelon, for the prefix it tested last: a
partition under a prefix found dependent is recorded as 0 without work, and
any other cuts the echelon back to the prefix they share and adds the rows
of its own proper prefixes.  Blocks 0..1 alone form the subresultant matrix
S_(n-g1)(F, F'), which is rank-deficient exactly when g1 exceeds the number
of distinct roots (Collins 1967; Brown-Traub 1971).  The first step,
D_(n) = Res(F, F') / an by a subresultant PRS, also gives that number k as
n - deg gcd(F, F'), so every partition with g1 > k is recorded as 0 at once
and the echelon starts at g1 = k; the partition that breaks the chain, the
conjugate of a vector with k parts, starts with k too.  A partition whose
proper prefixes are all independent runs the exact determinant.  Vanishing
is not monotone along the order (x^4 - x has D(3,1) = 0 but D(2,2) != 0),
so the scan never bisects.
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
    The walk then takes the partitions one at a time from ``iter_partitions``.
    A gamma is recorded as 0 without work when g1 > k, or when it starts
    with the last prefix whose rows were found dependent.  Otherwise the
    integer echelon is cut back to the longest prefix it shares with
    gamma[:-1] and extended one level at a time: level j adds the rows of
    derivative order j, and level 1 also those of order 0.  A level that
    adds a dependent row marks its prefix dead and gamma is 0; a gamma whose
    proper prefixes are all independent runs ``disc_value`` on the input
    polynomial, the exact determinant over integers rescaled to a rational.
    Only the partition that breaks the chain is conjugated.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    n = poly.degree
    coeffs, scale = poly.clear_denominators()
    first, common = disc_resultant(coeffs, scale)
    steps = [TraceStep((n,), first.value, first.value != 0)]
    if first.value:
        return ClassificationTrace(tuple(steps), conjugate((n,)), (n,))
    distinct = n - common
    zero = Fraction(0)
    echelon: list[tuple[int, list[int]]] = []
    held: Partition = ()  # the prefix whose row blocks 0..len(held) the echelon holds
    dead: Partition = (n,)  # the last prefix found dependent; (n,) starts no other gamma
    gammas = iter_partitions(n)
    next(gammas)  # (n,), decided by the resultant
    for gamma in gammas:
        if gamma[0] > distinct or gamma[: len(dead)] == dead:
            steps.append(TraceStep(gamma, zero, False))
            continue
        depth = 0
        while depth < len(held) and held[depth] == gamma[depth]:
            depth += 1
        # blocks 0..depth hold (g1 - 1) + g1 + ... + g_depth rows
        del echelon[sum(gamma[:depth], gamma[0] - 1) if depth else 0 :]
        size = n + gamma[0] - 1
        held = gamma[:-1]
        for depth in range(depth, len(held)):
            part = gamma[depth]
            rows = block_rows(coeffs, depth + 1, part, size)
            if not depth:
                rows = block_rows(coeffs, 0, part - 1, size) + rows
            if not _extend_echelon(echelon, rows):
                held, dead = gamma[:depth], gamma[: depth + 1]
                steps.append(TraceStep(gamma, zero, False))
                break
        else:
            value = disc_value(poly, gamma).value
            steps.append(TraceStep(gamma, value, value != 0))
            if value:
                return ClassificationTrace(tuple(steps), conjugate(gamma), gamma)
    raise AssertionError("classification chain exhausted; engine bug")


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
