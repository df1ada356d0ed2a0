"""Multiplicity classification by scanning discriminants in conjugate order.

The discriminants are taken along the classification order (partition
conjugates, lexicographically decreasing).  The first nonzero value stops
the scan; the multiplicity vector is the conjugate of the partition that
produced it.  The scan always terminates because the final discriminant
equals prod(i^i) * an^(n-1), which cannot vanish.

Partitions with a common prefix (g1..gk) are contiguous in that order and
their matrices share the width n + g1 - 1 and the row blocks 0..k.  When
those rows are linearly dependent, every discriminant under the prefix is
exactly 0, so a rank test decides the whole subtree and the scan moves on
to the next sibling.  Blocks 0..1 alone form the subresultant matrix
S_(n-g1)(F, F'), which is rank-deficient exactly when g1 exceeds the number
of distinct roots (Collins 1967; Brown-Traub 1971).  The first step,
D_(n) = Res(F, F') / an by a subresultant PRS, also gives that number k as
n - deg gcd(F, F'), so every subtree with g1 > k is recorded as zero at
once and the walk starts its echelon at g1 = k; the partition that breaks
the chain, the conjugate of a vector with k parts, starts with k too.
Every other complete partition the scan reaches still runs the exact
determinant.  Vanishing is not monotone along the order (x^4 - x has
D(3,1) = 0 but D(2,2) != 0), so the scan never bisects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

from .engine import block_rows, disc_resultant, disc_value
from .partitions import Partition, classification_order, conjugate, partitions_of
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

    Walks the partitions gamma of n in descending lex order as a prefix trie.
    The first, gamma = (n), comes from Res(F, F') by ``disc_resultant``,
    which also gives the number k of distinct roots; every partition with
    g1 > k is then exactly 0.  Below that, a complete partition is evaluated
    with ``disc_value``, which runs the exact determinant over integers and
    rescales it to the input polynomial.  A proper prefix (g1..gk) fixes the
    width and the row blocks 0..k of every matrix below it, so the walk adds
    those rows to its parent's integer echelon; when one of them is
    dependent, every discriminant in the subtree is exactly 0 and is recorded
    as such without a determinant.  Only the partition that breaks the chain
    is conjugated.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    n = poly.degree
    first, common = disc_resultant(poly)
    steps = [TraceStep((n,), first.value, first.value != 0)]
    if first.value:
        return ClassificationTrace(tuple(steps), conjugate((n,)), (n,))
    distinct = n - common
    for g1 in range(n - 1, distinct, -1):
        steps.extend(_zero_subtree((g1,), n - g1, g1))
    coeffs = [c.numerator for c in poly.clear_denominators()[0].coeffs]
    parts: list[int] = []  # the proper prefix g1..gk the walk is below
    marks: list[int] = []  # the echelon's length before each part's rows
    echelon: list[tuple[int, list[int]]] = []
    rest, part = n, distinct  # what the prefix leaves to fill, and the next part to try
    while True:
        gamma = (*parts, part)
        if part == rest:
            value = disc_value(poly, gamma).value
            steps.append(TraceStep(gamma, value, value != 0))
            if value:
                return ClassificationTrace(tuple(steps), conjugate(gamma), gamma)
        else:
            size = n + gamma[0] - 1
            rows = block_rows(coeffs, len(gamma), part, size)
            if not parts:
                rows = block_rows(coeffs, 0, part - 1, size) + rows
            mark = len(echelon)
            if _extend_echelon(echelon, rows):
                parts.append(part)
                marks.append(mark)
                rest -= part
                part = min(part, rest)
                continue
            del echelon[mark:]
            steps.extend(_zero_subtree(gamma, rest - part, part))
        while part == 1:
            if not parts:
                raise AssertionError("classification chain exhausted; engine bug")
            part = parts.pop()
            rest += part
            del echelon[marks.pop():]
        part -= 1


def _zero_subtree(prefix: Partition, rest: int, cap: int) -> Iterator[TraceStep]:
    """Zero steps for every partition below ``prefix``: tails of ``rest``, parts <= ``cap``."""
    for tail in partitions_of(rest, max_part=cap):
        yield TraceStep(prefix + tail, Fraction(0), False)


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
