"""Multiplicity classification by the first nonzero discriminant in conjugate order.

The classification order lists the partitions of n lexicographically
decreasing; they are the conjugates of the multiplicity vectors.  The
multiplicity vector is the conjugate of delta, the first partition in this
order whose discriminant is nonzero.  delta exists, because the last
discriminant, of (1, ..., 1), equals prod(i^i) * an^(n-1), which cannot
vanish.

No partition is evaluated to find delta: on a concrete input the gcd
chain finds it, and only D_delta is evaluated.  Let G_0 = F and
G_j = gcd(G_(j-1), G_(j-1)'), so that G_j = prod (x - r)^max(m - j, 0) over
the roots r of multiplicity m, and delta_j = deg G_(j-1) - deg G_j counts
the roots of multiplicity at least j: delta is the conjugate of the
multiplicity vector.  The subresultant PRS of F and F' gives G_1, and one
more PRS per level gives the rest (Collins 1967; Brown-Traub 1971).  A partition gamma before delta first differs from it at
a level j with g_j > delta_j.  The rows of blocks 0..j are multiples of G_j
of degree below n + g1 - 1, so they lie in a space of dimension
n + g1 - 1 - deg G_j, and they outnumber it: D_gamma = 0 by this row count
alone.  At level 1 this is the rule g1 > k for k distinct roots, by which
``engine.disc_value`` returns 0 with no determinant.  The chain decides which
of the non-nested discriminants vanish on the input and does not change
them; Yun's decomposition (``roots``) stays an independent oracle of delta.
Vanishing is not monotone along the order (x^4 - x has D(3,1) = 0 but
D(2,2) != 0), so no scan may bisect on the values.  This module writes no
text: ``cli`` writes every output format under its one lifted int-to-str bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .engine import derivative_coeffs, disc_resultant, disc_value, sylvester_resultant
# classification_order is kept for perfbench/tracing.py's wrap; ROADMAP item 1b drops both
from .partitions import Partition, as_partition, classification_order, conjugate, iter_partitions
from .unipoly import UniPoly


@dataclass(frozen=True)
class TraceStep:
    gamma: Partition
    value: Fraction

    @property
    def nonzero(self) -> bool:
        return self.value != 0


@dataclass(frozen=True)
class ClassificationTrace:
    """Evaluation trail: zero steps, then exactly one nonzero step.

    Only the breaking partition and its value are held.  The zero steps are
    the partitions of n before delta, walked by ``zero_steps`` each time it
    is called; ``steps`` expands them once, on first use.
    """

    delta: Partition  # the partition whose discriminant broke the chain
    value: Fraction  # D_delta, nonzero

    @property
    def result(self) -> Partition:
        """The multiplicity vector, the conjugate of delta."""
        return conjugate(self.delta)

    def zero_steps(self) -> Iterator[Partition]:
        """The partitions before delta, in the classification order.

        An enumeration that never reaches delta is an engine fault.
        """
        n = sum(self.delta)
        for gamma in iter_partitions(n):
            if gamma == self.delta:
                return
            yield gamma
        raise ArithmeticError(f"the partitions of {n} never reach delta = {self.delta}; engine bug")

    @cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        zero = Fraction(0)
        return (
            *(TraceStep(gamma, zero) for gamma in self.zero_steps()),
            TraceStep(self.delta, self.value),
        )


def classify_trace(poly: UniPoly) -> ClassificationTrace:
    """Short-circuit classification: the breaking partition delta and D_delta.

    ``disc_resultant`` clears the input to integers once and runs the
    subresultant PRS of F and F', which gives G_1 = gcd(F, F').  Each further
    level j takes G_j = gcd(G_(j-1), G_(j-1)') from ``sylvester_resultant``,
    until deg G_j = 0, so the chain costs m_1 resultants for a largest
    multiplicity m_1, and delta_j = deg G_(j-1) - deg G_j; a squarefree input
    has G_1 = 1, no further level and delta = (n).  Every partition before
    delta is a zero step by the row count of the module docstring, and none
    is enumerated here: the trace's ``steps`` walks them on demand.  Every
    input then runs ``disc_value`` on delta alone.  delta starts at g1 = k,
    so ``disc_value`` reads G and psc_(n-k)(F, F') from the memo of
    ``disc_resultant`` that the chain filled and runs one determinant of
    order n - k, none for a squarefree input: the whole classification clears
    the input once and runs m_1 resultants.  A chain whose delta is not a
    partition of n, or D_delta = 0, is an engine fault.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    n = poly.degree
    divisor = disc_resultant(poly)[2]
    levels = [n - len(divisor) + 1]
    while len(divisor) > 1:
        below = sylvester_resultant(divisor, derivative_coeffs(divisor[::-1], 1))[0]
        levels.append(len(divisor) - len(below))
        divisor = below
    try:
        delta = as_partition(levels, n)
    except ValueError:
        raise ArithmeticError(
            f"the gcd chain gives delta = {tuple(levels)}, not a partition of {n}; engine bug"
        ) from None
    value = disc_value(poly, delta).value
    if not value:
        raise ArithmeticError(
            f"no discriminant with gamma up to delta = {delta} is nonzero; engine bug"
        )
    return ClassificationTrace(delta, value)


def classify(poly: UniPoly) -> Partition:
    """Multiplicity vector of the distinct complex roots of ``poly``."""
    return classify_trace(poly).result


def conditions(n: int) -> Iterator[tuple[Partition, list[Partition], Partition]]:
    """Per multiplicity vector: the partitions whose discriminants must vanish
    and the single partition whose discriminant must not.

    Row k lists the k partitions before its own, so all rows together grow as
    p(n)^2.  The rows come from the lazy walk of ``iter_partitions``, one at a
    time, so the first needs none of the others; each list is the row's own.
    ``iter_partitions`` checks ``n`` here, at the call.
    """
    return _condition_rows(iter_partitions(n))


def _condition_rows(
    walk: Iterator[Partition],
) -> Iterator[tuple[Partition, list[Partition], Partition]]:
    zero: list[Partition] = []
    for gamma in walk:
        yield conjugate(gamma), list(zero), gamma
        zero.append(gamma)

