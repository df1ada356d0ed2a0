"""Multiplicity classification by scanning discriminants in conjugate order.

The discriminants are evaluated along the classification order (partition
conjugates, lexicographically decreasing).  The first nonzero value stops
the scan; the multiplicity vector is the conjugate of the partition that
produced it.  The scan always terminates because the final discriminant
equals prod(i^i) * an^(n-1), which cannot vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import disc_value
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


def classify_trace(poly: UniPoly) -> ClassificationTrace:
    """Full short-circuit evaluation trail for the classification chain.

    Walks the partitions gamma of n in descending lex order and evaluates
    each discriminant with ``disc_value``, which runs the determinant over
    integers and rescales the value to the input polynomial.  Only the
    partition that breaks the chain is conjugated.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    steps: list[TraceStep] = []
    for gamma in partitions_of(poly.degree):
        value = disc_value(poly, gamma).value
        nonzero = value != 0
        steps.append(TraceStep(gamma, value, nonzero))
        if nonzero:
            return ClassificationTrace(tuple(steps), conjugate(gamma), gamma)
    raise AssertionError("classification chain exhausted; engine bug")


def classify(poly: UniPoly) -> Partition:
    """Multiplicity vector of the distinct complex roots of ``poly``."""
    return classify_trace(poly).result


def conditions(n: int) -> list[tuple[Partition, list[Partition], Partition]]:
    """Per multiplicity vector: the partitions whose discriminants must vanish
    and the single partition whose discriminant must not."""
    order = classification_order(n)
    out = []
    for idx, (mu, gamma) in enumerate(order):
        out.append((mu, [g for _, g in order[:idx]], gamma))
    return out


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
