"""Maximum-degree bookkeeping for the three condition systems.

Compares the worst-case polynomial degrees of three ways to express the
multiplicity conditions: the nested-determinant system (grows exponentially
in n), the sum-of-determinants system (2n-1), and the single-determinant
system implemented by this package (2n-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .partitions import _count, conjugate, iter_partitions


@dataclass(frozen=True)
class DegreeRow:
    """One row of the degree table: n and the nested system's maximum over
    the multiplicity vectors of n.  The two linear systems' maxima depend on
    n alone: 2n - 1 for the sum-of-determinants system and 2n - 2 for the
    single-determinant system."""

    n: int
    d_yhz: int

    @property
    def d_hy21(self) -> int:
        return 2 * self.n - 1

    @property
    def d_hy22(self) -> int:
        return 2 * self.n - 2


def d_yhz(mu) -> int:
    """Maximum degree in the nested-determinant condition system for ``mu``.

    With delta = conjugate(mu), s = mu1 parts, and D_j = delta_j + ... +
    delta_s, level j of the nested gcd system takes P_j, of formal degree
    D_j (P_1 = F), and its derivative.  Its largest determinant,
    Res(P_j, P_j'), has order 2 D_j - 1 and entries of degree
    prod_{i<j} (2 delta_i - 1), so the system's maximum degree is

        max_{j=1..s} b_j,   b_j = (2 D_j - 1) * prod_{i<j} (2 delta_i - 1).

    This equals the closed form of the paper.  As D_j = delta_j + D_{j+1},
    b_{j+1} - b_j has the sign of 4 (D_{j+1} - 1)(delta_j - 1) - 2, so b
    rises while delta_j >= 2 and D_{j+1} >= 2, and falls from there on.
    delta_j >= 2 exactly for j <= mu2, D_{j+1} >= 2 for j < mu2, and
    D_{mu2+1} = mu1 - mu2.  With product = prod_{j<=mu2} (2 delta_j - 1) and
    m = delta_{mu2}, the peak is therefore at

    * j = mu2 + 1 when mu1 - mu2 >= 2: product * (2 (mu1 - mu2) - 1);
    * j = mu2 when mu1 = mu2 + 1, where D_j = m + 1:
      product * (2m + 1) / (2m - 1);
    * j = mu2 = s when mu1 = mu2, where D_j = m: product;
    * j = 1 when mu = (n), as delta_1 = 1: 2n - 1.
    """
    return _nested_max(conjugate(mu))


def _nested_max(delta) -> int:
    """max_j (2 D_j - 1) * prod_{i<j} (2 delta_i - 1) over the levels of ``delta``."""
    best, factor, rest = 0, 1, sum(delta)
    for part in delta:
        best = max(best, (2 * rest - 1) * factor)
        factor *= 2 * part - 1
        rest -= part
    return best


def degree_table(max_n: int) -> Iterator[DegreeRow]:
    """Per degree n = 3..max_n, the maxima of the three degree functions
    over all multiplicity vectors of n, one row at a time.

    ``max_n`` is checked here, at the call.  Conjugation permutes the
    partitions of n, so the maximum of ``d_yhz`` over them is the maximum
    of the level rule over the partitions themselves, read as delta.
    """
    _count(max_n, "max_n", 3)
    return (DegreeRow(n, max(map(_nested_max, iter_partitions(n)))) for n in range(3, max_n + 1))
