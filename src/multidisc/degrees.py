"""Maximum-degree bookkeeping for the three condition systems.

Compares the worst-case polynomial degrees of three ways to express the
multiplicity conditions: the nested-determinant system (grows exponentially
in n), the sum-of-determinants system (2n-1), and the single-determinant
system implemented by this package (2n-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .partitions import as_partition, iter_partitions


@dataclass(frozen=True)
class DegreeRow:
    """One row of the degree table: n and the nested system's maximum over
    the multiplicity vectors of n.  The two linear systems' maxima depend on
    n alone, and are read from :func:`d_hy21` and :func:`d_hy22`."""

    n: int
    d_yhz: int

    @property
    def d_hy21(self) -> int:
        return d_hy21((self.n,))

    @property
    def d_hy22(self) -> int:
        return d_hy22((self.n,))


def d_yhz(mu) -> int:
    """Maximum degree in the nested-determinant condition system for ``mu``.

    For a single root the answer is 2n-1.  Otherwise the product over
    j = 1..mu2 of (2*m_j - 1), with m_j the count of parts >= j, times a
    three-way factor depending on how mu1 compares with mu2.  The middle
    branch is a rational expression whose product is provably integral;
    a fractional result would mean the formula was transcribed wrong.
    """
    mu = as_partition(mu)
    n = sum(mu)
    if len(mu) == 1:
        return 2 * n - 1
    mu1, mu2 = mu[0], mu[1]
    m = [sum(1 for p in mu if p >= j) for j in range(1, mu2 + 1)]
    product = Fraction(1)
    for mj in m:
        product *= 2 * mj - 1
    if mu1 == mu2:
        factor = Fraction(1)
    elif mu1 == mu2 + 1:
        factor = 1 + Fraction(2, 2 * m[-1] - 1)
    else:
        factor = Fraction(2 * (mu1 - mu2) - 1)
    value = product * factor
    if value.denominator != 1:
        raise ArithmeticError(f"degree formula produced non-integer {value} for {mu}")
    return int(value)


def d_hy21(mu) -> int:
    """Maximum degree in the sum-of-determinants condition system: 2n-1."""
    return 2 * sum(as_partition(mu)) - 1


def d_hy22(mu) -> int:
    """Maximum degree in the single-determinant condition system: 2n-2."""
    return 2 * sum(as_partition(mu)) - 2


def degree_table(max_n: int) -> list[DegreeRow]:
    """Per degree n = 3..max_n, the maxima of the three degree functions
    over all multiplicity vectors of n."""
    if max_n < 3:
        raise ValueError("max_n must be at least 3")
    rows = []
    for n in range(3, max_n + 1):
        worst = max(d_yhz(mu) for mu in iter_partitions(n))
        rows.append(DegreeRow(n, worst))
    return rows


def degree_table_csv(max_n: int) -> str:
    lines = ["n,d_yhz,d_hy21,d_hy22"]
    lines.extend(
        f"{row.n},{row.d_yhz},{row.d_hy21},{row.d_hy22}" for row in degree_table(max_n)
    )
    return "\n".join(lines) + "\n"
