"""Discriminant matrices and exact fraction-free determinants.

A multiplicity discriminant for a degree-n polynomial F and a partition
gamma = (g1, ..., gs) of n is the determinant of a square coefficient
matrix, divided by the leading coefficient.  The matrix stacks row blocks

    F^(0) * x^(g0-1) ... F^(0) * x^0        (g0 = g1 - 1 rows; empty if g1 = 1)
    F^(i) * x^(gi-1) ... F^(i) * x^0        (gi rows, for i = 1..s)

with every row right-aligned to a common width n + g1 - 1: column j holds
the coefficient of x^(size-1-j), so the serialized matrices reproduce the
familiar staircase layout with blanks in the lower-left/upper-right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm
from typing import Sequence, Union

from .partitions import Partition, as_partition
from .sympoly import SymPoly
from .unipoly import UniPoly

SYMBOLIC_CAP_DEFAULT = 6

Entry = Union[int, Fraction, SymPoly]


@dataclass(frozen=True)
class DiscMatrix:
    """Square discriminant matrix plus the provenance of every row."""

    entries: tuple[tuple[Entry, ...], ...]
    gamma: Partition
    gamma0: int
    size: int
    row_provenance: tuple[tuple[int, int], ...]  # (derivative order, shift power)
    n: int
    symbolic: bool

    def blocks(self) -> list[tuple[int, list[int]]]:
        """Row indices grouped by derivative order.

        The order-0 block is always present, with an empty row list when
        gamma starts at 1, so serialized output shows the full block layout.
        """
        grouped: list[tuple[int, list[int]]] = [(0, [])]
        for idx, (order, _) in enumerate(self.row_provenance):
            if order != grouped[-1][0]:
                grouped.append((order, []))
            grouped[-1][1].append(idx)
        return grouped

    def to_json_dict(self) -> dict:
        if self.symbolic:
            entries = [
                [[[str(c), list(e)] for e, c in entry.sorted_terms()] for entry in row]
                for row in self.entries
            ]
        else:
            entries = [[str(e) for e in row] for row in self.entries]
        return {
            "n": self.n,
            "gamma": list(self.gamma),
            "gamma0": self.gamma0,
            "size": self.size,
            "symbolic": self.symbolic,
            "blocks": [
                {"derivative": order, "rows": rows} for order, rows in self.blocks()
            ],
            "row_provenance": [list(p) for p in self.row_provenance],
            "entries": entries,
        }

    def to_latex(self) -> str:
        """Determinant as a LaTeX array, horizontal rules between row blocks."""
        boundaries = set()
        nonempty = [rows for _, rows in self.blocks() if rows]
        for rows in nonempty[:-1]:
            boundaries.add(rows[-1])
        lines = []
        last = len(self.entries) - 1
        for idx, row in enumerate(self.entries):
            cells = [_latex_entry(e) for e in row]
            line = " & ".join(cells)
            if idx != last:
                line += r" \\"
            if idx in boundaries:
                line += r"\hline"
            lines.append(line)
        header = r"\left|\begin{array}{" + "c" * self.size + "}"
        return "\n".join([header, *lines, r"\end{array}\right|"])


def _latex_entry(entry: Entry) -> str:
    if isinstance(entry, SymPoly):
        return "" if entry.is_zero else entry.to_latex()
    value = Fraction(entry)
    if not value:
        return ""
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return rf"{sign}\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


@dataclass(frozen=True)
class DiscValue:
    """One multiplicity discriminant: exact rational or parametric polynomial."""

    value: Union[Fraction, SymPoly]
    gamma: Partition
    n: int


def _build(coeffs: Sequence[Entry], gamma: Sequence[int], symbolic: bool) -> DiscMatrix:
    """The discriminant matrix of the polynomial with ascending ``coeffs``.

    The row F^(i) * x^k is the descending coefficient list of F^(i), computed
    once per derivative order, with size - 1 - (n - i + k) zeros before it and
    k after it, so the entries live in whatever ring ``coeffs`` does.
    """
    n = len(coeffs) - 1
    gamma = as_partition(gamma, n)
    gamma0 = gamma[0] - 1
    size = n + gamma0
    zero = coeffs[0] * 0
    blocks = [(0, gamma0)] + list(enumerate(gamma, start=1))
    rows = []
    prov = []
    for order, count in blocks:
        desc = [coeffs[d] * perm(d, order) for d in range(n, order - 1, -1)]
        for shift in range(count - 1, -1, -1):
            lead = size - len(desc) - shift
            rows.append(tuple([zero] * lead + desc + [zero] * shift))
            prov.append((order, shift))
    return DiscMatrix(tuple(rows), gamma, gamma0, size, tuple(prov), n, symbolic)


def build_matrix(poly: UniPoly, gamma: Sequence[int]) -> DiscMatrix:
    """Concrete discriminant matrix for a polynomial of degree >= 1."""
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    return _build(poly.coeffs, gamma, symbolic=False)


def build_symbolic_matrix(n: int, gamma: Sequence[int]) -> DiscMatrix:
    """Discriminant matrix of the generic degree-n polynomial, entries in Z[a0..an]."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return _build([SymPoly.variable(n + 1, d) for d in range(n + 1)], gamma, symbolic=True)


def _int_exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("non-exact integer division in fraction-free elimination")
    return q


def det_fraction_free(rows: Sequence[Sequence[Entry]]) -> Entry:
    """Exact determinant by single-step fraction-free (Bareiss) elimination.

    Accepts square matrices over the integers, rationals, or SymPoly.  The
    pivot is the first nonzero entry in the column.  A fully zero pivot
    column means a zero determinant in every one of these rings, since each
    is an integral domain, so the ring's zero is returned at once.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square nonempty matrix required")
    sample = rows[0][0]
    if isinstance(sample, SymPoly):
        div = SymPoly.exact_divide
    elif all(isinstance(e, int) for row in rows for e in row):
        div = _int_exact_div
    else:
        rows = [[Fraction(e) for e in row] for row in rows]
        div = lambda a, b: a / b  # noqa: E731 - field division is already exact
    work = [list(row) for row in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if work[i][k]), -1)
        if pivot < 0:
            return sample * 0
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        pk = work[k][k]
        for i in range(k + 1, n):
            row_i = work[i]
            mik = row_i[k]
            row_k = work[k]
            for j in range(k + 1, n):
                num = pk * row_i[j] - mik * row_k[j]
                row_i[j] = num if prev is None else div(num, prev)
        prev = pk
    return sign * work[n - 1][n - 1]


def det_minor_expansion(rows: Sequence[Sequence[Entry]]) -> Entry:
    """Laplace expansion along columns, memoized on the surviving row set."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square nonempty matrix required")
    zero = rows[0][0] * 0
    memo: dict[tuple[int, ...], Entry] = {}

    def expand(row_ids: tuple[int, ...]) -> Entry:
        col = n - len(row_ids)
        if len(row_ids) == 1:
            return rows[row_ids[0]][col]
        cached = memo.get(row_ids)
        if cached is not None:
            return cached
        total = zero
        sign = 1
        for pos, ri in enumerate(row_ids):
            e = rows[ri][col]
            if e:
                sub = expand(row_ids[:pos] + row_ids[pos + 1 :])
                total = total + sign * (e * sub)
            sign = -sign
        memo[row_ids] = total
        return total

    return expand(tuple(range(n)))


def disc_value(poly: UniPoly, gamma: Sequence[int]) -> DiscValue:
    """Exact multiplicity discriminant of a concrete polynomial.

    Denominators are cleared first and the determinant runs over plain
    integers; the result is rescaled through the homogeneity degree
    n + g1 - 1 of the determinant and divided by the leading coefficient.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    cleared, scale = poly.clear_denominators()
    matrix = build_matrix(cleared, gamma)
    int_rows = [[e.numerator for e in row] for row in matrix.entries]
    dp = det_fraction_free(int_rows)
    lead = cleared.leading.numerator
    value = Fraction(dp, lead) / scale ** (matrix.size - 1)
    return DiscValue(value, matrix.gamma, matrix.n)


def disc_symbolic(n: int, gamma: Sequence[int], cap: int = SYMBOLIC_CAP_DEFAULT) -> DiscValue:
    """Parametric discriminant as an integer polynomial in a0..an.

    The determinant of the generic matrix is exactly divisible by an; the
    quotient is returned.  Term counts blow up quickly, so degrees above
    ``cap`` are rejected.
    """
    if n > cap:
        raise ValueError(
            f"degree {n} exceeds the symbolic cap {cap}; raise cap= explicitly "
            "if you accept the term growth"
        )
    matrix = build_symbolic_matrix(n, gamma)
    dp = det_fraction_free([list(row) for row in matrix.entries])
    lead = SymPoly.variable(n + 1, n)
    value = dp.exact_divide(lead)
    return DiscValue(value, matrix.gamma, n)
