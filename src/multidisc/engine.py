"""Discriminant matrices and exact fraction-free determinants.

A multiplicity discriminant for a degree-n polynomial F and a partition
gamma = (g1, ..., gs) of n is the determinant of a square coefficient
matrix, divided by the leading coefficient.  The matrix stacks row blocks

    F^(0) * x^(g0-1) ... F^(0) * x^0        (g0 = g1 - 1 rows; empty if g1 = 1)
    F^(i) * x^(gi-1) ... F^(i) * x^0        (gi rows, for i = 1..s)

with every row right-aligned to a common width n + g1 - 1: column j holds
the coefficient of x^(size-1-j), so the serialized matrices reproduce the
familiar staircase layout with blanks in the lower-left/upper-right.

The matrix of gamma = (n) is the Sylvester matrix of F and F' (n - 1 rows
of F above n rows of F'), so D_(n) is Res(F, F') up to the division by
the leading coefficient.  It is computed by a subresultant polynomial
remainder sequence over the integers (Collins 1967; Brown-Traub 1971) in
O(n^2) integer operations; the same sequence gives G = gcd(F, F').

Every other numeric determinant is one Bareiss elimination over Python
ints, on integer rows only: a rational polynomial is cleared to integers
once, at the input, and the determinant becomes a rational once, at the
output.  A step leaves alone the rows that are zero in its pivot column;
for them the full elimination would only scale the row by p_k / p_(k-1),
and those factors telescope, so a row is caught up by one exact division
later.  The symbolic matrices use a division-free cofactor expansion instead:
the minors on the last k columns are built from those on the last k - 1, for
the row sets the expansion can reach, so only two column levels are held.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, perm
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


def derivative_coeffs(coeffs: Sequence[Entry], order: int) -> list[Entry]:
    """The descending coefficient list of F^(order), F with the ascending ``coeffs``."""
    return [coeffs[d] * perm(d, order) for d in range(len(coeffs) - 1, order - 1, -1)]


def block_rows(coeffs: Sequence[Entry], order: int, count: int, size: int) -> list[list[Entry]]:
    """The rows F^(order) * x^k, k = count - 1 down to 0, of width ``size``.

    Each row is the descending coefficient list of F^(order), computed once,
    with size - 1 - (n - order + k) zeros before it and k after it; F has the
    ascending ``coeffs``, and the entries live in whatever ring those do.
    """
    zero = coeffs[0] * 0
    desc = derivative_coeffs(coeffs, order)
    return [
        [zero] * (size - len(desc) - shift) + desc + [zero] * shift
        for shift in range(count - 1, -1, -1)
    ]


def _build(coeffs: Sequence[Entry], gamma: Sequence[int], symbolic: bool) -> DiscMatrix:
    """The discriminant matrix of the polynomial with ascending ``coeffs``."""
    n = len(coeffs) - 1
    gamma = as_partition(gamma, n)
    gamma0 = gamma[0] - 1
    size = n + gamma0
    rows = []
    prov = []
    for order, count in [(0, gamma0)] + list(enumerate(gamma, start=1)):
        rows.extend(tuple(row) for row in block_rows(coeffs, order, count, size))
        prov.extend((order, shift) for shift in range(count - 1, -1, -1))
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


def det_fraction_free(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by single-step fraction-free
    (Bareiss) elimination.

    Every entry must be an int; any other entry (Fraction, float, SymPoly)
    raises TypeError.  Rational matrices are cleared to integers by their
    caller, and symbolic ones use :func:`det_minor_expansion`.  The pivot is
    the first nonzero entry in the column, and a fully zero pivot column
    means a zero determinant.

    A row that is zero in the pivot column of step k is skipped: the dense
    update would only multiply it by p_k / p_(k-1).  Over the steps t..k-1
    a skipped row misses, these factors telescope to p_(k-1) / p_(t-1), so
    when step k does reduce it, the usual numerator is divided by p_(t-1),
    its own last pivot, instead of p_(k-1); a skipped row that becomes the
    pivot row, or the last entry at the exit, is multiplied by that ratio
    once.  Each stored integer equals the dense elimination's.  Every
    division is exact, so a remainder raises ArithmeticError.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square nonempty matrix required")
    if not all(isinstance(e, int) for row in rows for e in row):
        raise TypeError("det_fraction_free takes int entries only")
    work = [list(row) for row in rows]
    sign = 1
    pivots = [1]  # pivots[t] is the pivot of step t - 1
    stage = [0] * n  # the step each stored row was last brought to
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if work[i][k]), -1)
        if pivot < 0:
            sign = 0  # a zero column: the determinant is 0
            break
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            stage[k], stage[pivot] = stage[pivot], stage[k]
            sign = -sign
        row_k = work[k]
        if stage[k] != k:
            _rescale(row_k, k, pivots[k], pivots[stage[k]])
        pk = row_k[k]
        for i in range(k + 1, n):
            row_i = work[i]
            mik = row_i[k]
            if not mik:
                continue  # the dense step would only scale it by pk / pivots[k]
            div = pivots[stage[i]]
            for j in range(k + 1, n):
                q, r = divmod(pk * row_i[j] - mik * row_k[j], div)
                if r:
                    _inexact()
                row_i[j] = q
            stage[i] = k + 1
        pivots.append(pk)
    det = 0
    if sign:
        last = work[n - 1]
        if stage[n - 1] != n - 1:
            _rescale(last, n - 1, pivots[n - 1], pivots[stage[n - 1]])
        det = sign * last[n - 1]
    return det


def _rescale(row: list[int], start: int, num: int, den: int) -> None:
    """Multiply ``row[start:]`` by num / den in place; every quotient is exact."""
    for j in range(start, len(row)):
        q, r = divmod(row[j] * num, den)
        if r:
            _inexact()
        row[j] = q


def _inexact() -> None:
    # Bareiss and subresultant divisions are exact; a remainder is an engine fault
    raise ArithmeticError("non-exact integer division in fraction-free elimination")


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        _inexact()
    return q


def sylvester_resultant(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int]]:
    """Res(a, b) and G = gcd(a, b) of two integer polynomials, by a subresultant PRS.

    ``a`` and ``b`` are descending coefficient lists with nonzero leading
    coefficients, and Res(a, b) is the determinant of their Sylvester matrix:
    deg b rows of a above deg a rows of b.  This is Cohen, GTM 138, Algorithm
    3.3.7.  The contents are taken out first and come back as
    cont(a)^deg(b) * cont(b)^deg(a).  Res(a, b) = (-1)^(deg a * deg b) Res(b, a),
    so a swap and every pseudo-division step flip the sign when both degrees
    are odd.  The pseudo-remainder of a step whose degree drops by delta is
    divided by g * h^delta, where g is the leading coefficient of the divisor
    and h becomes g^delta / h^(delta - 1): the subresultant recurrence of
    Brown-Traub 1971, exact also when delta > 1 (see Ducos 2000).  The last
    nonzero remainder is a constant multiple of gcd(a, b): G is its primitive
    part when the resultant is 0, and [1] otherwise.  Every division is exact,
    so a remainder raises ArithmeticError.
    """
    if not a or not b or not a[0] or not b[0]:
        raise ValueError("nonzero leading coefficients required")
    ca, cb = gcd(*a), gcd(*b)
    scale = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) & (len(b) - 1) & 1:
            sign = -1
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        # lead(b)^(delta + 1) * a mod b, one pass per term of a cancelled;
        # it keeps its leading zeros, so it has len(b) - 1 entries
        lead, tail, rem = b[0], b[1:], a
        for _ in range(delta + 1):
            top = rem[0]
            head = [lead * x - top * y for x, y in zip(rem[1:], tail)]
            rem = head + [lead * x for x in rem[len(b) :]]
        start = next((i for i, c in enumerate(rem) if c), None)
        if start is None:
            content = gcd(*b)
            return 0, [c // content for c in b]
        den = g * h**delta
        a, b = b, [_exact(c, den) for c in rem[start:]]
        g = a[0]
        if delta:
            h = _exact(g**delta, h ** (delta - 1))
    da = len(a) - 1
    return sign * scale * _exact(b[0] ** da * h, h**da), [1]


def det_minor_expansion(rows: Sequence[Sequence[Entry]]) -> Entry:
    """Laplace expansion along columns, built one column level at a time.

    A first pass records, as bitmasks, the row sets that expanding columns
    0..k-1 through nonzero entries can leave.  A second builds the minors of
    exactly those sets on the last n - k columns, from the last column back,
    holding only the current level and the one below it.  Division-free, so
    it works over any commutative ring; it is the determinant of the symbolic
    matrices, whose entries are single terms.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square nonempty matrix required")
    levels = [{(1 << n) - 1}]
    for col in range(n - 1):
        nonzero = [r for r in range(n) if rows[r][col]]
        levels.append({mask ^ 1 << r for mask in levels[-1] for r in nonzero if mask >> r & 1})
    below = {mask: rows[mask.bit_length() - 1][n - 1] for mask in levels.pop()}
    for col in range(n - 2, -1, -1):
        level = {}
        for mask in levels.pop():
            row_ids = [r for r in range(n) if mask >> r & 1]
            total = rows[row_ids[0]][col] * 0
            sign = 1
            for ri in row_ids:
                e = rows[ri][col]
                if e:
                    total = total + sign * (e * below[mask ^ 1 << ri])
                sign = -sign
            level[mask] = total
        below = level
    return below[(1 << n) - 1]


def disc_value(poly: UniPoly, gamma: Sequence[int]) -> DiscValue:
    """Exact multiplicity discriminant of a concrete polynomial.

    The polynomial is cleared once to integer coefficients
    (``UniPoly.clear_denominators``) and the determinant runs over plain
    integers: D_(n) is Res(F, F') by a subresultant PRS (:func:`disc_resultant`),
    and every other gamma runs the Bareiss elimination of the matrix stacked
    from the integer coefficients.  The one rational is built at the exit:
    the determinant rescaled through its homogeneity degree n + g1 - 1 and
    divided by the leading coefficient.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    n = poly.degree
    gamma = as_partition(gamma, n)
    ints, scale = poly.clear_denominators()
    if gamma == (n,):
        return disc_resultant(ints, scale)[0]
    dp = det_fraction_free(_build(ints, gamma, symbolic=False).entries)
    return _rescaled(dp, ints, scale, gamma)


def disc_resultant(ints: Sequence[int], scale: Fraction) -> tuple[DiscValue, list[int]]:
    """D_(n) of F, and G = gcd(F, F'), primitive and descending, for F = I / scale.

    ``ints`` and ``scale`` are what ``UniPoly.clear_denominators`` returns
    for F, of degree n >= 1; I has the ascending ``ints``.  The matrix of
    gamma = (n) is the Sylvester matrix of F and F', so its determinant is
    Res(F, F'), taken by :func:`sylvester_resultant` on I and I'.  The
    degree of G, len(G) - 1, is n minus the number of distinct roots.
    """
    res, divisor = sylvester_resultant(derivative_coeffs(ints, 0), derivative_coeffs(ints, 1))
    return _rescaled(res, ints, scale, (len(ints) - 1,)), divisor


def _rescaled(dp: int, ints: Sequence[int], scale: Fraction, gamma: Partition) -> DiscValue:
    # dp is the determinant for G = scale * poly with the ascending ``ints``,
    # homogeneous of degree n + g1 - 1
    n = len(ints) - 1
    value = Fraction(dp, ints[-1]) / scale ** (n + gamma[0] - 2)
    return DiscValue(value, gamma, n)


def disc_symbolic(n: int, gamma: Sequence[int], cap: int = SYMBOLIC_CAP_DEFAULT) -> DiscValue:
    """Parametric discriminant as an integer polynomial in a0..an.

    The determinant of the generic matrix, by division-free cofactor
    expansion, is exactly divisible by the monomial an; the quotient is
    returned.  Term counts blow up quickly, so degrees above ``cap`` are
    rejected.
    """
    if n > cap:
        raise ValueError(
            f"degree {n} exceeds the symbolic cap {cap}; raise cap= explicitly "
            "if you accept the term growth"
        )
    matrix = build_symbolic_matrix(n, gamma)
    dp = det_minor_expansion(matrix.entries)
    value = dp.exact_divide(SymPoly.variable(n + 1, n))
    return DiscValue(value, matrix.gamma, n)
