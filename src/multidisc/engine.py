"""Discriminant matrices and exact fraction-free determinants.

A multiplicity discriminant for a degree-n polynomial F and a partition
gamma = (g1, ..., gs) of n is the determinant of a square coefficient
matrix, divided by the leading coefficient.  The matrix stacks row blocks

    F^(0) * x^(g0-1) ... F^(0) * x^0        (g0 = g1 - 1 rows; empty if g1 = 1)
    F^(i) * x^(gi-1) ... F^(i) * x^0        (gi rows, for i = 1..s)

with every row right-aligned to a common width n + g1 - 1: column j holds
the coefficient of x^(size-1-j), so the serialized matrices reproduce the
familiar staircase layout with blanks in the lower-left/upper-right.

A concrete D_gamma takes one of three routes, chosen by g1 against k, the
number of distinct roots of F.  k comes from G = gcd(F, F'), of degree
n - k, which a subresultant polynomial remainder sequence over the integers
finds in O(n^2) integer operations (Collins 1967; Brown-Traub 1971).  The
2 * g1 - 1 rows of blocks 0 and 1 are multiples of G of degree below
n + g1 - 1, a space of dimension g1 + k - 1, so g1 > k gives D_gamma = 0 by
this row count alone (the ``classify`` module docstring).  g1 = k goes
through G, as below, and g1 < k runs a Bareiss elimination of the full
matrix.  The matrix of gamma = (n) is the Sylvester matrix of F and F'
(n - 1 rows of F above n rows of F'), so D_(n) is Res(F, F') up to the
division by the leading coefficient; for a squarefree F, k = n and (n) is
the case g1 = k.

When g1 = k, the determinant goes through G.  Write
every row in the basis G * x^(2k-2), ..., G * x^0, x^(n-k-1), ..., x^0 of
the polynomials of degree below n + k - 1.  G * x^i has its leading term
lc(G) * x^(n-k+i) in the column of x^(n-k+i), and the columns run down from
x^(n+k-2), so the change of basis is triangular with determinant
lc(G)^(2k-1).  The rows of blocks 0 and 1 are F * x^i (i < k - 1) and
F' * x^i (i < k), multiples of G: their coordinates are the Sylvester matrix
of F/G and F'/G on the G * x^i, and 0 on the x^j.  A row x^s * F^(i) of a
block i >= 2 has coordinates x^s * F^(i) mod G on the x^j.  So the matrix
of coordinates is block triangular, and

    det M_gamma = lc(G)^(2k-1) * Res(F/G, F'/G) * det R_gamma,

R_gamma the (n - k)-square matrix of the remainders x^s * F^(i) mod G,
i >= 2, block by block with the shifts descending.

The first factor is psc_(n-k)(F, F'), and the PRS that finds G ends at it.
For a and b of degrees m and l, the principal subresultant coefficient
psc_j(a, b) is the determinant of the first m + l - 2j columns of l - j rows
x^i * a above m - j rows x^i * b; psc_0 is Res(a, b).  At (a, b) = (F, F')
and j = n - k these are the rows of blocks 0 and 1 and their first 2k - 1
columns.  On those columns the change of basis is its triangular block of
determinant lc(G)^(2k-1), and the coordinates are still the Sylvester matrix
of F/G and F'/G, so

    psc_(n-k)(F, F') = lc(G)^(2k-1) * Res(F/G, F'/G).

In the PRS of ``sylvester_resultant``, with degrees d_0 = m, d_1 = l, d_2,
..., let the remainder b of degree d_i follow a of degree d_i + delta.  By
the fundamental theorem of subresultants (Brown-Traub 1971), the value
lc(b)^delta / h^(delta - 1), the h of the next step, is (-1)^s * psc_(d_i)
of the inputs, s = sum over j <= i of (d_(j-1) - d_i) * (d_j - d_i).
At d_i = 0 this is the resultant, and s is the resultant's sign rule, one
d_(j-1) * d_j per step.  At the zero remainder d_i = d = deg G, and s is the
same rule on the degrees lowered by d.  Either sum is even when every degree
drops by one, as in the sequence of a generic input.  Such a normal step,
delta = 1, is the common one, so it has its own path: the pseudo-remainder
lc(b)^2 * a mod b is one pass over the coefficients, and past the first step
h = g = lc(a), so the step divides by lc(a)^2.  One PRS of degree n thus
gives G and the factor, and one determinant of order n - k replaces the
elimination at width n + k - 1.  For a squarefree F, R_(n) is empty and the
factor is Res(F, F') itself.

Every other numeric determinant, of R_gamma or of a gamma with g1 < k, is
one Bareiss elimination over Python ints, on integer rows only: a rational polynomial is cleared to integers
once, at the input, and the determinant becomes a rational once, at the
output.  A step leaves alone the rows that are zero in its pivot column;
for them the full elimination would only scale the row by p_k / p_(k-1),
and those factors telescope, so a row is caught up by one exact division
later.  The symbolic matrices use a division-free cofactor expansion instead.
It expands the trailing columns n - 1 down to 1 through their nonzero entries
to find the row sets it can reach, then builds the minors of those sets on
the leading columns 0..k from those on columns 0..k - 1, so only two column
levels are held.  That direction follows the sparsity of the symbolic
matrices: after the division of the first column by an and with the entries
that hold a(n-1) set to 0 (below), the leading columns are nearly constant,
and minors built on them have few terms: D_0 of gamma = (9) takes 0.77 M term
products this way and 3.23 M with the minors built on the trailing columns.
A minor is a dict from packed monomial to coefficient: each exponent vector is
one int with a field of w bits per indeterminate, where w is the bit length of
a bound on every exponent, the sum of the rows' largest exponents.  So a
monomial product is one integer addition that never carries from one field
into the next.  The symbolic matrix is built packed from the start, its first
column already divided by an and its a(n-1) entries already 0: every entry is
one term of degree at most 1, so the bound is at most the order n + g1 - 1 of
the matrix, whose bit length serves the expansion and the recurrence below
alike, and one SymPoly is built, at the exit.

Only part of the symbolic D_gamma is expanded; translation invariance gives
the rest.  F(x + t) has coefficients a(t) with a_n(t) = a_n, and row
x^k * F^(i)(x + t) of its matrix is the shift P(x) -> P(x + t) of
(x - t)^k * F^(i)(x), a unitriangular combination of the rows x^k' * F^(i)(x),
k' <= k, of the same block.  The shift is unitriangular on coefficient
vectors, so D_gamma(a(t)) = D_gamma(a) (for gamma = (n), the classical
invariance; Gelfand-Kapranov-Zelevinsky 1994).  At t = 0, da_i/dt =
(i + 1) * a_(i+1), so L = sum_i (i + 1) * a_(i+1) * d/da_i kills D_gamma.
Write D = sum_j D_j * a_(n-1)^j with every D_j free of a_(n-1), and L'' for
the terms of L with i < n - 2.  The coefficient of a_(n-1)^j in L * D = 0 is

    L'' D_j + (n - 1) * dD_(j-1)/da_(n-2) + n * (j + 1) * a_n * D_(j+1) = 0,

so D_(j+1) is an exact quotient of D_(j-1) and D_j alone, and D_0, the
determinant with every a_(n-1) set to 0, fixes D.  Two successive zero D_j
make every later one 0, and D is homogeneous of degree n + g1 - 2, so no D_j
with j above that degree is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, perm
from operator import lshift
from typing import Sequence, Union

from .partitions import Partition, as_partition
from .sympoly import SymPoly
from .unipoly import UniPoly

Entry = Union[int, Fraction, SymPoly]


@dataclass(frozen=True)
class DiscMatrix:
    """Square discriminant matrix; gamma fixes its layout and the row of every entry."""

    entries: tuple[tuple[Entry, ...], ...]
    gamma: Partition

    def blocks(self) -> list[tuple[int, list[int]]]:
        """Row indices grouped by derivative order.

        The order-0 block is always present, with an empty row list when
        gamma starts at 1, so serialized output shows the full block layout.
        """
        grouped, start = [], 0
        for order, count in enumerate(_block_sizes(self.gamma)):
            grouped.append((order, list(range(start, start + count))))
            start += count
        return grouped

    def to_json_dict(self) -> dict:
        symbolic = isinstance(self.entries[0][0], SymPoly)
        if symbolic:
            entries = [
                [[[str(c), list(e)] for e, c in entry.sorted_terms()] for entry in row]
                for row in self.entries
            ]
        else:
            entries = [[str(e) for e in row] for row in self.entries]
        blocks = self.blocks()
        return {
            "n": sum(self.gamma),
            "gamma": list(self.gamma),
            "gamma0": self.gamma[0] - 1,
            "size": len(self.entries),
            "symbolic": symbolic,
            "blocks": [{"derivative": order, "rows": rows} for order, rows in blocks],
            # (derivative order, shift power) of every row, the shifts descending
            "row_provenance": [
                [order, shift] for order, rows in blocks for shift in range(len(rows) - 1, -1, -1)
            ],
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
        header = r"\left|\begin{array}{" + "c" * len(self.entries) + "}"
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


def derivative_coeffs(coeffs: Sequence[Entry], order: int) -> list[Entry]:
    """The descending coefficient list of F^(order), F with the ascending ``coeffs``."""
    return [coeffs[d] * perm(d, order) for d in range(len(coeffs) - 1, order - 1, -1)]


def _staircase(desc: list, zero, count: int, size: int) -> list[list]:
    """The rows desc * x^k, k = count - 1 down to 0, of width ``size``: the
    descending list ``desc`` with size - len(desc) - k entries ``zero``
    before it and k after it.  The rows share ``desc``'s entries and ``zero``."""
    return [
        [zero] * (size - len(desc) - shift) + desc + [zero] * shift
        for shift in range(count - 1, -1, -1)
    ]


def _block_sizes(gamma: Partition) -> tuple[int, ...]:
    """The number of rows of each derivative order 0, 1, ..., s: (g1 - 1, *gamma)."""
    return (gamma[0] - 1, *gamma)


def _build(coeffs: Sequence[Entry], gamma: Sequence[int]) -> DiscMatrix:
    """The discriminant matrix of the polynomial with ascending ``coeffs``.

    Block ``order`` is the descending coefficient list of F^(order), computed
    once, laid out by :func:`_staircase`; the entries live in whatever ring
    ``coeffs`` do.
    """
    n = len(coeffs) - 1
    gamma = as_partition(gamma, n)
    zero = coeffs[0] * 0
    blocks = [
        _staircase(derivative_coeffs(coeffs, order), zero, count, n + gamma[0] - 1)
        for order, count in enumerate(_block_sizes(gamma))
    ]
    return DiscMatrix(tuple(tuple(row) for block in blocks for row in block), gamma)


def build_matrix(poly: UniPoly, gamma: Sequence[int]) -> DiscMatrix:
    """Concrete discriminant matrix for a polynomial of degree >= 1."""
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    return _build(poly.coeffs, gamma)


def build_symbolic_matrix(n: int, gamma: Sequence[int]) -> DiscMatrix:
    """Discriminant matrix of the generic degree-n polynomial, entries in Z[a0..an].

    ``n`` is checked here, at the call: a bool, a float such as 2.0 or a
    string is not read as a degree.
    """
    gamma = _symbolic_gamma(n, gamma)
    return _build([SymPoly.variable(n + 1, d) for d in range(n + 1)], gamma)


def _symbolic_gamma(n: int, gamma: Sequence[int]) -> Partition:
    """``gamma`` as a partition of the generic degree ``n``, or ValueError."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"degree must be an integer of at least 1, got {n!r}")
    return as_partition(gamma, n)


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


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """lc(b)^(len(a) - len(b) + 1) * a mod b, for descending integer lists.

    A step whose degree drops by one, every step of a generic PRS, is one
    pass: with l = lc(b), it is l^2 * a - (q1 * x + q0) * b for q1 = l * a0
    and q0 = l * a1 - a0 * b1, whose first two terms cancel, so the term of
    x^i below them is l^2 * a_(i+2) - q0 * b_(i+1) - q1 * b_(i+2), with
    b_(len(b)) = 0.  Any other drop runs one pass per term of ``a``
    cancelled, each a multiplication by lc(b), also when the term is already
    zero: the subresultant PRS divides by the full power.  The result keeps
    its leading zeros, so it has len(b) - 1 entries.
    """
    lead = b[0]
    if len(a) - len(b) == 1:
        q1 = lead * a[0]
        q0 = lead * a[1] - a[0] * b[1]
        l2 = lead * lead
        return [l2 * x - q0 * y - q1 * z for x, y, z in zip(a[2:], b[1:], [*b[2:], 0])]
    tail, rem = b[1:], a
    for _ in range(len(a) - len(b) + 1):
        top = rem[0]
        head = [lead * x - top * y for x, y in zip(rem[1:], tail)]
        rem = head + [lead * x for x in rem[len(b) :]]
    return rem


def sylvester_resultant(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
    """G = gcd(a, b) and psc_d(a, b), d = deg G, by a subresultant PRS.

    ``a`` and ``b`` are integer descending coefficient lists with nonzero
    leading coefficients, of degrees m and l.  psc_d(a, b) is the determinant
    of the first m + l - 2d columns of l - d rows of a above m - d rows of b;
    when G = [1] it is Res(a, b), the determinant of their Sylvester matrix,
    and otherwise Res(a, b) = 0.  This is Cohen, GTM 138, Algorithm 3.3.7,
    stopped at the first zero remainder.  The pseudo-remainder of a step
    whose degree drops by delta is divided by g * h^delta, where g is the
    leading coefficient of the divisor and h becomes g^delta / h^(delta - 1):
    the subresultant recurrence of Brown-Traub 1971, exact also when
    delta > 1 (see Ducos 2000).  At delta = 1, the normal step of a generic
    input, that h is g itself, and the pseudo-remainder comes from the one
    pass of :func:`_prem`.  The last nonzero remainder b, of degree d, is
    a constant multiple of G, and lc(b)^delta / h^(delta - 1) is psc_d up to
    the sign (-1)^sum (d_(i-1) - d) * (d_i - d) over the degree sequence
    m, l, ... of the remainders, m, l, m, ... when m < l (the module
    docstring).  G is the primitive part of b, and [1] when d = 0.  Every
    division is exact, and each quotient of a remainder's coefficients is
    checked in the loop that makes it, so a remainder raises ArithmeticError.
    """
    if not a or not b or not a[0] or not b[0]:
        raise ValueError("nonzero leading coefficients required")
    m, l = len(a) - 1, len(b) - 1
    degrees = [m, l]
    if m < l:
        # the sequence goes on with a, the remainder of a by b
        a, b = b, a
        degrees.append(m)
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        rem = _prem(a, b)
        start = 0 if rem[0] else next((i for i, c in enumerate(rem) if c), None)
        if start is None:
            break
        den = g * h**delta
        quotients = []
        for c in rem[start:]:
            q, r = divmod(c, den)
            if r:
                _inexact()
            quotients.append(q)
        a, b = b, quotients
        degrees.append(len(b) - 1)
        g = a[0]
        if delta == 1:
            h = g
        elif delta:
            h = _exact(g**delta, h ** (delta - 1))
    d = len(b) - 1
    delta = len(a) - len(b)
    psc = _exact(b[0] ** delta * h, h**delta)
    if sum((x - d) * (y - d) for x, y in zip(degrees, degrees[1:])) & 1:
        psc = -psc
    if not d:
        return [1], psc
    content = gcd(*b)
    return [c // content for c in b], psc


def det_minor_expansion(rows: Sequence[Sequence[SymPoly]]) -> SymPoly:
    """Division-free determinant of a square matrix of SymPoly entries.

    The entries are packed once on the way in, the determinant is
    :func:`_packed_det` of the packed rows, and it is unpacked once on the
    way out.  The exponent of a_i sits in bits i*w .. i*w + w - 1 of one
    int.  ``bound`` is the sum over the rows of the largest exponent in the
    row; a term of a minor is a product of one term from each of its rows,
    so none of its exponents exceeds ``bound``, and w = bound.bit_length()
    bits hold each one: adding two keys never carries into the next field.

    Every entry must be a SymPoly; any other entry (int, Fraction) raises
    TypeError, as :func:`det_fraction_free` is the determinant of the
    integers.  Entries of different rings raise ValueError, as
    :meth:`SymPoly.exact_divide` does.  The symbolic discriminant packs its
    matrix itself and calls :func:`_packed_det` directly
    (:func:`disc_symbolic`).
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square nonempty matrix required")
    nvars = None
    bound = 0
    for row in rows:
        top = 0
        for e in row:
            if not isinstance(e, SymPoly):
                raise TypeError("det_minor_expansion takes SymPoly entries only")
            if e.nvars != nvars:
                if nvars is not None:
                    raise ValueError("operands live in different polynomial rings")
                nvars = e.nvars
            for exps in e.terms:
                top = max(top, *exps)
        bound += top
    width = bound.bit_length()
    shifts = [i * width for i in range(nvars)]
    packed = [[_packed(e, shifts) for e in row] for row in rows]
    return _unpacked(_packed_det(packed), shifts, width)


def _packed_det(rows: list[list[dict[int, int]]]) -> dict[int, int]:
    """Laplace expansion along columns, built one column level at a time.

    Every entry of the square ``rows``, and the determinant returned, is a
    dict from packed monomial to nonzero coefficient, and a monomial product
    is one integer addition of keys.  The caller picks the field width so
    that no sum of keys carries from one field into the next; nothing here
    unpacks a key.  An entry may be shared between places of the matrix: no
    entry is changed.

    A forward pass expands columns n-1 down to 1 through their nonzero
    entries and records, as bitmasks, the row sets each step can leave.  It
    drops a set that holds a row with no nonzero entry in the columns left
    to it, 0..k: ``lead[k]`` holds the rows that have one, and every minor
    of such a set is 0.  A build pass then makes the minors of exactly the
    recorded sets on columns 0..k from those on columns 0..k-1, from column
    0 up, holding only the current level and the one below it.  Row r of the
    set m stands at place popcount(m & ((1 << r) - 1)) among its rows, so
    its entry in column k has the sign (-1)^(that place + k).  The build
    loops over the nonzero rows of each column only and stores only nonzero
    minors: a missing minor reads as 0, and a missing full set gives the
    empty dict, the zero polynomial.  It is the determinant of the symbolic
    matrices, whose leading columns are the sparse ones (the module
    docstring).
    """
    n = len(rows)
    # nonzero[k]: the rows with a nonzero entry in column k; lead[k]: the rows
    # with one in some column 0..k, so a row set outside lead[k] has no
    # nonzero minor on columns 0..k
    nonzero = [[r for r in range(n) if rows[r][k]] for k in range(n)]
    lead = [0] * n
    seen = 0
    for k in range(n):
        for r in nonzero[k]:
            seen |= 1 << r
        lead[k] = seen
    full = (1 << n) - 1
    levels = [{full} if lead[n - 1] == full else set()]
    for k in range(n - 1, 0, -1):
        drop = full & ~lead[k - 1]
        reached = {mask ^ 1 << r for mask in levels[-1] for r in nonzero[k] if mask >> r & 1}
        levels.append({mask for mask in reached if not mask & drop})
    below = {mask: rows[mask.bit_length() - 1][0] for mask in levels.pop()}
    for k in range(1, n):
        column = [(1 << r, (1 << r) - 1, rows[r][k].items()) for r in nonzero[k]]
        level = {}
        for mask in levels.pop():
            acc: dict[int, int] = {}
            for bit, low, entry in column:
                if mask & bit:
                    minor = below.get(mask ^ bit)
                    if minor:
                        sign = -1 if ((mask & low).bit_count() + k) & 1 else 1
                        for k1, c1 in entry:
                            c1 *= sign
                            for k2, c2 in minor.items():
                                key = k1 + k2
                                acc[key] = acc.get(key, 0) + c1 * c2
            acc = {key: c for key, c in acc.items() if c}
            if acc:
                level[mask] = acc
        below = level
    return below.get(full, {})


def _packed(entry: SymPoly, shifts: list[int]) -> dict[int, int]:
    """``entry`` as a dict from packed monomial to coefficient, a_i at bit shifts[i]."""
    return {sum(map(lshift, exps, shifts)): c for exps, c in entry.terms.items()}


def _unpacked(terms: dict[int, int], shifts: list[int], width: int) -> SymPoly:
    """The SymPoly of the packed ``terms``, a_i in the ``width`` bits at shifts[i].

    The result is built as it is, with no pass of the validating constructor:
    no field carries into the next, so distinct keys unpack to distinct
    tuples of ``len(shifts)`` exponents, and the expansion and the
    translation recurrence store only nonzero coefficients.
    """
    field = (1 << width) - 1
    exps = {tuple([k >> s & field for s in shifts]): c for k, c in terms.items()}
    return SymPoly(len(shifts))._new(exps)


def disc_value(poly: UniPoly, gamma: Sequence[int]) -> DiscValue:
    """Exact multiplicity discriminant of a concrete polynomial.

    :func:`disc_resultant` clears the polynomial once to integer coefficients
    and runs the subresultant PRS of F and F', which gives G = gcd(F, F'), so
    the number k = n - deg G of distinct roots, and psc_(n-k)(F, F').  It keeps
    its last result, so a run of calls on one polynomial, such as a
    classification's leaf after its first step or the selftest's sweep over
    every gamma, pays for that PRS and that clearing once.  gamma takes one of
    three routes, by g1 against k:

    - g1 > k: 0, by the row count of the module docstring; no determinant
      runs.
    - g1 = k: psc_(n-k)(F, F') * det R_gamma, the reduction through G of the
      module docstring, with a determinant of order n - k.  For a squarefree
      F, gamma = (n) is this case with R empty, and the determinant is
      Res(F, F').
    - g1 < k: the Bareiss elimination of the matrix stacked from the integer
      coefficients, at order n + g1 - 1.

    The one rational is built at the exit: the determinant rescaled through
    its homogeneity degree n + g1 - 1 and divided by the leading coefficient.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    n = poly.degree
    gamma = as_partition(gamma, n)
    ints, scale, divisor, psc = disc_resultant(poly)
    k = n + 1 - len(divisor)
    if gamma[0] > k:
        dp = 0
    elif gamma[0] == k:
        dp = _reduced_det(ints, divisor, psc, gamma)
    else:
        dp = det_fraction_free(_build(ints, gamma).entries)
    # dp is the determinant for scale * poly, homogeneous of degree n + g1 - 1
    value = Fraction(dp, ints[-1]) / scale ** (n + gamma[0] - 2)
    return DiscValue(value, gamma)


# the last call of disc_resultant as one (poly.coeffs, result) pair, so that a
# reader on another thread sees a matching key and result or a miss
_last_resultant: tuple = (None, None)


def disc_resultant(poly: UniPoly) -> tuple[tuple[int, ...], Fraction, tuple[int, ...], int]:
    """(ints, scale, G, psc): F cleared, G = gcd(F, F'), and psc_(n-k)(I, I').

    ``ints`` and ``scale`` are what ``UniPoly.clear_denominators`` returns for
    F, of degree n >= 1, and I has the ascending ``ints``.  G, primitive and
    descending, and psc come from :func:`sylvester_resultant` on I and I'.
    The degree of G, len(G) - 1, is n - k for k distinct roots, and psc is the
    factor lc(G)^(2k-1) * Res(I/G, I'/G) of the reduction in the module
    docstring; it is Res(I, I') when G = (1,).

    The last result is memoized, keyed on the identity of the immutable
    ``poly.coeffs`` tuple, which the memo holds: a classification's first step
    and its leaf, and any run of ``disc_value`` calls on one polynomial, share
    one clearing and one degree-n PRS.  The tuple determines F, and every part
    of the result is immutable, so the memo cannot change an answer.
    """
    global _last_resultant
    coeffs, result = _last_resultant
    if coeffs is poly.coeffs:
        return result
    ints, scale = poly.clear_denominators()
    divisor, psc = sylvester_resultant(derivative_coeffs(ints, 0), derivative_coeffs(ints, 1))
    result = ints, scale, tuple(divisor), psc
    _last_resultant = poly.coeffs, result
    return result


def _reduced_det(ints: Sequence[int], divisor: Sequence[int], psc: int, gamma: Partition) -> int:
    """det M_gamma for g1 = k, as psc_(n-k)(F, F') * det R_gamma.

    F has the ascending ``ints``, G = gcd(F, F') the descending primitive
    ``divisor`` of degree n - k, and ``psc`` is psc_(n-k)(F, F') =
    lc(G)^(2k-1) * Res(F/G, F'/G), from the PRS that found G; the identity is
    the module docstring's.  The rows of R_gamma, x^s * F^(i) mod G for
    i >= 2, are integer multiples of the remainders.  The first row of block i
    is the pseudo-remainder of F^(i), and row s + 1 is that of x * (row s);
    each pass of :func:`_prem` multiplies the row by lc(G), and each row is
    then divided by its content.  A row built from a reduced row carries that
    row's factors, so the factor of a row is the running product over its
    block.  The determinant of the integer rows is brought back through these
    factors in one exact division; a remainder, which a ``divisor`` other than
    G can leave, raises ArithmeticError.  R_gamma is empty when gamma = (n),
    and its determinant is then 1.
    """
    width = len(divisor) - 1
    rows: list[list[int]] = []
    contents, powers = 1, 0  # det R_int = det R * lc(G)^powers / contents
    for order, count in enumerate(gamma[1:], start=2):
        row = derivative_coeffs(ints, order)
        row = [0] * (width + 1 - len(row)) + row
        row_content, row_power = 1, 0  # carried from row to row in the block
        block = []
        for s in range(count):
            if s:
                row = row + [0]
            row_power += len(row) - width
            row = _prem(row, divisor)
            divide = gcd(*row) or 1
            row = [x // divide for x in row]
            row_content *= divide
            contents *= row_content
            powers += row_power
            block.append(row)
        rows.extend(reversed(block))
    det = det_fraction_free(rows) if rows else 1
    return _exact(psc * det * contents, divisor[0] ** powers)


def disc_symbolic(n: int, gamma: Sequence[int]) -> DiscValue:
    """Parametric discriminant as an integer polynomial in a0..an.

    ``n`` and ``gamma`` are checked as :func:`build_symbolic_matrix` checks
    them.  Every nonzero entry in the first column of the generic matrix is
    c * an, so dividing that column by the monomial an divides the
    determinant by it.  With every entry that holds a(n-1) set to 0, the
    division-free cofactor expansion of the divided matrix is D_0, and the
    translation recurrence of the module docstring rebuilds D_gamma from it
    (see :func:`_translation_rebuild`).

    The matrix is built packed, in the row layout of :func:`_build`:
    the entry of block ``order`` in the column of a_d is {a_d: perm(d, order)}
    with a_d the key 1 << d*w, the a(n-1) entries are {}, and a nonzero entry
    of the first column is {0: c}, already divided by an.  The expansion
    (:func:`_packed_det`) and the recurrence run on packed dicts, and the
    one SymPoly is built at the exit.  Both use the field width
    w = size.bit_length(), size = n + g1 - 1 the order of the matrix.  That
    width is wide enough for the expansion: every entry is one term with
    exponents at most 1, so the largest exponent of a row is at most 1, and
    the expansion's bound, the sum of these over the rows, is at most size.
    It is wide enough for the recurrence: D is homogeneous of degree
    n + g1 - 2 = size - 1, and no exponent of a numerator exceeds that
    degree, so no field of w bits carries.
    """
    gamma = _symbolic_gamma(n, gamma)
    size = n + gamma[0] - 1
    width = size.bit_length()
    rows: list[list[dict[int, int]]] = []
    for order, count in enumerate(_block_sizes(gamma)):
        desc = [
            {1 << d * width: perm(d, order)} if d != n - 1 else {} for d in range(n, order - 1, -1)
        ]
        rows += _staircase(desc, {}, count, size)
    for row in rows:
        row[0] = {0: c for c in row[0].values()}  # c * an divided by an
    terms = _translation_rebuild(_packed_det(rows), n, size - 1, width)
    return DiscValue(_unpacked(terms, [i * width for i in range(n + 1)], width), gamma)


def _translation_rebuild(base: dict[int, int], n: int, degree: int, width: int) -> dict[int, int]:
    """D = sum_j D_j * a(n-1)^j from D_0 = ``base``, by the recurrence

        D_(j+1) = -[(n - 1) * dD_(j-1)/da(n-2) + L'' D_j] / (n * (j + 1) * an)

    of the module docstring, with D_(-1) = 0.  Keys are packed as in
    :func:`disc_symbolic`, ``width`` bits per field; D is homogeneous of
    degree ``degree``, so no exponent of a numerator or of D exceeds it, and
    a field of at least ``degree.bit_length()`` bits never carries.  It
    stops when two successive D_j are 0 or at j = ``degree``, which is 0 for
    n = 1.  Every quotient must be exact, so a remainder, or a term free of
    an, raises ArithmeticError.
    """
    field = (1 << width) - 1
    unit = [1 << i * width for i in range(n + 1)]
    # the terms of L'': (offset of a_i, key change a_i -> a_(i+1), factor i + 1)
    moves = [(i * width, unit[i + 1] - unit[i], i + 1) for i in range(n - 2)]
    result = dict(base)
    prev: dict[int, int] = {}
    cur = base
    for j in range(degree):
        if not (prev or cur):
            break
        acc: dict[int, int] = {}
        for k, c in prev.items():
            e = k >> (n - 2) * width & field
            if e:
                k -= unit[n - 2]
                acc[k] = acc.get(k, 0) + (n - 1) * e * c
        for k, c in cur.items():
            for shift, step, factor in moves:
                e = k >> shift & field
                if e:
                    key = k + step
                    acc[key] = acc.get(key, 0) + factor * e * c
        den, lift, nxt = n * (j + 1), (j + 1) * unit[n - 1] - unit[n], {}
        for k, c in acc.items():
            if c:
                q, r = divmod(-c, den)
                if r or not k >> n * width & field:
                    raise ArithmeticError("non-exact division in the translation recurrence")
                nxt[k - unit[n]] = q
                result[k + lift] = q
        prev, cur = cur, nxt
    return result
