"""Integer partitions: enumeration, conjugation, and the classification order."""

from __future__ import annotations

from typing import Iterator

Partition = tuple[int, ...]
_ANY_N = object()  # as_partition's default: no n, so any sum; None is a bad n


def _is_int(value) -> bool:
    # a bool is not a count, a part or an exponent, although it is an int
    return isinstance(value, int) and not isinstance(value, bool)


def _count(value, name: str, least: int) -> int:
    """``value`` if it is an int of at least ``least``, else ValueError: the
    one check of every count the library and the CLI take.  A float such as
    2.0, a string or a bool is not read as a count."""
    if not _is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return value


def as_partition(parts, n: int = _ANY_N) -> Partition:
    """``parts`` as a partition tuple, or ValueError; the sum must be ``n`` when given.

    A partition is a nonempty weakly decreasing tuple of positive ints.  Floats
    and bools are not ints here, so a part such as 2.5 or True is rejected
    rather than truncated.  ``n`` is checked first, as every count is, by
    :func:`_count`: this is the one check of a degree and a partition of it.
    """
    if n is not _ANY_N:
        _count(n, "n", 1)
    parts = tuple(parts)
    if (
        not parts
        or any(not _is_int(p) or p < 1 for p in parts)
        or any(a < b for a, b in zip(parts, parts[1:]))
        or (n is not _ANY_N and sum(parts) != n)
    ):
        of = "" if n is _ANY_N else f" of {n}"
        raise ValueError(f"{parts!r} is not a partition{of}")
    return parts


def iter_partitions(n: int) -> Iterator[Partition]:
    """The partitions of ``n`` one at a time, in descending lexicographic order.

    The first is ``(n,)`` and the last is ``(1,) * n``.  Each successor
    lowers the last part above 1 by one and refills the remainder, the
    trailing ones included, greedily with parts no larger than the lowered
    one; a last part 2 just becomes 1 + 1.  The trailing ones are counted by
    index, not walked one by one (Knuth, TAOCP 4A, 7.2.1.4, Algorithm P).
    ``n`` is checked here, at the call, so a bad ``n`` raises before the first
    partition is asked for.
    """
    return _descending(_count(n, "n", 1))


def _descending(n: int) -> Iterator[Partition]:
    # parts[1..m] is the partition and q the index of its last part above 1,
    # 0 when there is none; parts[0] = 0 ends the walk
    parts = [0] * (n + 1)
    m, rest = 1, n
    while True:
        parts[m] = rest
        q = m - (rest == 1)
        yield tuple(parts[1 : m + 1])
        while parts[q] == 2:  # a last 2 becomes 1 + 1
            parts[q] = 1
            q -= 1
            m += 1
            parts[m] = 1
            yield tuple(parts[1 : m + 1])
        if not q:
            return
        part = parts[q] - 1
        parts[q] = part
        rest = m - q + 1
        m = q + 1
        while rest > part:
            parts[m] = part
            m += 1
            rest -= part


def conjugate(parts: Partition) -> Partition:
    """Conjugate partition: entry i counts the parts that are >= i+1.

    Transposes the Young diagram; applying it twice gives back the input.
    """
    parts = as_partition(parts)
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1))


def classification_order(n: int) -> list[tuple[Partition, Partition]]:
    """Pairs (mu, gamma) with gamma = conjugate(mu), sorted by gamma descending lex.

    Every partition of ``n`` appears exactly once in each column.  The gamma
    column starts at ``(n,)`` and ends at ``(1,) * n``; since conjugation is an
    involution, pairing each enumerated gamma with its conjugate already yields
    the required order without a separate sort.
    """
    return [(conjugate(g), g) for g in iter_partitions(n)]
