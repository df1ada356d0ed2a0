"""Integer partitions: enumeration, conjugation, and the classification order."""

from __future__ import annotations

Partition = tuple[int, ...]


def is_valid_partition(parts) -> bool:
    """True when ``parts`` is a nonempty weakly decreasing tuple of positive ints.

    Floats and bools are not ints here, so a part such as 2.5 or True is rejected
    rather than truncated.
    """
    parts = tuple(parts)
    if not parts:
        return False
    if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def as_partition(parts, n: int | None = None) -> Partition:
    """``parts`` as a partition tuple, or ValueError; the sum must be ``n`` when given."""
    parts = tuple(parts)
    if not is_valid_partition(parts) or (n is not None and sum(parts) != n):
        of = "" if n is None else f" of {n}"
        raise ValueError(f"{parts!r} is not a partition{of}")
    return parts


def partitions_of(n: int) -> list[Partition]:
    """All partitions of ``n`` in descending lexicographic order.

    The first entry is ``(n,)`` and the last is ``(1,) * n``.  Each successor
    lowers the last part above 1 by one and refills the remainder, the trailing
    ones included, greedily with parts no larger than the lowered one.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    result: list[Partition] = []
    parts = [n]
    while True:
        result.append(tuple(parts))
        rest = 0
        while parts and parts[-1] == 1:
            parts.pop()
            rest += 1
        if not parts:
            return result
        part = parts.pop() - 1
        parts.append(part)
        rest += 1
        while rest > 0:
            parts.append(min(part, rest))
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
    return [(conjugate(g), g) for g in partitions_of(n)]
