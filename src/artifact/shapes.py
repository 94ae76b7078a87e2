"""Partitions and shape enumeration.

Conventions: a partition is a tuple of weakly decreasing positive integers
(canonical form has no trailing zeros).  Boxes are (x, y) pairs with x the
column and y the row, both 1-based, row 1 at the top.
"""

from __future__ import annotations

Partition = tuple[int, ...]


def canonical(parts) -> Partition:
    """Canonical form of a partition: strip trailing zeros, validate."""
    parts = tuple(int(p) for p in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return parts


def part(lam: Partition, y: int) -> int:
    """The y-th part (1-based), 0 beyond the length."""
    return lam[y - 1] if 1 <= y <= len(lam) else 0


def conjugate(lam: Partition) -> Partition:
    """The column lengths of lam, left to right."""
    return tuple(sum(1 for p in lam if p >= x) for x in range(1, part(lam, 1) + 1))


def enumerate_partitions(max_size: int, max_length: int) -> list[Partition]:
    """All partitions with |lam| <= max_size, len(lam) <= max_length.

    Deterministic order: by size, then reverse-lexicographic.
    """

    def build(remaining: int, cap: int, slots: int):
        # Partitions of exactly remaining, parts <= cap, at most slots parts,
        # largest first part first.
        if remaining == 0:
            yield ()
        elif slots > 0:
            for p in range(min(cap, remaining), 0, -1):
                yield from ((p, *rest) for rest in build(remaining - p, p, slots - 1))

    return [lam for size in range(max_size + 1) for lam in build(size, size, max_length)]


def parse_partition(text: str) -> Partition:
    """Parse "2,2,1" (or "" / "0" for the empty partition)."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}") from exc
    return canonical(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "0"
