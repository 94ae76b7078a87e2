"""Semistandard tableaux: validation, reading words, insertion, enumeration.

A straight-shape tableau is a list of rows, each row a list of entries,
rows top to bottom, row lengths weakly decreasing.  Enumeration and column
insertion work on the columns instead: a list of strictly increasing tuples,
left to right; the row enumerators are views of enumerate_columns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator
from functools import cache
from itertools import combinations, zip_longest
from math import prod
from operator import le, lt

from .shapes import Partition, canonical, conjugate

Rows = list[list[int]]
Column = tuple[int, ...]


def shape(T: Rows) -> Partition:
    """Shape of a straight tableau."""
    return canonical(len(row) for row in T)


def freeze(T: Rows) -> tuple[tuple[int, ...], ...]:
    """Hashable snapshot of a tableau."""
    return tuple(tuple(row) for row in T)


def validate_ssyt(T: Rows) -> bool:
    """Rows are non-empty, weakly increase and weakly decrease in length,
    columns strictly increase downward, and entries are at least 1.  One
    pass over adjacent rows: given the rest, T[1][1] >= 1 bounds every entry."""
    if T and (not T[0] or T[0][0] < 1 or not all(map(le, T[0], T[0][1:]))):
        return False
    for above, row in zip(T, T[1:]):
        if not row or len(above) < len(row):
            return False
        if not (all(map(le, row, row[1:])) and all(map(lt, above, row))):
            return False
    return True


def content(T: Rows, m: int) -> tuple[int, ...]:
    """Entry counts (T[1], ..., T[m]) in one pass over the rows, or the
    columns, of T; entries outside [1, m] are not counted."""
    counts = [0] * (m + 1)
    for row in T:
        for e in row:
            if 0 < e <= m:
                counts[e] += 1
    return tuple(counts[1:])


def row_word(T: Rows) -> list[int]:
    """Read the bottom row first, each row left to right."""
    return [e for row in reversed(T) for e in row]


def columns_of(T: Rows) -> list[Column]:
    """Columns of T, each top to bottom; ValueError unless T is semistandard."""
    if not validate_ssyt(T):
        raise ValueError(f"not a semistandard tableau: {T}")
    return [col[: col.index(None)] if None in col else col for col in zip_longest(*T)]


def rows_of(cols: list[Column]) -> Rows:
    """The rows of the tableau with the given columns."""
    return [list(row[: row.index(None)] if None in row else row) for row in zip_longest(*cols)]


def single_column(C: Rows) -> Column:
    """The entries of C top to bottom; ValueError unless C is a single column:
    one box per row, strictly increasing, entries >= 1."""
    cols = columns_of(C)
    if len(cols) > 1:
        raise ValueError(f"not a single column: {C}")
    return cols[0] if cols else ()


@cache
def column_pass(col: Column, entries: Column) -> tuple[Column, Column]:
    """(The column, the entries it bumps out in order) after column-inserting
    the entries, first to last: each replaces the topmost entry >= it, or
    goes at the bottom.  Cached, one entry per (column, entries)."""
    col, bumped = list(col), []
    for m in entries:
        y = bisect_left(col, m)
        if y == len(col):
            col.append(m)
        else:
            bumped.append(col[y])
            col[y] = m
    return tuple(col), tuple(bumped)


def column_product(entries: Column, cols: list[Column]) -> list[Column]:
    """The columns of C * S, unchecked, for C with these entries and S these
    columns: each column takes one column_pass of what the one before bumped
    out, in order, and what passes the last makes new columns."""
    out = []
    for x, col in enumerate(cols):
        if not entries:
            return out + cols[x:]
        col, entries = column_pass(col, entries)
        out.append(col)
    while entries:
        col, entries = column_pass((), entries)
        out.append(col)
    return out


def column_star(C: Rows, S: Rows) -> Rows:
    """The product C * S: column-insert the entries of C into S, top first.

    C must be a single column (one box per row, strictly increasing, entries
    >= 1) and S semistandard; ValueError otherwise.
    """
    return rows_of(column_product(single_column(C), columns_of(S)))


def chains(lengths: tuple[int, ...], children: Callable[..., list], root) -> Iterator[list]:
    """Every chain [node_1, ..., node_L], L = len(lengths), with node_1 in
    children(root, lengths[0]) and node_x+1 in children(node_x, lengths[x]),
    in the order of the children lists, which depend on node and length only.
    A depth-first walk on an explicit stack.  A node with one child is no
    branch point, and one that is its own only child fills the rest of its
    run of equal lengths at once, wherever a forced run reaches it."""
    last = len(lengths) - 1
    if last < 0:
        yield []
        return
    ends = [x for x in range(1, last + 1) if lengths[x] != lengths[x - 1]] + [last + 1]  # run ends
    prefix, levels = [], []  # levels: (the candidates left for node x, x)
    cands = children(root, lengths[0])  # the candidates for node len(prefix)
    while True:
        while len(cands) == 1 and len(prefix) < last:  # a forced run
            x = len(prefix) + 1
            if prefix and cands[0] == prefix[-1]:  # a node that is its own only child
                x = min(ends[bisect_right(ends, len(prefix))], last)
            prefix += cands * (x - len(prefix))
            cands = children(cands[0], lengths[x])
        if len(prefix) == last:  # the last node: finish the chains at once
            yield from [[*prefix, node] for node in cands]
        else:
            levels.append((iter(cands), len(prefix)))
        while levels and (node := next(levels[-1][0], None)) is None:
            levels.pop()
        if not levels:
            return
        x = levels[-1][1]
        del prefix[x:]
        prefix.append(node)
        cands = children(node, lengths[x + 1])


@cache
def after(left: Column, k: int, m: int) -> list[Column]:
    """The strictly increasing k-tuples over [1, m] row-wise >= left, in
    lexicographic order, as tuples shared with after((), k, m); cached."""
    cols = after((), k, m) if left else combinations(range(1, m + 1), k)
    return [col for col in cols if all(map(le, left, col))]


def enumerate_columns(lam: Partition, m: int) -> Iterator[list[Column]]:
    """All semistandard tableaux of shape lam over [1, m] as column lists, a
    chain of strictly increasing tuples each row-wise >= its left neighbour,
    in lexicographic order of the column reading sequence: the chains from
    () of the relation after."""
    return chains(conjugate(canonical(lam)), lambda left, k: after(left, k, m), ())


def count_columns(lam: Partition, m: int) -> int:
    """How many tableaux enumerate_columns(lam, m) yields, by a transfer over
    after: a dict from the last column to its number of chains."""
    ends = {(): 1}
    for k in conjugate(canonical(lam)):
        step: dict[Column, int] = {}
        for left, count in ends.items():
            for col in after(left, k, m):
                step[col] = step.get(col, 0) + count
        ends = step
    return sum(ends.values())


def enumerate_ssyt(lam: Partition, m: int) -> Iterator[Rows]:
    """The rows of each tableau of enumerate_columns(lam, m), in its order."""
    yield from map(rows_of, enumerate_columns(lam, m))


def count_ssyt(lam: Partition, m: int) -> int:
    """Number of semistandard tableaux of shape lam over [1, m], by the
    hook-content formula; 0 when lam has more than m rows."""
    lam = canonical(lam)
    lengths = conjugate(lam)
    boxes = [(x, y) for y, p in enumerate(lam) for x in range(p)]
    hooks = prod(lam[y] + lengths[x] - x - y - 1 for x, y in boxes)
    return prod(m + x - y for x, y in boxes) // hooks


def symplectic_columns(mu: Partition, n: int) -> Iterator[list[Column]]:
    """Column lists of the King tableaux of shape mu over [1, 2n]: those of
    enumerate_columns(mu, 2n) whose row y starts at an entry >= 2y - 1."""
    for cols in enumerate_columns(mu, 2 * n):
        if all(e >= 2 * y + 1 for col in cols[:1] for y, e in enumerate(col)):
            yield cols


def enumerate_spt(mu: Partition, n: int) -> Iterator[Rows]:
    """The rows of each tableau of symplectic_columns(mu, n), in its order."""
    yield from map(rows_of, symplectic_columns(mu, n))
