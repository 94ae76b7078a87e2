"""Semistandard tableaux: validation, reading words, insertion, enumeration.

A straight-shape tableau is a list of rows, each row a list of entries,
rows top to bottom, row lengths weakly decreasing.  Enumeration and column
insertion work on the columns instead: a list of strictly increasing tuples,
left to right; the row enumerators are views of enumerate_columns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
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


def insert_into_rows(m: int, rows: Rows) -> None:
    """Row-insert m into semistandard rows in place, bumping the leftmost
    entry > m of each row."""
    for row in rows:
        x = bisect_right(row, m)
        if x == len(row):
            row.append(m)
            return
        row[x], m = m, row[x]
    rows.append([m])


def insertion_tableau(word) -> Rows:
    """Row-insert the letters of the word, first to last, into one tableau."""
    T: Rows = []
    for m in word:
        insert_into_rows(m, T)
    return T


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


def insert_into_columns(m: int, cols: list[Column]) -> None:
    """Column-insert m >= 1 into semistandard columns in place, bumping the
    topmost entry >= m of each column; the result is semistandard."""
    for x, col in enumerate(cols):
        y = bisect_left(col, m)
        if y == len(col):
            cols[x] = col + (m,)
            return
        cols[x], m = col[:y] + (m,) + col[y + 1 :], col[y]
    cols.append((m,))


def column_star(C: Rows, S: Rows) -> Rows:
    """The product C * S: column-insert the entries of C into S, top first.

    C must be a single column (one box per row, strictly increasing, entries
    >= 1) and S semistandard; ValueError otherwise.
    """
    col, cols = single_column(C), columns_of(S)
    for m in col:
        insert_into_columns(m, cols)
    return rows_of(cols)


def enumerate_columns(lam: Partition, m: int) -> Iterator[list[Column]]:
    """All semistandard tableaux of shape lam over [1, m] as column lists, a
    chain of strictly increasing tuples each row-wise >= its left neighbour,
    in lexicographic order of the column reading sequence."""
    lengths = conjugate(canonical(lam))

    @cache
    def after(left: Column, k: int) -> list[Column]:
        return [col for col in combinations(range(1, m + 1), k) if all(map(le, left, col))]

    def chain(prefix: list[Column]) -> Iterator[list[Column]]:
        cols = after(prefix[-1] if prefix else (), lengths[len(prefix)])
        if len(prefix) + 1 == len(lengths):  # the last column: no leaf generators
            yield from [prefix + [col] for col in cols]
        else:
            for col in cols:
                yield from chain(prefix + [col])

    return chain([]) if lengths else iter([[]])


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
