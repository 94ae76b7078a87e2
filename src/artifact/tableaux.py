"""Semistandard tableaux: validation, reading words, insertion, enumeration.

A straight-shape tableau is a list of rows, each row a list of entries,
rows top to bottom, row lengths weakly decreasing.  Enumeration and column
insertion work on the columns instead: a list of strictly increasing tuples,
left to right; the row enumerators are views of enumerate_columns.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import combinations, zip_longest
from math import prod
from operator import le, lt
from typing import Iterator

from .shapes import Partition, canonical, conjugate

Rows = list[list[int]]
Column = tuple[int, ...]


def shape(T: Rows) -> Partition:
    """Shape of a straight tableau."""
    return canonical(len(row) for row in T)


def freeze(T: Rows) -> tuple[tuple[int, ...], ...]:
    """Hashable snapshot of a tableau."""
    return tuple(tuple(row) for row in T)


def thaw(frozen) -> Rows:
    return [list(row) for row in frozen]


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


def count_entry(T: Rows, m: int) -> int:
    """Number of boxes of T carrying the entry m."""
    return sum(row.count(m) for row in T)


def content(T: Rows, m: int) -> tuple[int, ...]:
    """Entry counts (T[1], ..., T[m]) in one pass over the rows, or the
    columns, of T; entries outside [1, m] are not counted, as by count_entry."""
    counts = [0] * (m + 1)
    for row in T:
        for e in row:
            if 0 < e <= m:
                counts[e] += 1
    return tuple(counts[1:])


def row_word(T: Rows) -> list[int]:
    """Read the bottom row first, each row left to right."""
    return [e for row in reversed(T) for e in row]


def inverse_column_word(T: Rows) -> list[int]:
    """Read the rightmost column first, each column top to bottom."""
    return [e for col in reversed(columns_of(T)) for e in col]


def schensted_insert(m: int, T: Rows) -> Rows:
    """Row-insert m into T (classical bumping)."""
    out = [list(row) for row in T]
    r = 0
    while True:
        if r == len(out):
            out.append([m])
            return out
        row = out[r]
        for j, e in enumerate(row):
            if e > m:
                row[j], m = m, e
                break
        else:
            row.append(m)
            return out
        r += 1


def insertion_tableau(word) -> Rows:
    """Left fold of schensted_insert over the word."""
    T: Rows = []
    for m in word:
        T = schensted_insert(m, T)
    return T


def knuth_equivalent(w1, w2) -> bool:
    """Words are Knuth equivalent iff their insertion tableaux coincide."""
    return insertion_tableau(w1) == insertion_tableau(w2)


def columns_of(T: Rows) -> list[Column]:
    """Columns of T, each top to bottom; ValueError unless T is semistandard."""
    if not validate_ssyt(T):
        raise ValueError(f"not a semistandard tableau: {T}")
    return [col[: col.index(None)] if None in col else col for col in zip_longest(*T)]


def rows_of(cols: list[Column]) -> Rows:
    """The rows of the tableau with the given columns."""
    return [list(row[: row.index(None)] if None in row else row) for row in zip_longest(*cols)]


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


def column_insert(m: int, T: Rows) -> Rows:
    """Column-insert m into T: bump the topmost entry >= m of each column."""
    return column_star([[m]], T)


def column_star(C: Rows, S: Rows) -> Rows:
    """The product C * S: column-insert the entries of C into S, top first.

    C must be a single column (one box per row) of entries >= 1 and S
    semistandard; ValueError otherwise.
    """
    if any(len(row) != 1 or row[0] < 1 for row in C):
        raise ValueError(f"not a single column of entries >= 1: {C}")
    cols = columns_of(S)
    for row in C:
        insert_into_columns(row[0], cols)
    return rows_of(cols)


def first_column(T: Rows) -> list[int]:
    """Entries of column 1, top to bottom."""
    return [row[0] for row in T]


def rest_columns(T: Rows) -> Rows:
    """The tableau of columns 2, 3, ..., shifted one column left."""
    return [row[1:] for row in T if len(row) > 1]


def column_to_rows(entries) -> Rows:
    """Single-column tableau with the given entries, top to bottom."""
    return [[e] for e in entries]


def is_symplectic(T: Rows) -> bool:
    """King's condition: the first entry of row y is at least 2y - 1."""
    return all(row[0] >= 2 * i + 1 for i, row in enumerate(T))


def enumerate_columns(lam: Partition, m: int, floor: Column = ()) -> Iterator[list[Column]]:
    """All semistandard tableaux of shape lam over [1, m] as column lists, a
    chain of strictly increasing tuples each row-wise >= its left neighbour
    (the first one >= floor, compared up to the shorter length), in
    lexicographic order of the column reading sequence."""
    lengths = conjugate(canonical(lam))

    @cache
    def after(left: Column, k: int) -> list[Column]:
        return [col for col in combinations(range(1, m + 1), k) if all(map(le, left, col))]

    def chain(prefix: list[Column]) -> Iterator[list[Column]]:
        if len(prefix) == len(lengths):
            yield prefix
            return
        for col in after(prefix[-1] if prefix else floor, lengths[len(prefix)]):
            yield from chain(prefix + [col])

    return chain([])


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
    """Column lists of the King tableaux of shape mu over [1, 2n]: row y of
    column 1 is >= 2y - 1, so column 1 is row-wise >= the 2n entries 1, 3,
    ..., 4n - 1 (a row y > n would need an entry above 2n)."""
    return enumerate_columns(mu, 2 * n, tuple(range(1, 4 * n, 2)))


def enumerate_spt(mu: Partition, n: int) -> Iterator[Rows]:
    """The rows of each tableau of symplectic_columns(mu, n), in its order."""
    yield from map(rows_of, symplectic_columns(mu, n))
