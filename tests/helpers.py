"""Tableau helpers that only the tests use."""

from artifact.tableaux import Rows, columns_of


def count_entry(T: Rows, m: int) -> int:
    """Number of boxes of T carrying the entry m."""
    return sum(row.count(m) for row in T)


def inverse_column_word(T: Rows) -> list[int]:
    """Read the rightmost column first, each column top to bottom."""
    return [e for col in reversed(columns_of(T)) for e in col]


def first_column(T: Rows) -> list[int]:
    """Entries of column 1, top to bottom."""
    return [row[0] for row in T]


def rest_columns(T: Rows) -> Rows:
    """The tableau of columns 2, 3, ..., shifted one column left."""
    return [row[1:] for row in T if len(row) > 1]
