"""Tableau and shape helpers that only the tests use."""

from artifact import branching, characters, crystal
from artifact.characters import decompose, restricted_gl_character
from artifact.shapes import Partition, canonical
from artifact.tableaux import Rows, columns_of, content

# Every module-level functools cache that verify_sweep reads, bound at
# import so that the originals can be cleared while a test has
# monkeypatched their names.
SWEEP_CACHES = (
    characters.sp_character,
    branching._reduced,
    branching._staircase_columns,
    branching._staircase_first_columns,
    crystal._dominance_step,
)


def count_entry(T: Rows, m: int) -> int:
    """Number of boxes of T carrying the entry m."""
    return sum(row.count(m) for row in T)


def inverse_column_word(T: Rows) -> list[int]:
    """Read the rightmost column first, each column top to bottom."""
    return [e for col in reversed(columns_of(T)) for e in col]


def column_to_rows(entries) -> Rows:
    """Single-column tableau with the given entries, top to bottom."""
    return [[e] for e in entries]


def is_symplectic(T: Rows) -> bool:
    """King's condition: the first entry of row y is at least 2y - 1."""
    return all(row[0] >= 2 * i + 1 for i, row in enumerate(T))


def branching_multiplicity(lam: Partition, mu: Partition, n: int) -> int:
    """Multiplicity of the symplectic irreducible mu in the restriction of lam."""
    return decompose(restricted_gl_character(lam, n), n).get(canonical(mu), 0)


def first_column(T: Rows) -> list[int]:
    """Entries of column 1, top to bottom."""
    return [row[0] for row in T]


def rest_columns(T: Rows) -> Rows:
    """The tableau of columns 2, 3, ..., shifted one column left."""
    return [row[1:] for row in T if len(row) > 1]


def wt_gl(T: Rows, N: int) -> tuple[int, ...]:
    """Entry counts (T[1], ..., T[N])."""
    return content(T, N)


def young_diagram(lam: Partition) -> set[tuple[int, int]]:
    """All boxes (x, y) with 1 <= y <= len(lam), 1 <= x <= lam[y-1]."""
    return {(x, y) for y, row in enumerate(lam, start=1) for x in range(1, row + 1)}
