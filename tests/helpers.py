"""Tableau and shape helpers that only the tests use."""

import random

from artifact import branching, characters, crystal, promotion
from artifact.branching import _recording, _suc_chain, staircase_flags
from artifact.characters import decompose, restricted_gl_character
from artifact.shapes import Partition, canonical, enumerate_partitions
from artifact.tableaux import (
    Rows,
    column_star,
    columns_of,
    content,
    enumerate_columns,
    freeze,
    insert_into_rows,
    insertion_tableau,
    rows_of,
    shape,
)

# Every module-level functools cache of the library, bound at import so
# that the originals can be cleared while a test has monkeypatched their
# names.
SWEEP_CACHES = (
    characters.sp_character,
    branching._reduced,
    branching._staircase_columns,
    branching._staircase_first_columns,
    crystal._dominance_step,
    promotion._tables,
)


def is_k_highest(T: Rows, n: int) -> bool:
    """True iff P has row y constantly a_y."""
    return staircase_flags(_suc_chain(columns_of(T))[-1], n)[0]


def is_k_lowest(T: Rows, n: int) -> bool:
    """True iff P has row y constantly b_y."""
    return staircase_flags(_suc_chain(columns_of(T))[-1], n)[1]


def schensted_insert(m: int, T: Rows) -> Rows:
    """Row-insert m into a copy of the semistandard T (classical bumping)."""
    out = [list(row) for row in T]
    insert_into_rows(m, out)
    return out


def knuth_equivalent(w1, w2) -> bool:
    """Words are Knuth equivalent iff their insertion tableaux coincide."""
    return insertion_tableau(w1) == insertion_tableau(w2)


def column_insert(m: int, T: Rows) -> Rows:
    """Column-insert m into T: bump the topmost entry >= m of each column."""
    return column_star([[m]], T)


def skew_row_word(cells) -> list[int]:
    """Row word of the non-hole entries of a box dict: bottom row first,
    left to right."""
    entries = [(y, x, e) for (x, y), e in cells.items() if e is not None]
    entries.sort(key=lambda t: (-t[0], t[1]))
    return [e for _, _, e in entries]


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


def lr_aii_partition(lam: Partition, n: int) -> dict[Partition, list]:
    """Group every tableau of shape lam over [1, 2n] by the shape of its P.

    Returns a dict mu -> list of (T, P, Q), P and Q from one suc chain per
    tableau.  Raises if two tableaux share the same (P, Q) pair.
    """
    classes: dict[Partition, list] = {}
    seen = set()
    for cols in enumerate_columns(lam, 2 * n):
        chain = _suc_chain(cols)
        T, P, Q = rows_of(cols), rows_of(chain[-1]), _recording(chain)
        key = (freeze(P), frozenset(Q.items()))
        if key in seen:
            raise RuntimeError(f"(P, Q) collision at {T}")
        seen.add(key)
        classes.setdefault(shape(P), []).append((T, P, Q))
    return classes


def random_shape(max_size: int, max_length: int, rng: random.Random) -> Partition:
    """One shape drawn uniformly from enumerate_partitions(max_size, max_length)."""
    shapes = enumerate_partitions(max_size, max_length)
    return shapes[rng.randrange(len(shapes))]
