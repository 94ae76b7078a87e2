"""Column reduction, the P/Q correspondence, and highest/lowest weight tests.

P is computed on strictly increasing column tuples; the public functions
take rows, validate them once and convert them to columns.  The recording
object Q is a dict mapping boxes (x, y) to the step index at which the box
disappeared from the shape.
"""

from __future__ import annotations

from .crystal import (
    ab_sequences,
    tableau_e,
    tableau_e_max,
    tableau_f,
    tableau_f_max,
    tableau_phi,
)
from .shapes import Partition, part
from .tableaux import (
    Column,
    Rows,
    columns_of,
    enumerate_columns,
    insert_into_columns,
    rows_of,
    shape,
)


def _reduced(col: Column) -> Column:
    """col without its removable entries, in one pass over prefixes: with v
    the k-th entry and u the one above, prefix k keeps what prefix k - 2 kept
    if v is even, u = v - 1 and v < 2k - #rem(prefix k - 2) - 1, else what
    prefix k - 1 kept, plus v."""
    before, kept = (), col[:1]
    for k in range(2, len(col) + 1):
        v = col[k - 1]
        pair = v % 2 == 0 and col[k - 2] == v - 1 and v < k + 1 + len(before)
        before, kept = kept, before if pair else kept + (v,)
    return kept


def _column(C: Rows) -> Column:
    """The entries of C top to bottom; ValueError unless C is a single column:
    one box per row, strictly increasing, entries >= 1."""
    cols = columns_of(C)
    if len(cols) > 1:
        raise ValueError(f"not a single column: {C}")
    return cols[0] if cols else ()


def rem(C: Rows) -> set[int]:
    """Removable entries of a single column C; ValueError if C is none."""
    col = _column(C)
    return set(col) - set(_reduced(col))


def red(C: Rows) -> Rows:
    """C with the boxes carrying removable entries deleted, re-compacted;
    ValueError unless C is a single column."""
    return [[e] for e in _reduced(_column(C))]


def _reduction(cols: list[Column], limit: int | None = None) -> tuple[list[Column], dict, int]:
    """The suc loop on semistandard columns, unchecked: (P, Q, steps) at the
    first fixed point, with steps counting the steps that changed the tableau
    and Q read from the change in column lengths.  A limit stops the loop
    after that many steps; without one, more than |T| + 1 steps raise
    RuntimeError."""
    Q: dict[tuple[int, int], int] = {}
    budget = sum(map(len, cols)) + 1
    for step in range(budget + 1 if limit is None else limit):
        # With nothing removable, suc(T) = C * rest = T: the fixed point.
        if not cols or len(kept := _reduced(cols[0])) == len(cols[0]):
            return cols, Q, step
        rest = cols[1:]
        for m in kept:
            insert_into_columns(m, rest)
        for x, col in enumerate(cols):
            for y in range(len(rest[x]) if x < len(rest) else 0, len(col)):
                Q[x + 1, y + 1] = step + 1
        cols = rest
    if limit is None:
        raise RuntimeError("suc did not stabilize within the size budget")
    return cols, Q, limit


def suc(T: Rows) -> Rows:
    """Reduce the first column and column-insert it back into the rest."""
    return rows_of(_reduction(columns_of(T), 1)[0])


def p_aii(T: Rows) -> Rows:
    """Iterate suc to its fixed point (a symplectic tableau); ValueError
    unless T is semistandard."""
    return rows_of(_reduction(columns_of(T))[0])


def q_aii(T: Rows) -> dict[tuple[int, int], int]:
    """Map each box that suc-iteration removes to the step that removed it."""
    return _reduction(columns_of(T))[1]


def lr_aii_partition(lam: Partition, n: int):
    """Group every tableau of shape lam over [1, 2n] by the shape of its P.

    Returns a dict mu -> list of (T, P, Q).  Raises if two tableaux share
    the same (P, Q) pair.
    """
    classes: dict[Partition, list] = {}
    seen = set()
    for cols in enumerate_columns(lam, 2 * n):
        P_cols, Q, _ = _reduction(cols)
        T, P = rows_of(cols), rows_of(P_cols)
        key = (tuple(P_cols), frozenset(Q.items()))
        if key in seen:
            raise RuntimeError(f"(P, Q) collision at {T}")
        seen.add(key)
        classes.setdefault(shape(P), []).append((T, P, Q))
    return classes


def a_staircase(mu: Partition, n: int) -> Rows:
    """Tableau of shape mu with row y filled with a_y."""
    a, _ = ab_sequences(n)
    return [[a[y - 1]] * part(mu, y) for y in range(1, len(mu) + 1)]


def b_staircase(mu: Partition, n: int) -> Rows:
    """Tableau of shape mu with row y filled with b_y."""
    _, b = ab_sequences(n)
    return [[b[y - 1]] * part(mu, y) for y in range(1, len(mu) + 1)]


def staircase_flags(P: list[Column], a: Column, b: Column) -> tuple[bool, bool]:
    """Whether the tableau with columns P has row y constantly a_y, resp. b_y:
    every column of P is a prefix of a (resp. b).  No staircase is built."""
    return all(a[: len(col)] == col for col in P), all(b[: len(col)] == col for col in P)


def is_k_highest(T: Rows, n: int) -> bool:
    """True iff P has row y constantly a_y."""
    return staircase_flags(_reduction(columns_of(T))[0], *ab_sequences(n))[0]


def is_k_lowest(T: Rows, n: int) -> bool:
    """True iff P has row y constantly b_y."""
    return staircase_flags(_reduction(columns_of(T))[0], *ab_sequences(n))[1]


def p_aii_range(T: Rows, a: int, b: int) -> Rows:
    """P of the subcrystal on the letter window [a, b].

    Shifts entries down by a - 1, runs p_aii in rank (b - a + 1) / 2, and
    shifts back.
    """
    if not 1 <= a <= b:
        raise ValueError(f"window [{a}, {b}] needs 1 <= a <= b")
    if (b - a + 1) % 2 != 0:
        raise ValueError(f"window [{a}, {b}] has odd size")
    if any(e < a or e > b for row in T for e in row):
        raise ValueError(f"entries outside [{a}, {b}]")
    shifted = [[e - (a - 1) for e in row] for row in T]
    P = p_aii(shifted)
    return [[e + (a - 1) for e in row] for row in P]


def _require_n2(T: Rows) -> None:
    if any(e > 4 for row in T for e in row):
        raise ValueError("condition is specific to entries in [1, 4]")


def _run_lengths(row: list[int], letters: tuple[int, ...]) -> tuple[int, ...] | None:
    """Lengths of consecutive runs if row is runs of the given letters in
    order (runs may be empty); None otherwise."""
    counts = []
    pos = 0
    for letter in letters:
        start = pos
        while pos < len(row) and row[pos] == letter:
            pos += 1
        counts.append(pos - start)
    if pos != len(row):
        return None
    return tuple(counts)


def _padded_rows(T: Rows, count: int) -> list[list[int]]:
    return [T[i] if i < len(T) else [] for i in range(count)]


def n2_family_dominant(T: Rows) -> bool:
    """Closed-form description of the rank-2 dominant tableaux."""
    _require_n2(T)
    if len(T) > 4:
        return False
    lam = shape(T)
    r1, r2, r3, r4 = _padded_rows(T, 4)
    if _run_lengths(r1, (1,)) is None:
        return False
    if _run_lengths(r2, (2, 4)) is None:
        return False
    runs3 = _run_lengths(r3, (3, 4))
    if runs3 is None:
        return False
    if _run_lengths(r4, (4,)) is None:
        return False
    return runs3[1] <= part(lam, 1) - part(lam, 2)


def n2_family_khw(T: Rows) -> bool:
    """Closed-form description of the rank-2 highest-weight tableaux."""
    _require_n2(T)
    if len(T) > 4:
        return False
    lam = shape(T)
    l1, l2, l3, l4 = (part(lam, y) for y in range(1, 5))
    r1, r2, r3, r4 = _padded_rows(T, 4)
    runs1 = _run_lengths(r1, (1, 2))
    if runs1 is None:
        return False
    p = runs1[0]
    runs2 = _run_lengths(r2, (2, 3))
    if runs2 is None or runs2[0] != min(p, l2):
        return False
    runs3 = _run_lengths(r3, (3, 4))
    if runs3 is None:
        return False
    a = runs3[0]
    if _run_lengths(r4, (4,)) is None:
        return False
    if a - l4 > l1 - l2:
        return False
    return min(p, l3) - a <= l2 - max(p, l3)


def _klw_form(T: Rows):
    """Run data (lam, p, q, r) when T matches the lowest-weight row form:
    row 1 all 1s, row 2 = 2^p 3^q 4^r, row 3 = 3^(lam_4) 4^(lam_3 - lam_4),
    row 4 all 4s.  None otherwise."""
    if len(T) > 4:
        return None
    lam = shape(T)
    r1, r2, r3, r4 = _padded_rows(T, 4)
    if _run_lengths(r1, (1,)) is None:
        return None
    runs2 = _run_lengths(r2, (2, 3, 4))
    if runs2 is None:
        return None
    runs3 = _run_lengths(r3, (3, 4))
    if runs3 is None or runs3[0] != part(lam, 4):
        return None
    if _run_lengths(r4, (4,)) is None:
        return None
    return lam, *runs2


def n2_family_klw(T: Rows) -> bool:
    """Transcribed closed-form test for rank-2 lowest-weight tableaux.

    Known not to match is_k_lowest; kept verbatim so the discrepancy is
    visible.  See n2_family_klw_corrected for the exact version.
    """
    _require_n2(T)
    form = _klw_form(T)
    if form is None:
        return False
    lam, p, q, r = form
    x = min(p, part(lam, 3)) - part(lam, 4)
    return 0 <= x - r <= part(lam, 1) - part(lam, 2)


def n2_family_klw_corrected(T: Rows) -> bool:
    """Exact closed form for rank-2 lowest-weight tableaux.

    Same row form as n2_family_klw, but the inequality bounds the 3-run of
    row 2 against the 4-run of row 3: with q the number of 3s in row 2,
    0 <= (lam_3 - lam_4) - q <= lam_1 - lam_2.  Matches is_k_lowest on
    every tableau with at most 9 boxes in a 4-row shape (checked
    exhaustively).
    """
    _require_n2(T)
    form = _klw_form(T)
    if form is None:
        return False
    lam, p, q, r = form
    gap = part(lam, 3) - part(lam, 4) - q
    return 0 <= gap <= part(lam, 1) - part(lam, 2)


def n2_condition_khw(T: Rows) -> bool:
    """Rank-2 highest-weight test by crystal operators alone."""
    _require_n2(T)
    if tableau_f(T, 1) is not None:
        return False
    if tableau_e(T, 2) is not None or tableau_e(T, 3) is not None:
        return False
    probe = tableau_e_max(tableau_f_max(T, 3), 1)
    return tableau_phi(probe, 2) <= tableau_phi(T, 2)


def n2_condition_klw(T: Rows) -> bool:
    """Rank-2 lowest-weight test by crystal operators alone, transcribed
    verbatim.

    Known not to match is_k_lowest in either direction (e.g. the column
    with entries 1, 2 is lowest but rejected here; the single box 4 is not
    lowest but accepted).  Kept verbatim so the discrepancy is visible.
    """
    _require_n2(T)
    if tableau_e(T, 1) is not None:
        return False
    if tableau_f(T, 2) is not None or tableau_f(T, 3) is not None:
        return False
    probe = tableau_f_max(tableau_e_max(T, 3), 1)
    return tableau_phi(probe, 2) >= tableau_phi(T, 2)
