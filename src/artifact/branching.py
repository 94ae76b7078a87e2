"""Column reduction, the P/Q correspondence, and highest/lowest weight tests.

The suc chain [T, suc(T), ..., P] is computed on strictly increasing column
tuples; the public functions take rows, validate them once and convert them
to columns.  The recording object Q maps each box (x, y) to the step of the
chain at which the box disappeared from the shape.
"""

from __future__ import annotations

from functools import cache

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
    insert_into_columns,
    rows_of,
    shape,
    single_column,
)


@cache
def _reduced(col: Column) -> Column:
    """col without its removable entries, in one pass over prefixes: with v
    the k-th entry and u the one above, prefix k keeps what prefix k - 2 kept
    if v is even, u = v - 1 and v < 2k - #rem(prefix k - 2) - 1, else what
    prefix k - 1 kept, plus v.  Cached: one entry per column."""
    before, kept = (), col[:1]
    for k in range(2, len(col) + 1):
        v = col[k - 1]
        pair = v % 2 == 0 and col[k - 2] == v - 1 and v < k + 1 + len(before)
        before, kept = kept, before if pair else kept + (v,)
    return kept


def rem(C: Rows) -> set[int]:
    """Removable entries of a single column C; ValueError if C is none."""
    col = single_column(C)
    return set(col) - set(_reduced(col))


def red(C: Rows) -> Rows:
    """C with the boxes carrying removable entries deleted, re-compacted;
    ValueError unless C is a single column."""
    return [[e] for e in _reduced(single_column(C))]


def _suc_chain(cols: list[Column]) -> list[list[Column]]:
    """The suc orbit of semistandard columns, unchecked: [T, suc(T), ..., P]
    up to the first fixed point P; RuntimeError if P takes more than
    |T| + 1 steps."""
    chain = [cols]
    for _ in range(sum(map(len, cols)) + 2):
        # With nothing removable, suc(T) = C * rest = T: the fixed point.
        if not cols or len(kept := _reduced(cols[0])) == len(cols[0]):
            return chain
        cols = cols[1:]
        for m in kept:
            insert_into_columns(m, cols)
        chain.append(cols)
    raise RuntimeError("suc did not stabilize within the size budget")


def suc(T: Rows) -> Rows:
    """Reduce the first column and column-insert it back into the rest."""
    chain = _suc_chain(columns_of(T))
    return rows_of(chain[min(1, len(chain) - 1)])


def p_aii(T: Rows) -> Rows:
    """Iterate suc to its fixed point (a symplectic tableau); ValueError
    unless T is semistandard."""
    return rows_of(_suc_chain(columns_of(T))[-1])


def q_aii(T: Rows) -> dict[tuple[int, int], int]:
    """Map each box that suc-iteration removes to the step that removed it."""
    return _recording(_suc_chain(columns_of(T)))


def _recording(chain: list[list[Column]]) -> dict[tuple[int, int], int]:
    """Q of a suc chain: the boxes of one entry missing from the next get
    that step's number."""
    Q: dict[tuple[int, int], int] = {}
    for step, (before, after) in enumerate(zip(chain, chain[1:]), start=1):
        for x, col in enumerate(before):
            for y in range(len(after[x]) if x < len(after) else 0, len(col)):
                Q[x + 1, y + 1] = step
    return Q


def a_staircase(mu: Partition, n: int) -> Rows:
    """Tableau of shape mu with row y filled with a_y."""
    a, _ = ab_sequences(n)
    return [[a[y - 1]] * part(mu, y) for y in range(1, len(mu) + 1)]


def b_staircase(mu: Partition, n: int) -> Rows:
    """Tableau of shape mu with row y filled with b_y."""
    _, b = ab_sequences(n)
    return [[b[y - 1]] * part(mu, y) for y in range(1, len(mu) + 1)]


@cache
def _staircase_columns(lengths: tuple[int, ...], n: int) -> tuple[list[Column], list[Column]]:
    """The a- and b-staircase columns of these lengths (cut to n entries)."""
    a, b = ab_sequences(n)
    return [a[:k] for k in lengths], [b[:k] for k in lengths]


@cache
def _staircase_first_columns(n: int) -> frozenset[Column]:
    """The first columns a[:k] and b[:k] (1 <= k <= n) of the staircases."""
    return frozenset(s[:k] for s in ab_sequences(n) for k in range(1, n + 1))


def staircase_flags(P: list[Column], n: int) -> tuple[bool, bool]:
    """Whether the tableau with columns P has row y constantly a_y, resp. b_y:
    P starts with a staircase first column and equals the staircase columns
    looked up by its column lengths."""
    if P and P[0] not in _staircase_first_columns(n):
        return False, False
    A, B = _staircase_columns(tuple([len(col) for col in P]), n)
    return P == A, P == B


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


def _row_runs(T: Rows, patterns: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]] | None:
    """The run lengths of rows 1-4 of T, row y read against patterns[y - 1]
    (a missing row is empty); None if T has more than 4 rows or a row is not
    runs of its letters in order.  ValueError on an entry above 4."""
    _require_n2(T)
    if len(T) > 4:
        return None
    rows = list(T) + [[]] * (4 - len(T))
    runs = [_run_lengths(row, letters) for row, letters in zip(rows, patterns)]
    return None if None in runs else runs


def n2_family_dominant(T: Rows) -> bool:
    """Closed-form description of the rank-2 dominant tableaux."""
    runs = _row_runs(T, ((1,), (2, 4), (3, 4), (4,)))
    if runs is None:
        return False
    lam, runs3 = shape(T), runs[2]
    return runs3[1] <= part(lam, 1) - part(lam, 2)


def n2_family_khw(T: Rows) -> bool:
    """Closed-form description of the rank-2 highest-weight tableaux."""
    runs = _row_runs(T, ((1, 2), (2, 3), (3, 4), (4,)))
    if runs is None:
        return False
    lam = shape(T)
    l1, l2, l3, l4 = (part(lam, y) for y in range(1, 5))
    p, a = runs[0][0], runs[2][0]
    if runs[1][0] != min(p, l2):
        return False
    if a - l4 > l1 - l2:
        return False
    return min(p, l3) - a <= l2 - max(p, l3)


def _klw_form(T: Rows):
    """Run data (lam, p, q, r) when T matches the lowest-weight row form:
    row 1 all 1s, row 2 = 2^p 3^q 4^r, row 3 = 3^(lam_4) 4^(lam_3 - lam_4),
    row 4 all 4s.  None otherwise; ValueError on an entry above 4."""
    runs = _row_runs(T, ((1,), (2, 3, 4), (3, 4), (4,)))
    if runs is None or runs[2][0] != part(lam := shape(T), 4):
        return None
    return lam, *runs[1]


def n2_family_klw(T: Rows) -> bool:
    """Transcribed closed-form test for rank-2 lowest-weight tableaux.

    Known not to match the lowest set; kept verbatim so the discrepancy is
    visible.  See n2_family_klw_corrected for the exact version.
    """
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
    0 <= (lam_3 - lam_4) - q <= lam_1 - lam_2.  Matches the lowest set on
    every tableau with at most 9 boxes in a 4-row shape (checked
    exhaustively).
    """
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

    Known not to match the lowest set in either direction (e.g. the column
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
