"""Column reduction, the P/Q correspondence, and highest/lowest weight tests.

The suc chain [T, suc(T), ..., P] is computed on strictly increasing column
tuples; the public functions take rows, validate them once and convert them
to columns.  The recording object Q maps each box (x, y) to the step of the
chain at which the box disappeared from the shape.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache

from .crystal import (
    ab_sequences,
    tableau_e,
    tableau_e_max,
    tableau_f,
    tableau_f_max,
    tableau_phi,
)
from .shapes import Partition, canonical, conjugate, part
from .tableaux import (
    Column,
    Rows,
    after,
    chains,
    column_pass,
    column_product,
    columns_of,
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


def _reinserted(col: Column) -> Column | None:
    """What suc column-inserts back from a first column col: col without its
    removable entries, or None when nothing is removable.  Then suc(T) =
    C * rest = T for every T with first column col: T is its own P."""
    kept = _reduced(col)
    return None if len(kept) == len(col) else kept


def _suc_chain(cols: list[Column]) -> list[list[Column]]:
    """The suc orbit of semistandard columns, unchecked: [T, suc(T), ..., P]
    up to the first fixed point P; RuntimeError if P takes more than
    |T| + 1 steps."""
    chain = [cols]
    for _ in range(sum(map(len, cols)) + 2):
        if not cols or (kept := _reinserted(cols[0])) is None:
            return chain
        cols = column_product(kept, cols[1:])
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


def _constant_rows(mu: Partition, letters: tuple[int, ...]) -> Rows:
    """Rows of shape mu with row y filled with letters[y - 1]; ValueError if
    mu has more rows than there are letters."""
    mu = canonical(mu)
    if len(mu) > len(letters):
        raise ValueError(f"mu has more than {len(letters)} rows")
    return [[letter] * m for letter, m in zip(letters, mu)]


def a_staircase(mu: Partition, n: int) -> Rows:
    """Tableau of shape mu with row y filled with a_y."""
    return _constant_rows(mu, ab_sequences(n)[0])


def b_staircase(mu: Partition, n: int) -> Rows:
    """Tableau of shape mu with row y filled with b_y."""
    return _constant_rows(mu, ab_sequences(n)[1])


@cache
def _staircase_prefixes(n: int) -> tuple[frozenset[Column], frozenset[Column]]:
    """The columns a[:k], and the columns b[:k], for 1 <= k <= n."""
    return tuple(frozenset(s[:k] for k in range(1, n + 1)) for s in ab_sequences(n))


def staircase_flags(P: list[Column], n: int) -> tuple[bool, bool]:
    """Whether the tableau with columns P has row y constantly a_y, resp. b_y:
    whether every column of P is a prefix of a, resp. b, of at most n
    entries.  The empty P is both."""
    A, B = _staircase_prefixes(n)
    return A.issuperset(P), B.issuperset(P)


def _chain_step(state: tuple, col: Column, prefixes: tuple) -> tuple | None:
    """The suc chain's state after T's next column col (() past T's end), or
    None once P can be neither staircase.  state: the entries in flight
    toward each level's next column, whether the last level is P, whether
    P's columns so far are all a-prefixes, resp. b-prefixes, and the column
    this step gave P, or ().  Each level passes col, after one column_pass,
    to the next; the last level's first column makes it P or starts a level."""
    flights, is_p, hi, lo, _ = state
    moved = []
    for entries in flights:
        col, entries = column_pass(col, entries)
        moved.append(entries)
    if not is_p and (kept := _reinserted(col)) is not None:
        return (*moved, kept), False, True, True, ()
    hi, lo = hi and col in prefixes[0], lo and col in prefixes[1]
    return (tuple(moved), True, hi, lo, col) if hi or lo else None


def staircase_search(lam: Partition, n: int) -> Iterator[tuple]:
    """(T, P, is_a, is_b) as column lists for the T of enumerate_columns(lam,
    2n), in order, whose P is a staircase: chains of (column, _chain_step
    state) nodes over after, each finished by feeding () while an entry is in
    flight, after which a last level not yet P is the empty P; RuntimeError
    past |T| + 1 levels."""
    prefixes = _staircase_prefixes(n)

    def children(node: tuple, k: int) -> list[tuple]:
        left, state = node
        return [
            (col, s) for col in after(left, k, 2 * n) if (s := _chain_step(state, col, prefixes))
        ]

    root = ((), ((), False, True, True, ()))
    for chain in chains(conjugate(canonical(lam)), children, root):
        T, states = [col for col, _ in chain], [s for _, s in [root, *chain]]
        while (state := states[-1]) and any(state[0]):
            if len(state[0]) > sum(map(len, T)) + 1:
                raise RuntimeError("suc did not stabilize within the size budget")
            states.append(_chain_step(state, (), prefixes))
        if state:
            yield T, [s[4] for s in states if s[4]], state[2], state[3]


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
