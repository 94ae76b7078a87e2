"""Tableau and shape helpers that only the tests use."""

import random
from bisect import bisect_right
from collections import Counter

from artifact import branching, characters, crystal, promotion, tableaux
from artifact.branching import _recording, _suc_chain, staircase_flags
from artifact.characters import (
    decompose,
    littlewood_branching,
    restricted_gl_character,
    sp_dimension,
)
from artifact.crystal import column_dominance_violation, wt_ghat, wt_k
from artifact.shapes import Partition, canonical, enumerate_partitions
from artifact.tableaux import (
    Rows,
    column_star,
    columns_of,
    content,
    enumerate_columns,
    freeze,
    rows_of,
    shape,
)
from artifact.verify import ModelRow, SuiteResult, VerificationReport, _tally_key

# Every module-level functools cache of the library, bound at import so
# that the originals can be cleared while a test has monkeypatched their
# names.
SWEEP_CACHES = (
    characters.sp_character,
    characters.skew_lr_count,
    branching._reduced,
    branching._staircase_prefixes,
    crystal._dominance_step,
    promotion._tables,
    tableaux.after,
    tableaux.column_pass,
)


def is_k_highest(T: Rows, n: int) -> bool:
    """True iff P has row y constantly a_y."""
    return staircase_flags(_suc_chain(columns_of(T))[-1], n)[0]


def is_k_lowest(T: Rows, n: int) -> bool:
    """True iff P has row y constantly b_y."""
    return staircase_flags(_suc_chain(columns_of(T))[-1], n)[1]


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


def schensted_insert(m: int, T: Rows) -> Rows:
    """Row-insert m into a copy of the semistandard T (classical bumping)."""
    out = [list(row) for row in T]
    insert_into_rows(m, out)
    return out


def knuth_equivalent(w1, w2) -> bool:
    """Words are Knuth equivalent iff their insertion tableaux coincide."""
    return insertion_tableau(w1) == insertion_tableau(w2)


def column_word(T: Rows) -> list[int]:
    """Read the leftmost column first, each column bottom to top."""
    return [e for col in columns_of(T) for e in reversed(col)]


def berele_insertion(word) -> Rows:
    """Berele's symplectic insertion of the word (A. Berele, J. Combin.
    Theory A 43, 1986), in King's alphabet: 2k - 1 is k and 2k is k-bar.
    Each letter is row-inserted, bumping the leftmost entry greater than it,
    except that where x = 2i - 1 would bump y = 2i from row i, x takes y's
    place, box (1, i) is emptied, the hole slides out by jeu de taquin (the
    smaller of its right and lower neighbours moves in, the lower one on a
    tie) and the letter's insertion stops."""
    T: Rows = []
    for x in word:
        for i, row in enumerate(T, start=1):
            j = bisect_right(row, x)
            if j == len(row):
                row.append(x)
                break
            if x == 2 * i - 1 and row[j] == 2 * i:
                row[j] = x
                _slide_out_hole(T, i - 1, 0)
                break
            row[j], x = x, row[j]
        else:
            T.append([x])
    return T


def _slide_out_hole(T: Rows, r: int, c: int) -> None:
    """Slide out the hole at row r, column c (0-based) of T in place, and
    delete the box where it stops."""
    while True:
        right = T[r][c + 1] if c + 1 < len(T[r]) else None
        below = T[r + 1][c] if r + 1 < len(T) and c < len(T[r + 1]) else None
        if right is None and below is None:
            del T[r][c]
            if not T[r]:
                del T[r]
            return
        if below is None or (right is not None and right < below):
            T[r][c], c = right, c + 1
        else:
            T[r][c], r = below, r + 1


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


def verify_shape_reference(lam: Partition, n: int) -> VerificationReport:
    """The former body of verify.verify_shape: one dominance test and one suc
    chain per tableau, on the one walk of enumerate_columns; elapsed is 0."""
    dominant, highest, lowest = [], [], []
    total = 0
    for cols in enumerate_columns(lam, 2 * n):
        total += 1
        if column_dominance_violation(cols, n) is None:
            dominant.append(rows_of(cols))
        P = _suc_chain(cols)[-1]
        is_highest, is_lowest = staircase_flags(P, n)
        if is_highest:
            highest.append((rows_of(cols), rows_of(P)))
        if is_lowest:
            lowest.append((rows_of(cols), rows_of(P)))
    oracle = littlewood_branching(lam, n)
    tallies = [
        Counter(_tally_key(wt_ghat(T, n)) for T in dominant),
        Counter(_tally_key(wt_k(T, n)) for T, _ in highest),
        Counter(shape(P) for _, P in lowest),
        Counter(shape(P) for _, P in highest),
        Counter(oracle),
    ]
    rows = [ModelRow(mu, *(tally[mu] for tally in tallies)) for mu in sorted(set().union(*tallies))]
    sp_dim_sum = sum(m * sp_dimension(mu, n) for mu, m in oracle.items())
    return VerificationReport(n, lam, rows, total, sp_dim_sum, dominant, highest, lowest)


def promotion_relations_reference(T: Rows, n: int) -> SuiteResult:
    """The former body of verify.promotion_relations, calling the kernels
    that promotion binds: every relation runs the kernels on flat lists,
    and an image is checked to be semistandard on the first level, on a
    commutation's left side and wherever its relation fails."""
    if not tableaux.validate_ssyt(T):
        raise ValueError(f"not a semistandard tableau: {T}")
    tables = promotion._tables(tuple(map(len, T)))
    is_ssyt = tables[3]
    pr, pr_inv = promotion._pr_flat, promotion._pr_inv_flat

    def differs(U: list[int], V: list[int], name: str = "promotion") -> bool:
        if U == V:
            return False
        if not is_ssyt(U):
            raise ValueError(f"{name} broke semistandardness")
        return True

    out = SuiteResult()
    N = 2 * n
    windows = [(a, b) for a in range(1, N + 1) for b in range(a, N + 1)]
    E = [e for row in T for e in row]
    up = {w: pr(E, tables, *w) for w in windows}
    down = {w: pr_inv(E, tables, *w) for w in windows}
    if not all(map(is_ssyt, up.values())):
        raise ValueError("promotion broke semistandardness")
    if not all(map(is_ssyt, down.values())):
        raise ValueError("inverse promotion broke semistandardness")
    for a, b in windows:
        out.checked += 1
        if differs(pr(down[a, b], tables, a, b), E) or differs(
            pr_inv(up[a, b], tables, a, b), E, "inverse promotion"
        ):
            out.failures.append(f"pr roundtrip fails at {T} window ({a},{b})")
    for a in range(1, N):
        out.checked += 1
        if differs(pr(up[a, a + 1], tables, a, a + 1), E):
            out.failures.append(f"pr_(a,a+1) not an involution at {T}, a={a}")
    for a, b in windows:
        for c in range(b + 2, N + 1):
            for d in range(c, N + 1):
                out.checked += 1
                left = pr(up[c, d], tables, a, b)
                if not is_ssyt(left):
                    raise ValueError("promotion broke semistandardness")
                if differs(pr(up[a, b], tables, c, d), left):
                    out.failures.append(
                        f"distant windows ({a},{b}),({c},{d}) do not commute at {T}"
                    )
    for a in range(1, N + 1):
        for b in range(a, N + 1):
            for c in range(b, N + 1):
                out.checked += 1
                if differs(pr(up[b, c], tables, a, b), up[a, c]):
                    out.failures.append(
                        f"composition ({a},{b})({b},{c}) != ({a},{c}) at {T}"
                    )
    return out
