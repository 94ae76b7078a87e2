"""Jeu de taquin, rectification, range restriction, promotion, and the
bijections built from promotion composites.

Skew and ragged tableaux are dicts mapping boxes (x, y) to an entry, with
None marking a hole; promotion and its inverse slide on the rows directly.
"""

from __future__ import annotations

from .tableaux import Rows, validate_ssyt

Cells = dict[tuple[int, int], int | None]


def cells_from_rows(T: Rows) -> Cells:
    return {(x, y): e for y, row in enumerate(T, start=1) for x, e in enumerate(row, start=1)}


def rows_from_cells(cells: Cells) -> Rows:
    """Convert a straight-shape support back to rows in one pass over the
    cells; reject ragged supports."""
    by_row: dict[int, dict[int, int | None]] = {}
    for (x, y), e in cells.items():
        by_row.setdefault(y, {})[x] = e
    if min(by_row, default=1) < 1:
        raise ValueError("support has a row index below 1")
    rows: Rows = []
    for y in range(1, max(by_row, default=0) + 1):
        row = by_row.get(y, {})
        if not all(x in row for x in range(1, len(row) + 1)):
            raise ValueError("support is not left-justified")
        rows.append([row[x] for x in range(1, len(row) + 1)])
    if any(len(above) < len(row) for above, row in zip(rows, rows[1:])):
        raise ValueError("support is not a partition shape")
    if any(e is None for row in rows for e in row):
        raise ValueError("holes remain")
    return rows


def _slide_forward(cells: Cells, start: tuple[int, int]) -> tuple[int, int]:
    """Slide the box at start toward the outside, mutating cells in place.

    At each step the traveling box swaps with its right or below neighbor;
    with both present it moves right iff the right entry is strictly
    smaller, otherwise down.  Holes (None) never get swapped into; the box
    rests when no real neighbor remains.  Returns the final box.
    """
    x, y = start
    while True:
        rv = cells.get((x + 1, y))
        bv = cells.get((x, y + 1))
        if rv is None and bv is None:
            return (x, y)
        if rv is not None and bv is not None:
            go_right = rv < bv
        else:
            go_right = rv is not None
        nxt = (x + 1, y) if go_right else (x, y + 1)
        cells[(x, y)], cells[nxt] = cells[nxt], cells[(x, y)]
        x, y = nxt


def jdt_slide(cells: Cells, start: tuple[int, int]) -> Cells:
    """Jeu-de-taquin slide of the box at start; support is unchanged."""
    if start not in cells:
        raise ValueError(f"start {start} outside support")
    out = dict(cells)
    _slide_forward(out, start)
    return out


def restrict(T: Rows, a: int, b: int, c: int, d: int) -> Cells:
    """Remove boxes whose entry lies outside [a, b] union [c, d]."""
    if not a <= b <= c <= d:
        raise ValueError("bands must satisfy a <= b <= c <= d")
    return {
        box: e
        for box, e in cells_from_rows(T).items()
        if a <= e <= b or c <= e <= d
    }


def _slide_out(cells: Cells, holes) -> Rows:
    """Slide out each hole in the given order and delete the box where it
    stops, mutating cells; return the rows that remain."""
    for box in holes:
        del cells[_slide_forward(cells, box)]
    return rows_from_cells(cells)


def rect(cells: Cells) -> Rows:
    """Rectify: slide the holes out bottom row first, right to left.

    Defined when the entries fill a skew shape lam/mu and the holes are the
    boxes of mu, plus any boxes outside lam, which are deleted where they
    stand; for example, the boxes of a straight tableau whose entries lie
    outside a window [a, b].  In this order each hole of mu is a corner when
    its turn comes, and the result is the rectification of the skew tableau.
    """
    holes = [box for box, e in cells.items() if e is None]
    return _slide_out(dict(cells), sorted(holes, key=lambda box: (box[1], box[0]), reverse=True))


def res(T: Rows, a: int, b: int, c: int, d: int) -> Rows:
    """Rectification of the restriction of T to [a, b] union [c, d].

    Boxes with entries below a or strictly between the bands become holes;
    entries above d are dropped.  The holes need not be an order ideal: they
    slide out by decreasing entry, rightmost first among equals, so no hole
    is left to the right of or below the one sliding.
    """
    cells = restrict(T, a, b, c, d)
    holes = {box: e for box, e in cells_from_rows(T).items() if e < a or b < e < c}
    cells.update(dict.fromkeys(holes))
    return _slide_out(cells, sorted(holes, key=lambda box: (holes[box], box[0]), reverse=True))


def _check_window(a: int, b: int) -> None:
    if not 1 <= a <= b:
        raise ValueError(f"promotion window [{a}, {b}] needs 1 <= a <= b")


def pr_inv(T: Rows, a: int, b: int) -> Rows:
    """Inverse promotion on the letter window [a, b]; T must be semistandard.

    Entries a become b and slide outward, rightmost first; the other
    in-window entries decrease by 1.  Out-of-window boxes are untouched.
    After the shift the in-window entries are exactly the ones <= b to the
    right of or below an in-window box, so a traveler swaps with such a
    neighbor: the smaller one, below on a tie.
    """
    _check_window(a, b)
    U = [list(row) for row in T]
    if a == b:
        return U
    movers = []
    for y, row in enumerate(U):
        for x, e in enumerate(row):
            if e == a:
                row[x] = b
                movers.append((x, y))
            elif a < e <= b:
                row[x] = e - 1
    movers.sort(key=lambda box: (-box[0], box[1]))
    for x, y in movers:
        while True:
            row = U[y]
            below = U[y + 1] if y + 1 < len(U) else ()
            rv = row[x + 1] if x + 1 < len(row) and row[x + 1] <= b else None
            bv = below[x] if x < len(below) and below[x] <= b else None
            if rv is not None and (bv is None or rv < bv):
                row[x] = rv
                x += 1
            elif bv is not None:
                row[x] = bv
                y += 1
            else:
                row[x] = b
                break
    if not validate_ssyt(U):
        raise ValueError("inverse promotion broke semistandardness")
    return U


def pr(T: Rows, a: int, b: int) -> Rows:
    """Promotion on the letter window [a, b]; two-sided inverse of pr_inv.
    T must be semistandard: the result is unspecified otherwise.

    Entries b slide inward, leftmost first, and become a; the other
    in-window entries increase by 1.  The in-window entries are exactly the
    ones >= a to the left of or above an in-window box, so a traveler swaps
    with a neighbor in [a, b): the larger one, above on a tie.  A b that
    already settled is no target, so a later traveler cannot drag it along.
    """
    _check_window(a, b)
    U = [list(row) for row in T]
    if a == b:
        return U
    movers = [(x, y) for y, row in enumerate(U) for x, e in enumerate(row) if e == b]
    movers.sort(key=lambda box: (box[0], -box[1]))
    for x, y in movers:
        while True:
            row = U[y]
            above = U[y - 1] if y else ()
            lv = row[x - 1] if x and a <= row[x - 1] < b else None
            av = above[x] if x < len(above) and a <= above[x] < b else None
            if lv is not None and (av is None or lv > av):
                row[x] = lv
                x -= 1
            elif av is not None:
                row[x] = av
                y -= 1
            else:
                row[x] = b
                break
    for row in U:
        for x, e in enumerate(row):
            if a <= e <= b:
                row[x] = a if e == b else e + 1
    if not validate_ssyt(U):
        raise ValueError("promotion broke semistandardness")
    return U


def phi_factors(n: int) -> list[tuple[int, int]]:
    """Window sequence for phi, in application order (first applied first)."""
    factors: list[tuple[int, int]] = []
    if n % 2 == 1:
        factors.append((n, n + 1))
    for k in range(n - 1, 0, -1):
        bar = 2 * n - k + 1
        factors.append((k + 1, bar) if k % 2 == 0 else (k, bar))
    return factors


def psi_factors(n: int) -> list[tuple[int, int]]:
    """Window sequence for psi, in application order."""
    factors: list[tuple[int, int]] = []
    if n % 2 == 0:
        factors.append((n, n + 1))
    for k in range(n - 1, 0, -1):
        bar = 2 * n - k + 1
        factors.append((k, bar) if k % 2 == 0 else (k + 1, bar))
    return factors


def phi(T: Rows, n: int) -> Rows:
    """The composite promotion carrying dominant tableaux to highest ones."""
    for a, b in phi_factors(n):
        T = pr(T, a, b)
    return T


def psi(T: Rows, n: int) -> Rows:
    """The composite promotion carrying dominant tableaux to lowest ones."""
    for a, b in psi_factors(n):
        T = pr(T, a, b)
    return T


def res_via_promotion(T: Rows, a: int, b: int, c: int, d: int) -> Rows:
    """Evaluate the two-band restriction through inverse promotions.

    Applies pr_inv on the windows [c-k, d-k+1] for k = 1..c-b-1, restricts
    to the single band [a, b+1+d-c], and shifts the top part back up.
    Defined for entries >= a and c > b only; ValueError otherwise."""
    if c <= b:
        raise ValueError(f"bands [{a}, {b}] and [{c}, {d}] need c > b")
    if any(e < a for row in T for e in row):
        raise ValueError("entries below the lower band")
    U = [list(row) for row in T]
    for k in range(1, c - b):
        U = pr_inv(U, c - k, d - k + 1)
    top = b + 1 + d - c
    kept = restrict(U, a, top, top, top)
    rows = rows_from_cells(kept)
    return [[e + (c - b - 1) if e > b else e for e in row] for row in rows]


def skew_row_word(cells: Cells) -> list[int]:
    """Row word of the non-hole entries: bottom row first, left to right."""
    entries = [(y, x, e) for (x, y), e in cells.items() if e is not None]
    entries.sort(key=lambda t: (-t[0], t[1]))
    return [e for _, _, e in entries]
