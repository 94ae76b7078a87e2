"""Jeu de taquin, rectification, range restriction, promotion, and the
bijections built from promotion composites.

Skew and ragged tableaux are dicts mapping boxes (x, y) to an entry, with
None marking a hole.  Promotion and its inverse slide on a flat row-major
list of the entries, with per-shape neighbour tables.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from operator import itemgetter, le, lt

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
    if not validate_ssyt(T):
        raise ValueError(f"not a semistandard tableau: {T}")
    cells = restrict(T, a, b, c, d)
    holes = {box: e for box, e in cells_from_rows(T).items() if e < a or b < e < c}
    cells.update(dict.fromkeys(holes))
    return _slide_out(cells, sorted(holes, key=lambda box: (holes[box], box[0]), reverse=True))


@cache
def _tables(lengths: tuple[int, ...]) -> tuple:
    """Tables of the kernels for these row lengths, on row-major cell indices
    and a sentinel index, the box count, for every missing neighbour:
    ((left, above, pr's movers by (x, -y)), (right, below, pr_inv's movers by
    (-x, y)), the row slices, a semistandard test for a straight shape)."""
    starts = [0, *accumulate(lengths)]
    size = starts[-1]
    cells = [(x, y) for y, k in enumerate(lengths) for x in range(k)]
    ends = [*lengths, 0]  # row y + 1 of the last row is empty
    left = [i - 1 if x else size for i, (x, y) in enumerate(cells)]
    above = [starts[y - 1] + x if y and x < ends[y - 1] else size for x, y in cells]
    right = [i + 1 if x + 1 < ends[y] else size for i, (x, y) in enumerate(cells)]
    below = [starts[y + 1] + x if x < ends[y + 1] else size for x, y in cells]
    # Rows weakly (h0 to h1) and columns strictly (v0 to v1) increase from E[0] >= 1.
    (h0, h1), (v0, v1) = _readers(right, size), _readers(below, size)

    def is_ssyt(E: list[int]) -> bool:
        return not E or E[0] >= 1 and all(map(le, h0(E), h1(E))) and all(map(lt, v0(E), v1(E)))

    pr_movers = sorted(range(size), key=lambda i: (cells[i][0], -cells[i][1]))
    pr_inv_movers = sorted(range(size), key=lambda i: (-cells[i][0], cells[i][1]))
    spans = list(zip(starts, starts[1:]))
    return (left, above, pr_movers), (right, below, pr_inv_movers), spans, is_ssyt


def _readers(neighbour: list[int], size: int) -> list:
    """Two functions giving the entries at the cells with a neighbour in the
    table, and at those neighbours, as tuples; the first pair is read twice,
    since itemgetter returns a bare entry for one index."""
    pairs = [(i, j) for i, j in enumerate(neighbour) if j < size]
    return [itemgetter(*side, side[0]) for side in zip(*pairs)] or [lambda E: ()] * 2


def _pr_flat(E: list[int], tables: tuple, a: int, b: int) -> list[int]:
    """pr on the window [a, b] of the row-major entries E of a tableau: each
    b, leftmost first, bottom first in a column, swaps with its larger left
    or above neighbour in [a, b), above on a tie, and becomes a; the other
    in-window entries increase by 1.  W reads 0 for all other entries, the
    settled travelers too, so a later one cannot drag them along.  With no
    b nothing moves, and the image is the shift (E itself when a == b)."""
    if b not in E:
        return [e + 1 if a <= e < b else e for e in E]
    left, above, movers = tables[0]
    W = [e if a <= e < b else 0 for e in E]
    W.append(0)
    for i in movers:
        if E[i] == b:
            while True:
                l, u = left[i], above[i]
                lv, uv = W[l], W[u]
                if lv > uv:
                    W[i], i = lv, l
                elif uv:
                    W[i], i = uv, u
                else:
                    W[i] = 0
                    break
    return [w + 1 if w else a if a <= e <= b else e for w, e in zip(W, E)]


def _pr_inv_flat(E: list[int], tables: tuple, a: int, b: int) -> list[int]:
    """pr_inv on the window [a, b] of the row-major entries E of a tableau:
    each a becomes b and, rightmost first, top first in a column, swaps with
    its smaller right or below neighbour <= b, below on a tie; the other
    in-window entries decrease by 1.  W reads b + 1 for all other entries.
    With no a nothing moves, and the image is the shift (E when a == b)."""
    if a not in E:
        return [e - 1 if a < e <= b else e for e in E]
    right, below, movers = tables[1]
    out = b + 1
    W = [b if e == a else e - 1 if a < e <= b else out for e in E]
    W.append(out)
    for i in movers:
        if E[i] == a:
            while True:
                r, d = right[i], below[i]
                rv, dv = W[r], W[d]
                if rv < dv:
                    W[i], i = rv, r
                elif dv < out:
                    W[i], i = dv, d
                else:
                    W[i] = b
                    break
    return [e if w == out else w for w, e in zip(W, E)]


def _on_rows(kernel, T: Rows, windows: list[tuple[int, int]], name: str) -> list[Rows]:
    """T, then the kernel's image after each window [a, b] in turn, as rows;
    ValueError unless T is semistandard, each window has 1 <= a <= b and
    each image passes the shape's own semistandard test."""
    if not validate_ssyt(T):
        raise ValueError(f"not a semistandard tableau: {T}")
    tables = _tables(tuple(map(len, T)))
    E = [e for row in T for e in row]
    images = [T]
    for a, b in windows:
        if not 1 <= a <= b:
            raise ValueError(f"promotion window [{a}, {b}] needs 1 <= a <= b")
        E = kernel(E, tables, a, b)
        if not tables[3](E):
            raise ValueError(f"{name} broke semistandardness")
        images.append([E[s:t] for s, t in tables[2]])
    return images


def pr_inv(T: Rows, a: int, b: int) -> Rows:
    """Inverse promotion on the letter window [a, b] (see _pr_inv_flat); T
    must be semistandard."""
    return _on_rows(_pr_inv_flat, T, [(a, b)], "inverse promotion")[1]


def pr(T: Rows, a: int, b: int) -> Rows:
    """Promotion on the letter window [a, b] (see _pr_flat); two-sided
    inverse of pr_inv.  T must be semistandard."""
    return _on_rows(_pr_flat, T, [(a, b)], "promotion")[1]


def pr_images(T: Rows, windows: list[tuple[int, int]]) -> list[Rows]:
    """T, then its image under pr on each window in turn: the composite's
    partial products.  T must be semistandard, also with no window."""
    return _on_rows(_pr_flat, T, windows, "promotion")


def _factors(n: int, p: int) -> list[tuple[int, int]]:
    """The windows (k + (k + p) % 2, 2n - k + 1) for k = n, ..., 1, in
    application order, but for the empty window (n + 1, n + 1) that k = n
    gives when n + p is odd."""
    return [(k + (k + p) % 2, 2 * n - k + 1) for k in range(n - (n + p) % 2, 0, -1)]


def phi_factors(n: int) -> list[tuple[int, int]]:
    """Window sequence for phi, in application order (first applied first)."""
    return _factors(n, 1)


def psi_factors(n: int) -> list[tuple[int, int]]:
    """Window sequence for psi, in application order."""
    return _factors(n, 0)


def phi(T: Rows, n: int) -> Rows:
    """The composite promotion carrying dominant tableaux to highest ones."""
    return pr_images(T, phi_factors(n))[-1]


def psi(T: Rows, n: int) -> Rows:
    """The composite promotion carrying dominant tableaux to lowest ones."""
    return pr_images(T, psi_factors(n))[-1]


def res_via_promotion(T: Rows, a: int, b: int, c: int, d: int) -> Rows:
    """Evaluate the two-band restriction through inverse promotions.

    Applies pr_inv on the windows [c-k, d-k+1] for k = 1..c-b-1, restricts
    to the single band [a, b+1+d-c], and shifts the top part back up.
    Defined for entries >= a and c > b only; ValueError otherwise."""
    if c <= b:
        raise ValueError(f"bands [{a}, {b}] and [{c}, {d}] need c > b")
    if any(e < a for row in T for e in row):
        raise ValueError("entries below the lower band")
    windows = [(c - k, d - k + 1) for k in range(1, c - b)]
    U = _on_rows(_pr_inv_flat, T, windows, "inverse promotion")[-1]
    top = b + 1 + d - c
    rows = [[e + (c - b - 1) if e > b else e for e in row if e <= top] for row in U]
    return [row for row in rows if row]
