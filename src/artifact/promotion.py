"""Jeu de taquin, rectification, range restriction, promotion, the bijections
built from promotion composites, and the checks of the relations promotion obeys.

Skew and ragged tableaux are dicts mapping boxes (x, y) to an entry, with
None marking a hole.  Promotion and its inverse slide on the row-major
entries as bytes, with per-shape neighbour tables and per-window byte maps.
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
    """Tables of _slide for these row lengths, on row-major cell indices
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

    def is_ssyt(E: bytes) -> bool:
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


@cache
def _window_maps(a: int, b: int) -> tuple[tuple, tuple]:
    """For pr, then pr_inv: (the shift, the read mask, the traveling letter,
    the letter it settles as).  pr's shift rotates [a, b] ([a, b) up by 1, b
    to a) and its mask reads (a, b] as is; pr_inv's shift is the inverse
    rotation and its mask reads e in [a, b] as b + 1 - e.  Both masks read 0
    for every other letter, the sentinel byte 0 too."""
    w, off = bytes(range(a, b + 1)), bytes(255 - b)
    up = bytes.maketrans(w, w[1:] + w[:1]), bytes(a + 1) + w[1:] + off, b, a
    down = bytes.maketrans(w, w[-1:] + w[:-1]), bytes(a) + bytes(range(len(w), 0, -1)) + off, a, b
    return up, down


def _slide(E: bytes, tables: tuple, a: int, b: int, d: int) -> bytes:
    """pr (d = 0) or pr_inv (d = 1) on the window [a, b] of the row-major
    bytes E of a tableau.  Every letter of [a, b] takes its shift; then each
    traveler (b for pr, a for pr_inv), in the direction's mover order,
    slides to its first neighbour (left for pr, right for pr_inv) if that
    reads larger through the mask than its second (above, below), else to
    its second if that reads nonzero, else settles as the other end of the
    window.  A settled pr traveler reads 0, so no traveler drags it.  With
    no traveler nothing moves, and the image is the shift."""
    shift, mask, t, settled = _window_maps(a, b)[d]
    S = E.translate(shift)
    if t not in E:
        return S
    first, second, movers = tables[d]
    W = bytearray(S + b"\0")
    for i in movers:
        if E[i] == t:
            while True:
                f, s = first[i], second[i]
                fv, sv = mask[W[f]], mask[W[s]]
                if fv > sv:
                    W[i], i = W[f], f
                elif sv:
                    W[i], i = W[s], s
                else:
                    W[i] = settled
                    break
    return bytes(W[:-1])

# The names of _slide's directions d = 0 and 1 in its errors.
_NAMES = ("promotion", "inverse promotion")


def _flat(T: Rows, top: int) -> tuple[tuple, bytes]:
    """The _slide tables of T's shape and T's row-major entries as bytes;
    ValueError unless T is semistandard and its entries and top are <= 254."""
    if not validate_ssyt(T):
        raise ValueError(f"not a semistandard tableau: {T}")
    if max([top, *(row[-1] for row in T)]) > 254:
        raise ValueError("promotion runs on the letters 1 to 254")
    return _tables(tuple(map(len, T))), bytes(e for row in T for e in row)


def _on_rows(d: int, T: Rows, windows: list[tuple[int, int]]) -> list[Rows]:
    """T, then its image under _slide in direction d after each window [a, b]
    in turn, as rows; ValueError as in _flat, or unless 1 <= a <= b and the
    image is semistandard."""
    tables, E = _flat(T, max([b for _, b in windows], default=0))
    images = [T]
    for a, b in windows:
        if not 1 <= a <= b:
            raise ValueError(f"promotion window [{a}, {b}] needs 1 <= a <= b")
        E = _slide(E, tables, a, b, d)
        if not tables[3](E):
            raise ValueError(f"{_NAMES[d]} broke semistandardness")
        images.append([list(E[s:t]) for s, t in tables[2]])
    return images


@cache
def _relation_table(N: int) -> tuple:
    """The windows [a, b] of [1, N], then the families that relations checks on their
    numbers in nested-loop order: roundtrip, every window; involution, (a, a + 1);
    distant, (a, b), (c, d) with c >= b + 2; composition, (a, b), (b, c), (a, c)."""
    windows = tuple((a, b) for a in range(1, N + 1) for b in range(a, N + 1))
    k = {w: i for i, w in enumerate(windows)}
    involution = tuple(k[a, a + 1] for a in range(1, N))
    distant = tuple((v, w) for v, (_, b) in enumerate(windows)
                    for w, (c, _) in enumerate(windows) if c >= b + 2)
    composition = tuple((k[a, b], k[b, c], k[a, c]) for a, b in windows for c in range(b, N + 1))
    return windows, tuple(range(len(windows))), involution, distant, composition


def relations(T: Rows, n: int) -> tuple[int, list[str]]:
    """The check count and failures of the roundtrips, involutivity on adjacent
    windows, commutation of distant windows and composition of overlapping
    windows on one semistandard tableau, by the flat slide, over the K window
    numbers w of _relation_table.  Each distinct image of T gets an id (T's is
    0), compared by the relations; each direction runs once per image i and
    window of two or more letters, memoised at i * K + w (pr and pr_inv fix
    every tableau on a one-letter window), and checks each new image as pr or pr_inv would."""
    tables, E = _flat(T, 2 * n)
    windows, roundtrip, involution, distant, composition = table = _relation_table(2 * n)
    K = len(windows)
    images, ids = [E], {E: 0}

    def interned(d: int):
        memo: dict[int, int] = {}

        def image(i: int, w: int) -> int:
            a, b = windows[w]
            if a == b:
                return i
            if (j := memo.get(key := i * K + w)) is None:
                U = _slide(images[i], tables, a, b, d)
                if (j := ids.get(U)) is None:
                    if not tables[3](U):
                        raise ValueError(f"{_NAMES[d]} broke semistandardness")
                    j = ids[U] = len(images)
                    images.append(U)
                memo[key] = j
            return j

        return image

    pr, pr_inv = interned(0), interned(1)
    up, down = [pr(0, w) for w in roundtrip], [pr_inv(0, w) for w in roundtrip]
    at = "({},{})".format
    failures = [f"pr roundtrip fails at {T} window {at(*windows[w])}" for w in roundtrip
                if pr(down[w], w) or pr_inv(up[w], w)]
    failures += [f"pr_(a,a+1) not an involution at {T}, a={windows[w][0]}" for w in involution
                 if pr(up[w], w)]
    failures += [f"distant windows {at(*windows[v])},{at(*windows[w])} do not commute at {T}"
                 for v, w in distant if pr(up[w], v) != pr(up[v], w)]
    failures += [f"composition {at(*windows[u])}{at(*windows[v])} != {at(*windows[w])} at {T}"
                 for u, v, w in composition if pr(up[v], u) != up[w]]
    return sum(map(len, table[1:])), failures


def pr_inv(T: Rows, a: int, b: int) -> Rows:
    """Inverse promotion on the letter window [a, b] (see _slide); T must be
    semistandard."""
    return _on_rows(1, T, [(a, b)])[1]


def pr(T: Rows, a: int, b: int) -> Rows:
    """Promotion on the letter window [a, b] (see _slide); two-sided inverse
    of pr_inv.  T must be semistandard."""
    return _on_rows(0, T, [(a, b)])[1]


def pr_images(T: Rows, windows: list[tuple[int, int]]) -> list[Rows]:
    """T, then its image under pr on each window in turn: the composite's
    partial products.  T must be semistandard, also with no window."""
    return _on_rows(0, T, windows)


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
    U = _on_rows(1, T, windows)[-1]
    top = b + 1 + d - c
    rows = [[e + (c - b - 1) if e > b else e for e in row if e <= top] for row in U]
    return [row for row in rows if row]
