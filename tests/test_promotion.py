"""Jeu de taquin, rectification, restriction, and window promotion."""

import importlib
import pkgutil
import random
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

import artifact
from artifact import promotion, verify
from artifact.promotion import (
    cells_from_rows,
    jdt_slide,
    phi,
    phi_factors,
    pr,
    pr_images,
    pr_inv,
    psi,
    psi_factors,
    rect,
    res,
    res_via_promotion,
    restrict,
    rows_from_cells,
)
from artifact.shapes import enumerate_partitions
from artifact.tableaux import enumerate_ssyt, row_word, validate_ssyt
from artifact.verify import random_ssyt
from helpers import (
    SWEEP_CACHES,
    insertion_tableau,
    pr_flat_reference,
    pr_inv_flat_reference,
    promotion_relations_reference,
    random_shape,
    skew_row_word,
)

# The slide itself, for the faults and recorders that the tests bind in its place.
SLIDE = promotion._slide


def test_cells_rows_roundtrip():
    T = [[1, 2, 2], [3]]
    assert rows_from_cells(cells_from_rows(T)) == T
    assert rows_from_cells({}) == []


def test_rows_from_cells_rejects_bad_supports():
    with pytest.raises(ValueError):
        rows_from_cells({(2, 1): 1})                     # not left-justified
    with pytest.raises(ValueError):
        rows_from_cells({(1, 1): 1, (1, 2): 2, (2, 2): 3})  # not a partition
    with pytest.raises(ValueError):
        rows_from_cells({(1, 1): None})                  # leftover hole
    with pytest.raises(ValueError):
        rows_from_cells({(1, 0): 5, (1, 1): 1})          # row above row 1


def test_jdt_tie_goes_down():
    cells = {(1, 1): None, (2, 1): 2, (1, 2): 2}
    out = jdt_slide(cells, (1, 1))
    assert out[(1, 2)] is None
    assert out[(1, 1)] == 2
    assert set(out) == set(cells)


def test_jdt_slide_rejects_outside_start():
    with pytest.raises(ValueError):
        jdt_slide({(1, 1): 1}, (5, 5))


def test_res_golden():
    T = [[1, 2, 2, 3], [4, 5, 6], [6, 6]]
    assert res(T, 1, 2, 5, 6) == [[1, 2, 2], [5, 6, 6], [6]]
    assert res(T, 1, 6, 6, 6) == T
    # Holes on both sides of a kept entry, and a kept 4 below and right of a kept 1.
    assert res([[1, 2, 3, 4]], 2, 2, 4, 4) == [[2, 4]]
    assert res([[1], [2], [3], [4]], 2, 2, 4, 4) == [[2], [4]]
    assert res([[1, 2], [3, 4]], 1, 1, 4, 4) == [[1], [4]]
    with pytest.raises(ValueError):
        res(T, 3, 2, 5, 6)


def _res_reference(T, a, b, c, d):
    """The former body of res: its own band check and band filter."""
    if not a <= b <= c <= d:
        raise ValueError("bands must satisfy a <= b <= c <= d")
    cells = {}
    for box, e in cells_from_rows(T).items():
        if a <= e <= b or c <= e <= d:
            cells[box] = e
        elif e < a or b < e < c:
            cells[box] = None
    return rect(cells)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_res_matches_reference_on_every_band():
    """The former body where the bands are at most one letter apart.  With a
    gap of two or more its hole order fails (27 of these inputs), so there
    res must return.  Wherever c > b, res matches the promotion route where
    that returns; at c = b the route is outside its domain and raises."""
    bands = list(combinations_with_replacement(range(1, 6), 4))
    for lam in enumerate_partitions(4, 5):
        for T in enumerate_ssyt(lam, 5):
            for band in bands:
                gap = band[2] - band[1]
                if gap <= 1:
                    assert _outcome(res, T, *band) == _outcome(_res_reference, T, *band), (T, band)
                if gap == 0:
                    with pytest.raises(ValueError, match="need c > b"):
                        res_via_promotion(T, *band)
                    continue
                out = _outcome(res, T, *band)
                via = _outcome(res_via_promotion, T, *band)
                assert not isinstance(out, str) or gap == 1, (T, band)
                assert isinstance(via, str) or out == via, (T, band)


def _rect_reference(cells, rng=None):
    """The former body of rect: slide out the topmost, then leftmost, corner
    hole (with rng, a random corner hole), re-found after every slide."""
    work = dict(cells)
    while True:
        holes = [box for box, e in work.items() if e is None]
        if not holes:
            break
        corners = [
            (x, y)
            for x, y in holes
            if work.get((x + 1, y), 0) is not None and work.get((x, y + 1), 0) is not None
        ]
        if not corners:
            raise ValueError("holes remain but none is a corner")
        if rng is None:
            start = min(corners, key=lambda box: (box[1], box[0]))
        else:
            start = corners[rng.randrange(len(corners))]
        del work[_slide_forward_reference(work, *start)]
    return rows_from_cells(work)


def test_rect_matches_its_former_body_on_every_window():
    """Every tableau over [1, 5] with at most 5 boxes, its entries outside a
    window [a, b] made holes: an order ideal below a and an outer rim above b."""
    windows = [(a, b) for a in range(1, 6) for b in range(a, 6)]
    checked = 0
    for lam in enumerate_partitions(5, 5):
        for T in enumerate_ssyt(lam, 5):
            for a, b in windows:
                cells = {box: (e if a <= e <= b else None) for box, e in cells_from_rows(T).items()}
                assert _outcome(rect, cells) == _outcome(_rect_reference, cells), (T, a, b)
                checked += 1
    assert checked == 17130


def test_rect_equals_insertion_of_reading_word():
    rng = random.Random(5)
    for _ in range(150):
        T = random_ssyt(random_shape(8, 6, rng), 6, rng)
        a = rng.randint(1, 6)
        cells = {box: (None if e < a else e) for box, e in cells_from_rows(T).items()}
        assert rect(cells) == insertion_tableau(skew_row_word(cells))


def test_rect_is_order_independent():
    rng = random.Random(17)
    for _ in range(100):
        T = random_ssyt(random_shape(8, 6, rng), 6, rng)
        a = rng.randint(2, 5)
        b = rng.randint(a, 5)
        cells = {box: (e if a <= e <= b else None) for box, e in cells_from_rows(T).items()}
        canonical_result = rect(cells)
        for _ in range(3):
            assert _rect_reference(cells, rng) == canonical_result


def _slide_forward_reference(cells, x, y):
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


def _slide_reverse_reference(cells, x, y, blocked):
    while True:
        lv = cells.get((x - 1, y))
        av = cells.get((x, y - 1))
        lv = None if lv == blocked else lv
        av = None if av == blocked else av
        if lv is None and av is None:
            return
        if lv is not None and av is not None:
            go_left = lv > av
        else:
            go_left = lv is not None
        nxt = (x - 1, y) if go_left else (x, y - 1)
        cells[(x, y)], cells[nxt] = cells[nxt], cells[(x, y)]
        x, y = nxt


def _pr_inv_reference(T, a, b):
    """Reference pr_inv: slides on a dict of the in-window cells."""
    if a == b:
        return [list(row) for row in T]
    full = cells_from_rows(T)
    window = {box for box, e in full.items() if a <= e <= b}
    work = {}
    movers = []
    for box in window:
        if full[box] == a:
            work[box] = b
            movers.append(box)
        else:
            work[box] = full[box] - 1
    movers.sort(key=lambda box: (-box[0], box[1]))
    for box in movers:
        _slide_forward_reference(work, *box)
    out = dict(full)
    out.update(work)
    result = [[out[x, y] for x in range(1, len(row) + 1)] for y, row in enumerate(T, start=1)]
    if not validate_ssyt(result):
        raise ValueError("inverse promotion broke semistandardness")
    return result


def _pr_reference(T, a, b):
    """Reference pr: slides on a dict of the in-window cells, skipping settled b's."""
    if a == b:
        return [list(row) for row in T]
    full = cells_from_rows(T)
    window = {box for box, e in full.items() if a <= e <= b}
    work = {box: full[box] for box in window}
    movers = [box for box in window if full[box] == b]
    movers.sort(key=lambda box: (box[0], -box[1]))
    for box in movers:
        _slide_reverse_reference(work, *box, blocked=b)
    for box in work:
        work[box] = a if work[box] == b else work[box] + 1
    out = dict(full)
    out.update(work)
    result = [[out[x, y] for x in range(1, len(row) + 1)] for y, row in enumerate(T, start=1)]
    if not validate_ssyt(result):
        raise ValueError("promotion broke semistandardness")
    return result


def _assert_matches_reference(T, m):
    for a in range(1, m + 1):
        for b in range(a, m + 1):
            assert pr(T, a, b) == _pr_reference(T, a, b), (T, a, b)
            assert pr_inv(T, a, b) == _pr_inv_reference(T, a, b), (T, a, b)


@pytest.mark.parametrize("m", [4, 6])
def test_promotion_matches_reference_exhaustively(m):
    for lam in enumerate_partitions(5, m):
        for T in enumerate_ssyt(lam, m):
            _assert_matches_reference(T, m)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_promotion_matches_reference_rank4(seed):
    rng = random.Random(seed)
    _assert_matches_reference(random_ssyt(random_shape(10, 8, rng), 8, rng), 8)


def test_promotion_golden():
    T = [[1, 2, 3], [2, 4], [4]]
    U = [[1, 2, 4], [3, 3], [4]]
    assert pr_inv(T, 2, 4) == U
    assert pr(U, 2, 4) == T


def test_promotion_trivial_window():
    T = [[1, 2], [3]]
    assert pr(T, 2, 2) == T
    assert pr_inv(T, 3, 3) == T


def test_promotion_rejects_bad_windows():
    T = [[1, 2], [3]]
    for a, b in [(3, 2), (0, 2), (0, 0), (-1, 3)]:
        with pytest.raises(ValueError, match="window"):
            pr(T, a, b)
        with pytest.raises(ValueError, match="window"):
            pr_inv(T, a, b)


def test_promotion_of_a_ragged_grid_raises_value_error():
    for op in (pr, pr_inv):
        with pytest.raises(ValueError):
            op([[1], [1, 2]], 1, 2)


@pytest.mark.parametrize("T", [[[2, 1]], [[1], [1]], [[1], [1, 2]]], ids=["row", "column", "ragged"])
def test_promotion_checks_its_input(T):
    """Each entry point rejects a non-semistandard T before any kernel runs,
    psi(T, 1) too, whose window list is empty."""
    calls = [
        (pr, (1, 2)),
        (pr_inv, (1, 2)),
        (res, (1, 2, 2, 2)),
        (phi, (1,)),
        (psi, (1,)),
        (res_via_promotion, (1, 1, 2, 2)),
    ]
    for op, args in calls:
        with pytest.raises(ValueError, match=r"^not a semistandard tableau: \["):
            op(T, *args)


def test_promotion_relations_reject_non_semistandard_input():
    for T in ([[2, 1]], [[1], [1]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="not a semistandard tableau"):
            verify.promotion_relations(T, 2)


def test_promotion_relations_catch_a_faulty_pr(monkeypatch):
    # A memo of the first-level images must leave every relation family
    # evaluated on real values: a kernel that is wrong on the one window
    # (1, 2) has to trip all four, with the check count unchanged.
    T = [[1, 2, 3], [2, 4], [5]]
    good = verify.promotion_relations(T, 3)
    assert good.passed and good.checked == 117
    slide = promotion._slide

    def faulty_pr(E, tables, a, b, d):
        return slide(E, tables, 1, 5, d) if (a, b, d) == (1, 2, 0) else slide(E, tables, a, b, d)

    monkeypatch.setattr(promotion, "_slide", faulty_pr)
    bad = verify.promotion_relations(T, 3)
    assert bad.checked == 117
    for kind in ("pr roundtrip fails", "not an involution", "do not commute", "composition"):
        assert any(kind in failure for failure in bad.failures), kind


@pytest.mark.parametrize(
    "source, window",
    [(None, (1, 2)), ((4, 6), (1, 2)), ((2, 6), (1, 2))],
    ids=["first-level", "commutation", "composition"],
)
def test_promotion_relations_check_the_images(monkeypatch, source, window):
    """A slide whose pr image, on window, of T (source None) or of T's pr
    image on source is all zeros.  Only the first level, resp. the commutation
    (c - b >= 2) or the composition family, computes that image, and the
    suite must raise as pr would."""
    T = [[1, 2, 3], [2, 4], [5]]
    E = bytes([1, 2, 3, 2, 4, 5])
    slide = promotion._slide
    tables = promotion._tables((3, 2, 1))
    target = E if source is None else slide(E, tables, *source, 0)
    windows = list(combinations_with_replacement(range(1, 7), 2))
    images = [slide(E, tables, *w, d) for d in (0, 1) for w in windows]
    assert source is None or images.count(target) == 1

    def faulty_pr(U, tables, a, b, d):
        if (U, (a, b), d) == (target, window, 0):
            return bytes(len(U))
        return slide(U, tables, a, b, d)

    monkeypatch.setattr(promotion, "_slide", faulty_pr)
    with pytest.raises(ValueError, match="^promotion broke semistandardness$"):
        verify.promotion_relations(T, 3)


def test_promotion_relations_run_each_kernel_input_once(monkeypatch, cold_caches):
    """Each image of T is computed once per direction and window: no
    (direction, entries, a, b) input repeats within one call, none has a
    one-letter window, which is answered with the image's own id, and the
    check count stays 38 at n = 2 and 117 at n = 3.  A second call on T
    gives the same result, and the only library caches that grow are
    promotion._tables, by one entry per new shape,
    promotion._window_maps, by one entry per window not seen before, and
    promotion._relation_table, by one entry per new alphabet."""
    inputs = []

    def recorded(E, tables, a, b, d):
        inputs.append((d, tuple(E), a, b))
        return SLIDE(E, tables, a, b, d)

    monkeypatch.setattr(promotion, "_slide", recorded)
    rng = random.Random(7)
    cases = [(T, 2) for lam in enumerate_partitions(3, 4) for T in enumerate_ssyt(lam, 4)]
    cases += [(random_ssyt(random_shape(8, 6, rng), 6, rng), 3) for _ in range(20)]
    shapes, windows, alphabets = set(), set(), set()
    for T, n in cases:
        sizes = [cached.cache_info().currsize for cached in SWEEP_CACHES]
        inputs.clear()
        first = verify.promotion_relations(T, n)
        assert len(set(inputs)) == len(inputs), T
        assert all(a < b for _, _, a, b in inputs), T
        assert first.checked == {2: 38, 3: 117}[n], T
        second = verify.promotion_relations(T, n)
        assert (second.checked, second.failures) == (first.checked, first.failures), T
        new = {
            promotion._tables: int(tuple(map(len, T)) not in shapes),
            promotion._window_maps: len({(a, b) for _, _, a, b in inputs} - windows),
            promotion._relation_table: int(2 * n not in alphabets),
        }
        shapes.add(tuple(map(len, T)))
        alphabets.add(2 * n)
        windows.update((a, b) for _, _, a, b in inputs)
        grown = [cached.cache_info().currsize - k for cached, k in zip(SWEEP_CACHES, sizes)]
        assert grown == [new.get(cached, 0) for cached in SWEEP_CACHES], T


def test_the_relation_table_is_the_former_loops():
    """_relation_table(N) numbers the windows and lists each family in the order
    of promotion_relations' former nested loops, so the kernels run and the
    failures come in the same order; the check counts stay 38 at n = 2 and
    117 at n = 3."""
    for N in range(2, 13, 2):
        windows = [(a, b) for a in range(1, N + 1) for b in range(a, N + 1)]
        distant = [
            ((a, b), (c, d)) for a, b in windows for c in range(b + 2, N + 1) for d in range(c, N + 1)
        ]
        composition = [
            ((a, b), (b, c), (a, c))
            for a in range(1, N + 1)
            for b in range(a, N + 1)
            for c in range(b, N + 1)
        ]
        table = promotion._relation_table(N)
        assert list(table[0]) == windows, N
        assert [windows[w] for w in table[1]] == windows, N
        assert [windows[w] for w in table[2]] == [(a, a + 1) for a in range(1, N)], N
        assert [(windows[v], windows[w]) for v, w in table[3]] == distant, N
        assert [tuple(windows[w] for w in t) for t in table[4]] == composition, N
    assert [sum(map(len, promotion._relation_table(2 * n)[1:])) for n in (2, 3)] == [38, 117]


def test_only_promotion_binds_its_byte_images():
    """The slide, its tables and its flat form are promotion's alone, so one
    patch of promotion._slide reaches every caller: no other artifact module
    binds those names, or any other private name of promotion."""
    private = {
        id(value)
        for name, value in vars(promotion).items()
        if name.startswith("_") and not name.startswith("__")
    }
    kernel = {"_slide", "_flat", "_tables", "_window_maps", "_NAMES"}
    assert kernel <= set(vars(promotion))
    for info in pkgutil.iter_modules(artifact.__path__):
        if info.name != "promotion":
            module = importlib.import_module(f"artifact.{info.name}")
            assert not kernel & set(vars(module)), info.name
            assert not private & set(map(id, vars(module).values())), info.name


def _pr_on_a_shorter_window(E, tables, a, b, d):
    """pr on [a, b - 1] for [a, b]: wrong values, no raise."""
    return SLIDE(E, tables, a, b - (d == 0 and a < b), d)


def _pr_inv_zeroing_an_image_with_two_bs(E, tables, a, b, d):
    """pr_inv's image all zeros when E holds b twice on a two-letter window:
    a raise on some tableaux only."""
    if d == 1 and b == a + 1 and E.count(b) >= 2:
        return bytes(len(E))
    return SLIDE(E, tables, a, b, d)


@pytest.mark.parametrize(
    "fault, raised, failures",
    [(_pr_on_a_shorter_window, 0, 10 + 262), (_pr_inv_zeroing_an_image_with_two_bs, 13, 0)],
)
def test_promotion_relations_match_their_former_body_at_n_1_and_4(
    monkeypatch, fault, raised, failures
):
    """At n = 1 and 4, alphabets the mutant table does not reach, the body
    over window numbers gives the former body's check count and failures, in
    order, or raises its ValueError, under a faulty slide.  Its kernel calls
    are the former body's on two or more letters, first occurrences only and
    in the same order (up to the raise, where it raises); the counts show
    that each fault bites (the 13 tableaux at n = 1, then the 6 at n = 4)."""
    rng = random.Random(11)
    cases = [(T, 1) for lam in enumerate_partitions(3, 2) for T in enumerate_ssyt(lam, 2)]
    cases += [(random_ssyt(random_shape(6, 8, rng), 8, rng), 4) for _ in range(6)]
    calls = []

    def recorded(E, tables, a, b, d):
        calls.append((d, E, a, b))
        return fault(E, tables, a, b, d)

    def outcome(relations, T, n):
        calls.clear()
        try:
            result = relations(T, n)
        except ValueError as error:
            return str(error)
        return result.checked, result.failures

    got = []
    with monkeypatch.context() as patched:
        patched.setattr(promotion, "_slide", recorded)
        for T, n in cases:
            got.append(outcome(verify.promotion_relations, T, n))
            ours = calls[:]
            assert got[-1] == outcome(promotion_relations_reference, T, n), (T, n)
            former = list(dict.fromkeys(call for call in calls if call[2] < call[3]))
            assert ours == former[: len(ours) if isinstance(got[-1], str) else None], (T, n)
    kept = [result[1] for result in got if not isinstance(result, str)]
    assert (len(got) - len(kept), sum(map(len, kept))) == (raised, failures)


def test_the_per_shape_check_is_validate_ssyt():
    checked = 0
    for lam in enumerate_partitions(5, 5):
        _, _, spans, is_ssyt = promotion._tables(lam)
        for E in product(range(5), repeat=sum(lam)):
            E = bytes(E)
            assert is_ssyt(E) == validate_ssyt([list(E[s:t]) for s, t in spans]), (lam, E)
            checked += 1
    assert checked == 25431


def test_the_bytes_kernels_are_the_list_kernels():
    """_slide on bytes gives the former list kernels' images, pr's in
    direction 0 and pr_inv's in direction 1, on every tableau of (2, <= 6)
    and (3, <= 5), over every window [a, b] of [1, 2n], one-letter windows
    included; and at the top of the byte range, on every tableau of
    (4, <= 3) with its entries shifted up by 246 into [247, 254], over
    every window inside [247, 254]."""
    pairs = Counter()
    for n, size, shift in ((2, 6, 0), (3, 5, 0), (4, 3, 246)):
        for lam in enumerate_partitions(size, 2 * n):
            tables = promotion._tables(lam)
            for T in enumerate_ssyt(lam, 2 * n):
                E = [e + shift for row in T for e in row]
                letters = range(1 + shift, 2 * n + 1 + shift)
                for a, b in combinations_with_replacement(letters, 2):
                    got = promotion._slide(bytes(E), tables, a, b, 0)
                    assert list(got) == pr_flat_reference(E, tables, a, b), (T, shift, a, b)
                    got = promotion._slide(bytes(E), tables, a, b, 1)
                    assert list(got) == pr_inv_flat_reference(E, tables, a, b), (T, shift, a, b)
                    pairs[shift] += 1
    assert pairs == {0: 63812, 246: 15012}


LETTER_LIMIT_CALLS = {
    "pr": [(pr, [[1, 2], [3]], 1, 255), (pr, [[1, 255]], 1, 2)],
    "pr_inv": [(pr_inv, [[1, 2], [3]], 2, 255), (pr_inv, [[1, 255]], 1, 2)],
    "pr_images": [(pr_images, [[1, 2], [3]], [(1, 2), (3, 255)]), (pr_images, [[255]], [])],
    "phi": [(phi, [[1, 2], [3]], 128), (phi, [[1, 255]], 2)],
    "psi": [(psi, [[1, 2], [3]], 128), (psi, [[1, 255]], 2)],
    "res_via_promotion": [
        (res_via_promotion, [[1, 2], [3]], 1, 1, 3, 255),
        (res_via_promotion, [[1, 255]], 1, 1, 3, 4),
    ],
    "promotion_relations": [
        (verify.promotion_relations, [[1, 2], [3]], 128),
        (verify.promotion_relations, [[1, 255]], 2),
    ],
}


@pytest.mark.parametrize("name", sorted(LETTER_LIMIT_CALLS))
def test_promotion_names_its_letter_limit(name):
    """A window end or an entry above 254 raises a ValueError that names the
    limit, before the slide runs."""
    for op, *args in LETTER_LIMIT_CALLS[name]:
        with pytest.raises(ValueError, match="^promotion runs on the letters 1 to 254$"):
            op(*args)


def test_promotion_runs_up_to_the_letter_limit():
    """254 is both an entry and a window end, and n = 127 has its windows."""
    assert pr([[1, 254]], 1, 254) == [[1, 2]]
    assert pr_inv([[1, 2]], 1, 254) == [[1, 254]]
    assert pr_images([[254]], [(254, 254)]) == [[[254]], [[254]]]
    assert max(b for _, b in phi_factors(127) + psi_factors(127)) == 254
    for op in (phi, psi):
        assert validate_ssyt(op([[1, 2], [3]], 127))


def test_adjacent_travelers_regression():
    # two travelers end next to each other; the second must not drag the first
    assert pr([[1, 2], [3, 3]], 2, 3) == [[1, 2], [2, 3]]
    assert pr_inv([[1, 2], [2, 3]], 2, 3) == [[1, 2], [3, 3]]
    for T, a, b in [
        ([[1, 2], [2, 3]], 2, 3),
        ([[1, 2], [2, 4]], 2, 4),
        ([[1, 3], [3, 4]], 3, 4),
        ([[2, 3], [3, 4]], 3, 4),
        ([[2, 3], [4, 4]], 3, 4),
    ]:
        assert pr(pr_inv(T, a, b), a, b) == T
        assert pr_inv(pr(T, a, b), a, b) == T


def test_roundtrips_exhaustive_small():
    for lam in enumerate_partitions(4, 4):
        for T in enumerate_ssyt(lam, 4):
            for a in range(1, 5):
                for b in range(a, 5):
                    assert pr(pr_inv(T, a, b), a, b) == T
                    assert pr_inv(pr(T, a, b), a, b) == T


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_roundtrips_random_rank3(seed):
    rng = random.Random(seed)
    T = random_ssyt(random_shape(8, 6, rng), 6, rng)
    a = rng.randint(1, 6)
    b = rng.randint(a, 6)
    assert pr(pr_inv(T, a, b), a, b) == T
    assert pr_inv(pr(T, a, b), a, b) == T


def test_adjacent_window_involution():
    rng = random.Random(29)
    for _ in range(80):
        T = random_ssyt(random_shape(8, 6, rng), 6, rng)
        a = rng.randint(1, 5)
        assert pr(pr(T, a, a + 1), a, a + 1) == T


def test_window_composition():
    rng = random.Random(31)
    for _ in range(80):
        T = random_ssyt(random_shape(8, 6, rng), 6, rng)
        a = rng.randint(1, 6)
        b = rng.randint(a, 6)
        c = rng.randint(b, 6)
        assert pr(pr(T, b, c), a, b) == pr(T, a, c)


def test_factor_sequences():
    assert phi_factors(2) == [(1, 4)]
    assert psi_factors(2) == [(2, 3), (2, 4)]
    assert phi_factors(3) == [(3, 4), (3, 5), (1, 6)]
    assert psi_factors(3) == [(2, 5), (2, 6)]


def _phi_factors_reference(n):
    """The former phi_factors loop."""
    factors = []
    if n % 2 == 1:
        factors.append((n, n + 1))
    for k in range(n - 1, 0, -1):
        bar = 2 * n - k + 1
        factors.append((k + 1, bar) if k % 2 == 0 else (k, bar))
    return factors


def _psi_factors_reference(n):
    """The former psi_factors loop."""
    factors = []
    if n % 2 == 0:
        factors.append((n, n + 1))
    for k in range(n - 1, 0, -1):
        bar = 2 * n - k + 1
        factors.append((k, bar) if k % 2 == 0 else (k + 1, bar))
    return factors


def test_factor_sequences_match_their_former_loops():
    for n in range(1, 11):
        assert phi_factors(n) == _phi_factors_reference(n), n
        assert psi_factors(n) == _psi_factors_reference(n), n


def test_pr_images_are_the_partial_composites():
    rng = random.Random(37)
    for _ in range(40):
        T = random_ssyt(random_shape(8, 6, rng), 6, rng)
        for windows in (phi_factors(3), psi_factors(3), [(2, 2), (1, 6), (4, 5)], []):
            images = pr_images(T, windows)
            assert images[0] == T and len(images) == len(windows) + 1
            for (a, b), before, after in zip(windows, images, images[1:]):
                assert after == pr(before, a, b)
        assert phi(T, 3) == pr_images(T, phi_factors(3))[-1]


def test_phi_golden_rank3():
    assert phi([[1, 1], [2, 6], [5]], 3) == [[1, 2], [2, 3], [4]]


def test_psi_is_the_declared_composite():
    T = [[1, 1], [2, 4]]
    manual = pr(pr(T, 2, 3), 2, 4)
    assert psi(T, 2) == manual


def test_res_via_promotion_matches_res():
    T = [[1, 2, 2, 3], [4, 5, 6], [6, 6]]
    assert res_via_promotion(T, 1, 2, 5, 6) == res(T, 1, 2, 5, 6)
    T2 = [[1, 2, 2, 4], [3, 5, 6], [6, 6]]
    assert res_via_promotion(T2, 1, 2, 5, 6) == res(T2, 1, 2, 5, 6)
    rng = random.Random(23)
    for _ in range(120):
        U = random_ssyt(random_shape(8, 6, rng), 6, rng)
        b = rng.randint(1, 5)
        c = rng.randint(b + 1, 6)
        d = rng.randint(c, 6)
        assert res_via_promotion(U, 1, b, c, d) == res(U, 1, b, c, d)


def test_restriction_commutes_with_promotion():
    # restricting after promoting the whole window equals restricting the
    # shifted bands first and relabeling
    def both(T):
        left = res(pr_inv(T, 2, 6), 2, 5, 5, 5)
        right = [[e - 1 for e in row] for row in res(T, 3, 6, 6, 6)]
        return left, right

    left, right = both([[1, 2, 2, 3], [4, 5, 6], [6, 6]])
    assert left == right
    rng = random.Random(11)
    for _ in range(120):
        T = random_ssyt(random_shape(8, 6, rng), 6, rng)
        left, right = both(T)
        assert left == right


def test_restrict_is_pure_removal():
    T = [[1, 2, 3], [2, 4], [4]]
    kept = restrict(T, 1, 2, 4, 4)
    assert kept == {(1, 1): 1, (2, 1): 2, (1, 2): 2, (2, 2): 4, (1, 3): 4}
    with pytest.raises(ValueError):
        restrict(T, 2, 1, 3, 4)
