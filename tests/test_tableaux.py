"""Reading words, insertion, column products, and enumeration counts."""

import pytest
from hypothesis import given, strategies as st

from functools import cache
from itertools import combinations, product
from operator import le

from artifact.shapes import canonical, conjugate, enumerate_partitions
from artifact.tableaux import (
    column_star,
    columns_of,
    content,
    count_ssyt,
    enumerate_columns,
    enumerate_spt,
    enumerate_ssyt,
    freeze,
    insertion_tableau,
    row_word,
    rows_of,
    shape,
    validate_ssyt,
)
from helpers import (
    column_insert,
    column_to_rows,
    count_entry,
    first_column,
    inverse_column_word,
    is_symplectic,
    knuth_equivalent,
    rest_columns,
    schensted_insert,
)


def test_shape_and_freeze():
    T = [[1, 2], [2]]
    assert shape(T) == (2, 1)
    assert freeze([]) == ()


def _validate_ssyt_reference(T):
    """The former multi-pass body of validate_ssyt."""
    lengths = [len(row) for row in T]
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return False
    if any(not row for row in T):
        return False
    for row in T:
        if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(len(T) - 1):
        for j in range(len(T[i + 1])):
            if T[i][j] >= T[i + 1][j]:
                return False
    return all(e >= 1 for row in T for e in row)


def test_validate_ssyt():
    assert validate_ssyt([[1, 1, 2], [2, 3]])
    assert validate_ssyt([])
    assert not validate_ssyt([[2, 1]])          # row decreases
    assert not validate_ssyt([[1, 2], [1]])     # column not strict
    assert not validate_ssyt([[1], [2, 2]])     # lengths increase
    assert not validate_ssyt([[0]])             # entries start at 1
    assert not validate_ssyt([[1], []])         # empty row
    assert not validate_ssyt([[1, 2], [3, -1]]) # negative entry below


@given(st.lists(st.lists(st.integers(-1, 6), max_size=5), max_size=5))
def test_validate_ssyt_matches_reference(T):
    assert validate_ssyt(T) == _validate_ssyt_reference(T)


def test_row_word():
    assert row_word([[1, 2, 3], [2, 4], [4]]) == [4, 2, 4, 1, 2, 3]
    assert row_word([]) == []


def test_inverse_column_word_golden():
    assert inverse_column_word([[1, 1], [2, 6], [5]]) == [1, 6, 1, 2, 5]
    assert inverse_column_word([]) == []


def test_schensted_insert():
    assert schensted_insert(2, [[1, 3], [4]]) == [[1, 2], [3], [4]]
    assert schensted_insert(5, [[1, 3], [4]]) == [[1, 3, 5], [4]]


def _schensted_insert_reference(m, T):
    """The former schensted_insert: bump the first entry > m, row by row, in a copy."""
    out = [list(row) for row in T]
    r = 0
    while True:
        if r == len(out):
            out.append([m])
            return out
        row = out[r]
        for j, e in enumerate(row):
            if e > m:
                row[j], m = m, e
                break
        else:
            row.append(m)
            return out
        r += 1


def test_insertion_tableau_matches_the_copying_fold():
    for length in range(7):
        for word in product((1, 2, 3, 4), repeat=length):
            T = []
            for m in word:
                T = _schensted_insert_reference(m, T)
            assert insertion_tableau(word) == T, word


def test_insertion_recovers_tableau():
    for lam in enumerate_partitions(5, 4):
        for T in enumerate_ssyt(lam, 4):
            assert insertion_tableau(row_word(T)) == T


def test_knuth_equivalent():
    T = [[1, 2, 2], [3]]
    assert knuth_equivalent(row_word(T), [3, 1, 2, 2])
    assert not knuth_equivalent([1, 2], [2, 1])


def test_column_insert_golden():
    assert column_star([[4]], [[2], [3]]) == [[2], [3], [4]]
    assert column_insert(1, []) == [[1]]
    assert column_insert(1, [[1, 2], [3]]) == [[1, 1, 2], [3]]


def test_column_star_requires_single_column():
    with pytest.raises(ValueError):
        column_star([[1, 2]], [])


def test_column_insert_rejects_bad_input():
    with pytest.raises(ValueError):
        column_insert(1, [[2, 1]])
    with pytest.raises(ValueError):
        column_star([[1]], [[3], [1]])
    with pytest.raises(ValueError):
        column_insert(0, [[1, 2]])
    with pytest.raises(ValueError):
        column_insert(-1, [])
    with pytest.raises(ValueError):
        column_star([[2], [0]], [[1]])
    with pytest.raises(ValueError):
        column_star([[3], [1]], [])
    with pytest.raises(ValueError):
        column_star([[2], [2]], [[1]])


def test_star_reassembles_every_tableau():
    for lam in enumerate_partitions(6, 4):
        for T in enumerate_ssyt(lam, 4):
            C = column_to_rows(first_column(T))
            S = rest_columns(T)
            if T:
                assert column_star(C, S) == T


def test_first_and_rest_columns():
    T = [[1, 2, 3], [2, 4], [4]]
    assert first_column(T) == [1, 2, 4]
    assert rest_columns(T) == [[2, 3], [4]]


def test_content_counts():
    T = [[1, 1, 2], [2, 3]]
    assert count_entry(T, 2) == 2
    assert content(T, 4) == (2, 2, 1, 0)
    assert content(T, 1) == (2,)
    assert content([[-1, 0, 1, 3]], 2) == (1, 0)


def test_symplectic_counts():
    assert sum(1 for _ in enumerate_spt((1,), 2)) == 4
    assert sum(1 for _ in enumerate_spt((1, 1), 2)) == 5
    assert sum(1 for _ in enumerate_spt((2, 2), 2)) == 14


def test_is_symplectic():
    assert is_symplectic([[1], [3]])
    assert not is_symplectic([[1], [2]])
    assert is_symplectic([])


def test_enumeration_count_matches_hook_content():
    for lam in enumerate_partitions(6, 4):
        for m in (2, 4, 5):
            got = sum(1 for _ in enumerate_ssyt(lam, m))
            assert got == count_ssyt(lam, m), (lam, m)


def test_enumeration_first_and_determinism():
    first = next(enumerate_ssyt((2, 1), 3))
    assert first == [[1, 1], [2]]
    once = [freeze(T) for T in enumerate_ssyt((2, 2), 4)]
    again = [freeze(T) for T in enumerate_ssyt((2, 2), 4)]
    assert once == again
    assert len(once) == len(set(once)) == 20


def test_every_enumerated_tableau_is_valid():
    for lam in enumerate_partitions(5, 4):
        for T in enumerate_ssyt(lam, 4):
            assert validate_ssyt(T)
            assert shape(T) == lam


def _enumerate_ssyt_reference(lam, m):
    """The former enumerator: a recursive fill, box by box down each column."""
    lam = canonical(lam)
    if not lam:
        yield []
        return
    ncols = lam[0]
    col_len = [sum(1 for p in lam if p >= x) for x in range(1, ncols + 1)]
    T = [[0] * p for p in lam]

    def fill(x, y):
        if x > ncols:
            yield [list(row) for row in T]
            return
        nx, ny = (x, y + 1) if y < col_len[x - 1] else (x + 1, 1)
        lo = 1
        if y > 1:
            lo = max(lo, T[y - 2][x - 1] + 1)
        if x > 1:
            lo = max(lo, T[y - 1][x - 2])
        hi = m - (col_len[x - 1] - y)
        for v in range(lo, hi + 1):
            T[y - 1][x - 1] = v
            yield from fill(nx, ny)
        T[y - 1][x - 1] = 0

    yield from fill(1, 1)


def _enumerate_columns_reference(lam, m):
    """The former body of enumerate_columns: the recursion descends to a
    full prefix and yields it, one leaf generator per tableau."""
    lengths = conjugate(canonical(lam))

    @cache
    def after(left, k):
        return [col for col in combinations(range(1, m + 1), k) if all(map(le, left, col))]

    def chain(prefix):
        if len(prefix) == len(lengths):
            yield prefix
            return
        for col in after(prefix[-1] if prefix else (), lengths[len(prefix)]):
            yield from chain(prefix + [col])

    return chain([])


def test_column_generator_matches_the_reference():
    """enumerate_ssyt, the column generator read through rows_of, and the
    King tableaux among them equal the former recursive enumerator in order,
    and count_ssyt counts them, for every shape of at most 7 boxes over
    [1, m] with m <= 6 (0 tableaux when the shape has more than m rows).
    enumerate_columns gives the same lists in the same order as its former
    body."""
    checked = 0
    for lam in enumerate_partitions(7, 7):
        for m in range(1, 7):
            reference = list(_enumerate_ssyt_reference(lam, m))
            assert list(enumerate_ssyt(lam, m)) == reference, (lam, m)
            assert [rows_of(cols) for cols in enumerate_columns(lam, m)] == reference, (lam, m)
            assert count_ssyt(lam, m) == len(reference), (lam, m)
            if m % 2 == 0:
                king = [T for T in reference if is_symplectic(T)]
                assert list(enumerate_spt(lam, m // 2)) == king, (lam, m)
            columns = list(_enumerate_columns_reference(lam, m))
            assert list(enumerate_columns(lam, m)) == columns, (lam, m)
            checked += len(reference)
    assert checked == 33825
    assert count_ssyt((1, 1), 1) == 0 and count_ssyt((5,), 1) == 1
    assert list(enumerate_columns((), 4)) == [[]] == list(_enumerate_columns_reference((), 4))
