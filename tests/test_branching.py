"""Column reduction, the P/Q correspondence, and the rank-2 closed forms."""

import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from artifact import branching
from artifact.branching import (
    a_staircase,
    b_staircase,
    n2_condition_khw,
    n2_condition_klw,
    n2_family_dominant,
    n2_family_khw,
    n2_family_klw,
    n2_family_klw_corrected,
    p_aii,
    p_aii_range,
    q_aii,
    red,
    rem,
    staircase_flags,
    suc,
)
from artifact.crystal import ab_sequences, is_ghat_dominant
from artifact.shapes import enumerate_partitions
from artifact.tableaux import (
    columns_of,
    enumerate_columns,
    enumerate_spt,
    enumerate_ssyt,
    freeze,
    shape,
    validate_ssyt,
)
from artifact.verify import random_ssyt, verify_sweep
from helpers import (
    branching_multiplicity,
    column_insert,
    column_to_rows,
    first_column,
    is_k_highest,
    is_k_lowest,
    is_symplectic,
    lr_aii_partition,
    rest_columns,
    young_diagram,
)


# Reference implementation: the former row-based column insertion, the
# doubly recursive rem, and the suc loop they fed.


def _ref_column_insert(m, T):
    out = [list(row) for row in T]
    x = 0
    while True:
        placed = False
        for y in range(len(out)):
            if len(out[y]) > x and out[y][x] >= m:
                out[y][x], m = m, out[y][x]
                placed = True
                break
        if not placed:
            if x == 0:
                out.append([m])
            else:
                y = sum(1 for row in out if len(row) > x)
                out[y].append(m)
            if not validate_ssyt(out):
                raise ValueError("column insertion produced an invalid tableau")
            return out
        x += 1


def _ref_rem(C):
    entries = [row[0] for row in C]
    l = len(entries)
    if l <= 1:
        return set()
    v, u = entries[-1], entries[-2]
    if v % 2 == 0 and u == v - 1:
        inner = _ref_rem(column_to_rows(entries[:-2]))
        if v < 2 * l - len(inner) - 1:
            return inner | {u, v}
    return _ref_rem(column_to_rows(entries[:-1]))


def _ref_suc(T):
    if not T:
        return []
    C = column_to_rows(first_column(T))
    removed = _ref_rem(C)
    out = rest_columns(T)
    for row in C:
        if row[0] not in removed:
            out = _ref_column_insert(row[0], out)
    return out


def _ref_p_q(T):
    """(suc(T), P, Q) by iterating the reference suc."""
    first = _ref_suc(T)
    record = {}
    step = 0
    nxt = first
    while nxt != T:
        step += 1
        for box in young_diagram(shape(T)) - young_diagram(shape(nxt)):
            record[box] = step
        T, nxt = nxt, _ref_suc(nxt)
    return first, T, record


def _assert_matches_reference(T):
    ref_suc, ref_p, ref_q = _ref_p_q(T)
    assert suc(T) == ref_suc, T
    assert p_aii(T) == ref_p, T
    assert q_aii(T) == ref_q, T


def test_rem_goldens():
    assert rem(column_to_rows([2, 3, 4])) == {3, 4}
    assert rem(column_to_rows([1, 2, 4])) == {1, 2}
    assert rem(column_to_rows([1])) == set()
    assert rem([]) == set()
    for C in ([[1, 2]], [[3], [1]], [[0], [1]]):
        with pytest.raises(ValueError):
            rem(C)


def test_column_insert_matches_reference():
    for lam in enumerate_partitions(6, 5):
        for T in enumerate_ssyt(lam, 5):
            for m in range(1, 7):
                assert column_insert(m, T) == _ref_column_insert(m, T), (m, T)


def test_rem_matches_recursive_reference():
    for lam in enumerate_partitions(8, 8):
        if len(lam) == sum(lam):
            for T in enumerate_ssyt(lam, 8):
                assert rem(T) == _ref_rem(T), T
                assert red(T) == [row for row in T if row[0] not in _ref_rem(T)], T


def test_red_goldens():
    assert red(column_to_rows([2, 3, 4])) == [[2]]
    assert red(column_to_rows([1, 2, 4])) == [[4]]
    assert red(column_to_rows([1, 3])) == [[1], [3]]
    with pytest.raises(ValueError):
        red([[1, 2], [3]])


def test_pq_golden():
    T = [[1, 2], [2, 3], [4]]
    assert p_aii(T) == [[2]]
    assert q_aii(T) == {(2, 1): 1, (2, 2): 1, (1, 2): 2, (1, 3): 2}


def test_suc_fixes_exactly_the_symplectic_tableaux():
    for lam in enumerate_partitions(5, 4):
        for T in enumerate_ssyt(lam, 4):
            assert (suc(T) == T) == is_symplectic(T)
    for lam in enumerate_partitions(3, 6):
        for T in enumerate_ssyt(lam, 6):
            assert (suc(T) == T) == is_symplectic(T)


def test_kernel_matches_reference_exhaustively():
    """suc, P and Q agree with the row-based reference on every tableau
    with at most 7 boxes, in ranks 2 and 3."""
    for n in (2, 3):
        for lam in enumerate_partitions(7, 2 * n):
            for T in enumerate_ssyt(lam, 2 * n):
                _assert_matches_reference(T)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 12))
def test_kernel_matches_reference_rank4(rng, size):
    """The same on random tableaux over [1, 8] of up to 12 boxes."""
    shapes = [lam for lam in enumerate_partitions(size, 8) if sum(lam) == size]
    _assert_matches_reference(random_ssyt(rng.choice(shapes), 8, rng))


def test_p_aii_rejects_non_semistandard_input():
    with pytest.raises(ValueError):
        p_aii([[2, 1]])
    with pytest.raises(ValueError):
        p_aii([[3], [1]])
    with pytest.raises(ValueError):
        q_aii([[1], [2, 2]])
    with pytest.raises(ValueError):
        suc([[0]])


def test_suc_chain_stops_at_its_size_budget(monkeypatch, time_bound):
    """A reduction that removes nothing and adds an entry never reaches a
    fixed point: the chain checks for one |T| + 2 times, then raises."""
    time_bound(10)
    calls = []

    def never_fixed(col):
        calls.append(col)
        return col + (col[-1] + 1,)

    monkeypatch.setattr(branching, "_reduced", never_fixed)
    with pytest.raises(RuntimeError, match="suc did not stabilize"):
        p_aii([[1, 2], [3]])
    assert len(calls) == 5


def test_p_aii_lands_on_symplectic():
    for lam in enumerate_partitions(5, 4):
        for T in enumerate_ssyt(lam, 4):
            P = p_aii(T)
            assert is_symplectic(P)
            assert suc(P) == P


def test_pq_classes_factor_and_count():
    lam = (2, 2)
    classes = lr_aii_partition(lam, 2)
    total = sum(len(v) for v in classes.values())
    assert total == sum(1 for _ in enumerate_ssyt(lam, 4))
    for mu, triples in classes.items():
        ps = {freeze(P) for _, P, _ in triples}
        qs = {frozenset(Q.items()) for _, _, Q in triples}
        assert len(triples) == len(ps) * len(qs)
        assert len(ps) == sum(1 for _ in enumerate_spt(mu, 2))
        assert len(qs) == branching_multiplicity(lam, mu, 2)


def test_staircases():
    assert a_staircase((2, 1), 2) == [[2, 2], [3]]
    assert b_staircase((2, 1), 2) == [[1, 1], [4]]
    assert a_staircase((1, 1, 1), 3) == [[2], [3], [6]]
    assert b_staircase((1, 1, 1), 3) == [[1], [4], [5]]


def test_staircase_flags_match_staircases():
    for n in (2, 3):
        for lam in enumerate_partitions(6, n):
            for P in enumerate_spt(lam, n):
                flags = staircase_flags(columns_of(P), n)
                assert flags == (P == a_staircase(lam, n), P == b_staircase(lam, n)), P
    # The empty P is both staircases; a column longer than n is neither,
    # even where its first n entries are a staircase column.
    assert staircase_flags([], 2) == (True, True)
    assert staircase_flags([(2, 3, 4)], 2) == (False, False)
    assert staircase_flags([(1, 4, 5)], 2) == (False, False)


def _staircase_flags_reference(P, n):
    """The former staircase_flags: P against the a- and b-staircase columns
    of its column lengths, with no first-column reject."""
    a, b = ab_sequences(n)
    return P == [a[:len(col)] for col in P], P == [b[:len(col)] for col in P]


def test_staircase_flags_match_the_length_key_reference():
    """On every P of verify_sweep(2, 6) and (3, 5), the empty P and columns
    longer than n."""
    for n, size in ((2, 6), (3, 5)):
        for lam in enumerate_partitions(size, 2 * n):
            for cols in enumerate_columns(lam, 2 * n):
                P = branching._suc_chain(cols)[-1]
                assert staircase_flags(P, n) == _staircase_flags_reference(P, n), P
    for P in ([], [(2, 3, 4)], [(1, 4, 5)], [(2, 3, 4), (2,)], [(1, 4, 5, 6)]):
        assert staircase_flags(P, 2) == _staircase_flags_reference(P, 2), P


def test_the_cached_reduction_matches_its_body():
    """Every column over [1, 2n], n <= 4, first with an empty table and then
    from it."""
    branching._reduced.cache_clear()
    columns = [col for k in range(9) for col in combinations(range(1, 9), k)]
    for _ in ("cold", "warm"):
        for col in columns:
            assert branching._reduced(col) == branching._reduced.__wrapped__(col), col


def test_the_reduction_table_holds_at_most_one_entry_per_column():
    branching._reduced.cache_clear()
    verify_sweep(3, 6)
    assert 0 < branching._reduced.cache_info().currsize <= 2 ** 6


def test_the_staircase_table_holds_one_entry_per_column_lengths():
    branching._staircase_columns.cache_clear()
    verify_sweep(3, 6)
    lengths = {
        tuple(map(len, branching._suc_chain(cols)[-1]))
        for lam in enumerate_partitions(6, 6)
        for cols in enumerate_columns(lam, 6)
    }
    assert branching._staircase_columns.cache_info().currsize == len(lengths)


def test_highest_lowest_flags():
    assert is_k_highest([[2]], 2)
    assert not is_k_highest([[1]], 2)
    assert is_k_lowest([[1]], 2)
    assert is_k_lowest([[1], [2]], 2)
    assert not is_k_lowest([[4]], 2)


def test_p_aii_range():
    for T in enumerate_ssyt((2, 1), 4):
        assert p_aii_range(T, 1, 4) == p_aii(T)
    assert p_aii_range([[3, 3], [4]], 3, 4) == [[3]]
    with pytest.raises(ValueError):
        p_aii_range([[1]], 1, 3)
    with pytest.raises(ValueError):
        p_aii_range([[1]], 2, 3)
    for T in ([], [[3]]):
        with pytest.raises(ValueError, match="needs 1 <= a <= b"):
            p_aii_range(T, 3, 2)


def _n2_universe(max_size):
    for lam in enumerate_partitions(max_size, 4):
        yield from enumerate_ssyt(lam, 4)


def test_dominant_family_matches_operator_test():
    for T in _n2_universe(6):
        assert n2_family_dominant(T) == is_ghat_dominant(T, 2), T


def test_khw_family_and_condition_match():
    for T in _n2_universe(6):
        flag = is_k_highest(T, 2)
        assert n2_family_khw(T) == flag, T
        assert n2_condition_khw(T) == flag, T


def test_klw_corrected_family_matches():
    for T in _n2_universe(6):
        assert n2_family_klw_corrected(T) == is_k_lowest(T, 2), T


def test_klw_transcribed_forms_disagree_as_documented():
    """The verbatim lowest-weight tests are pinned to their known defects."""
    # the column 1,2 is lowest but the operator condition rejects it
    assert is_k_lowest([[1], [2]], 2)
    assert not n2_condition_klw([[1], [2]])
    # the single box 4 is not lowest but the operator condition accepts it
    assert not is_k_lowest([[4]], 2)
    assert n2_condition_klw([[4]])
    # the column 1,3 is not lowest but the closed-form family accepts it
    assert not is_k_lowest([[1], [3]], 2)
    assert n2_family_klw([[1], [3]])
    assert not n2_family_klw_corrected([[1], [3]])


def test_n2_helpers_reject_large_entries():
    with pytest.raises(ValueError):
        n2_family_dominant([[5]])
    with pytest.raises(ValueError):
        n2_condition_klw([[6]])


# sha256 of every output (or exception) of the four closed-form families on
# the criterion-7 universe, every tableau over [1, 4] in the 4x4 box, plus
# inputs outside it: entries of 5 and rows longer than 4.
N2_FAMILIES_SHA256 = "965c6ee18715c79c2edcad530545c2a35fc1019864ea6f7a38762a2b607fa8d8"


def test_n2_families_are_golden():
    box = [lam for lam in enumerate_partitions(16, 4) if not lam or lam[0] <= 4]
    universe = [T for lam in box for T in enumerate_ssyt(lam, 4)]
    outside = [
        [[5]], [[1, 5]], [[1], [5]], [[1, 2, 2], [3, 5]], [[1], [2], [3], [5]],
        [[1, 1, 1, 1, 1]], [[1, 1, 2, 2, 2], [2, 3, 3], [3, 4], [4]],
    ]
    digest = hashlib.sha256()
    for T in universe + outside:
        for family in (n2_family_dominant, n2_family_khw, n2_family_klw, n2_family_klw_corrected):
            try:
                out = repr(family(T))
            except ValueError as exc:
                out = f"ValueError: {exc}"
            digest.update(f"{family.__name__} {T} {out}\n".encode())
    assert len(universe) == 2772
    assert digest.hexdigest() == N2_FAMILIES_SHA256
