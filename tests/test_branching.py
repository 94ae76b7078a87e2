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
    staircase_search,
    suc,
)
from artifact.characters import littlewood_branching, sp_dimension
from artifact.crystal import ab_sequences, is_ghat_dominant
from artifact.shapes import conjugate, enumerate_partitions
from artifact.tableaux import (
    columns_of,
    count_columns,
    enumerate_columns,
    enumerate_spt,
    enumerate_ssyt,
    freeze,
    row_word,
    rows_of,
    shape,
    validate_ssyt,
)
from artifact.verify import random_ssyt, verify_sweep
from helpers import (
    berele_insertion,
    branching_multiplicity,
    column_insert,
    column_to_rows,
    column_word,
    first_column,
    is_k_highest,
    is_k_lowest,
    is_symplectic,
    lr_aii_partition,
    rest_columns,
    schensted_insert,
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


def test_p_is_berele_insertion_of_both_reading_words():
    """P, the last tableau of the suc chain, equals Berele's symplectic
    insertion, which shares no code with column insertion, of the row word
    and of the column word on every tableau of (2, <= 8), (3, <= 6) and
    (4, <= 5)."""
    checked = 0
    for n, size in ((2, 8), (3, 6), (4, 5)):
        for lam in enumerate_partitions(size, 2 * n):
            for cols in enumerate_columns(lam, 2 * n):
                T, P = rows_of(cols), rows_of(branching._suc_chain(cols)[-1])
                assert berele_insertion(row_word(T)) == P == berele_insertion(column_word(T)), T
                checked += 1
    assert checked == 21866


def _staircase_p(found, n):
    """(T, P, is_a, is_b) for the column lists T whose P, by one suc chain
    each, is a staircase, with the flags of staircase_flags."""
    out = []
    for cols in found:
        P = branching._suc_chain(cols)[-1]
        if any(flags := staircase_flags(P, n)):
            out.append((cols, P, *flags))
    return out


@pytest.mark.parametrize("n, max_size", [(1, 10), (2, 10), (3, 7), (4, 6)])
def test_the_staircase_search_keeps_the_staircase_tableaux_of_the_walk(n, max_size):
    """On every shape, staircase_search yields exactly the (T, P, is_a, is_b)
    of the walk's tableaux whose P is a staircase, in walk order, P and the
    flags as one suc chain and staircase_flags give them; and count_columns
    equals the walk's length."""
    for lam in enumerate_partitions(max_size, 2 * n):
        walk = list(enumerate_columns(lam, 2 * n))
        assert list(staircase_search(lam, n)) == _staircase_p(walk, n), lam
        assert count_columns(lam, 2 * n) == len(walk), lam


def test_the_staircase_search_yields_only_staircase_tableaux():
    """At (3, 8) the search yields the 405 tableaux whose P is a staircase,
    208 highest and 208 lowest, of the 64,163 it counts."""
    found = [(a, b) for lam in enumerate_partitions(8, 6) for *_, a, b in staircase_search(lam, 3)]
    assert (len(found), sum(a for a, _ in found), sum(b for _, b in found)) == (405, 208, 208)


def _king_tableau(mu):
    """K_mu: row y all 2y - 1."""
    return [[2 * y + 1] * m for y, m in enumerate(mu)]


def test_every_king_p_of_shape_mu_sees_the_same_recording_set():
    """T -> (P, Q) is a bijection onto King(mu) x R(lam, mu): over each of
    the sp_dimension(mu, n) King tableaux P of shape mu, the Q form one set
    R, the same over A_mu, B_mu and K_mu, of littlewood_branching(lam, n)[mu]
    members; at (2, <= 8), (3, <= 6) and (4, <= 5)."""
    for n, size in ((2, 8), (3, 6), (4, 5)):
        for lam in enumerate_partitions(size, 2 * n):
            fibres, total = {}, 0
            for cols in enumerate_columns(lam, 2 * n):
                chain = branching._suc_chain(cols)
                Q = frozenset(branching._recording(chain).items())
                fibres.setdefault(freeze(rows_of(chain[-1])), set()).add(Q)
                total += 1
            assert sum(map(len, fibres.values())) == total, lam
            R = {}
            for mu in {shape(P) for P in fibres}:
                A, B, K = a_staircase(mu, n), b_staircase(mu, n), _king_tableau(mu)
                R[mu] = fibres[freeze(K)]
                assert fibres[freeze(A)] == fibres[freeze(B)] == R[mu], (lam, mu)
                over_mu = [Qs for P, Qs in fibres.items() if shape(P) == mu]
                assert len(over_mu) == sp_dimension(mu, n), (lam, mu)
                assert all(Qs == R[mu] for Qs in over_mu), (lam, mu)
            assert {mu: len(Qs) for mu, Qs in R.items()} == littlewood_branching(lam, n), lam


def test_p_extends_on_the_right():
    """P(T) = P(P(T-) <- c): with c the last column of T and T- the rest,
    row-inserting c's entries bottom to top into P(T-) gives a tableau of the
    same P; at (2, <= 7) and (3, <= 5)."""
    for n, size in ((2, 7), (3, 5)):
        for lam in enumerate_partitions(size, 2 * n):
            for cols in enumerate_columns(lam, 2 * n) if lam else ():
                U = rows_of(branching._suc_chain(cols[:-1])[-1])
                for m in reversed(cols[-1]):
                    U = schensted_insert(m, U)
                assert p_aii(U) == rows_of(branching._suc_chain(cols)[-1]), cols


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
    assert a_staircase((), 2) == b_staircase((), 2) == []


def test_staircases_reject_more_than_n_rows():
    # zip stops at the n-th letter, so without a check the rows below n
    # would be lost silently.
    for staircase in (a_staircase, b_staircase):
        with pytest.raises(ValueError, match="^mu has more than 2 rows$"):
            staircase((1, 1, 1), 2)
        with pytest.raises(ValueError, match="^mu has more than 1 rows$"):
            staircase((2, 1), 1)
        for n in range(1, 5):
            for mu in enumerate_partitions(8, 8):
                if len(mu) > n:
                    with pytest.raises(ValueError, match=f"^mu has more than {n} rows$"):
                        staircase(mu, n)


def _staircase_reference(mu, n, side):
    """The former staircase body: the a- or b-staircase columns of the
    column lengths of mu, as rows."""
    if len(mu) > n:
        raise ValueError(f"mu has more than {n} rows")
    return rows_of([ab_sequences(n)[side][:k] for k in conjugate(mu)])


def test_staircases_match_their_former_bodies():
    for n in range(1, 5):
        for mu in enumerate_partitions(8, n):
            assert a_staircase(mu, n) == _staircase_reference(mu, n, 0), (mu, n)
            assert b_staircase(mu, n) == _staircase_reference(mu, n, 1), (mu, n)
    # Trailing zeros are not rows.
    assert a_staircase((1, 0), 1) == [[2]]
    assert b_staircase((2, 1, 0, 0), 2) == [[1, 1], [4]]


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


def test_staircase_flags_match_the_column_by_column_reference():
    """On every P of verify_sweep(2, 6), (3, 5) and (4, 5), the empty P,
    columns longer than n, alone or after staircase columns, and P of 50
    columns or more."""
    for n, size in ((2, 6), (3, 5), (4, 5)):
        for lam in enumerate_partitions(size, 2 * n):
            for cols in enumerate_columns(lam, 2 * n):
                P = branching._suc_chain(cols)[-1]
                assert staircase_flags(P, n) == _staircase_flags_reference(P, n), P
    wide = [
        [(2, 3)] * 30 + [(2,)] * 30,
        [(1, 4)] * 25 + [(1,)] * 25,
        [(1, 4)] * 25 + [(1,)] * 24 + [(2,)],
    ]
    for P in ([], [(2, 3, 4)], [(1, 4, 5)], [(2, 3, 4), (2,)], [(1, 4, 5, 6)],
              [(2, 3), (2,), (2, 3, 4)], [(1, 4), (1, 4, 5)], *wide):
        assert staircase_flags(P, 2) == _staircase_flags_reference(P, 2), P
    assert [staircase_flags(P, 2) for P in wide] == [(True, False), (False, True), (False, False)]


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


def test_the_prefix_table_holds_one_entry_per_n():
    branching._staircase_prefixes.cache_clear()
    verify_sweep(3, 6)
    verify_sweep(2, 4)
    assert branching._staircase_prefixes.cache_info().currsize == 2


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
