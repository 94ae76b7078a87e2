"""Crystal operators on words and tableaux; weights and dominance."""

from itertools import product

import pytest

from artifact.crystal import (
    ab_sequences,
    column_dominance_violation,
    crystal_e,
    crystal_f,
    e_max,
    eps,
    f_max,
    ghat_dominance_violation,
    is_ghat_dominant,
    phi,
    tableau_e,
    tableau_eps,
    tableau_f,
    tableau_phi,
    tensor_e,
    tensor_f,
    wt_ghat,
    wt_gl,
    wt_k,
)
from artifact.characters import sp_weight
from artifact.shapes import enumerate_partitions
from artifact.tableaux import (
    columns_of,
    count_entry,
    enumerate_ssyt,
    freeze,
    rows_of,
    validate_ssyt,
)


def test_convention_pins():
    # these two facts fix the raising/lowering orientation once and for all
    assert crystal_f([1, 2], 1) == [2, 2]
    assert crystal_e([2, 1], 1) is None
    assert crystal_e([2, 2], 1) == [1, 2]
    assert crystal_f([2, 1], 1) is None


def test_string_lengths():
    # in 1 2 2 1 the inner (2, 1) pair cancels, leaving 1 then 2
    word = [1, 2, 2, 1]
    assert phi(word, 1) == 1
    assert eps(word, 1) == 1
    assert phi([1, 1], 1) == 2
    assert eps([2, 2], 1) == 2


def _all_words(alphabet, max_len):
    for length in range(max_len + 1):
        yield from (list(w) for w in product(alphabet, repeat=length))


def test_e_f_are_partial_inverses():
    for word in _all_words((1, 2, 3), 4):
        for i in (1, 2):
            down = crystal_f(word, i)
            if down is not None:
                assert crystal_e(down, i) == word
            up = crystal_e(word, i)
            if up is not None:
                assert crystal_f(up, i) == word


def test_max_operators_exhaust():
    for word in _all_words((1, 2), 4):
        assert phi(f_max(word, 1), 1) == 0
        assert eps(e_max(word, 1), 1) == 0


def test_tensor_matches_concatenation():
    for w1 in _all_words((1, 2, 3), 3):
        for w2 in _all_words((1, 2, 3), 3):
            for i in (1, 2):
                for tensor_op, word_op in ((tensor_e, crystal_e), (tensor_f, crystal_f)):
                    pair = tensor_op(w1, w2, i)
                    whole = word_op(w1 + w2, i)
                    if pair is None:
                        assert whole is None
                    else:
                        assert pair[0] + pair[1] == whole


def test_tableau_operators_close_on_a_shape():
    universe = {freeze(T) for T in enumerate_ssyt((2, 1), 4)}
    assert len(universe) == 20
    for frozen in universe:
        T = [list(row) for row in frozen]
        for i in (1, 2, 3):
            for op in (tableau_e, tableau_f):
                out = op(T, i)
                if out is not None:
                    assert validate_ssyt(out)
                    assert freeze(out) in universe


def test_tableau_string_data_is_seminormal():
    for lam in enumerate_partitions(4, 4):
        for T in enumerate_ssyt(lam, 4):
            for i in (1, 2, 3):
                steps = 0
                cur = T
                while (nxt := tableau_e(cur, i)) is not None:
                    cur = nxt
                    steps += 1
                assert steps == tableau_eps(T, i)
                steps = 0
                cur = T
                while (nxt := tableau_f(cur, i)) is not None:
                    cur = nxt
                    steps += 1
                assert steps == tableau_phi(T, i)


def test_weight_step_law():
    for T in enumerate_ssyt((2, 1), 4):
        for i in (1, 2, 3):
            out = tableau_f(T, i)
            if out is None:
                continue
            before = wt_gl(T, 4)
            after = wt_gl(out, 4)
            delta = tuple(a - b for a, b in zip(after, before))
            expected = tuple(
                -1 if k == i - 1 else 1 if k == i else 0 for k in range(4)
            )
            assert delta == expected


def test_ab_sequences():
    assert ab_sequences(2) == ((2, 3), (1, 4))
    assert ab_sequences(3) == ((2, 3, 6), (1, 4, 5))


def test_weights_golden():
    T = [[1, 1, 2, 2, 3, 3], [2, 2, 3, 3, 4], [3, 4, 4]]
    assert wt_k(T, 2) == (2, 2)
    assert wt_gl([[1, 2], [2]], 3) == (1, 2, 0)
    assert wt_ghat([[1], [4]], 2) == (0, 0)
    assert wt_ghat([[1], [2]], 2) == (1, 1)


def test_dominance():
    assert is_ghat_dominant([[1], [2]], 2)
    assert is_ghat_dominant([[1], [4]], 2)
    assert not is_ghat_dominant([[1], [3]], 2)
    assert ghat_dominance_violation([[1], [3]], 2) == 2
    assert ghat_dominance_violation([[1], [2]], 2) is None
    assert is_ghat_dominant([[1, 1], [2, 6], [5]], 3)
    assert is_ghat_dominant([], 2)
    # An entry above 2n has no coordinate: 5 would wrap to the last one.
    with pytest.raises(ValueError):
        is_ghat_dominant([[7]], 2)
    with pytest.raises(ValueError):
        ghat_dominance_violation([[1, 5]], 2)


def _dominance_violation_reference(cols, n):
    """The full rescan: after every letter, test all n - 1 adjacent pairs of
    the partial weight and its last coordinate."""
    m = [0] * n
    word = (letter for col in reversed(cols) for letter in col)
    for p, letter in enumerate(word, start=1):
        if letter <= n:
            m[letter - 1] += 1
        else:
            m[2 * n - letter] -= 1
        ok = m[-1] >= 0 and all(m[k] >= m[k + 1] for k in range(n - 1))
        if not ok:
            return p
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dominance_scan_matches_the_full_rescan(n):
    """One comparison per letter finds the same first violation as the full
    rescan on every tableau with at most 6 boxes over [1, 2n]."""
    for lam in enumerate_partitions(6, 2 * n):
        for T in enumerate_ssyt(lam, 2 * n):
            cols = columns_of(T)
            assert rows_of(cols) == T
            expected = _dominance_violation_reference(cols, n)
            assert column_dominance_violation(cols, n) == expected, T
            assert ghat_dominance_violation(T, n) == expected, T


def test_dominant_tableaux_have_dominant_weight():
    for lam in enumerate_partitions(5, 4):
        for T in enumerate_ssyt(lam, 4):
            if is_ghat_dominant(T, 2):
                w = wt_ghat(T, 2)
                assert w[0] >= w[1] >= 0


def test_weight_maps_match_entry_counts():
    """Each weight map equals its count_entry formula, also when entries
    exceed 2n and are therefore not counted."""
    for n in (2, 3):
        a, b = ab_sequences(n)
        for lam in ((1,), (2, 1), (2, 2), (3, 1, 1), (2, 2, 1, 1)):
            for T in enumerate_ssyt(lam, 2 * n + 2):
                c = lambda m: count_entry(T, m)
                assert wt_gl(T, 2 * n) == tuple(c(m) for m in range(1, 2 * n + 1))
                assert wt_ghat(T, n) == tuple(c(i) - c(2 * n - i + 1) for i in range(1, n + 1))
                assert wt_k(T, n) == tuple(c(a[k]) - c(b[k]) for k in range(n))
                assert sp_weight(T, n) == tuple(c(2 * i - 1) - c(2 * i) for i in range(1, n + 1))
    assert wt_ghat([[1, 7]], 2) == (1, 0)
    assert wt_gl([[1, 7]], 4) == (1, 0, 0, 0)
