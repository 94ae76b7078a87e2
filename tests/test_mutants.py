"""Named faults that the checker must detect.

Each fault replaces, by monkeypatch, the module global that the library
actually calls: characters binds king_floor, wt_ghat, sp_weight and le by
name and looks them up at call time, so patching them in tableaux, crystal
or operator would not reach the oracle, and verify_shape calls the
staircase_flags that verify binds.  A fault is detected when
verify_sweep(2, 5) or verify_sweep(3, 4) gives a failing report or raises
RuntimeError (exit 4 on the command line); a pass or a hang is a miss.  A fault that no
sweep can see stays in the table, marked equivalent, with the argument and
the check that does see it.
"""

from operator import lt

import pytest

from artifact import characters, verify
from artifact.shapes import enumerate_partitions
from artifact.tableaux import content, enumerate_columns, enumerate_ssyt, is_symplectic, rows_of
from artifact.verify import verify_sweep

SWEEPS = ((2, 5), (3, 4))
SP_WEIGHT = characters.sp_weight
STAIRCASE_FLAGS = verify.staircase_flags


def _wt_ghat_pairing_i_with_2n_minus_i(T, n):
    c = content(T, 2 * n)
    return tuple(c[i] - c[2 * n - i - 2] for i in range(n))


def _sp_weight_negated(T, n):
    return tuple(-w for w in SP_WEIGHT(T, n))


# name -> (module, global of that module, replacement)
DETECTED = {
    "King floor 1, 2, 3, ...": (characters, "king_floor", lambda n: tuple(range(1, 2 * n + 1))),
    "no King floor": (characters, "king_floor", lambda n: ()),
    "King relaxed to 2y - 2 (floor 0, 2, 4, ...)": (
        characters,
        "king_floor",
        lambda n: tuple(range(0, 4 * n - 1, 2)),
    ),
    "King floor 2, 4, 6, ...": (
        characters,
        "king_floor",
        lambda n: tuple(range(2, 4 * n + 1, 2)),
    ),
    "oracle wt_ghat pairs i with 2n - i": (
        characters,
        "wt_ghat",
        _wt_ghat_pairing_i_with_2n_minus_i,
    ),
    # Row-wise strict neighbours: the oracle's transfer drops every tableau
    # with a repeated entry in a row, and decompose raises RuntimeError.
    "oracle compares neighbouring columns with lt for le": (characters, "le", lt),
    "staircase_flags reading only the first column": (
        verify,
        "staircase_flags",
        lambda P, n: STAIRCASE_FLAGS(P[:1], n),
    ),
}

EQUIVALENT = {
    # Sp(2n) characters are invariant under the Weyl group of type C_n,
    # sign changes included, so negating every weight gives the same
    # multiset: each sp_character, and so each decomposition, is unchanged.
    "sp_weight negated": (characters, "sp_weight", _sp_weight_negated),
    # The cut floor bounds rows 1..n only, and sp_character rejects a mu
    # with more than n rows before the transfer runs, so every
    # character it returns is unchanged.  The King reference in
    # test_tableaux sees it: at mu = (1, 1), n = 1 the column (1, 2) passes.
    "King floor cut to n entries": (
        characters,
        "king_floor",
        lambda n: tuple(range(1, 2 * n, 2)),
    ),
}


def _detected() -> bool:
    try:
        return any(not report.passed for sweep in SWEEPS for report in verify_sweep(*sweep))
    except RuntimeError:
        return True


@pytest.mark.parametrize("name", sorted(DETECTED))
def test_mutant_is_detected(name, monkeypatch, time_bound, cold_sp_character):
    time_bound(30)
    monkeypatch.setattr(*DETECTED[name])
    assert _detected(), name


@pytest.mark.parametrize("name", sorted(EQUIVALENT))
def test_equivalent_mutant_passes_every_sweep(name, monkeypatch, time_bound, cold_sp_character):
    time_bound(30)
    expected = {
        (mu, n): characters.sp_character(mu, n)
        for n, size in SWEEPS
        for mu in enumerate_partitions(size, n)
    }
    characters.sp_character.cache_clear()
    monkeypatch.setattr(*EQUIVALENT[name])
    assert not _detected(), name
    assert {key: characters.sp_character(*key) for key in expected} == expected, name


def test_the_king_reference_sees_a_floor_cut_to_n_entries():
    cut = EQUIVALENT["King floor cut to n entries"][2]
    king = [T for T in enumerate_ssyt((1, 1), 2) if is_symplectic(T)]
    assert [rows_of(cols) for cols in enumerate_columns((1, 1), 2, cut(1))] != king
