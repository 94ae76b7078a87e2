"""Named faults that the checker must detect.

Each fault replaces, by monkeypatch, the module global that the library
actually calls: characters binds symplectic_columns, wt_ghat and sp_weight
by name, so patching them in tableaux or crystal would not reach the
oracle.  A fault is detected when verify_sweep(2, 5) or verify_sweep(3, 4)
gives a failing report or raises RuntimeError (exit 4 on the command
line); a pass or a hang is a miss.  A fault that no sweep can see stays in
the table, marked equivalent, with the argument and the check that does
see it.
"""

import pytest

from artifact import characters
from artifact.shapes import enumerate_partitions
from artifact.tableaux import content, enumerate_columns, enumerate_ssyt, is_symplectic, rows_of
from artifact.verify import verify_sweep

SWEEPS = ((2, 5), (3, 4))
SP_WEIGHT = characters.sp_weight


def _king_floor(floor):
    """symplectic_columns with floor(n) in place of King's 1, 3, ..., 4n - 1."""
    return lambda mu, n: enumerate_columns(mu, 2 * n, floor(n))


def _wt_ghat_pairing_i_with_2n_minus_i(T, n):
    c = content(T, 2 * n)
    return tuple(c[i] - c[2 * n - i - 2] for i in range(n))


def _sp_weight_negated(T, n):
    return tuple(-w for w in SP_WEIGHT(T, n))


# name -> (global of characters, replacement)
DETECTED = {
    "King floor 1, 2, 3, ...": (
        "symplectic_columns",
        _king_floor(lambda n: tuple(range(1, 2 * n + 1))),
    ),
    "no King floor": ("symplectic_columns", _king_floor(lambda n: ())),
    "King relaxed to 2y - 2 (floor 0, 2, 4, ...)": (
        "symplectic_columns",
        _king_floor(lambda n: tuple(range(0, 4 * n - 1, 2))),
    ),
    "King floor 2, 4, 6, ...": (
        "symplectic_columns",
        _king_floor(lambda n: tuple(range(2, 4 * n + 1, 2))),
    ),
    "oracle wt_ghat pairs i with 2n - i": ("wt_ghat", _wt_ghat_pairing_i_with_2n_minus_i),
}

EQUIVALENT = {
    # Sp(2n) characters are invariant under the Weyl group of type C_n,
    # sign changes included, so negating every weight gives the same
    # multiset: each sp_character, and so each decomposition, is unchanged.
    "sp_weight negated": ("sp_weight", _sp_weight_negated),
    # The cut floor bounds rows 1..n only, and sp_character rejects a mu
    # with more than n rows before it generates anything, so every
    # character it returns is unchanged.  The King reference in
    # test_tableaux sees it: at mu = (1, 1), n = 1 the column (1, 2) passes.
    "King floor cut to n entries": (
        "symplectic_columns",
        _king_floor(lambda n: tuple(range(1, 2 * n, 2))),
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
    monkeypatch.setattr(characters, *DETECTED[name])
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
    monkeypatch.setattr(characters, *EQUIVALENT[name])
    assert not _detected(), name
    assert {key: characters.sp_character(*key) for key in expected} == expected, name


def test_the_king_reference_sees_a_floor_cut_to_n_entries():
    cut = EQUIVALENT["King floor cut to n entries"][1]
    king = [T for T in enumerate_ssyt((1, 1), 2) if is_symplectic(T)]
    assert [rows_of(cols) for cols in cut((1, 1), 1)] != king
