"""Named faults that the checker must detect.

Each fault replaces, by monkeypatch, the module global that the library
actually calls: characters binds king_floor, wt_ghat, sp_weight and le by
name and looks them up at call time, so patching them in tableaux, crystal
or operator would not reach the oracle; verify_shape calls the
staircase_flags that verify binds; branching looks up ab_sequences and
_reduced, and crystal _dominance_step, by name.  The cold_caches fixture
empties every table the sweep reads, so that a value cached by an earlier
sweep cannot hide a fault.  A fault is detected when verify_sweep(2, 5) or
verify_sweep(3, 4) gives a failing report or raises RuntimeError (exit 4
on the command line); a pass or a hang is a miss.  A fault that no sweep
can see stays in the table, marked equivalent, with the argument and the
check that does see it.
"""

import math
from operator import lt

import pytest

from artifact import branching, characters, cli, crystal, promotion, shapes, tableaux, verify
from artifact.shapes import enumerate_partitions
from artifact.tableaux import content, enumerate_columns, enumerate_ssyt, rows_of
from artifact.verify import verify_sweep
from helpers import SWEEP_CACHES, is_symplectic

SWEEPS = ((2, 5), (3, 4))
SP_WEIGHT = characters.sp_weight
STAIRCASE_FLAGS = verify.staircase_flags
AB_SEQUENCES = branching.ab_sequences
DOMINANCE_STEP = crystal._dominance_step


def _wt_ghat_pairing_i_with_2n_minus_i(T, n):
    c = content(T, 2 * n)
    return tuple(c[i] - c[2 * n - i - 2] for i in range(n))


def _sp_weight_negated(T, n):
    return tuple(-w for w in SP_WEIGHT(T, n))


def _reduced_mutant(parity: int, slack: int):
    """The body of branching._reduced, pairing a v of this parity, with the
    bound on v lowered by slack."""

    def reduced(col):
        before, kept = (), col[:1]
        for k in range(2, len(col) + 1):
            v = col[k - 1]
            pair = v % 2 == parity and col[k - 2] == v - 1 and v < k + 1 + len(before) - slack
            before, kept = kept, before if pair else kept + (v,)
        return kept

    return reduced


def _dominance_step_without_its_zero_sentinel(col, m, n):
    # A sentinel of -inf never bounds the last coordinate, so it may turn negative.
    return DOMINANCE_STEP(col, m[:n] + (-math.inf,), n)


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
    "ab_sequences with a and b swapped": (
        branching,
        "ab_sequences",
        lambda n: AB_SEQUENCES(n)[::-1],
    ),
    "_reduced bound lowered by 1": (branching, "_reduced", _reduced_mutant(0, 1)),
    "_reduced pairing an odd v": (branching, "_reduced", _reduced_mutant(1, 0)),
    "the dominance step without its zero sentinel": (
        crystal,
        "_dominance_step",
        _dominance_step_without_its_zero_sentinel,
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
def test_mutant_is_detected(name, monkeypatch, time_bound, cold_caches):
    time_bound(30)
    monkeypatch.setattr(*DETECTED[name])
    assert _detected(), name


@pytest.mark.parametrize("name", sorted(EQUIVALENT))
def test_equivalent_mutant_passes_every_sweep(name, monkeypatch, time_bound, cold_caches):
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


def test_the_cold_caches_fixture_clears_every_module_cache():
    """A table that cold_caches does not empty could hide a mutant behind a
    value that an earlier sweep cached."""
    modules = (branching, characters, cli, crystal, promotion, shapes, tableaux, verify)
    cached = {id(f) for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")}
    assert cached == {id(f) for f in SWEEP_CACHES}


def test_the_king_reference_sees_a_floor_cut_to_n_entries():
    cut = EQUIVALENT["King floor cut to n entries"][2]
    king = [T for T in enumerate_ssyt((1, 1), 2) if is_symplectic(T)]
    assert [rows_of(cols) for cols in enumerate_columns((1, 1), 2, cut(1))] != king
