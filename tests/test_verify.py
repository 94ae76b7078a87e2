"""The classes verify_shape keeps for the bijection suite, the tableau
budget of a sweep, the draws of the random promotion suite, and the guards
that catch an enumeration fault shared by the models and the oracle."""

import hashlib
import json
import random

import pytest

from artifact import branching, characters, crystal, tableaux, verify
from artifact.branching import p_aii
from artifact.crystal import is_ghat_dominant
from artifact.cli import EXIT_FAIL, EXIT_PASS, main
from artifact.shapes import enumerate_partitions
from artifact.tableaux import enumerate_ssyt
from artifact.verify import (
    BudgetExceeded,
    ModelRow,
    SuiteResult,
    bijection_suite,
    random_ssyt,
    verify_shape,
    verify_sweep,
)
from helpers import (
    SWEEP_CACHES,
    is_k_highest,
    is_k_lowest,
    random_shape,
    verify_shape_reference,
)


@pytest.mark.parametrize("n, max_size", [(2, 6), (3, 4)])
def test_report_classes_match_a_fresh_classification(n, max_size):
    for lam in enumerate_partitions(max_size, 2 * n):
        report = verify_shape(lam, n)
        tableaux = list(enumerate_ssyt(lam, 2 * n))
        assert report.dominant == [T for T in tableaux if is_ghat_dominant(T, n)], lam
        assert report.highest == [(T, p_aii(T)) for T in tableaux if is_k_highest(T, n)], lam
        assert report.lowest == [(T, p_aii(T)) for T in tableaux if is_k_lowest(T, n)], lam


@pytest.mark.parametrize("n, max_size", [(2, 8), (3, 6), (4, 5)])
def test_verify_shape_matches_its_former_body(n, max_size, cold_caches):
    """Every report field but the time, list order included, equals that of
    the former body, which tests each tableau for dominance and runs its suc
    chain; each side starts from empty caches."""
    shapes = enumerate_partitions(max_size, 2 * n)
    reports = [verify_shape(lam, n) for lam in shapes]
    for cached in SWEEP_CACHES:
        cached.cache_clear()
    for report, lam in zip(reports, shapes):
        assert report._replace(elapsed=0.0) == verify_shape_reference(lam, n), lam


def test_the_sweep_runs_no_second_suc_chain(monkeypatch):
    """P and both staircase flags come from the search's own chain: the
    sweep passes with the single-tableau suc loop made to raise, wherever a
    module binds it."""

    def refused(cols):
        raise AssertionError("verify_shape ran _suc_chain")

    for module in (branching, verify):
        if hasattr(module, "_suc_chain"):
            monkeypatch.setattr(module, "_suc_chain", refused)
    assert all(report.passed for report in verify_sweep(3, 6))


def test_verify_shape_reports_a_suc_chain_without_fixed_point(monkeypatch, time_bound):
    """A reinsertion that always adds an entry makes every first column start
    one more level: the search's finish stops at the size budget."""
    time_bound(10)
    monkeypatch.setattr(branching, "_reinserted", lambda col: col + (col[-1] + 1,))
    with pytest.raises(RuntimeError, match="^suc did not stabilize within the size budget$"):
        verify_shape((2, 1), 2)


def test_a_wide_shape_is_verified_without_its_tableaux(capsys, time_bound):
    """(3000,) over [1, 4] has 4,509,005,501 tableaux: the count is a transfer
    over the last column, and each row is its own P, so the staircase search
    keeps the row of 2s and the row of 1s and cuts every other row at its
    first column that is neither.  The command line takes (3000,) at n = 1."""
    time_bound(10)
    report = verify_shape((3000,), 2)
    assert report.passed
    assert report.sst_total == 4_509_005_501
    assert (len(report.highest), len(report.lowest)) == (1, 1)
    assert main(["branch", "--n", "1", "--lambda", "3000"]) == EXIT_PASS
    assert "3000\t3000\t1\t1\t1\t1\t1\tok" in capsys.readouterr().out


def test_bijection_suite_catches_a_wrong_phi(monkeypatch):
    report = verify_shape((2, 1), 2)
    target = report.dominant[0]
    outsider = next(T for T in enumerate_ssyt((2, 1), 4) if not is_k_highest(T, 2))
    true_phi = verify.phi
    monkeypatch.setattr(verify, "phi", lambda T, n: outsider if T == target else true_phi(T, n))
    failures = bijection_suite(report).failures
    assert "phi image is not the highest set on shape (2, 1)" in failures


def test_bijection_suite_catches_a_missing_highest_tableau():
    report = verify_shape((2, 1), 2)
    assert bijection_suite(report).passed
    report.highest.pop()
    assert bijection_suite(report).failures == ["phi image is not the highest set on shape (2, 1)"]


def test_budget_boundary():
    reports = verify_sweep(2, 4)
    exact = sum(r.sst_total for r in reports)
    assert [r.rows for r in verify_sweep(2, 4, budget=exact)] == [r.rows for r in reports]
    with pytest.raises(BudgetExceeded) as info:
        verify_sweep(2, 4, budget=exact - 1)
    assert str(info.value) == f"tableau budget {exact - 1} exceeded at shape 1,1,1,1"


def test_random_suite_draws_the_random_shape_sequence(monkeypatch):
    drawn = []

    def record(T, n):
        drawn.append(T)
        return SuiteResult()

    monkeypatch.setattr(verify, "promotion_relations", record)
    verify.promotion_suite_random(3, 40, 7)
    rng = random.Random(7)
    assert drawn == [random_ssyt(random_shape(8, 6, rng), 6, rng) for _ in range(40)]


# sha256 of json.dumps of 200 tableaux drawn as promotion_suite_random draws
# them, taken from the former row-based body of random_ssyt.
RANDOM_SSYT_GOLDENS = {
    (7, 2): "66f21a9271ee13c146cbb3c27e285368dad8b99e3f37d8e727ee09073aad7bc8",
    (7, 3): "c90ede7014b8ec174d83ed5f1ac5fc2d603b8eb0e11d8949b3e2d5ca6e37739f",
    (7, 4): "0fd31cccc4f6f181536a97aea53f615605a05a8a5a8b1eaafc7e1b5e19902e24",
    (20260823, 2): "06aecf3a5d180737081e57a1544ea3be897238e0f015b879c8597c09d86caf76",
    (20260823, 3): "4641bee61a62bdaa988dcde63a1719887597eb597e4c67d36f63707fce905e4f",
    (20260823, 4): "6a0543342917174b2e1742e22040065ea3ef56ec236e819d74b6247a0d23cc14",
}


@pytest.mark.parametrize("seed, n", sorted(RANDOM_SSYT_GOLDENS))
def test_random_ssyt_draws_are_golden(seed, n):
    rng = random.Random(seed)
    shapes = enumerate_partitions(8, 2 * n)
    drawn = [random_ssyt(shapes[rng.randrange(len(shapes))], 2 * n, rng) for _ in range(200)]
    assert hashlib.sha256(json.dumps(drawn).encode()).hexdigest() == RANDOM_SSYT_GOLDENS[seed, n]


def _without_shape_22(function, empty):
    """The function, except that shape (2, 2) gives empty()."""
    return lambda lam, *rest: empty() if tuple(lam) == (2, 2) else function(lam, *rest)


def _drop_shape_22_from_the_enumerator(monkeypatch):
    """Shape (2, 2) missing from the staircase search, which the highest,
    lowest and recording models walk, and from the tableau count."""
    monkeypatch.setattr(
        verify, "staircase_search", _without_shape_22(branching.staircase_search, tuple)
    )
    monkeypatch.setattr(verify, "count_columns", _without_shape_22(tableaux.count_columns, int))


def _drop_shape_22_from_the_model_walks(monkeypatch):
    """Shape (2, 2) missing from the staircase search and the tableau count,
    and from the dominant search."""
    _drop_shape_22_from_the_enumerator(monkeypatch)
    monkeypatch.setattr(
        verify, "dominant_columns", _without_shape_22(crystal.dominant_columns, list)
    )


def test_shared_fault_on_every_side_fails_the_hook_content_count(
    monkeypatch, capsys, time_bound
):
    """Shape (2, 2) missing from both model-side walks and from
    littlewood_branching: the five models then agree on no row at all, and
    the third side, count_ssyt((2, 2), 4) = 20 by the hook-content formula,
    fails the dimension check against no tableaux and a Weyl dimension sum
    of 0."""
    time_bound(30)
    _drop_shape_22_from_the_model_walks(monkeypatch)
    monkeypatch.setattr(
        verify, "littlewood_branching", _without_shape_22(characters.littlewood_branching, dict)
    )
    failing = [r for r in verify_sweep(2, 6) if not r.passed]
    assert [(r.lam, r.rows, r.sst_total, r.sp_dim_sum) for r in failing] == [((2, 2), [], 0, 0)]
    assert tableaux.count_ssyt((2, 2), 4) == 20
    assert main(["verify", "--n", "2", "--max-size", "6"]) == EXIT_FAIL
    assert "dimension identity\tMISMATCH" in capsys.readouterr().out


def test_shared_fault_on_the_model_side_fails_the_oracle_rows_and_dimension_check(
    monkeypatch, capsys, time_bound
):
    """Shape (2, 2) missing from both model-side walks: the oracle, which
    lists no tableaux, still finds mu = (), (1, 1) and (2, 2) once each,
    where the four models find nothing, and the Weyl dimensions of those
    three sum to 20 against no tableaux."""
    time_bound(30)
    _drop_shape_22_from_the_model_walks(monkeypatch)
    reports = verify_sweep(2, 6)
    failing = [r for r in reports if not r.passed]
    assert [(r.lam, r.sst_total, r.sp_dim_sum) for r in failing] == [((2, 2), 0, 20)]
    assert failing[0].rows == [
        ModelRow(mu, g_dom=0, khw=0, klw=0, rec=0, oracle=1) for mu in ((), (1, 1), (2, 2))
    ]
    assert not any(row.ok for row in failing[0].rows)
    assert not failing[0].dim_ok
    assert main(["verify", "--n", "2", "--max-size", "6"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "2,2\t2,2\t1\t0\t0\t0\t0\tMISMATCH" in out
    assert "dimension identity\tMISMATCH" in out


def test_a_fault_of_the_enumerator_alone_shows_on_the_dominant_column(
    monkeypatch, capsys, time_bound
):
    """Shape (2, 2) missing from the staircase search and the tableau count
    only: the dominant search walks its own columns, so g_dominant still
    finds mu = (), (1, 1) and (2, 2) once each, as the oracle does, against
    0 in the three models that walk the staircase search."""
    time_bound(30)
    _drop_shape_22_from_the_enumerator(monkeypatch)
    failing = [r for r in verify_sweep(2, 6) if not r.passed]
    assert [(r.lam, r.sst_total, r.sp_dim_sum) for r in failing] == [((2, 2), 0, 20)]
    assert failing[0].rows == [
        ModelRow(mu, g_dom=1, khw=0, klw=0, rec=0, oracle=1) for mu in ((), (1, 1), (2, 2))
    ]
    assert len(failing[0].dominant) == 3
    assert main(["verify", "--n", "2", "--max-size", "6"]) == EXIT_FAIL
    assert "2,2\t2,2\t1\t1\t0\t0\t0\tMISMATCH" in capsys.readouterr().out
