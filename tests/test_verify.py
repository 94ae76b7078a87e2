"""The classes verify_shape keeps for the bijection suite, the tableau
budget of a sweep, the draws of the random promotion suite, and the guards
that catch an enumeration fault shared by the models and the oracle."""

import hashlib
import json
import random

import pytest

from artifact import characters, tableaux, verify
from artifact.branching import p_aii
from artifact.crystal import is_ghat_dominant
from artifact.cli import EXIT_FAIL, main
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
from helpers import is_k_highest, is_k_lowest, random_shape


@pytest.mark.parametrize("n, max_size", [(2, 6), (3, 4)])
def test_report_classes_match_a_fresh_classification(n, max_size):
    for lam in enumerate_partitions(max_size, 2 * n):
        report = verify_shape(lam, n)
        tableaux = list(enumerate_ssyt(lam, 2 * n))
        assert report.dominant == [T for T in tableaux if is_ghat_dominant(T, n)], lam
        assert report.highest == [(T, p_aii(T)) for T in tableaux if is_k_highest(T, n)], lam
        assert report.lowest == [(T, p_aii(T)) for T in tableaux if is_k_lowest(T, n)], lam


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


def test_shared_fault_on_every_side_fails_the_hook_content_count(
    monkeypatch, capsys, time_bound
):
    """Shape (2, 2) missing on the model side and from littlewood_branching:
    the five models then agree on no row at all, and the third side,
    count_ssyt((2, 2), 4) = 20 by the hook-content formula, fails the
    dimension check against no tableaux and a Weyl dimension sum of 0."""
    time_bound(30)
    monkeypatch.setattr(
        verify, "enumerate_columns", _without_shape_22(tableaux.enumerate_columns, tuple)
    )
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
    """Shape (2, 2) missing on the model side: the oracle, which lists no
    tableaux, still finds mu = (), (1, 1) and (2, 2) once each, where the
    four models find nothing, and the Weyl dimensions of those three sum to
    20 against no tableaux."""
    time_bound(30)
    monkeypatch.setattr(
        verify, "enumerate_columns", _without_shape_22(tableaux.enumerate_columns, tuple)
    )
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
