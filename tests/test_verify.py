"""The classes verify_shape keeps for the bijection suite, the tableau
budget of a sweep, and the draws of the random promotion suite."""

import random

import pytest

from artifact import verify
from artifact.branching import is_k_highest, is_k_lowest, p_aii
from artifact.crystal import is_ghat_dominant
from artifact.shapes import enumerate_partitions
from artifact.tableaux import enumerate_ssyt
from artifact.verify import (
    BudgetExceeded,
    SuiteResult,
    bijection_suite,
    random_shape,
    random_ssyt,
    verify_shape,
    verify_sweep,
)


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
