"""End-to-end acceptance checks.

Each test prints exactly one "criterion N: PASS/FAIL (...)" line before
asserting, so the run log doubles as the verification report.
"""

import random
import time
from itertools import combinations

from artifact.branching import (
    n2_condition_khw,
    n2_condition_klw,
    n2_family_dominant,
    n2_family_khw,
    n2_family_klw,
    p_aii,
    q_aii,
    red,
    rem,
)
from artifact.crystal import (
    crystal_e,
    crystal_f,
    is_ghat_dominant,
    tableau_e,
    tableau_eps,
    tableau_f,
    tableau_phi,
    tensor_e,
    tensor_f,
    wt_k,
)
from artifact.promotion import (
    cells_from_rows,
    phi,
    phi_factors,
    pr,
    pr_inv,
    psi_factors,
    rect,
    res,
)
from artifact.shapes import enumerate_partitions
from artifact.tableaux import (
    column_star,
    enumerate_ssyt,
    insertion_tableau,
    row_word,
    shape,
    validate_ssyt,
)
from artifact.verify import (
    SuiteResult,
    bijection_suite,
    promotion_suite_exhaustive,
    promotion_suite_random,
    random_ssyt,
    verify_shape,
    verify_sweep,
)
from helpers import (
    column_to_rows,
    is_k_highest,
    is_k_lowest,
    knuth_equivalent,
    random_shape,
    skew_row_word,
)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} ({detail})"
    print(line)
    return line


def test_criterion_1_goldens():
    start = time.perf_counter()
    checks = [
        rem(column_to_rows([2, 3, 4])) == {3, 4},
        red(column_to_rows([1, 2, 4])) == [[4]],
        p_aii([[1, 2], [2, 3], [4]]) == [[2]],
        q_aii([[1, 2], [2, 3], [4]])
        == {(2, 1): 1, (2, 2): 1, (1, 2): 2, (1, 3): 2},
        wt_k([[1, 1, 2, 2, 3, 3], [2, 2, 3, 3, 4], [3, 4, 4]], 2) == (2, 2),
        column_star([[4]], [[2], [3]]) == [[2], [3], [4]],
        crystal_f([1, 2], 1) == [2, 2],
        crystal_e([2, 1], 1) is None,
        pr_inv([[1, 2, 3], [2, 4], [4]], 2, 4) == [[1, 2, 4], [3, 3], [4]],
        pr([[1, 2, 4], [3, 3], [4]], 2, 4) == [[1, 2, 3], [2, 4], [4]],
        res([[1, 2, 2, 3], [4, 5, 6], [6, 6]], 1, 2, 5, 6)
        == [[1, 2, 2], [5, 6, 6], [6]],
        phi([[1, 1], [2, 6], [5]], 3) == [[1, 2], [2, 3], [4]],
        phi_factors(2) == [(1, 4)],
        psi_factors(2) == [(2, 3), (2, 4)],
        is_ghat_dominant([[1, 1], [2, 6], [5]], 3),
    ]
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    line = _report(1, ok, f"{sum(checks)}/{len(checks)} goldens, {elapsed:.2f}s < 1s")
    assert ok, line


def test_criterion_2_rank2_sweep():
    start = time.perf_counter()
    reports = verify_sweep(2, 6)
    elapsed = time.perf_counter() - start
    tableaux = sum(r.sst_total for r in reports)
    bad = [r for r in reports if not r.passed]
    ok = not bad and elapsed < 30.0
    line = _report(
        2,
        ok,
        f"{len(reports)} shapes, {tableaux} tableaux, five counts and "
        f"dimension identity agree, {elapsed:.1f}s < 30s",
    )
    assert ok, line


def test_criterion_3_rank3_sweep():
    start = time.perf_counter()
    reports = verify_sweep(3, 5)
    elapsed = time.perf_counter() - start
    tableaux = sum(r.sst_total for r in reports)
    bad = [r for r in reports if not r.passed]
    ok = not bad and elapsed < 300.0
    line = _report(
        3,
        ok,
        f"{len(reports)} shapes, {tableaux} tableaux, five counts and "
        f"dimension identity agree, {elapsed:.1f}s < 300s",
    )
    assert ok, line


def test_criterion_4_bijections():
    start = time.perf_counter()
    total = SuiteResult()
    for lam in enumerate_partitions(6, 4):
        total.merge(bijection_suite(verify_shape(lam, 2)))
    for lam in enumerate_partitions(5, 6):
        total.merge(bijection_suite(verify_shape(lam, 3)))
    elapsed = time.perf_counter() - start
    ok = total.passed
    line = _report(
        4,
        ok,
        f"{total.checked} dominant tableaux transported, images equal the "
        f"highest/lowest sets, {len(total.failures)} failures, {elapsed:.1f}s",
    )
    assert ok, line + "; " + "; ".join(total.failures[:3])


def test_criterion_5_promotion_algebra():
    start = time.perf_counter()
    exhaustive = promotion_suite_exhaustive(2, 5)
    randomized = promotion_suite_random(3, 1000, seed=20260823)
    elapsed = time.perf_counter() - start
    ok = exhaustive.passed and randomized.passed
    line = _report(
        5,
        ok,
        f"{exhaustive.checked} exhaustive rank-2 checks, "
        f"{randomized.checked} randomized rank-3 checks over 1000 tableaux, "
        f"{len(exhaustive.failures) + len(randomized.failures)} failures, "
        f"{elapsed:.1f}s",
    )
    assert ok, line + "; " + "; ".join((exhaustive.failures + randomized.failures)[:3])


def _crystal_suite():
    failures = []
    checked = 0
    # seminormality and closure, exhaustively in rank 2
    for lam in enumerate_partitions(5, 4):
        for T in enumerate_ssyt(lam, 4):
            for i in (1, 2, 3):
                checked += 1
                cur, up = T, 0
                while (nxt := tableau_e(cur, i)) is not None:
                    cur, up = nxt, up + 1
                cur, down = T, 0
                while (nxt := tableau_f(cur, i)) is not None:
                    cur, down = nxt, down + 1
                    if not validate_ssyt(cur) or shape(cur) != lam:
                        failures.append(f"closure broken at {T} i={i}")
                if up != tableau_eps(T, i) or down != tableau_phi(T, i):
                    failures.append(f"string data wrong at {T} i={i}")
    # tensor action against the product tableau
    for clen in (1, 2):
        for centries in combinations(range(1, 5), clen):
            C = column_to_rows(list(centries))
            for lam in enumerate_partitions(3, 4):
                for S in enumerate_ssyt(lam, 4):
                    P = column_star(C, S)
                    for i in (1, 2, 3):
                        for tensor_op, tab_op in (
                            (tensor_e, tableau_e),
                            (tensor_f, tableau_f),
                        ):
                            checked += 1
                            pair = tensor_op(row_word(C), row_word(S), i)
                            direct = tab_op(P, i)
                            if pair is None:
                                good = direct is None
                            else:
                                good = direct is not None and insertion_tableau(
                                    pair[0] + pair[1]
                                ) == insertion_tableau(row_word(direct))
                            if not good:
                                failures.append(
                                    f"tensor/product mismatch at C={C} S={S} i={i}"
                                )
    # rectification: order independence and Knuth class, randomized in rank 3
    rng = random.Random(97)
    for _ in range(120):
        T = random_ssyt(random_shape(8, 6, rng), 6, rng)
        a = rng.randint(1, 6)
        cells = {
            box: (None if e < a else e) for box, e in cells_from_rows(T).items()
        }
        checked += 1
        R = rect(cells)
        word = skew_row_word(cells)
        if R != insertion_tableau(word) or not knuth_equivalent(row_word(R), word):
            failures.append(f"rectification broken at {T} a={a}")
    return checked, failures


def test_criterion_6_crystal_suite():
    start = time.perf_counter()
    checked, failures = _crystal_suite()
    elapsed = time.perf_counter() - start
    ok = not failures
    line = _report(
        6,
        ok,
        f"{checked} crystal/rectification checks, {len(failures)} failures, "
        f"{elapsed:.1f}s",
    )
    assert ok, line + "; " + "; ".join(failures[:3])


def test_criterion_7_closed_form_equivalences():
    start = time.perf_counter()
    legs = {"dominant": [], "highest": [], "lowest-operator": [], "lowest-family": []}
    total = 0
    for lam in enumerate_partitions(16, 4):
        if lam and lam[0] > 4:
            continue
        for T in enumerate_ssyt(lam, 4):
            total += 1
            if n2_family_dominant(T) != is_ghat_dominant(T, 2):
                legs["dominant"].append(T)
            flag = is_k_highest(T, 2)
            if n2_condition_khw(T) != flag or n2_family_khw(T) != flag:
                legs["highest"].append(T)
            low = is_k_lowest(T, 2)
            if n2_condition_klw(T) != low:
                legs["lowest-operator"].append(T)
            if n2_family_klw(T) != low:
                legs["lowest-family"].append(T)
    elapsed = time.perf_counter() - start
    ok = not any(legs.values())
    parts = []
    for name, bad in legs.items():
        if bad:
            parts.append(f"{name}: {len(bad)} mismatches, first {bad[0]}")
        else:
            parts.append(f"{name}: ok")
    line = _report(7, ok, f"{total} tableaux in the 4x4 box; " + "; ".join(parts) + f"; {elapsed:.1f}s")
    assert ok, line
