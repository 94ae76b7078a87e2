"""Cross-model verification: five independent counts per (lambda, mu), plus
the bijection, weight-transport, and promotion-algebra property suites.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from .branching import _reduction, staircase_flags
from .characters import decompose, restricted_gl_character, sp_character
from .crystal import ab_sequences, column_dominance_violation, wt_ghat, wt_k
from .promotion import phi, pr, pr_inv, psi
from .shapes import Partition, canonical, conjugate, enumerate_partitions, format_partition
from .tableaux import (
    Rows,
    count_ssyt,
    enumerate_columns,
    enumerate_ssyt,
    freeze,
    rows_of,
    shape,
    validate_ssyt,
)


class BudgetExceeded(Exception):
    """Raised when a sweep would enumerate more tableaux than allowed."""


def _tally_key(weight) -> tuple:
    """Canonical partition key when the weight is dominant, else the raw tuple."""
    try:
        return canonical(weight)
    except ValueError:
        return tuple(weight)


@dataclass
class ModelRow:
    mu: tuple
    g_dom: int
    khw: int
    klw: int
    rec: int
    oracle: int

    @property
    def ok(self) -> bool:
        return self.g_dom == self.khw == self.klw == self.rec == self.oracle


@dataclass
class VerificationReport:
    """One shape's five-model rows, dominant tableaux, and highest and lowest (T, P) pairs."""

    n: int
    lam: Partition
    rows: list[ModelRow]
    sst_total: int
    sp_dim_sum: int
    dominant: list[Rows]
    highest: list[tuple[Rows, Rows]]
    lowest: list[tuple[Rows, Rows]]
    elapsed: float = 0.0

    @property
    def dim_ok(self) -> bool:
        """The tableau count equals the Sp dimension sum and count_ssyt."""
        return self.sst_total == self.sp_dim_sum == count_ssyt(self.lam, 2 * self.n)

    @property
    def passed(self) -> bool:
        return self.dim_ok and all(row.ok for row in self.rows)


def verify_shape(lam: Partition, n: int) -> VerificationReport:
    """Classify the columns of each tableau of shape lam once, count the classes
    per mu and compare with the character oracle; only kept tableaux get rows."""
    start = time.perf_counter()
    dominant, highest, lowest = [], [], []
    total = 0
    a, b = ab_sequences(n)
    for cols in enumerate_columns(lam, 2 * n):
        total += 1
        if column_dominance_violation(cols, n) is None:
            dominant.append(rows_of(cols))
        P = _reduction(cols)[0]
        is_highest, is_lowest = staircase_flags(P, a, b)
        if is_highest:
            highest.append((rows_of(cols), rows_of(P)))
        if is_lowest:
            lowest.append((rows_of(cols), rows_of(P)))
    oracle = decompose(restricted_gl_character(lam, n), n)
    # One tally per model, in ModelRow's field order; rec is the shape of P.
    tallies = [
        Counter(_tally_key(wt_ghat(T, n)) for T in dominant),
        Counter(_tally_key(wt_k(T, n)) for T, _ in highest),
        Counter(shape(P) for _, P in lowest),
        Counter(shape(P) for _, P in highest),
        Counter(oracle),
    ]
    rows = [ModelRow(mu, *(tally[mu] for tally in tallies)) for mu in sorted(set().union(*tallies))]
    sp_dim_sum = sum(
        m * sum(sp_character(mu, n).values()) for mu, m in oracle.items()
    )
    return VerificationReport(
        n=n,
        lam=lam,
        rows=rows,
        sst_total=total,
        sp_dim_sum=sp_dim_sum,
        dominant=dominant,
        highest=highest,
        lowest=lowest,
        elapsed=time.perf_counter() - start,
    )


def verify_sweep(n: int, max_size: int, budget: int | None = None) -> list[VerificationReport]:
    """Verify every shape with at most max_size boxes and 2n rows.

    The budget caps the cumulative number of tableaux; it is checked first.
    """
    shapes = enumerate_partitions(max_size, 2 * n)
    if budget is not None:
        for lam, spent in zip(shapes, accumulate(count_ssyt(lam, 2 * n) for lam in shapes)):
            if spent > budget:
                raise BudgetExceeded(
                    f"tableau budget {budget} exceeded at shape {format_partition(lam)}"
                )
    return [verify_shape(lam, n) for lam in shapes]


@dataclass
class SuiteResult:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def merge(self, other: "SuiteResult") -> None:
        self.checked += other.checked
        self.failures.extend(other.failures)


def bijection_suite(report: VerificationReport) -> SuiteResult:
    """Check that phi / psi restrict to bijections from the dominant tableaux
    of a verified shape onto its highest (resp. lowest) ones, transporting
    the weight (phi) and its negative (psi)."""
    out = SuiteResult()
    n, lam, dominant = report.n, report.lam, report.dominant
    highest = {freeze(T) for T, _ in report.highest}
    lowest = {freeze(T) for T, _ in report.lowest}
    phi_images = set()
    psi_images = set()
    for T in dominant:
        out.checked += 1
        FT = phi(T, n)
        ST = psi(T, n)
        phi_images.add(freeze(FT))
        psi_images.add(freeze(ST))
        w = wt_ghat(T, n)
        if wt_k(FT, n) != w:
            out.failures.append(f"phi weight transport fails at {T}")
        if wt_k(ST, n) != tuple(-c for c in w):
            out.failures.append(f"psi weight transport fails at {T}")
    if len(phi_images) != len(dominant):
        out.failures.append(f"phi not injective on shape {lam}")
    if len(psi_images) != len(dominant):
        out.failures.append(f"psi not injective on shape {lam}")
    if phi_images != highest:
        out.failures.append(f"phi image is not the highest set on shape {lam}")
    if psi_images != lowest:
        out.failures.append(f"psi image is not the lowest set on shape {lam}")
    return out


def _windows(n: int) -> list[tuple[int, int]]:
    N = 2 * n
    return [(a, b) for a in range(1, N + 1) for b in range(a, N + 1)]


def promotion_relations(T: Rows, n: int) -> SuiteResult:
    """Roundtrips, involutivity on adjacent windows, commutation of distant
    windows, and composition of overlapping windows, on one semistandard
    tableau.  The images of T itself under pr and pr_inv on every window are
    computed once and shared by the four relation families."""
    if not validate_ssyt(T):
        raise ValueError(f"not a semistandard tableau: {T}")
    out = SuiteResult()
    N = 2 * n
    windows = _windows(n)
    up = {w: pr(T, *w) for w in windows}
    down = {w: pr_inv(T, *w) for w in windows}
    for a, b in windows:
        out.checked += 1
        if pr(down[a, b], a, b) != T or pr_inv(up[a, b], a, b) != T:
            out.failures.append(f"pr roundtrip fails at {T} window ({a},{b})")
    for a in range(1, N):
        out.checked += 1
        if pr(up[a, a + 1], a, a + 1) != T:
            out.failures.append(f"pr_(a,a+1) not an involution at {T}, a={a}")
    for a, b in windows:
        for c, d in windows:
            if c - b >= 2:
                out.checked += 1
                if pr(up[c, d], a, b) != pr(up[a, b], c, d):
                    out.failures.append(
                        f"distant windows ({a},{b}),({c},{d}) do not commute at {T}"
                    )
    for a in range(1, N + 1):
        for b in range(a, N + 1):
            for c in range(b, N + 1):
                out.checked += 1
                if pr(up[b, c], a, b) != up[a, c]:
                    out.failures.append(
                        f"composition ({a},{b})({b},{c}) != ({a},{c}) at {T}"
                    )
    return out


def promotion_suite_exhaustive(n: int, max_size: int) -> SuiteResult:
    out = SuiteResult()
    for lam in enumerate_partitions(max_size, 2 * n):
        for T in enumerate_ssyt(lam, 2 * n):
            out.merge(promotion_relations(T, n))
    return out


def random_ssyt(lam: Partition, m: int, rng: random.Random) -> Rows:
    """One semistandard tableau of shape lam over [1, m], sampled box by box
    down each column (not uniformly; adequate for property trials)."""
    lam = canonical(lam)
    if len(lam) > m:
        raise ValueError("shape too long for the alphabet")
    cols = []
    for k in conjugate(lam):
        # Below a 0 sentinel, each box is at least its left neighbour, above
        # the box over it, and leaves room for the k - y - 1 boxes under it.
        col = [0]
        for y, left in zip(range(k), cols[-1] if cols else [1] * k):
            col.append(rng.randint(max(left, col[-1] + 1), m - k + y + 1))
        cols.append(col[1:])
    return rows_of(cols)


def random_shape(max_size: int, max_length: int, rng: random.Random) -> Partition:
    shapes = enumerate_partitions(max_size, max_length)
    return shapes[rng.randrange(len(shapes))]


def promotion_suite_random(n: int, trials: int, seed: int) -> SuiteResult:
    out = SuiteResult()
    rng = random.Random(seed)
    shapes = enumerate_partitions(8, 2 * n)  # drawn from as random_shape does
    for _ in range(trials):
        lam = shapes[rng.randrange(len(shapes))]
        T = random_ssyt(lam, 2 * n, rng)
        out.merge(promotion_relations(T, n))
    return out
