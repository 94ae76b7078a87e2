"""Independent character oracle for the restriction multiplicities.

Characters are dicts mapping integer weight tuples of length n to positive
multiplicities.  Both characters come from a transfer over the columns of
the shape, which lists no tableaux and shares no code with the enumerator
of the four models.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations
from math import prod
from operator import add, le

from .crystal import wt_ghat
from .shapes import Partition, canonical, conjugate, part
from .tableaux import Column, content, king_floor

Character = dict[tuple[int, ...], int]


def _add(chi: Character, weight: tuple[int, ...], m: int) -> None:
    new = chi.get(weight, 0) + m
    if new:
        chi[weight] = new
    else:
        chi.pop(weight, None)


@cache
def _left_neighbours(j: int | None, k: int, n: int, floor: Column) -> list[tuple[Column, list]]:
    """Each column of length k over [1, 2n] with the columns of length j (floor
    alone when j is None) that it is row-wise >=; read-only."""
    lefts = [floor] if j is None else list(combinations(range(1, 2 * n + 1), j))
    cols = combinations(range(1, 2 * n + 1), k)
    return [(col, [left for left in lefts if all(map(le, left, col))]) for col in cols]


def _column_transfer(lam: Partition, n: int, weight, floor: Column = ()) -> Character:
    """Weight multiset, under weight, of the semistandard tableaux of shape lam
    over [1, 2n] whose first column is row-wise >= floor, without listing one.

    A transfer over the column lengths of lam: the state maps each possible
    last column to a dict of partial weight -> number of column chains, and a
    column row-wise >= its left neighbour adds weight([col], n).  This is exact
    because weight is linear in the content, so additive over the columns.
    """
    state, j = {floor: {(0,) * n: 1}}, None
    for k in conjugate(canonical(lam)):
        step = {}
        for col, lefts in _left_neighbours(j, k, n, floor):
            merged = Counter()
            for left in lefts:
                if partial := state.get(left):
                    merged.update(partial)
            if merged:
                w = weight([col], n)
                step[col] = {tuple(map(add, v, w)): m for v, m in merged.items()}
        state, j = step, k
    total = Counter()
    for partial in state.values():
        total.update(partial)
    return total


def restricted_gl_character(lam: Partition, n: int) -> Character:
    """Weight multiset of all semistandard tableaux of shape lam, under wt_ghat."""
    return _column_transfer(lam, n, wt_ghat)


def sp_weight(T, n: int) -> tuple[int, ...]:
    """Coordinate i is T[2i-1] - T[2i]; T may be rows or columns."""
    c = content(T, 2 * n)
    return tuple(c[i] - c[i + 1] for i in range(0, 2 * n, 2))


@cache
def sp_character(mu: Partition, n: int) -> Character:
    """Weight multiset of the symplectic (King) tableaux of shape mu: column 1
    is row-wise >= king_floor(n).

    Cached; callers must treat the result as read-only.
    """
    if len(mu) > n:
        raise ValueError(f"mu has more than {n} rows")
    return _column_transfer(mu, n, sp_weight, king_floor(n))


def sp_dimension(mu: Partition, n: int) -> int:
    """Dimension of the Sp(2n) irreducible mu by Weyl's formula: the product
    of the l_i and of the l_i^2 - l_j^2 over i < j, l_i = mu_i + n - i + 1,
    divided by the same product at mu = ()."""
    if len(mu) > n:
        raise ValueError(f"mu has more than {n} rows")

    def weyl(ls) -> int:
        return prod(ls) * prod(a * a - b * b for a, b in combinations(ls, 2))

    rho = range(n, 0, -1)
    return weyl([part(mu, i) + r for i, r in enumerate(rho, start=1)]) // weyl(rho)


def decompose(chi: Character, n: int) -> dict[Partition, int]:
    """Peel off irreducible symplectic characters greedily.

    Repeatedly takes the lexicographically greatest remaining weight, which
    must be dominant with positive multiplicity, and subtracts that many
    copies of the corresponding symplectic character.  A negative, non-dominant
    or unremoved leading term is an internal consistency failure.
    """
    work = dict(chi)
    result: dict[Partition, int] = {}
    while work:
        top = max(work)
        m = work[top]
        if m < 0:
            raise RuntimeError(f"negative multiplicity {m} at {top}")
        if any(top[i] < top[i + 1] for i in range(len(top) - 1)) or top[-1] < 0:
            raise RuntimeError(f"leading weight {top} is not dominant")
        mu = canonical(top)
        result[mu] = m
        for weight, count in sp_character(mu, n).items():
            _add(work, weight, -m * count)
        if top in work:
            raise RuntimeError(f"subtracting {m} x sp_character({mu}) left the weight {top}")
    return result
