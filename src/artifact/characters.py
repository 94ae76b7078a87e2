"""Independent character oracle for the restriction multiplicities.

Characters are dicts mapping integer weight tuples of length n to positive
multiplicities.  Both characters come from one Gelfand-Tsetlin transfer
over horizontal strips, which lists no tableaux and shares no code with the
enumerator, the King condition or the weights of the four models.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import prod
from operator import add

from .shapes import Partition, canonical, part
from .tableaux import content

Character = dict[tuple[int, ...], int]


def _add(chi: Character, weight: tuple[int, ...], m: int) -> None:
    new = chi.get(weight, 0) + m
    if new:
        chi[weight] = new
    else:
        chi.pop(weight, None)


def _strip_transfer(lam: Partition, n: int, rows) -> Character:
    """Weight multiset, under sp_weight, of the semistandard tableaux of shape
    lam over [1, 2n] whose entries <= j fill at most rows(j) rows for every
    j, without listing one.

    Gelfand-Tsetlin: the letters 2n, ..., 1 each remove a horizontal strip
    nu/mu (nu_{i+1} <= mu_i <= nu_i), the boxes of that letter, so the state
    maps each inner shape mu (zero-padded to len(lam) parts) to a dict of
    partial weight -> number of chains, and the d letters j of a strip add
    d * sp_weight([[j]], n)."""
    lam = canonical(lam)
    state = {lam: {(0,) * n: 1}}
    for j in range(2 * n, 0, -1):
        unit, cap, step = sp_weight([[j]], n), rows(j - 1), {}
        for nu, partial in state.items():
            size = sum(nu)
            tops = [p + 1 for p in nu[:cap]] + [1] * (len(nu) - cap)  # mu_i = 0 past the cap
            for mu in product(*map(range, nu[1:] + (0,), tops)):
                shift = [(size - sum(mu)) * u for u in unit]
                merged = step.setdefault(mu, {})
                for v, m in partial.items():
                    w = tuple(map(add, v, shift))
                    merged[w] = merged.get(w, 0) + m
        state = step
    return state.get((0,) * len(lam), {})


def restricted_gl_character(lam: Partition, n: int) -> Character:
    """Weight multiset of all semistandard tableaux of shape lam over [1, 2n]
    under wt_ghat: the strip transfer with GL's own row cap j.  It pairs the
    letters (1, 2), (3, 4), ... as sp_weight does, not (1, 2n), (2, 2n - 1),
    ... as wt_ghat does; the multisets agree since s_lam is symmetric."""
    return _strip_transfer(lam, n, lambda j: j)


def sp_weight(T, n: int) -> tuple[int, ...]:
    """Coordinate i is T[2i-1] - T[2i]; T may be rows or columns."""
    c = content(T, 2 * n)
    return tuple(c[i] - c[i + 1] for i in range(0, 2 * n, 2))


def king_rows(j: int) -> int:
    """King's rule "row y starts at an entry >= 2y - 1" as a row cap: the
    entries <= j of a symplectic tableau fill at most (j + 1) // 2 rows."""
    return (j + 1) // 2


@cache
def sp_character(mu: Partition, n: int) -> Character:
    """Weight multiset of the symplectic (King) tableaux of shape mu: the
    strip transfer under the row cap king_rows.

    Cached; callers must treat the result as read-only.
    """
    if len(mu) > n:
        raise ValueError(f"mu has more than {n} rows")
    return _strip_transfer(mu, n, king_rows)


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
