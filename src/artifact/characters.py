"""Independent character oracle for the restriction multiplicities.

Characters are dicts mapping integer weight tuples of length n to positive
multiplicities.
"""

from __future__ import annotations

from functools import cache

from .crystal import wt_ghat
from .shapes import Partition, canonical
from .tableaux import content, enumerate_columns, symplectic_columns

Character = dict[tuple[int, ...], int]


def _add(chi: Character, weight: tuple[int, ...], m: int) -> None:
    new = chi.get(weight, 0) + m
    if new:
        chi[weight] = new
    else:
        chi.pop(weight, None)


def restricted_gl_character(lam: Partition, n: int) -> Character:
    """Weight multiset of all semistandard tableaux of shape lam, under wt_ghat."""
    chi: Character = {}
    for cols in enumerate_columns(lam, 2 * n):
        _add(chi, wt_ghat(cols, n), 1)
    return chi


def sp_weight(T, n: int) -> tuple[int, ...]:
    """Coordinate i is T[2i-1] - T[2i]; T may be rows or columns."""
    c = content(T, 2 * n)
    return tuple(c[i] - c[i + 1] for i in range(0, 2 * n, 2))


@cache
def sp_character(mu: Partition, n: int) -> Character:
    """Weight multiset of the symplectic (King) tableaux of shape mu.

    Cached; callers must treat the result as read-only.
    """
    if len(mu) > n:
        raise ValueError(f"mu has more than {n} rows")
    chi: Character = {}
    for cols in symplectic_columns(mu, n):
        _add(chi, sp_weight(cols, n), 1)
    return chi


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


def branching_multiplicity(lam: Partition, mu: Partition, n: int) -> int:
    """Multiplicity of the symplectic irreducible mu in the restriction of lam."""
    return decompose(restricted_gl_character(lam, n), n).get(canonical(mu), 0)
