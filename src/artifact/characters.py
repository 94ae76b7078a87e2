"""Independent character oracle for the restriction multiplicities.

The oracle is Littlewood's restriction rule with King's modification
rule, which needs no weights, lists no tableaux and counts each skew
diagram's LR sum once per process, cached by skew_key.  The characters below
it are its test reference: dicts mapping integer weight tuples of length n
to positive multiplicities, both from one Gelfand-Tsetlin transfer over
horizontal strips, peeled by decompose.  Nothing here shares code with the
enumerator, the King condition or the weights of the four models.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import prod
from operator import add, sub

from .shapes import Partition, canonical, part
from .tableaux import content

Character = dict[tuple[int, ...], int]


def king_modification(mu: Partition, n: int) -> tuple[int, Partition] | None:
    """(sign, nu) with sp_mu = sign * sp_nu for Sp(2n), or None when sp_mu
    vanishes (King 1971; Koike-Terada 1987).

    While p = len(mu) > n, the rim hook of length h = 2p - 2n - 2 that ends
    in the first column is removed: on the beads mu_i + p - i, the bead h
    moves to 0.  The term is 0 when h = 0 or no bead is h, and each removal
    multiplies by (-1) ** (the columns of the hook)."""
    sign = 1
    while (p := len(mu)) > n:
        h = 2 * p - 2 * n - 2
        beads = [m + p - i for i, m in enumerate(mu, start=1)]
        if h == 0 or h not in beads:
            return None
        i = beads.index(h)  # the hook spans rows i + 1, ..., p: p - i rows
        sign *= (-1) ** (h - (p - i) + 1)
        beads = beads[:i] + beads[i + 1 :] + [0]
        mu = canonical(b - p + k for k, b in enumerate(beads, start=1))
    return sign, mu


def even_column_lr_count(lam: Partition, mu: Partition) -> int:
    """Sum of the Littlewood-Richardson coefficients c^lam_{mu delta} over
    the delta with even columns (delta_1 = delta_2, delta_3 = delta_4, ...).

    Counts the LR fillings of lam/mu, row by row: rows weakly increase,
    columns strictly increase and the reverse reading word is a lattice
    word.  Row r (0-based) holds the letters 1, ..., r + 1, and its filling
    is the chain ends[k] = mu_r + (its entries <= k).  Columns are strict
    when ends[k] <= above[k - 1], the chain of the row above.  A row is
    read right to left, so its letters k come before its letters k - 1,
    and the word stays a lattice word when the count of k, with this
    row's, is at most the count of k - 1 in the rows above (before).

    A transfer over rows: the state maps (the chain of the last row filled,
    the letter counts so far) to the number of fillings, and the chains of
    one row grow letter by letter, so the stack does not grow with lam."""
    state = {((part(lam, 1),), (0,) * (len(lam) + len(lam) % 2)): 1}
    for r, end in enumerate(lam):
        step = {}
        for (above, before), m in state.items():
            chains = [(part(mu, r + 1),)]
            for k in range(1, r + 2):  # the next letter; 1s have no lattice bound
                slack = before[k - 2] - before[k - 1] if k > 1 else end
                chains = [
                    ends + (e,)
                    for ends in chains
                    for e in range(
                        ends[-1] if k <= r else end, min(end, above[k - 1], ends[-1] + slack) + 1
                    )
                ]
            for ends in chains:
                count = (*map(add, before, map(sub, ends[1:], ends)), *before[r + 1 :])
                step[ends, count] = step.get((ends, count), 0) + m
        state = step
    return sum(m for (_, count), m in state.items() if count[::2] == count[1::2])


def skew_key(lam: Partition, mu: Partition) -> tuple:
    """lam/mu up to translating and reordering its edge-connected components
    (Macdonald I.5): its nonempty rows (mu_r, lam_r), cut where lam_(r+1) <=
    mu_r, each component moved to column 0, in sorted order."""
    comps = []
    for m, l in zip(mu + (0,) * len(lam), lam):
        if m < l:
            comps += [] if comps and l > comps[-1][-1][0] else [[]]
            comps[-1].append((m, l))
    return tuple(sorted(tuple((m - c[-1][0], l - c[-1][0]) for m, l in c) for c in comps))


def skew_shape(key: tuple) -> tuple[Partition, Partition]:
    """(lam, mu) with skew_key(lam, mu) = key: the components in key order
    top to bottom, each right of every component below it."""
    rows, width = [], 0
    for comp in reversed(key):
        rows[:0] = [(m + width, l + width) for m, l in comp]
        width = rows[0][1]
    return tuple(l for _, l in rows), tuple(m for m, _ in rows if m)


@cache
def skew_lr_count(key: tuple) -> int:
    """even_column_lr_count on skew_shape(key), once per key: it pairs
    s_{lam/mu} with the even-column s_delta, so every lam/mu of key has it."""
    return even_column_lr_count(*skew_shape(key))


def littlewood_branching(lam: Partition, n: int) -> dict[Partition, int]:
    """Multiplicity of each Sp(2n) irreducible in the GL(2n) irreducible lam:
    Littlewood's rule, the sum over mu inside lam of even_column_lr_count,
    with each sp_mu made a signed sp_nu by king_modification.

    The mu are grown part by part, mu_i at most lam_i and mu_(i - 1).  An
    even-column delta has even size, so mu with |lam| - |mu| odd are
    skipped, and mu whose modified term vanishes are never counted."""
    lam = canonical(lam)
    size, out, inside = sum(lam), {}, [()]
    for p in lam:
        inside = [mu + (q,) for mu in inside for q in range(1 + (min(p, mu[-1]) if mu else p))]
    for mu in inside:
        if (size - sum(mu)) % 2:
            continue
        mu = mu[: len(mu) - mu.count(0)]  # weakly decreasing, so its zeros trail
        if (term := king_modification(mu, n)) and (m := skew_lr_count(skew_key(lam, mu))):
            sign, nu = term
            out[nu] = out.get(nu, 0) + sign * m
    return {nu: m for nu, m in out.items() if m}


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
