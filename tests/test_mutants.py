"""Named faults that the checker must detect.

Each fault replaces, by monkeypatch, the module global that the library
actually calls: characters looks up king_modification, skew_key,
even_column_lr_count (from skew_lr_count, on a key not yet counted),
king_rows, sp_weight and _strip_transfer by name at call time;
verify_shape calls the dominant_columns, staircase_search and
count_columns that verify binds; branching looks up
ab_sequences, _reduced, _reinserted, _chain_step and _staircase_prefixes,
and crystal ab_sequences and _dominance_step, by name.  tableaux's
enumerators and branching.staircase_search and crystal.dominant_columns
each call the one search, chains, and tableaux.column_product and
branching._chain_step the one column pass, column_pass, by the name their
own module binds, so a fault of either patches both bindings.
The cold_caches fixture empties every table the library keeps, so that a
value cached by an earlier sweep cannot hide a fault.

A fault is detected when verify_sweep(2, 5) or verify_sweep(3, 4) gives a
failing report or raises RuntimeError (exit 4 on the command line); a pass
or a hang is a miss.  The suc loop's faults run in a copy of _suc_chain on
every tableau of the walk, in place of verify's staircase_search; the one
in its column insertion needs 6 boxes, and is detected instead when
verify_sweep(2, 6) fails.  The
promotion kernels' faults patch the kernel in promotion and in verify, and
are detected instead when promotion_suite_exhaustive(2, 4) or
promotion_suite_random(3, 50, 7) reports a failure or raises the kernels'
"broke semistandardness" ValueError; pr moving an entry on a one-letter
window, on which no suite runs a kernel, when a kernel, pr or pr_inv does
not fix a tableau of _promotion_cases on some window [a, a]; a wrong phi,
when bijection_suite fails on a report of the two sweeps.  The sweep's
oracle is littlewood_branching, so a fault in the strip transfer, king_rows or
sp_weight, which only the test reference
decompose(restricted_gl_character(lam, n), n) still runs, is detected
instead when that reference disagrees with littlewood_branching on a shape
of the same two sweeps, or raises RuntimeError.  A fault that no check can
see stays in the table, marked equivalent, with the argument and the check
that does see it.
"""

import math
import random
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import combinations, combinations_with_replacement, groupby, islice, product
from operator import add, le, sub

import pytest

from artifact import branching, characters, cli, crystal, promotion, shapes, tableaux, verify
from artifact.characters import decompose, littlewood_branching, restricted_gl_character
from artifact.shapes import canonical, conjugate, enumerate_partitions, part
from artifact.tableaux import content, enumerate_columns
from artifact.verify import (
    bijection_suite,
    promotion_suite_exhaustive,
    promotion_suite_random,
    verify_sweep,
)
from helpers import SWEEP_CACHES, promotion_relations_reference, random_shape

SWEEPS = ((2, 5), (3, 4))
# The characters globals that only the test reference calls.
REFERENCE = {"king_rows", "sp_weight", "_strip_transfer"}
SP_WEIGHT = characters.sp_weight
STAIRCASE_PREFIXES = branching._staircase_prefixes
AB_SEQUENCES = branching.ab_sequences
DOMINANCE_STEP = crystal._dominance_step
STAIRCASE_SEARCH = verify.staircase_search
COUNT_COLUMNS = verify.count_columns
REINSERTED = branching._reinserted
COLUMN_PASS = tableaux.column_pass
CHAINS = tableaux.chains
PR_FLAT = promotion._pr_flat
PR_INV_FLAT = promotion._pr_inv_flat
PHI = verify.phi


def _sp_weight_pairing_2i_minus_1_with_2i_plus_2(T, n):
    c = content(T, 2 * n)
    return tuple(c[2 * i] - c[(2 * i + 3) % (2 * n)] for i in range(n))


def _sp_weight_negated(T, n):
    return tuple(-w for w in SP_WEIGHT(T, n))


def _reduced_mutant(parity: int, slack: int, history: bool = True, strict: bool = True):
    """The body of branching._reduced, pairing a v of this parity, with the
    bound on v lowered by slack, with or without its len(before) term, and
    met strictly or not."""

    def reduced(col):
        before, kept = (), col[:1]
        for k in range(2, len(col) + 1):
            v = col[k - 1]
            bound = k + 1 + (len(before) if history else 0) - slack
            pair = v % 2 == parity and col[k - 2] == v - 1 and (v < bound if strict else v <= bound)
            before, kept = kept, before if pair else kept + (v,)
        return kept

    return reduced


def _strip_transfer_mutant(slack: int):
    """The body of characters._strip_transfer, with the interlacing bound
    nu_{i+1} <= mu_i lowered by slack."""

    def transfer(lam, n, rows):
        lam = canonical(lam)
        state = {lam: {(0,) * n: 1}}
        for j in range(2 * n, 0, -1):
            unit, cap, step = SP_WEIGHT([[j]], n), rows(j - 1), {}
            for nu, partial in state.items():
                size = sum(nu)
                tops = [p + 1 for p in nu[:cap]] + [1] * (len(nu) - cap)
                lows = [max(p - slack, 0) for p in nu[1:] + (0,)]
                for mu in product(*map(range, lows, tops)):
                    shift = [(size - sum(mu)) * u for u in unit]
                    merged = step.setdefault(mu, {})
                    for v, m in partial.items():
                        w = tuple(map(add, v, shift))
                        merged[w] = merged.get(w, 0) + m
            state = step
        return state.get((0,) * len(lam), {})

    return transfer


def _king_modification_mutant(signed: bool, slack: int):
    """The body of characters.king_modification, with the sign kept or
    dropped and the hook length h raised by slack."""

    def king_modification(mu, n):
        sign = 1
        while (p := len(mu)) > n:
            h = 2 * p - 2 * n - 2 + slack
            beads = [m + p - i for i, m in enumerate(mu, start=1)]
            if h == 0 or h not in beads:
                return None
            i = beads.index(h)
            sign *= (-1) ** (h - (p - i) + 1) if signed else 1
            beads = beads[:i] + beads[i + 1 :] + [0]
            mu = canonical(b - p + k for k, b in enumerate(beads, start=1))
        return sign, mu

    return king_modification


def _even_column_lr_count_mutant(lattice: bool, even: bool):
    """The body of characters.even_column_lr_count, with the lattice
    condition and the even-column content test each kept or dropped."""

    def even_column_lr_count(lam, mu):
        state = {((part(lam, 1),), (0,) * (len(lam) + len(lam) % 2)): 1}
        for r, end in enumerate(lam):
            step = {}
            for (above, before), m in state.items():
                chains = [(part(mu, r + 1),)]
                for k in range(1, r + 2):
                    slack = before[k - 2] - before[k - 1] if k > 1 and lattice else end
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
        return sum(m for (_, count), m in state.items() if count[::2] == count[1::2] or not even)

    return even_column_lr_count


def _skew_key_mutant(touch: int):
    """The body of characters.skew_key, splitting components where
    lam_(r+1) <= mu_r + touch."""

    def skew_key(lam, mu):
        comps = []
        for m, l in zip(mu + (0,) * len(lam), lam):
            if m < l:
                comps += [] if comps and l > comps[-1][-1][0] + touch else [[]]
                comps[-1].append((m, l))
        return tuple(sorted(tuple((m - c[-1][0], l - c[-1][0]) for m, l in c) for c in comps))

    return skew_key


def _dominant_columns_mutant(bounded: bool):
    """crystal.dominant_columns's relation on the one search, with the row
    bound by the right neighbour kept or dropped."""

    def dominant_columns(lam, n):
        @cache
        def below(right, k):
            cols = combinations(range(1, 2 * n + 1), k)
            return [col for col in cols if not bounded or all(map(le, col, right))]

        def children(node, k):
            right, m = node
            return [(c, w) for c in below(right, k) if (w := crystal._dominance_step(c, m, n)[0])]

        found = CHAINS(conjugate(canonical(lam))[::-1], children, ((), (0,) * (n + 1)))
        return sorted([col for col, _ in reversed(chain)] for chain in found)

    return dominant_columns


def _column_pass_mutant(bisect):
    """The body of tableaux.column_pass, each entry placed by this bisect."""

    def column_pass(col, entries):
        col, bumped = list(col), []
        for m in entries:
            y = bisect(col, m)
            if y == len(col):
                col.append(m)
            else:
                bumped.append(col[y])
                col[y] = m
        return tuple(col), tuple(bumped)

    return column_pass


def _column_pass_dropping_its_last_bumped_entry(col, entries):
    col, bumped = COLUMN_PASS(col, entries)
    return col, bumped[:-1]


def _chain_step_mutant(early: bool = False, both: bool = False, first: bool = False):
    """The body of branching._chain_step, a new level taken as P before its
    first column is tested (early), a node kept only while both flags hold
    (both) and the prefix test made on P's first column only (first)."""

    def chain_step(state, col, prefixes):
        flights, is_p, hi, lo, _ = state
        moved = []
        for entries in flights:
            col, entries = branching.column_pass(col, entries)
            moved.append(entries)
        if not is_p and (kept := branching._reinserted(col)) is not None:
            return (*moved, kept), early, True, True, ()
        if not (first and is_p):
            hi, lo = hi and col in prefixes[0], lo and col in prefixes[1]
        return (tuple(moved), True, hi, lo, col) if (hi and lo if both else hi or lo) else None

    return chain_step


def _staircase_search_mutant(flushed: bool = True, wait: bool = False):
    """The body of branching.staircase_search, with P keeping or losing the
    columns its finish adds (flushed), and the finish stepping on, or not,
    until the last level is P as well as nothing is in flight (wait)."""

    def staircase_search(lam, n):
        prefixes = branching._staircase_prefixes(n)

        def children(node, k):
            left, state = node
            cols = tableaux.after(left, k, 2 * n)
            return [(col, s) for col in cols if (s := branching._chain_step(state, col, prefixes))]

        root = ((), ((), False, True, True, ()))
        for chain in CHAINS(conjugate(canonical(lam)), children, root):
            T, states = [col for col, _ in chain], [s for _, s in [root, *chain]]
            walked = len(states)
            while (state := states[-1]) and (any(state[0]) or wait and not state[1]):
                if len(state[0]) > sum(map(len, T)) + 1:
                    raise RuntimeError("suc did not stabilize within the size budget")
                states.append(branching._chain_step(state, (), prefixes))
            if state:
                P = [s[4] for s in states[: None if flushed else walked] if s[4]]
                yield T, P, state[2], state[3]

    return staircase_search


def _column_product_mutant(long: float = math.inf):
    """The body of tableaux.column_product, with nothing bumped out of a last
    column of more than long entries: what it bumps is dropped."""

    def column_product(entries, cols):
        out = []
        for x, col in enumerate(cols):
            if not entries:
                return out + cols[x:]
            drop = x == len(cols) - 1 and len(col) > long
            col, entries = tableaux.column_pass(col, entries)
            entries = () if drop else entries
            out.append(col)
        while entries:
            col, entries = tableaux.column_pass((), entries)
            out.append(col)
        return out

    return column_product


def _suc_chain_mutant(last: bool = False, short: bool = False, product=None):
    """The body of branching._suc_chain, with the loop also stopping at a
    one-column tableau, so its last column is never reduced (last), or at a
    first column of at most 2 entries (short), and inserting by this column
    product (tableaux.column_product when None)."""

    def suc_chain(cols):
        chain = [cols]
        for _ in range(sum(map(len, cols)) + 2):
            if not cols or last and len(cols) == 1 or short and len(cols[0]) <= 2:
                return chain
            if (kept := branching._reinserted(cols[0])) is None:
                return chain
            cols = (product or tableaux.column_product)(kept, cols[1:])
            chain.append(cols)
        raise RuntimeError("suc did not stabilize within the size budget")

    return suc_chain


def _search_by_suc_chain(suc_chain):
    """staircase_search's output, from this suc chain run on every tableau
    of enumerate_columns: the sweep's P made by a copy of the suc loop."""

    def staircase_search(lam, n):
        for cols in enumerate_columns(lam, 2 * n):
            P = suc_chain(cols)[-1]
            is_a, is_b = branching.staircase_flags(P, n)
            if is_a or is_b:
                yield cols, P, is_a, is_b

    return staircase_search


def _pr_flat_mutant(tie_left: bool = False, reverse: bool = False):
    """The body of promotion._pr_flat, a tie between the left and the above
    neighbour won by the left one (tie_left), and the movers taken in
    reverse order (reverse)."""

    def pr_flat(E, tables, a, b):
        if b not in E:
            return [e + 1 if a <= e < b else e for e in E]
        left, above, movers = tables[0]
        W = [e if a <= e < b else 0 for e in E]
        W.append(0)
        for i in movers[::-1] if reverse else movers:
            if E[i] == b:
                while True:
                    l, u = left[i], above[i]
                    lv, uv = W[l], W[u]
                    if lv > uv or tie_left and lv == uv > 0:
                        W[i], i = lv, l
                    elif uv:
                        W[i], i = uv, u
                    else:
                        W[i] = 0
                        break
        return [w + 1 if w else a if a <= e <= b else e for w, e in zip(W, E)]

    return pr_flat


def _pr_inv_flat_mutant(tie_right: bool = False):
    """The body of promotion._pr_inv_flat, a tie between the right and the
    below neighbour won by the right one (tie_right)."""

    def pr_inv_flat(E, tables, a, b):
        if a not in E:
            return [e - 1 if a < e <= b else e for e in E]
        right, below, movers = tables[1]
        out = b + 1
        W = [b if e == a else e - 1 if a < e <= b else out for e in E]
        W.append(out)
        for i in movers:
            if E[i] == a:
                while True:
                    r, d = right[i], below[i]
                    rv, dv = W[r], W[d]
                    if rv < dv or tie_right and rv == dv < out:
                        W[i], i = rv, r
                    elif dv < out:
                        W[i], i = dv, d
                    else:
                        W[i] = b
                        break
        return [e if w == out else w for w, e in zip(W, E)]

    return pr_inv_flat


def _pr_flat_on_a_shrunk_window(E, tables, a, b):
    return PR_FLAT(E, tables, a, b - 1 if b - a >= 2 else b)


def _pr_flat_on_1_5_for_1_2(E, tables, a, b):
    return PR_FLAT(E, tables, 1, 5) if (a, b) == (1, 2) else PR_FLAT(E, tables, a, b)


def _pr_flat_on_a_one_letter_window_as_on_two(E, tables, a, b):
    return PR_FLAT(E, tables, a, a + 1) if a == b else PR_FLAT(E, tables, a, b)


def _phi_fixing_a_dominant_tableau(T, n):
    # [[1, 1], [2]] is the first dominant tableau of shape (2, 1) at n = 2,
    # and it is not highest there.
    return T if T == [[1, 1], [2]] else PHI(T, n)


def _reinserted_bottom_first(col):
    kept = REINSERTED(col)
    return None if kept is None else kept[::-1]


def _chains_without_each_last_batch_end(lengths, children, root):
    # The chains that share all but their last node come as one batch.
    for _, batch in groupby(CHAINS(lengths, children, root), key=lambda chain: chain[:-1]):
        yield from list(batch)[:-1]


def _staircase_prefixes_without_n_entries(n):
    return tuple(frozenset(col for col in side if len(col) < n) for side in STAIRCASE_PREFIXES(n))


def _dominance_step_without_its_zero_sentinel(col, m, n):
    # A sentinel of -inf never bounds the last coordinate, so it may turn negative.
    return DOMINANCE_STEP(col, m[:n] + (-math.inf,), n)


LAST_COLUMN_FAULT = "the suc loop's insertion not bumping out of a last column longer than 2"
ONE_LETTER_FAULT = "pr not the identity on a one-letter window"

# name -> (module or modules, global of each, replacement)
DETECTED = {
    "king_rows(j) = j, GL's row cap": (characters, "king_rows", lambda j: j),
    "king_rows(j) = (j + 2) // 2, King relaxed to 2y - 2": (
        characters,
        "king_rows",
        lambda j: (j + 2) // 2,
    ),
    "king_rows(j) = j // 2, King tightened to 2y": (characters, "king_rows", lambda j: j // 2),
    "oracle sp_weight pairs 2i - 1 with 2i + 2": (
        characters,
        "sp_weight",
        _sp_weight_pairing_2i_minus_1_with_2i_plus_2,
    ),
    "strip interlacing bound lowered by 1": (
        characters,
        "_strip_transfer",
        _strip_transfer_mutant(1),
    ),
    "the search's prefix test reading only P's first column": (
        branching,
        "_chain_step",
        _chain_step_mutant(first=True),
    ),
    "the staircase prefix table without its n-entry prefixes": (
        branching,
        "_staircase_prefixes",
        _staircase_prefixes_without_n_entries,
    ),
    "ab_sequences with a and b swapped": (
        branching,
        "ab_sequences",
        lambda n: AB_SEQUENCES(n)[::-1],
    ),
    "_reduced bound lowered by 1": (branching, "_reduced", _reduced_mutant(0, 1)),
    "_reduced pairing an odd v": (branching, "_reduced", _reduced_mutant(1, 0)),
    "_reduced bounding v without its len(before) history": (
        branching,
        "_reduced",
        _reduced_mutant(0, 0, history=False),
    ),
    "the dominance step without its zero sentinel": (
        crystal,
        "_dominance_step",
        _dominance_step_without_its_zero_sentinel,
    ),
    "the dominant search without its right-neighbour row bound": (
        verify,
        "dominant_columns",
        _dominant_columns_mutant(bounded=False),
    ),
    "the chain search losing the last chain of each last-level batch": (
        (tableaux, crystal, branching),
        "chains",
        _chains_without_each_last_batch_end,
    ),
    "the first-column shortcut taken for every first column": (
        branching,
        "_reinserted",
        lambda col: None,
    ),
    "the kept entries reinserted bottom first": (
        branching,
        "_reinserted",
        _reinserted_bottom_first,
    ),
    "one dropped tableau per shape": (
        verify,
        "staircase_search",
        lambda lam, n: islice(STAIRCASE_SEARCH(lam, n), 1, None),
    ),
    "the tableau count losing one chain": (
        verify,
        "count_columns",
        lambda lam, m: COUNT_COLUMNS(lam, m) - 1,
    ),
    "the column pass dropping its last bumped entry": (
        (tableaux, branching),
        "column_pass",
        _column_pass_dropping_its_last_bumped_entry,
    ),
    "column insertion bumping the topmost entry > m (bisect_right)": (
        (tableaux, branching),
        "column_pass",
        _column_pass_mutant(bisect_right),
    ),
    "the chain pipeline taking a new level as P before its first column": (
        branching,
        "_chain_step",
        _chain_step_mutant(early=True),
    ),
    "the staircase search cutting a node unless both flags hold": (
        branching,
        "_chain_step",
        _chain_step_mutant(both=True),
    ),
    "the search's P losing the columns its finish adds": (
        verify,
        "staircase_search",
        _staircase_search_mutant(flushed=False),
    ),
    "the search's finish stepping on until the last level is P": (
        verify,
        "staircase_search",
        _staircase_search_mutant(wait=True),
    ),
    "the suc loop never reducing the last column": (
        verify,
        "staircase_search",
        _search_by_suc_chain(_suc_chain_mutant(last=True)),
    ),
    "the suc loop stopping at a first column of at most 2 entries": (
        verify,
        "staircase_search",
        _search_by_suc_chain(_suc_chain_mutant(short=True)),
    ),
    "pr moving left on a tie": ((promotion, verify), "_pr_flat", _pr_flat_mutant(tie_left=True)),
    "pr with its movers reversed": ((promotion, verify), "_pr_flat", _pr_flat_mutant(reverse=True)),
    "pr_inv moving right on a tie": (
        (promotion, verify),
        "_pr_inv_flat",
        _pr_inv_flat_mutant(tie_right=True),
    ),
    "pr on the window shrunk to (a, b - 1) when b - a >= 2": (
        (promotion, verify),
        "_pr_flat",
        _pr_flat_on_a_shrunk_window,
    ),
    "pr on the window (1, 5) for (1, 2)": (
        (promotion, verify),
        "_pr_flat",
        _pr_flat_on_1_5_for_1_2,
    ),
    # pr on [a, a + 1] for [a, a]: the suites cannot see it, since
    # promotion_relations answers a one-letter window without a kernel call
    # and phi, psi and res_via_promotion have none.
    ONE_LETTER_FAULT: (
        (promotion, verify),
        "_pr_flat",
        _pr_flat_on_a_one_letter_window_as_on_two,
    ),
    "phi fixing the dominant tableau [[1, 1], [2]]": (
        verify,
        "phi",
        _phi_fixing_a_dominant_tableau,
    ),
    "wt_k reading b for a": (crystal, "ab_sequences", lambda n: (AB_SEQUENCES(n)[1],) * 2),
    "King's modification without its sign": (
        characters,
        "king_modification",
        _king_modification_mutant(signed=False, slack=0),
    ),
    "King's hook length h = 2p - 2n, off by 2": (
        characters,
        "king_modification",
        _king_modification_mutant(signed=True, slack=2),
    ),
    "LR fillings without the lattice condition": (
        characters,
        "even_column_lr_count",
        _even_column_lr_count_mutant(lattice=False, even=True),
    ),
    "LR fillings of every content, not only even columns": (
        characters,
        "even_column_lr_count",
        _even_column_lr_count_mutant(lattice=True, even=False),
    ),
    "the skew key splitting rows that share one column": (
        characters,
        "skew_key",
        _skew_key_mutant(1),
    ),
    LAST_COLUMN_FAULT: (
        verify,
        "staircase_search",
        _search_by_suc_chain(_suc_chain_mutant(product=_column_product_mutant(2))),
    ),
}

EQUIVALENT = {
    # Sp(2n) characters are invariant under the Weyl group of type C_n,
    # sign changes included, so negating every weight gives the same
    # multiset: each sp_character is unchanged.  The restricted GL
    # character is unchanged too: negation swaps the letters 2i - 1 and 2i,
    # and s_lam is symmetric in its 2n variables.  So every decomposition
    # is unchanged.
    "sp_weight negated": (characters, "sp_weight", _sp_weight_negated),
    # The bound k + 1 + len(before) is odd: the removed entries of prefix
    # k - 2 come in pairs, so len(before) = k - 2 - (an even number), and the
    # bound is 2k - 1 less that even number.  A paired v is even, so v never
    # equals the bound and v <= bound is v < bound on every column; the
    # mutant's own test checks this on every column over [1, 10].
    "_reduced met with <= for <": (branching, "_reduced", _reduced_mutant(0, 0, strict=False)),
}


def _sweeps_fail() -> bool:
    return any(not report.passed for sweep in SWEEPS for report in verify_sweep(*sweep))


def _reference_disagrees() -> bool:
    return any(
        littlewood_branching(lam, n) != decompose(restricted_gl_character(lam, n), n)
        for n, size in SWEEPS
        for lam in enumerate_partitions(size, 2 * n)
    )


def _promotion_suites_fail() -> bool:
    try:
        return not (
            promotion_suite_exhaustive(2, 4).passed and promotion_suite_random(3, 50, 7).passed
        )
    except ValueError as error:
        if "broke semistandardness" not in str(error):
            raise
        return True


def _bijection_suites_fail() -> bool:
    return any(
        not bijection_suite(report).passed for sweep in SWEEPS for report in verify_sweep(*sweep)
    )


def _six_box_sweep_fails() -> bool:
    """The sweeps stop at 5 boxes, and LAST_COLUMN_FAULT needs a column of 3
    entries right of the first column, so 6 boxes: (2, 2, 2) at n = 2."""
    return any(not report.passed for report in verify_sweep(2, 6))


def _a_one_letter_window_moves_an_entry() -> bool:
    """Some case of _promotion_cases that a kernel, or pr or pr_inv, does
    not fix on some one-letter window [a, a], a <= 2n + 1."""
    kernels = (promotion._pr_flat, promotion._pr_inv_flat)
    for T, n in _promotion_cases():
        tables = promotion._tables(tuple(map(len, T)))
        E = [e for row in T for e in row]
        for a in range(1, 2 * n + 2):
            if any(kernel(E, tables, a, a) != E for kernel in kernels):
                return True
            if promotion.pr(T, a, a) != T or promotion.pr_inv(T, a, a) != T:
                return True
    return False


# The check that sees a fault of these globals, or of this named fault; the
# sweeps see the others.
CHECKS = {
    "_pr_flat": _promotion_suites_fail,
    "_pr_inv_flat": _promotion_suites_fail,
    "phi": _bijection_suites_fail,
    LAST_COLUMN_FAULT: _six_box_sweep_fails,
    ONE_LETTER_FAULT: _a_one_letter_window_moves_an_entry,
}


def _detected(check) -> bool:
    try:
        return check()
    except RuntimeError:
        return True


@pytest.mark.parametrize("name", sorted(DETECTED))
def test_mutant_is_detected(name, monkeypatch, time_bound, cold_caches):
    time_bound(30)
    module, glob, replacement = DETECTED[name]
    for bound in module if isinstance(module, tuple) else (module,):
        monkeypatch.setattr(bound, glob, replacement)
    in_reference = module is characters and glob in REFERENCE
    check = CHECKS.get(name, CHECKS.get(glob, _sweeps_fail))
    check = _reference_disagrees if in_reference else check
    assert _detected(check), name


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
    assert not _detected(_sweeps_fail), name
    assert not _detected(_reference_disagrees), name
    assert {key: characters.sp_character(*key) for key in expected} == expected, name


def test_the_cold_caches_fixture_clears_every_module_cache():
    """A table that cold_caches does not empty could hide a mutant behind a
    value that an earlier sweep cached."""
    modules = (branching, characters, cli, crystal, promotion, shapes, tableaux, verify)
    cached = {id(f) for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")}
    assert cached == {id(f) for f in SWEEP_CACHES}


def test_the_strip_mutant_without_slack_is_the_transfer():
    """The copied body differs from characters._strip_transfer only in the
    slack, so the detected mutant is the bound lowered by 1 and nothing else."""
    copy = _strip_transfer_mutant(0)
    for n, size in SWEEPS:
        for lam in enumerate_partitions(size, 2 * n):
            for rows in (characters.king_rows, lambda j: j):
                assert copy(lam, n, rows) == characters._strip_transfer(lam, n, rows), lam


def test_the_dominant_search_mutant_with_its_bound_is_the_search():
    """The copied body differs from crystal.dominant_columns only in the
    switch, so the detected mutant is the dropped row bound and nothing else."""
    copy = _dominant_columns_mutant(bounded=True)
    for n, size in SWEEPS:
        for lam in enumerate_partitions(size, 2 * n):
            assert copy(lam, n) == crystal.dominant_columns(lam, n), lam


def test_the_insertion_mutants_without_their_faults_are_the_rule(monkeypatch):
    """The copied bodies differ from tableaux.column_pass,
    branching._chain_step and branching.staircase_search only in their
    switches, so each detected mutant is its one fault and nothing else: the
    copies give the same column passes and the same staircase search."""
    copy = _column_pass_mutant(bisect_left)
    for k in range(5):
        for col in combinations(range(1, 7), k):
            for entries in product(range(1, 7), repeat=2):
                assert copy(col, entries) == tableaux.column_pass(col, entries), (col, entries)
    searches = {
        (lam, n): list(branching.staircase_search(lam, n))
        for n, size in SWEEPS
        for lam in enumerate_partitions(size, 2 * n)
    }
    copy = _staircase_search_mutant()
    for (lam, n), search in searches.items():
        assert list(copy(lam, n)) == search, (lam, n)
    monkeypatch.setattr(branching, "_chain_step", _chain_step_mutant())
    for (lam, n), search in searches.items():
        assert list(branching.staircase_search(lam, n)) == search, (lam, n)


def test_the_littlewood_mutants_without_their_faults_are_the_rule():
    """The copied bodies differ from king_modification, skew_key and
    even_column_lr_count only in their switches, so each detected mutant is
    its one fault and nothing else."""
    modification = _king_modification_mutant(signed=True, slack=0)
    count = _even_column_lr_count_mutant(lattice=True, even=True)
    key = _skew_key_mutant(0)
    for n, size in SWEEPS:
        for lam in enumerate_partitions(size, 2 * n):
            assert modification(lam, n) == characters.king_modification(lam, n), lam
            for mu in enumerate_partitions(size, 2 * n):
                if len(mu) > len(lam) or any(a > b for a, b in zip(mu, lam)):
                    continue
                assert count(lam, mu) == characters.even_column_lr_count(lam, mu), (lam, mu)
                assert key(lam, mu) == characters.skew_key(lam, mu), (lam, mu)


def test_the_suc_loop_mutants_without_their_faults_are_the_rule():
    """The copied bodies differ from branching._suc_chain and
    tableaux.column_product only in their switches, and the search they
    drive gives staircase_search's output, so each detected suc mutant is
    its one fault and nothing else."""
    copies = (_suc_chain_mutant(), _suc_chain_mutant(product=_column_product_mutant()))
    for n, size in (*SWEEPS, (2, 6)):
        for lam in enumerate_partitions(size, 2 * n):
            expected = list(branching.staircase_search(lam, n))
            for copy in copies:
                for cols in enumerate_columns(lam, 2 * n):
                    assert copy(cols) == branching._suc_chain(cols), cols
                assert list(_search_by_suc_chain(copy)(lam, n)) == expected, (lam, n)


def test_reduced_with_a_weak_bound_is_reduced_on_every_column():
    """The argument of the equivalent mutant "_reduced met with <= for <",
    and the check that the copied body is _reduced: the same output on every
    column over [1, 2n] for n <= 5, all of them columns over [1, 10]."""
    copy, weak = _reduced_mutant(0, 0), _reduced_mutant(0, 0, strict=False)
    for k in range(11):
        for col in combinations(range(1, 11), k):
            assert copy(col) == weak(col) == branching._reduced(col), col


def _promotion_cases() -> list:
    """Every tableau of promotion_suite_exhaustive(2, 4) at n = 2, then 200
    at n = 3 drawn as promotion_suite_random(3, 200, 7) draws them."""
    cases = [(T, 2) for lam in enumerate_partitions(4, 4) for T in tableaux.enumerate_ssyt(lam, 4)]
    rng = random.Random(7)
    return cases + [(verify.random_ssyt(random_shape(8, 6, rng), 6, rng), 3) for _ in range(200)]


def test_the_kernels_fix_every_tableau_on_a_one_letter_window():
    """pr and pr_inv on [a, a] are the identity, flat and on rows, so
    promotion_relations may answer a one-letter window without a kernel."""
    assert not _a_one_letter_window_moves_an_entry()


def test_the_kernel_mutants_without_their_faults_are_the_kernels():
    """The copied bodies differ from promotion._pr_flat and _pr_inv_flat only
    in their switches, so each detected kernel mutant is its one fault."""
    pr_copy, pr_inv_copy = _pr_flat_mutant(), _pr_inv_flat_mutant()
    for T, n in _promotion_cases():
        tables = promotion._tables(tuple(map(len, T)))
        E = [e for row in T for e in row]
        for a, b in combinations_with_replacement(range(1, 2 * n + 2), 2):
            assert pr_copy(E, tables, a, b) == PR_FLAT(E, tables, a, b), (T, a, b)
            assert pr_inv_copy(E, tables, a, b) == PR_INV_FLAT(E, tables, a, b), (T, a, b)


# The tableaux of _promotion_cases on which promotion_relations raises, and
# its failures on the others (the exhaustive ones + the drawn ones), with
# the true kernels (None) and each kernel fault that gives wrong values.
PROMOTION_OUTCOMES = {
    None: (0, 0),
    "pr moving left on a tie": (64, 5),
    "pr with its movers reversed": (284, 0),
    "pr_inv moving right on a tie": (163, 5),
    "pr on the window shrunk to (a, b - 1) when b - a >= 2": (0, 956 + 3613),
    "pr on the window (1, 5) for (1, 2)": (0, 712 + 1564),
}


@pytest.mark.parametrize("name", sorted(PROMOTION_OUTCOMES, key=str))
def test_promotion_relations_match_their_former_body(name, monkeypatch, cold_caches):
    """The interned body gives the same check count and the same failures,
    in order, or raises the same ValueError, as the former body on every
    case, with the true kernels and under each value-level kernel fault."""
    if name is not None:
        modules, glob, replacement = DETECTED[name]
        for bound in modules:
            monkeypatch.setattr(bound, glob, replacement)

    def outcome(relations, T, n):
        try:
            result = relations(T, n)
        except ValueError as error:
            return str(error)
        return result.checked, result.failures

    raised = failures = 0
    for T, n in _promotion_cases():
        got = outcome(verify.promotion_relations, T, n)
        assert got == outcome(promotion_relations_reference, T, n), (T, n)
        raised += isinstance(got, str)
        failures += 0 if isinstance(got, str) else len(got[1])
    assert (raised, failures) == PROMOTION_OUTCOMES[name]
