"""Named faults that the checker must detect.

A fault replaces, by monkeypatch, a module global that the library
actually calls.  It is either a small function around the library's own,
or the library function itself, recompiled by mutant from its own source
with one or a few exact text edits, (old, new), in its own module's
globals: so it looks up what it calls by name at call time, as the library
function does, and its difference from the library is its edits.
characters looks up king_modification, skew_key, even_column_lr_count
(from skew_lr_count, on a key not yet counted), king_rows, sp_weight and
_strip_transfer by name at call time; verify_shape calls the
dominant_columns, staircase_search and count_columns that verify binds,
and verify_sweep the staircase_leaves and staircase_prefixes, so that
every shape's search runs through verify's staircase_search, on the
leaves that the sweep extended; branching looks up ab_sequences,
_reduced, _reinserted, _chain_step, staircase_prefixes, _suc_chain and
column_product, crystal ab_sequences and _dominance_step, and promotion
the slide _slide, pr's in direction 0 and pr_inv's in direction 1, by
name; only promotion binds _slide.  Some globals are bound in more than
one module, and a fault of one patches each binding: the one column pass,
column_pass, which tableaux.column_product and branching._chain_step
call, in (tableaux, branching); the prefix table, staircase_prefixes,
which the single-shape search and the sweep build, in (branching,
verify); and the one search, chains, which tableaux's enumerators,
branching.staircase_search and crystal.dominant_columns call, in
(tableaux, crystal, branching).
Each fault is derived inside its own test, so an edit that no longer
applies fails that fault's test with its name.
The cold_caches fixture empties every table the library keeps, so that a
value cached by an earlier sweep cannot hide a fault.

A fault is detected when verify_sweep(2, 5) or verify_sweep(3, 4) gives a
failing report or raises RuntimeError (exit 4 on the command line); a pass
or a hang is a miss.  The suc loop's faults, in branching's _suc_chain and
the column_product it calls, run that loop on every tableau of the walk,
in place of verify's staircase_search; the one in its column insertion
needs 6 boxes, and is detected instead when verify_sweep(2, 6) fails.  The
slide's faults, each confined to one direction but for one that makes a
direction read the other's tables, are detected instead when
promotion_suite_exhaustive(2, 4) or promotion_suite_random(3, 50, 7)
reports a failure or raises the slide's "broke semistandardness"
ValueError; pr moving an entry on a one-letter window, on which no suite
runs the slide, when the slide, pr or pr_inv does not fix a tableau of
_promotion_cases on some window [a, a]; a wrong phi, when bijection_suite
fails on a report of the two sweeps.  The sweep's oracle is
littlewood_branching, so a fault in the strip transfer, king_rows or
sp_weight, which only the test reference
decompose(restricted_gl_character(lam, n), n) still runs, is detected
instead when that reference disagrees with littlewood_branching on a shape
of the same two sweeps, or raises RuntimeError.  A fault that no check can
see stays in the table, marked equivalent, with the argument and the check
that does see it.  The P-kernel faults of P_FAULTS leave every report of
the sweeps unchanged, and must instead fail the Berele test,
test_p_is_berele_insertion_of_both_reading_words.
"""

import __future__
import inspect
import math
import random
from itertools import combinations, groupby, islice

import pytest

from artifact import branching, characters, cli, crystal, promotion, shapes, tableaux, verify
from artifact.characters import decompose, littlewood_branching, restricted_gl_character
from artifact.shapes import enumerate_partitions
from artifact.tableaux import enumerate_columns
from artifact.verify import (
    bijection_suite,
    promotion_suite_exhaustive,
    promotion_suite_random,
    verify_sweep,
)
import test_branching
from helpers import SWEEP_CACHES, promotion_relations_reference, random_shape

SWEEPS = ((2, 5), (3, 4))
# The characters globals that only the test reference calls.
REFERENCE = {"king_rows", "sp_weight", "_strip_transfer"}
# The branching globals that only the suc loop calls; the sweep runs that
# loop, in place of the search, on every tableau of the walk.
SUC_LOOP = {"_suc_chain", "column_product"}
SP_WEIGHT = characters.sp_weight
STAIRCASE_PREFIXES = branching.staircase_prefixes
AB_SEQUENCES = branching.ab_sequences
DOMINANCE_STEP = crystal._dominance_step
STAIRCASE_SEARCH = verify.staircase_search
COUNT_COLUMNS = verify.count_columns
REDUCED = branching._reduced
REINSERTED = branching._reinserted
COLUMN_PASS = tableaux.column_pass
CHAINS = tableaux.chains
SLIDE = promotion._slide
PHI = verify.phi


def mutant(module, name: str, *edits: tuple[str, str]):
    """module.name recompiled from its own source, its decorators dropped,
    with each (old, new) text edit made in turn, in the module's globals;
    ValueError unless each old differs from its new and occurs exactly once."""
    function = getattr(module, name)
    source = inspect.getsource(getattr(function, "__wrapped__", function))
    source = source[source.index("def ") :]
    for old, new in edits:
        if old == new or source.count(old) != 1:
            where = f"{module.__name__}.{name}, whose source has it {source.count(old)} times"
            raise ValueError(f"{old!r} -> {new!r} is no edit of {where}")
        source = source.replace(old, new)
    flags = __future__.annotations.compiler_flag
    scope = {}
    exec(compile(source, f"<{name} mutant>", "exec", flags, dont_inherit=True), vars(module), scope)
    return scope[name]


def _patch(monkeypatch, name: str, modules, glob: str, *fault) -> tuple:
    """Bind the fault's replacement of glob in the module, or in each of the
    modules, and return (the first module, glob).  The replacement is fault's
    one function, or, when fault is edits, the mutant of what the first
    module binds, in its own module; ValueError, with the fault's name, when
    an edit does not apply."""
    modules = modules if isinstance(modules, tuple) else (modules,)
    replacement = fault[0]
    if isinstance(replacement, tuple):
        try:
            replacement = mutant(inspect.getmodule(getattr(modules[0], glob)), glob, *fault)
        except ValueError as error:
            raise ValueError(f"{name}: {error}") from None
    for module in modules:
        monkeypatch.setattr(module, glob, replacement)
    return modules[0], glob


def _sp_weight_negated(T, n):
    return tuple(-w for w in SP_WEIGHT(T, n))


def _column_pass_dropping_its_last_bumped_entry(col, entries):
    col, bumped = COLUMN_PASS(col, entries)
    return col, bumped[:-1]


def _search_by_suc_chain(lam, n, *walk):
    """staircase_search's output, from branching._suc_chain run on every
    tableau of enumerate_columns, whatever leaves of the walk a sweep hands
    it: the sweep's P made by the suc loop."""
    for cols in enumerate_columns(lam, 2 * n):
        P = branching._suc_chain(cols)[-1]
        is_a, is_b = branching.staircase_flags(P, n)
        if is_a or is_b:
            yield cols, P, is_a, is_b


def _pr_on_a_shrunk_window(E, tables, a, b, d):
    return SLIDE(E, tables, a, b - 1 if d == 0 and b - a >= 2 else b, d)


def _pr_on_1_5_for_1_2(E, tables, a, b, d):
    return SLIDE(E, tables, 1, 5, d) if (a, b, d) == (1, 2, 0) else SLIDE(E, tables, a, b, d)


def _pr_on_a_one_letter_window_as_on_two(E, tables, a, b, d):
    return SLIDE(E, tables, a, a + 1, d) if (a, d) == (b, 0) else SLIDE(E, tables, a, b, d)


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
WEAK_REDUCED = "_reduced met with <= for <"

# name -> (module or modules, global of each, replacement or the edits of
# the global's own source)
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
        ("c[i + 1]", "c[(i + 3) % (2 * n)]"),
    ),
    "strip interlacing bound lowered by 1": (
        characters,
        "_strip_transfer",
        ("nu[1:] + (0,), tops", "[max(p - 1, 0) for p in nu[1:] + (0,)], tops"),
    ),
    "the search's prefix test reading only P's first column": (
        branching,
        "_chain_step",
        ("hi and col in prefixes[0]", "hi and (is_p or col in prefixes[0])"),
        ("lo and col in prefixes[1]", "lo and (is_p or col in prefixes[1])"),
    ),
    "the staircase prefix table without its n-entry prefixes": (
        (branching, verify),
        "staircase_prefixes",
        _staircase_prefixes_without_n_entries,
    ),
    "ab_sequences with a and b swapped": (
        branching,
        "ab_sequences",
        lambda n: AB_SEQUENCES(n)[::-1],
    ),
    "_reduced bound lowered by 1": (branching, "_reduced", ("v < k + 1", "v < k")),
    "_reduced pairing an odd v": (branching, "_reduced", ("v % 2 == 0", "v % 2 == 1")),
    "_reduced bounding v without its len(before) history": (
        branching,
        "_reduced",
        ("v < k + 1 + len(before)", "v < k + 1"),
    ),
    "the dominance step without its zero sentinel": (
        crystal,
        "_dominance_step",
        _dominance_step_without_its_zero_sentinel,
    ),
    "the dominant search without its right-neighbour row bound": (
        verify,
        "dominant_columns",
        ("if all(map(le, col, right))", "if True"),
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
        lambda lam, n, *walk: islice(STAIRCASE_SEARCH(lam, n, *walk), 1, None),
    ),
    "the sweep's extension dropping each parent's last leaf": (
        verify,
        "staircase_leaves",
        ("for node in leaves", "for node in leaves[:-1]"),
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
        ("bisect_left(col, m)", "bisect_right(col, m)"),
    ),
    "the chain pipeline taking a new level as P before its first column": (
        branching,
        "_chain_step",
        ("False, True, True, ()", "True, True, True, ()"),
    ),
    "the staircase search cutting a node unless both flags hold": (
        branching,
        "_chain_step",
        ("if hi or lo else None", "if hi and lo else None"),
    ),
    "the search's P losing the columns its finish adds": (
        verify,
        "staircase_search",
        (" + tuple(finished)", ""),
    ),
    "the search's finish stepping on until the last level is P": (
        verify,
        "staircase_search",
        ("and any(state[0]):", "and (any(state[0]) or not state[1]):"),
    ),
    "the suc loop never reducing the last column": (
        branching,
        "_suc_chain",
        ("if not cols or", "if not cols or len(cols) == 1 or"),
    ),
    "the suc loop stopping at a first column of at most 2 entries": (
        branching,
        "_suc_chain",
        ("if not cols or", "if not cols or len(cols[0]) <= 2 or"),
    ),
    "pr moving left on a tie": (
        promotion,
        "_slide",
        ("if fv > sv:", "if fv > sv or d == 0 and fv == sv > 0:"),
    ),
    "pr with its movers reversed": (
        promotion,
        "_slide",
        ("for i in movers:", "for i in movers[::-1] if d == 0 else movers:"),
    ),
    "pr_inv moving right on a tie": (
        promotion,
        "_slide",
        ("if fv > sv:", "if fv > sv or d == 1 and fv == sv > 0:"),
    ),
    "pr_inv reading pr's neighbour tables and mover order": (
        promotion,
        "_slide",
        ("tables[d]", "tables[0]"),
    ),
    "pr on the window shrunk to (a, b - 1) when b - a >= 2": (
        promotion,
        "_slide",
        _pr_on_a_shrunk_window,
    ),
    "pr on the window (1, 5) for (1, 2)": (
        promotion,
        "_slide",
        _pr_on_1_5_for_1_2,
    ),
    # pr on [a, a + 1] for [a, a]: the suites cannot see it, since
    # promotion_relations answers a one-letter window without a slide
    # and phi, psi and res_via_promotion have none.
    ONE_LETTER_FAULT: (
        promotion,
        "_slide",
        _pr_on_a_one_letter_window_as_on_two,
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
        ("sign *= (-1) ** (h - (p - i) + 1)", "sign *= 1"),
    ),
    "King's hook length h = 2p - 2n, off by 2": (
        characters,
        "king_modification",
        ("h = 2 * p - 2 * n - 2", "h = 2 * p - 2 * n"),
    ),
    "LR fillings without the lattice condition": (
        characters,
        "even_column_lr_count",
        ("slack = before[k - 2] - before[k - 1] if k > 1 else end", "slack = end"),
    ),
    "LR fillings of every content, not only even columns": (
        characters,
        "even_column_lr_count",
        ("if count[::2] == count[1::2]", "if True"),
    ),
    "the skew key splitting rows that share one column": (
        characters,
        "skew_key",
        ("l > comps[-1][-1][0]", "l > comps[-1][-1][0] + 1"),
    ),
    # tableaux.column_product, as branching binds it for the suc loop: what
    # the last column bumps is dropped when that column had 3 entries or more.
    LAST_COLUMN_FAULT: (
        branching,
        "column_product",
        (
            "col, entries = column_pass(col, entries)",
            "col, entries = column_pass(col, entries)\n"
            "        entries = () if x == len(cols) - 1 and len(cols[x]) > 2 else entries",
        ),
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
    WEAK_REDUCED: (branching, "_reduced", ("v < k + 1", "v <= k + 1")),
}


# P-kernel faults that keep both staircases fixed: every report of the
# sweeps and of verify_sweep(2, 6) is unchanged, highest and lowest (T, P)
# pairs included, whether P comes from the search or from the suc loop, so
# no check above can see them.  The Berele test of test_branching does.
P_FAULTS = {
    "the column pass handing on what it bumps bottom first": (
        (tableaux, branching),
        "column_pass",
        ("return tuple(col), tuple(bumped)", "return tuple(col), tuple(bumped[::-1])"),
    ),
    "the column product passing each column its entries bottom first": (
        (tableaux, branching),
        "column_product",
        ("column_pass(col, entries)", "column_pass(col, entries[::-1])"),
    ),
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
    """Some case of _promotion_cases that the slide in either direction, or
    pr or pr_inv, does not fix on some one-letter window [a, a], a <= 2n + 1."""
    for T, n in _promotion_cases():
        tables = promotion._tables(tuple(map(len, T)))
        E = bytes(e for row in T for e in row)
        for a in range(1, 2 * n + 2):
            if any(promotion._slide(E, tables, a, a, d) != E for d in (0, 1)):
                return True
            if promotion.pr(T, a, a) != T or promotion.pr_inv(T, a, a) != T:
                return True
    return False


# The check that sees a fault of these globals, or of this named fault; the
# sweeps see the others.
CHECKS = {
    "_slide": _promotion_suites_fail,
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
    module, glob = _patch(monkeypatch, name, *DETECTED[name])
    if module is branching and glob in SUC_LOOP:
        monkeypatch.setattr(verify, "staircase_search", _search_by_suc_chain)
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
    _patch(monkeypatch, name, *EQUIVALENT[name])
    assert not _detected(_sweeps_fail), name
    assert not _detected(_reference_disagrees), name
    assert {key: characters.sp_character(*key) for key in expected} == expected, name


def _staircase_reports(monkeypatch) -> list:
    """Each report of the sweeps and of verify_sweep(2, 6), from the search
    and then from the suc loop, as (lam, rows, highest, lowest)."""
    reports = []
    for search in (STAIRCASE_SEARCH, _search_by_suc_chain):
        monkeypatch.setattr(verify, "staircase_search", search)
        for sweep in (*SWEEPS, (2, 6)):
            reports += [(r.lam, r.rows, r.highest, r.lowest) for r in verify_sweep(*sweep)]
    monkeypatch.setattr(verify, "staircase_search", STAIRCASE_SEARCH)
    return reports


@pytest.mark.parametrize("name", sorted(P_FAULTS))
def test_p_fault_keeps_the_staircases_and_fails_the_berele_test(
    name, monkeypatch, time_bound, cold_caches
):
    time_bound(60)
    expected = _staircase_reports(monkeypatch)
    _patch(monkeypatch, name, *P_FAULTS[name])
    for cached in SWEEP_CACHES:
        cached.cache_clear()
    assert _staircase_reports(monkeypatch) == expected, name
    with pytest.raises(AssertionError):
        test_branching.test_p_is_berele_insertion_of_both_reading_words()


def test_an_edit_that_does_not_apply_fails_with_the_fault_name(monkeypatch):
    """An edit whose old text is missing or repeated, or equals its new text,
    makes no fault: it raises, naming the fault, and binds nothing."""
    for edit in [("v > k", "v < k"), ("col", "row"), ("v % 2 == 0", "v % 2 == 0")]:
        with pytest.raises(ValueError, match="a stale fault: .* is no edit of artifact.branching._reduced"):
            _patch(monkeypatch, "a stale fault", branching, "_reduced", edit)
        assert branching._reduced is REDUCED, edit


def test_the_cold_caches_fixture_clears_every_module_cache():
    """A table that cold_caches does not empty could hide a mutant behind a
    value that an earlier sweep cached."""
    modules = (branching, characters, cli, crystal, promotion, shapes, tableaux, verify)
    cached = {id(f) for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")}
    assert cached == {id(f) for f in SWEEP_CACHES}


def test_reduced_with_a_weak_bound_is_reduced_on_every_column():
    """The argument of the equivalent mutant WEAK_REDUCED, made by its own
    edits: the same output as _reduced on every column over [1, 2n] for
    n <= 5, all of them columns over [1, 10]."""
    weak = mutant(branching, "_reduced", *EQUIVALENT[WEAK_REDUCED][2:])
    for k in range(11):
        for col in combinations(range(1, 11), k):
            assert weak(col) == branching._reduced(col), col


def _promotion_cases() -> list:
    """Every tableau of promotion_suite_exhaustive(2, 4) at n = 2, then 200
    at n = 3 drawn as promotion_suite_random(3, 200, 7) draws them."""
    cases = [(T, 2) for lam in enumerate_partitions(4, 4) for T in tableaux.enumerate_ssyt(lam, 4)]
    rng = random.Random(7)
    return cases + [(verify.random_ssyt(random_shape(8, 6, rng), 6, rng), 3) for _ in range(200)]


def test_the_kernels_fix_every_tableau_on_a_one_letter_window():
    """pr and pr_inv on [a, a] are the identity, flat and on rows, so
    promotion_relations may answer a one-letter window without a slide."""
    assert not _a_one_letter_window_moves_an_entry()


# The tableaux of _promotion_cases on which promotion_relations raises, and
# its failures on the others (the exhaustive ones + the drawn ones), with
# the true slide (None) and each slide fault that gives wrong values.
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
    case, with the true slide and under each value-level slide fault."""
    if name is not None:
        _patch(monkeypatch, name, *DETECTED[name])

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
