"""The symplectic character oracle and the greedy decomposition."""

import ast
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest

from artifact import characters
from artifact.characters import (
    decompose,
    even_column_lr_count,
    king_modification,
    littlewood_branching,
    restricted_gl_character,
    skew_key,
    skew_lr_count,
    skew_shape,
    sp_character,
    sp_dimension,
    sp_weight,
)
from artifact.crystal import wt_ghat
from artifact.promotion import rect
from artifact.shapes import canonical, enumerate_partitions, part
from artifact.tableaux import enumerate_columns, enumerate_ssyt, symplectic_columns
from helpers import branching_multiplicity


# References: the former bodies of the two characters, one Counter of
# weights over the enumerated tableaux.  The GL reference weighs by
# wt_ghat, which pairs the letters (1, 2n), (2, 2n - 1), ..., while the
# strip transfer pairs them as sp_weight does; the two agree because s_lam
# is symmetric in its 2n variables, and this test is where that is checked.
def _restricted_gl_character_reference(lam, n):
    return Counter(wt_ghat(cols, n) for cols in enumerate_columns(lam, 2 * n))


def _sp_character_reference(mu, n):
    return Counter(sp_weight(cols, n) for cols in symplectic_columns(mu, n))


# n -> (most boxes of a GL shape, most boxes of an Sp shape)
REFERENCE_SIZES = {1: (7, 6), 2: (7, 6), 3: (7, 6), 4: (6, 5), 5: (4, 4)}


@pytest.mark.parametrize("n", sorted(REFERENCE_SIZES))
def test_characters_match_the_enumeration_references(n):
    gl_size, sp_size = REFERENCE_SIZES[n]
    for lam in enumerate_partitions(gl_size, 2 * n):
        assert restricted_gl_character(lam, n) == _restricted_gl_character_reference(lam, n), lam
    for mu in enumerate_partitions(sp_size, n):
        assert sp_character(mu, n) == _sp_character_reference(mu, n), mu


# (n, most boxes) of the sweeps on which the rule meets its reference.
CROSS_CHECK_SWEEPS = ((1, 10), (2, 12), (3, 8), (4, 7), (5, 7))


def test_littlewood_branching_is_the_peeled_restricted_character(time_bound, cold_caches):
    """Littlewood's rule with King's modification, the sweep's oracle, gives
    the multiplicities that peeling the strip transfer's restricted
    character gives, on every shape of these sweeps."""
    time_bound(30)
    for n, size in CROSS_CHECK_SWEEPS:
        for lam in enumerate_partitions(size, 2 * n):
            reference = decompose(restricted_gl_character(lam, n), n)
            assert littlewood_branching(lam, n) == reference, (lam, n)


def test_littlewood_branching_of_a_tall_column(time_bound):
    """Lambda^{2n} of GL(2n), the determinant, restricts to the trivial
    representation of Sp(2n).  Only the 23 mu inside 1^22 are grown, not
    the 2^22 tuples of parts, and the LR count nests no frame per letter."""
    time_bound(10)
    assert littlewood_branching((1,) * 22, 11) == {(): 1}
    assert littlewood_branching((1,) * 60, 30) == {(): 1}


# (n, most boxes) of the sweeps on whose every lam/mu the diagram cache is checked.
SKEW_SWEEPS = ((2, 16), (3, 10), (4, 8))


def _inside(lam):
    """Every partition mu inside lam."""
    inside = [()]
    for p in lam:
        inside = [mu + (q,) for mu in inside for q in range(1 + min(p, mu[-1] if mu else p))]
    return [canonical(mu) for mu in inside]


def test_skew_lr_count_is_the_direct_count(time_bound, cold_caches):
    """The count cached by the skew diagram of lam/mu is the direct
    even_column_lr_count(lam, mu) for every mu inside every lam of these
    sweeps, and the shape rebuilt from a key has that key."""
    time_bound(10)
    for n, size in SKEW_SWEEPS:
        for lam in enumerate_partitions(size, 2 * n):
            for mu in _inside(lam):
                key = skew_key(lam, mu)
                assert skew_key(*skew_shape(key)) == key, (lam, mu)
                assert skew_lr_count(key) == even_column_lr_count(lam, mu), (lam, mu)


def _skew_fillings(lam, mu, m):
    """Every semistandard filling of lam/mu over [1, m], as a box dict with
    the boxes of mu as holes (None), filled row by row, left to right."""
    fillings = [{(x, y): None for y, k in enumerate(mu, start=1) for x in range(1, k + 1)}]
    for y, k in enumerate(lam, start=1):
        for x in range(part(mu, y) + 1, k + 1):
            fillings = [
                {**f, (x, y): e}
                for f in fillings
                for e in range(max(f.get((x - 1, y)) or 1, (f.get((x, y - 1)) or 0) + 1), m + 1)
            ]
    return fillings


def _is_even_column_yamanouchi(R) -> bool:
    """Row y of R is all y, and R's columns have even lengths."""
    nu = [len(row) for row in R] + [0] * (len(R) % 2)
    return all(row == [y] * len(row) for y, row in enumerate(R, start=1)) and nu[::2] == nu[1::2]


def test_even_column_lr_count_is_the_jeu_de_taquin_count(time_bound):
    """A second LR rule: c^lam_{mu nu} counts the skew tableaux of lam/mu
    over [1, len(lam)] that rectify to the Yamanouchi tableau of shape nu,
    so the even-column sum counts those whose rectification is Yamanouchi of
    even columns.  Checked on every mu inside every lam of at most 8 boxes
    and 4 rows with |lam/mu| even, for the direct count and the oracle's
    cached count, by jeu de taquin rather than by a lattice word."""
    time_bound(10)
    pairs = 0
    for lam in enumerate_partitions(8, 4):
        for mu in _inside(lam):
            if (sum(lam) - sum(mu)) % 2:
                continue
            pairs += 1
            fillings = _skew_fillings(lam, mu, len(lam))
            count = sum(_is_even_column_yamanouchi(rect(f)) for f in fillings)
            assert characters.even_column_lr_count(lam, mu) == count, (lam, mu)
            assert characters.skew_lr_count(skew_key(lam, mu)) == count, (lam, mu)
    assert pairs == 346


def test_skew_key_forgets_translations_order_and_empty_rows():
    # (3, 1)/(1): the rows (1, 3) and (0, 1) share no column, so two components.
    key = (((0, 1),), ((0, 2),))
    assert skew_key((3, 1), (1,)) == key
    assert skew_key((4, 1), (2,)) == key  # the upper component moved right
    assert skew_key((3, 2), (2,)) == key  # the two components swapped
    assert skew_key((3, 3, 1), (3, 1)) == key  # an empty row added
    assert skew_shape(key) == ((3, 2), (2,))  # key order top to bottom
    # Rows that share a column stay one component, moved as a whole.
    assert skew_key((6, 5, 1), (4, 3)) == skew_key((5, 4, 1), (3, 2)) == (
        ((0, 1),),
        ((1, 3), (0, 2)),
    )
    assert skew_key((2, 2), (1,)) == (((1, 2), (0, 2)),)
    assert skew_key((2, 2), (2, 2)) == skew_key((), ()) == ()


def test_king_modification():
    assert king_modification((2, 1), 2) == (1, (2, 1))
    # Sp(2): sp_(1,1) vanishes (h = 0) and sp_(1,1,1) = e_3 - e_1 = -sp_(1).
    assert king_modification((1, 1), 1) is None
    assert king_modification((1, 1, 1), 1) == (-1, (1,))
    # The hook of length 4 in (2, 2, 1, 1) has 2 columns; with n = 2 the
    # hook of length 2 is vertical (1 column).
    assert king_modification((2, 2, 1, 1), 1) == (1, (2,))
    assert king_modification((2, 2, 1, 1), 2) == (-1, (2, 2))
    # A horizontal hook leaves 3 rows for n = 2, and then h = 0.
    assert king_modification((2, 2, 2, 2), 2) is None


def test_the_oracle_shares_no_model_code():
    """characters takes only content from tableaux and otherwise only shapes
    from the library, so the oracle cannot share the models' enumerator,
    King condition or weights."""
    tree = ast.parse(Path(characters.__file__).read_text())
    library = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("artifact")):
            module = (node.module or "").removeprefix("artifact.")
            library.setdefault(module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("artifact") for alias in node.names)
    assert library.pop("tableaux") == {"content"}
    assert set(library) == {"shapes"}


def test_sp_dimension_is_the_mass_of_sp_character():
    pairs = [(mu, n) for n in range(1, 5) for mu in enumerate_partitions(8, n)]
    assert len(pairs) == 128
    for mu, n in pairs:
        assert sp_dimension(mu, n) == sum(sp_character(mu, n).values()), (mu, n)
    assert [sp_dimension(mu, 2) for mu in ((), (1,), (1, 1), (2,), (2, 2))] == [1, 4, 5, 10, 14]
    with pytest.raises(ValueError):
        sp_dimension((1, 1, 1), 2)


def test_sp_weight():
    assert sp_weight([[1]], 2) == (1, 0)
    assert sp_weight([[2]], 2) == (-1, 0)
    assert sp_weight([[3]], 2) == (0, 1)
    assert sp_weight([[4]], 2) == (0, -1)


def test_sp_character_box():
    assert sp_character((1,), 2) == {
        (1, 0): 1,
        (-1, 0): 1,
        (0, 1): 1,
        (0, -1): 1,
    }


def test_sp_character_masses():
    assert sum(sp_character((1,), 2).values()) == 4
    assert sum(sp_character((1, 1), 2).values()) == 5
    assert sum(sp_character((2, 2), 2).values()) == 14


def test_sp_character_rejects_long_shapes():
    with pytest.raises(ValueError):
        sp_character((1, 1, 1), 2)


def test_restricted_character_mass():
    for lam in ((2,), (1, 1), (2, 2, 1)):
        chi = restricted_gl_character(lam, 2)
        assert sum(chi.values()) == sum(1 for _ in enumerate_ssyt(lam, 4))


def _signed_permutations(n):
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            yield perm, signs


def test_weyl_invariance():
    for mu in ((2, 1), (2, 2)):
        chi = sp_character(mu, 2)
        for perm, signs in _signed_permutations(2):
            moved = {}
            for weight, m in chi.items():
                new = tuple(signs[i] * weight[perm[i]] for i in range(2))
                moved[new] = moved.get(new, 0) + m
            assert moved == chi, (mu, perm, signs)


def test_decompose_golden():
    dec = decompose(restricted_gl_character((2, 2), 2), 2)
    assert dec == {(2, 2): 1, (1, 1): 1, (): 1}


def test_decompose_recovers_irreducibles():
    for mu in enumerate_partitions(4, 2):
        assert decompose(dict(sp_character(mu, 2)), 2) == {mu: 1}


def test_decompose_stops_when_a_subtraction_leaves_its_weight(monkeypatch, cold_caches):
    """With shape (2, 2) missing from the strip transfer, subtracting the
    empty sp_character((2, 2)) cannot remove the weight (2, 2), so decompose
    raises instead of looping."""
    chi = restricted_gl_character((2, 2), 2)
    transfer = characters._strip_transfer
    monkeypatch.setattr(
        characters,
        "_strip_transfer",
        lambda lam, *rest: {} if tuple(lam) == (2, 2) else transfer(lam, *rest),
    )
    with pytest.raises(RuntimeError, match=r"left the weight \(2, 2\)"):
        decompose(chi, 2)


def test_decompose_rejects_garbage():
    with pytest.raises(RuntimeError):
        decompose({(0, 1): 1}, 2)
    with pytest.raises(RuntimeError):
        decompose({(1, 0): -1}, 2)


def test_branching_multiplicities():
    assert branching_multiplicity((1,), (1,), 2) == 1
    assert branching_multiplicity((1, 1), (1, 1), 2) == 1
    assert branching_multiplicity((1, 1), (), 2) == 1
    assert branching_multiplicity((2,), (2,), 2) == 1
    assert branching_multiplicity((2,), (), 2) == 0
    assert branching_multiplicity((2, 2), (1, 1), 3) == 1


def test_multiplicity_free():
    for lam in enumerate_partitions(6, 4):
        dec = decompose(restricted_gl_character(lam, 2), 2)
        assert all(m == 1 for m in dec.values()), lam
