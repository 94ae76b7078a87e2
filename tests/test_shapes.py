"""Partition primitives and enumeration order."""

import pytest
from hypothesis import given, strategies as st

from artifact.shapes import (
    canonical,
    conjugate,
    enumerate_partitions,
    format_partition,
    parse_partition,
    part,
)
from helpers import young_diagram


def test_canonical_strips_trailing_zeros():
    assert canonical([3, 2, 0, 0]) == (3, 2)
    assert canonical([]) == ()
    assert canonical((1,)) == (1,)


def test_canonical_rejects_bad_input():
    with pytest.raises(ValueError):
        canonical([1, 2])
    with pytest.raises(ValueError):
        canonical([2, -1])


def test_part_beyond_length_is_zero():
    assert part((3, 1), 1) == 3
    assert part((3, 1), 2) == 1
    assert part((3, 1), 3) == 0
    assert part((), 1) == 0


def test_young_diagram_boxes():
    assert young_diagram((2, 1)) == {(1, 1), (2, 1), (1, 2)}
    assert young_diagram(()) == set()


def test_enumeration_order_golden():
    assert enumerate_partitions(3, 2) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (3,),
        (2, 1),
    ]


def test_enumeration_respects_bounds():
    for lam in enumerate_partitions(6, 3):
        assert sum(lam) <= 6
        assert len(lam) <= 3


def test_enumeration_is_complete():
    # partitions of exactly 5 with any length: 7 of them
    fives = [lam for lam in enumerate_partitions(5, 5) if sum(lam) == 5]
    assert len(fives) == 7


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=6))
def test_parse_format_roundtrip(parts):
    lam = canonical(sorted(parts, reverse=True))
    assert parse_partition(format_partition(lam)) == lam


def test_parse_partition_empty_forms():
    assert parse_partition("") == ()
    assert parse_partition("0") == ()
    with pytest.raises(ValueError):
        parse_partition("2,x")


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    for lam in enumerate_partitions(8, 8):
        cols = conjugate(lam)
        assert conjugate(cols) == lam
        assert {(y, x) for x, y in young_diagram(lam)} == young_diagram(cols)
