import math
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from cochar.partitions import (
    assemble_hook,
    char_degree,
    conjugate,
    contains,
    format_partition,
    hook_partitions_of,
    HookSplit,
    horizontal_strips,
    in_extended_hook,
    in_hook,
    parse_partition,
    part_at,
    partition,
    partitions_of,
    partitions_upto,
    split_hook,
    square_overlap,
    vertical_strips,
    weight,
)


# -- independent oracles -------------------------------------------------


@lru_cache(maxsize=None)
def syt_count(lam):
    """Standard tableaux counted by removing corner boxes one at a time."""
    if sum(lam) == 0:
        return 1
    total = 0
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            smaller = lam[:i] + (lam[i] - 1,) + lam[i + 1:]
            total += syt_count(tuple(p for p in smaller if p))
    return total


def is_horizontal_strip(inner, outer):
    if not contains(outer, inner):
        return False
    return all(part_at(outer, i + 1) <= part_at(inner, i) for i in range(1, len(outer) + 1))


def is_vertical_strip(inner, outer):
    if not contains(outer, inner):
        return False
    return all(part_at(outer, i) - part_at(inner, i) <= 1 for i in range(1, len(outer) + 1))


def brute_strips(lam, size, predicate, max_parts=None, max_part=None):
    found = set()
    for mu in partitions_of(sum(lam) + size, max_parts=max_parts, max_part=max_part):
        if predicate(lam, mu):
            found.add(mu)
    return found


@st.composite
def partitions_strategy(draw, max_weight=14, max_parts=6):
    nparts = draw(st.integers(min_value=0, max_value=max_parts))
    parts = sorted(
        draw(st.lists(st.integers(min_value=1, max_value=max_weight),
                      min_size=nparts, max_size=nparts)),
        reverse=True,
    )
    return partition(parts)


# -- normalization -------------------------------------------------------


def test_partition_normalizes():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition(()) == ()
    assert partition([5]) == (5,)


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])
    with pytest.raises(ValueError):
        partition([2, 0, 1])


def test_weight_and_part_at():
    assert weight((4, 2, 1)) == 7
    assert part_at((3, 2), 1) == 3
    assert part_at((3, 2), 2) == 2
    assert part_at((3, 2), 5) == 0
    assert part_at((), 1) == 0


def test_conjugate_frozen():
    assert conjugate((5, 1, 1)) == (3, 1, 1, 1, 1)
    assert conjugate((3, 3, 2, 1)) == (4, 3, 2)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


@given(partitions_strategy())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert weight(conjugate(lam)) == weight(lam)
    if lam:
        assert len(conjugate(lam)) == lam[0]


def test_contains():
    assert contains((4, 2, 1), (2, 2))
    assert not contains((4, 2, 1), (2, 2, 2))
    assert contains((1,), ())
    assert not contains((), (1,))


# -- character degrees ---------------------------------------------------


def test_char_degree_frozen():
    assert char_degree(()) == 1
    assert char_degree((2, 1)) == 2
    assert char_degree((2, 2)) == 2
    assert char_degree((3, 2)) == 5
    assert char_degree((4, 2)) == 9
    assert char_degree((2, 2, 1)) == 5
    assert char_degree((6,)) == 1
    assert char_degree((1, 1, 1, 1)) == 1


def test_char_degree_matches_tableau_count():
    for n in range(8):
        for lam in partitions_of(n):
            assert char_degree(lam) == syt_count(lam)


def test_char_degree_square_sum():
    for n in range(1, 9):
        assert sum(char_degree(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


@given(partitions_strategy(max_weight=8, max_parts=5))
def test_char_degree_conjugation_invariant(lam):
    assert char_degree(lam) == char_degree(conjugate(lam))


# -- hook predicates -----------------------------------------------------


def test_in_hook():
    assert in_hook((4, 3, 2, 2, 1), 2, 3)
    assert not in_hook((4, 4, 4), 2, 3)
    assert in_hook((), 0, 0)
    assert in_hook((5,), 1, 0)
    assert not in_hook((5, 1), 1, 0)
    assert in_hook((2, 2, 2), 0, 2)
    with pytest.raises(ValueError):
        in_hook((1,), -1, 2)


def test_in_extended_hook():
    # lam[n] <= 2n and lam[2n] <= n
    assert in_extended_hook((3, 3, 2, 1), 2)
    assert not in_extended_hook((5, 5, 5), 2)
    assert in_extended_hook((), 3)
    assert in_extended_hook((1, 1, 1, 1, 1), 1)
    assert not in_extended_hook((2, 2, 2), 1)
    assert in_extended_hook((4, 4, 1, 1), 2)
    assert not in_extended_hook((4, 4, 4, 4, 3), 2)


def test_square_overlap():
    assert square_overlap((3, 3, 3), 2) == 1
    assert square_overlap((3, 3, 2, 2), 2) == 0
    assert square_overlap((6, 6, 6, 5, 4), 3) == 3
    assert square_overlap((), 2) == 0
    assert square_overlap((9, 9, 9, 9, 9, 9), 3) == 4  # capped at the square width


def test_extended_hook_contains_plain_hook():
    for w in range(10):
        for lam in partitions_of(w):
            for n in (1, 2, 3):
                if in_hook(lam, n, n):
                    assert in_extended_hook(lam, n)
                if in_extended_hook(lam, n):
                    assert square_overlap(lam, n) <= max(0, (n - 1) ** 2)


# -- hook splitting ------------------------------------------------------


def test_split_hook_frozen():
    assert split_hook((2, 1, 1), 2, 1) == HookSplit(2, 1, (1, 1), (1,), (1,))
    assert split_hook((2, 1, 1), 3, 1) == HookSplit(3, 1, (1, 1, 1), (1,), ())
    assert split_hook((3, 3, 2, 1), 2, 3) == HookSplit(2, 3, (3, 3), (), (2, 1))
    assert split_hook((5, 1, 1), 2, 2) == HookSplit(2, 2, (2, 1), (3,), (1,))
    assert split_hook((4,), 1, 0) == HookSplit(1, 0, (), (4,), ())
    assert split_hook((2, 2, 2), 1, 2) == HookSplit(1, 2, (2,), (), (2, 2))
    assert split_hook((), 2, 3) == HookSplit(2, 3, (), (), ())
    assert split_hook((3, 1), 0, 4) == HookSplit(0, 4, (), (), (2, 1, 1))


def test_split_hook_rejects_outside():
    with pytest.raises(ValueError):
        split_hook((4, 4, 4), 2, 3)
    with pytest.raises(ValueError):
        split_hook((1, 1), 1, 0)


def test_assemble_hook_rejects_invalid():
    # arm row not backed by a full rectangle row
    with pytest.raises(ValueError):
        assemble_hook(HookSplit(2, 2, (1,), (1,), ()))
    # leg wider than the seam allows
    with pytest.raises(ValueError):
        assemble_hook(HookSplit(1, 2, (1,), (), (2, 2)))
    # too many arm rows
    with pytest.raises(ValueError):
        assemble_hook(HookSplit(1, 1, (1,), (2, 1), ()))
    # nu must fit in l parts
    with pytest.raises(ValueError):
        assemble_hook(HookSplit(2, 1, (1, 1), (), (1, 1)))
    # boxes below an empty rectangle region
    with pytest.raises(ValueError):
        assemble_hook(HookSplit(2, 2, (1,), (), (1,)))


def test_assemble_hook_examples():
    assert assemble_hook(HookSplit(2, 1, (1, 1), (1,), (1,))) == (2, 1, 1)
    assert assemble_hook(HookSplit(0, 4, (), (), (3, 1))) == (2, 1, 1)
    assert assemble_hook(HookSplit(1, 0, (), (4,), ())) == (4,)


def test_split_weight_identity():
    for w in range(12):
        for lam in partitions_of(w):
            for k, l in ((1, 1), (2, 1), (1, 2), (2, 3), (0, 4), (3, 0)):
                if in_hook(lam, k, l):
                    s = split_hook(lam, k, l)
                    assert weight(s.lambda0) + weight(s.mu) + weight(s.nu) == w
                    assert assemble_hook(s) == lam
                else:
                    with pytest.raises(ValueError):
                        split_hook(lam, k, l)


def test_split_roundtrip_to_weight_twenty():
    for w in range(21):
        for lam in partitions_of(w):
            for k in range(4):
                for l in range(4):
                    if in_hook(lam, k, l):
                        assert assemble_hook(split_hook(lam, k, l)) == lam


def test_in_hook_conjugate_duality():
    for w in range(13):
        for lam in partitions_of(w):
            for k in range(4):
                for l in range(4):
                    assert in_hook(lam, k, l) == in_hook(conjugate(lam), l, k)


@given(partitions_strategy(), st.integers(0, 4), st.integers(0, 4))
def test_split_assemble_roundtrip(lam, k, l):
    if in_hook(lam, k, l):
        assert assemble_hook(split_hook(lam, k, l)) == lam


# -- partition generation ------------------------------------------------


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_of_bounds():
    assert list(partitions_of(6, max_parts=2)) == [(6,), (5, 1), (4, 2), (3, 3)]
    assert set(partitions_of(6, max_part=2)) == {
        (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)}
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(3, max_parts=0)) == []


def test_partitions_of_conjugate_duality():
    for n in range(9):
        a = set(partitions_of(n, max_parts=3))
        b = {conjugate(lam) for lam in partitions_of(n, max_part=3)}
        assert a == b


def test_partitions_upto():
    assert list(partitions_upto(2)) == [(), (1,), (2,), (1, 1)]
    assert len(list(partitions_upto(8))) == sum(len(list(partitions_of(n))) for n in range(9))


def test_hook_partitions_of():
    assert hook_partitions_of(5, 1, 1) == [(5,), (4, 1), (3, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    assert len(hook_partitions_of(6, 2, 0)) == 4  # two-row partitions of 6
    for lam in hook_partitions_of(9, 2, 3):
        assert in_hook(lam, 2, 3)


# -- strip generators ----------------------------------------------------


def test_horizontal_strips_frozen():
    assert set(horizontal_strips((2, 1), 2)) == {(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}
    assert list(horizontal_strips((), 3)) == [(3,)]
    assert set(horizontal_strips((2, 2), 1)) == {(3, 2), (2, 2, 1)}
    assert list(horizontal_strips((1, 1), 0)) == [(1, 1)]


def test_vertical_strips_frozen():
    assert set(vertical_strips((2, 1), 2)) == {(3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)}
    assert list(vertical_strips((), 2)) == [(1, 1)]
    assert set(vertical_strips((2,), 1)) == {(3,), (2, 1)}


def test_strips_against_brute_force():
    for w in range(7):
        for lam in partitions_of(w):
            for size in range(4):
                assert set(horizontal_strips(lam, size)) == \
                    brute_strips(lam, size, is_horizontal_strip)
                assert set(vertical_strips(lam, size)) == \
                    brute_strips(lam, size, is_vertical_strip)


def test_strips_with_bounds():
    for lam in ((3, 1), (2, 2, 1)):
        for size in range(4):
            full = set(horizontal_strips(lam, size))
            assert set(horizontal_strips(lam, size, hook=(3, 0))) == \
                {m for m in full if len(m) <= 3}
            assert set(horizontal_strips(lam, size, hook=(0, 3))) == \
                {m for m in full if part_at(m, 1) <= 3}
            vfull = set(vertical_strips(lam, size))
            assert set(vertical_strips(lam, size, hook=(3, 0))) == \
                {m for m in vfull if len(m) <= 3}
            assert set(vertical_strips(lam, size, hook=(0, 3))) == \
                {m for m in vfull if part_at(m, 1) <= 3}


def test_strips_with_hook():
    # the hook bound keeps exactly the strips inside the hook, each once
    for k, l in ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2), (0, 2)):
        for w in range(6):
            for lam in partitions_of(w):
                for size in range(5):
                    for strips in (horizontal_strips, vertical_strips):
                        got = list(strips(lam, size, hook=(k, l)))
                        assert len(got) == len(set(got))
                        assert set(got) == {m for m in strips(lam, size)
                                            if in_hook(m, k, l)}


@given(partitions_strategy(max_weight=6, max_parts=4), st.integers(0, 3))
def test_strip_conjugate_duality(lam, size):
    vert = set(vertical_strips(lam, size))
    horiz_conj = {conjugate(m) for m in horizontal_strips(conjugate(lam), size)}
    assert vert == horiz_conj


# -- parsing -------------------------------------------------------------


def test_parse_and_format():
    assert parse_partition("[4,2,1]") == (4, 2, 1)
    assert parse_partition("4,2,1") == (4, 2, 1)
    assert parse_partition("[]") == ()
    assert parse_partition(" [ ] ") == ()
    assert format_partition((4, 2, 1)) == "[4,2,1]"
    assert format_partition(()) == "[]"
    assert parse_partition(format_partition((9, 9, 1))) == (9, 9, 1)
    with pytest.raises(ValueError):
        parse_partition("[1,2]")
    with pytest.raises(ValueError):
        parse_partition("abc")
