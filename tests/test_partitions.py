import json
import math
import re
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from cochar.hooks import _derived, HookExpansion
from cochar.partitions import (
    _assemble_exps,
    _format_partition,
    _hook_partitions_upto,
    _split_exps,
    _walk,
    char_degree,
    conjugate,
    hook_partitions_of,
    horizontal_strips,
    in_extended_hook,
    in_hook,
    part_at,
    partition,
    partitions_of,
    partitions_upto,
    vertical_strips,
    weight,
)
from test_hooks import split_doc


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


@lru_cache(maxsize=None)
def brute_partitions(n):
    """Oracle: the compositions of n, one per set of cuts among its n - 1
    gaps, that weakly decrease, in descending lex order."""
    if n == 0:
        return [()]
    found = []
    for cuts in range(2 ** (n - 1)):
        ends = [0] + [i + 1 for i in range(n - 1) if cuts >> i & 1] + [n]
        parts = [b - a for a, b in zip(ends, ends[1:])]
        if parts == sorted(parts, reverse=True):
            found.append(tuple(parts))
    return sorted(found, reverse=True)


def brute_in_hook(lam, k, l):
    return len(lam) <= k or lam[k] <= l


def contains(outer, inner):
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def is_horizontal_strip(inner, outer):
    if not contains(outer, inner):
        return False
    return all(part_at(outer, i + 1) <= part_at(inner, i) for i in range(1, len(outer) + 1))


def is_vertical_strip(inner, outer):
    if not contains(outer, inner):
        return False
    return all(part_at(outer, i) - part_at(inner, i) <= 1 for i in range(1, len(outer) + 1))


def brute_strips(lam, size, predicate):
    found = set()
    for mu in partitions_of(sum(lam) + size):
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


@pytest.mark.parametrize("parts, bad", [((5.9, 2), "5.9"), ((True, True), "True"),
                                        ((3, 2.0), "2.0")])
def test_partition_takes_integer_parts_only(parts, bad):
    # a float is not truncated, and a bool is not read as 1
    with pytest.raises(ValueError, match=f"part {bad} of .* is not an integer"):
        partition(parts)


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


def test_extended_hook_contains_plain_hook():
    for w in range(10):
        for lam in partitions_of(w):
            for n in (1, 2, 3):
                if in_hook(lam, n, n):
                    assert in_extended_hook(lam, n)


# -- hook splitting ------------------------------------------------------


def test_split_exps_frozen():
    assert _split_exps((2, 1, 1), 2, 1) == (1, 1, 1, 0, 1)
    assert _split_exps((2, 1, 1), 3, 1) == (1, 1, 1, 1, 0, 0, 0)
    assert _split_exps((3, 3, 2, 1), 2, 3) == (3, 3, 0, 0, 2, 1, 0)
    assert _split_exps((5, 1, 1), 2, 2) == (2, 1, 3, 0, 1, 0)
    assert _split_exps((4,), 1, 0) == (0, 4)
    assert _split_exps((2, 2, 2), 1, 2) == (2, 0, 2, 2)
    assert _split_exps((), 2, 3) == (0,) * 7
    assert _split_exps((3, 1), 0, 4) == (2, 1, 1, 0)


def test_hook_mult_series_rejects_invalid_splits():
    for k, l, e in (
        (2, 2, (1, 0, 1, 0, 0, 0)),  # arm row not backed by a full rectangle row
        (1, 2, (1, 0, 2, 2)),  # leg wider than the seam allows
        (2, 2, (1, 0, 0, 0, 1, 0)),  # boxes below an empty rectangle region
        (2, 2, (0, 1, 0, 0, 0, 0)),  # a rectangle block that is no partition
        (2, 2, (1, 2, 0, 0, 0, 0)),  # rows that increase
    ):
        with pytest.raises(ValueError, match=re.escape(f"{e} is not a valid ({k}, {l}) split")):
            HookExpansion.from_obj(split_doc(k, l, {e: 1}), 8)


def test_assemble_exps_examples():
    assert _assemble_exps((1, 1, 1, 0, 1), 2, 1) == (2, 1, 1)
    assert _assemble_exps((3, 1, 0, 0), 0, 4) == (2, 1, 1)
    assert _assemble_exps((0, 4), 1, 0) == (4,)


def test_split_weight_identity():
    # outside the hook the boxes right of column l below row k are lost
    for w in range(12):
        for lam in partitions_of(w):
            for k, l in ((1, 1), (2, 1), (1, 2), (2, 3), (0, 4), (3, 0)):
                exps = _split_exps(lam, k, l)
                if in_hook(lam, k, l):
                    assert sum(exps) == w
                    assert _assemble_exps(exps, k, l) == lam
                else:
                    assert sum(exps) < w


def test_split_roundtrip_to_weight_twenty():
    for w in range(21):
        for lam in partitions_of(w):
            for k in range(4):
                for l in range(4):
                    if in_hook(lam, k, l):
                        assert _assemble_exps(_split_exps(lam, k, l), k, l) == lam


def test_in_hook_conjugate_duality():
    for w in range(13):
        for lam in partitions_of(w):
            for k in range(4):
                for l in range(4):
                    assert in_hook(lam, k, l) == in_hook(conjugate(lam), l, k)


@given(partitions_strategy(), st.integers(0, 4), st.integers(0, 4))
def test_split_assemble_roundtrip(lam, k, l):
    if in_hook(lam, k, l):
        assert _assemble_exps(_split_exps(lam, k, l), k, l) == lam


# -- partition generation ------------------------------------------------


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_of_bounds():
    assert partitions_of(6, max_parts=2) == [(6,), (5, 1), (4, 2), (3, 3)]
    assert partitions_of(0) == [()]
    assert partitions_of(3, max_parts=0) == []
    assert partitions_of(-1) == partitions_upto(-1) == []
    for enumerate_ in (partitions_of, partitions_upto):
        with pytest.raises(ValueError):
            enumerate_(3, -1)


def test_partitions_of_conjugate_duality():
    for n in range(9):
        a = set(partitions_of(n, max_parts=3))
        b = {conjugate(lam) for lam in partitions_of(n) if not lam or lam[0] <= 3}
        assert a == b


def test_partitions_upto():
    assert partitions_upto(2) == [(), (1,), (2,), (1, 1)]
    assert len(partitions_upto(8)) == sum(len(partitions_of(n)) for n in range(9))


def test_hook_partitions_of():
    assert hook_partitions_of(5, 1, 1) == [(5,), (4, 1), (3, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    assert len(hook_partitions_of(6, 2, 0)) == 4  # two-row partitions of 6
    for k, l in ((1, 1), (2, 3), (3, 0), (0, 2)):
        for n in range(13):
            assert hook_partitions_of(n, k, l) == \
                [lam for lam in brute_partitions(n) if brute_in_hook(lam, k, l)]
    for enumerate_ in (hook_partitions_of, _hook_partitions_upto):
        with pytest.raises(ValueError):
            enumerate_(4, -1, 2)


def test_enumerators_match_brute_force():
    # content and order, every count of parts and hook with k, l <= 4
    for n in range(13):
        every = brute_partitions(n)
        assert partitions_of(n) == partitions_of(n, None) == every
        for k in range(5):
            assert partitions_of(n, k) == [lam for lam in every if len(lam) <= k]
            for l in range(5):
                assert hook_partitions_of(n, k, l) == \
                    [lam for lam in every if brute_in_hook(lam, k, l)]
    for bound in range(13):
        upto = [lam for n in range(bound + 1) for lam in brute_partitions(n)]
        for max_parts in (None, 0, 1, 2, 4):
            assert partitions_upto(bound, max_parts) == \
                [lam for lam in upto if max_parts is None or len(lam) <= max_parts]
        for k in range(5):
            for l in range(5):
                assert _hook_partitions_upto(bound, k, l) == \
                    [lam for lam in upto if brute_in_hook(lam, k, l)]


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


@pytest.mark.parametrize("strips", [horizontal_strips, vertical_strips])
@pytest.mark.parametrize("hook", [None, (2, 1)])
def test_a_negative_strip_adds_nothing(strips, hook):
    assert list(strips((2, 1), -1, hook)) == []


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


def test_strip_order_is_frozen():
    # sequences as the generators yielded them before the all-size walk
    assert list(horizontal_strips((2, 1), 2)) == [(2, 2, 1), (3, 1, 1), (3, 2), (4, 1)]
    assert list(horizontal_strips((2, 2), 1)) == [(2, 2, 1), (3, 2)]
    assert list(horizontal_strips((3, 1), 3, hook=(3, 0))) == \
        [(3, 3, 1), (4, 2, 1), (4, 3), (5, 1, 1), (5, 2), (6, 1)]
    assert list(horizontal_strips((2, 2, 1), 2, hook=(0, 3))) == \
        [(2, 2, 2, 1), (3, 2, 1, 1), (3, 2, 2)]
    assert list(vertical_strips((2, 1), 2)) == [(2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2)]
    assert list(vertical_strips((2,), 1)) == [(2, 1), (3,)]
    assert list(vertical_strips((3, 1), 3, hook=(3, 0))) == [(4, 2, 1)]
    assert list(vertical_strips((2, 2, 1), 2, hook=(0, 3))) == \
        [(2, 2, 1, 1, 1), (2, 2, 2, 1), (3, 2, 1, 1), (3, 2, 2), (3, 3, 1)]


def test_strips_come_in_lexicographic_order():
    # with the set checks above this fixes every sequence, order included
    hooks = (None, (3, 0), (0, 3), (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (0, 2))
    for w in range(6):
        for lam in partitions_of(w):
            for size in range(5):
                for hook in hooks:
                    for strips in (horizontal_strips, vertical_strips):
                        got = list(strips(lam, size, hook=hook))
                        assert got == sorted(set(got)), (strips.__name__, lam, size, hook)


def row_walk(lam, k, l, budget):
    """Oracle: the row-by-row horizontal walk, a list in increasing lex order."""
    out = []
    rows = lam + (0,)
    last = len(lam)

    def rec(i, budget, acc):
        if budget == 0:
            out.append(tuple(acc) + lam[i:])
            return
        low = rows[i]
        cap = low + budget if i == 0 else min(lam[i - 1], low + budget)
        if i >= k:
            cap = min(cap, l)
        if i == last:
            out.append(tuple(acc))
            out.extend(tuple(acc) + (v,) for v in range(1, cap + 1))
            return
        for v in range(low, cap + 1):
            acc.append(v)
            rec(i + 1, budget - (v - low), acc)
            acc.pop()

    rec(0, budget, [])
    return out


def column_walk(lam, k, l, budget):
    """Oracle: the row-by-row vertical walk, a list in increasing lex order."""
    out = []
    last = len(lam)
    extra = max(0, k - last) if l == 0 else budget

    def rec(i, budget, prev, acc):
        if budget == 0:
            out.append(tuple(acc) + lam[i:])
            return
        if i == last:
            out.append(tuple(acc))
            out.extend(tuple(acc) + (1,) * m for m in range(1, min(budget, extra) + 1))
            return
        base = lam[i]
        acc.append(base)
        rec(i + 1, budget, base, acc)
        acc.pop()
        if base < prev and (i < k or base < l):
            acc.append(base + 1)
            rec(i + 1, budget - 1, base + 1, acc)
            acc.pop()

    rec(0, budget, (lam[0] if lam else 0) + 1, [])
    return out


def oracle_derived(e, oracle, even):
    """Oracle: multiply by the strips of the oracle walk, filtering even sizes."""
    acc = {}
    for lam, c in e.coeffs.items():
        w = sum(lam)
        for nu in oracle(lam, e.k, e.l, e.bound - w):
            if not even or (sum(nu) - w) % 2 == 0:
                acc[nu] = acc.get(nu, 0) + c
    return [(nu, c) for nu, c in acc.items() if c]


WALK_HOOKS = [(k, l) for k in range(5) for l in range(4) if k + l]
WALKS = ((False, row_walk), (True, column_walk))


def test_walks_match_row_by_row_oracles():
    # every in-hook lam of weight <= 12 and budget <= 6, (k, 0) and (0, l)
    # included; a smaller budget keeps the strips of budget 6 that fit it
    for k, l in WALK_HOOKS:
        for lam in (lam for w in range(13) for lam in hook_partitions_of(w, k, l)):
            for vertical, oracle in WALKS:
                sizes = [(nu, sum(nu) - sum(lam)) for nu in oracle(lam, k, l, 6)]
                for budget in range(7):
                    acc = {}
                    _walk(lam, k, l, budget, 1, acc, False, vertical)
                    assert list(acc) == [nu for nu, s in sizes if s <= budget], \
                        (vertical, lam, k, l, budget)
                    assert set(acc.values()) <= {1}


def test_derived_matches_oracle():
    # signed coefficients that cancel in places; dict order is the output order
    for k, l in WALK_HOOKS:
        for low, bound in ((0, 6), (6, 12)):
            domain = [lam for w in range(low, bound + 1) for lam in hook_partitions_of(w, k, l)]
            e = HookExpansion(k, l, bound, {lam: (-1) ** i * (i % 3 + 1)
                                            for i, lam in enumerate(domain)})
            for vertical, oracle in WALKS:
                for even in (False, True):
                    got = _derived(e, vertical, even)
                    assert list(got.coeffs.items()) == oracle_derived(e, oracle, even), \
                        (vertical, k, l, bound, even)


@given(partitions_strategy(max_weight=6, max_parts=4), st.integers(0, 3))
def test_strip_conjugate_duality(lam, size):
    vert = set(vertical_strips(lam, size))
    horiz_conj = {conjugate(m) for m in horizontal_strips(conjugate(lam), size)}
    assert vert == horiz_conj


# -- parsing -------------------------------------------------------------


def test_parse_and_format():
    # The CLI prints a partition as a JSON list; a reader parses it back
    # with json.loads and partition().
    def parse(text):
        return partition(json.loads(text))

    assert _format_partition((4, 2, 1)) == "[4,2,1]"
    assert _format_partition(()) == "[]"
    assert parse("[4,2,1]") == (4, 2, 1)
    assert parse("[]") == ()
    assert parse(" [ ] ") == ()
    assert parse(_format_partition((9, 9, 1))) == (9, 9, 1)
    with pytest.raises(ValueError):
        parse("[1,2]")
    with pytest.raises(ValueError):
        parse("abc")
