"""Ordinary Schur functions as the hook layer at l = 0, and one-alphabet series.

s_lam(t_1..t_d) is hs_poly(lam, d, 0, bound) and an ordinary Schur expansion
is HookExpansion(d, 0, ...); the oracles and frozen values here are those of
the one-alphabet layer.
"""

import random
from itertools import combinations, permutations

import pytest

from cochar.hooks import (
    encode_hook_mult,
    hook_pieri_col,
    hook_pieri_row,
    hs_decompose,
    hs_poly,
    HookExpansion,
)
from cochar.partitions import partitions_of, partitions_upto
from cochar.series import expand_factor, Series, ty, vty
from test_hooks import split_doc


# -- brute-force oracle: semistandard tableaux row by row ------------------


def _rows_above(prev, length, d):
    """Weakly increasing rows of given length, entries 1..d, strictly below prev."""

    def rec(j, lo, acc):
        if j == length:
            yield tuple(acc)
            return
        floor = max(lo, (prev[j] + 1) if j < len(prev) else 1)
        for v in range(floor, d + 1):
            acc.append(v)
            yield from rec(j + 1, v, acc)
            acc.pop()

    yield from rec(0, 1, [])


def ssyt_contents(lam, d):
    """Map content vector -> number of semistandard tableaux of shape lam."""
    out = {}

    def rec(i, prev, content):
        if i == len(lam):
            key = tuple(content)
            out[key] = out.get(key, 0) + 1
            return
        for row in _rows_above(prev, lam[i], d):
            for v in row:
                content[v - 1] += 1
            rec(i + 1, row, content)
            for v in row:
                content[v - 1] -= 1

    rec(0, (0,) * (lam[0] if lam else 0), [0] * d)
    return out


# -- Schur polynomials: hs_poly at l = 0 --------------------------------------


def test_schur_poly_frozen():
    assert hs_poly((1, 1), 2, 0, 6).terms == {(1, 1): 1}
    assert hs_poly((2, 1), 2, 0, 6).terms == {(2, 1): 1, (1, 2): 1}
    assert hs_poly((1, 1, 1), 2, 0, 6).is_zero()
    assert hs_poly((2,), 2, 0, 6).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert hs_poly((), 3, 0, 4) == Series.one(ty(3, 0), 4)
    assert hs_poly((3,), 1, 0, 6).terms == {(3,): 1}


def test_schur_poly_against_tableau_count():
    for d in (1, 2, 3):
        for n in range(7):
            for lam in partitions_of(n, max_parts=3):
                expected = ssyt_contents(lam, d)
                assert hs_poly(lam, d, 0, 8).terms == expected


def test_schur_poly_dimension_at_ones():
    # number of tableaux with entries <= d equals the sum of coefficients
    for lam in ((2, 1), (3, 1), (2, 2), (4, 2, 1)):
        for d in (2, 3, 4):
            total = sum(hs_poly(lam, d, 0, 12).terms.values())
            assert total == sum(ssyt_contents(lam, d).values())


def test_schur_poly_symmetric():
    for lam in ((2, 1), (3, 2), (2, 2, 1)):
        s = hs_poly(lam, 3, 0, 8)
        for sigma in permutations(range(3)):
            permuted = {tuple(e[sigma[i]] for i in range(3)): c
                        for e, c in s.terms.items()}
            assert permuted == s.terms


def test_elementary_poly():
    for d in range(1, 5):
        for m in range(d + 1):
            direct = {}
            for subset in combinations(range(d), m):
                e = [0] * d
                for i in subset:
                    e[i] = 1
                direct[tuple(e)] = 1
            assert hs_poly((1,) * m, d, 0, 6).terms == direct
    assert hs_poly((1, 1, 1), 2, 0, 6).is_zero()


def test_schur_poly_truncation():
    assert hs_poly((5, 2), 2, 0, 4).is_zero()


# -- expansions and Pieri --------------------------------------------------


def test_expansion_basics():
    e = HookExpansion(2, 0, 10, {(2, 1): 3, (1,): 1})
    assert e.coefficient((1,)) == 1
    assert e.coefficient((5,)) == 0
    assert e.support() == [(1,), (2, 1)]
    with pytest.raises(ValueError):
        HookExpansion(1, 0, 10, {(2, 1): 1})
    assert HookExpansion(2, 0, 3, {(4, 4): 7}).is_zero()  # above bound, dropped


def test_expansion_serialization():
    # an l = 0 expansion serializes through the split encoding: every row is arm
    e = HookExpansion(2, 0, 8, {(2, 1): 3, (3,): -2, (1, 1): 1})
    obj = e.to_obj()
    assert obj["hook"] == [2, 0]
    assert obj["terms"][0] == {"lambda0": [0, 0], "mu": [1, 1], "nu": [], "coeff": "1"}
    assert obj["terms"][1] == {"lambda0": [0, 0], "mu": [2, 1], "nu": [], "coeff": "3"}
    assert obj["terms"][2] == {"lambda0": [0, 0], "mu": [3, 0], "nu": [], "coeff": "-2"}
    assert HookExpansion.from_obj(obj, 8) == e


def test_pieri_row_frozen():
    assert hook_pieri_row(HookExpansion.unit(2, 0, 9), 3).coeffs == {(3,): 1}
    assert hook_pieri_row(HookExpansion(2, 0, 9, {(2, 1): 1}), 1).coeffs == {(3, 1): 1, (2, 2): 1}
    assert hook_pieri_row(HookExpansion(2, 0, 9, {(1,): 1}), 0).coeffs == {(1,): 1}


def test_pieri_col_frozen():
    assert hook_pieri_col(HookExpansion.unit(2, 0, 9), 2).coeffs == {(1, 1): 1}
    assert hook_pieri_col(HookExpansion(2, 0, 9, {(1,): 1}), 1).coeffs == {(2,): 1, (1, 1): 1}
    assert hook_pieri_col(HookExpansion(3, 0, 9, {(2, 1): 1}), 2).coeffs == \
        {(3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1}
    assert hook_pieri_col(HookExpansion(2, 0, 9, {(1,): 1}), 3).is_zero()


def test_pieri_against_raw_products():
    for d in (2, 3):
        for n in range(5):
            for lam in partitions_of(n, max_parts=d):
                base = HookExpansion(d, 0, 8, {lam: 1})
                for m in range(4):
                    raw_row = hs_poly(lam, d, 0, 8) * hs_poly((m,), d, 0, 8)
                    assert hook_pieri_row(base, m).to_series() == raw_row
                    raw_col = hs_poly(lam, d, 0, 8) * hs_poly((1,) * m, d, 0, 8)
                    assert hook_pieri_col(base, m).to_series() == raw_col


def test_pieri_multiplicity_free():
    for lam in ((3, 1), (2, 2), (4, 2, 1)):
        for m in range(4):
            row = hook_pieri_row(HookExpansion(3, 0, 12, {lam: 1}), m)
            col = hook_pieri_col(HookExpansion(3, 0, 12, {lam: 1}), m)
            assert all(c == 1 for c in row.coeffs.values())
            assert all(c == 1 for c in col.coeffs.values())


# -- decomposition ----------------------------------------------------------


def test_schur_decompose_basis_roundtrip():
    e = hs_decompose(hs_poly((2, 1), 2, 0, 6), 2, 0)
    assert e.coeffs == {(2, 1): 1}


def test_schur_decompose_young_rule_on_one():
    g = expand_factor(ty(2, 0), [("t1", -1, -1), ("t2", -1, -1)], 3)
    assert hs_decompose(g, 2, 0).coeffs == {(): 1, (1,): 1, (2,): 1, (3,): 1}


def test_schur_decompose_squared_geometric():
    g = expand_factor(ty(2, 0), [("t1", -1, -2), ("t2", -1, -2)], 2)
    e = hs_decompose(g, 2, 0)
    # coefficient of mu equals the number of tableaux of shape mu with entries <= 2
    assert e.coeffs == {(): 1, (1,): 2, (2,): 3, (1, 1): 1}


def test_schur_decompose_random_combinations():
    rng = random.Random(20240817)
    for d in (1, 2, 3):
        for _ in range(6):
            coeffs = {}
            for lam in partitions_upto(8, max_parts=d):
                if rng.random() < 0.3:
                    coeffs[lam] = rng.randint(-4, 4)
            e = HookExpansion(d, 0, 8, coeffs)
            assert hs_decompose(e.to_series(), d, 0) == e


def test_schur_decompose_rejects_asymmetric():
    s = Series(ty(2, 0), 4, {(1, 0): 1})
    with pytest.raises(ValueError):
        hs_decompose(s, 2, 0)
    with pytest.raises(ValueError):
        hs_decompose(Series(ty(2, 0), 4, {(1, 1): 1, (2, 0): 1}), 2, 0)


# -- multiplicity series -----------------------------------------------------


# the (d, 0) split encoding: an empty rectangle v^0 and no leg, so the
# monomial of lam is t^lam, lam padded with zeros to d parts (T-form)


def test_mult_series_forms():
    e = HookExpansion(2, 0, 8, {(3, 1): 5, (1, 1): 1, (2,): 2})
    t = encode_hook_mult(e)
    assert t.vars == vty(2, 0)
    assert t.terms == {(0, 0, 3, 1): 5, (0, 0, 1, 1): 1, (0, 0, 2, 0): 2}
    assert HookExpansion.from_obj(e.to_obj(), 8) == e
    assert e.coefficient((3, 1)) == 5 and e.coefficient((2,)) == 2
    assert e.coefficient((9, 9)) == 0 and e.coefficient((1, 1, 1)) == 0


def test_mult_series_validation():
    for bad in ((0, 0, 1, 2), (1, 0, 1, 0)):  # no partition; a box in the empty rectangle
        with pytest.raises(ValueError, match=r"not a valid \(2, 0\) split"):
            HookExpansion.from_obj(split_doc(2, 0, {bad: 1}), 6)
    # to_obj writes no term beyond the bound, and the reader refuses one
    with pytest.raises(ValueError, match=r"term \(0, 0, 5, 2\) is heavier than the bound 6"):
        HookExpansion.from_obj(split_doc(2, 0, {(0, 0, 5, 2): 1, (0, 0, 1, 1): 2}), 6)


def test_mult_series_geometric_t_form():
    # all single-row partitions <=> 1/(1 - t1)
    e = HookExpansion(2, 0, 7, {(m,): 1 for m in range(8)})
    t = encode_hook_mult(e)
    geo = expand_factor(vty(2, 0), [("t1", -1, -1)], 7)
    assert t == geo


def test_decompose_synthesize_identity():
    g = expand_factor(ty(2, 0), [("t1", 1, 1), ("t2", 1, 1),
                                    ("t1", -1, -1), ("t2", -1, -1)], 8)
    e = hs_decompose(g, 2, 0)
    assert e.to_series() == g
