"""Ordinary Schur functions as the hook layer at l = 0, and one-alphabet series.

s_lam(t_1..t_d) is hs_poly(lam, d, 0, bound) and an ordinary Schur expansion
is HookExpansion(d, 0, ...); the oracles and frozen values here are those of
the one-alphabet layer.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from cochar.hooks import (
    decode_hook_mult,
    encode_hook_mult,
    hook_pieri_col,
    hook_pieri_row,
    hs_decompose,
    hs_poly,
    HookExpansion,
    HookMultSeries,
)
from cochar.partitions import char_degree, partition, partitions_of, partitions_upto, weight
from cochar.schur import (
    _perm_sign,
    _vandermonde,
    convert_mult_series,
    from_mult_series,
    MultSeries,
    to_mult_series,
    verify_mult_series,
)
from cochar.series import expand_factor, Series, VarSet


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
    assert hs_poly((), 3, 0, 4) == Series.one(VarSet.t(3), 4)
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
    e = HookExpansion(2, 0, 10, {(2, 1): 3, (1,): Fraction(2, 2)})
    assert e.coefficient((1,)) == 1
    assert e.coefficient((5,)) == 0
    assert e.support() == [(1,), (2, 1)]
    with pytest.raises(ValueError):
        HookExpansion(1, 0, 10, {(2, 1): 1})
    assert HookExpansion(2, 0, 3, {(4, 4): 7}).is_zero()  # above bound, dropped


def test_expansion_serialization():
    # an l = 0 expansion serializes through the split encoding: every row is arm
    e = HookExpansion(2, 0, 8, {(2, 1): 3, (3,): Fraction(1, 2), (1, 1): 1})
    obj = encode_hook_mult(e).to_obj()
    assert obj["hook"] == [2, 0]
    assert obj["terms"][0] == {"lambda0": [0, 0], "mu": [1, 1], "nu": [], "coeff": "1"}
    assert obj["terms"][1] == {"lambda0": [0, 0], "mu": [2, 1], "nu": [], "coeff": "3"}
    assert obj["terms"][2] == {"lambda0": [0, 0], "mu": [3, 0], "nu": [], "coeff": "1/2"}
    assert decode_hook_mult(HookMultSeries.from_obj(obj)).coeffs == e.coeffs


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


def test_vandermonde():
    assert _vandermonde(2, 5).terms == {(1, 0): 1, (0, 1): -1}
    v3 = _vandermonde(3, 5)
    # (t1-t2)(t1-t3)(t2-t3) expanded
    a = Series(VarSet.t(3), 5, {(1, 0, 0): 1, (0, 1, 0): -1})
    b = Series(VarSet.t(3), 5, {(1, 0, 0): 1, (0, 0, 1): -1})
    c = Series(VarSet.t(3), 5, {(0, 1, 0): 1, (0, 0, 1): -1})
    assert v3 == a * b * c
    assert _perm_sign((0, 1, 2)) == 1
    assert _perm_sign((1, 0, 2)) == -1
    assert _perm_sign((2, 0, 1)) == 1


def test_schur_decompose_basis_roundtrip():
    e = hs_decompose(hs_poly((2, 1), 2, 0, 6), 2, 0)
    assert e.coeffs == {(2, 1): 1}


def test_schur_decompose_young_rule_on_one():
    g = expand_factor(VarSet.t(2), [("t1", -1, -1), ("t2", -1, -1)], 3)
    assert hs_decompose(g, 2, 0).coeffs == {(): 1, (1,): 1, (2,): 1, (3,): 1}


def test_schur_decompose_squared_geometric():
    g = expand_factor(VarSet.t(2), [("t1", -1, -2), ("t2", -1, -2)], 2)
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
    s = Series(VarSet.t(2), 4, {(1, 0): 1})
    with pytest.raises(ValueError):
        hs_decompose(s, 2, 0)
    with pytest.raises(ValueError):
        hs_decompose(Series(VarSet.t(2), 4, {(1, 1): 1, (2, 0): 1}), 2, 0)


# -- multiplicity series -----------------------------------------------------


def test_mult_series_forms():
    e = HookExpansion(2, 0, 8, {(3, 1): 5, (1, 1): 1, (2,): 2})
    t = to_mult_series(e, "T")
    assert t.series.terms == {(3, 1): 5, (1, 1): 1, (2, 0): 2}
    v = to_mult_series(e, "V")
    assert v.series.terms == {(2, 1): 5, (0, 1): 1, (2, 0): 2}
    assert from_mult_series(t) == e
    assert from_mult_series(v) == e
    assert convert_mult_series(v, "T") == t
    assert t.coefficient((3, 1)) == 5 and v.coefficient((3, 1)) == 5
    assert t.coefficient((9, 9)) == 0


def test_mult_series_validation():
    bad = Series(VarSet.t(2), 6, {(1, 2): 1})
    with pytest.raises(ValueError):
        MultSeries("T", 2, 6, bad)
    with pytest.raises(ValueError):
        MultSeries("X", 2, 6, Series.one(VarSet.t(2), 6))
    # V-form terms beyond the weight bound are dropped on construction
    deep = Series(VarSet.v(2), 6, {(0, 5): 1, (1, 1): 2})
    m = MultSeries("V", 2, 6, deep)
    assert m.series.terms == {(1, 1): 2}


def test_mult_series_geometric_v_form():
    # all single-row partitions <=> 1/(1 - v1)
    e = HookExpansion(2, 0, 7, {(m,): 1 for m in range(8)})
    v = to_mult_series(e, "V")
    geo = expand_factor(VarSet.v(2), [("v1", -1, -1)], 7)
    assert v.series.terms == geo.terms


def test_verify_mult_series_frozen():
    f = hs_poly((2,), 2, 0, 6)
    good = MultSeries("T", 2, 6, Series(VarSet.t(2), 6, {(2, 0): 1}))
    bad = MultSeries("T", 2, 6, Series(VarSet.t(2), 6, {(1, 1): 1}))
    assert verify_mult_series(f, good)
    assert not verify_mult_series(f, bad)


def test_verify_mult_series_random():
    rng = random.Random(77)
    for d in (1, 2, 3):
        for _ in range(5):
            coeffs = {lam: rng.randint(1, 3)
                      for lam in partitions_upto(6, max_parts=d) if rng.random() < 0.4}
            e = HookExpansion(d, 0, 6, coeffs)
            f = e.to_series()
            assert verify_mult_series(f, to_mult_series(e, "T"))
            assert verify_mult_series(f, to_mult_series(e, "V"))
            wrong = e + HookExpansion(d, 0, 6, {(1,): 1})
            assert not verify_mult_series(f, to_mult_series(wrong, "T"))


def test_decompose_synthesize_identity_with_verify():
    g = expand_factor(VarSet.t(2), [("t1", 1, 1), ("t2", 1, 1),
                                    ("t1", -1, -1), ("t2", -1, -1)], 8)
    e = hs_decompose(g, 2, 0)
    assert e.to_series() == g
    assert verify_mult_series(g, to_mult_series(e, "T"))
