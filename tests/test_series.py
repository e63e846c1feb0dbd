import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cochar.series import (
    expand_factor, norm_coeff, Series, substitute_monomials, VarSet)

T1 = VarSet.t(1)
T2 = VarSet.t(2)


def series_strategy(vars_, bound, max_terms=6):
    exps = st.tuples(*[st.integers(0, bound) for _ in range(vars_.arity)]).filter(
        lambda e: sum(e) <= bound)
    coeffs = st.one_of(st.integers(-9, 9),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: Series(vars_, bound, d))


def test_norm_coeff():
    assert norm_coeff(Fraction(4, 2)) == 2
    assert isinstance(norm_coeff(Fraction(4, 2)), int)
    assert norm_coeff(Fraction(1, 2)) == Fraction(1, 2)
    assert norm_coeff("3/4") == Fraction(3, 4)
    assert norm_coeff(0) == 0


def test_varset_blocks():
    vty = VarSet.vty(2, 3)
    assert vty.names == ("v1", "v2", "t1", "t2", "y1", "y2", "y3")
    assert list(vty.block_range("t")) == [2, 3]
    assert list(vty.block_range("y")) == [4, 5, 6]
    assert vty.index("y2") == 5
    with pytest.raises(ValueError):
        vty.index("z1")
    with pytest.raises(ValueError):
        VarSet(("a", "a"))


def test_constructor_normalizes():
    s = Series(T2, 3, {(1, 0): Fraction(2, 1), (0, 1): 0, (4, 0): 5, (1, 1): Fraction(1, 2)})
    assert s.terms == {(1, 0): 2, (1, 1): Fraction(1, 2)}
    assert isinstance(s.coefficient((1, 0)), int)
    with pytest.raises(ValueError):
        Series(T2, 3, {(1,): 1})
    with pytest.raises(ValueError):
        Series(T2, 3, {(-1, 0): 1})


def test_add_mul_basic():
    a = Series(T2, 4, {(1, 0): 1, (0, 1): 1, (0, 0): 1})  # 1 + t1 + t2
    sq = a * a
    assert sq.terms == {(0, 0): 1, (1, 0): 2, (0, 1): 2,
                        (2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert (a - a).is_zero()
    assert (a * Series.zero(T2, 4)).is_zero()
    assert a * 2 == a + a
    assert a.scale(Fraction(1, 2)).coefficient((1, 0)) == Fraction(1, 2)


def test_mul_truncates_to_min_bound():
    a = Series(T1, 5, {(4,): 1, (0,): 1})
    b = Series(T1, 3, {(1,): 1, (0,): 1})
    p = a * b
    assert p.bound == 3
    assert p.terms == {(0,): 1, (1,): 1}  # t^4 and t^5 fall away


def test_pow():
    a = Series(T1, 6, {(0,): 1, (1,): 1})
    assert (a ** 3).terms == {(0,): 1, (1,): 3, (2,): 3, (3,): 1}
    assert (a ** 0) == Series.one(T1, 6)
    with pytest.raises(ValueError):
        a ** -1


def test_series_mul_contract():
    a = Series(T1, 5, {(0,): 1, (1,): 1})   # 1 + t
    b = Series(T1, 5, {(0,): 1, (1,): -1})  # 1 - t
    assert (a * b).terms == {(0,): 1, (2,): -1}
    geo = Series(T1, 5, {(j,): 1 for j in range(6)})
    assert geo * b == Series.one(T1, 5)  # t^6 falls above the bound
    assert (a * Series.zero(T1, 5)).is_zero()
    assert a * Series.one(T1, 4) == a.truncate(4)  # the smaller bound wins
    with pytest.raises(ValueError):
        a * Series.one(T2, 5)


def test_substitution_commutes_with_mul():
    a = Series(T2, 6, {(1, 0): 1, (0, 2): 3})
    b = Series(T2, 6, {(0, 0): 1, (1, 1): -2})
    t3 = VarSet.t(3)
    amap = {"t1": (1, (1, 1, 0)), "t2": (-1, (0, 0, 1))}
    left = substitute_monomials(a * b, t3, amap, 12)
    right = substitute_monomials(a, t3, amap, 12) * substitute_monomials(b, t3, amap, 12)
    assert left == right


def test_expand_factor_geometric():
    s = expand_factor(T1, [("t1", -1, -1)], 4)  # 1/(1 - t1)
    assert s.terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1, (4,): 1}
    alt = expand_factor(T1, [("t1", 1, -1)], 4)  # 1/(1 + t1)
    assert alt.terms == {(0,): 1, (1,): -1, (2,): 1, (3,): -1, (4,): 1}
    sq = expand_factor(T1, [("t1", -1, -2)], 4)  # 1/(1 - t1)^2
    assert sq.terms == {(0,): 1, (1,): 2, (2,): 3, (3,): 4, (4,): 5}


def test_expand_factor_frozen_ratio():
    # (1 + t)/(1 - t) = 1 + 2t + 2t^2 + ...
    s = expand_factor(T1, [("t1", 1, 1), ("t1", -1, -1)], 5)
    assert s.terms == {(0,): 1, (1,): 2, (2,): 2, (3,): 2, (4,): 2, (5,): 2}


def test_expand_factor_two_vars():
    s = expand_factor(T2, [("t1", -1, -1), ("t2", -1, -1)], 3)
    assert all(c == 1 for c in s.terms.values())
    assert len(s.terms) == 10  # all monomials of degree <= 3
    m = expand_factor(T2, [((1, 1), -1, -1)], 5)  # 1/(1 - t1 t2)
    assert m.terms == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_expand_factor_inverse_pairs():
    factors = [("t1", 1, 2), ((1, 1), -1, -3), ("t2", -1, 1)]
    inverse = [(b, s, -p) for b, s, p in factors]
    prod = expand_factor(T2, factors, 6) * expand_factor(T2, inverse, 6)
    assert prod == Series.one(T2, 6)


def test_expand_factor_rejects():
    with pytest.raises(ValueError):
        expand_factor(T1, [("t1", 2, 1)], 3)
    with pytest.raises(ValueError):
        expand_factor(T1, [((0,), 1, -1)], 3)
    with pytest.raises(ValueError):
        expand_factor(T1, [("t9", 1, 1)], 3)


def test_substitute_monomials():
    t3 = VarSet.t(3)
    s = Series(T2, 4, {(2, 1): 1, (1, 0): 3})
    out = substitute_monomials(
        s, t3, {"t1": (1, (1, 1, 0)), "t2": (1, (0, 0, 1))}, 8)
    assert out.terms == {(2, 2, 1): 1, (1, 1, 0): 3}
    # sign tracking: odd power of a negated image flips the term
    neg = substitute_monomials(s, t3, {"t1": (-1, (1, 0, 0)), "t2": (1, (0, 1, 0))}, 8)
    assert neg.terms == {(2, 1, 0): 1, (1, 0, 0): -3}
    # collisions must cancel exactly
    u = Series(T2, 4, {(1, 0): 1, (0, 1): -1})
    z = substitute_monomials(u, t3, {"t1": (1, (1, 0, 0)), "t2": (1, (1, 0, 0))}, 8)
    assert z.is_zero()
    with pytest.raises(ValueError):
        substitute_monomials(s, t3, {"t1": (1, (1, 0, 0))}, 8)


def test_substitute_drops_above_bound():
    s = Series(T1, 3, {(1,): 1, (2,): 1})
    out = substitute_monomials(s, T2, {"t1": (1, (1, 1))}, 3)
    assert out.terms == {(1, 1): 1}


def test_sorted_terms_and_json():
    s = Series(T2, 4, {(0, 2): 1, (2, 0): Fraction(1, 3), (1, 0): -2, (0, 0): 1, (1, 1): 4})
    order = [e for e, _ in s.sorted_terms()]
    assert order == [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)]
    obj = json.loads(s.to_json())
    assert obj[0] == {"exp": [0, 0], "num": "1", "den": "1"}
    assert {"exp": [2, 0], "num": "1", "den": "3"} in obj
    back = Series.from_obj(T2, 4, obj)
    assert back == s


def test_degree_slice_and_select():
    s = Series(T2, 4, {(1, 0): 1, (0, 1): 2, (2, 1): 5})
    assert s.degree_slice(1) == {(1, 0): 1, (0, 1): 2}
    assert s.select(lambda e: e[1] == 0).terms == {(1, 0): 1}
    assert s.truncate(1).terms == {(1, 0): 1, (0, 1): 2}
    assert s.truncate(9).bound == 9


@settings(max_examples=60)
@given(series_strategy(T2, 5), series_strategy(T2, 5), series_strategy(T2, 5))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40)
@given(series_strategy(T2, 6), series_strategy(T2, 6), st.integers(0, 6))
def test_truncation_consistency(a, b, m):
    assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)


@settings(max_examples=40)
@given(series_strategy(T2, 5))
def test_serialization_roundtrip(s):
    assert Series.from_obj(T2, 5, json.loads(s.to_json())) == s
