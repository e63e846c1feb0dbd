import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cochar.series import expand_factor, Series, ty, vty

T1 = ty(1, 0)
T2 = ty(2, 0)


def series_strategy(vars_, bound, max_terms=6):
    exps = st.tuples(*[st.integers(0, bound) for _ in range(len(vars_))]).filter(
        lambda e: sum(e) <= bound)
    coeffs = st.integers(-9, 9)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: Series(vars_, bound, d))


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(4, 2), 0.1, 2.0, True, False, "3"])
def test_a_non_int_coefficient_is_refused_at_every_door(c):
    # an integral Fraction, a float or a bool is refused too, not converted
    message = re.escape(f"coefficient {c!r} is not an int")
    with pytest.raises(ValueError, match=message):
        Series(T1, 3, {(1,): c})
    with pytest.raises(ValueError, match=message):
        Series(T1, 3, {(1,): 1}).scale(c)


@pytest.mark.parametrize("exps", [(1.5,), (1.0,), (True,), (-1,)])
def test_series_exponents_are_integers_only(exps):
    # an exponent is not truncated: (1.5,) is not (1,)
    with pytest.raises(ValueError, match=f"exponent vector .* entry {exps[0]!r} that is no"):
        Series(T1, 3, {exps: 1})


def test_variable_names():
    assert vty(2, 3) == ("v1", "v2", "t1", "t2", "y1", "y2", "y3")
    assert ty(0, 2) == ("y1", "y2")
    with pytest.raises(ValueError, match=r"duplicate variable names in \('a', 'a'\)"):
        Series(("a", "a"), 3)
    with pytest.raises(ValueError, match="unknown variable 'z1'"):
        expand_factor(vty(2, 3), [("z1", 1, 1)], 3)


def test_constructor_normalizes():
    s = Series(T2, 3, {(1, 0): 2, (0, 1): 0, (4, 0): 5, (1, 1): -1})
    assert s.terms == {(1, 0): 2, (1, 1): -1}
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
    assert a.scale(-3).coefficient((1, 0)) == -3


def test_mul_truncates_to_min_bound():
    a = Series(T1, 5, {(4,): 1, (0,): 1})
    b = Series(T1, 3, {(1,): 1, (0,): 1})
    p = a * b
    assert p.bound == 3
    assert p.terms == {(0,): 1, (1,): 1}  # t^4 and t^5 fall away


@pytest.mark.parametrize("swap", [False, True])
def test_add_truncates_to_min_bound(swap):
    a = Series(T1, 5, {(5,): 1, (3,): 2, (0,): 1})
    b = Series(T1, 3, {(3,): -2, (1,): 1})
    s = b + a if swap else a + b
    assert s.bound == 3
    assert s.terms == {(0,): 1, (1,): 1}  # t^5 falls away, t^3 cancels


def test_scale_by_zero_is_the_zero_series():
    a = Series(ty(1, 1), 4, {(1, 0): 3, (0, 2): -1})
    assert a.scale(0) == Series.zero(ty(1, 1), 4)
    assert (0 * a).is_zero() and (0 * a).bound == 4


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
    assert a * Series.one(T1, 4) == Series(T1, 4, a.terms)  # the smaller bound wins
    with pytest.raises(ValueError):
        a * Series.one(T2, 5)


def test_foreign_operands_raise_type_error():
    # a float, a Fraction or a str is no scalar and a plain int is no series:
    # Python's TypeError, not an AttributeError
    a = Series(T1, 5, {(0,): 1, (1,): 1})
    for op in (lambda: 2.5 * a, lambda: a * Fraction(1, 2), lambda: Fraction(2) * a,
               lambda: a * "x", lambda: a + 1):
        with pytest.raises(TypeError):
            op()
    assert a * 3 == 3 * a == a.scale(3)


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


@pytest.mark.parametrize("vars_, base", [(T1, "t1"), (T2, "t2"), (T2, (1, 1)), (T2, (0, 3)),
                                          (ty(2, 1), "y1"), (ty(2, 1), (2, 0, 1))])
@pytest.mark.parametrize("bound", [0, 1, 4, 9])
def test_expand_factor_power_times_its_inverse_is_one(vars_, base, bound):
    for sign in (1, -1):
        for p in range(4):
            prod = (expand_factor(vars_, [(base, sign, p)], bound)
                    * expand_factor(vars_, [(base, sign, -p)], bound))
            assert prod == Series.one(vars_, bound), (sign, p)


def test_expand_factor_rejects():
    with pytest.raises(ValueError):
        expand_factor(T1, [("t1", 2, 1)], 3)
    with pytest.raises(ValueError):
        expand_factor(T1, [((0,), 1, -1)], 3)
    with pytest.raises(ValueError):
        expand_factor(T1, [("t9", 1, 1)], 3)


@pytest.mark.parametrize("base", [(1.0, 1), (True, 0), (1, 0.5)])
def test_expand_factor_vector_bases_are_integers_only(base):
    with pytest.raises(ValueError, match="monomial exponent vector .* that is no nonnegative int"):
        expand_factor(T2, [(base, 1, 1)], 3)


@pytest.mark.parametrize("sign, power, field", [(True, 1, "sign"), (1.0, 1, "sign"),
                                                (1, True, "power"), (1, 2.0, "power")])
def test_expand_factor_sign_and_power_are_integers_only(sign, power, field):
    with pytest.raises(ValueError, match=f"factor {field} must be"):
        expand_factor(T1, [("t1", sign, power)], 3)


def test_sorted_terms_and_json():
    s = Series(T2, 4, {(0, 2): 1, (2, 0): 3, (1, 0): -2, (0, 0): 1, (1, 1): 4})
    order = [e for e, _ in s.sorted_terms()]
    assert order == [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)]
    obj = s.to_obj()
    assert obj[0] == {"exp": [0, 0], "num": "1", "den": "1"}
    assert {"exp": [1, 0], "num": "-2", "den": "1"} in obj
    back = Series.from_obj(T2, 4, obj)
    assert back == s


@pytest.mark.parametrize("field", ["exp", "num", "den"])
def test_from_obj_names_a_missing_field(field):
    row = {"exp": [2, 0], "num": "1", "den": "1"}
    del row[field]
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        Series.from_obj(T2, 4, [row])


@pytest.mark.parametrize("obj, message", [
    ([[[2, 0], "1", "1"]], "want an object with field 'exp', got list"),
    ({"exp": [2, 0], "num": "1", "den": "1"}, "want a list of terms, got dict"),
    ([{"exp": 5, "num": "1", "den": "1"}], "field 'exp' has a bad value 5"),
    ([{"exp": [2, 0], "num": None, "den": "1"}], "field 'num' has a bad value None"),
    # a JSON float or bool is not an integer, and is not truncated or read as one
    ([{"exp": [1.5, 0], "num": "2", "den": "1"}], r"field 'exp' has a bad value \[1.5, 0\]"),
    ([{"exp": [1, 0], "num": 2.9, "den": "1"}], "field 'num' has a bad value 2.9"),
    ([{"exp": [1, 0], "num": "2", "den": 1.0}], "field 'den' has a bad value 1.0"),
    ([{"exp": [True, 0], "num": "2", "den": "1"}], r"field 'exp' has a bad value \[True, 0\]"),
    ([{"exp": [1, 0], "num": False, "den": "1"}], "field 'num' has a bad value False"),
])
def test_from_obj_names_the_field_of_the_wrong_shape(obj, message):
    with pytest.raises(ValueError, match=message):
        Series.from_obj(T2, 4, obj)


def test_from_obj_refuses_a_repeated_term():
    # two rows for (1,) are refused, not summed, also where they sum to zero
    row = {"exp": [1], "num": "1", "den": "1"}
    with pytest.raises(ValueError, match=r"term \(1,\) is repeated"):
        Series.from_obj(T1, 3, [row, dict(row)])
    with pytest.raises(ValueError, match=r"term \(1,\) is repeated"):
        Series.from_obj(T1, 3, [dict(row, num="-1"), row])


def test_from_obj_refuses_a_term_above_the_bound():
    # a heavy row is refused, not dropped
    with pytest.raises(ValueError, match=r"term \(5,\) is heavier than the bound 2"):
        Series.from_obj(T1, 2, [{"exp": [5], "num": "1", "den": "1"}])


# to_obj writes the decimal digits of a nonzero int, after a "-" if it is negative
@pytest.mark.parametrize("num", [" 7_0", "1e1", "1.5", "1/2", "+3", " 7", "7 ", "7\n", "",
                                 "-", "--7", "0x1f", "\u0663", "\uff17", "0", 0, "-0", "00"])
def test_from_obj_refuses_a_num_that_to_obj_does_not_write(num):
    with pytest.raises(ValueError, match=re.escape(f"field 'num' has a bad value {num!r}")):
        Series.from_obj(T2, 4, [{"exp": [1, 0], "num": num, "den": "1"}])


# every coefficient is an int, so to_obj writes the denominator 1
@pytest.mark.parametrize("den", ["3", "0", "-1", 2, 0, " 1", "1.0", "1/1"])
def test_from_obj_refuses_a_denominator_other_than_1(den):
    with pytest.raises(ValueError, match=re.escape(f"field 'den' has a bad value {den!r}")):
        Series.from_obj(T2, 4, [{"exp": [1, 0], "num": "1", "den": den}])


def test_from_obj_takes_a_json_int_for_num_and_den():
    s = Series.from_obj(T2, 4, [{"exp": [1, 0], "num": -2, "den": 1},
                                {"exp": [0, 1], "num": "-07", "den": "01"}])
    assert s.terms == {(1, 0): -2, (0, 1): -7}


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
    # the validating constructor drops the terms above its bound
    def cut(s):
        return Series(s.vars, m, s.terms)

    assert cut(a * b) == cut(a) * cut(b)


@settings(max_examples=40)
@given(series_strategy(T2, 5))
def test_serialization_roundtrip(s):
    assert Series.from_obj(T2, 5, s.to_obj()) == s
