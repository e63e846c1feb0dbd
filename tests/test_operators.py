"""The derived operators in one alphabet: the hook operators at l = 0.

young = hook_row_derived, even column = hook_even_col_derived, conjugate
young = hook_col_derived and the Grassmann step = hook_grassmann_derived, all
on expansions HookExpansion(d, 0, ...).
"""

import random

from cochar.hooks import (
    encode_hook_mult,
    hook_col_derived,
    hook_even_col_derived,
    hook_grassmann_derived,
    hook_grassmann_derived_power,
    hook_row_derived,
    hs_poly,
    HookExpansion,
)
from cochar.partitions import partitions_upto
from cochar.series import expand_factor, Series, ty, vty


def random_expansions(d, bound, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        coeffs = {lam: rng.randint(1, 4)
                  for lam in partitions_upto(bound, max_parts=d) if rng.random() < 0.3}
        yield HookExpansion(d, 0, bound, coeffs)


def at_differences(display, bound):
    """A two-variable display in Drensky's difference coordinates read at
    every partition lam of weight at most bound, as the coefficient of
    v1^(lam1 - lam2) v2^lam2: the nonzero ones, keyed by lam."""
    out = {}
    for lam in partitions_upto(bound, max_parts=2):
        a, b = lam + (0,) * (2 - len(lam))
        c = display.coefficient((a - b, b))
        if c:
            out[lam] = c
    return out


def v_expansion(factors, numerator_terms, bound):
    """Expand a rational display in difference coordinates and read it at
    every partition of weight at most bound."""
    vars_ = ("v1", "v2")
    s = expand_factor(vars_, factors, bound)
    if numerator_terms is not None:
        s = s * Series(vars_, bound, numerator_terms)
    return at_differences(s, bound)


# -- frozen single steps ---------------------------------------------------


def test_young_derived_on_unit():
    assert hook_row_derived(HookExpansion.unit(2, 0, 2)).coeffs == {(): 1, (1,): 1, (2,): 1}
    twice = hook_row_derived(hook_row_derived(HookExpansion.unit(2, 0, 6)))
    assert twice.coefficient((1, 1)) == 1
    assert twice.coefficient((2, 1)) == 2  # tableaux of shape (2,1), entries <= 2


def test_even_column_derived_on_unit():
    assert hook_even_col_derived(HookExpansion.unit(2, 0, 8)).coeffs == {(): 1, (1, 1): 1}
    assert hook_even_col_derived(HookExpansion.unit(3, 0, 8)).coeffs == {(): 1, (1, 1): 1}
    assert hook_even_col_derived(HookExpansion.unit(4, 0, 8)).coeffs == \
        {(): 1, (1, 1): 1, (1, 1, 1, 1): 1}


def test_conjugate_young_derived_on_unit():
    assert hook_col_derived(HookExpansion.unit(1, 0, 4)).coeffs == {(): 1, (1,): 1}
    assert hook_col_derived(HookExpansion.unit(2, 0, 4)).coeffs == \
        {(): 1, (1,): 1, (1, 1): 1}


def test_even_elementary_identity():
    # the operator's multiplier really is (prod(1-t)+prod(1+t))/2, checked in full
    for d in range(1, 5):
        tv = ty(d, 0)
        plus = expand_factor(tv, [(f"t{i}", 1, 1) for i in range(1, d + 1)], 6)
        minus = expand_factor(tv, [(f"t{i}", -1, 1) for i in range(1, d + 1)], 6)
        even_es = Series.zero(tv, 6)
        for m in range(0, d + 1, 2):
            even_es = even_es + hs_poly((1,) * m, d, 0, 6)
        assert plus + minus == even_es.scale(2)


# -- raw-series oracles ------------------------------------------------------


def test_operators_match_raw_multiplication():
    for d in (1, 2, 3):
        tv = ty(d, 0)
        ones = [(f"t{i}", -1, -1) for i in range(1, d + 1)]
        geo = expand_factor(tv, ones, 8)
        plus = expand_factor(tv, [(f"t{i}", 1, 1) for i in range(1, d + 1)], 8)
        minus = expand_factor(tv, [(f"t{i}", -1, 1) for i in range(1, d + 1)], 8)
        # the even-column and Grassmann multipliers are halves: compare twice each
        sum_pm = plus + minus
        all_es = Series.zero(tv, 8)
        for m in range(d + 1):
            all_es = all_es + hs_poly((1,) * m, d, 0, 8)
        twice_grass = Series.one(tv, 8) + plus * geo
        for e in random_expansions(d, 8, 4, seed=d * 101):
            raw = e.to_series()
            assert hook_row_derived(e).to_series() == raw * geo
            assert hook_even_col_derived(e).to_series().scale(2) == raw * sum_pm
            assert hook_col_derived(e).to_series() == raw * all_es
            assert hook_grassmann_derived(e).to_series().scale(2) == raw * twice_grass


# -- frozen two-variable displays -------------------------------------------


def test_grassmann_power_frozen_v_forms():
    n = 10
    z1 = hook_grassmann_derived_power(HookExpansion.unit(2, 0, n), 1)
    expected = v_expansion([("v2", 1, 1), ("v1", -1, -1)], None, n)
    assert z1.coeffs == expected

    z2 = hook_grassmann_derived_power(HookExpansion.unit(2, 0, n), 2)
    expected = v_expansion([("v2", 1, 2), ("v1", -1, -2), ("v2", -1, -1)], None, n)
    assert z2.coeffs == expected

    seed = HookExpansion(2, 0, n, {(1,): 1})
    z2t = hook_grassmann_derived_power(seed, 2)
    expected = v_expansion([("v2", 1, 2), ("v1", -1, -2), ("v2", -1, -1)],
                           {(1, 0): 1, (0, 1): 2, (1, 1): -1}, n)
    assert z2t.coeffs == expected


# -- operator identities -----------------------------------------------------


def test_commutation():
    for d in (2, 3):
        for e in random_expansions(d, 9, 5, seed=d * 7):
            a = hook_row_derived(hook_even_col_derived(e))
            b = hook_even_col_derived(hook_row_derived(e))
            assert a == b


def test_row_derivation_is_the_geometric_product():
    # the row derivation multiplies the synthesized series by prod 1/(1 - t_i)
    for d in (1, 2, 3):
        geo = expand_factor(ty(d, 0), [(f"t{i}", -1, -1) for i in range(1, d + 1)], 8)
        for e in random_expansions(d, 8, 5, seed=d * 13):
            assert hook_row_derived(e).to_series() == e.to_series() * geo


def test_two_variable_closed_step():
    # at d=2 the even-column step multiplies the T-form series by (1 + t1 t2)
    vt = vty(2, 0)
    for e in random_expansions(2, 9, 6, seed=29):
        m = encode_hook_mult(e)
        stepped = encode_hook_mult(hook_even_col_derived(e))
        assert stepped == m * Series(vt, 9, {(0, 0, 0, 0): 1, (0, 0, 1, 1): 1})


def test_column_bound_of_iterated_even_steps():
    for d in (2, 3, 4):
        for j in (1, 2, 3, 4):
            e = HookExpansion.unit(d, 0, 10)
            for _ in range(j):
                e = hook_even_col_derived(e)
            assert all(lam[0] <= j for lam in e.coeffs if lam)
