from fractions import Fraction

import pytest

from cochar.hilbert import (
    grassmann_double_hilbert,
    grassmann_hilbert,
    utn_double_hilbert,
    utn_hilbert,
    utn_mult_series,
)
from cochar.hooks import hs_decompose
from cochar.partitions import part_at
from cochar.schur import convert_mult_series, to_mult_series, MultSeries
from cochar.series import expand_factor, Series, VarSet


def test_one_variable_grassmann_is_geometric():
    h = grassmann_hilbert(1, 4)
    assert h.terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1, (4,): 1}


def test_two_variable_grassmann_values():
    h = grassmann_hilbert(2, 4)
    assert h.coefficient((1, 1)) == 2
    assert h.coefficient((2, 1)) == 2
    assert h.coefficient((3, 0)) == 1
    assert h.coefficient((0, 0)) == 1
    assert sum(h.degree_slice(3).values()) == 6


def test_grassmann_multiplicities_are_hook_indicators():
    got = hs_decompose(grassmann_hilbert(2, 6), 2, 0)
    expected = {(): 1}
    for n in range(1, 7):
        expected[(n,)] = 1
        if n >= 2:
            expected[(n - 1, 1)] = 1
    assert got.coeffs == expected


def test_triangular_reduces_to_grassmann():
    for d in (1, 2, 3):
        assert utn_hilbert(1, d, 8) == grassmann_hilbert(d, 8)


def test_triangular_two_blocks_identity():
    # H(2) = 2 H + (t1+...+td-1) H^2, an instance of the general block sum
    for d in (1, 2, 3):
        tv = VarSet.t(d)
        h = grassmann_hilbert(d, 8)
        lin = Series(tv, 8, {tuple(int(i == j) for j in range(d)): 1 for i in range(d)})
        lin = lin + Series(tv, 8, {(0,) * d: -1})
        assert utn_hilbert(2, d, 8) == h.scale(2) + lin * (h * h)


def test_two_block_multiplicities_frozen():
    m = hs_decompose(utn_hilbert(2, 2, 7), 2, 0)
    assert m.coefficient((5, 2)) == 11
    assert m.coefficient((4, 3)) == 8
    assert m.coefficient((3, 2)) == 5
    assert m.coefficient((1,)) == 1


def test_mult_series_routes_agree():
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            direct = utn_mult_series(n, d, 8)
            via_series = hs_decompose(utn_hilbert(n, d, 8), d, 0)
            assert direct == to_mult_series(via_series, "T")


def test_one_block_mult_series_closed_form():
    got = convert_mult_series(utn_mult_series(1, 2, 10), "V")
    vv = VarSet.v(2)
    s = expand_factor(vv, [("v2", 1, 1), ("v1", -1, -1)], 10)
    assert got.series.terms == MultSeries("V", 2, 10, s).series.terms


def test_two_block_mult_series_closed_form():
    got = convert_mult_series(utn_mult_series(2, 2, 10), "V")
    vv = VarSet.v(2)
    lead = expand_factor(vv, [("v2", 1, 1), ("v1", -1, -1)], 10).scale(2)
    tail = expand_factor(vv, [("v2", 1, 2), ("v1", -1, -2), ("v2", -1, -1)], 10)
    num = Series(vv, 10, {(0, 0): -1, (1, 0): 1, (0, 1): 2, (1, 1): -1})
    s = lead + tail * num
    assert got.series.terms == MultSeries("V", 2, 10, s).series.terms


def test_three_block_multiplicity_frozen():
    m = utn_mult_series(3, 2, 8)
    assert m.coefficient((4, 3)) == 14
    # agreed by the operator pipeline and the raw-series decomposition
    assert m.coefficient((4, 4)) == 14


def test_row_support_bound():
    # blocks n force the (n+1)-st row to stay below 2n
    for n in (1, 2):
        d = 2 * n + 1
        for lam in utn_mult_series(n, d, 7).series.terms:
            assert part_at(lam, n + 1) <= 2 * n - 1
        for lam in hs_decompose(utn_hilbert(n, d, 7), d, 0).coeffs:
            assert part_at(lam, n + 1) <= 2 * n - 1


def test_double_hilbert_one_one():
    h = grassmann_double_hilbert(1, 1, 6)
    vars_ = VarSet.ty(1, 1)
    expected = expand_factor(
        vars_, [("t1", 1, 1), ("y1", 1, 1), ("t1", -1, -1), ("y1", -1, -1)], 6)
    expected = (expected + Series.one(vars_, 6)).scale(Fraction(1, 2))
    assert h == expected
    assert h.coefficient((1, 1)) == 2
    assert h.coefficient((1, 0)) == 1


def test_double_hilbert_pure_t_block_matches_single():
    h = grassmann_double_hilbert(2, 0, 6)
    assert h.terms == grassmann_hilbert(2, 6).terms


def test_double_hilbert_symmetry():
    # swapping the two blocks along with their variables changes nothing
    h_21 = grassmann_double_hilbert(2, 1, 5)
    h_12 = grassmann_double_hilbert(1, 2, 5)
    swapped = {(e[2], e[0], e[1]): c for e, c in h_21.terms.items()}
    assert swapped == h_12.terms


def test_utn_double_hilbert_reduces():
    for k, l in ((1, 1), (2, 1), (2, 2)):
        assert utn_double_hilbert(1, k, l, 6) == grassmann_double_hilbert(k, l, 6)


def test_utn_double_hilbert_two_blocks():
    vars_ = VarSet.ty(1, 1)
    h = grassmann_double_hilbert(1, 1, 8)
    lin = Series(vars_, 8, {(1, 0): 1, (0, 1): 1, (0, 0): -1})
    assert utn_double_hilbert(2, 1, 1, 8) == h.scale(2) + lin * (h * h)
