import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from cochar import hilbert
from cochar.hilbert import (
    grassmann_double_hilbert,
    utn_double_hilbert,
    utn_hilbert,
    utn_mult_series,
)
from cochar.hooks import decode_hook_mult, encode_hook_mult, hs_decompose
from cochar.partitions import part_at, partitions_of
from cochar.series import expand_factor, Series, ty
from test_operators import at_differences


def test_one_variable_grassmann_is_geometric():
    h = grassmann_double_hilbert(1, 0, 4)
    assert h.terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1, (4,): 1}


def test_two_variable_grassmann_values():
    h = grassmann_double_hilbert(2, 0, 4)
    assert h.coefficient((1, 1)) == 2
    assert h.coefficient((2, 1)) == 2
    assert h.coefficient((3, 0)) == 1
    assert h.coefficient((0, 0)) == 1
    assert sum(c for e, c in h.terms.items() if sum(e) == 3) == 6


def test_grassmann_multiplicities_are_hook_indicators():
    got = hs_decompose(grassmann_double_hilbert(2, 0, 6), 2, 0)
    expected = {(): 1}
    for n in range(1, 7):
        expected[(n,)] = 1
        if n >= 2:
            expected[(n - 1, 1)] = 1
    assert got.coeffs == expected


def test_triangular_reduces_to_grassmann():
    for d in (1, 2, 3):
        assert utn_hilbert(1, d, 8) == grassmann_double_hilbert(d, 0, 8)


def test_triangular_two_blocks_identity():
    # H(2) = 2 H + (t1+...+td-1) H^2, an instance of the general block sum
    for d in (1, 2, 3):
        tv = ty(d, 0)
        h = grassmann_double_hilbert(d, 0, 8)
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
            assert direct == encode_hook_mult(via_series)


def test_one_block_mult_series_closed_form():
    got = decode_hook_mult(utn_mult_series(1, 2, 10))
    vv = ("v1", "v2")
    s = expand_factor(vv, [("v2", 1, 1), ("v1", -1, -1)], 10)
    assert got.coeffs == at_differences(s, 10)


def test_two_block_mult_series_closed_form():
    got = decode_hook_mult(utn_mult_series(2, 2, 10))
    vv = ("v1", "v2")
    lead = expand_factor(vv, [("v2", 1, 1), ("v1", -1, -1)], 10).scale(2)
    tail = expand_factor(vv, [("v2", 1, 2), ("v1", -1, -2), ("v2", -1, -1)], 10)
    num = Series(vv, 10, {(0, 0): -1, (1, 0): 1, (0, 1): 2, (1, 1): -1})
    s = lead + tail * num
    assert got.coeffs == at_differences(s, 10)


def test_three_block_multiplicity_frozen():
    m = utn_mult_series(3, 2, 8)
    assert m.coefficient((4, 3)) == 14
    # agreed by the operator pipeline and the raw-series decomposition
    assert m.coefficient((4, 4)) == 14


def test_row_support_bound():
    # blocks n force the (n+1)-st row to stay below 2n
    for n in (1, 2):
        d = 2 * n + 1
        for lam in decode_hook_mult(utn_mult_series(n, d, 7)).coeffs:
            assert part_at(lam, n + 1) <= 2 * n - 1
        for lam in hs_decompose(utn_hilbert(n, d, 7), d, 0).coeffs:
            assert part_at(lam, n + 1) <= 2 * n - 1


def test_double_hilbert_one_one():
    h = grassmann_double_hilbert(1, 1, 6)
    vars_ = ty(1, 1)
    expected = expand_factor(
        vars_, [("t1", 1, 1), ("y1", 1, 1), ("t1", -1, -1), ("y1", -1, -1)], 6)
    expected = (expected + Series.one(vars_, 6)).scale(Fraction(1, 2))
    assert h == expected
    assert h.coefficient((1, 1)) == 2
    assert h.coefficient((1, 0)) == 1


def test_double_hilbert_pure_t_block_matches_single():
    # with no y block, the one-alphabet product (1/2)(1 + prod (1+t)/(1-t))
    vars_ = ty(2, 0)
    prod = expand_factor(
        vars_, [("t1", 1, 1), ("t2", 1, 1), ("t1", -1, -1), ("t2", -1, -1)], 6)
    assert grassmann_double_hilbert(2, 0, 6) == \
        (prod + Series.one(vars_, 6)).scale(Fraction(1, 2))


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
    vars_ = ty(1, 1)
    h = grassmann_double_hilbert(1, 1, 8)
    lin = Series(vars_, 8, {(1, 0): 1, (0, 1): 1, (0, 0): -1})
    assert utn_double_hilbert(2, 1, 1, 8) == h.scale(2) + lin * (h * h)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("k, l", [(2, 0), (1, 1), (2, 1)])
def test_horner_raw_route_matches_power_sum(n, k, l):
    h = grassmann_double_hilbert(k, l, 7)
    lin = Series(h.vars, 7, {tuple(int(i == j) for j in range(k + l)): 1
                             for i in range(k + l)})
    lin = lin + Series(h.vars, 7, {(0,) * (k + l): -1})
    expected = Series.zero(h.vars, 7)
    for j in range(1, n + 1):
        expected = expected + (h ** j * lin ** (j - 1)).scale(comb(n, j))
    assert utn_double_hilbert(n, k, l, 7) == expected


@pytest.mark.parametrize("k, l", [(0, 2), (3, 0), (2, 1), (3, 2)])
def test_double_hilbert_matches_product_form(k, l):
    vars_ = ty(k, l)
    factors = [(x, 1, 1) for x in vars_] + [(x, -1, -1) for x in vars_]
    expected = expand_factor(vars_, factors, 8) + Series.one(vars_, 8)
    assert grassmann_double_hilbert(k, l, 8) == expected.scale(Fraction(1, 2))


def test_grassmann_step_rejects_odd_sums(monkeypatch):
    # one more unit on the weight of P^0 S^0 leaves 2^n H one above a
    # multiple of 2^n at the constant term, so the exact division must raise
    weights = hilbert._weights

    def off_by_one(n):
        w = weights(n)
        w[0][0] += 1
        return w

    monkeypatch.setattr(hilbert, "_weights", off_by_one)
    with pytest.raises(ArithmeticError):
        grassmann_double_hilbert(1, 1, 4)
    with pytest.raises(ArithmeticError):
        utn_double_hilbert(3, 2, 1, 4)


def per_partition_coefficients(n, width, bound):
    """Oracle: the product-form evaluator run from the first part of every partition."""
    w, c = hilbert._weights(n), [[1] + [0] * bound]
    for _ in range(n):
        # times (1 + x)/(1 - x) = 1 + 2x + 2x^2 + ...
        c.append([sum(c[-1][:i + 1]) + sum(c[-1][:i]) for i in range(bound + 1)])
    out = {}
    for size in range(bound + 1):
        for a in partitions_of(size, max_parts=width):
            total = 0
            for cm, wm in zip(c, w):
                v = [1] + [0] * (n - 1)
                for p in a:
                    nv = [0] * n
                    for D, x in enumerate(v):
                        for d in range(min(p, n - 1 - D) + 1):
                            nv[D + d] += x * comb(D + d, d) * cm[p - d]
                    v = nv
                total += sum(x * y for x, y in zip(wm, v))
            q, rem = divmod(total, 1 << n)
            assert rem == 0
            if q:
                out[a] = q
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("width, bound", [(1, 12), (2, 12), (4, 10), (6, 9)])
def test_prefix_shared_coefficients_match_per_partition_oracle(n, width, bound):
    # a part step applied to the wrong prefix, or a partition skipped or met
    # twice by the depth-first walk, changes the dict
    assert hilbert._sorted_coefficients(n, width, bound) == \
        per_partition_coefficients(n, width, bound)


# sha256 of json.dumps(to_obj()) as the Horner loop of ray passes gave it
DOUBLE_HILBERT_PINS = [
    ((2, 2, 3, 14), 11628, "45d628c96e7364bca5e0518558bb05f386f1dd0a9e7df540ba3f40b17fa8b3dd"),
    ((3, 7, 0, 8), 6435, "f9d75a18e8e4d290da2efbb72c90f2114076d1e330898abf84723cee82429194"),
    ((4, 1, 1, 10), 66, "b51e3efb7a5d339c1a7003664fd3de579ecd0711cc3dfab715bab28a4536121d"),
    ((1, 2, 3, 10), 3003, "2acd10b7e9ffe5d8a5e94060442a7d75f6bc02115e410eda94e360cb9aba3162"),
]


@pytest.mark.parametrize("job, size, digest", DOUBLE_HILBERT_PINS,
                         ids=[str(p[0]) for p in DOUBLE_HILBERT_PINS])
def test_double_hilbert_to_obj_is_unchanged(job, size, digest):
    obj = utn_double_hilbert(*job).to_obj()
    assert len(obj) == size
    assert hashlib.sha256(json.dumps(obj).encode()).hexdigest() == digest


@pytest.mark.parametrize("n, k, l, bound", [(3, 2, 3, 9), (2, 4, 0, 10)])
def test_double_hilbert_is_integral(n, k, l, bound):
    coeffs = utn_double_hilbert(n, k, l, bound).terms.values()
    assert all(type(c) is int and c != 0 for c in coeffs)


def _cut_point_terms(coeffs, width, bound):
    """The walk that the ordered one replaced: every exponent vector as width
    cut points among bound + width slots, then sorted into the printed order."""
    terms = {}
    for cuts in combinations(range(bound + width), width):
        e = tuple(b - a - 1 for a, b in zip((-1,) + cuts, cuts))
        c = coeffs.get(tuple(sorted((x for x in e if x), reverse=True)))
        if c:
            terms[e] = c
    return Series(ty(width, 0), bound, terms).sorted_terms()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graded_terms_walk_in_printed_order(n):
    for width in range(1, 6):
        for bound in range(9):
            coeffs = hilbert._sorted_coefficients(n, width, bound)
            got = list(hilbert._graded_terms(coeffs, width, bound))
            assert got == _cut_point_terms(coeffs, width, bound), (width, bound)
