import hashlib
import json
import random
from fractions import Fraction

import pytest

from cochar.hilbert import grassmann_double_hilbert, utn_double_hilbert
from cochar.hooks import (
    decode_hook_mult,
    encode_hook_mult,
    hook_col_derived,
    hook_grassmann_derived,
    hook_grassmann_derived_power,
    hook_pieri_col,
    hook_pieri_row,
    hook_row_derived,
    hs_decompose,
    hs_poly,
    utn_hook_mult_series,
    HookExpansion,
    HookMultSeries,
)
from cochar.partitions import conjugate, hook_partitions_of, in_hook, partitions_upto, weight
from cochar.series import expand_factor, Series, VarSet


# -- brute-force tableau oracle ----------------------------------------------


def two_alphabet_tableaux(lam, k, l):
    """Fillings with letters 0..k-1 (first kind) then k..k+l-1 (second kind).

    Rows: weakly increasing, equal neighbors allowed only for the first kind.
    Columns: strictly increasing, equal neighbors allowed only for the second.
    Yields the content vector of each valid filling.
    """
    lam = tuple(lam)
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    filling = {}

    def ok(i, j, v):
        if j > 0:
            left = filling[(i, j - 1)]
            if v < left or (v == left and left >= k):
                return False
        if i > 0 and j < lam[i - 1]:
            up = filling[(i - 1, j)]
            if v < up or (v == up and up < k):
                return False
        return True

    def rec(idx):
        if idx == len(cells):
            content = [0] * (k + l)
            for v in filling.values():
                content[v] += 1
            yield tuple(content)
            return
        i, j = cells[idx]
        for v in range(k + l):
            if ok(i, j, v):
                filling[(i, j)] = v
                yield from rec(idx + 1)
                del filling[(i, j)]

    yield from rec(0)


def brute_hs(lam, k, l, bound):
    terms = {}
    for content in two_alphabet_tableaux(lam, k, l):
        terms[content] = terms.get(content, 0) + 1
    return Series(VarSet.ty(k, l), bound, terms)


def random_hook_expansions(k, l, bound, count, seed):
    rng = random.Random(seed)
    pool = [lam for lam in partitions_upto(bound) if in_hook(lam, k, l)]
    for _ in range(count):
        coeffs = {lam: rng.randint(1, 3) for lam in pool if rng.random() < 0.25}
        yield HookExpansion(k, l, bound, coeffs)


# -- hook Schur polynomials --------------------------------------------------


def test_hs_poly_frozen():
    assert hs_poly((1,), 1, 1, 4).terms == {(1, 0): 1, (0, 1): 1}
    assert hs_poly((2, 1, 1), 1, 1, 6).terms == {(2, 2): 1, (1, 3): 1}
    assert hs_poly((2, 2), 1, 1, 6).is_zero()
    assert hs_poly((1, 1), 1, 1, 4).terms == {(1, 1): 1, (0, 2): 1}
    assert hs_poly((2,), 1, 1, 4).terms == {(2, 0): 1, (1, 1): 1}


def test_hs_poly_vanishes_off_hook():
    for k, l in ((1, 1), (2, 1), (1, 2)):
        for lam in partitions_upto(6):
            zero = hs_poly(lam, k, l, 6).is_zero()
            assert zero == (not in_hook(lam, k, l))


def test_hs_poly_against_tableaux():
    for k, l in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for lam in partitions_upto(5):
            if not in_hook(lam, k, l):
                continue
            assert hs_poly(lam, k, l, 5) == brute_hs(lam, k, l, 5), (lam, k, l)


def test_hs_poly_degenerate_alphabets():
    # an empty second alphabet gives s_lam, an empty first one s_(lam')
    for lam in partitions_upto(6):
        if len(lam) <= 2:
            assert hs_poly(lam, 2, 0, 6) == brute_hs(lam, 2, 0, 6)
        if not lam or lam[0] <= 2:
            conj = hs_poly(conjugate(lam), 2, 0, 6)
            assert hs_poly(lam, 0, 2, 6).terms == conj.terms


def test_hs_poly_homogeneous_and_truncation():
    p = hs_poly((3, 2), 2, 1, 8)
    assert {sum(e) for e in p.terms} == {5}
    assert hs_poly((3, 2), 2, 1, 4).is_zero()


# -- decomposition -----------------------------------------------------------


def test_hs_decompose_roundtrip_basis():
    for k, l in ((1, 1), (2, 1), (2, 2)):
        for lam in partitions_upto(6):
            if not in_hook(lam, k, l):
                continue
            got = hs_decompose(hs_poly(lam, k, l, 6), k, l)
            assert got.coeffs == {lam: 1}


def test_hs_decompose_roundtrip_random():
    for k, l in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for e in random_hook_expansions(k, l, 7, 4, seed=10 * k + l):
            assert hs_decompose(e.to_series(), k, l) == e


def test_hs_decompose_grassmann_hooks():
    got = hs_decompose(grassmann_double_hilbert(1, 1, 6), 1, 1)
    expected = {(): 1}
    for q in range(1, 7):
        for r in range(7 - q):
            expected[(q,) + (1,) * r] = 1
    assert got.coeffs == expected

    got = hs_decompose(grassmann_double_hilbert(2, 2, 8), 2, 2)
    expected = {(): 1}
    for q in range(1, 9):
        for r in range(9 - q):
            expected[(q,) + (1,) * r] = 1
    assert got.coeffs == expected


def test_powers_stay_in_growing_hooks():
    for j in (1, 2, 3):
        g = grassmann_double_hilbert(2, 2, 6) ** j
        e = hs_decompose(g, 2, 2)
        for lam in e.coeffs:
            assert in_hook(lam, j, j), (j, lam)
    # on the wider alphabet the j=2 containment is not automatic
    for j in (1, 2):
        g = grassmann_double_hilbert(3, 3, 6) ** j
        e = hs_decompose(g, 3, 3)
        assert any(not in_hook(lam, j - 1, j - 1) for lam in e.coeffs)
        for lam in e.coeffs:
            assert in_hook(lam, j, j), (j, lam)


def test_hs_decompose_rejects_off_span():
    tv = VarSet.ty(1, 1)
    with pytest.raises(ValueError, match="degree 1"):
        hs_decompose(Series(tv, 4, {(1, 0): 1}), 1, 1)
    with pytest.raises(ValueError, match="do not fit"):
        hs_decompose(Series(VarSet.t(2), 4, {}), 1, 1)


def test_hs_decompose_rejects_block_asymmetric():
    # a coefficient that differs inside an orbit of one alphabet
    with pytest.raises(ValueError, match="not symmetric"):
        hs_decompose(Series(VarSet.ty(2, 1), 4, {(1, 0, 0): 1}), 2, 1)
    with pytest.raises(ValueError, match="not symmetric"):
        hs_decompose(Series(VarSet.ty(1, 2), 4, {(0, 1, 0): 1, (0, 0, 1): 2}), 1, 2)
    # equal coefficients, but the orbit of t1^2 t2 in three t's is incomplete
    with pytest.raises(ValueError, match="incomplete orbits"):
        hs_decompose(Series(VarSet.t(3), 4, {(2, 1, 0): 1, (1, 2, 0): 1}), 3, 0)


# -- Pieri steps -------------------------------------------------------------


def test_pieri_row_rectangle_example():
    e = HookExpansion(2, 3, 12, {(3, 3, 2, 1): 1})
    got = hook_pieri_row(e, 3)
    assert got.coeffs == {
        (6, 3, 2, 1): 1, (5, 3, 3, 1): 1, (5, 3, 2, 2): 1, (5, 3, 2, 1, 1): 1,
        (4, 3, 3, 2): 1, (4, 3, 3, 1, 1): 1, (4, 3, 2, 2, 1): 1, (3, 3, 3, 2, 1): 1,
    }
    enc = encode_hook_mult(got)
    assert enc.series.terms == {
        (3, 3, 0, 0, 3, 2, 1): 1,
        (3, 3, 1, 0, 3, 2, 0): 1,
        (3, 3, 1, 0, 2, 2, 1): 1,
        (3, 3, 1, 0, 3, 1, 1): 1,
        (3, 3, 2, 0, 3, 1, 0): 1,
        (3, 3, 2, 0, 2, 2, 0): 1,
        (3, 3, 2, 0, 2, 1, 1): 1,
        (3, 3, 3, 0, 2, 1, 0): 1,
    }


def test_pieri_row_overhang_example():
    e = HookExpansion(2, 2, 12, {(5, 1, 1): 1})
    got = hook_pieri_row(e, 2)
    assert got.coeffs == {
        (7, 1, 1): 1, (6, 1, 1, 1): 1, (6, 2, 1): 1, (5, 3, 1): 1, (5, 2, 1, 1): 1,
    }
    enc = encode_hook_mult(got)
    assert enc.series.terms == {
        (2, 1, 5, 0, 1, 0): 1,
        (2, 1, 4, 0, 2, 0): 1,
        (2, 2, 4, 0, 1, 0): 1,
        (2, 2, 3, 1, 1, 0): 1,
        (2, 2, 3, 0, 2, 0): 1,
    }


def test_pieri_zero_is_identity():
    for e in random_hook_expansions(2, 1, 6, 2, seed=5):
        assert hook_pieri_row(e, 0) == e
        assert hook_pieri_col(e, 0) == e


def test_pieri_col_frozen():
    assert hook_pieri_col(HookExpansion.unit(1, 1, 6), 2).coeffs == {(1, 1): 1}
    e = HookExpansion(1, 1, 6, {(1,): 1})
    assert hook_pieri_col(e, 1).coeffs == {(2,): 1, (1, 1): 1}


def test_pieri_matches_raw_products():
    for k, l in ((1, 1), (2, 1), (1, 2)):
        for e in random_hook_expansions(k, l, 6, 3, seed=20 * k + l):
            for size in (1, 2, 3):
                row = hook_pieri_row(e, size).to_series()
                assert row == e.to_series() * hs_poly((size,), k, l, 6)
                col = hook_pieri_col(e, size).to_series()
                assert col == e.to_series() * hs_poly((1,) * size, k, l, 6)


def test_pieri_conjugation_duality():
    for k, l in ((1, 1), (2, 1), (2, 2)):
        for e in random_hook_expansions(k, l, 6, 3, seed=30 * k + l):
            flipped = HookExpansion(l, k, e.bound,
                                    {conjugate(lam): c for lam, c in e.coeffs.items()})
            for size in (1, 2):
                a = hook_pieri_col(e, size)
                b = hook_pieri_row(flipped, size)
                assert {conjugate(lam): c for lam, c in a.coeffs.items()} == b.coeffs


# -- derived operators -------------------------------------------------------


def test_row_and_col_derived_on_unit():
    rows = hook_row_derived(HookExpansion.unit(1, 1, 5))
    assert rows.coeffs == {(): 1, (1,): 1, (2,): 1, (3,): 1, (4,): 1, (5,): 1}
    cols = hook_col_derived(HookExpansion.unit(1, 1, 5))
    assert cols.coeffs == {(): 1, (1,): 1, (1, 1): 1, (1, 1, 1): 1,
                           (1, 1, 1, 1): 1, (1, 1, 1, 1, 1): 1}


def test_derived_operators_commute():
    for k, l in ((1, 1), (2, 2)):
        for e in random_hook_expansions(k, l, 6, 3, seed=40 * k + l):
            assert hook_row_derived(hook_col_derived(e)) == \
                hook_col_derived(hook_row_derived(e))


def test_grassmann_derived_against_raw_series():
    for k, l in ((1, 1), (2, 1)):
        base = grassmann_double_hilbert(k, l, 7)
        for e in random_hook_expansions(k, l, 7, 3, seed=50 * k + l):
            assert hook_grassmann_derived(e).to_series() == e.to_series() * base


def test_grassmann_derived_unit_is_hook_indicator():
    got = hook_grassmann_derived(HookExpansion.unit(1, 1, 6))
    expected = {(): 1}
    for q in range(1, 7):
        for r in range(7 - q):
            expected[(q,) + (1,) * r] = 1
    assert got.coeffs == expected


# -- the split encoding ------------------------------------------------------


def test_encode_single_partition_examples():
    e = HookExpansion(2, 1, 6, {(2, 1, 1): 1})
    assert encode_hook_mult(e).series.terms == {(1, 1, 1, 0, 1): 1}
    e = HookExpansion(3, 1, 6, {(2, 1, 1): 1})
    assert encode_hook_mult(e).series.terms == {(1, 1, 1, 1, 0, 0, 0): 1}


def test_encode_decode_roundtrip():
    for k, l in ((1, 1), (2, 1), (1, 2), (2, 3)):
        for e in random_hook_expansions(k, l, 7, 3, seed=60 * k + l):
            assert decode_hook_mult(encode_hook_mult(e)) == e


def test_hook_mult_series_validation():
    vars_ = VarSet.vty(1, 1)
    with pytest.raises(ValueError):
        # arm present without a full rectangle row backing it
        HookMultSeries(1, 1, 6, Series(vars_, 6, {(0, 2, 0): 1}))
    with pytest.raises(ValueError):
        HookMultSeries(1, 1, 6, Series(VarSet.ty(1, 1), 6, {}))


def test_hook_mult_series_json_roundtrip():
    e = HookExpansion(2, 1, 8, {(2, 1, 1): 2, (3,): 1, (): 1, (4, 2): 5})
    m = encode_hook_mult(e)
    obj = json.loads(m.to_json())
    assert obj["hook"] == [2, 1]
    assert obj["terms"][0] == {"lambda0": [0, 0], "mu": [0, 0], "nu": [0], "coeff": "1"}
    back = HookMultSeries.from_obj(obj)
    assert back.series.terms == m.series.terms
    assert decode_hook_mult(back).coeffs == e.coeffs


# -- the full pipeline -------------------------------------------------------


def test_hook_mult_one_block_closed_form():
    got = utn_hook_mult_series(1, 1, 1, 10)
    vars_ = VarSet.vty(1, 1)
    geo = expand_factor(vars_, [("t1", -1, -1), ("y1", -1, -1)], 10)
    expected = Series.one(vars_, 10) + geo * Series.monomial(vars_, 10, (1, 0, 0))
    assert got.series == expected


def test_hook_mult_matches_decompose_route():
    for n, k, l, bound in ((1, 2, 2, 8), (2, 1, 1, 8), (2, 2, 3, 8)):
        direct = utn_hook_mult_series(n, k, l, bound)
        via = hs_decompose(utn_double_hilbert(n, k, l, bound), k, l)
        assert decode_hook_mult(direct) == via


# multiplicities that the former ordinary-Schur pipeline gave for
# utn_mult_series(n, d, b): support size, coefficient sum, sha256 of the
# sorted (partition, multiplicity) list, and one spot value
ONE_ALPHABET_PINS = [
    ((2, 2, 12), 49, 405,
     "05f1d1eea3f35e63354413ef288251680abb007495589d4316e711d0069ee72a", ((7, 5), 12)),
    ((3, 2, 14), 64, 3803,
     "527dad66fb9a514b7ccdb4c431e373bc288322972423a58902e5c765b8a15272", ((9, 5), 370)),
    ((2, 3, 10), 67, 823,
     "5a4ca176c97f12a8bd3a34b085e58ef39e5ca0b74e87fb77af696fd5058b689f", ((5, 3, 2), 36)),
    ((3, 3, 9), 53, 1345,
     "3f30d8155f0e7ea2f79bdcfaf8a2cbafe1fe26dc5141cc5228ca61360a4c114d", ((4, 3, 2), 160)),
]


@pytest.mark.parametrize("job, size, total, digest, spot", ONE_ALPHABET_PINS,
                         ids=[str(p[0]) for p in ONE_ALPHABET_PINS])
def test_empty_second_alphabet_matches_pinned_multiplicities(job, size, total, digest, spot):
    n, d, b = job
    items = sorted(decode_hook_mult(utn_hook_mult_series(n, d, 0, b)).coeffs.items())
    assert (len(items), sum(c for _, c in items)) == (size, total)
    assert hashlib.sha256(repr(items).encode()).hexdigest() == digest
    lam, want = spot
    assert dict(items)[lam] == want


def test_hook_mult_two_blocks_frozen():
    m = utn_hook_mult_series(2, 2, 3, 8)
    assert m.coefficient((4, 2, 1, 1)) == 38
    for extra in range(4):
        lam = (2, 2) + (1,) * extra
        assert m.coefficient(lam) == 3 * extra + 2
