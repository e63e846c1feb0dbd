import hashlib
import json
import random
import re
import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import cochar.hooks
from cochar.cli import _raw_expansion
from cochar.hilbert import (_sorted_coefficients, grassmann_double_hilbert, utn_double_hilbert,
                            utn_mult_series)
from cochar.hooks import (
    _alternant,
    _code,
    _conjugate,
    _hs_terms,
    _peel,
    _schur_row,
    _schur_terms,
    _symmetric_slices,
    _vertical_peels,
    encode_hook_mult,
    hook_col_derived,
    hook_even_col_derived,
    hook_grassmann_derived,
    hook_grassmann_derived_power,
    hook_pieri_col,
    hook_pieri_row,
    hook_row_derived,
    hs_decompose,
    hs_poly,
    utn_hook_mult_series,
    HookExpansion,
)
from cochar.partitions import (_assemble_exps, _hook_partitions_upto, _split_exps, char_degree,
                               conjugate, partition, horizontal_strips, in_hook, partitions_of,
                               partitions_upto, vertical_strips)
from cochar.series import expand_factor, Series, ty, vty


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
    return Series(ty(k, l), bound, terms)


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


@contextmanager
def time_limit(seconds):
    """Fail instead of hanging, should a forward substitution keep peeling a
    residual that it cannot empty."""
    def stop(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_hs_decompose_rejects_off_span():
    tv = ty(1, 1)
    with time_limit(10), pytest.raises(ValueError, match="degree 1"):
        hs_decompose(Series(tv, 4, {(1, 0): 1}), 1, 1)
    with pytest.raises(ValueError, match="do not fit"):
        hs_decompose(Series(ty(2, 0), 4, {}), 1, 1)


def test_hs_decompose_rejects_block_asymmetric():
    # a coefficient that differs inside an orbit of one alphabet
    with pytest.raises(ValueError, match="not symmetric"):
        hs_decompose(Series(ty(2, 1), 4, {(1, 0, 0): 1}), 2, 1)
    with pytest.raises(ValueError, match="not symmetric"):
        hs_decompose(Series(ty(1, 2), 4, {(0, 1, 0): 1, (0, 0, 1): 2}), 1, 2)
    # equal coefficients, but the orbit of t1^2 t2 in three t's is incomplete
    with pytest.raises(ValueError, match="incomplete orbits"):
        hs_decompose(Series(ty(3, 0), 4, {(2, 1, 0): 1, (1, 2, 0): 1}), 3, 0)


# -- Pieri steps -------------------------------------------------------------


def test_pieri_row_rectangle_example():
    e = HookExpansion(2, 3, 12, {(3, 3, 2, 1): 1})
    got = hook_pieri_row(e, 3)
    assert got.coeffs == {
        (6, 3, 2, 1): 1, (5, 3, 3, 1): 1, (5, 3, 2, 2): 1, (5, 3, 2, 1, 1): 1,
        (4, 3, 3, 2): 1, (4, 3, 3, 1, 1): 1, (4, 3, 2, 2, 1): 1, (3, 3, 3, 2, 1): 1,
    }
    assert encode_hook_mult(got).terms == {
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
    assert encode_hook_mult(got).terms == {
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


# -- derivations against their former one-size-at-a-time definition ----------


def pieri_sum(e, step, sizes):
    """Sum of one Pieri step per strip size: how the derivations were defined."""
    total = HookExpansion(e.k, e.l, e.bound)
    for size in sizes:
        total = total + step(e, size)
    return total


HOOKS = st.sampled_from([(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (1, 1), (2, 1),
                         (1, 2), (2, 2)])


@st.composite
def hook_expansions(draw, hooks=HOOKS, coeffs=st.integers(-3, 3)):
    k, l = draw(hooks)
    bound = draw(st.integers(0, 10))
    pool = [lam for lam in partitions_upto(min(bound, 7)) if in_hook(lam, k, l)]
    chosen = draw(st.lists(st.sampled_from(pool), max_size=6))
    return HookExpansion(k, l, bound, {lam: draw(coeffs) for lam in chosen})


@settings(max_examples=60, deadline=None)
@given(hook_expansions())
@example(HookExpansion(2, 1, 7, {(2, 2, 1): 2, (1,): -1, (): 1}))
def test_derivations_match_pieri_sums(e):
    sizes = range(e.bound + 1)
    assert hook_row_derived(e) == pieri_sum(e, hook_pieri_row, sizes)
    assert hook_col_derived(e) == pieri_sum(e, hook_pieri_col, sizes)
    assert hook_even_col_derived(e) == pieri_sum(e, hook_pieri_col, sizes[::2])


@settings(max_examples=60, deadline=None)
@given(hook_expansions(), st.integers(0, 4))
@example(HookExpansion(1, 0, 4, {(3,): 1}), 1)  # a (k, 0) hook takes no row past k
@example(HookExpansion(2, 1, 8, {(2, 2, 1): 2, (1,): 1}), 2)  # row 3 stays at most l
def test_pieri_steps_keep_the_hook_part(e, size):
    # the product with no hook at all, cut down to the hook afterwards
    for step, strips in ((hook_pieri_row, horizontal_strips),
                         (hook_pieri_col, vertical_strips)):
        coeffs = {}
        for lam, c in e.coeffs.items():
            for nu in strips(lam, size):
                if in_hook(nu, e.k, e.l):
                    coeffs[nu] = coeffs.get(nu, 0) + c
        assert step(e, size) == HookExpansion(e.k, e.l, e.bound, coeffs)


# -- decomposition in the basis s_alpha(t) y^beta ------------------------------


def decode(code, k):
    """The weakly decreasing exponents of a multiset code of hooks._code: the
    count of exponent e in bits w*e .. w*e + w - 1, w = k.bit_length()."""
    w = k.bit_length()
    exps = []
    for e in range(code.bit_length() // w + 1):
        exps += [e] * (code >> w * e & (1 << w) - 1)
    return tuple(reversed(exps))


@lru_cache(maxsize=None)
def alternant(alpha, k):
    """_alternant(alpha, k) with a fresh memo of tails, each exponent
    multiset decoded."""
    return tuple((c, decode(e, k)) for c, e in _alternant(alpha, k, {}))


def permutation_sum(alpha, k):
    """Every w in S_k, signed by its inversions, with no pruning."""
    padded = alpha + (0,) * (k - len(alpha))
    expected = {}
    for w in permutations(range(k)):
        exps = [padded[i] - i + w[i] for i in range(k)]  # alpha + delta - w(delta)
        if min(exps) >= 0:
            key = tuple(sorted(exps, reverse=True))
            sign = (-1) ** sum(w[i] > w[j] for i in range(k) for j in range(i + 1, k))
            expected[key] = expected.get(key, 0) + sign
    return {e: c for e, c in expected.items() if c}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8])
def test_alternant_matches_the_permutation_sum(k):
    # from k = 5 on, weight at most 8 gives alpha with r < k and repeated
    # parts; S_8 is large, so k = 8 checks a few alpha.  One memo of tails
    # serves every alpha, as in the peel
    tails = {}
    alphas = partitions_upto(8, max_parts=k) if k < 8 else [(8,), (1,) * 8, (3, 3, 2, 2, 1, 1)]
    for alpha in alphas:
        terms = _alternant(alpha, k, tails)
        got = {decode(e, k): c for c, e in terms}
        assert len(got) == len(terms) and all(c for c, e in terms), alpha
        assert got == permutation_sum(alpha, k), alpha


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_schur_row_reads_the_alternant(k):
    # the l = 0 peel sums each alternant straight from its tail rows: the
    # same coefficients as the merged alternant, on random blocks that miss
    # about half their keys and hold signed entries
    rng = random.Random(k)
    w = k.bit_length()
    tails = {}
    nonzero = 0
    for m in range(9):
        keys = [_code(a + (0,) * (k - len(a)), w)
                for a in partitions_of(m, max_parts=k)]
        for _ in range(3):
            g = {e: rng.choice([-2, -1, 1, 3, 5])
                 for e in rng.sample(keys, len(keys) // 2 + 1)}
            want = {}
            for alpha in partitions_of(m, k):
                d = sum(c * g.get(e, 0) for c, e in _alternant(alpha, k, {}))
                if d:
                    want[alpha] = d
            assert _schur_row(g, m, k, tails) == want, (m, g)
            nonzero += len(want)
    assert nonzero


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8])
def test_multiset_codes_name_multisets_of_at_most_k_exponents(k):
    w = k.bit_length()
    seen = {}
    for size in range(k + 1):
        for exps in combinations_with_replacement(range(5), size):
            code = _code(exps, w)
            assert seen.setdefault(code, exps) == exps
            assert _code(exps[::-1], w) == code and decode(code, k) == exps[::-1]
    assert _code((3, 0, 3, 5, 3), w) == _code((3, 0, 3), w) + _code((5, 3), w)


@settings(max_examples=80, deadline=None)
@given(hook_expansions(st.sampled_from([(1, 1), (2, 2), (3, 1), (1, 3), (0, 3), (3, 0), (2, 3)]),
                       st.sampled_from([-3, -2, -1, 1, 2, 3, 5, -7])))
# t1 t2 y1^3 cancels to 0, but s_(1,1)(t) y1^3 has coefficient 3: the alternant
# is evaluated at every alpha of the remaining degree, not at present keys only
@example(HookExpansion(2, 2, 5, {(1, 1, 1, 1, 1): 3, (3, 1, 1): -3}))
def test_hs_decompose_roundtrip_signed(e):
    assert hs_decompose(e.to_series(), e.k, e.l) == e


def test_hs_decompose_rejects_off_span_in_both_orientations():
    # y1 + y2 lacks the t1 of hs_(1) at (1, 2), peeled with the blocks swapped
    with time_limit(10), pytest.raises(ValueError, match="degree 1: residual"):
        hs_decompose(Series(ty(1, 2), 4, {(0, 1, 0): 1, (0, 0, 1): 1}), 1, 2)
    # e_2(t) alone lacks the rest of hs_(1,1) at (2, 1), peeled as it stands
    with time_limit(10), pytest.raises(ValueError, match="degree 2: residual"):
        hs_decompose(Series(ty(2, 1), 4, {(1, 1, 0): 1}), 2, 1)


# -- the y-strip tables -------------------------------------------------------


def brute_vertical_peels(lam):
    """Every mu contained in lam with lam/mu a vertical strip, with the boxes stripped."""
    out = []
    for drop in product((0, 1), repeat=len(lam)):
        mu = tuple(p - d for p, d in zip(lam, drop))
        if all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1)):
            out.append((tuple(p for p in mu if p), sum(drop)))
    return out


@pytest.mark.parametrize("k, l", [(3, 0), (0, 2), (2, 1), (3, 2)])
def test_vertical_peels_are_the_strips_that_stay_in_the_smaller_hook(k, l):
    for lam in partitions_upto(10):
        if in_hook(lam, k, l):
            want = [(mu, s) for mu, s in brute_vertical_peels(lam)
                    if len(mu) <= k or mu[k] <= l - 1]
            assert sorted(_vertical_peels(lam, k, l)) == sorted(want), lam


@lru_cache(maxsize=None)
def unpruned_hs_terms(lam, k, l, schur_t):
    """Oracle: the y-strip recursion over every vertical peel, filtering each term."""
    if len(lam) > k and lam[k] > l:
        return {}
    if l == 0:
        if schur_t:
            return {lam + (0,) * (k - len(lam)): 1}
        return dict(brute_hs(lam, k, 0, sum(lam)).terms)
    acc = {}
    for mu, stripped in brute_vertical_peels(lam):
        for e, c in unpruned_hs_terms(mu, k, l - 1, schur_t).items():
            if schur_t and l > 1 and e[-1] < stripped:
                continue
            acc[e + (stripped,)] = acc.get(e + (stripped,), 0) + c
    return acc


@pytest.mark.parametrize("schur_t", [False, True])
@pytest.mark.parametrize("k, l", [(1, 1), (2, 2), (3, 1), (3, 2), (4, 4)])
def test_hs_terms_match_the_unpruned_recursion(k, l, schur_t):
    for lam in partitions_upto(9 if schur_t else 7):
        terms = _hs_terms(lam, k, l)
        monomials = dict(terms)
        assert len(monomials) == len(terms)
        if not schur_t:
            assert monomials == unpruned_hs_terms(lam, k, l, False), lam
            continue
        # the oracle tables of max_peel, in the basis s_alpha(t) y^beta with
        # beta weakly decreasing, are the alternant image of the monomials
        want = {}
        for beta in {e[k:] for e in monomials}:
            if list(beta) != sorted(beta, reverse=True):
                continue
            for alpha in partitions_of(sum(lam) - sum(beta), k):
                d = sum(c * monomials.get(e + beta, 0) for c, e in alternant(alpha, k))
                if d:
                    want[alpha + (0,) * (k - len(alpha)) + beta] = d
        assert unpruned_hs_terms(lam, k, l, True) == want, lam


# -- the peel ------------------------------------------------------------------


def max_peel(slices, k, l):
    """Oracle: the forward substitution that peels the largest residual key
    with the whole (k, l) table of its partition, until the slice is empty."""
    swap = l > k
    if swap:
        k, l = l, k
    coeffs = {}
    for n, grouped in slices:
        terms = {}
        for y, g in grouped.items():
            g = {decode(e, k): c for e, c in g.items()}
            for alpha in partitions_of(n - sum(y), k):
                d = sum(c * g.get(e, 0) for c, e in alternant(alpha, k))
                if d:
                    terms[alpha + (0,) * (k - len(alpha)) + y] = d
        while terms:
            key = max(terms)
            top, below = key[:k], _conjugate(key[k:])
            if below and top[k - 1] < below[0]:
                raise ValueError(f"degree {n}: residual term {key} is not led by any hook "
                                 f"basis element")
            lam = tuple(p for p in top if p) + below
            c = terms[key]
            coeffs[lam] = coeffs.get(lam, 0) + c
            if not coeffs[lam]:
                del coeffs[lam]
            for e, v in unpruned_hs_terms(lam, k, l, True).items():
                t = terms.get(e, 0) - c * v
                if t:
                    terms[e] = t
                else:
                    terms.pop(e, None)
    return {_conjugate(lam): c for lam, c in coeffs.items()} if swap else coeffs


@pytest.mark.parametrize("n, k, l, bound", [(2, 2, 3, 12), (3, 3, 2, 9), (2, 1, 2, 12),
                                            (2, 4, 0, 10), (1, 1, 4, 10), (2, 2, 3, 14),
                                            (3, 2, 3, 11), (1, 3, 3, 10), (2, 4, 2, 9)])
def test_peel_matches_the_max_driven_oracle(n, k, l, bound):
    slices = _symmetric_slices(_sorted_coefficients(n, k + l, bound), k, l)
    got = _peel(slices, k, l)
    assert got and got == max_peel(slices, k, l)


def outcome(peel, slices, k, l):
    """The coefficient map, or the degree of the residual that stops the peel."""
    try:
        return peel(slices, k, l)
    except ValueError as exc:
        found = re.match(r"degree (\d+): residual", str(exc))
        assert found, exc
        return int(found.group(1))


@pytest.mark.parametrize("n, k, l, bound", [(3, 2, 2, 7), (2, 2, 3, 7)])
def test_peel_agrees_with_the_oracle_on_perturbed_keys(n, k, l, bound):
    # a block-sorted key stands for its orbit, so the perturbed slices stay
    # symmetric in each alphabet but mostly leave the span
    slices = _symmetric_slices(_sorted_coefficients(n, k + l, bound), k, l)
    stopped = 0
    for i, (degree, grouped) in enumerate(slices):
        for y, row in grouped.items():
            for t, step in product(row, (1, -1)):
                changed = {**grouped, y: {**row, t: row[t] + step}}
                perturbed = slices[:i] + [(degree, changed)] + slices[i + 1:]
                got = outcome(_peel, perturbed, k, l)
                assert got == outcome(max_peel, perturbed, k, l), (y, t, step)
                stopped += got == degree
    assert stopped


def test_sparse_input_peels_in_time():
    # one partition at hook (4, 4), bound 24: the empty degrees cost nothing
    with time_limit(5):
        got = hs_decompose(hs_poly((4,), 4, 4, 24), 4, 4)
    assert got.coeffs == {(4,): 1}


# -- the raw route's peel input ----------------------------------------------


def all_combination_slices(n, k, l, bound):
    """Oracle: every choice of k positions of each padded sorted vector as the
    t-block, grouped by the branching block (the t-block when l > k)."""
    slices = {}
    for a, c in _sorted_coefficients(n, k + l, bound).items():
        padded = a + (0,) * (k + l - len(a))
        for pick in combinations(range(k + l), k):
            t = tuple(padded[i] for i in pick)
            y = tuple(padded[i] for i in range(k + l) if i not in pick)
            branching, alternant = (t, y) if l > k else (y, t)
            slices.setdefault(sum(a), {}).setdefault(branching, {})[alternant] = c
    return slices


@pytest.mark.parametrize("n, k, l, bound", [(2, 2, 3, 10), (3, 3, 2, 9), (2, 4, 0, 10),
                                            (1, 1, 4, 10), (2, 4, 4, 8), (2, 1, 0, 8)])
def test_block_splits_give_the_all_combination_slices(n, k, l, bound):
    coeffs = _sorted_coefficients(n, k + l, bound)
    slices = {}
    for a, c in coeffs.items():
        [(degree, grouped)] = _symmetric_slices({a: c}, k, l)
        keys = [(b, g) for b, row in grouped.items() for g in row]
        # each arrangement once: as many as the distinct choices of k positions
        padded = a + (0,) * (k + l - len(a))
        assert len(keys) == len({tuple(padded[i] for i in pick)
                                 for pick in combinations(range(k + l), k)}), a
        for b, row in grouped.items():
            slices.setdefault(degree, {}).setdefault(b, {}).update(row)
    decoded = {degree: {b: {decode(g, max(k, l)): c for g, c in row.items()}
                        for b, row in grouped.items()}
               for degree, grouped in slices.items()}
    assert decoded == all_combination_slices(n, k, l, bound)
    assert _symmetric_slices(coeffs, k, l) == sorted(slices.items())


def test_decompose_builds_no_monomial_tables():
    _schur_terms.cache_clear()
    _hs_terms.cache_clear()
    _raw_expansion(2, 4, 0, 10)
    _raw_expansion(2, 2, 3, 8)
    _raw_expansion(3, 2, 3, 11)
    hs_decompose(utn_double_hilbert(2, 1, 3, 8), 1, 3)
    assert _schur_terms.cache_info().misses == 0
    assert _hs_terms.cache_info().currsize == 0


# -- the split encoding ------------------------------------------------------


def test_encode_single_partition_examples():
    e = HookExpansion(2, 1, 6, {(2, 1, 1): 1})
    assert encode_hook_mult(e).terms == {(1, 1, 1, 0, 1): 1}
    e = HookExpansion(3, 1, 6, {(2, 1, 1): 1})
    assert encode_hook_mult(e).terms == {(1, 1, 1, 1, 0, 0, 0): 1}


def test_encode_decode_roundtrip():
    for k, l in ((1, 1), (2, 1), (1, 2), (2, 3)):
        for e in random_hook_expansions(k, l, 7, 3, seed=60 * k + l):
            assert {_assemble_exps(x, k, l): c
                    for x, c in encode_hook_mult(e).terms.items()} == e.coeffs
            assert HookExpansion.from_obj(e.to_obj(), e.bound) == e


def split_doc(k, l, terms):
    """The {"hook", "terms"} document of split exponent vectors and coefficients."""
    return {"hook": [k, l], "terms": [
        {"lambda0": list(x[:k]), "mu": list(x[k:2 * k]), "nu": list(x[2 * k:]), "coeff": c}
        for x, c in terms.items()]}


def test_hook_mult_series_validation():
    # arm present without a full rectangle row backing it
    with pytest.raises(ValueError, match=re.escape("(0, 2, 0) is not a valid (1, 1) split")):
        HookExpansion.from_obj(split_doc(1, 1, {(0, 2, 0): 1}), 6)


@pytest.mark.parametrize("k, l", [(-2, 1), (-1, 2), (0, 0), (1, -1)])
def test_hook_mult_series_needs_a_nonempty_hook(k, l):
    with pytest.raises(ValueError, match="need a nonempty hook"):
        HookExpansion(k, l, 3)
    with pytest.raises(ValueError, match="need a nonempty hook"):
        HookExpansion.from_obj({"hook": [k, l], "terms": []}, 3)


def test_hook_mult_series_from_obj_refuses_a_repeated_term():
    # a second row for one split is refused, not written over the first
    row = {"lambda0": [0], "mu": [1], "nu": [0], "coeff": "1"}
    with pytest.raises(ValueError, match=r"term \(0, 1, 0\) is repeated"):
        HookExpansion.from_obj({"hook": [1, 1], "terms": [row, dict(row, coeff="2")]}, 3)


@pytest.mark.parametrize("keys", [[(2, 1), (2, 1, 0)], [(2, 1, 0), (2, 1)],
                                  [(9,), (9, 0)]], ids=str)
def test_hook_expansion_refuses_a_partition_given_twice(keys):
    # in either order, and also past the bound, where neither would be kept
    with pytest.raises(ValueError, match=re.escape(f"partition {keys[0][:2]} is given twice")):
        HookExpansion(2, 1, 6, dict(zip(keys, (1, 2))))


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(4, 2), 0.1, True, "3"])
def test_hook_expansion_refuses_a_non_int_coefficient(c):
    message = re.escape(f"coefficient {c!r} is not an int")
    with pytest.raises(ValueError, match=message):
        HookExpansion(1, 1, 3, {(1,): c})
    with pytest.raises(ValueError, match=message):
        hs_poly((1,), 1, 1, 3).scale(c)


def test_scale_by_zero_is_the_zero_expansion():
    e = HookExpansion(2, 1, 6, {(2, 1): 3, (1,): -1})
    assert e.scale(0) == HookExpansion(2, 1, 6) == e.scale(2).scale(0)
    assert e.scale(0).is_zero()


def test_hook_mult_series_json_roundtrip():
    e = HookExpansion(2, 1, 8, {(2, 1, 1): 2, (3,): 1, (): 1, (4, 2): 5})
    obj = e.to_obj()
    assert obj["hook"] == [2, 1]
    assert obj["terms"][0] == {"lambda0": [0, 0], "mu": [0, 0], "nu": [0], "coeff": "1"}
    assert HookExpansion.from_obj(obj, 8) == e
    with pytest.raises(ValueError):
        HookExpansion.from_obj(obj, 5)  # (4, 2) weighs 6
    obj["terms"][0]["coeff"] = -2
    assert HookExpansion.from_obj(obj, 8).coefficient(()) == -2


# to_obj writes the decimal digits of a nonzero int, after a "-" if it is negative
@pytest.mark.parametrize("coeff", [" 1e1 ", "1e1", "1.5", "1/2", "1/0", " 1_0", "+1", "1 ", "",
                                   "-", "\u0663", 1.0, True, None, "0", 0, "-0", "00"])
def test_hook_mult_series_from_obj_refuses_a_coeff_that_to_obj_does_not_write(coeff):
    obj = {"hook": [1, 1], "terms": [{"lambda0": [0], "mu": [1], "nu": [0], "coeff": coeff}]}
    with pytest.raises(ValueError, match=re.escape(f"field 'coeff' has a bad value {coeff!r}")):
        HookExpansion.from_obj(obj, 4)


@pytest.mark.parametrize("k, l", [(1, 0), (3, 0), (2, 1), (1, 3), (0, 2)])
@settings(max_examples=30, deadline=None)
@given(bound=st.integers(0, 8),
       picks=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.integers(-10 ** 30, 10 ** 30).filter(bool)), max_size=6))
@example(bound=0, picks=[])
@example(bound=8, picks=[])
def test_hook_mult_series_obj_roundtrip(k, l, bound, picks):
    # through JSON text and back, at l = 0 (hook [d, 0], every nu empty) and
    # l > 0, the empty series included
    pool = _hook_partitions_upto(bound, k, l)
    e = HookExpansion(k, l, bound, {pool[i % len(pool)]: c for i, c in picks})
    obj = json.loads(json.dumps(e.to_obj()))
    assert obj["hook"] == [k, l] and all(len(t["nu"]) == l for t in obj["terms"])
    assert len(obj["terms"]) == len(e.coeffs)
    assert HookExpansion.from_obj(obj, bound) == e


@pytest.mark.parametrize("field", ["hook", "terms", "lambda0", "mu", "nu", "coeff"])
def test_hook_mult_series_from_obj_names_a_missing_field(field):
    obj = HookExpansion(2, 1, 6, {(2, 1, 1): 3}).to_obj()
    if field in obj:
        del obj[field]
    else:
        del obj["terms"][0][field]
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        HookExpansion.from_obj(obj, 6)


@pytest.mark.parametrize("obj, message", [
    ([], "want an object with field 'hook', got list"),
    ({"hook": 5, "terms": []}, "field 'hook' has a bad value 5"),
    ({"hook": [2, 1, 1], "terms": []}, r"field 'hook' has a bad value \[2, 1, 1\]"),
    ({"hook": [2, 1], "terms": {}}, "field 'terms' has a bad value {}"),
    ({"hook": [2, 1], "terms": [
        {"lambda0": [0, 0], "mu": [0, 0], "nu": [0], "coeff": None}]},
     "field 'coeff' has a bad value None"),
    # a JSON float or bool is not an integer, and is not truncated or read as one
    ({"hook": [1.0, True], "terms": []}, r"field 'hook' has a bad value \[1.0, True\]"),
    ({"hook": [2, 1], "terms": [
        {"lambda0": [0, 0], "mu": [0, 0], "nu": [0], "coeff": 2.5}]},
     "field 'coeff' has a bad value 2.5"),
    ({"hook": [2, 1], "terms": [
        {"lambda0": [0, 0], "mu": [0, 0], "nu": [0], "coeff": True}]},
     "field 'coeff' has a bad value True"),
    ({"hook": [2, 1], "terms": [
        {"lambda0": [0, 0.0], "mu": [0, 0], "nu": [0], "coeff": "1"}]},
     r"field 'lambda0' has a bad value \[0, 0.0\]"),
    ({"hook": [2, 1], "terms": [
        {"lambda0": [0, 0], "mu": [1, False], "nu": [0], "coeff": "1"}]},
     r"field 'mu' has a bad value \[1, False\]"),
    ({"hook": [2, 1], "terms": [
        {"lambda0": [0, 0], "mu": [0, 0], "nu": [1.0], "coeff": "1"}]},
     r"field 'nu' has a bad value \[1.0\]"),
])
def test_hook_mult_series_from_obj_names_the_field_of_the_wrong_shape(obj, message):
    with pytest.raises(ValueError, match=message):
        HookExpansion.from_obj(obj, 6)


def test_hook_mult_series_from_obj_takes_a_json_int_coeff():
    obj = {"hook": [2, 1], "terms": [{"lambda0": [0, 0], "mu": [0, 0], "nu": [0], "coeff": 3}]}
    assert HookExpansion.from_obj(obj, 6) == HookExpansion(2, 1, 6, {(): 3})


def test_encode_matches_validating_constructor():
    for k, l in ((1, 1), (2, 1), (1, 2), (2, 3), (3, 0), (0, 2)):
        for e in random_hook_expansions(k, l, 8, 3, seed=70 * k + l):
            m = encode_hook_mult(e)
            assert m == Series(vty(k, l), e.bound, m.terms)
            assert HookExpansion.from_obj(split_doc(k, l, m.terms), e.bound) == e


def split_tuple_assemble(e, k, l):
    """Oracle: the partition of the split monomial e, or ``ValueError``, by
    the rule of the split-tuple form of the encoding (``assemble_hook``):
    each block a partition, whose rows split back to the blocks.  Its check
    of each block's width cannot fail on a vector of 2k + l entries."""
    exps = ()
    for block, width in zip((e[:k], e[k:2 * k], e[2 * k:]), (k, k, l)):
        block = partition(block)
        exps += block + (0,) * (width - len(block))
    lam = partition(_assemble_exps(exps, k, l))
    if _split_exps(lam, k, l) != exps:
        raise ValueError(f"{e} is not a valid ({k}, {l}) split")
    return lam


def small_vectors(length, budget):
    """Every vector of ``length`` entries in -1..3 with |e|_1 <= budget."""
    if not length:
        yield ()
        return
    for x in range(-1, 4):
        if abs(x) <= budget:
            for rest in small_vectors(length - 1, budget - abs(x)):
                yield (x,) + rest


def test_constructor_accepts_exactly_the_split_tuple_monomials():
    # every vector with entries -1..3 and |e|_1 <= 6 at each hook with k, l <= 3
    count = 0
    for k, l in ((k, l) for k in range(4) for l in range(4) if k + l):
        for e in small_vectors(2 * k + l, 6):
            count += 1
            try:
                split_tuple_assemble(e, k, l)
                want = True
            except ValueError:
                want = False
            try:
                HookExpansion.from_obj(split_doc(k, l, {e: 1}), 6)
                got = True
            except ValueError:
                got = False
            assert got == want, (k, l, e)
    assert count == 84279


def oracle_read(k, l, bound, terms):
    """The expansion of split exponent vectors and coefficients, each read
    by :func:`split_tuple_assemble`."""
    return HookExpansion(k, l, bound, {split_tuple_assemble(e, k, l): c
                                       for e, c in terms.items()})


def test_from_obj_reads_each_split_as_the_oracle_does():
    for job in ((3, 1, 1, 10), (2, 2, 3, 9), (3, 3, 0, 9), (2, 0, 2, 8)):
        e = utn_hook_mult_series(*job)
        terms = encode_hook_mult(e).terms
        assert HookExpansion.from_obj(e.to_obj(), e.bound) == oracle_read(*job[1:], terms) == e
    terms = {(0, 0, 0, 0, 0): 1, (1, 1, 2, 0, 2): 2, (1, 1, 0, 0, 2): -4,
             (1, 1, 1, 1, 1): 3, (1, 1, 3, 2, 1): 7}
    got = HookExpansion.from_obj(split_doc(2, 1, terms), 8)
    assert got == oracle_read(2, 1, 8, terms)
    assert got.coeffs == {(): 1, (3, 1, 1, 1): 2, (1, 1, 1, 1): -4, (2, 2, 1): 3, (4, 3, 1): 7}


def json_digest(m):
    return hashlib.sha256(json.dumps(m.to_obj()).encode()).hexdigest()


# sha256 of json.dumps(to_obj()) as the split-and-validate encoding gave it
TO_OBJ_PINS = [
    ((3, 1, 1, 10), "e876afbbbe58aaafbde84cc1ab46b608fa3fb79163f0acbf813d3ce790223bf2"),
    ((2, 2, 3, 9), "13c35027854c5b12e49f5950681fa017dc125c3bad1d2eb3ba8ddaf182f77542"),
    ((4, 2, 3, 8), "c930a9d55c9506cd66e540f1bf0c56cb5d2b1c104cb3e61d7f61c858e3153306"),
]


@pytest.mark.parametrize("job, digest", TO_OBJ_PINS, ids=[str(p[0]) for p in TO_OBJ_PINS])
def test_pipeline_to_obj_is_unchanged(job, digest):
    assert json_digest(utn_hook_mult_series(*job)) == digest


def test_to_obj_of_unit_and_zero():
    unit = HookExpansion.unit(2, 3, 10).to_obj()
    assert unit == {"hook": [2, 3], "terms": [
        {"lambda0": [0, 0], "mu": [0, 0], "nu": [0, 0, 0], "coeff": "1"}]}
    assert HookExpansion(2, 3, 10).to_obj() == {"hook": [2, 3], "terms": []}


def test_hook_mult_series_coefficient_checks_its_argument():
    m = utn_hook_mult_series(2, 2, 3, 8)
    with pytest.raises(ValueError):
        m.coefficient([1, 2])
    assert m.coefficient((4, 4, 4)) == 0  # row 3 has 4 > 3 boxes: outside the hook
    assert m.coefficient((2, 2, 1, 1)) == 8
    assert m.coefficient([2, 2, 1, 1, 0]) == 8
    edge = utn_hook_mult_series(2, 2, 1, 8)
    assert edge.coefficient((2, 2, 1, 1)) == 8  # row 3 has exactly l = 1 box
    assert edge.coefficient((2, 2, 2)) == 0


def test_hook_mult_series_unit_keeps_its_bound():
    for k, l in ((2, 1), (3, 0)):
        e = HookExpansion.unit(k, l, 10)
        back = HookExpansion.from_obj(e.to_obj(), 10)
        assert back == e
        assert back.bound == 10


# -- the full pipeline -------------------------------------------------------


def test_hook_mult_one_block_closed_form():
    got = utn_hook_mult_series(1, 1, 1, 10)
    vars_ = vty(1, 1)
    geo = expand_factor(vars_, [("t1", -1, -1), ("y1", -1, -1)], 10)
    expected = Series.one(vars_, 10) + geo * Series(vars_, 10, {(1, 0, 0): 1})
    assert encode_hook_mult(got) == expected


def test_hook_mult_matches_decompose_route():
    for n, k, l, bound in ((1, 2, 2, 8), (2, 1, 1, 8), (2, 2, 3, 8)):
        direct = utn_hook_mult_series(n, k, l, bound)
        via = hs_decompose(utn_double_hilbert(n, k, l, bound), k, l)
        assert direct == via


@pytest.mark.parametrize("n, k, l, bound", [(3, 1, 1, 12), (2, 2, 3, 12),
                                            (4, 3, 0, 10), (3, 1, 3, 10)])
def test_cli_raw_route_matches_hs_decompose(n, k, l, bound):
    # the CLI peels only the block-sorted monomials of the sorted vectors;
    # hs_decompose checks the symmetry of the full series first
    assert _raw_expansion(n, k, l, bound) == \
        hs_decompose(utn_double_hilbert(n, k, l, bound), k, l).coeffs


def test_cli_raw_route_shares_no_type_with_the_pipeline(monkeypatch):
    # a fault in HookExpansion shows as a route disagreement
    want = utn_hook_mult_series(3, 2, 3, 8).coeffs

    def refuse(*args, **kwargs):
        raise AssertionError("the decompose route reached the pipeline's types")

    monkeypatch.setattr(cochar.hooks, "HookExpansion", refuse)
    assert _raw_expansion(3, 2, 3, 8) == want


def seed_sum(n, k, l, bound):
    """sum_j C(n,j) G^j L^(j-1) with L^(j-1) expanded in Schur functions.

    L^(j-1) = sum_q C(j-1,q) (-1)^(j-1-q) hs_(1)^q and hs_(1)^q is the sum of
    char_degree(lam) hs_lam over lam of weight q; every seed lam runs its own
    chain of j Grassmann steps.
    """
    total = HookExpansion(k, l, bound)
    for j in range(1, n + 1):
        for q in range(j):
            for lam in partitions_of(q):
                if not in_hook(lam, k, l):
                    continue
                c = (-1) ** (j - 1 - q) * comb(n, j) * comb(j - 1, q) * char_degree(lam)
                seed = HookExpansion(k, l, bound, {lam: 1})
                total = total + hook_grassmann_derived_power(seed, j).scale(c)
    return total


@pytest.mark.parametrize("n, k, l, bound", [(3, 1, 1, 10), (4, 2, 3, 8),
                                            (3, 2, 0, 10), (2, 3, 4, 9)])
def test_horner_pipeline_matches_seed_sum(n, k, l, bound):
    assert utn_hook_mult_series(n, k, l, bound) == seed_sum(n, k, l, bound)


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
    items = sorted(utn_hook_mult_series(n, d, 0, b).coeffs.items())
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


@pytest.mark.parametrize("n, d, b", [(2, 2, 12), (3, 2, 14), (2, 5, 11)]
                         + [(n, d, 9) for n, d in product(range(1, 4), repeat=2)])
def test_mult_series_is_the_l0_pipeline(n, d, b):
    m = utn_mult_series(n, d, b)
    assert m == utn_hook_mult_series(n, d, 0, b)
    assert (m.k, m.l, encode_hook_mult(m).vars) == (d, 0, vty(d, 0))


# -- theory that neither computed route uses -----------------------------------


def pipeline_coeffs(n, k, l, bound):
    """The pipeline's multiplicities, as :func:`_raw_expansion` gives the raw route's."""
    return utn_hook_mult_series(n, k, l, bound).coeffs


ROUTES = [pytest.param(pipeline_coeffs, id="utn_hook_mult_series"),
          pytest.param(_raw_expansion, id="_raw_expansion")]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("n, k, l", [(1, 1, 1), (2, 2, 3), (3, 3, 5), (4, 4, 4), (5, 3, 3)])
def test_multiplicities_below_degree_3n_are_the_character_degrees(route, n, k, l):
    # T(E) is generated by [x1, x2, x3] (Krakowski and Regev 1973) and
    # T(UT_n(E)) = T(E)^n (Giambruno and Zaicev 2005), so UT_n(E) satisfies
    # no identity below degree 3n, and there m_lam = d_lam
    bound = 3 * n - 1
    got = route(n, k, l, bound)
    assert got == {lam: char_degree(lam) for lam in _hook_partitions_upto(bound, k, l)}


def _codimensions(n: int, bound: int) -> list[int]:
    """c_m = sum of m_lam d_lam over |lam| = m, for m <= bound; the (n, 2n - 1)
    hook holds the whole cocharacter of UT_n(E)."""
    c = [0] * (bound + 1)
    for lam, m in utn_hook_mult_series(n, n, 2 * n - 1, bound).coeffs.items():
        c[sum(lam)] += m * char_degree(lam)
    return c


@pytest.mark.parametrize("n, pins", [
    (1, {m: 2 ** (m - 1) for m in range(1, 10)}),
    (2, dict(enumerate([1, 1, 2, 6, 24, 120, 640, 3360, 17024, 83328]))),
    (3, {m: factorial(m) for m in range(9)}),
])
def test_codimensions_are_pinned(n, pins):
    # c_m(E) = 2^(m-1) (Giambruno and Zaicev 2005); below degree 3n, UT_n(E)
    # satisfies no identity, so c_m = m!
    c = _codimensions(n, 9)
    assert {m: c[m] for m in pins} == pins


@pytest.mark.parametrize("n, deficit", [(1, 2), (2, 80), (3, 13440)])
def test_codimension_deficit_at_degree_3n(n, deficit):
    # at degree 3n the identities are the products of n triple commutators,
    # whose S_3n-module is s_(2,1)^n, of dimension (3n)!/3^n
    m = 3 * n
    assert factorial(m) - _codimensions(n, m)[m] == deficit == factorial(m) // 3 ** n


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("n, k, l, bound", [(1, 3, 3, 12), (2, 4, 4, 14),
                                            (3, 2, 5, 12), (4, 3, 4, 14)])
def test_the_transposed_hook_gives_the_conjugate_expansion(route, n, k, l, bound):
    # omega maps s_lam to s_lam' and fixes the cocharacter, so m_lam = m_lam'
    got = route(n, k, l, bound)
    assert {conjugate(lam): c for lam, c in got.items()} == route(n, l, k, bound)
