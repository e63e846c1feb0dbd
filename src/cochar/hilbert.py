"""Hilbert series of the Grassmann algebra and of upper triangular algebras.

The generic-element algebra of the Grassmann algebra E has the rational
Hilbert series B = 1/2 + (1/2) prod (1+x)/(1-x) over the variables x;
products of ideals give the series of the n-by-n upper triangular algebra
over E as the binomial sum  sum_{j=1}^{n} C(n,j) B^j L^(j-1)  with
L = sum x - 1.  The two-alphabet variants run over t_1..t_k, y_1..y_l; one
alphabet t_1..t_d is the case l = 0.

The sum is evaluated in Horner form,
B (C(n,1) + L B (C(n,2) + ... + L B C(n,n))), so it takes n multiplications
by B and n - 1 by L.  A multiplication by B walks each x-ray of exponent
vectors (all entries but the x-exponent fixed) once per variable, in
increasing x-degree, and then halves with an exact integer check; one by L
is k + l one-variable shifts minus the series itself.
"""

from __future__ import annotations

from math import comb

from cochar.hooks import _utn_hook_expansion
from cochar.schur import MultSeries, to_mult_series
from cochar.series import Coeff, Exps, Series, VarSet


def _ray_pass(terms: dict[Exps, Coeff], i: int, bound: int) -> dict[Exps, Coeff]:
    """terms times (1+x_i)/(1-x_i), one walk along each x_i-ray.

    The terms are grouped by their exponent vector with e_i set to 0; each
    ray is walked once in increasing e_i with out[j] = s[j] + s[j-1] +
    out[j-1], up to the truncation bound.  No zero coefficient is stored.
    """
    rays: dict[Exps, dict[int, Coeff]] = {}
    for e, c in terms.items():
        rays.setdefault(e[:i] + (0,) + e[i + 1:], {})[e[i]] = c
    out: dict[Exps, Coeff] = {}
    for base, ray in rays.items():
        head, tail = base[:i], base[i + 1:]
        prev = acc = 0
        for j in range(min(ray), bound - sum(base) + 1):
            s = ray.get(j, 0)
            acc += s + prev
            prev = s
            if acc:
                out[head + (j,) + tail] = acc
    return out


def _grassmann_step(s: Series) -> Series:
    """s times B = (1 + prod (1+x)/(1-x))/2, for integral s.

    One ray pass per variable gives s prod (1+x)/(1-x); adding s and halving
    each coefficient with divmod keeps the result integral.  On integral
    input every sum is even, so an odd one is an arithmetic fault and raises.
    """
    prod = s.terms
    for i in range(s.vars.arity):
        prod = _ray_pass(prod, i, s.bound)
    for e, c in s.terms.items():
        prod[e] = prod.get(e, 0) + c
    out: dict[Exps, Coeff] = {}
    for e, c in prod.items():
        half, odd = divmod(c, 2)
        if odd:
            raise ArithmeticError(f"odd coefficient {c} at {e} in the Grassmann step")
        if half:
            out[e] = half
    return Series(s.vars, s.bound, out, _raw=True)


def _times_linear_minus_one(s: Series) -> Series:
    """s times L = sum x - 1: one shift per variable, minus s."""
    out = {e: -c for e, c in s.terms.items()}
    for e, c in s.terms.items():
        if sum(e) < s.bound:
            for i in range(len(e)):
                key = e[:i] + (e[i] + 1,) + e[i + 1:]
                v = out.get(key, 0) + c
                if v:
                    out[key] = v
                else:
                    del out[key]
    return Series(s.vars, s.bound, out, _raw=True)


def grassmann_hilbert(d: int, bound: int) -> Series:
    """1/2 + (1/2) prod_{i<=d} (1+t_i)/(1-t_i), truncated."""
    return grassmann_double_hilbert(d, 0, bound)


def utn_hilbert(n: int, d: int, bound: int) -> Series:
    """Hilbert series of the n-by-n upper triangular algebra over E, in d variables."""
    return utn_double_hilbert(n, d, 0, bound)


def utn_mult_series(n: int, d: int, bound: int) -> MultSeries:
    """T-form multiplicity series of the n-by-n triangular algebra over E.

    Schur functions in d variables are the hook Schur functions of the (d, 0)
    hook, so this is the operator route of
    :func:`cochar.hooks.utn_hook_mult_series` with ``l = 0``, packed straight
    into T-form.
    """
    return to_mult_series(_utn_hook_expansion(n, d, 0, bound))


def grassmann_double_hilbert(k: int, l: int, bound: int) -> Series:
    """Two-alphabet Grassmann series over t_1..t_k, y_1..y_l.

    (1/2)(1 + prod_i (1+t_i)/(1-t_i) * prod_j (1+y_j)/(1-y_j)).
    """
    if k < 0 or l < 0 or k + l < 1:
        raise ValueError("need a nonempty combined alphabet")
    return _grassmann_step(Series.one(VarSet.ty(k, l), bound))


def utn_double_hilbert(n: int, k: int, l: int, bound: int) -> Series:
    """Two-alphabet Hilbert series of the triangular algebra over E.

    sum_{j=1}^{n} C(n,j) B^j L^(j-1), in Horner form from the inside out.
    """
    if n < 1:
        raise ValueError("n must be positive")
    acc = grassmann_double_hilbert(k, l, bound)
    one = Series.one(acc.vars, bound)
    for j in range(n - 1, 0, -1):
        acc = _grassmann_step(_times_linear_minus_one(acc) + one.scale(comb(n, j)))
    return acc
