"""Hilbert series of the Grassmann algebra and of upper triangular algebras.

The generic-element algebra of the Grassmann algebra E has the rational
Hilbert series 1/2 + (1/2) prod (1+t_i)/(1-t_i); products of ideals give the
series of the n-by-n upper triangular algebra over E as a binomial sum.  The
two-alphabet variants replace each factor by its hook analog.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from cochar.hooks import decode_hook_mult, utn_hook_mult_series
from cochar.schur import MultSeries, to_mult_series
from cochar.series import expand_factor, Series, VarSet


def grassmann_hilbert(d: int, bound: int) -> Series:
    """1/2 + (1/2) prod_{i<=d} (1+t_i)/(1-t_i), truncated."""
    if d < 1:
        raise ValueError("need at least one variable")
    tv = VarSet.t(d)
    factors = [(f"t{i}", 1, 1) for i in range(1, d + 1)] + \
              [(f"t{i}", -1, -1) for i in range(1, d + 1)]
    prod = expand_factor(tv, factors, bound)
    return (prod + Series.one(tv, bound)).scale(Fraction(1, 2))


def _linear_minus_one(vars_: VarSet, bound: int) -> Series:
    terms = {(0,) * vars_.arity: -1}
    for i in range(vars_.arity):
        e = [0] * vars_.arity
        e[i] = 1
        terms[tuple(e)] = 1
    return Series(vars_, bound, terms, _raw=True)


def utn_hilbert(n: int, d: int, bound: int) -> Series:
    """Hilbert series of the n-by-n upper triangular algebra over E.

    sum_{j=1}^{n} C(n,j) * base^j * (t_1+...+t_d-1)^(j-1) with base the
    Grassmann series; the product law for ideal powers gives the shape.
    """
    if n < 1:
        raise ValueError("n must be positive")
    base = grassmann_hilbert(d, bound)
    lin = _linear_minus_one(base.vars, bound)
    out = Series.zero(base.vars, bound)
    for j in range(1, n + 1):
        out = out + (base ** j * lin ** (j - 1)).scale(comb(n, j))
    return out


def utn_mult_series(n: int, d: int, bound: int) -> MultSeries:
    """T-form multiplicity series of the n-by-n triangular algebra over E.

    Schur functions in d variables are the hook Schur functions of the (d, 0)
    hook, so this is the operator route :func:`utn_hook_mult_series` with
    ``l = 0``, packed into T-form.
    """
    return to_mult_series(decode_hook_mult(utn_hook_mult_series(n, d, 0, bound)))


def grassmann_double_hilbert(k: int, l: int, bound: int) -> Series:
    """Two-alphabet Grassmann series over t_1..t_k, y_1..y_l.

    (1/2)(1 + prod_i (1+t_i)/(1-t_i) * prod_j (1+y_j)/(1-y_j)).
    """
    if k < 0 or l < 0 or k + l < 1:
        raise ValueError("need a nonempty combined alphabet")
    vars_ = VarSet.ty(k, l)
    factors = []
    for i in range(1, k + 1):
        factors += [(f"t{i}", 1, 1), (f"t{i}", -1, -1)]
    for j in range(1, l + 1):
        factors += [(f"y{j}", 1, 1), (f"y{j}", -1, -1)]
    prod = expand_factor(vars_, factors, bound)
    return (prod + Series.one(vars_, bound)).scale(Fraction(1, 2))


def utn_double_hilbert(n: int, k: int, l: int, bound: int) -> Series:
    """Two-alphabet Hilbert series of the triangular algebra over E."""
    if n < 1:
        raise ValueError("n must be positive")
    base = grassmann_double_hilbert(k, l, bound)
    lin = _linear_minus_one(base.vars, bound)
    out = Series.zero(base.vars, bound)
    for j in range(1, n + 1):
        out = out + (base ** j * lin ** (j - 1)).scale(comb(n, j))
    return out
