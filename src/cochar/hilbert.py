"""Hilbert series of the Grassmann algebra and of upper triangular algebras.

The generic-element algebra of the Grassmann algebra E has the rational
Hilbert series B = 1/2 + (1/2) prod (1+x)/(1-x) over the variables x;
products of ideals give the series of the n-by-n upper triangular algebra
over E as the binomial sum  sum_{j=1}^{n} C(n,j) B^j L^(j-1)  with
L = sum x - 1.  The two-alphabet variants run over t_1..t_k, y_1..y_l; one
alphabet t_1..t_d is the case l = 0.

The sum is evaluated in Horner form,
B (C(n,1) + L B (C(n,2) + ... + L B C(n,n))), so it takes n multiplications
by B, each a chain of shifts, and n - 1 by the (k+l+1)-term L.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from cochar.hooks import decode_hook_mult, utn_hook_mult_series
from cochar.schur import MultSeries, to_mult_series
from cochar.series import Series, VarSet


def _grassmann_step(s: Series) -> Series:
    """s times B = (1 + prod (1+x)/(1-x))/2, by shift operations only."""
    prod = s
    for i in range(s.vars.arity):
        x = tuple(int(i == j) for j in range(s.vars.arity))
        prod = prod.shift_mul_binomial(x, 1).shift_mul_geometric(x, -1)
    return (s + prod).scale(Fraction(1, 2))


def _linear_minus_one(vars_: VarSet, bound: int) -> Series:
    terms = {(0,) * vars_.arity: -1}
    for i in range(vars_.arity):
        e = [0] * vars_.arity
        e[i] = 1
        terms[tuple(e)] = 1
    return Series(vars_, bound, terms, _raw=True)


def grassmann_hilbert(d: int, bound: int) -> Series:
    """1/2 + (1/2) prod_{i<=d} (1+t_i)/(1-t_i), truncated."""
    return grassmann_double_hilbert(d, 0, bound)


def utn_hilbert(n: int, d: int, bound: int) -> Series:
    """Hilbert series of the n-by-n upper triangular algebra over E, in d variables."""
    return utn_double_hilbert(n, d, 0, bound)


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
    return _grassmann_step(Series.one(VarSet.ty(k, l), bound))


def utn_double_hilbert(n: int, k: int, l: int, bound: int) -> Series:
    """Two-alphabet Hilbert series of the triangular algebra over E.

    sum_{j=1}^{n} C(n,j) B^j L^(j-1), in Horner form from the inside out.
    """
    if n < 1:
        raise ValueError("n must be positive")
    acc = grassmann_double_hilbert(k, l, bound)
    one = Series.one(acc.vars, bound)
    lin = _linear_minus_one(acc.vars, bound)
    for j in range(n - 1, 0, -1):
        acc = _grassmann_step(acc * lin + one.scale(comb(n, j)))
    return acc
