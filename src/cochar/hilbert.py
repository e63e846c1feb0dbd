"""Hilbert series of the Grassmann algebra and of upper triangular algebras.

The Grassmann algebra E has the Hilbert series B = (1 + P)/2 with
P = prod (1+x)/(1-x) over the variables x, and the n-by-n upper triangular
algebra over E has H = sum_{j=1}^{n} C(n,j) B^j L^(j-1) with L = S - 1 and
S = sum x.  The variables are t_1..t_k, y_1..y_l; one alphabet is l = 0.

B and L treat all k + l variables alike, so H is fixed by its coefficients
at sorted exponent vectors, one per partition with at most k + l parts, and
each is evaluated from the product form: expanding B^j and L^(j-1)
binomially, 2^n H = sum_{m <= n, r < n} w(m, r) P^m S^r, and [x^a] P^m S^r
is one integer recursion over the parts of a, shared by every partition
with the same leading parts.  The division by 2^n is exact; a remainder
raises.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import add, mul

from cochar.hooks import HookExpansion, utn_hook_mult_series
from cochar.series import Series, ty


def _weights(n: int) -> list[list[int]]:
    """w(m, r) for m <= n and r < n, the integer weights of 2^n H on P^m S^r."""
    return [[sum(comb(n, j) * comb(j, m) * comb(j - 1, r) * (-1) ** (j - 1 - r) * 2 ** (n - j)
                 for j in range(max(m, r + 1), n + 1))
             for r in range(n)]
            for m in range(n + 1)]


def _sorted_coefficients(n: int, width: int, bound: int) -> dict[tuple[int, ...], int]:
    """Nonzero coefficients of H at the partitions of at most ``width`` parts.

    Row m of c is c_m(e) = [x^e] ((1+x)/(1-x))^m, row m - 1 times (1 + x)
    and summed.  For each m, v[D] is the coefficient of P^m S^D at the parts
    of a partition: a part p takes d of the D + d boxes of S^(D+d), C(D+d, d)
    ways, and c_m(p - d) for the rest.  D stops at n - 1, the top power of S;
    a zero part takes no box and multiplies by c_m(0) = 1.  The partitions
    are walked depth first, each one a prefix of its children, so every
    partition costs one part step on its prefix's vectors.
    """
    w, c = _weights(n), [[1] + [0] * bound]
    for _ in range(n):
        c.append(list(accumulate(map(add, c[-1], [0] + c[-1]))))
    # step[p][m][E][D] = C(E, d) c_m(p - d) with d = E - D: the factor of v[D] in the new v[E]
    step = [[[[comb(E, E - D) * cm[p - E + D] if E - D <= p else 0 for D in range(E + 1)]
              for E in range(n)] for cm in c] for p in range(bound + 1)]
    out: dict[tuple[int, ...], int] = {}
    stack = [((), bound, [[1] + [0] * (n - 1)] * (n + 1))]  # (partition, room, v per m)
    while stack:
        a, room, vs = stack.pop()
        total = sum(sum(map(mul, wm, v)) for wm, v in zip(w, vs))
        q, rem = divmod(total, 1 << n)
        if rem:
            raise ArithmeticError(f"product-form sum {total} at {a} is not divisible by 2^{n}")
        if q:
            out[a] = q
        if len(a) < width:
            for p in range(1, min(a[-1] if a else room, room) + 1):
                stack.append((a + (p,), room - p,
                              [[sum(map(mul, v, row)) for row in rows]
                               for v, rows in zip(vs, step[p])]))
    return out


def _graded_terms(coeffs: dict[tuple[int, ...], int], width: int, bound: int):
    """The nonzero terms (exps, c) of the symmetric series in ``width`` variables
    with coefficients ``coeffs`` at partitions, in :meth:`Series.sorted_terms` order.
    Degree d starts at (d, 0, ..., 0); the next vector in descending lex takes one
    from the last nonzero e[i] before e[-1] and puts it, with all of e[-1], in e[i + 1]."""
    for d in range(bound + 1):
        e = [d] + [0] * (width - 1)
        while True:
            c = coeffs.get(tuple(sorted(filter(None, e), reverse=True)))
            if c:
                yield tuple(e), c
            i = width - 2
            while i >= 0 and not e[i]:
                i -= 1
            if i < 0:
                break
            e[i] -= 1
            e[-1], e[i + 1] = 0, e[-1] + 1


def utn_hilbert(n: int, d: int, bound: int) -> Series:
    """Hilbert series of the n-by-n upper triangular algebra over E, in d variables."""
    return utn_double_hilbert(n, d, 0, bound)


def utn_mult_series(n: int, d: int, bound: int) -> HookExpansion:
    """Multiplicity series M(UT_n(E); T_d) of the triangular algebra over E.

    Schur functions in d variables are the hook Schur functions of the (d, 0)
    hook, so this is the (d, 0) expansion of
    :func:`cochar.hooks.utn_hook_mult_series`, a Schur expansion in d
    variables; its split monomial at lam (:func:`cochar.hooks.encode_hook_mult`)
    is t^lam.
    """
    return utn_hook_mult_series(n, d, 0, bound)


def grassmann_double_hilbert(k: int, l: int, bound: int) -> Series:
    """(1/2)(1 + prod (1+x)/(1-x)) over t_1..t_k, y_1..y_l: the case n = 1."""
    return utn_double_hilbert(1, k, l, bound)


def utn_double_hilbert(n: int, k: int, l: int, bound: int) -> Series:
    """Two-alphabet Hilbert series of the triangular algebra over E, by :func:`_graded_terms`."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0 or l < 0 or k + l < 1:
        raise ValueError("need a nonempty combined alphabet")
    terms = _graded_terms(_sorted_coefficients(n, k + l, bound), k + l, bound)
    return Series(ty(k, l), bound, dict(terms), _raw=True)
