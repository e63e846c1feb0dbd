"""Hook Schur functions, the hook basis, and operators on it.

The (k,l)-semistandard tableaux use two ordered alphabets: entries from the
first weakly increase along rows and strictly increase down columns, entries
from the second strictly increase along rows and weakly increase down
columns, and all first-alphabet entries precede second-alphabet entries.
Their weight generating function hs_poly(lam) is nonzero exactly when lam
lies in the (k,l) hook, and distinct hook partitions give linearly
independent polynomials, so finite symmetric data can be decomposed exactly
in this basis.

With an empty second alphabet the hook Schur functions are the ordinary
Schur functions (Berele-Regev): hs_poly(lam, d, 0, bound) is s_lam(t_1..t_d),
and ``HookExpansion(d, 0, ...)`` is an ordinary Schur expansion in d
variables.  Every function below serves that case too; the one-alphabet
multiplicity-series encodings live in :mod:`cochar.schur`.

Products of hook Schur functions expand by the ordinary Littlewood-Richardson
rule with every summand outside the hook discarded, so the one-row and
one-column Pieri steps below add the ordinary strips that stay in the hook.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Sequence

from cochar.partitions import (
    assemble_hook,
    char_degree,
    conjugate,
    horizontal_strips,
    in_hook,
    partition,
    partitions_of,
    split_hook,
    vertical_strips,
    weight,
    HookSplit,
)
from cochar.series import norm_coeff, Coeff, Exps, Series, VarSet


def _peels(lam: tuple[int, ...]):
    """All mu obtained by removing a horizontal strip from lam."""

    def rec(i: int, acc: list[int]):
        if i == len(lam):
            yield tuple(v for v in acc if v)
            return
        lo = lam[i + 1] if i + 1 < len(lam) else 0
        for v in range(lo, lam[i] + 1):
            acc.append(v)
            yield from rec(i + 1, acc)
            acc.pop()

    yield from rec(0, [])


@lru_cache(maxsize=None)
def _schur_terms(lam: tuple[int, ...], d: int,
                 dominant: bool) -> tuple[tuple[Exps, int], ...]:
    """Monomials of s_lam(t_1..t_d), tabulated by weight of the last variable.

    Peeling the horizontal strip filled with the letter d enumerates exactly
    the semistandard tableaux with entries in {1,...,d}, grouped by content.
    With ``dominant`` only weakly decreasing exponent vectors are kept; they
    fix a symmetric polynomial, and they stay decreasing when the last
    variable is peeled.
    """
    if len(lam) > d:
        return ()
    if not lam:
        return (((0,) * d, 1),)
    out: dict[Exps, int] = {}
    for mu in _peels(lam):
        power = sum(lam) - sum(mu)
        for exps, c in _schur_terms(mu, d - 1, dominant):
            if dominant and exps and exps[-1] < power:
                continue
            key = exps + (power,)
            out[key] = out.get(key, 0) + c
    return tuple(sorted(out.items()))


def _vertical_peels(lam: tuple[int, ...]):
    """All mu contained in lam with lam/mu a vertical strip (<=1 box per row)."""
    out = [()]
    for v in reversed(tuple(lam)):
        nxt = []
        for choice in (v, v - 1):
            if choice < 0:
                continue
            for tail in out:
                if tail and choice < tail[0]:
                    continue
                nxt.append((choice,) + tail)
        out = nxt
    for mu in out:
        yield tuple(v for v in mu if v)


@lru_cache(maxsize=None)
def _hs_terms(lam: tuple[int, ...], k: int, l: int,
              dominant: bool) -> tuple[tuple[Exps, int], ...]:
    """Monomials of the hook Schur polynomial, peeling the last y variable.

    With ``dominant`` only the monomials whose t- and y-exponents both weakly
    decrease are kept, as in :func:`_schur_terms`.
    """
    if not in_hook(lam, k, l):
        return ()
    if l == 0:
        return _schur_terms(lam, k, dominant)
    acc: dict[Exps, int] = {}
    for mu in set(_vertical_peels(lam)):
        stripped = sum(lam) - sum(mu)
        for e, c in _hs_terms(mu, k, l - 1, dominant):
            if dominant and l > 1 and e[-1] < stripped:
                continue
            key = e + (stripped,)
            acc[key] = acc.get(key, 0) + c
    return tuple(sorted(acc.items()))


def hs_poly(lam: Sequence[int], k: int, l: int, bound: int) -> Series:
    """Hook Schur polynomial of lam in t_1..t_k, y_1..y_l, zero above bound."""
    lam = partition(lam)
    vars_ = VarSet.ty(k, l)
    if weight(lam) > bound:
        return Series.zero(vars_, bound)
    return Series(vars_, bound, dict(_hs_terms(lam, k, l, False)), _raw=True)


class HookExpansion:
    """Sparse map partition -> coefficient over the (k,l) hook basis.

    The constructor validates what it is given.  Operations of this module
    pass ``_raw=True`` instead: their results are built from canonical
    in-hook partitions of weight at most ``bound`` with nonzero normalized
    coefficients, and the new expansion takes ownership of that dict.
    """

    __slots__ = ("k", "l", "bound", "coeffs")

    def __init__(self, k: int, l: int, bound: int,
                 coeffs: Mapping[tuple[int, ...], Coeff] | None = None, *,
                 _raw: bool = False):
        if k < 0 or l < 0 or k + l < 1:
            raise ValueError("need a nonempty hook")
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        self.k = k
        self.l = l
        self.bound = bound
        if _raw:
            self.coeffs = coeffs if coeffs is not None else {}
            return
        clean: dict[tuple[int, ...], Coeff] = {}
        for lam, c in (coeffs or {}).items():
            lam = partition(lam)
            if not in_hook(lam, k, l):
                raise ValueError(f"partition {lam} lies outside the ({k},{l}) hook")
            if weight(lam) > bound:
                continue
            c = norm_coeff(c)
            if c:
                clean[lam] = c
        self.coeffs = clean

    @classmethod
    def unit(cls, k: int, l: int, bound: int) -> "HookExpansion":
        return cls(k, l, bound, {(): 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, lam: Sequence[int]) -> Coeff:
        return self.coeffs.get(partition(lam), 0)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.coeffs, key=lambda p: (sum(p), p))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HookExpansion):
            return NotImplemented
        return ((self.k, self.l, self.bound) == (other.k, other.l, other.bound)
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return (f"HookExpansion(k={self.k}, l={self.l}, bound={self.bound}, "
                f"{len(self.coeffs)} terms)")

    def __add__(self, other: "HookExpansion") -> "HookExpansion":
        if (self.k, self.l) != (other.k, other.l):
            raise ValueError("mismatched hooks")
        bound = min(self.bound, other.bound)
        return _collect(self.k, self.l, bound,
                        (self.coeffs.items(), other.coeffs.items()))

    def scale(self, c: Coeff) -> "HookExpansion":
        c = norm_coeff(c)
        if not c:
            return HookExpansion(self.k, self.l, self.bound)
        return HookExpansion(self.k, self.l, self.bound,
                             {lam: norm_coeff(v * c) for lam, v in self.coeffs.items()},
                             _raw=True)

    def to_series(self) -> Series:
        """Synthesize sum of coeff * hook Schur polynomial."""
        out = Series.zero(VarSet.ty(self.k, self.l), self.bound)
        for lam, c in self.coeffs.items():
            out = out + hs_poly(lam, self.k, self.l, self.bound).scale(c)
        return out


def _collect(k: int, l: int, bound: int,
             groups: Iterable[Iterable[tuple[tuple[int, ...], Coeff]]]) -> HookExpansion:
    """Sum of (partition, coefficient) pairs already known to lie in the hook."""
    acc: dict[tuple[int, ...], Coeff] = {}
    for group in groups:
        for lam, c in group:
            if sum(lam) <= bound:
                acc[lam] = acc.get(lam, 0) + c
    return HookExpansion(k, l, bound,
                         {lam: norm_coeff(c) for lam, c in acc.items() if c}, _raw=True)


def _arrangements(block: Sequence[int]) -> int:
    """Number of distinct orderings of the entries of ``block``."""
    out = factorial(len(block))
    for m in Counter(block).values():
        out //= factorial(m)
    return out


def _block_sorted_terms(terms: dict[Exps, Coeff], k: int, n: int) -> dict[Exps, Coeff]:
    """The terms with weakly decreasing t- and y-exponents, for block-symmetric input.

    Raises unless every term is a permutation within the blocks of a kept
    term with the same coefficient and every such orbit is complete.
    """
    kept: dict[Exps, Coeff] = {}
    orbits = 0
    for e, c in terms.items():
        t, y = e[:k], e[k:]
        key = tuple(sorted(t, reverse=True)) + tuple(sorted(y, reverse=True))
        if terms.get(key) != c:
            raise ValueError(f"degree {n}: input is not symmetric in each alphabet at {e}")
        if key == e:
            kept[e] = c
            orbits += _arrangements(t) * _arrangements(y)
    if orbits != len(terms):
        raise ValueError(f"degree {n}: input is not symmetric in each alphabet "
                         f"(incomplete orbits)")
    return kept


def hs_decompose(g: Series, k: int, l: int) -> HookExpansion:
    """Write g in the hook basis, degree by degree, or fail loudly.

    Hook Schur polynomials are symmetric in the t and in the y variables, so
    g must be too, and then its monomials with weakly decreasing t- and
    y-exponents fix it.  Within each total degree the basis is triangular on
    those for the block lexicographic order: the largest monomial of
    hs_poly(lam) is t^(top k rows) y^(conjugate of the rest), with coefficient
    1, and distinct partitions give distinct leading monomials.  Forward
    substitution therefore either terminates with a zero residual or exposes
    a monomial no basis element can lead with.
    """
    if g.vars.names != VarSet.ty(k, l).names:
        raise ValueError(f"series variables {g.vars.names} do not fit hook ({k},{l})")
    coeffs: dict[tuple[int, ...], Coeff] = {}
    for n in range(g.bound + 1):
        slice_ = _block_sorted_terms(g.degree_slice(n), k, n)
        while slice_:
            exps = max(slice_)
            top, below = exps[:k], conjugate(exps[k:])
            if below and k > 0 and top[k - 1] < below[0]:
                raise ValueError(f"degree {n}: residual monomial {exps} "
                                 f"is not led by any hook basis element")
            lam = partition(top + below)  # in the hook: below[0] <= l
            c = slice_[exps]
            coeffs[lam] = norm_coeff(coeffs.get(lam, 0) + c)
            if not coeffs[lam]:
                del coeffs[lam]
            for e, v in _hs_terms(lam, k, l, True):
                t = slice_.get(e, 0) - c * v
                if t:
                    slice_[e] = t
                else:
                    slice_.pop(e, None)
    return HookExpansion(k, l, g.bound, coeffs, _raw=True)


# -- Pieri steps and derived operators ---------------------------------------


def _pieri(e: HookExpansion, size: int, strips: Callable) -> HookExpansion:
    hook = (e.k, e.l)
    return _collect(e.k, e.l, e.bound,
                    (((nu, c) for nu in strips(lam, size, hook=hook))
                     for lam, c in e.coeffs.items() if sum(lam) + size <= e.bound))


def hook_pieri_row(e: HookExpansion, n: int) -> HookExpansion:
    """Expansion of e times the one-row hook Schur function of size n."""
    return _pieri(e, n, horizontal_strips)


def hook_pieri_col(e: HookExpansion, m: int) -> HookExpansion:
    """Expansion of e times the one-column hook Schur function of size m."""
    return _pieri(e, m, vertical_strips)


def _pieri_sum(e: HookExpansion, step: Callable, sizes: range) -> HookExpansion:
    return _collect(e.k, e.l, e.bound,
                    (step(e, size).coeffs.items() for size in sizes))


def hook_row_derived(e: HookExpansion) -> HookExpansion:
    """Multiply by the row series R, the sum of all one-row hook Schur functions.

    R = prod_j (1+y_j) / prod_i (1-t_i); at l = 0 it is prod 1/(1-t_i).
    """
    return _pieri_sum(e, hook_pieri_row, range(e.bound + 1))


def hook_col_derived(e: HookExpansion) -> HookExpansion:
    """Multiply by the column series C, the sum of all one-column hook Schur functions.

    C = prod_i (1+t_i) / prod_j (1-y_j); at l = 0 it is e_0 + e_1 + ... + e_d.
    """
    return _pieri_sum(e, hook_pieri_col, range(e.bound + 1))


def hook_even_col_derived(e: HookExpansion) -> HookExpansion:
    """Multiply by the sum of the one-column hook Schur functions of even size.

    The alternating column sum  sum_m (-1)^m hs_(1^m) = prod (1-t_i) / prod (1+y_j)
    is 1/R, so this factor is (1/R + C)/2; at l = 0 it is
    (prod (1-t_i) + prod (1+t_i))/2.
    """
    return _pieri_sum(e, hook_pieri_col, range(0, e.bound + 1, 2))


def hook_grassmann_derived(e: HookExpansion) -> HookExpansion:
    """Multiply by the Grassmann series (1 + R C)/2.

    (1 + R C)/2 = R (1/R + C)/2, so the step is the row derivation of the
    even-column derivation: division-free, and integral on integral input.
    """
    return hook_row_derived(hook_even_col_derived(e))


def hook_grassmann_derived_power(e: HookExpansion, j: int) -> HookExpansion:
    if j < 0:
        raise ValueError("power must be nonnegative")
    for _ in range(j):
        e = hook_grassmann_derived(e)
    return e


# -- the split-variable encoding ---------------------------------------------


class HookMultSeries:
    """Series over v_1..v_k, t_1..t_k, y_1..y_l encoding a hook expansion.

    A partition lam splits into the part inside the (l^k) rectangle, the arm
    rows sticking out to the right, and the conjugated leg below; the encoded
    monomial is v^rectangle t^arm y^leg.
    """

    __slots__ = ("k", "l", "bound", "series")

    def __init__(self, k: int, l: int, bound: int, series: Series):
        if series.vars.names != VarSet.vty(k, l).names:
            raise ValueError("series variables do not match the split encoding")
        for exps in series.terms:
            self._decode_exps(exps, k, l)  # raises on malformed monomials
        self.k = k
        self.l = l
        self.bound = bound
        self.series = series.truncate(bound)

    @staticmethod
    def _decode_exps(exps: Exps, k: int, l: int) -> tuple[int, ...]:
        split = HookSplit(k, l, partition(exps[:k]), partition(exps[k : 2 * k]),
                          partition(exps[2 * k :]))
        return assemble_hook(split)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HookMultSeries):
            return NotImplemented
        return ((self.k, self.l, self.bound) == (other.k, other.l, other.bound)
                and self.series.terms == other.series.terms)

    def __repr__(self) -> str:
        return (f"HookMultSeries(k={self.k}, l={self.l}, bound={self.bound}, "
                f"{len(self.series.terms)} terms)")

    def coefficient(self, lam: Sequence[int]) -> Coeff:
        lam = partition(lam)
        if not in_hook(lam, self.k, self.l):
            return 0
        s = split_hook(lam, self.k, self.l)
        pad = lambda part, width: tuple(part) + (0,) * (width - len(part))
        exps = pad(s.lambda0, self.k) + pad(s.mu, self.k) + pad(s.nu, self.l)
        return self.series.coefficient(exps)

    def to_obj(self) -> dict:
        rows = []
        for exps, c in self.series.terms.items():
            lam = self._decode_exps(exps, self.k, self.l)
            rows.append((weight(lam), lam, exps, c))
        rows.sort(key=lambda r: (r[0], r[1]))
        return {
            "hook": [self.k, self.l],
            "terms": [
                {
                    "lambda0": list(exps[: self.k]),
                    "mu": list(exps[self.k : 2 * self.k]),
                    "nu": list(exps[2 * self.k :]),
                    "coeff": str(Fraction(c)),
                }
                for _, _, exps, c in rows
            ],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_obj(), indent=2, sort_keys=False)

    @classmethod
    def from_obj(cls, obj: Mapping) -> "HookMultSeries":
        k, l = (int(x) for x in obj["hook"])
        terms: dict[Exps, Coeff] = {}
        bound = 0
        for row in obj["terms"]:
            lam0 = [int(x) for x in row["lambda0"]]
            mu = [int(x) for x in row["mu"]]
            nu = [int(x) for x in row["nu"]]
            if len(lam0) != k or len(mu) != k or len(nu) != l:
                raise ValueError("split widths do not match the hook")
            exps = tuple(lam0) + tuple(mu) + tuple(nu)
            c = Fraction(row["coeff"])
            terms[exps] = norm_coeff(c)
            bound = max(bound, sum(exps))
        series = Series(VarSet.vty(k, l), bound, terms)
        return cls(k, l, bound, series)


def encode_hook_mult(e: HookExpansion) -> HookMultSeries:
    """Pack a hook expansion into the split-variable series."""
    vars_ = VarSet.vty(e.k, e.l)
    pad = lambda part, width: tuple(part) + (0,) * (width - len(part))
    terms: dict[Exps, Coeff] = {}
    for lam, c in e.coeffs.items():
        s = split_hook(lam, e.k, e.l)
        exps = pad(s.lambda0, e.k) + pad(s.mu, e.k) + pad(s.nu, e.l)
        terms[exps] = c
    return HookMultSeries(e.k, e.l, e.bound,
                          Series(vars_, e.bound, terms, _raw=True))


def decode_hook_mult(m: HookMultSeries) -> HookExpansion:
    """Unpack the split-variable series back to the hook basis (inverse)."""
    coeffs: dict[tuple[int, ...], Coeff] = {}
    for exps, c in m.series.terms.items():
        lam = HookMultSeries._decode_exps(exps, m.k, m.l)
        coeffs[lam] = c
    return HookExpansion(m.k, m.l, m.bound, coeffs)


def utn_hook_mult_series(n: int, k: int, l: int, bound: int) -> HookMultSeries:
    """Split-encoded multiplicity series of the triangular algebra over E.

    Signed binomial sum over (j, q, lam) of the j-th iterate of the hook
    Grassmann step seeded at lam; seeds outside the hook contribute the zero
    function and are skipped.  Final coefficients must be nonnegative
    integers.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = HookExpansion(k, l, bound)
    for j in range(1, n + 1):
        for q in range(j):
            sign = (-1) ** (j - 1 - q)
            for lam in partitions_of(q):
                if not in_hook(lam, k, l):
                    continue
                c = sign * comb(n, j) * comb(j - 1, q) * char_degree(lam)
                seed = HookExpansion(k, l, bound, {lam: 1})
                total = total + hook_grassmann_derived_power(seed, j).scale(c)
    for lam, c in total.coeffs.items():
        if not isinstance(c, int) or c < 0:
            raise ValueError(f"multiplicity of {lam} is {c}, not a nonnegative integer")
    return encode_hook_mult(total)
