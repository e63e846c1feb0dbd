"""Hook Schur functions, the hook basis, and operators on it.

The (k,l)-semistandard tableaux use two ordered alphabets: entries from the
first weakly increase along rows and strictly increase down columns, entries
from the second strictly increase along rows and weakly increase down
columns, and all first-alphabet entries precede second-alphabet entries.
Their weight generating function hs_poly(lam) is nonzero exactly when lam
lies in the (k,l) hook, and distinct hook partitions give linearly
independent polynomials, so finite symmetric data can be decomposed exactly
in this basis.  By Berele-Regev, hs_lam = sum_alpha s_alpha(t) s_(lam'/alpha')(y)
and hs_lam(t; y) = hs_lam'(y; t).  :func:`hs_decompose` therefore takes the
t-block of its input to Schur coefficients through the Vandermonde
alternant, in the larger alphabet, swapping the two when l > k.  It then
adds the y variables one at a time by the branching rule, over vertical
strips lam/mu: hs_lam(t; y_1..y_j) = sum hs_mu(t; y_1..y_(j-1)) y_j^|lam/mu|.
So it builds no table of any hook Schur polynomial.  It reads a series
symmetric in each alphabet at its monomials with both blocks sorted, which
:func:`_symmetric_slices` builds from the sorted coefficients alone when
the series is symmetric in all the variables.

With an empty second alphabet the hook Schur functions are the ordinary
Schur functions: hs_poly(lam, d, 0, bound) is s_lam(t_1..t_d), and
``HookExpansion(d, 0, ...)`` is an ordinary Schur expansion in d variables.
Every function below serves that case too, and the (d, 0) expansion of
:func:`utn_hook_mult_series` is the one-alphabet multiplicity series
M(A; T_d): the monomial of :func:`encode_hook_mult` at lam is t^lam.

Products of hook Schur functions expand by the ordinary Littlewood-Richardson
rule with every summand outside the hook discarded, so the one-row and
one-column Pieri steps below add the ordinary strips that stay in the hook.
The derivations add strips of every size at once, walking each partition
once, run of equal parts by run, into one dict, by the one strip walk.

Internal paths pass canonical partition tuples: results are built with
``_raw=True`` and the split exponent vector is computed from them directly.
Validation happens at the public functions and constructors.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from typing import Iterable, Mapping, Sequence

from cochar.partitions import (
    _assemble_exps,
    _conjugate,
    _split_exps,
    _walk,
    partition,
    partitions_of,
)
from cochar.series import _coeff, _exact, _field, _ints, _list, _new_term, Exps, Series, ty, vty

Slice = dict[Exps, dict[int, int]]  # one degree of the peel's input, see _peel


@lru_cache(maxsize=None)
def _schur_terms(lam: tuple[int, ...], d: int) -> tuple[tuple[Exps, int], ...]:
    """Monomials of s_lam(t_1..t_d): those of hs_lam' with the t as the second
    alphabet and the first one empty (Berele-Regev)."""
    return _hs_terms(_conjugate(lam), 0, d) if lam else (((0,) * d, 1),)


def _vertical_peels(lam: tuple[int, ...], k: int, l: int) -> list[tuple[tuple[int, ...], int]]:
    """Each mu in the (k, l-1) hook with lam/mu a vertical strip, for lam in
    the (k, l) hook, with the number of boxes stripped.

    Within a run of equal parts only the bottom rows can lose their box, and
    a row below row k of length l must.
    """
    peels = [((), 0)]
    start, size = 0, len(lam)
    while start < size:  # rows start..end-1 are a run of parts v
        v, end = lam[start], start + 1
        while end < size and lam[end] == v:
            end += 1
        r = end - start
        forced = min(r, end - k) if v == l and end > k else 0
        if v > 1:
            rows = [((v,) * (r - j) + (v - 1,) * j, j) for j in range(forced, r + 1)]
        else:
            rows = [((1,) * (r - j), j) for j in range(forced, r + 1)]
        peels = rows if not start else [(mu + tail, s + j) for mu, s in peels for tail, j in rows]
        start = end
    return peels


@lru_cache(maxsize=None)
def _hs_terms(lam: tuple[int, ...], k: int, l: int) -> tuple[tuple[Exps, int], ...]:
    """Monomials of the hook Schur polynomial, by the branching rule
    hs_lam(t; y_1..y_l) = sum over vertical strips lam/mu of
    hs_mu(t; y_1..y_(l-1)) y_l^|lam/mu|.

    Only the mu of the (k, l-1) hook are peeled, since the other tables are
    empty; at l = 0 the table is that of s_lam(t).  Only :func:`hs_poly`
    asks for these tables.
    """
    if len(lam) > k and lam[k] > l:  # outside the hook
        return ()
    if l == 0:
        return _schur_terms(lam, k)
    acc: dict[Exps, int] = {}
    for mu, stripped in _vertical_peels(lam, k, l):
        suffix = (stripped,)
        for e, c in _hs_terms(mu, k, l - 1):
            key = e + suffix
            acc[key] = acc.get(key, 0) + c
    return tuple(acc.items())


def hs_poly(lam: Sequence[int], k: int, l: int, bound: int) -> Series:
    """Hook Schur polynomial of lam in t_1..t_k, y_1..y_l, zero above bound."""
    lam = partition(lam)
    vars_ = ty(k, l)
    if sum(lam) > bound:
        return Series.zero(vars_, bound)
    return Series(vars_, bound, dict(_hs_terms(lam, k, l)), _raw=True)


class HookExpansion:
    """Sparse map partition -> coefficient over the (k,l) hook basis, also
    the type of a multiplicity series; :meth:`to_obj` writes its split document.

    The constructor validates what it is given.  Operations of this module
    pass ``_raw=True`` instead: their results are built from canonical
    in-hook partitions of weight at most ``bound`` with nonzero int
    coefficients, and the new expansion takes ownership of that dict.
    """

    __slots__ = ("k", "l", "bound", "coeffs")

    def __init__(self, k: int, l: int, bound: int,
                 coeffs: Mapping[tuple[int, ...], int] | None = None, *,
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
        clean: dict[tuple[int, ...], int] = {}
        seen = set()
        for lam, c in (coeffs or {}).items():
            lam = partition(lam)
            if lam in seen:
                raise ValueError(f"partition {lam} is given twice")
            seen.add(lam)
            if len(lam) > k and lam[k] > l:
                raise ValueError(f"partition {lam} lies outside the ({k},{l}) hook")
            if sum(lam) <= bound and _coeff(c):
                clean[lam] = c
        self.coeffs = clean

    @classmethod
    def unit(cls, k: int, l: int, bound: int) -> "HookExpansion":
        return cls(k, l, bound, {(): 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, lam: Sequence[int]) -> int:
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
        acc: dict[tuple[int, ...], int] = {}
        for items in (self.coeffs.items(), other.coeffs.items()):
            for lam, c in items:
                if sum(lam) <= bound:
                    acc[lam] = acc.get(lam, 0) + c
        return HookExpansion(self.k, self.l, bound,
                             {lam: c for lam, c in acc.items() if c}, _raw=True)

    def scale(self, c: int) -> "HookExpansion":
        if not _coeff(c):
            return HookExpansion(self.k, self.l, self.bound)
        return HookExpansion(self.k, self.l, self.bound,
                             {lam: v * c for lam, v in self.coeffs.items()}, _raw=True)

    def to_series(self) -> Series:
        """Synthesize sum of coeff * hook Schur polynomial."""
        out = Series.zero(ty(self.k, self.l), self.bound)
        for lam, c in self.coeffs.items():
            out = out + hs_poly(lam, self.k, self.l, self.bound).scale(c)
        return out

    def to_obj(self) -> dict:
        """The split encoding as a JSON object, terms in (|lam|, lam) order.

        A partition lam splits into the part inside the (l^k) rectangle, the
        arm rows sticking out to the right, and the conjugated leg below:
        ``lambda0``, ``mu`` and ``nu``, of k, k and l entries.
        """
        k, l = self.k, self.l
        terms = []
        for lam in self.support():
            exps = _split_exps(lam, k, l)
            terms.append({"lambda0": list(exps[:k]), "mu": list(exps[k:2 * k]),
                          "nu": list(exps[2 * k:]), "coeff": str(self.coeffs[lam])})
        return {"hook": [k, l], "terms": terms}

    @classmethod
    def from_obj(cls, obj: Mapping, bound: int) -> "HookExpansion":
        """Inverse of :meth:`to_obj`; the object does not carry the bound.
        Each term must be the split of a partition, and is read as that one."""
        hook = _field(obj, "hook", _ints)
        if len(hook) != 2:
            raise ValueError(f"field 'hook' has a bad value {obj['hook']!r}")
        k, l = hook
        terms: dict[Exps, int] = {}
        for row in _field(obj, "terms", _list):
            lam0, mu, nu = (_field(row, name, _ints) for name in ("lambda0", "mu", "nu"))
            if len(lam0) != k or len(mu) != k or len(nu) != l:
                raise ValueError("split widths do not match the hook")
            terms[_new_term(terms, lam0 + mu + nu, bound)] = _field(row, "coeff", _exact)
        coeffs: dict[tuple[int, ...], int] = {}
        for exps, c in terms.items():
            try:
                lam = partition(_assemble_exps(exps, k, l))
            except ValueError:  # rows that are no partition
                lam = None
            if lam is None or _split_exps(lam, k, l) != exps:
                raise ValueError(f"{exps} is not a valid ({k}, {l}) split")
            coeffs[lam] = c
        return cls(k, l, bound, coeffs, _raw=True)


def _arrangements(block: Sequence[int]) -> int:
    """Number of distinct orderings of the entries of ``block``."""
    out = factorial(len(block))
    for m in Counter(block).values():
        out //= factorial(m)
    return out


def _block_sorted_terms(terms: dict[Exps, int], k: int, l: int, n: int) -> Slice:
    """The terms with weakly decreasing t- and y-exponents, for block-symmetric
    input, as the slice of degree n (see :func:`_peel`).

    Raises unless every term is a permutation within the blocks of a kept
    term with the same coefficient and every such orbit is complete.
    """
    grouped: Slice = {}
    orbits = 0
    w = max(k, l).bit_length()
    for e, c in terms.items():
        t, y = e[:k], e[k:]
        key = tuple(sorted(t, reverse=True)) + tuple(sorted(y, reverse=True))
        if terms.get(key) != c:
            raise ValueError(f"degree {n}: input is not symmetric in each alphabet at {e}")
        if key == e:
            branching, alternant = (t, y) if l > k else (y, t)
            grouped.setdefault(branching, {})[_code(alternant, w)] = c
            orbits += _arrangements(t) * _arrangements(y)
    if orbits != len(terms):
        raise ValueError(f"degree {n}: input is not symmetric in each alphabet "
                         f"(incomplete orbits)")
    return grouped


def _symmetric_slices(coeffs: Mapping[tuple[int, ...], int], k: int,
                      l: int) -> list[tuple[int, Slice]]:
    """The (degree, slice) pairs of a series symmetric in all k + l variables,
    from its coefficients at the partitions of at most k + l parts.

    Each choice of min(k, l) entries of the padded partition, kept in order,
    is a branching block, and the max(k, l) entries it leaves are the
    alternant block; both carry the partition's coefficient.  The code of the
    alternant block is that of the padded partition minus that of the
    branching block, and equal entries give the same blocks again, which
    rewrite the same entry.
    """
    low, high = sorted((k, l))
    w = high.bit_length()
    slices: dict[int, Slice] = {}
    for a, c in coeffs.items():
        padded = a + (0,) * (k + l - len(a))
        bits = [1 << w * e for e in padded]
        whole = sum(bits)
        grouped = slices.setdefault(sum(a), {})
        for b, drop in zip(combinations(padded, low), combinations(bits, low)):
            grouped.setdefault(b, {})[whole - sum(drop)] = c
    return sorted(slices.items())


def hs_decompose(g: Series, k: int, l: int) -> HookExpansion:
    """Write g in the hook basis, degree by degree, or fail loudly.

    Hook Schur polynomials are symmetric in the t and in the y variables, so
    g must be too, and then its monomials with weakly decreasing t- and
    y-exponents fix it.  :func:`_block_sorted_terms` checks that and groups
    those monomials into the slices of :func:`_peel`, which solves for the
    coefficients one y variable at a time: the coefficient of y^z in g, for
    each sorted exponent vector z of the y variables not yet added, is
    written in the hook Schur polynomials of the variables added so far.
    With none added these are the Schur polynomials s_alpha(t), read off by
    the alternant (in s_alpha(y) with the hook conjugated when l > k).  Each
    further variable is a triangular solve by the branching rule, so an
    input in the span has exactly one solution.  Every equation of the solve
    is checked, and an input off the span raises ``ValueError`` at the first
    degree whose residual no hook partition leads.
    """
    if g.vars != ty(k, l):
        raise ValueError(f"series variables {g.vars} do not fit hook ({k},{l})")
    by_degree: dict[int, dict[Exps, int]] = {}
    for e, c in g.terms.items():
        by_degree.setdefault(sum(e), {})[e] = c
    coeffs = _peel(((n, _block_sorted_terms(by_degree.get(n, {}), k, l, n))
                    for n in range(g.bound + 1)), k, l)
    return HookExpansion(k, l, g.bound, coeffs, _raw=True)


def _code(exps: Iterable[int], w: int) -> int:
    """The integer sum of 1 << (w * e) over the exponents.

    It holds the count of each exponent value in w bits, so with
    w = k.bit_length() it names a multiset of at most k exponents, whatever
    their order.  The code of a union is the sum of the codes.
    """
    return sum(1 << w * e for e in exps)


def _tail_rows(tail: tuple[int, ...], k: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The rows 1..r-1 of the alternant of every alpha = (a,) + tail of r parts.

    For each value v that they leave to row 0, the signed codes of their
    exponents, the sign counting row 0's inversions too.  Rows take unused
    values from the last one up, row i one of at most alpha_i + k-1-i, so no
    partial choice dead-ends: the zero rows keep their own.  Partial choices
    with the same values used and the same code are merged.
    """
    w = k.bit_length()
    r = len(tail) + 1
    rows = {((1 << k - r) - 1, k - r): 1}  # (values used, code) -> sign
    for i in range(r - 1, 0, -1):
        room = tail[i - 1] + k - 1 - i
        merged: dict[tuple[int, int], int] = {}
        for (used, code), s in rows.items():
            for v in range(k - r, min(room, k - 1) + 1):
                if not used >> v & 1:  # each used value above v is an inversion
                    key = (used | 1 << v, code + (1 << w * (room - v)))
                    merged[key] = merged.get(key, 0) + (-s if (used >> v).bit_count() & 1 else s)
        rows = {key: s for key, s in merged.items() if s}
    by_first: dict[int, list[tuple[int, int]]] = {}
    for (used, code), s in rows.items():
        v = (~used & (1 << k) - 1).bit_length() - 1
        by_first.setdefault(v, []).append((code, -s if (used >> v).bit_count() & 1 else s))
    return tuple((v, tuple(codes)) for v, codes in by_first.items())


def _alternant(alpha: tuple[int, ...], k: int, tails: dict) -> tuple[tuple[int, int], ...]:
    """The signed codes of sort(alpha + delta - w(delta)), w in S_k, merged.

    With delta = (k-1, ..., 0), the coefficient of s_alpha in a g symmetric in
    t_1..t_k is that of t^(alpha + delta) in g times the Vandermonde
    alternant, sum_w sgn(w) g[sort(alpha + delta - w(delta))] (Macdonald
    I.3), where only nonnegative exponents count.  Each exponent vector is
    given by its :func:`_code`.  Rows 1..r-1 come from ``tails``, the
    caller's memo of :func:`_tail_rows` by alpha[1:], and row 0 takes the
    value they leave.
    """
    if not alpha:
        return ((1, k),)
    rows = tails.get(alpha[1:])
    if rows is None:
        rows = tails[alpha[1:]] = _tail_rows(alpha[1:], k)
    w = k.bit_length()
    top = alpha[0] + k - 1
    acc: dict[int, int] = {}
    for v, codes in rows:
        first = 1 << w * (top - v)
        for code, s in codes:
            key = code + first
            acc[key] = acc.get(key, 0) + s
    return tuple((c, e) for e, c in acc.items() if c)


def _schur_row(g: dict[int, int], m: int, k: int, tails: dict) -> dict[tuple[int, ...], int]:
    """The nonzero coefficients of the s_alpha, |alpha| = m, in the block g:
    the sum of :func:`_alternant`'s signed codes read in g, taken straight
    from the rows of alpha's tail.  Merging the alternant first pays only
    where other blocks of its degree read it too."""
    w = k.bit_length()
    get = g.get
    row = {}
    for alpha in partitions_of(m, k):
        if not alpha:  # the k zero exponents, of code k
            d = get(k, 0)
        else:
            rows = tails.get(alpha[1:])
            if rows is None:
                rows = tails[alpha[1:]] = _tail_rows(alpha[1:], k)
            top = alpha[0] + k - 1
            d = 0
            for v, codes in rows:
                first = 1 << w * (top - v)
                for code, s in codes:
                    c = get(code + first)
                    if c:
                        d += s * c
        if d:
            row[alpha] = d
    return row


def _branch(mu: tuple[int, ...], s: int, k: int, j: int) -> tuple:
    """The lam of the (k, j) hook whose s rows below row k of length j,
    shortened, give mu, with its other vertical peels; () if there is none.

    Those rows must lose their box, so the first vertical peel of lam is
    (mu, s) itself, and every other one strips more boxes.
    """
    if s:
        if len(mu) < k or mu[k - 1] < j or (j > 1 and mu[k:k + s] != (j - 1,) * s):
            return ()
        lam = mu[:k] + (j,) * s + mu[k + s:]
    else:
        lam = mu
    return lam, _vertical_peels(lam, k, j)[1:]


def _peel(slices: Iterable[tuple[int, Slice]], k: int, l: int) -> dict[tuple[int, ...], int]:
    """The solve of :func:`hs_decompose` on (degree, slice) pairs, one y
    variable at a time: the nonzero coefficient of each hook partition.

    A slice holds the monomials of its degree with both blocks weakly
    decreasing, keyed by the block of the min(k, l) branching variables and
    then by the :func:`_code` of that of the max(k, l) alternant variables.  With l > k these are
    the t and the y: below, t, y, k and l name the alphabets after that
    swap, and the result is conjugated at the end.  Level 0 maps each
    y-block of a slice to the Schur coefficients of its t-block: every alpha
    of the remaining degree is tried, also where the monomial t^alpha y^beta
    is absent, for the alternant can be nonzero there.  At l = 0 that is the
    answer, and each degree has the one block (), so :func:`_schur_row`
    reads it from the tail rows without merging any alternant.

    Level j maps each weakly decreasing exponent vector z of y_(j+1)..y_l to
    the coefficients g_z(lam), lam in the (k, j) hook, of the y^z part of the
    slice in hs_lam(t; y_1..y_j).  By the branching rule, each (mu, s) gives
    one equation: the g_z(lam) with lam/mu a vertical strip of s boxes sum to
    the level j - 1 coefficient of mu at the sorted (s,) + z, exact by
    y-symmetry.  A lam with s_lam rows below row k of length j must lose
    those boxes, and shortening them gives mu_lam; every other lam in the
    equation of (mu_lam, s_lam) has fewer such rows, since a run of equal
    rows grows from its top.  The equations are therefore solved in
    increasing s: the residual at (mu_lam, s_lam) is g_z(lam), which is
    pushed onto the vertical peels of lam with more boxes.  A nonzero
    residual at a (mu, s) that is no (mu_lam, s_lam) raises ``ValueError``.
    Only the levels of one degree are held at a time; the alternants (at
    l > 0), the rows of their tails and the lam of each (mu, s, j) are kept
    for the call.
    """
    swap = l > k
    if swap:
        k, l = l, k
    second = "t" if swap else "y"
    tails: dict = {}
    alternants: dict[int, list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]] = {}
    plans: list[dict] = [{} for _ in range(l + 1)]
    coeffs: dict[tuple[int, ...], int] = {}
    for n, grouped in slices:
        level: dict[Exps, dict[tuple[int, ...], int]] = {}
        for y, g in grouped.items():
            m = n - sum(y)
            if not l:  # the one block () of its degree
                row = _schur_row(g, m, k, tails)
            else:
                pairs = alternants.get(m)
                if pairs is None:
                    pairs = alternants[m] = [(alpha, _alternant(alpha, k, tails))
                                             for alpha in partitions_of(m, k)]
                row = {}
                for alpha, terms in pairs:
                    d = sum(c * g.get(e, 0) for c, e in terms)
                    if d:
                        row[alpha] = d
            if row:
                level[y] = row
        for j in range(1, l + 1):
            by_z: dict[Exps, dict[int, dict[tuple[int, ...], int]]] = {}
            for w, row in level.items():
                for i, s in enumerate(w):
                    if not i or w[i - 1] != s:
                        by_z.setdefault(w[:i] + w[i + 1:], {})[s] = row
            plan = plans[j]
            level = {}
            for z, rows in by_z.items():
                solved: dict[tuple[int, ...], int] = {}
                top = n - sum(z)
                pushed: list[dict[tuple[int, ...], int]] = [{} for _ in range(top + 1)]
                for s in range(top + 1):
                    residual = rows.get(s)
                    p = pushed[s]
                    if p:
                        residual = dict(residual) if residual else {}
                        for mu, v in p.items():
                            residual[mu] = residual.get(mu, 0) - v
                    elif not residual:
                        continue
                    for mu, c in residual.items():
                        if not c:
                            continue
                        step = plan.get((mu, s))
                        if step is None:
                            step = plan[mu, s] = _branch(mu, s, k, j)
                        if not step:
                            raise ValueError(
                                f"degree {n}: residual {c} of hs_{mu} with exponents "
                                f"{(s,) + z} in {second}_{j}.. is not led by any hook "
                                f"basis element")
                        lam, peels = step
                        solved[lam] = c
                        for nu, r in peels:
                            acc = pushed[r]
                            acc[nu] = acc.get(nu, 0) + c
                if solved:
                    level[z] = solved
        coeffs.update(level.get((), {}))
    return {_conjugate(lam): c for lam, c in coeffs.items()} if swap else coeffs


# -- Pieri steps and derived operators ---------------------------------------


def _pieri(e: HookExpansion, size: int, vertical: bool) -> HookExpansion:
    """e times the one-row or (``vertical``) one-column hook Schur function of
    ``size`` boxes: each lam's strip walk to that budget, keeping its strips
    of exactly ``size`` boxes, in the walk's order."""
    k, l, bound = e.k, e.l, e.bound
    acc: dict[tuple[int, ...], int] = {}
    for lam, c in e.coeffs.items():
        target = sum(lam) + size
        if size >= 0 and target <= bound:
            strips: dict[tuple[int, ...], int] = {}
            _walk(lam, k, l, size, c, strips, False, vertical)
            for nu in strips:
                if sum(nu) == target:
                    acc[nu] = acc.get(nu, 0) + c
    return HookExpansion(k, l, bound,
                         {nu: c for nu, c in acc.items() if c}, _raw=True)


def hook_pieri_row(e: HookExpansion, n: int) -> HookExpansion:
    """Expansion of e times the one-row hook Schur function of size n."""
    return _pieri(e, n, False)


def hook_pieri_col(e: HookExpansion, m: int) -> HookExpansion:
    """Expansion of e times the one-column hook Schur function of size m."""
    return _pieri(e, m, True)


def _derived(e: HookExpansion, vertical: bool, even: bool = False) -> HookExpansion:
    """Multiply by the sum of the horizontal or (``vertical``) vertical strips,
    of every size or of even sizes.

    Each partition is walked once, run of equal parts by run, for every strip
    size up to the bound; the walk adds the partition's coefficient at each
    strip straight into one dict, and with ``even`` it skips the odd sizes
    itself.  The walks reach the strips in increasing lexicographic order, so
    the dict's order depends only on the input's.
    """
    k, l, bound = e.k, e.l, e.bound
    acc: dict[tuple[int, ...], int] = {}
    for lam, c in e.coeffs.items():
        _walk(lam, k, l, bound - sum(lam), c, acc, even, vertical)
    return HookExpansion(k, l, bound,
                         {nu: c for nu, c in acc.items() if c}, _raw=True)


def hook_row_derived(e: HookExpansion) -> HookExpansion:
    """Multiply by the row series R, the sum of all one-row hook Schur functions.

    R = prod_j (1+y_j) / prod_i (1-t_i); at l = 0 it is prod 1/(1-t_i).
    """
    return _derived(e, False)


def hook_col_derived(e: HookExpansion) -> HookExpansion:
    """Multiply by the column series C, the sum of all one-column hook Schur functions.

    C = prod_i (1+t_i) / prod_j (1-y_j); at l = 0 it is e_0 + e_1 + ... + e_d.
    """
    return _derived(e, True)


def hook_even_col_derived(e: HookExpansion) -> HookExpansion:
    """Multiply by the sum of the one-column hook Schur functions of even size.

    The alternating column sum  sum_m (-1)^m hs_(1^m) = prod (1-t_i) / prod (1+y_j)
    is 1/R, so this factor is (1/R + C)/2; at l = 0 it is
    (prod (1-t_i) + prod (1+t_i))/2.
    """
    return _derived(e, True, even=True)


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


# -- the split-variable encoding and the pipeline ----------------------------


def encode_hook_mult(e: HookExpansion) -> Series:
    """The split-variable series of a hook expansion, over v_1..v_k, t_1..t_k,
    y_1..y_l: the coefficient of lam at v^rectangle t^arm y^leg (see
    :meth:`HookExpansion.to_obj`)."""
    terms = {_split_exps(lam, e.k, e.l): c for lam, c in e.coeffs.items()}
    return Series(vty(e.k, e.l), e.bound, terms, _raw=True)


def utn_hook_mult_series(n: int, k: int, l: int, bound: int) -> HookExpansion:
    """Multiplicity series of the triangular algebra over E in the hook basis.

    The hook expansion of sum_{j=1}^{n} C(n,j) G^j L^(j-1), where G is the
    hook Grassmann step and L = hs_(1) - 1 with hs_(1) = sum t + sum y.  G
    is multiplication in the hook quotient ring, so it commutes with L, and
    the sum is taken in Horner form G(C(n,1) + L G(C(n,2) + ... + L G(C(n,n)))):
    n Grassmann steps, and each L is the one-box Pieri step minus the
    identity.  Final coefficients must be nonnegative integers.
    """
    if n < 1:
        raise ValueError("n must be positive")
    unit = HookExpansion.unit(k, l, bound)
    acc = unit
    for j in range(n - 1, 0, -1):
        b = hook_grassmann_derived(acc)
        acc = hook_pieri_row(b, 1) + b.scale(-1) + unit.scale(comb(n, j))
    total = hook_grassmann_derived(acc)
    for lam, c in total.coeffs.items():
        if c < 0:
            raise ValueError(f"multiplicity of {lam} is {c}, not a nonnegative integer")
    return total
