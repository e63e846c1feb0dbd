"""One-alphabet multiplicity series.

Ordinary Schur functions are the hook Schur functions of the (d, 0) hook
(Berele-Regev): s_lam(t_1..t_d) is ``hs_poly(lam, d, 0, bound)``, a symmetric
series in d variables decomposes as ``hs_decompose(g, d, 0)``, and the Pieri
steps and derived operators are those of :mod:`cochar.hooks` at ``l = 0``.

This module keeps what only one alphabet has.  :class:`MultSeries` packs an
``l = 0`` expansion into a generating series, either on the exponents ``lam``
themselves (T-form) or on the consecutive differences of ``lam`` (V-form).
"""

from __future__ import annotations

from typing import Sequence

from cochar.hooks import HookExpansion
from cochar.hooks import _schur_terms  # noqa: F401  (resolved here by bench/tracer.py)
from cochar.partitions import partition
from cochar.series import Coeff, Exps, Series, VarSet


class MultSeries:
    """Generating series of Schur coefficients, in T-form or V-form.

    T-form stores the monomial t^lam per partition; V-form stores
    v^(consecutive differences of lam).  The ``bound`` is always a bound on
    the partition weight, which for V-form exceeds the series total degree.
    """

    __slots__ = ("form", "d", "bound", "series")

    def __init__(self, form: str, d: int, bound: int, series: Series):
        if form not in ("T", "V"):
            raise ValueError(f"form must be 'T' or 'V', not {form!r}")
        expected = VarSet.t(d) if form == "T" else VarSet.v(d)
        if series.vars.names != expected.names:
            raise ValueError(f"series variables {series.vars.names} do not match {form}-form")
        kept: dict[Exps, Coeff] = {}
        for e, c in series.terms.items():
            if form == "T":
                if any(e[i] < e[i + 1] for i in range(d - 1)):
                    raise ValueError(f"T-form exponent {e} is not a partition shape")
                w = sum(e)
            else:
                w = sum((i + 1) * e[i] for i in range(d))
            if w <= bound:
                kept[e] = c
        self.form = form
        self.d = d
        self.bound = bound
        self.series = Series(expected, bound, kept, _raw=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultSeries):
            return NotImplemented
        return ((self.form, self.d, self.bound) == (other.form, other.d, other.bound)
                and self.series.terms == other.series.terms)

    def __repr__(self) -> str:
        return (f"MultSeries({self.form}-form, d={self.d}, bound={self.bound}, "
                f"{len(self.series.terms)} terms)")

    def coefficient(self, lam: Sequence[int]) -> Coeff:
        lam = partition(lam)
        if len(lam) > self.d:
            return 0
        if self.form == "T":
            exps = lam + (0,) * (self.d - len(lam))
        else:
            full = lam + (0,) * (self.d - len(lam) + 1)
            exps = tuple(full[i] - full[i + 1] for i in range(self.d))
        return self.series.terms.get(exps, 0)


def to_mult_series(e: HookExpansion, form: str = "T") -> MultSeries:
    """Pack an l = 0 expansion into a multiplicity series."""
    if form not in ("T", "V"):
        raise ValueError(f"form must be 'T' or 'V', not {form!r}")
    if e.l != 0:
        raise ValueError(f"multiplicity series encode (d, 0) expansions, not ({e.k}, {e.l})")
    d = e.k
    vars_ = VarSet.t(d) if form == "T" else VarSet.v(d)
    terms: dict[Exps, Coeff] = {}
    for lam, c in e.coeffs.items():
        full = lam + (0,) * (d - len(lam) + 1)
        if form == "T":
            exps = full[:d]
        else:
            exps = tuple(full[i] - full[i + 1] for i in range(d))
        terms[exps] = c
    return MultSeries(form, d, e.bound, Series(vars_, e.bound, terms, _raw=True))


def from_mult_series(m: MultSeries) -> HookExpansion:
    """Unpack a multiplicity series back into an expansion (round-trip inverse)."""
    coeffs: dict[tuple[int, ...], Coeff] = {}
    for e, c in m.series.terms.items():
        if m.form == "T":
            lam = partition(e)
        else:
            lam = partition(tuple(sum(e[i:]) for i in range(m.d)))
        coeffs[lam] = c
    return HookExpansion(m.d, 0, m.bound, coeffs)


# -- names of the former ordinary-Schur layer -----------------------------------
#
# bench/tracer.py resolves these names (and ``_schur_terms`` above) when it
# installs its span table, and cochar.operators for the same reason; without
# them its span pass stops with an AttributeError.  The ordinary layer itself
# is gone, and the stubs only say where it went.  Delete them together with
# their span-table entries.


def _removed(name: str, replacement: str):
    def stub(*args, **kwargs):
        raise NotImplementedError(f"{name} was removed: use {replacement}")

    stub.__name__ = stub.__qualname__ = name
    return stub


schur_decompose = _removed("schur_decompose", "cochar.hooks.hs_decompose(g, d, 0)")
pieri_row = _removed("pieri_row", "cochar.hooks.hook_pieri_row")
pieri_col = _removed("pieri_col", "cochar.hooks.hook_pieri_col")
