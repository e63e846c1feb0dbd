"""One-alphabet multiplicity series.

Ordinary Schur functions are the hook Schur functions of the (d, 0) hook
(Berele-Regev): s_lam(t_1..t_d) is ``hs_poly(lam, d, 0, bound)``, a symmetric
series in d variables decomposes as ``hs_decompose(g, d, 0)``, and the Pieri
steps and derived operators are those of :mod:`cochar.hooks` at ``l = 0``.

This module keeps what only one alphabet has.  :class:`MultSeries` packs an
``l = 0`` expansion into a generating series on the exponents ``lam``
themselves, the paper's M(A; T_d) (T-form).  Its two-variable displays, in
Drensky's difference coordinates, are
:func:`cochar.closed_forms.reference_series`: their coefficient at
v^(lam1 - lam2, lam2) is that of t^lam here.
"""

from __future__ import annotations

from typing import Sequence

from cochar.hooks import HookExpansion
from cochar.hooks import _schur_terms  # noqa: F401  (resolved here by bench/tracer.py)
from cochar.partitions import partition
from cochar.series import Coeff, Exps, Series, VarSet


class MultSeries:
    """Generating series of Schur coefficients: the monomial t^lam per
    partition lam of at most d parts, with ``bound`` a bound on its weight."""

    __slots__ = ("d", "bound", "series")

    def __init__(self, d: int, bound: int, series: Series):
        expected = VarSet.t(d)
        if series.vars.names != expected.names:
            raise ValueError(f"series variables {series.vars.names} do not match T-form")
        kept: dict[Exps, Coeff] = {}
        for e, c in series.terms.items():
            if any(e[i] < e[i + 1] for i in range(d - 1)):
                raise ValueError(f"T-form exponent {e} is not a partition shape")
            if sum(e) <= bound:
                kept[e] = c
        self.d = d
        self.bound = bound
        self.series = Series(expected, bound, kept, _raw=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultSeries):
            return NotImplemented
        return ((self.d, self.bound) == (other.d, other.bound)
                and self.series.terms == other.series.terms)

    def __repr__(self) -> str:
        return f"MultSeries(d={self.d}, bound={self.bound}, {len(self.series.terms)} terms)"

    def coefficient(self, lam: Sequence[int]) -> Coeff:
        lam = partition(lam)
        if len(lam) > self.d:
            return 0
        return self.series.terms.get(lam + (0,) * (self.d - len(lam)), 0)


def to_mult_series(e: HookExpansion) -> MultSeries:
    """Pack an l = 0 expansion into a multiplicity series."""
    if e.l != 0:
        raise ValueError(f"multiplicity series encode (d, 0) expansions, not ({e.k}, {e.l})")
    d = e.k
    terms = {lam + (0,) * (d - len(lam)): c for lam, c in e.coeffs.items()}
    return MultSeries(d, e.bound, Series(VarSet.t(d), e.bound, terms, _raw=True))


def from_mult_series(m: MultSeries) -> HookExpansion:
    """Unpack a multiplicity series back into an expansion (round-trip inverse)."""
    return HookExpansion(m.d, 0, m.bound, {partition(e): c for e, c in m.series.terms.items()})


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
