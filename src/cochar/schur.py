"""Names of the former ordinary-Schur layer.

Ordinary Schur functions are the hook Schur functions of the (d, 0) hook
(Berele-Regev): s_lam(t_1..t_d) is ``hs_poly(lam, d, 0, bound)``, a symmetric
series in d variables decomposes as ``hs_decompose(g, d, 0)``, and the Pieri
steps and derived operators are those of :mod:`cochar.hooks` at ``l = 0``.
The one-alphabet multiplicity series M(A; T_d) is the (d, 0)
:class:`cochar.hooks.HookExpansion`: with no leg and an empty rectangle its
split monomial at lam is t^lam.

bench/tracer.py resolves the names below when it installs its span table,
and cochar.operators for the same reason; without them its span pass stops
with an AttributeError.  The stubs only say where the layer went.  Delete
them together with their span-table entries.
"""

from cochar.hooks import _schur_terms  # noqa: F401  (resolved here by bench/tracer.py)


def _removed(name: str, replacement: str):
    def stub(*args, **kwargs):
        raise NotImplementedError(f"{name} was removed: use {replacement}")

    stub.__name__ = stub.__qualname__ = name
    return stub


schur_decompose = _removed("schur_decompose", "cochar.hooks.hs_decompose(g, d, 0)")
pieri_row = _removed("pieri_row", "cochar.hooks.hook_pieri_row")
pieri_col = _removed("pieri_col", "cochar.hooks.hook_pieri_col")
