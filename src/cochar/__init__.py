"""Exact cocharacter series for the Grassmann algebra and its triangular relatives."""

from cochar.partitions import (
    char_degree,
    conjugate,
    hook_partitions_of,
    horizontal_strips,
    in_extended_hook,
    in_hook,
    part_at,
    partition,
    partitions_of,
    partitions_upto,
    vertical_strips,
    weight,
)
from cochar.series import expand_factor, Series
from cochar.hooks import (
    encode_hook_mult,
    hook_col_derived,
    hook_even_col_derived,
    hook_grassmann_derived,
    hook_grassmann_derived_power,
    hook_pieri_col,
    hook_pieri_row,
    hook_row_derived,
    HookExpansion,
    hs_decompose,
    hs_poly,
    utn_hook_mult_series,
)
from cochar.hilbert import (
    grassmann_double_hilbert,
    utn_double_hilbert,
    utn_hilbert,
    utn_mult_series,
)
from cochar.closed_forms import closed_multiplicity, reference_series
from cochar import operators, schur  # noqa: F401  (stubs resolved by bench/tracer.py)

# The check suites load on first use, so that a job that runs none of them
# does not import them: ``cochar.verify`` and these names resolve lazily.
_VERIFY_NAMES = ("CheckResult", "run_suite")


def __getattr__(name: str):
    if name == "verify" or name in _VERIFY_NAMES:
        from importlib import import_module

        verify = import_module("cochar.verify")
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["verify", *_VERIFY_NAMES])
