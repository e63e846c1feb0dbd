"""Exact cocharacter series for the Grassmann algebra and its triangular relatives."""

from cochar.partitions import (
    assemble_hook,
    char_degree,
    conjugate,
    contains,
    format_partition,
    hook_partitions_of,
    HookSplit,
    horizontal_strips,
    in_extended_hook,
    in_hook,
    parse_partition,
    part_at,
    partition,
    partitions_of,
    partitions_upto,
    split_hook,
    square_overlap,
    vertical_strips,
    weight,
)
from cochar.series import (
    expand_factor,
    norm_coeff,
    Series,
    substitute_monomials,
    VarSet,
)
from cochar.hooks import (
    decode_hook_mult,
    encode_hook_mult,
    hook_col_derived,
    hook_even_col_derived,
    hook_grassmann_derived,
    hook_grassmann_derived_power,
    hook_pieri_col,
    hook_pieri_row,
    hook_row_derived,
    HookExpansion,
    HookMultSeries,
    hs_decompose,
    hs_poly,
    utn_hook_mult_series,
)
from cochar.schur import (
    convert_mult_series,
    from_mult_series,
    MultSeries,
    to_mult_series,
    verify_mult_series,
    young_derived_substitution,
)
from cochar.hilbert import (
    grassmann_double_hilbert,
    grassmann_hilbert,
    utn_double_hilbert,
    utn_hilbert,
    utn_mult_series,
)
from cochar.closed_forms import closed_multiplicity, reference_series
from cochar.verify import check_acceptance, check_invariants, CheckResult, run_suite
from cochar import operators  # noqa: F401  (stubs resolved by bench/tracer.py)

__all__ = [name for name in dir() if not name.startswith("_")]
