"""Cross-route verification suites.

Each check recomputes the same quantity along independent routes (operator
pipeline, raw-series decomposition, tabulated closed form) and demands exact
agreement.  The "invariants" suite is a quick battery of structural
properties; the "acceptance" suite is the heavier end-to-end agreement run.
Both return structured results so callers (the command line tool, the test
suite) can render or assert them as they see fit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .closed_forms import closed_multiplicity, reference_series
from .hilbert import (grassmann_double_hilbert, utn_double_hilbert, utn_hilbert,
                      utn_mult_series)
from .hooks import (HookExpansion, decode_hook_mult, encode_hook_mult,
                    hook_col_derived, hook_even_col_derived,
                    hook_grassmann_derived, hook_grassmann_derived_power,
                    hook_row_derived, hs_decompose, utn_hook_mult_series)
from .partitions import (_hook_partitions_upto, in_extended_hook, in_hook,
                         part_at, partition, partitions_upto)
from .series import VarSet, expand_factor


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite: str, name: str, failures: list[str],
            ok_detail: str) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; ... {len(failures) - 4} more"
        return CheckResult(suite, name, False, shown)
    return CheckResult(suite, name, True, ok_detail)


def _random_hook_expansion(rng: random.Random, k: int, l: int,
                           bound: int) -> HookExpansion:
    """A random expansion in the (k, l) hook; ``l = 0`` gives a Schur expansion."""
    pool = _hook_partitions_upto(min(bound, 5), k, l)
    coeffs = {}
    for lam in rng.sample(pool, k=min(4, len(pool))):
        coeffs[lam] = rng.randint(-3, 3)
    return HookExpansion(k, l, bound, coeffs)


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------


def hook_multiplicities_of_grassmann(trunc: int = 12) -> CheckResult:
    """Every hook shape once, nothing else: both decomposition routes."""
    failures = []
    exp = hs_decompose(grassmann_double_hilbert(3, 0, trunc), 3, 0)
    for lam in partitions_upto(trunc, max_parts=3):
        want = 1 if in_hook(lam, 1, 1) else 0
        got = exp.coefficient(lam)
        if got != want:
            failures.append(f"three-variable route at {lam}: {got} != {want}")
    hexp = hs_decompose(grassmann_double_hilbert(1, 1, trunc), 1, 1)
    for lam in partitions_upto(trunc):
        want = 1 if in_hook(lam, 1, 1) else 0
        got = hexp.coefficient(lam) if in_hook(lam, 1, 1) else 0
        if got != want:
            failures.append(f"two-alphabet route at {lam}: {got} != {want}")
    return _result("acceptance", "hook multiplicities of the Grassmann algebra",
                   failures, f"all hook shapes to weight {trunc} have multiplicity 1")


def _two_variable_routes(n: int, tag: str, trunc: int,
                         spots: dict[tuple, int]) -> CheckResult:
    failures = []
    pipeline = utn_mult_series(n, 2, trunc)
    decomposed = encode_hook_mult(hs_decompose(utn_hilbert(n, 2, trunc), 2, 0))
    if pipeline != decomposed:
        failures.append("operator route and decomposition route differ")
    for lam in partitions_upto(trunc, max_parts=2):
        want = closed_multiplicity(tag, lam)
        got = pipeline.coefficient(lam)
        if want is not None and got != want:
            failures.append(f"table disagrees at {lam}: {got} != {want}")
    for lam, want in spots.items():
        got = pipeline.coefficient(lam)
        if got != want:
            failures.append(f"pinned value at {lam}: {got} != {want}")
    return _result("acceptance", f"two-variable routes for UT_{n}(E)", failures,
                   f"three routes agree on all shapes to weight {trunc}")


def two_variable_routes_ut2(trunc: int = 20) -> CheckResult:
    return _two_variable_routes(2, "UT2E", trunc,
                                {(5, 2): 11, (4, 3): 8})


def two_variable_routes_ut3(trunc: int = 20) -> CheckResult:
    return _two_variable_routes(3, "UT3E_parts2", trunc,
                                {(4, 3): 14, (4, 4): 14, (5, 4): 40})


def hook_routes_ut2(trunc: int = 14) -> CheckResult:
    failures = []
    pipeline = utn_hook_mult_series(2, 2, 3, trunc)
    decomposed = hs_decompose(utn_double_hilbert(2, 2, 3, trunc), 2, 3)
    if decode_hook_mult(pipeline) != decomposed:
        failures.append("operator route and decomposition route differ")
    if pipeline.series != reference_series("Mhat_UT2_23", trunc):
        failures.append("pipeline differs from the transcribed display")
    for lam in _hook_partitions_upto(trunc, 2, 3):
        want = closed_multiplicity("UT2E", lam) or 0
        got = pipeline.coefficient(lam)
        if got != want:
            failures.append(f"table disagrees at {lam}: {got} != {want}")
    for m in range(trunc - 3):
        lam = partition((2, 2) + (1,) * m)
        got = pipeline.coefficient(lam)
        if got != 3 * m + 2:
            failures.append(f"pinned family at {lam}: {got} != {3 * m + 2}")
    if pipeline.coefficient((4, 2, 1, 1)) != 38:
        failures.append("pinned value at (4,2,1,1) is off")
    return _result("acceptance", "(2,3)-hook routes for UT_2(E)", failures,
                   f"four routes agree on the (2,3) hook to weight {trunc}")


def hook_routes_ut3(trunc: int = 16) -> CheckResult:
    failures = []
    pipeline = utn_hook_mult_series(3, 1, 1, trunc)
    for n in range(3, trunc + 1):
        for m in range(2, trunc + 1 - n):
            lam = partition((n,) + (1,) * m)
            want = closed_multiplicity("UT3E_hook11", lam)
            got = pipeline.coefficient(lam)
            if got != want:
                failures.append(f"quartic row at {lam}: {got} != {want}")
    if pipeline.coefficient((3, 1, 1)) != 6:
        failures.append("pinned value at (3,1,1) is off")
    return _result("acceptance", "(1,1)-hook routes for UT_3(E)", failures,
                   f"quartic row matches the pipeline to weight {trunc}")


def g_operator_expansions(trunc: int = 10) -> CheckResult:
    failures = []
    unit = HookExpansion.unit(2, 3, trunc)
    seed = HookExpansion(2, 3, trunc, {(1,): 1})
    pairs = [
        ("G1_of_1_H23", hook_grassmann_derived(unit)),
        ("G2sq_of_1_H23", hook_grassmann_derived_power(unit, 2)),
        ("G2sq_of_v1_H23", hook_grassmann_derived_power(seed, 2)),
    ]
    for name, computed in pairs:
        if encode_hook_mult(computed).series != reference_series(name, trunc):
            failures.append(f"{name} differs from the operator route")
    return _result("acceptance", "iterated half-sum operator expansions",
                   failures, f"all three displays match to degree {trunc}")


def support_bounds() -> CheckResult:
    failures = []
    jobs = [
        (1, 2, 2, 8),   # ambient hook strictly larger than the claimed support
        (2, 3, 4, 12),
        (3, 4, 6, 10),
    ]
    for n, k, l, trunc in jobs:
        series = utn_hook_mult_series(n, k, l, trunc)
        for lam in decode_hook_mult(series).support():
            if part_at(lam, n + 1) > 2 * n - 1:
                failures.append(f"n={n}: row bound broken at {lam}")
            if not in_hook(lam, n, 2 * n - 1):
                failures.append(f"n={n}: hook bound broken at {lam}")
            if not in_extended_hook(lam, n):
                failures.append(f"n={n}: square allowance broken at {lam}")
    for n, d, trunc in [(1, 3, 8), (2, 5, 10), (3, 7, 8)]:
        exp = hs_decompose(utn_hilbert(n, d, trunc), d, 0)
        for lam, c in exp.coeffs.items():
            if c and part_at(lam, n + 1) > 2 * n - 1:
                failures.append(f"n={n}, {d} variables: row bound broken at {lam}")
    power_base = grassmann_double_hilbert(2, 2, 10)
    for j in (1, 2, 3):
        exp = hs_decompose(power_base ** j, 2, 2)
        for lam in exp.support():
            if not in_hook(lam, j, j):
                failures.append(f"power {j}: support leaves the ({j},{j}) hook at {lam}")
    return _result("acceptance", "support bounds", failures,
                   "all computed supports sit inside the predicted regions")


def operator_identities(samples: int = 100, seed: int = 20260817) -> CheckResult:
    failures = []
    rng = random.Random(seed)
    for i in range(samples):
        e = _random_hook_expansion(rng, 3, 0, 7)
        if (hook_row_derived(hook_even_col_derived(e))
                != hook_even_col_derived(hook_row_derived(e))):
            failures.append(f"row/column derivations do not commute (sample {i})")
            break
    for i in range(samples):
        e = _random_hook_expansion(rng, 2, 2, 6)
        lhs = hook_row_derived(hook_col_derived(e))
        rhs = hook_col_derived(hook_row_derived(e))
        if lhs != rhs:
            failures.append(f"hook derivations do not commute (sample {i})")
            break
    for i in range(20):
        d = rng.choice((1, 2, 3))
        e = _random_hook_expansion(rng, d, 0, 7)
        geo = expand_factor(VarSet.ty(d, 0), [(f"t{j}", -1, -1) for j in range(1, d + 1)], 7)
        if hook_row_derived(e).to_series() != e.to_series() * geo:
            failures.append(f"row derivation is not prod 1/(1-t_i) (sample {i}, d={d})")
            break
    for i in range(20):
        e = _random_hook_expansion(rng, 2, 0, 7)
        lhs = hook_even_col_derived(e).to_series()
        rhs = e.to_series() * expand_factor(VarSet.ty(2, 0), [((1, 1), 1, 1)], 7)
        if lhs != rhs:
            failures.append(f"two-variable column derivation is not (1+t1t2) (sample {i})")
            break
    for n in (1, 2, 3):
        if decode_hook_mult(utn_mult_series(n, 2, 10)).to_series() != utn_hilbert(n, 2, 10):
            failures.append(f"synthesis of the multiplicity series is not the Hilbert series for n={n}")
    return _result("acceptance", "operator identities", failures,
                   f"commutation, row derivation and synthesis hold on {samples} samples")


def integrality() -> CheckResult:
    failures = []
    for n in (1, 2, 3):
        for d in (2, 3):
            ms = utn_mult_series(n, d, 9)
            for e, c in ms.series.terms.items():
                if isinstance(c, Fraction) or c < 0:
                    failures.append(f"n={n}, d={d}: coefficient {c} at {e}")
    for n, k, l in [(1, 1, 1), (2, 2, 3), (3, 1, 1), (2, 2, 2)]:
        hm = utn_hook_mult_series(n, k, l, 9)
        for e, c in hm.series.terms.items():
            if isinstance(c, Fraction) or c < 0:
                failures.append(f"n={n}, hook ({k},{l}): coefficient {c} at {e}")
    return _result("acceptance", "integrality and nonnegativity", failures,
                   "every emitted multiplicity is a nonnegative integer")


ACCEPTANCE_CHECKS: list[Callable[[], CheckResult]] = [
    hook_multiplicities_of_grassmann,
    two_variable_routes_ut2,
    two_variable_routes_ut3,
    hook_routes_ut2,
    hook_routes_ut3,
    g_operator_expansions,
    support_bounds,
    operator_identities,
    integrality,
]


def check_acceptance() -> list[CheckResult]:
    return [check() for check in ACCEPTANCE_CHECKS]


# ---------------------------------------------------------------------------
# quick structural invariants
# ---------------------------------------------------------------------------


def _inv_partition_basics() -> CheckResult:
    from .partitions import char_degree, conjugate, partitions_of
    failures = []
    for lam in partitions_upto(9):
        if partition(conjugate(conjugate(lam))) != lam:
            failures.append(f"conjugation does not involute at {lam}")
    import math
    for n in range(1, 7):
        total = sum(char_degree(lam) ** 2 for lam in partitions_of(n))
        if total != math.factorial(n):
            failures.append(f"squared degrees at weight {n} sum to {total}")
    return _result("invariants", "partition basics", failures,
                   "conjugation involutes; squared degrees sum to factorials")


def _inv_decomposition_roundtrips() -> CheckResult:
    failures = []
    rng = random.Random(7)
    for i in range(10):
        e = _random_hook_expansion(rng, 3, 0, 6)
        if hs_decompose(e.to_series(), 3, 0) != e:
            failures.append(f"ordinary round trip fails (sample {i})")
    for i in range(10):
        e = _random_hook_expansion(rng, 2, 2, 6)
        if hs_decompose(e.to_series(), 2, 2) != e:
            failures.append(f"hook round trip fails (sample {i})")
    return _result("invariants", "decomposition round trips", failures,
                   "synthesis then decomposition is the identity on samples")


def _inv_hook_encoding() -> CheckResult:
    failures = []
    rng = random.Random(11)
    for i in range(10):
        e = _random_hook_expansion(rng, 2, 3, 6)
        if decode_hook_mult(encode_hook_mult(e)) != e:
            failures.append(f"monomial encoding round trip fails (sample {i})")
    return _result("invariants", "hook monomial encoding", failures,
                   "encode/decode round trips on samples")


def _inv_commutation() -> CheckResult:
    failures = []
    rng = random.Random(13)
    for i in range(20):
        e = _random_hook_expansion(rng, 2, 0, 6)
        if (hook_row_derived(hook_even_col_derived(e))
                != hook_even_col_derived(hook_row_derived(e))):
            failures.append(f"sample {i}")
    return _result("invariants", "derivation commutation", failures,
                   "row and column derivations commute on samples")


def _inv_tables_small() -> CheckResult:
    failures = []
    direct = utn_hook_mult_series(2, 2, 3, 8)
    for lam in _hook_partitions_upto(8, 2, 3):
        want = closed_multiplicity("UT2E", lam) or 0
        if direct.coefficient(lam) != want:
            failures.append(f"table disagrees at {lam}")
    return _result("invariants", "closed table spot check", failures,
                   "pipeline matches the tabulated values to weight 8")


def _inv_reference_small() -> CheckResult:
    failures = []
    if reference_series("Mhat_E_11", 8) != utn_hook_mult_series(1, 1, 1, 8).series:
        failures.append("hook series of the Grassmann algebra")
    if reference_series("M'_UT2_2vars", 8).coefficient((3, 2)) != 11:
        failures.append("pinned coefficient of the two-variable display")
    return _result("invariants", "reference series spot check", failures,
                   "transcribed displays match pipelines to weight 8")


INVARIANT_CHECKS: list[Callable[[], CheckResult]] = [
    _inv_partition_basics,
    _inv_decomposition_roundtrips,
    _inv_hook_encoding,
    _inv_commutation,
    _inv_tables_small,
    _inv_reference_small,
]


def check_invariants() -> list[CheckResult]:
    return [check() for check in INVARIANT_CHECKS]


def run_suite(suite: str) -> list[CheckResult]:
    if suite == "invariants":
        return check_invariants()
    if suite == "acceptance":
        return check_acceptance()
    if suite == "all":
        return check_invariants() + check_acceptance()
    raise ValueError(f"unknown suite {suite!r}")
