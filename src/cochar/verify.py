"""Cross-route verification suites.

Each check recomputes the same quantity along independent routes (operator
pipeline, raw-series decomposition, tabulated closed form) and demands exact
agreement; the route checks run the table jobs through
:func:`cochar.cli._run_routes`, so they read the code that every job runs.
The "invariants" suite is a quick battery of structural properties; the
"acceptance" suite is the heavier end-to-end agreement run.
Both return structured results so callers (the command line tool, the test
suite) can render or assert them as they see fit.
"""

from __future__ import annotations

import random
from functools import wraps
from typing import Callable, NamedTuple

from .cli import _run_routes
from .closed_forms import reference_series
from .hilbert import grassmann_double_hilbert, utn_hilbert, utn_mult_series
from .hooks import (HookExpansion, decode_hook_mult, encode_hook_mult,
                    hook_col_derived, hook_even_col_derived,
                    hook_grassmann_derived, hook_grassmann_derived_power,
                    hook_row_derived, hs_decompose, utn_hook_mult_series)
from .partitions import (_hook_partitions_upto, in_extended_hook, in_hook,
                         part_at, partition, partitions_upto)
from .series import expand_factor, ty


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str


# each suite's checks as ``_check`` declares them; ``run_suite("all")`` runs
# the suites in this order
SUITES: dict[str, list[Callable[[], CheckResult]]] = {"invariants": [], "acceptance": []}


def _check(suite: str, name: str):
    """Make a function that returns (failures, detail on success) the check
    ``name`` of ``suite``, which returns a :class:`CheckResult`, and append it
    to ``SUITES[suite]``: module-level functions only, as decorating registers.
    A ``ValueError`` or ``ArithmeticError`` that it raises is its FAIL, named,
    so that the suite goes on with its other checks."""
    def decorate(fn: Callable[..., tuple[list[str], str]]) -> Callable[..., CheckResult]:
        @wraps(fn)
        def check(*args, **kwargs) -> CheckResult:
            try:
                failures, ok_detail = fn(*args, **kwargs)
            except (ValueError, ArithmeticError) as exc:
                failures = [f"{type(exc).__name__}: {exc}"]
            if failures:
                shown = "; ".join(failures[:4])
                if len(failures) > 4:
                    shown += f"; ... {len(failures) - 4} more"
                return CheckResult(suite, name, False, shown)
            return CheckResult(suite, name, True, ok_detail)
        SUITES[suite].append(check)
        return check
    return decorate


def _random_hook_expansion(rng: random.Random, k: int, l: int,
                           bound: int) -> HookExpansion:
    """A random expansion in the (k, l) hook; ``l = 0`` gives a Schur expansion."""
    pool = _hook_partitions_upto(min(bound, 5), k, l)
    coeffs = {}
    for lam in rng.sample(pool, k=min(4, len(pool))):
        coeffs[lam] = rng.randint(-3, 3)
    return HookExpansion(k, l, bound, coeffs)


def _all_routes(n: int, k: int, l: int, trunc: int) -> tuple[list[str], dict]:
    """The table job of UT_n(E) over the (k, l) hook with every route, run by
    :func:`cochar.cli._run_routes` as the ``cochar`` table commands run it:
    the per-shape diffs between the routes, and the pipeline's multiplicity
    at each partition of the domain."""
    _, results, diffs = _run_routes(n, k, l, trunc, "all")
    return diffs, results["pipeline"]


def _pinned(mult: dict, pins: dict[tuple[int, ...], int]) -> list[str]:
    return [f"pinned value at {lam}: {mult[lam]} != {want}"
            for lam, want in pins.items() if mult[lam] != want]


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------


@_check("acceptance", "hook multiplicities of the Grassmann algebra")
def hook_multiplicities_of_grassmann(trunc: int = 12):
    """Every hook shape once, nothing else, in three variables and over the
    (1,1) hook: the closed table of E against both computed routes."""
    failures = _all_routes(1, 3, 0, trunc)[0] + _all_routes(1, 1, 1, trunc)[0]
    return failures, f"all hook shapes to weight {trunc} have multiplicity 1"


@_check("acceptance", "two-variable routes for UT_2(E)")
def two_variable_routes_ut2(trunc: int = 20):
    diffs, mult = _all_routes(2, 2, 0, trunc)
    return (diffs + _pinned(mult, {(5, 2): 11, (4, 3): 8}),
            f"three routes agree on all shapes to weight {trunc}")


@_check("acceptance", "two-variable routes for UT_3(E)")
def two_variable_routes_ut3(trunc: int = 20):
    diffs, mult = _all_routes(3, 2, 0, trunc)
    return (diffs + _pinned(mult, {(4, 3): 14, (4, 4): 14, (5, 4): 40}),
            f"three routes agree on all shapes to weight {trunc}")


@_check("acceptance", "(2,3)-hook routes for UT_2(E)")
def hook_routes_ut2(trunc: int = 14):
    diffs, mult = _all_routes(2, 2, 3, trunc)
    pins = {(2, 2) + (1,) * m: 3 * m + 2 for m in range(trunc - 3)} | {(4, 2, 1, 1): 38}
    failures = diffs + _pinned(mult, pins)
    if (encode_hook_mult(HookExpansion(2, 3, trunc, mult)).series
            != reference_series("Mhat_UT2_23", trunc)):
        failures.append("pipeline differs from the transcribed display")
    return failures, f"four routes agree on the (2,3) hook to weight {trunc}"


@_check("acceptance", "(1,1)-hook routes for UT_3(E)")
def hook_routes_ut3(trunc: int = 16):
    diffs, mult = _all_routes(3, 1, 1, trunc)
    return (diffs + _pinned(mult, {(3, 1, 1): 6}),
            f"three routes agree on the (1,1) hook to weight {trunc}")


@_check("acceptance", "iterated half-sum operator expansions")
def g_operator_expansions(trunc: int = 10):
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
    return failures, f"all three displays match to degree {trunc}"


@_check("acceptance", "support bounds")
def support_bounds():
    failures = []
    jobs = [
        (1, 2, 2, 8),   # ambient hook strictly larger than the claimed support
        (2, 3, 4, 12),
        (3, 4, 6, 10),
    ]
    for n, k, l, trunc in jobs:
        diffs, mult = _all_routes(n, k, l, trunc)
        failures += diffs
        for lam in (lam for lam, c in mult.items() if c):
            if part_at(lam, n + 1) > 2 * n - 1:
                failures.append(f"n={n}: row bound broken at {lam}")
            if not in_hook(lam, n, 2 * n - 1):
                failures.append(f"n={n}: hook bound broken at {lam}")
            if not in_extended_hook(lam, n):
                failures.append(f"n={n}: square allowance broken at {lam}")
    for n, d, trunc in [(1, 3, 8), (2, 5, 10), (3, 7, 8)]:
        diffs, mult = _all_routes(n, d, 0, trunc)
        failures += diffs
        for lam, c in mult.items():
            if c and part_at(lam, n + 1) > 2 * n - 1:
                failures.append(f"n={n}, {d} variables: row bound broken at {lam}")
    power_base = grassmann_double_hilbert(2, 2, 10)
    for j in (1, 2, 3):
        exp = hs_decompose(power_base ** j, 2, 2)
        for lam in exp.support():
            if not in_hook(lam, j, j):
                failures.append(f"power {j}: support leaves the ({j},{j}) hook at {lam}")
    return failures, "all computed supports sit inside the predicted regions"


@_check("acceptance", "operator identities")
def operator_identities(samples: int = 100, seed: int = 20260817):
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
        geo = expand_factor(ty(d, 0), [(f"t{j}", -1, -1) for j in range(1, d + 1)], 7)
        if hook_row_derived(e).to_series() != e.to_series() * geo:
            failures.append(f"row derivation is not prod 1/(1-t_i) (sample {i}, d={d})")
            break
    for i in range(20):
        e = _random_hook_expansion(rng, 2, 0, 7)
        lhs = hook_even_col_derived(e).to_series()
        rhs = e.to_series() * expand_factor(ty(2, 0), [((1, 1), 1, 1)], 7)
        if lhs != rhs:
            failures.append(f"two-variable column derivation is not (1+t1t2) (sample {i})")
            break
    for n in (1, 2, 3):
        if decode_hook_mult(utn_mult_series(n, 2, 10)).to_series() != utn_hilbert(n, 2, 10):
            failures.append(f"synthesis of the multiplicity series is not the Hilbert series for n={n}")
    return failures, f"commutation, row derivation and synthesis hold on {samples} samples"


@_check("acceptance", "integrality and nonnegativity")
def integrality():
    """The pipeline raises at a multiplicity that is not a nonnegative integer."""
    for n, k, l in [(1, 2, 0), (1, 3, 0), (2, 2, 0), (2, 3, 0), (3, 2, 0), (3, 3, 0),
                    (1, 1, 1), (2, 2, 3), (3, 1, 1), (2, 2, 2)]:
        utn_hook_mult_series(n, k, l, 9)
    return [], "every emitted multiplicity is a nonnegative integer"


# ---------------------------------------------------------------------------
# quick structural invariants
# ---------------------------------------------------------------------------


@_check("invariants", "partition basics")
def _inv_partition_basics():
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
    return failures, "conjugation involutes; squared degrees sum to factorials"


@_check("invariants", "decomposition round trips")
def _inv_decomposition_roundtrips():
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
    return failures, "synthesis then decomposition is the identity on samples"


@_check("invariants", "hook monomial encoding")
def _inv_hook_encoding():
    failures = []
    rng = random.Random(11)
    for i in range(10):
        e = _random_hook_expansion(rng, 2, 3, 6)
        if decode_hook_mult(encode_hook_mult(e)) != e:
            failures.append(f"monomial encoding round trip fails (sample {i})")
    return failures, "encode/decode round trips on samples"


@_check("invariants", "derivation commutation")
def _inv_commutation():
    failures = []
    rng = random.Random(13)
    for i in range(20):
        e = _random_hook_expansion(rng, 2, 0, 6)
        if (hook_row_derived(hook_even_col_derived(e))
                != hook_even_col_derived(hook_row_derived(e))):
            failures.append(f"sample {i}")
    return failures, "row and column derivations commute on samples"


@_check("invariants", "closed table spot check")
def _inv_tables_small():
    return _all_routes(2, 2, 3, 8)[0], "three routes agree on the (2,3) hook to weight 8"


@_check("invariants", "reference series spot check")
def _inv_reference_small():
    failures, mult = _all_routes(1, 1, 1, 8)
    if reference_series("Mhat_E_11", 8) != encode_hook_mult(HookExpansion(1, 1, 8, mult)).series:
        failures.append("hook series of the Grassmann algebra")
    if reference_series("M'_UT2_2vars", 8).coefficient((3, 2)) != 11:
        failures.append("pinned coefficient of the two-variable display")
    return failures, "transcribed displays match pipelines to weight 8"


def run_suite(suite: str) -> list[CheckResult]:
    """Run the checks of ``suite`` in order; ``"all"`` runs every suite."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return [check() for name in (SUITES if suite == "all" else [suite])
            for check in SUITES[name]]
