"""End-to-end acceptance gate.

Each criterion recomputes its quantities along independent routes and demands
exact (zero-tolerance) agreement, pinned values included.  One line is
printed per criterion; run with ``pytest -s`` to watch them go by.
"""

import pytest

from cochar import cli, hooks, verify
from cochar.hilbert import utn_mult_series
from cochar.hooks import hook_row_derived, HookExpansion, utn_hook_mult_series
from cochar.series import Series, vty

ACCEPTANCE = verify.SUITES["acceptance"]

# every check as ``run_suite("all")`` lists it, in its order
SUITE_ORDER = [
    ("invariants", "partition basics"),
    ("invariants", "decomposition round trips"),
    ("invariants", "hook monomial encoding"),
    ("invariants", "derivation commutation"),
    ("invariants", "closed table spot check"),
    ("invariants", "reference series spot check"),
    ("acceptance", "hook multiplicities of the Grassmann algebra"),
    ("acceptance", "two-variable routes for UT_2(E)"),
    ("acceptance", "two-variable routes for UT_3(E)"),
    ("acceptance", "(2,3)-hook routes for UT_2(E)"),
    ("acceptance", "(1,1)-hook routes for UT_3(E)"),
    ("acceptance", "iterated half-sum operator expansions"),
    ("acceptance", "support bounds"),
    ("acceptance", "operator identities"),
    ("acceptance", "integrality and nonnegativity"),
]


def test_catalog_is_complete():
    assert len(ACCEPTANCE) == 9


@pytest.mark.parametrize("check", ACCEPTANCE, ids=[c.__name__ for c in ACCEPTANCE])
def test_criterion(check):
    result = check()
    line = f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_operator_identities_detail():
    assert verify.operator_identities() == (
        "acceptance", "operator identities", True,
        "commutation, row derivation and synthesis hold on 100 samples")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_operator_identities_catch_a_wrong_row_derivation(monkeypatch, d):
    # the fault hits only one Schur width, so every width in the check is exercised
    def one_strip_too_many(e):
        out = hook_row_derived(e)
        if out.k != d or out.l != 0:
            return out
        return out + HookExpansion(out.k, out.l, out.bound, {(2,): 1})

    monkeypatch.setattr(verify, "hook_row_derived", one_strip_too_many)
    result = verify.operator_identities()
    assert not result.passed
    assert "row derivation is not prod 1/(1-t_i)" in result.detail
    assert f"d={d})" in result.detail


@pytest.mark.parametrize("wrong_n", [1, 2, 3])
def test_operator_identities_catch_a_wrong_multiplicity(monkeypatch, wrong_n):
    def off_by_one_at_52(n, d, bound):
        m = utn_mult_series(n, d, bound)
        if n != wrong_n:
            return m
        return m + HookExpansion(d, 0, bound, {(5, 2): 1})

    monkeypatch.setattr(verify, "utn_mult_series", off_by_one_at_52)
    result = verify.operator_identities()
    assert not result.passed
    assert result.detail == ("synthesis of the multiplicity series is not "
                             f"the Hilbert series for n={wrong_n}")


@pytest.mark.parametrize("check", [verify.two_variable_routes_ut2, verify.two_variable_routes_ut3])
def test_two_variable_routes_catch_a_raw_series_fault(monkeypatch, check):
    # the checks run the routes of the table commands, so a fault in the
    # decompose route's input, which no table job's other route reads, fails them
    slices = cli._symmetric_slices

    def one_more_at_32(coeffs, k, l):
        return slices({**coeffs, (3, 2): coeffs.get((3, 2), 0) + 1}, k, l)

    monkeypatch.setattr(cli, "_symmetric_slices", one_more_at_32)
    result = check()
    assert not result.passed
    assert "[3,2]: pipeline=5, decompose=6, closed-form=5" in result.detail


def test_support_bounds_fail_when_the_routes_disagree(monkeypatch):
    # a fault in the one-alphabet decompose route that leaves every support
    # inside its predicted region fails the check through the route diffs
    slices = cli._symmetric_slices

    def one_more_at_32(coeffs, k, l):
        if l:
            return slices(coeffs, k, l)
        return slices({**coeffs, (3, 2): coeffs.get((3, 2), 0) + 1}, k, l)

    monkeypatch.setattr(cli, "_symmetric_slices", one_more_at_32)
    result = verify.support_bounds()
    assert not result.passed
    assert result.detail.startswith("[3,2]: pipeline=0, decompose=1, closed-form=0")


def test_support_bounds_catch_a_shape_whose_conjugate_leaves_the_hook(monkeypatch):
    # (3,3,3,3) keeps row 3 within 2n - 1 = 3 and sits in the square
    # allowance, but its conjugate (4,4,4) has 4 > 3 boxes in row 3; the
    # routes agree on it, so only the conjugate bound can name it
    all_routes = verify._all_routes

    def one_at_3333(n, k, l, trunc):
        diffs, mult = all_routes(n, k, l, trunc)
        if n == 2:
            mult = {**mult, (3, 3, 3, 3): 1}
        return diffs, mult

    monkeypatch.setattr(verify, "_all_routes", one_at_3333)
    result = verify.support_bounds()
    assert not result.passed
    assert result.detail == "n=2: conjugate hook bound broken at (3, 3, 3, 3)"


def test_hook_routes_name_a_partition_the_domain_misses(monkeypatch):
    upto = cli._hook_partitions_upto
    monkeypatch.setattr(cli, "_hook_partitions_upto",
                        lambda trunc, k, l: [lam for lam in upto(trunc, k, l) if lam != (3, 2, 1)])
    assert verify.hook_routes_ut2() == (
        "acceptance", "(2,3)-hook routes for UT_2(E)", False,
        "ValueError: pipeline route: [3,2,1] lies outside the domain")


def test_hook_encoding_catches_a_split_that_drops_the_leg(monkeypatch):
    # the split document and the split monomials both go through
    # hooks._split_exps; without the leg, partitions that differ below row k
    # share one split, and a split reads back as the first k rows
    split = hooks._split_exps

    def no_leg(lam, k, l):
        return split(lam, k, l)[:2 * k] + (0,) * l

    monkeypatch.setattr(hooks, "_split_exps", no_leg)
    result = verify._inv_hook_encoding()
    assert (result.suite, result.name, result.passed) == \
        ("invariants", "hook monomial encoding", False)
    # the monomials alone, with the document left to the true split
    monkeypatch.undo()
    monkeypatch.setattr(verify, "encode_hook_mult", lambda e: Series(
        vty(e.k, e.l), e.bound, {no_leg(lam, e.k, e.l): c for lam, c in e.coeffs.items()}))
    result = verify._inv_hook_encoding()
    assert not result.passed
    assert "monomial encoding round trip fails (sample 0)" in result.detail


def test_a_check_that_raises_fails_and_the_suite_goes_on(monkeypatch):
    # the pipeline raises at a negative multiplicity; integrality reports
    # that as its FAIL, and the suite runs every other check
    step = hooks.hook_grassmann_derived

    def minus_50_at_21(e):
        return step(e) + HookExpansion(e.k, e.l, e.bound, {(2, 1): -50})

    monkeypatch.setattr(hooks, "hook_grassmann_derived", minus_50_at_21)
    results = {r.name: r for r in verify.run_suite("all")}
    assert len(results) == 15
    assert results["integrality and nonnegativity"] == (
        "acceptance", "integrality and nonnegativity", False,
        "ValueError: multiplicity of (2, 1) is -49, not a nonnegative integer")
    assert results["partition basics"].passed


def test_every_check_runs_once_in_its_suite_in_order():
    # a check declares its suite once, in its decorator, and runs there only
    assert [(r.suite, r.name) for r in verify.run_suite("all")] == SUITE_ORDER


def test_a_check_of_an_unknown_suite_fails_to_declare():
    with pytest.raises(KeyError, match="bogus"):
        verify._check("bogus", "no such suite")(lambda: ([], "never registered"))


def test_headline_values():
    ut2 = utn_mult_series(2, 2, 8)
    assert ut2.coefficient((5, 2)) == 11
    assert ut2.coefficient((4, 3)) == 8
    ut3 = utn_mult_series(3, 2, 8)
    assert ut3.coefficient((4, 3)) == 14
    hooked = utn_hook_mult_series(2, 2, 3, 8)
    assert hooked.coefficient((4, 2, 1, 1)) == 38
    assert utn_hook_mult_series(3, 1, 1, 5).coefficient((3, 1, 1)) == 6
