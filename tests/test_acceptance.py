"""End-to-end acceptance gate.

Each criterion recomputes its quantities along independent routes and demands
exact (zero-tolerance) agreement, pinned values included.  One line is
printed per criterion; run with ``pytest -s`` to watch them go by.
"""

import pytest

from cochar import verify
from cochar.hilbert import utn_mult_series
from cochar.hooks import (decode_hook_mult, encode_hook_mult, hook_row_derived, HookExpansion,
                          utn_hook_mult_series)
from cochar.verify import ACCEPTANCE_CHECKS


def test_catalog_is_complete():
    assert len(ACCEPTANCE_CHECKS) == 9


@pytest.mark.parametrize("check", ACCEPTANCE_CHECKS,
                         ids=[c.__name__ for c in ACCEPTANCE_CHECKS])
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
        return encode_hook_mult(decode_hook_mult(m) + HookExpansion(d, 0, bound, {(5, 2): 1}))

    monkeypatch.setattr(verify, "utn_mult_series", off_by_one_at_52)
    result = verify.operator_identities()
    assert not result.passed
    assert result.detail == ("synthesis of the multiplicity series is not "
                             f"the Hilbert series for n={wrong_n}")


def test_headline_values():
    ut2 = utn_mult_series(2, 2, 8)
    assert ut2.coefficient((5, 2)) == 11
    assert ut2.coefficient((4, 3)) == 8
    ut3 = utn_mult_series(3, 2, 8)
    assert ut3.coefficient((4, 3)) == 14
    hooked = utn_hook_mult_series(2, 2, 3, 8)
    assert hooked.coefficient((4, 2, 1, 1)) == 38
    assert utn_hook_mult_series(3, 1, 1, 5).coefficient((3, 1, 1)) == 6
