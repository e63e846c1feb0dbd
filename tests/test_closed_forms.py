"""The tabulated formulas and the computed pipelines must agree exactly."""

import hashlib
import json

import pytest

from cochar.closed_forms import closed_multiplicity, reference_series
from cochar.hilbert import utn_mult_series
from cochar.hooks import (HookExpansion, encode_hook_mult,
                          hook_grassmann_derived, hook_grassmann_derived_power,
                          utn_hook_mult_series)
from cochar.partitions import _hook_partitions_upto, conjugate, in_hook, partitions_upto


def test_unknown_tags_raise():
    with pytest.raises(ValueError, match="algebra tag"):
        closed_multiplicity("UT9E", (3, 1))
    with pytest.raises(ValueError, match="reference series"):
        reference_series("Mhat_UT9_99", 5)


def test_a_float_shape_is_refused_not_truncated():
    # not the value at (5, 2), 11: a float part is refused, not truncated
    with pytest.raises(ValueError, match="part 5.9 of"):
        closed_multiplicity("UT2E", (5.9, 2))


def test_pinned_values():
    assert closed_multiplicity("E", (3, 1, 1)) == 1
    assert closed_multiplicity("E", (3, 2)) is None
    assert closed_multiplicity("UT2E", (4, 2, 1, 1)) == 38
    assert closed_multiplicity("UT2E", (5, 2)) == 11
    assert closed_multiplicity("UT3E_parts2", (4, 3)) == 14
    assert closed_multiplicity("UT3E_parts2", (4, 4)) == 14
    assert closed_multiplicity("UT3E_hook11", (3, 1, 1)) == 6
    # empty shape: the degree-0 character appears once everywhere
    for tag in ("E", "UT2E", "UT3E_parts2", "UT3E_hook11"):
        assert closed_multiplicity(tag, ()) == 1


def test_grassmann_table_vs_pipeline():
    direct = utn_hook_mult_series(1, 1, 1, 8)
    for lam in partitions_upto(8):
        assert (closed_multiplicity("E", lam) or 0) == direct.coefficient(lam)


def test_ut2_table_vs_pipeline():
    direct = utn_hook_mult_series(2, 2, 3, 10)
    for lam in partitions_upto(10):
        expected = closed_multiplicity("UT2E", lam) or 0
        assert expected == direct.coefficient(lam), lam


def test_ut2_table_support_invariant():
    for lam in partitions_upto(12):
        value = closed_multiplicity("UT2E", lam)
        if value:
            assert value > 0
            assert in_hook(lam, 2, 3)


@pytest.mark.parametrize("tag, shapes", [
    ("E", partitions_upto(20)),
    ("UT2E", partitions_upto(20)),
    ("UT3E_hook11", _hook_partitions_upto(60, 1, 1)),
])
def test_tables_are_conjugation_symmetric(tag, shapes):
    # omega fixes the cocharacter, so m_lam = m_lam' also at weights that no
    # route reaches
    for lam in shapes:
        assert (closed_multiplicity(tag, lam) or 0) == \
            (closed_multiplicity(tag, conjugate(lam)) or 0), lam


def test_two_part_tables_vs_pipeline():
    for n, tag in ((2, "UT2E"), (3, "UT3E_parts2")):
        direct = utn_mult_series(n, 2, 12)
        for lam in partitions_upto(12, max_parts=2):
            expected = closed_multiplicity(tag, lam)
            assert expected is not None  # both tables are total there
            assert expected == direct.coefficient(lam), (tag, lam)


def test_ut3_hook_table_vs_pipeline():
    direct = utn_hook_mult_series(3, 1, 1, 12)
    for lam in partitions_upto(12):
        expected = closed_multiplicity("UT3E_hook11", lam)
        if in_hook(lam, 1, 1):
            assert expected == direct.coefficient(lam), lam
        else:
            assert expected is None


def test_overlapping_rows_agree():
    # one-column-arm shapes sit in both UT3 tables
    for n in range(1, 15):
        assert closed_multiplicity("UT3E_hook11", (n, 1)) == \
            closed_multiplicity("UT3E_parts2", (n, 1))


def test_two_variable_reference_series_vs_pipeline():
    for name, n in (("M'_E_2vars", 1), ("M'_UT2_2vars", 2), ("M'_UT3_2vars", 3)):
        ref = reference_series(name, 12)
        direct = utn_mult_series(n, 2, 12)
        for lam in partitions_upto(12, max_parts=2):
            lam2 = lam + (0,) * (2 - len(lam))
            exps = (lam2[0] - lam2[1], lam2[1])
            assert ref.coefficient(exps) == direct.coefficient(lam), (name, lam)


def test_two_variable_reference_spot_values():
    ref = reference_series("M'_UT2_2vars", 8)
    assert ref.coefficient((3, 2)) == 11   # shape (5,2)
    assert ref.coefficient((1, 3)) == 8    # shape (4,3)
    ref3 = reference_series("M'_UT3_2vars", 8)
    assert ref3.coefficient((1, 3)) == 14  # shape (4,3)
    assert ref3.coefficient((0, 4)) == 14  # shape (4,4)


def test_hook_reference_series_vs_pipeline():
    assert reference_series("Mhat_E_11", 10) == \
        utn_hook_mult_series(1, 1, 1, 10).series
    assert reference_series("Mhat_UT2_23", 10) == \
        utn_hook_mult_series(2, 2, 3, 10).series
    assert reference_series("Mhat_UT3_11", 12) == \
        utn_hook_mult_series(3, 1, 1, 12).series


REFERENCE_PINS = {
    "M'_E_2vars": "bc905cc0b1a79b90d4a55a17aeae6e1d04d1c4722ed805f46f57c996a8e83df6",
    "M'_UT2_2vars": "a4bf35b95c9c189bb10aa829672d9b9571419856d7e9d33f9739717eaee4ba85",
    "M'_UT3_2vars": "941ef441d152083a22fb617815c67b7c1b14ab14898d68956d75baaf96398083",
    "Mhat_E_11": "75bf510cae04d9bc55f9eb0977660635ab721b2f8181ffa80f698dc7de380145",
    "G1_of_1_H23": "d1c7095e18bc8e78f0d79a80c0378d253c40748df7266269af5852f2ff273521",
    "G2sq_of_1_H23": "204a36c770a0b78f15689f383d8e69d9de5134aed6d510a3b2e9574634424b34",
    "G2sq_of_v1_H23": "2c2a91e83087bf4e55c28bdd49ca914edbe557b1556760f3ad67a8c4fd1a0ba8",
    "Mhat_UT2_23": "a4504f1b19083e9c58f9b1f685aadfb78867aabebe71d8464c43f710249cdba7",
    "Mhat_UT3_11": "fdd7663c897ad8eb62d11eae12a897fbb968de4ac828f702233f4388fc1c36f9",
}


@pytest.mark.parametrize("name", REFERENCE_PINS)
def test_reference_series_bytes_are_unchanged(name):
    # every display is expanded by expand_factor; its terms at bound 12 keep their JSON bytes
    text = json.dumps(reference_series(name, 12).to_obj())
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_PINS[name]


def test_hook_reference_spot_values():
    ref = reference_series("Mhat_UT3_11", 8)
    assert ref.coefficient((1, 2, 2)) == 6   # shape (3,1,1)
    assert ref.coefficient((1, 0, 0)) == 1   # shape (1)


def test_g_reference_series_vs_operator_route():
    bound = 10
    unit = HookExpansion.unit(2, 3, bound)
    seed = HookExpansion(2, 3, bound, {(1,): 1})
    assert reference_series("G1_of_1_H23", bound) == \
        encode_hook_mult(hook_grassmann_derived(unit)).series
    assert reference_series("G2sq_of_1_H23", bound) == \
        encode_hook_mult(hook_grassmann_derived_power(unit, 2)).series
    assert reference_series("G2sq_of_v1_H23", bound) == \
        encode_hook_mult(hook_grassmann_derived_power(seed, 2)).series


def test_ut2_hook_series_assembles_from_g_pieces():
    # the inclusion-exclusion assembly behind the n=2 series, checked on the
    # transcribed displays alone
    lhs = reference_series("Mhat_UT2_23", 9)
    rhs = (reference_series("G1_of_1_H23", 9).scale(2)
           - reference_series("G2sq_of_1_H23", 9)
           + reference_series("G2sq_of_v1_H23", 9))
    assert lhs == rhs
