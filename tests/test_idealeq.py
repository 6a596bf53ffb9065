"""Equivalence of null structures and transport of (co)kernels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from family import CH_PB1, CORE, CORE_NAMES, LD_PB2, ZERO_IDEALS
from twoexact import (
    InputError,
    check_witness,
    cokernel_presentations_by_arrow,
    find_equivalence_witness,
    fs_from_ideal,
    ideal_from_fs,
    ideals_equivalent,
    is_two_cokernel,
    is_two_kernel,
    kernel_presentations_by_arrow,
    maximal_two_ideal,
    transfer_cokernel,
    transfer_kernel,
)


@pytest.mark.parametrize("name", CORE_NAMES)
def test_every_ideal_is_equivalent_to_itself(name):
    t, n = CORE[name], ZERO_IDEALS[name]
    cert = ideals_equivalent(t, n, n)
    assert cert.ok, cert.counterexample


def test_zero_and_maximal_ideals_are_inequivalent():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    m = maximal_two_ideal(t)
    cert = ideals_equivalent(t, n, m)
    assert cert.status == "fail"
    assert cert.counterexample["clause"] == "condition-B"
    assert cert.counterexample["cells"]["null"] == "m05_1to1_11"


def test_a_cap_bounds_the_candidate_scan():
    # condition-B fails while the candidates are listed, before any witness
    # is tried; each null 1-cell scanned spends one instance first
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    m = maximal_two_ideal(t)
    cert = ideals_equivalent(t, n, m, 0)
    assert cert.status == "inconclusive"
    assert cert.detail == {"reason": "cap exceeded",
                           "context": "ideals_equivalent", "cap": 0}
    uncapped = ideals_equivalent(t, n, m, None)
    assert uncapped.counterexample["clause"] == "condition-B"


def test_chaotic_zero_and_maximal_ideals_are_equivalent():
    # with every parallel pair isomorphic, the nowhere-defined maps are
    # isomorphic to everything, so the two ideals genuinely coincide up to
    # comparison cells
    t, n = CH_PB1, ZERO_IDEALS["ch_pb1"]
    m = maximal_two_ideal(t)
    assert ideals_equivalent(t, n, m).ok


def test_witness_passes_its_own_check():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    w = find_equivalence_witness(t, n, n)
    assert w is not None
    assert check_witness(t, n, n, w).ok


def test_recovered_ideal_is_equivalent_to_the_original():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    fs, k, _, _, _ = fs_from_ideal(t, n)
    n2 = ideal_from_fs(t, fs, k)
    assert ideals_equivalent(t, n, n2).ok


@settings(max_examples=25)
@given(st.sampled_from(("ld_pb1", "ld_pb2", "ld_ct22", "ch_pb1")), st.data())
def test_transferred_kernels_verify_in_the_equivalent_ideal(name, data):
    t, n = CORE[name], ZERO_IDEALS[name]
    fs, k, _, _, _ = fs_from_ideal(t, n)
    n2 = ideal_from_fs(t, fs, k)
    w = find_equivalence_witness(t, n, n2)
    assert w is not None
    f = data.draw(st.sampled_from(t.one_ids))
    for pres in kernel_presentations_by_arrow(t, n)[f][:2]:
        moved = transfer_kernel(t, n, n2, w, pres)
        assert is_two_kernel(t, n2, moved).ok


@settings(max_examples=25)
@given(st.sampled_from(("ld_pb1", "ld_pb2", "ld_ct22", "ch_pb1")), st.data())
def test_transferred_cokernels_verify_in_the_equivalent_ideal(name, data):
    t, n = CORE[name], ZERO_IDEALS[name]
    fs, k, _, _, _ = fs_from_ideal(t, n)
    n2 = ideal_from_fs(t, fs, k)
    w = find_equivalence_witness(t, n, n2)
    assert w is not None
    f = data.draw(st.sampled_from(t.one_ids))
    for pres in cokernel_presentations_by_arrow(t, n)[f][:2]:
        moved = transfer_cokernel(t, n, n2, w, pres)
        assert is_two_cokernel(t, n2, moved).ok


def test_transfer_requires_a_total_witness():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    from twoexact import IdealEquivalenceWitness
    empty = IdealEquivalenceWitness(counterpart={}, counterpart_back={})
    pres = kernel_presentations_by_arrow(t, n)[t.id1["o1"]][0]
    with pytest.raises(InputError):
        transfer_kernel(t, n, n, empty, pres)


def test_equivalence_is_symmetric_on_the_fixture_family():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    fs, k, _, _, _ = fs_from_ideal(t, n)
    n2 = ideal_from_fs(t, fs, k)
    assert ideals_equivalent(t, n, n2).ok == ideals_equivalent(t, n2, n).ok
