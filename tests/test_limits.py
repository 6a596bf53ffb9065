"""Kernel/cokernel searches, factorizations through them, inserters."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from family import (
    CH_PB1,
    CORE,
    CORE_NAMES,
    LD_CT22,
    LD_PB2,
    NO_ZERO,
    NO_ZERO_IDEAL,
    UNDERLYING,
    ZERO_IDEALS,
)
from twoexact import (
    CapExceeded,
    InputError,
    KernelPresentation,
    biisoinserter,
    cokernel_factor,
    cokernel_presentations_by_arrow,
    cokernels_1cat,
    is_biisoinserter,
    is_equivalence,
    is_two_cokernel,
    is_two_kernel,
    kernel_factor,
    kernel_presentations_by_arrow,
    kernels_1cat,
    two_cokernels,
    two_kernels,
    zero_ideal_1cat,
)

LD_NAMES = ("ld_term", "ld_pb1", "ld_pb2", "ld_ct22", "ld_ps2")


def test_cyclic_tower_extension():
    t, n = LD_CT22, ZERO_IDEALS["ld_ct22"]
    kerns = two_kernels(t, n, "m10_2to1x1")
    assert [(p.apex, p.leg) for p in kerns] == [("o1", "m07_1to2x2")]
    cokerns = two_cokernels(t, n, "m07_1to2x2")
    assert [(p.coapex, p.leg) for p in cokerns] == [("o1", "m10_2to1x1")]


def test_partial_bijection_kernels():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    kerns = two_kernels(t, n, "m05_1to1_11")
    assert [(p.apex, p.leg) for p in kerns] == [("o0", "m01_0to1_e")]


@pytest.mark.parametrize("name", CORE_NAMES)
def test_every_arrow_has_verified_kernels_and_cokernels(name):
    t, n = CORE[name], ZERO_IDEALS[name]
    kerns = kernel_presentations_by_arrow(t, n)
    cokerns = cokernel_presentations_by_arrow(t, n)
    for f in t.one_ids:
        assert kerns[f], f
        assert cokerns[f], f
        for p in kerns[f]:
            assert is_two_kernel(t, n, p).ok
        for p in cokerns[f]:
            assert is_two_cokernel(t, n, p).ok


@pytest.mark.parametrize("name", LD_NAMES)
def test_locally_discrete_kernels_match_the_one_dimensional_oracle(name):
    t, n = CORE[name], ZERO_IDEALS[name]
    c = UNDERLYING[name]
    ideal = zero_ideal_1cat(c)
    kerns = kernel_presentations_by_arrow(t, n)
    cokerns = cokernel_presentations_by_arrow(t, n)
    for f in t.one_ids:
        two_dim = {(p.apex, p.leg) for p in kerns[f]}
        one_dim = set(kernels_1cat(c, ideal, f))
        assert two_dim == one_dim, f
        two_dim = {(p.coapex, p.leg) for p in cokerns[f]}
        one_dim = set(cokernels_1cat(c, ideal, f))
        assert two_dim == one_dim, f


def test_kernel_factor_recovers_the_cone():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    kerns = kernel_presentations_by_arrow(t, n)
    for f in t.one_ids:
        pres = kerns[f][0]
        # the kernel's own cone factors through itself by an identity-like
        # mediator paired with an invertible comparison
        u, gamma = kernel_factor(t, n, pres, pres.leg, pres.structure)
        assert t.cmp1(pres.leg, u) == pres.leg
        assert t.is_invertible2(gamma)


def test_cokernel_factor_recovers_the_cocone():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    cokerns = cokernel_presentations_by_arrow(t, n)
    for f in t.one_ids:
        pres = cokerns[f][0]
        u, gamma = cokernel_factor(t, n, pres, pres.leg, pres.structure)
        assert t.cmp1(u, pres.leg) == pres.leg
        assert t.is_invertible2(gamma)


def test_wrong_leg_is_not_a_kernel():
    t, n = LD_CT22, ZERO_IDEALS["ld_ct22"]
    good = two_kernels(t, n, "m10_2to1x1")[0]
    wrong = dataclasses.replace(good, apex="o0", leg="m02_0to2x0",
                                null_cell="m01_0to1x0",
                                structure=t.id2["m01_0to1x0"])
    cert = is_two_kernel(t, n, wrong)
    assert cert.status == "fail"
    assert cert.counterexample["clause"]


def test_no_zero_fixture_lacks_kernels():
    t, n = NO_ZERO, NO_ZERO_IDEAL
    assert two_kernels(t, n, t.id1["o1"]) == ()
    assert two_cokernels(t, n, t.id1["o1"]) == ()


def kernel_presentations_equivalent(t, p, q):
    """Whether an equivalence ``j`` of the apexes has ``q.leg∘j`` isomorphic
    to ``p.leg``; the structure cells are not compared."""
    assert p.arrow == q.arrow
    return any(t.iso2(t.cmp1(q.leg, j), p.leg) and is_equivalence(t, j).ok
               for j in t.hom1(p.apex, q.apex))


@pytest.mark.parametrize("name", CORE_NAMES)
def test_kernels_of_one_arrow_are_pairwise_equivalent(name):
    t, n = CORE[name], ZERO_IDEALS[name]
    kerns = kernel_presentations_by_arrow(t, n)
    for f in t.one_ids:
        first = kerns[f][0]
        for other in kerns[f][1:]:
            assert kernel_presentations_equivalent(t, first, other)


def test_biisoinserter_of_identity_pair_is_the_identity_leg():
    t = LD_PB2
    f = t.id1["o1"]
    parts = biisoinserter(t, f, f)
    assert any(p.apex == "o1" and p.leg == f for p in parts)
    for p in parts:
        assert is_biisoinserter(t, p).ok


def test_biisoinserter_agrees_with_kernels_against_the_chosen_null():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    for f in t.one_ids[:8]:
        a, b = t.src1[f], t.tgt1[f]
        null_f = next(m for m in sorted(n.null1)
                      if t.src1[m] == a and t.tgt1[m] == b)
        ins = {(p.apex, p.leg) for p in biisoinserter(t, f, null_f)}
        kerns = {(p.apex, p.leg) for p in two_kernels(t, n, f)}
        assert ins == kerns, f


def test_search_respects_caps():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    with pytest.raises(CapExceeded):
        two_kernels(t, n, "m05_1to1_11", cap=3)


def test_unknown_arrow_is_rejected():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    with pytest.raises(InputError):
        two_kernels(t, n, "m99_missing")


@settings(max_examples=30)
@given(st.sampled_from(CORE_NAMES), st.data())
def test_kernel_structure_cells_are_null_and_legs_compose_null(name, data):
    t, n = CORE[name], ZERO_IDEALS[name]
    f = data.draw(st.sampled_from(t.one_ids))
    for p in two_kernels(t, n, f):
        assert t.cmp1(f, p.leg) in n.null1 or p.null_cell in n.null1
        assert p.null_cell in n.null1
        assert t.src2[p.structure] == t.cmp1(p.arrow, p.leg)
        assert t.tgt2[p.structure] == p.null_cell
