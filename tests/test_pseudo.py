"""Pseudofunctors, pseudonatural transformations, biequivalence data."""

import pytest

from family import CH_PB1, LD_PB1, LD_PB2, ZERO_IDEALS
from twoexact import (
    InputError,
    arrow_subcat,
    compose_pseudofunctors,
    fs_from_ideal,
    identity_pseudofunctor,
    is_biequivalence_over_base,
    mutate,
    pseudofunctors_equal,
    validate_pseudofunctor,
    validate_pseudonatural,
)

_T = LD_PB2
_N = ZERO_IDEALS["ld_pb2"]
_FS, _K, _C, _ETA, _EPS = fs_from_ideal(_T, _N)
_E_ARROW = arrow_subcat(_T, _FS.left_class)
_M_ARROW = arrow_subcat(_T, _FS.right_class)


@pytest.mark.parametrize("t", [LD_PB1, LD_PB2, CH_PB1],
                         ids=["ld_pb1", "ld_pb2", "ch_pb1"])
def test_identity_pseudofunctor_validates(t):
    assert validate_pseudofunctor(identity_pseudofunctor(t)).ok


def test_kernel_and_cokernel_functors_validate():
    assert validate_pseudofunctor(_K).ok
    assert validate_pseudofunctor(_C).ok


def test_unit_and_counit_validate():
    assert validate_pseudonatural(_ETA).ok
    assert validate_pseudonatural(_EPS).ok


def test_unit_endpoints():
    assert _ETA.source_functor == identity_pseudofunctor(_E_ARROW.cat)
    assert _ETA.target_functor == compose_pseudofunctors(_C, _K)
    assert _EPS.source_functor == compose_pseudofunctors(_K, _C)
    assert _EPS.target_functor == identity_pseudofunctor(_M_ARROW.cat)


def test_composition_with_identity_is_neutral():
    idf = identity_pseudofunctor(_E_ARROW.cat)
    assert pseudofunctors_equal(compose_pseudofunctors(_K, idf), _K)
    idg = identity_pseudofunctor(_M_ARROW.cat)
    assert pseudofunctors_equal(compose_pseudofunctors(idg, _K), _K)


def test_biequivalence_over_base_positive():
    cert = is_biequivalence_over_base(
        _E_ARROW, _M_ARROW,
        _K, _C, _ETA, _EPS)
    assert cert.ok, cert.counterexample


def test_biequivalence_rejects_mismatched_bases():
    other = arrow_subcat(LD_PB1, LD_PB1.one_ids)
    with pytest.raises(InputError):
        is_biequivalence_over_base(
            other, _M_ARROW, _K, _C, _ETA, _EPS)


def test_broken_compositor_fails_with_cited_site():
    mut = mutate(_K, "break-compositor", 0)
    cert = validate_pseudofunctor(mut)
    assert cert.status == "fail"
    assert cert.counterexample["cells"]


def test_swapped_structure_cell_fails():
    mut = mutate(_ETA, "swap-structure-cell", 0)
    cert = validate_pseudonatural(mut)
    assert cert.status == "fail"


def test_removed_unit_inverse_fails():
    mut = mutate(_ETA, "remove-eta-inverse", 0)
    cert = validate_pseudonatural(mut)
    assert cert.status == "fail"
