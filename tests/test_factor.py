"""Factorization systems, squares, fibration property, relative orthogonality."""

import gc
import weakref

import pytest

from family import (CH_PB1, CT22, LD_CT22, LD_PB1, LD_PB2, ZERO_IDEALS,
                    epi_mono_fs, null_z_ideal, one_object_base)
from twoexact import (
    ArrowTwoCategory,
    FactorizationSystem,
    InputError,
    arrow_subcat,
    canonical_zero_ideal,
    check_weak_two_fibration,
    fill_ins,
    fs_from_ideal,
    is_proper_11,
    locally_discrete,
    mutate,
    natural_key,
    partial_bijections,
    squares_between,
    validate_fs,
    validate_rofs,
    validate_two_category,
)
from twoexact import cli, factor
from twoexact.formats import (document_to_witness_bundle, parse, serialize,
                              witness_bundle_to_document)

_T = LD_PB2
_N = ZERO_IDEALS["ld_pb2"]
_FS, _K, _C, _ETA, _EPS = fs_from_ideal(_T, _N)
_epi_mono_fs = epi_mono_fs


def test_constructed_factorization_system_validates():
    cert = validate_fs(_T, _FS)
    assert cert.ok, cert.counterexample


def test_constructed_classes_are_the_cokernel_and_kernel_legs():
    assert len(_FS.left_class) == 8
    assert len(_FS.right_class) == 8
    assert set(_FS.left_class) & set(_FS.right_class)  # identities sit in both


def test_identities_belong_to_both_classes():
    for o in _T.objects:
        assert _T.id1[o] in _FS.left_class
        assert _T.id1[o] in _FS.right_class


def test_epi_mono_system_on_the_cyclic_tower():
    t, fs = _epi_mono_fs()
    assert len(fs.left_class) == 7
    assert len(fs.right_class) == 7
    cert = validate_fs(t, fs)
    assert cert.ok, cert.counterexample
    assert is_proper_11(t, fs).ok


def test_epi_mono_system_is_a_weak_two_fibration_both_ways():
    t, fs = _epi_mono_fs()
    for direction in ("cod", "dom"):
        cert = check_weak_two_fibration(t, fs, direction)
        assert cert.ok, (direction, cert.counterexample)


def test_constructed_system_is_a_weak_two_fibration_both_ways():
    for direction in ("cod", "dom"):
        cert = check_weak_two_fibration(_T, _FS, direction)
        assert cert.ok, (direction, cert.counterexample)


def test_relative_orthogonality_of_the_constructed_classes():
    cert = validate_rofs(_T, _N, _FS.left_class, _FS.right_class)
    assert cert.ok, cert.counterexample


def test_arrow_subcategories_validate():
    for members in (_FS.left_class, _FS.right_class):
        arrow = arrow_subcat(_T, members)
        cert = validate_two_category(arrow.cat)
        assert cert.ok, cert.counterexample


def test_square_ids_decode_to_their_parts():
    arrow = arrow_subcat(_T, _FS.right_class)
    for sid, src_member, tgt_member in arrow.cat.one_cells:
        a, b, phi = arrow.square(sid)
        assert sid == ArrowTwoCategory.square_id(
            src_member, tgt_member, a, b, phi)


def test_square_and_pair_reject_undeclared_ids():
    # only declared ids are read; a well-formed but undeclared encoding is
    # not split apart
    arrow = arrow_subcat(_T, _FS.right_class)
    for one_id in ("x|y|a|b|p", "q"):
        with pytest.raises(InputError) as err:
            arrow.square(one_id)
        assert str(err.value) == f"not a square id: {one_id}"
    for two_id in ("x|y|a|b|p|x|y|c|d|q|s|t", "x|y"):
        with pytest.raises(InputError) as err:
            arrow.pair(two_id)
        assert str(err.value) == f"not a square 2-cell id: {two_id}"
    with pytest.raises(InputError):
        arrow.intern_square("x", "y", "a", "b", "p")
    with pytest.raises(InputError):
        arrow.intern_pair("x|y|a|b|p", "x|y|c|d|q", "s", "t")


def _assert_declared(cells, ids):
    declared = {i: i for i in cells}
    for i in ids:
        assert i is declared[i], i


@pytest.mark.parametrize("side", ["left", "right"])
def test_arrow_tables_share_the_declared_ids(side):
    arrow = arrow_subcat(_T, getattr(_FS, f"{side}_class"))
    cat = arrow.cat
    _assert_declared(cat.one_ids, [*cat.comp1.values(), *cat.id1.values()])
    _assert_declared(cat.two_ids, [*cat.vcomp.values(), *cat.id2.values(),
                                   *cat.lwhisker.values(),
                                   *cat.rwhisker.values()])
    assert all(arrow.square(sid) is arrow.squares[sid] for sid in cat.one_ids)
    assert all(arrow.pair(tid) is arrow.pairs[tid] for tid in cat.two_ids)


def test_constructed_functors_share_the_declared_ids():
    for func in (_K, _C):
        target = func.target
        _assert_declared(target.one_ids, func.one.values())
        _assert_declared(target.two_ids, [*func.two.values(),
                                          *func.compositor.values()])
    for nat in (_ETA, _EPS):
        cat = nat.source_functor.source
        _assert_declared(cat.one_ids, nat.component.values())
        _assert_declared(cat.two_ids, nat.structure.values())


def test_parsed_bundle_shares_the_declared_ids():
    # every parsed id that the rebuilt pseudo-arrow 2-categories declare is
    # the declared string object, in the keys and values of all four tables
    _, fs, k, c, eta, eps = document_to_witness_bundle(parse(serialize(
        witness_bundle_to_document(_T, _FS, _K, _C, _ETA, _EPS))))
    for func in (k, c):
        _assert_declared(func.source.objects, [*func.ob])
        _assert_declared(func.source.one_ids, [
            *func.one, *(x for pair in func.compositor for x in pair)])
        _assert_declared(func.source.two_ids, func.two)
        _assert_declared(func.target.objects, func.ob.values())
        _assert_declared(func.target.one_ids, func.one.values())
        _assert_declared(func.target.two_ids, [*func.two.values(),
                                               *func.compositor.values()])
    for nat in (eta, eps):
        cat = nat.source_functor.source
        _assert_declared(cat.objects, nat.component)
        _assert_declared(cat.one_ids, [*nat.component.values(),
                                       *nat.structure])
        _assert_declared(cat.two_ids, nat.structure.values())


def test_arrow_subcat_is_built_once_per_base_and_members():
    assert arrow_subcat(_T, _FS.right_class) is arrow_subcat(
        _T, _FS.right_class)
    # members are deduplicated, keeping their order, before the lookup
    assert arrow_subcat(_T, _FS.left_class * 2) is arrow_subcat(
        _T, _FS.left_class)


@pytest.mark.parametrize("command", ["ideal-from-fs", "check-fs"])
def test_bundle_commands_build_each_arrow_category_once(
        command, monkeypatch, tmp_path, capsys):
    built = []

    class Counted(factor.ArrowTwoCategory):
        def __init__(self, **fields):
            built.append(fields["members"])
            super().__init__(**fields)

    monkeypatch.setattr(factor, "ArrowTwoCategory", Counted)
    bundle = tmp_path / "pb2.bundle.json"
    bundle.write_text(serialize(witness_bundle_to_document(
        _T, _FS, _K, _C, _ETA, _EPS)), encoding="utf-8")
    assert cli.main([command, str(bundle)]) == 0
    # one for each class: parsing the bundle builds both, and the command
    # itself reuses them
    assert len(built) == 2


def test_arrow_categories_do_not_keep_their_base_alive():
    refs = []
    for _ in range(5):
        t = locally_discrete(partial_bijections(1))
        arrow_subcat(t, t.one_ids)
        refs.append(weakref.ref(t))
    del t
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_squares_between_finds_the_identity_square():
    e = _T.id1["o1"]
    found = squares_between(_T, e, e)
    assert any(a == _T.id1["o1"] and b == _T.id1["o1"]
               for a, b, _ in found)


def test_fill_ins_exist_for_orthogonal_squares():
    t, fs = _epi_mono_fs()
    # the projection (epi) against the embedding (mono): every square
    # admits at least one diagonal fill-in
    e, m = "m10_2to1x1", "m07_1to2x2"
    for a, b, phi in squares_between(t, e, m):
        assert fill_ins(t, e, m, a, b, phi)


def test_dropped_translate_mutant_fails_validation():
    mut = mutate((_T, _FS), "drop-M-translate", 0)
    cert = validate_fs(_T, mut)
    assert cert.status == "fail"
    assert cert.counterexample["clause"]


def test_factorization_system_requires_known_cells():
    broken = FactorizationSystem(
        _FS.left_class + ("m99_missing",), _FS.right_class,
        _FS.factorization)
    with pytest.raises(InputError):
        validate_fs(_T, broken)


def test_fibration_direction_is_checked():
    with pytest.raises(InputError):
        check_weak_two_fibration(_T, _FS, "sideways")


# ---------------------------------------------------------------------------
# one pinned certificate per failure clause
# ---------------------------------------------------------------------------

def _one_object_fs(left, right, z):
    """Classes drawn from ``i`` and ``z`` on a one-object base, with ``i``
    factored through itself and ``z`` as ``z = (left, right, θ)``."""
    return FactorizationSystem(left, right, {"i": ("i", "i", "ii"), "z": z})


def _edited(t, name, sides, drop=None, add=None):
    """The system ``fs_from_ideal`` builds on a CORE fixture, with one
    member dropped from or added to the classes named in ``sides``."""
    fs = fs_from_ideal(t, ZERO_IDEALS[name])[0]
    classes = {"left": fs.left_class, "right": fs.right_class}
    for side in sides:
        classes[side] = tuple(c for c in classes[side] if c != drop) + \
            ((add,) if add else ())
    return FactorizationSystem(classes["left"], classes["right"],
                               fs.factorization)


def _edited_rofs(t, name, sides, drop=None, add=None):
    fs = _edited(t, name, sides, drop, add)
    return validate_rofs(t, ZERO_IDEALS[name], fs.left_class, fs.right_class)


#: The one-object base and ideal on which validate_rofs reaches its
#: lifting clauses; the classes are verified legs there.
_ROFS_BASE = dict(v_izt="iz", lw_ii="t", rw_ii="t")


def _dom(cert_dict):
    return {**cert_dict, "detail": "checked on the formal dual; cited "
            "cells read in the dual orientation"}


def _fibration_fail(direction, clause, member, **cells):
    return {"check": "check_weak_two_fibration", "status": "fail",
            "counterexample": {"clause": clause, "cells": {
                "direction": direction, "member": member, **cells}}}


_COCARTESIAN_TWO_DIM = {
    "existence": dict(
        extension="i", target="z", square=["i", "i", "iz"],
        square2=["i", "i", "iz"], sigma="ii", tau="ii", rho="ii",
        fill_in=["i", "t", "ii"], fill_in2=["i", "t", "ii"]),
    "uniqueness": dict(
        extension="i", target="i", square=["z", "z", "iz"],
        square2=["z", "z", "iz"], sigma="iz", tau="iz", rho="iz",
        fill_in=["z", "iz", "iz"], fill_in2=["z", "t", "iz"]),
}
_ONE_DIM = dict(extension="i", target="z", z="i", h="i", phi="iz", g="i",
                xi="ii")
_ISOFIBRATION = dict(target="z", a="z", b="i", phi="t", b2="i", beta="ii")


def _failed(check, clause, **cells):
    return {"check": check, "status": "fail",
            "counterexample": {"clause": clause, "cells": cells}}


#: check:clause -> (the check run on a small input, its certificate)
CLAUSE_PINS = {
    "validate_fs:factorization-left-class": (
        lambda: validate_fs(one_object_base(), _one_object_fs(
            (), (), ("i", "i", "iz"))),
        _failed("validate_fs", "factorization-left-class", one_cell="i",
                left="i")),
    "validate_fs:factorization-right-class": (
        lambda: validate_fs(one_object_base(), _one_object_fs(
            ("i",), (), ("i", "i", "iz"))),
        _failed("validate_fs", "factorization-right-class", one_cell="i",
                right="i")),
    "validate_fs:factorization-boundary": (
        lambda: validate_fs(one_object_base(), _one_object_fs(
            ("i",), ("i",), ("i", "i", "iz"))),
        _failed("validate_fs", "factorization-boundary", one_cell="z",
                left="i", right="i", theta="iz")),
    "validate_fs:factorization-invertible": (
        lambda: validate_fs(one_object_base(v_tt="t"), _one_object_fs(
            ("i",), ("i", "z"), ("i", "z", "t"))),
        _failed("validate_fs", "factorization-invertible", one_cell="z",
                theta="t")),
    "validate_fs:class-equivalence-closure": (
        lambda: validate_fs(CH_PB1, _edited(CH_PB1, "ch_pb1", ("left",),
                                            drop="m1_0to1_e")),
        _failed("validate_fs", "class-equivalence-closure", side="left",
                member="m0_0to0_e", equivalence="m1_0to1_e",
                composite="m1_0to1_e", position="post")),
    "validate_fs:class-iso-stability": (
        # the left class is swept first
        lambda: validate_fs(CH_PB1, _edited(CH_PB1, "ch_pb1",
                                            ("left", "right"),
                                            drop="m4_1to1_11")),
        _failed("validate_fs", "class-iso-stability", side="left",
                member="m3_1to1_e", other="m4_1to1_11", iso="c3x4")),
    "validate_fs:orthogonality-fill-in": (
        lambda: validate_fs(one_object_base(), _one_object_fs(
            ("i", "z"), ("i", "z"), ("i", "z", "iz"))),
        _failed("validate_fs", "orthogonality-fill-in", left="z", right="z",
                u="i", v="i", phi="iz")),
    "validate_fs:orthogonality-two-dim-existence": (
        lambda: validate_fs(
            one_object_base(v_iziz="t", v_izt="iz", v_tiz="iz"),
            _one_object_fs(("i",), ("i", "z"), ("i", "z", "iz"))),
        _failed("validate_fs", "orthogonality-two-dim-existence", left="i",
                right="i", square=["z", "z", "iz"], square2=["z", "z", "iz"],
                sigma="iz", tau="iz", fill_in=["z", "t", "iz"],
                fill_in2=["z", "iz", "t"])),
    "validate_fs:orthogonality-two-dim-uniqueness": (
        lambda: validate_fs(one_object_base(v_izt="iz"), _one_object_fs(
            ("i",), ("i", "z"), ("i", "z", "iz"))),
        _failed("validate_fs", "orthogonality-two-dim-uniqueness", left="i",
                right="i", square=["z", "z", "iz"], square2=["z", "z", "iz"],
                sigma="iz", tau="iz", fill_in=["z", "t", "iz"],
                fill_in2=["z", "iz", "iz"], connectors=["iz", "t"])),
    "validate_rofs:right-class-not-kernel-leg": (
        lambda: _edited_rofs(LD_PB1, "ld_pb1", ("right",), add="m2_1to0_e"),
        _failed("validate_rofs", "right-class-not-kernel-leg",
                member="m2_1to0_e")),
    "validate_rofs:left-class-not-cokernel-leg": (
        lambda: _edited_rofs(LD_PB1, "ld_pb1", ("left",), add="m1_0to1_e"),
        _failed("validate_rofs", "left-class-not-cokernel-leg",
                member="m1_0to1_e")),
    "validate_rofs:factorization": (
        lambda: _edited_rofs(LD_PB1, "ld_pb1", ("left",), drop="m0_0to0_e"),
        _failed("validate_rofs", "factorization", one_cell="m0_0to0_e")),
    "validate_rofs:right-precomposition-equivalence": (
        lambda: _edited_rofs(CH_PB1, "ch_pb1", ("right",), drop="m0_0to0_e"),
        _failed("validate_rofs", "right-precomposition-equivalence",
                member="m2_1to0_e", equivalence="m1_0to1_e",
                composite="m0_0to0_e")),
    "validate_rofs:left-postcomposition-equivalence": (
        lambda: _edited_rofs(CH_PB1, "ch_pb1", ("left",), drop="m0_0to0_e"),
        _failed("validate_rofs", "left-postcomposition-equivalence",
                member="m1_0to1_e", equivalence="m2_1to0_e",
                composite="m0_0to0_e")),
    "validate_rofs:left-iso-stability": (
        # the left class is swept first
        lambda: _edited_rofs(CH_PB1, "ch_pb1", ("left", "right"),
                             drop="m4_1to1_11"),
        _failed("validate_rofs", "left-iso-stability", member="m3_1to1_e",
                other="m4_1to1_11", iso="c3x4")),
    "validate_rofs:right-iso-stability": (
        lambda: _edited_rofs(CH_PB1, "ch_pb1", ("right",), drop="m4_1to1_11"),
        _failed("validate_rofs", "right-iso-stability", member="m3_1to1_e",
                other="m4_1to1_11", iso="c3x4")),
    "validate_rofs:fill-in": (
        lambda: validate_rofs(
            one_object_base(**_ROFS_BASE),
            null_z_ideal(("iz",), {"ii": "t", "iz": "iz", "zi": "t",
                                   "zz": "iz"}),
            ("i",), ("z", "i")),
        _failed("validate_rofs", "fill-in", left="i", right="z", u="i",
                v="z", phi="t")),
    "validate_rofs:two-dim-existence": (
        lambda: validate_rofs(
            one_object_base(**_ROFS_BASE),
            null_z_ideal(("iz",), {"ii": "t", "iz": "t", "zi": "iz",
                                   "zz": "iz"}),
            ("z", "i"), ("i",)),
        _failed("validate_rofs", "two-dim-existence", left="z", right="i",
                square=["z", "i", "t"], square2=["z", "i", "iz"], sigma="t",
                tau="ii", fill_in=["i", "iz", "ii"],
                fill_in2=["i", "t", "ii"])),
    "validate_rofs:two-dim-uniqueness": (
        lambda: validate_rofs(
            one_object_base(**_ROFS_BASE),
            null_z_ideal(("iz",), {"ii": "t", "iz": "t", "zi": "t",
                                   "zz": "iz"}),
            ("i",), ("z", "i")),
        _failed("validate_rofs", "two-dim-uniqueness", left="i", right="z",
                square=["z", "z", "iz"], square2=["z", "z", "iz"],
                sigma="iz", tau="iz", fill_in=["z", "t", "iz"],
                fill_in2=["z", "iz", "iz"])),
    "cod:cocartesian-one-dim": (
        lambda: check_weak_two_fibration(one_object_base(), _one_object_fs(
            (), ("z",), ("z", "z", "iz")), "cod"),
        _fibration_fail("cod", "cocartesian-one-dim", "z", **_ONE_DIM)),
    "dom:cocartesian-one-dim": (
        lambda: check_weak_two_fibration(one_object_base(), _one_object_fs(
            ("z",), (), ("z", "z", "iz")), "dom"),
        _dom(_fibration_fail("dom", "cocartesian-one-dim", "z", **_ONE_DIM))),
    "cod:cocartesian-two-dim-existence": (
        lambda: check_weak_two_fibration(
            one_object_base(v_izt="iz"),
            _one_object_fs((), ("z",), ("i", "z", "t")), "cod"),
        _fibration_fail("cod", "cocartesian-two-dim-existence", "z",
                        **_COCARTESIAN_TWO_DIM["existence"])),
    "dom:cocartesian-two-dim-existence": (
        lambda: check_weak_two_fibration(
            one_object_base(v_izt="iz"),
            _one_object_fs(("z",), (), ("z", "i", "t")), "dom"),
        _dom(_fibration_fail("dom", "cocartesian-two-dim-existence", "z",
                             **_COCARTESIAN_TWO_DIM["existence"]))),
    "cod:cocartesian-two-dim-uniqueness": (
        lambda: check_weak_two_fibration(
            one_object_base(v_tiz="iz"),
            _one_object_fs((), ("i",), ("i", "i", "iz")), "cod"),
        _fibration_fail("cod", "cocartesian-two-dim-uniqueness", "i",
                        **_COCARTESIAN_TWO_DIM["uniqueness"])),
    "dom:cocartesian-two-dim-uniqueness": (
        lambda: check_weak_two_fibration(
            one_object_base(v_tiz="iz"),
            _one_object_fs(("i",), (), ("i", "i", "iz")), "dom"),
        _dom(_fibration_fail("dom", "cocartesian-two-dim-uniqueness", "i",
                             **_COCARTESIAN_TWO_DIM["uniqueness"]))),
    "cod:local-isofibration": (
        lambda: check_weak_two_fibration(
            one_object_base(v_iziz="t", rw_t="iz"),
            _one_object_fs((), ("z",), ("i", "z", "t")), "cod"),
        _fibration_fail("cod", "local-isofibration", "z", **_ISOFIBRATION)),
    "dom:local-isofibration": (
        lambda: check_weak_two_fibration(
            one_object_base(v_iziz="t", lw_t="iz"),
            _one_object_fs(("z",), (), ("z", "i", "t")), "dom"),
        _dom(_fibration_fail("dom", "local-isofibration", "z",
                             **_ISOFIBRATION))),
    "is_proper_11:left-not-cofaithful": (
        lambda: is_proper_11(one_object_base(rw_t="iz"), _one_object_fs(
            ("z",), (), ("i", "i", "iz"))),
        _failed("is_proper_11", "left-not-cofaithful", member="z", inner={
            "one_cell": "z", "first": "iz", "second": "t",
            "whiskered": "iz"})),
    "is_proper_11:right-not-faithful": (
        lambda: is_proper_11(one_object_base(lw_t="iz"), _one_object_fs(
            (), ("z",), ("i", "i", "iz"))),
        _failed("is_proper_11", "right-not-faithful", member="z", inner={
            "one_cell": "z", "first": "iz", "second": "t",
            "whiskered": "iz"})),
}


@pytest.mark.parametrize("clause", CLAUSE_PINS)
def test_failure_clause_certificates_are_pinned(clause):
    run, expected = CLAUSE_PINS[clause]
    assert run().to_json_dict() == expected
