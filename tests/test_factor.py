"""Factorization systems, squares, fibration property, relative orthogonality."""

import gc
import weakref

import pytest

from family import CT22, LD_CT22, LD_PB1, LD_PB2, ZERO_IDEALS, epi_mono_fs
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
