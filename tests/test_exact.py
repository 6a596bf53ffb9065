"""End-to-end exactness: reports, the equivalence of presentations, pieces."""

import dataclasses
import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from family import (
    CH_PB1,
    CORE,
    CORE_NAMES,
    LD_CT22,
    LD_PB1,
    LD_PS2,
    NO_ZERO,
    NO_ZERO_IDEAL,
    THICK,
    UNDERLYING,
    ZERO_IDEALS,
)
from twoexact import (
    Budget,
    InputError,
    arrow_subcat,
    check_grandis_i,
    check_grandis_ii,
    check_puppe,
    fs_from_ideal,
    grandis_exact_1cat,
    ideal_from_fs,
    ideals_equivalent,
    is_biequivalence_over_base,
    is_equivalence,
    locally_discrete,
    partial_bijections,
    puppe_exact_1cat,
    three_pieces,
    validate_fs,
    validate_pseudofunctor,
    validate_pseudonatural,
    validate_two_ideal,
    zero_ideal_1cat,
)
from twoexact import exact, limits
from twoexact.cli import main
from twoexact.formats import (
    document_to_two_category,
    document_to_two_ideal,
    document_to_witness_bundle,
    fs_to_document,
    parse,
    serialize,
    two_ideal_to_document,
    witness_bundle_to_document,
)
from twoexact.core import _law_verdict
from twoexact.ideal import canonical_zero_ideal, maximal_two_ideal

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

LD_NAMES = ("ld_term", "ld_pb1", "ld_pb2", "ld_ct22", "ld_ps2")

EXACT_NAMES = ("ld_term", "ld_pb1", "ld_pb2", "ld_ct22", "ch_pb1")


@pytest.mark.parametrize("name", CORE_NAMES)
def test_grandis_report_structure(name):
    rep = check_grandis_ii(CORE[name], ZERO_IDEALS[name])
    names = [nm for nm, _ in rep.checks]
    assert names == [
        "all-kernels-exist", "all-cokernels-exist", "closedness",
        "kernel-of-its-cokernel", "cokernel-of-its-kernel", "factorization"]
    assert rep.status in ("pass", "fail")


@pytest.mark.parametrize("name", EXACT_NAMES)
def test_exact_fixtures_pass_grandis(name):
    rep = check_grandis_ii(CORE[name], ZERO_IDEALS[name])
    assert rep.ok, [(nm, c.counterexample)
                    for nm, c in rep.checks if not c.ok]


def test_pointed_sets_fail_only_the_factorization_bullet():
    rep = check_grandis_ii(LD_PS2, ZERO_IDEALS["ld_ps2"])
    assert rep.status == "fail"
    verdicts = {nm: c.status for nm, c in rep.checks}
    assert verdicts == {
        "all-kernels-exist": "pass",
        "all-cokernels-exist": "pass",
        "closedness": "pass",
        "kernel-of-its-cokernel": "pass",
        "cokernel-of-its-kernel": "pass",
        "factorization": "fail",
    }
    cert = rep.certificate("factorization")
    assert cert.counterexample["cells"]["one_cell"] == "m13_2to1_11"


@pytest.mark.parametrize("name", LD_NAMES)
def test_two_dimensional_verdict_matches_the_one_dimensional_oracle(name):
    t, n = CORE[name], ZERO_IDEALS[name]
    c = UNDERLYING[name]
    oracle = grandis_exact_1cat(c, zero_ideal_1cat(c))
    rep = check_grandis_ii(t, n)
    assert oracle.ok == rep.ok


@pytest.mark.parametrize("name", THICK)
def test_puppe_on_thickened_inputs_matches_the_oracle(name):
    # biequivalent to the locally discrete enrichment, so the verdict is the
    # 1-categorical one; check_puppe decides later kernel candidates by
    # equivalence, and its report is the per-candidate one
    t, c = THICK[name]
    rep = check_puppe(t)
    assert rep.ok == puppe_exact_1cat(c).ok
    assert rep.checks[1:] \
        == check_grandis_ii(t, canonical_zero_ideal(t)).checks


def test_a_thickened_round_trip_passes_check_grandis_i():
    # the unit and counit built here have structure cells that are not
    # identities, so the two sides of each one are told apart
    t, _ = THICK["th2_pb1"]
    assert check_grandis_i(t, *fs_from_ideal(t, canonical_zero_ideal(t))).ok


@pytest.mark.parametrize("name", CORE_NAMES)
def test_puppe_agrees_with_grandis_at_the_canonical_ideal(name):
    rep = check_puppe(CORE[name])
    grandis = check_grandis_ii(CORE[name], ZERO_IDEALS[name])
    assert rep.ok == grandis.ok
    assert rep.checks[1:] == grandis.checks


def test_puppe_weak_mode_passes_on_the_chaotic_fixture():
    assert check_puppe(CH_PB1, weak=True).ok
    assert check_puppe(CH_PB1, weak=False).ok


def test_puppe_requires_a_bizero():
    rep = check_puppe(NO_ZERO)
    assert rep.status == "fail"
    assert rep.checks[0][0] == "two-pointed"


def test_puppe_decides_the_law_verdict_before_the_canonical_ideal(
        monkeypatch):
    # the sweep's gate reads the verdict anyway; deciding it before the
    # ideal's tables exist keeps its transient off their peak
    t = locally_discrete(partial_bijections(2))
    decided = []

    def spy(base, zero):
        decided.append(_law_verdict.table in vars(base))
        return canonical_zero_ideal(base, zero)

    monkeypatch.setattr(exact, "canonical_zero_ideal", spy)
    assert check_puppe(t).ok
    assert decided == [True]


def test_missing_kernels_are_reported_per_arrow():
    rep = check_grandis_ii(NO_ZERO, NO_ZERO_IDEAL)
    assert rep.status == "fail"
    cert = rep.certificate("all-kernels-exist")
    assert cert.status == "fail"
    assert cert.counterexample["clause"] == "missing-kernel"


def _pb2_ideal():
    return document_to_two_ideal(
        parse((FIXTURE_DIR / "pb2.ideal.json").read_text()))


@pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
def test_grandis_report_sweeps_each_side_once(weak, monkeypatch):
    t, n = _pb2_ideal()
    calls = []
    kernels = limits._kernels

    def counted(*args, **kwargs):
        calls.append(args[2])
        return kernels(*args, **kwargs)

    monkeypatch.setattr(limits, "_kernels", counted)
    check_grandis_ii(t, n, weak=weak)
    assert len(calls) == 2 * len(t.one_ids)


def test_closedness_spends_from_the_report_budget():
    # a cap that the two sweeps use up exactly leaves nothing for
    # closedness, which therefore stops on the report's own budget
    t, n = _pb2_ideal()
    sweeps = Budget(None, "sweeps")
    limits.kernel_presentations_by_arrow(t, n, sweeps)
    limits.cokernel_presentations_by_arrow(t, n, sweeps)
    rep = check_grandis_ii(t, n, cap=sweeps.spent)
    assert rep.certificate("all-kernels-exist").ok
    assert rep.certificate("all-cokernels-exist").ok
    cert = rep.certificate("closedness")
    assert cert.status == "inconclusive"
    assert cert.detail["context"] == "check_grandis_ii"


@pytest.mark.parametrize("name", EXACT_NAMES)
def test_factorization_data_from_the_ideal_passes_every_check(name):
    t, n = CORE[name], ZERO_IDEALS[name]
    fs, k, c, eta, epsilon = fs_from_ideal(t, n)
    assert validate_fs(t, fs).ok
    assert validate_pseudofunctor(k).ok
    assert validate_pseudofunctor(c).ok
    assert validate_pseudonatural(eta).ok
    assert validate_pseudonatural(epsilon).ok
    cert = check_grandis_i(t, fs, k, c, eta, epsilon)
    assert cert.ok, cert.counterexample


@pytest.mark.parametrize("name", EXACT_NAMES)
def test_ideal_recovered_from_the_factorization_system(name):
    t, n = CORE[name], ZERO_IDEALS[name]
    fs, k, _, _, _ = fs_from_ideal(t, n)
    n2 = ideal_from_fs(t, fs, k)
    assert validate_two_ideal(t, n2).ok
    assert ideals_equivalent(t, n, n2).ok


@pytest.mark.parametrize("name", EXACT_NAMES)
def test_biequivalence_over_the_base(name):
    t, n = CORE[name], ZERO_IDEALS[name]
    fs, k, c, eta, epsilon = fs_from_ideal(t, n)
    e_arrow = arrow_subcat(t, fs.left_class)
    m_arrow = arrow_subcat(t, fs.right_class)
    cert = is_biequivalence_over_base(
        e_arrow, m_arrow,
        k, c, eta, epsilon)
    assert cert.ok, cert.counterexample


def _bundle(t):
    return witness_bundle_to_document(t, *fs_from_ideal(
        t, canonical_zero_ideal(t)))


def _fs_only(t):
    return fs_to_document(t, fs_from_ideal(t, canonical_zero_ideal(t))[0])


def _zero_ideal(t):
    return two_ideal_to_document(t, canonical_zero_ideal(t))


@pytest.mark.parametrize("base, build, golden", [
    ("pb1.2cat.json", _bundle, "pb1.bundle.json"),
    ("ct22.2cat.json", _fs_only, "ct22.fs.json"),
    ("pb2.2cat.json", _zero_ideal, "pb2.ideal.json"),
], ids=["pb1-bundle", "ct22-fs", "pb2-ideal"])
def test_constructions_reproduce_the_shipped_fixtures(base, build, golden):
    # The shipped constructive fixtures are golden outputs: rebuilding them
    # from their base 2-category must give the same bytes.
    t = document_to_two_category(parse((FIXTURE_DIR / base).read_text()))
    assert serialize(build(t)) == (FIXTURE_DIR / golden).read_text()


def test_fs_from_ideal_refuses_when_kernels_are_missing():
    with pytest.raises(InputError):
        fs_from_ideal(NO_ZERO, NO_ZERO_IDEAL)


@settings(max_examples=40)
@given(st.sampled_from(EXACT_NAMES), st.data())
def test_three_pieces_middle_is_an_equivalence(name, data):
    t, n = CORE[name], ZERO_IDEALS[name]
    f = data.draw(st.sampled_from(t.one_ids))
    pieces = three_pieces(t, n, f)
    assert is_equivalence(t, pieces.middle).ok
    assert pieces.arrow == f


def test_three_pieces_constituents_cohere():
    t, n = LD_CT22, ZERO_IDEALS["ld_ct22"]
    pieces = three_pieces(t, n, "m10_2to1x1")
    # the projection splits as its cokernel leg, an equivalence in the
    # middle, and its kernel-leg-of-the-cokernel on the right
    assert t.src1[pieces.middle] == t.tgt1[pieces.first.leg]
    assert t.tgt1[pieces.middle] == t.src1[pieces.last.leg]
    assert t.is_invertible2(pieces.composite_iso)
    assert t.is_invertible2(pieces.connecting)



def test_three_pieces_refuses_each_route_under_its_own_name():
    # the maximal ideal of ch_pb1 with only identity null 2-cells: the
    # route through the cokernel's universal property refuses on one arrow,
    # the dual route through the kernel's on another
    n = dataclasses.replace(maximal_two_ideal(CH_PB1),
                            null_two_cells=tuple(CH_PB1.id2.values()))
    with pytest.raises(InputError, match=(
            "^the cokernel m2_1to0_e of the kernel of m2_1to0_e does not "
            "coreflect the comparison to a null morphism; the ideal is not "
            "closed enough for the middle piece$")):
        three_pieces(CH_PB1, n, "m2_1to0_e")
    with pytest.raises(InputError, match=(
            "^the kernel m1_0to1_e of the cokernel of m1_0to1_e does not "
            "reflect the comparison to a null morphism; the ideal is not "
            "closed enough for the dual middle piece$")):
        three_pieces(CH_PB1, n, "m1_0to1_e")

def test_grandis_i_stops_at_the_first_inconclusive_subcheck(monkeypatch):
    from twoexact import exact
    bundle = document_to_witness_bundle(
        parse((FIXTURE_DIR / "pb1.bundle.json").read_text()))
    called = []

    def recording(name):
        real = getattr(exact, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("validate_fs", "is_proper_11",
                 "is_biequivalence_over_base"):
        monkeypatch.setattr(exact, name, recording(name))
    cert = exact.check_grandis_i(*bundle, cap=1)
    assert cert.status == "inconclusive"
    assert cert.detail["clause"] == "factorization-system"
    assert called == ["validate_fs"]


def test_grandis_i_reads_both_fibrations_off_the_factorization_system(
        monkeypatch):
    # a valid system carries both fibration structures, so neither
    # direction is searched; the pass still names all five sub-checks
    from twoexact import factor

    def searched(*args, **kwargs):
        raise AssertionError("a fibration check ran")

    monkeypatch.setattr(factor, "check_weak_two_fibration", searched)
    monkeypatch.setattr(factor, "_cod_fibration", searched)
    bundle = document_to_witness_bundle(
        parse((FIXTURE_DIR / "pb1.bundle.json").read_text()))
    cert = check_grandis_i(*bundle)
    assert cert.witness == {"checks": {
        "factorization-system": "pass", "properness": "pass",
        "fibration-cod": "pass", "fibration-dom": "pass",
        "biequivalence": "pass"}}


#: `check-exact` in each mode on shipped fixtures: the exit code and the
#: sha256 of the stdout lines after the header (which names the input path).
#: These pin each report's first failing or chosen cells.
CHECK_EXACT_SHA256 = {
    ("pb1", "puppe"):
        (0, "1e1da21f395a11f4c1544c83eabf3d598ab70dae7531b36ac3b1b5b40e5b74dc"),
    ("pb1", "weak-puppe"):
        (0, "05d6b7b0de31f50e438240b75a4cae5da0679308db08920572ffba2ffb9fa6c2"),
    ("pb1", "grandis"):
        (0, "6aa335d4213d94ac4bdd8a4c4498f710b6713072e8e044d6f7e032b6a71121e5"),
    ("pb1", "weak-grandis"):
        (0, "ca89b82723285d4bbd76cfd02ef746ca3c47f4316102c1ae32dd4783adc450ca"),
    ("pb2", "puppe"):
        (0, "a7c63d66458b707d8253331436ed4aaef3ac787db6ad1afb56b4cf543713e7c2"),
    ("pb2", "weak-puppe"):
        (0, "e49f795c6e5927aa499902082e20bca592e6838fa0c54780d8d2f0b9797e4a25"),
    ("pb2", "grandis"):
        (0, "401f9c517de2b41f4ebacf6f9f64f3ae623c1da7aa0ed7e674c03743b45acae9"),
    ("pb2", "weak-grandis"):
        (0, "a03c5f6ca741e878f117ed2f858dad8e18954ab464ad67df41940544b6234b47"),
    ("ct22", "puppe"):
        (0, "8a3754bba0743d507d753b412dd5e09deebad4a792fbd2c5ece7356dfa3ccb1d"),
    ("ct22", "weak-puppe"):
        (0, "28704a54f20dfac382440b3b8c1311536436a8ba796beb520e397ad8382ebc4a"),
    ("ct22", "grandis"):
        (0, "d1eb6830d9572829840d7f17f99cf4d271fb96d9450758ad5cbef2cf4f3cdfb9"),
    ("ct22", "weak-grandis"):
        (0, "4090268d8a9411b5ce2e40cf0931cfafe5ed458c055dfe114c61a8ebc097b407"),
    ("ps2", "puppe"):
        (1, "96e9e24c198d2d2b2305b52d4e44180bdba4109304237a34ba002e5791bc04e0"),
    ("ps2", "weak-puppe"):
        (1, "bea26b99799d354a28c454499478e391a6a0d3849cc6e909bd277bcf24358db8"),
    ("ps2", "grandis"):
        (1, "7fbd8aa06c0fbf8c1fac06bc2963bb98009dbcbc7050f376ad6b70c0740b4351"),
    ("ps2", "weak-grandis"):
        (1, "94bbb1f7f81d96eb23210e4591552c1eec442a174d8a3aa290de122357bc8119"),
    ("ch_pb1", "puppe"):
        (0, "3efa019888c3d429c123128a853ba5a2988c925210466f706a2d6e977f28f685"),
    ("ch_pb1", "weak-puppe"):
        (0, "3b29f01decbda026ea7f0d3bd574aff9d9eb0ffc951ca53751556aa144b79948"),
    ("ch_pb1", "grandis"):
        (0, "94234dcdc4b12ace78d150a402db85a174b1e105e399f25d87e00d28f7381f0f"),
    ("ch_pb1", "weak-grandis"):
        (0, "059c230571c7019e38c5f4a7509265b334dcfc8fa7d6fba7fba60b8582ab7354"),
}


@pytest.mark.parametrize("fixture, mode", CHECK_EXACT_SHA256,
                         ids=[" ".join(k) for k in CHECK_EXACT_SHA256])
def test_check_exact_output_is_pinned(capsys, fixture, mode):
    code = main(["check-exact", "--mode", mode,
                 str(FIXTURE_DIR / f"{fixture}.2cat.json")])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.split("\n", 1)[1].encode()).hexdigest()) \
        == CHECK_EXACT_SHA256[(fixture, mode)]
