"""Generators and mutation operators: validity, determinism, targeting."""

import dataclasses
import hashlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from family import (BANDED, CH_PB1, CORE, CORE_NAMES, LD_PB2, LD_PB3,
                    LD_TERM, PB1, ZERO_IDEALS, parallel_pairs)
from twoexact import (
    MUTATION_OPERATORS,
    InputError,
    banded,
    canonical_zero_ideal,
    fs_from_ideal,
    identity_pseudofunctor,
    mutate,
    validate_fs,
    validate_pseudofunctor,
    validate_pseudonatural,
    validate_two_category,
    validate_two_ideal,
)
from twoexact.cli import main

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

_T = LD_PB2
_N = ZERO_IDEALS["ld_pb2"]
_FS, _K, _C, _ETA, _EPS = fs_from_ideal(_T, _N)


def _target(operator: str, seed: int):
    """The entity a mutation operator acts on, and the validator it must
    defeat — returning (mutant, failing certificate)."""
    if operator == "retarget-vcomp":
        mut = mutate(_T, operator, seed)
        return mut, validate_two_category(mut)
    if operator == "drop-null-2cell":
        mut = mutate((_T, _N), operator, seed)
        return mut, validate_two_ideal(_T, mut)
    if operator == "drop-M-translate":
        mut = mutate((_T, _FS), operator, seed)
        return mut, validate_fs(_T, mut)
    if operator == "break-compositor":
        mut = mutate(_K, operator, seed)
        return mut, validate_pseudofunctor(mut)
    if operator == "swap-structure-cell":
        mut = mutate(_ETA, operator, seed)
        return mut, validate_pseudonatural(mut)
    if operator == "remove-eta-inverse":
        mut = mutate(_ETA, operator, seed)
        return mut, validate_pseudonatural(mut)
    raise AssertionError(operator)


def test_operator_inventory():
    assert MUTATION_OPERATORS == (
        "retarget-vcomp",
        "drop-null-2cell",
        "break-compositor",
        "drop-M-translate",
        "swap-structure-cell",
        "remove-eta-inverse",
    )


@pytest.mark.parametrize("operator", MUTATION_OPERATORS)
def test_each_operator_defeats_its_validator(operator):
    mut, cert = _target(operator, 0)
    assert cert.status == "fail"
    assert cert.counterexample["clause"]
    assert cert.counterexample["cells"]


@given(st.sampled_from(MUTATION_OPERATORS), st.integers(0, 9))
def test_mutation_is_deterministic(operator, seed):
    first, _ = _target(operator, seed)
    second, _ = _target(operator, seed)
    assert first == second


@given(st.sampled_from(MUTATION_OPERATORS), st.integers(0, 9))
def test_mutants_fail_at_every_seed(operator, seed):
    _, cert = _target(operator, seed)
    assert cert.status == "fail"


def test_unfit_operator_entity_pairs_are_rejected():
    with pytest.raises(InputError):
        mutate(_T, "break-compositor", 0)
    with pytest.raises(InputError):
        mutate(_K, "retarget-vcomp", 0)


def test_unvalidated_inputs_still_round_through_generators():
    # generator outputs double-checked through both validators
    for name in CORE_NAMES:
        assert validate_two_category(CORE[name]).ok


def test_partial_bijections_scales_to_three_elements():
    assert len(LD_PB3.objects) == 4
    assert len(LD_PB3.one_cells) == 90
    assert validate_two_category(LD_PB3).ok


def test_chaotic_enrichment_is_thin():
    t = CH_PB1
    for f, g in parallel_pairs(t):
        assert len(t.hom2(f, g)) == 1


@pytest.mark.parametrize("name", BANDED)
def test_banded_members_are_lawful_groupoid_enriched(name):
    t = BANDED[name]
    k = int(name[2])
    assert validate_two_category(t).ok
    assert not t.locally_thin
    for f, g in parallel_pairs(t):
        assert len(t.hom2(f, g)) == (k if f == g else 0)
    assert all(t.is_invertible2(a) for a in t.two_ids)


def test_banded_labels_add_and_whiskers_keep_them():
    t = banded(PB1, 3)
    f = "m4_1to1_11"
    a, b, c = t.hom2(f, f)
    assert a == t.id2[f]
    assert t.vc(c, c) == b and t.vc(b, c) == a
    h = "m2_1to0_e"
    assert [t.lw(h, x) for x in (a, b, c)] == list(t.hom2(t.cmp1(h, f),
                                                          t.cmp1(h, f)))
    with pytest.raises(InputError):
        banded(PB1, 0)


# ---------------------------------------------------------------------------
# pinned bytes: `gen` and `mutate` output, and mutate's refusals
# ---------------------------------------------------------------------------

#: sha256 of the `gen` output for each recipe.
GEN_SHA256 = {
    "terminal":
        "39cab382b8cc04fb067f6e6d0a01070591a8aa816a5a9e04a13a1fc3120f98b4",
    "partial-bijections 0":
        "874da7d76454beaba0a25aee877440003eb52a6b93f860375107e7ad34e2d3a3",
    "partial-bijections 1":
        "18805a757cad36ec1fc6426c73a496aedf2c6c33ce8a7fd60ee8b29148caf0da",
    "partial-bijections 2":
        "89375f607174e60db4bd640177478efb01044889bf18ad2a89bede70c7797ca6",
    "partial-bijections 3":
        "8d4e71277ed63bf2dc6f4cde630be3a0a8a17f25ca7659d8537581bb3dcfdf96",
    "cyclic-tower 2 0":
        "cad955cb0bde64087581f50754e8f7e7a8cae15acfb14ecab915710ca556d290",
    "cyclic-tower 2 2":
        "582762a4f17bae29ff17ca13ec28968a76a8c58561a371671925c7d887967ff2",
    "cyclic-tower 2 3":
        "b77108b48580639aa76236b2885ea66f656489031c8984da9f5a22b51c8e4b9e",
    "cyclic-tower 3 2":
        "2b0d363746d7e6ff6eb658c70d90c3965e7617b159cab0fe6caee30532351417",
    "pointed-sets 0":
        "874da7d76454beaba0a25aee877440003eb52a6b93f860375107e7ad34e2d3a3",
    "pointed-sets 1":
        "3825b88fff31d5cba9a6330f4e5ebbafc50d31e2fa8104a75ba1e0e8055fc38a",
    "pointed-sets 2":
        "02227a8ac8e2b0a27641d4b3488b9bec5af54aaf5d8e2595fe05da7e044b5c83",
    "pointed-sets 3":
        "086f07a563b68b8356f342908183b126789fa409ebab15b2403079153461ad1f",
    "locally-discrete terminal":
        "4de5764707ab388a6a6093399c77a2f2c9fabc2d0f633f6a167366bd8786e4e6",
    "locally-discrete partial-bijections 2":
        "44af7f896e1cfe204c0c58f951d0d15e4071f3990d3e98ac55d58f667b09b5e9",
    "locally-discrete pointed-sets 2":
        "289ec0785a1315e5942dd64d8dacd917cd0e73664debe5ecac74b0b94dc19a0a",
    "chaotic partial-bijections 1":
        "60bede9bfa56fb21c013ce489e6071d8e1947b2b6a9513361f47e6d38c77827b",
    "chaotic cyclic-tower 2 2":
        "9035faad4eb52fc00c01b2d7deb25415ddabcf815680a0a4f0aa2966c4153d8c",
}

#: sha256 of the `mutate` outputs at seeds 0-9, concatenated in seed order,
#: per operator and shipped fixture.
MUTATE_SHA256 = {
    ("retarget-vcomp", "pb2.2cat"):
        "c7db465b67fdb2008ccedea962242ae6f6bc33d745a0d7cc391d25a6ae7ffa5d",
    ("retarget-vcomp", "ch_pb1.2cat"):
        "cd78f85a6d3829a1121b4f511d0bf6e3423c0874728cfd9d55bfa2826d582c29",
    ("drop-null-2cell", "pb2.ideal"):
        "cfe116ea5dc0a265b0cf5bb81d3e17e1db290ea55cecb0bd05ca494122509e7c",
    ("break-compositor", "pb1.pf"):
        "9631762b550f5ac1e3c30bebab499603222f2c91296c512b95f7564cd819b9dd",
    ("drop-M-translate", "ct22.fs"):
        "98779eed433e38f6775f79f2f861597c70fc89ccbeb7a04fb096808e26651a84",
    ("swap-structure-cell", "pb1.pn"):
        "9f684a86acc091eeadd58d71db0ecbcd61967630908ae8dbb6c041762ea1b70e",
    ("remove-eta-inverse", "pb1.pn"):
        "efc2a637da03343de87878fc10a50fe46599b8c5f5f307ef2d1d651bd763ae40",
}


def _cli(capsys, *argv) -> str:
    """Run the CLI in-process; return its stdout after checking it exited 0
    and wrote nothing to stderr."""
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("recipe", GEN_SHA256)
def test_gen_output_bytes_are_pinned(capsys, recipe):
    out = _cli(capsys, "gen", *recipe.split())
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[recipe]


@pytest.mark.parametrize("operator, fixture", MUTATE_SHA256,
                         ids=[" ".join(k) for k in MUTATE_SHA256])
def test_mutate_output_bytes_are_pinned(capsys, operator, fixture):
    digest = hashlib.sha256()
    for seed in range(10):
        digest.update(_cli(capsys, "mutate",
                           str(FIXTURE_DIR / f"{fixture}.json"), operator,
                           "--seed", str(seed)).encode())
    assert digest.hexdigest() == MUTATE_SHA256[(operator, fixture)]


#: `validate` on each mutant of `MUTATE_SHA256` at seeds 0-9: the exit codes
#: in seed order, and the sha256 of the stdout lines after the header (which
#: names the input path), concatenated in seed order.  These pin the first
#: violation each validator cites.
VALIDATE_MUTANT_SHA256 = {
    ("retarget-vcomp", "pb2.2cat"):
        "e658455c396120b8b1ac292edb190012131ddca1b83b3dfe6862029a689457ac",
    ("retarget-vcomp", "ch_pb1.2cat"):
        "bf4fa3689192868edf164173b12f4b8c4d5f968c12f353fd02dd78641cde18a3",
    ("drop-null-2cell", "pb2.ideal"):
        "8b68cbeff3f52110e32deb5f4981bf9e19a08c2b5185e3a0f85766207a9c22b6",
    ("break-compositor", "pb1.pf"):
        "3fbe0214b75212377c44b52870bf32e5f83c791b4ef0de8dadb2d874362ed339",
    ("drop-M-translate", "ct22.fs"):
        "3b2ce73068062c5d58d4acd28f7b8417dfe0f518bf6768acf4097ddd0628e2e4",
    ("swap-structure-cell", "pb1.pn"):
        "37d074bae05bfa8cbcefa8a7fc99cba4863b6c7601658680b5549eab1259b84b",
    ("remove-eta-inverse", "pb1.pn"):
        "899cd105472c3cb57756c25cdf2eec15f4daf75f2783d32eb6831cec1ef23259",
}


@pytest.mark.parametrize("operator, fixture", VALIDATE_MUTANT_SHA256,
                         ids=[" ".join(k) for k in VALIDATE_MUTANT_SHA256])
def test_validate_output_on_mutants_is_pinned(capsys, tmp_path, operator,
                                              fixture):
    digest = hashlib.sha256()
    codes = []
    mutant = tmp_path / "mutant.json"
    for seed in range(10):
        mutant.write_text(_cli(capsys, "mutate",
                               str(FIXTURE_DIR / f"{fixture}.json"), operator,
                               "--seed", str(seed)), encoding="utf-8")
        codes.append(main(["validate", str(mutant)]))
        out = capsys.readouterr().out
        digest.update(out.split("\n", 1)[1].encode())
    assert codes == [1] * 10
    assert digest.hexdigest() == VALIDATE_MUTANT_SHA256[(operator, fixture)]


def _siteless():
    """Per operator, an entity of the right shape where no single fault
    defeats the target validator (the terminal 2-category has one cell in
    each dimension, so there is nothing to retarget a table entry to)."""
    zero = canonical_zero_ideal(LD_TERM)
    fs, _, _, eta, _ = fs_from_ideal(LD_TERM, zero)
    return {
        "retarget-vcomp": LD_TERM,
        "drop-null-2cell": (LD_TERM, dataclasses.replace(
            zero, null_two_cells=())),
        "break-compositor": identity_pseudofunctor(LD_TERM),
        "drop-M-translate": (LD_TERM, dataclasses.replace(
            fs, factorization={})),
        "swap-structure-cell": eta,
        "remove-eta-inverse": eta,
    }


@pytest.mark.parametrize("operator", MUTATION_OPERATORS)
def test_no_eligible_site_message_is_pinned(operator):
    with pytest.raises(InputError) as exc:
        mutate(_siteless()[operator], operator, 3)
    assert str(exc.value) == f"no eligible site for {operator}"


def test_refusal_messages_are_pinned():
    cases = [
        ((_K, "retarget-vcomp", 0),
         "retarget-vcomp mutates a TwoCategory, got PseudoFunctor"),
        ((_T, "drop-null-2cell", 0),
         "drop-null-2cell mutates a TwoCategory + TwoIdeal, got TwoCategory"),
        (((_N, _T), "drop-null-2cell", 0),
         "drop-null-2cell mutates a TwoCategory + TwoIdeal, got tuple"),
        (((_T, _N), "break-compositor", 0),
         "break-compositor mutates a PseudoFunctor, got tuple"),
        ((_T, "frobnicate", 0), "unknown mutation operator frobnicate"),
        ((_T, "retarget-vcomp", -1), "seed must be nonnegative"),
    ]
    for args, message in cases:
        with pytest.raises(InputError) as exc:
            mutate(*args)
        assert str(exc.value) == message
