"""Command-line interface, exercised end to end through subprocesses."""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from clirun import run_cli as run
from family import LD_PB2, ZERO_IDEALS, one_object_base
from twoexact import (FactorizationSystem, banded, canonical_zero_ideal,
                      chaotic_enrichment, cyclic_tower, fs_from_ideal,
                      maximal_two_ideal, partial_bijections)
from twoexact import cli
from twoexact.cli import _build_parser
from twoexact.formats import (document_to_two_category, fs_to_document, parse,
                              serialize, two_ideal_to_document,
                              witness_bundle_to_document)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Generate the working documents once through the CLI itself."""
    d = tmp_path_factory.mktemp("cli")
    paths = {
        "pb2": d / "pb2.2cat.json",
        "ps2": d / "ps2.2cat.json",
        "ct22": d / "ct22.2cat.json",
        "ch_pb1": d / "ch_pb1.2cat.json",
        "pb1": d / "pb1.2cat.json",
        "pb2_1cat": d / "pb2.1cat.json",
        "ps2_1cat": d / "ps2.1cat.json",
    }
    specs = {
        "pb2": ["locally-discrete", "partial-bijections", "2"],
        "ps2": ["locally-discrete", "pointed-sets", "2"],
        "ct22": ["locally-discrete", "cyclic-tower", "2", "2"],
        "ch_pb1": ["chaotic", "partial-bijections", "1"],
        "pb1": ["locally-discrete", "partial-bijections", "1"],
        "pb2_1cat": ["partial-bijections", "2"],
        "ps2_1cat": ["pointed-sets", "2"],
    }
    for name, spec in specs.items():
        proc = run("gen", *spec, "--out", str(paths[name]))
        assert proc.returncode == 0, proc.stderr
    paths["dir"] = d
    return paths


def test_generated_documents_validate(files):
    for name in ("pb2", "ps2", "ct22", "ch_pb1", "pb2_1cat"):
        proc = run("validate", str(files[name]))
        assert proc.returncode == 0, proc.stderr
        assert all(json.loads(line) for line in proc.stdout.splitlines())


def test_check_exact_puppe_passes_on_partial_bijections(files):
    proc = run("check-exact", "--mode", "puppe", str(files["pb2"]))
    assert proc.returncode == 0, proc.stdout
    assert last_json(proc) == {"mode": "puppe", "status": "pass"}


def test_check_exact_puppe_fails_on_pointed_sets(files):
    proc = run("check-exact", "--mode", "puppe", str(files["ps2"]))
    assert proc.returncode == 1
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1] == {"mode": "puppe", "status": "fail"}
    failing = [ln for ln in lines if ln.get("status") == "fail"
               and ln.get("check") == "factorization"]
    assert failing, lines
    assert failing[0]["counterexample"] == {
        "cells": {"one_cell": "m13_2to1_11"},
        "clause": "no-cokernel-kernel-factorization"}


@pytest.mark.parametrize("mode", ["grandis", "weak-grandis", "weak-puppe"])
def test_other_exactness_modes_run(files, mode):
    assert run("check-exact", "--mode", mode, str(files["pb2"])).returncode == 0
    assert run("check-exact", "--mode", mode, str(files["ps2"])).returncode == 1


def test_output_is_byte_identical_across_runs(files):
    a = run("check-exact", "--mode", "grandis", str(files["pb2"]))
    b = run("check-exact", "--mode", "grandis", str(files["pb2"]))
    assert a.stdout == b.stdout and a.stdout
    c = run("gen", "locally-discrete", "cyclic-tower", "2", "2")
    d = run("gen", "locally-discrete", "cyclic-tower", "2", "2")
    assert c.stdout == d.stdout and c.stdout


def test_validate_reports_dangling_references(files, tmp_path):
    body = json.loads(files["pb2"].read_text())
    body["comp1"][0]["gf"] = "m99_missing"
    broken = tmp_path / "broken.2cat.json"
    broken.write_text(json.dumps(body))
    proc = run("validate", str(broken))
    assert proc.returncode == 2
    assert "error: dangling references" in proc.stderr
    assert "m99_missing" in proc.stderr


@pytest.mark.parametrize("command", [
    ["validate"],
    ["check-exact", "--mode", "puppe"],
    ["check-exact", "--mode", "grandis"],
    ["check-closed"],
], ids=["validate", "check-exact-puppe", "check-exact-grandis",
        "check-closed"])
def test_unreadable_file_is_an_input_error(command):
    proc = run(*command, "/nonexistent/nowhere.json")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read")
    assert proc.stdout == ""


def test_unknown_flag_exits_with_usage_error(files):
    proc = run("validate", "--frobnicate", str(files["pb2"]))
    assert proc.returncode == 2
    assert "usage" in proc.stderr


def test_module_without_arguments_prints_usage():
    proc = run()
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: twoexact")


def test_cli_runs_from_any_working_directory(files, tmp_path):
    proc = run("validate", str(files["pb2"]), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_unknown_generator_is_an_input_error():
    proc = run("gen", "octonion-tower", "3")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_mutants_fail_validation(files, tmp_path):
    mut = tmp_path / "mut.2cat.json"
    proc = run("mutate", str(files["pb2"]), "retarget-vcomp", "--seed", "1",
               "--out", str(mut))
    assert proc.returncode == 0, proc.stderr
    proc = run("validate", str(mut))
    assert proc.returncode == 1
    verdicts = [json.loads(line) for line in proc.stdout.splitlines()]
    assert any(v.get("status") == "fail" for v in verdicts)


def test_mutate_is_deterministic(files):
    a = run("mutate", str(files["pb2"]), "retarget-vcomp", "--seed", "7")
    b = run("mutate", str(files["pb2"]), "retarget-vcomp", "--seed", "7")
    c = run("mutate", str(files["pb2"]), "retarget-vcomp", "--seed", "8")
    assert a.stdout == b.stdout and a.stdout
    assert a.stdout != c.stdout


def test_kernel_and_cokernel_queries(files):
    proc = run("kernel", str(files["pb2"]), "m05_1to1_11")
    assert proc.returncode == 0
    out = last_json(proc)
    assert out["arrow"] == "m05_1to1_11"
    assert set(out["kernels"][0]) == {
        "apex", "arrow", "leg", "null_cell", "structure"}
    proc = run("cokernel", str(files["pb2"]), "m05_1to1_11")
    assert proc.returncode == 0
    assert last_json(proc)["cokernels"]


def test_biisoinserter_query(files):
    proc = run("biisoinserter", str(files["pb1"]), "m4_1to1_11",
               "m3_1to1_e")
    assert proc.returncode == 0
    assert last_json(proc)["inserters"]


def test_three_pieces_query(files):
    proc = run("three-pieces", str(files["ct22"]), "m10_2to1x1")
    assert proc.returncode == 0
    out = last_json(proc)
    assert {"arrow", "first", "middle", "last", "connecting"} <= set(out)
    assert out["arrow"] == "m10_2to1x1"


def test_check_ideal_and_check_closed(files):
    assert run("check-ideal", str(files["pb2"])).returncode == 0
    proc = run("check-closed", str(files["pb2"]))
    assert proc.returncode == 0
    assert last_json(proc)["status"] == "pass"


def test_oracle_1cat_agrees_with_the_two_dimensional_verdict(files):
    assert run("oracle-1cat", str(files["pb2_1cat"])).returncode == 0
    proc = run("oracle-1cat", str(files["ps2_1cat"]))
    assert proc.returncode == 1
    assert last_json(proc)["status"] == "fail"
    assert run("oracle-1cat", "--mode", "puppe",
               str(files["pb2_1cat"])).returncode == 0


#: ``oracle-1cat`` on two fixtures and three generated documents, run from
#: their directory: the exit code and the sha256 of stdout, by document and
#: mode.
ORACLE_1CAT_SHA256 = {
    ("pb2.1cat.json", "grandis"):
        (0, "2f6e45d3047e27c3bba8700c1b57f0aa17a3d6e9f2b01cadbcd6cd77067b7967"),
    ("pb2.1cat.json", "puppe"):
        (0, "cd0b5aa09d4f55420e4a5957ced8b18c233771bd4509186e999ec74b7053f9f4"),
    ("pb2.1ideal.json", "grandis"):
        (0, "ac8957313eaf515e1569e7082630e0a0e5c20b7713b6bbcffe524057ed66b55e"),
    ("pb2.1ideal.json", "puppe"):
        (0, "6b6f8bf0f8bf126ef7bfded806a03c3e456af56391838292f7b6ccff4ca2610a"),
    ("pb3.1cat.json", "grandis"):
        (0, "db2141ee72c2566534af662a211c6682f4c214ab7cec5bab16f5c4d3e93884a2"),
    ("pb3.1cat.json", "puppe"):
        (0, "25a9fafb34dbcac2d90a8d89466a5b00310c44f78e8d271c162679887ff78a77"),
    ("ps3.1cat.json", "grandis"):
        (1, "cc774f9ea82c33477b847325c6b9caaa027beb2ba3a51a73bd46707eee2f354a"),
    ("ps3.1cat.json", "puppe"):
        (1, "89f6bcceb08fa8d1a78ce6ae4b2695b7b4ec6bf0388d2581d779dd45d3ee6a7d"),
    ("ct23.1cat.json", "grandis"):
        (0, "10c3d85c4bea69f0209d85aa86be0a726858700c5badfd009295e18773a58444"),
    ("ct23.1cat.json", "puppe"):
        (0, "f0e5b1aebaf25153da5a950e139b23c02ec4bb200ec56a57991da9a4149195d0"),
}


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("oracle")
    for name in ("pb2.1cat.json", "pb2.1ideal.json"):
        (d / name).write_bytes((FIXTURE_DIR / name).read_bytes())
    for name, spec in (("pb3", ["partial-bijections", "3"]),
                       ("ps3", ["pointed-sets", "3"]),
                       ("ct23", ["cyclic-tower", "2", "3"])):
        proc = run("gen", *spec, "--out", str(d / f"{name}.1cat.json"))
        assert proc.returncode == 0, proc.stderr
    return d


@pytest.mark.parametrize("name, mode", ORACLE_1CAT_SHA256,
                         ids=[f"{n} {m}" for n, m in ORACLE_1CAT_SHA256])
def test_oracle_1cat_output_is_pinned(oracle_dir, monkeypatch, capsys, name,
                                      mode):
    monkeypatch.chdir(oracle_dir)
    code = cli.main(["oracle-1cat", name, "--mode", mode])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) \
        == ORACLE_1CAT_SHA256[(name, mode)]


def test_factorization_pipeline_round_trips(files):
    d = files["dir"]
    bundle = d / "bundle.json"
    proc = run("fs-from-ideal", str(files["pb2"]), "--out", str(bundle))
    assert proc.returncode == 0, proc.stderr
    assert run("validate", str(bundle)).returncode == 0

    proc = run("check-fs", str(bundle))
    assert proc.returncode == 0
    assert last_json(proc)["status"] == "pass"

    recovered = d / "ideal2.json"
    proc = run("ideal-from-fs", str(bundle), "--out", str(recovered))
    assert proc.returncode == 0, proc.stderr

    canonical = d / "ideal1.json"
    canonical.write_text(serialize(
        two_ideal_to_document(LD_PB2, ZERO_IDEALS["ld_pb2"])))
    proc = run("equiv-ideals", str(canonical), str(recovered))
    assert proc.returncode == 0
    assert last_json(proc)["status"] == "pass"


def test_fibration_and_rofs_checks(files):
    bundle = files["dir"] / "bundle.json"
    if not bundle.exists():
        proc = run("fs-from-ideal", str(files["pb2"]), "--out", str(bundle))
        assert proc.returncode == 0, proc.stderr
    for direction in ("dom", "cod"):
        proc = run("check-fibration", str(files["pb2"]), "--fs", str(bundle),
                   "--direction", direction)
        assert proc.returncode == 0, proc.stdout
    proc = run("check-rofs", str(files["pb2"]), "--fs", str(bundle))
    assert proc.returncode == 0, proc.stdout


@pytest.mark.parametrize("direction, left, right, z", [
    ("cod", ["i", "z"], ["i"], ["i", "z", "iz"]),
    ("dom", ["i"], ["i", "z"], ["z", "i", "iz"]),
])
def test_fibration_with_a_right_part_outside_the_class_fails(
        tmp_path, direction, left, right, z):
    # exit 1 with a certificate; this was an input error (exit 2)
    doc = fs_to_document(one_object_base(), FactorizationSystem(
        tuple(left), tuple(right), {"i": ("i", "i", "ii"), "z": tuple(z)}))
    path = tmp_path / "fs.json"
    path.write_text(serialize(doc), encoding="utf-8")
    proc = run("check-fibration", str(path), "--direction", direction)
    assert proc.returncode == 1, proc.stderr
    assert last_json(proc)["counterexample"]["clause"] == \
        "factorization-right-class"


@pytest.mark.parametrize("direction, left, right, z", [
    ("cod", ["i"], ["i", "z"], ["i", "z", "t"]),
    ("dom", ["i", "z"], ["i"], ["z", "i", "t"]),
])
def test_fibration_with_a_non_invertible_chosen_cell_fails(
        tmp_path, direction, left, right, z):
    # θ = t with t·t = t: exit 1 with a certificate; this was an input
    # error (exit 2), "2-cell t is not invertible"
    doc = fs_to_document(one_object_base(v_tt="t"), FactorizationSystem(
        tuple(left), tuple(right), {"i": ("i", "i", "ii"), "z": tuple(z)}))
    path = tmp_path / "fs.json"
    path.write_text(serialize(doc), encoding="utf-8")
    proc = run("check-fibration", str(path), "--direction", direction)
    assert (proc.returncode, proc.stderr) == (1, ""), proc.stderr
    assert last_json(proc)["counterexample"] == {
        "clause": "factorization-invertible", "cells": {
            "direction": direction, "member": "i", "extension": "z",
            "one_cell": "z", "theta": "t"}}


def test_banded_generator_token(tmp_path):
    path = tmp_path / "bd.json"
    proc = run("gen", "banded", "3", "cyclic-tower", "2", "1",
               "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    assert document_to_two_category(parse(path.read_text("utf-8"))) == \
        banded(cyclic_tower(2, 1), 3)
    proc = run("validate", str(path))
    assert proc.returncode == 0, proc.stdout
    for argv in (["banded"], ["banded", "x", "terminal"], ["banded", "2"],
                 ["banded", "2", "chaotic", "terminal"]):
        assert run("gen", *argv).returncode == 2, argv


def test_small_cap_is_reported_as_inconclusive(files):
    proc = run("kernel", str(files["pb2"]), "m05_1to1_11", "--cap", "2")
    assert proc.returncode == 3
    out = last_json(proc)
    assert out["status"] == "inconclusive"
    assert "cap 2 exceeded" in out["detail"]


@pytest.mark.parametrize("argv", [
    ["check-closed", str(FIXTURE_DIR / "pb2.2cat.json"), "--cap", "-5"],
    ["kernel", str(FIXTURE_DIR / "pb2.2cat.json"), "m05_1to1_11",
     "--cap", "-1"],
], ids=["check-closed", "kernel"])
def test_a_negative_cap_is_a_usage_error(argv):
    proc = run(*argv)
    assert proc.returncode == 2
    assert "argument --cap: N must be at least 0, got -" in proc.stderr
    assert proc.stdout == ""


def test_a_non_integer_cap_is_a_usage_error():
    proc = run("check-closed", str(FIXTURE_DIR / "pb2.2cat.json"),
               "--cap=abc")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "twoexact check-closed: error: argument --cap: "
        "invalid int value: 'abc'")


def test_a_stopped_ideal_equivalence_names_its_own_search():
    path = str(FIXTURE_DIR / "pb2.ideal.json")
    proc = run("equiv-ideals", path, path, "--cap", "0")
    assert proc.returncode == 3
    assert proc.stdout.splitlines()[1:] == [
        '{"check": "ideals_equivalent","detail": {"cap": 0,"context": '
        '"ideals_equivalent","reason": "cap exceeded"},'
        '"status": "inconclusive"}']


def test_a_cap_of_zero_runs_the_search(files):
    proc = run("kernel", str(files["pb2"]), "m05_1to1_11", "--cap", "0")
    assert proc.returncode == 3
    assert "search cap 0 exceeded" in last_json(proc)["detail"]


def test_capped_dom_fibration_check_is_inconclusive():
    proc = run("check-fibration", str(FIXTURE_DIR / "ct22.fs.json"),
               "--direction", "dom", "--cap", "1")
    assert proc.returncode == 3, proc.stderr
    assert last_json(proc)["status"] == "inconclusive"


def test_capped_check_fs_is_inconclusive():
    # check-fs runs the dom fibration check as one of its parts
    proc = run("check-fs", str(FIXTURE_DIR / "pb1.bundle.json"),
               "--cap", "1")
    assert proc.returncode == 3, proc.stderr
    result = last_json(proc)
    assert result["status"] == "inconclusive"
    assert isinstance(result["detail"], dict)
    assert result["detail"]["clause"] == "factorization-system"
    assert result["detail"]["inner"]["context"] == "validate_fs"


def test_header_line_names_command_cap_and_inputs(files):
    proc = run("check-closed", str(files["pb2"]), "--cap", "100000")
    first = json.loads(proc.stdout.splitlines()[0])
    assert first == {"command": "check-closed", "cap": 100000,
                     "inputs": [str(files["pb2"])]}


@pytest.mark.parametrize("command", [
    ["fs-from-ideal", str(FIXTURE_DIR / "pb1.2cat.json")],
    ["ideal-from-fs", str(FIXTURE_DIR / "pb1.bundle.json")],
    ["mutate", str(FIXTURE_DIR / "pb1.pf.json"), "break-compositor"],
    ["gen", "terminal"],
], ids=["fs-from-ideal", "ideal-from-fs", "mutate", "gen"])
def test_unwritable_output_is_an_input_error(command):
    proc = run(*command, "--out", "/nonexistent/out.json")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write /nonexistent/out.json")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("error", [
    MemoryError(), OSError(28, "No space left on device")],
    ids=["memory", "disk-full"])
def test_a_failed_write_leaves_no_partial_output(monkeypatch, capsys,
                                                  tmp_path, error):
    out = tmp_path / "pb1.bundle.json"
    pieces_of = cli.serialize_pieces

    def failing(doc):
        pieces = pieces_of(doc)

        def written():
            yield next(pieces)
            assert out.exists()
            raise error
        return written()

    monkeypatch.setattr(cli, "serialize_pieces", failing)
    argv = ["fs-from-ideal", str(FIXTURE_DIR / "pb1.2cat.json"), "--out",
            str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: {error}\n"
        if isinstance(error, OSError) else "error: out of memory\n")
    assert not out.exists()


def test_identifiers_with_non_decimal_digits_are_written(tmp_path):
    # '²'.isdigit() holds but int('²') fails; natural_key reads it as text.
    text = (FIXTURE_DIR / "terminal.2cat.json").read_text()
    source = tmp_path / "sq.2cat.json"
    source.write_text(text.replace("m0_id", "m²"), encoding="utf-8")
    bundle = tmp_path / "sq.bundle.json"
    proc = run("fs-from-ideal", str(source), "--out", str(bundle))
    assert proc.returncode == 0, proc.stderr
    doc = parse(bundle.read_text(encoding="utf-8"))
    assert doc.kind == "witness-bundle"
    assert doc.body["E"] == ["m²"]


#: sha256 of the pb2 round trip: square ids there are long, with many
#: digit runs, so these pin the serializer's natural ordering of them.
PB2_BUNDLE_SHA256 = \
    "3c28ea89a7bb6c9144257562d4ed0bf27dcfd51d9cc4284219713b371aec54ff"
PB2_RECOVERED_SHA256 = \
    "8cd09d034c8a024f8de8f4a13d06c735d38f930d21efae113e222409eb39d44a"


def test_pb2_round_trip_bytes_are_pinned(tmp_path):
    proc = run("fs-from-ideal", str(FIXTURE_DIR / "pb2.2cat.json"))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() \
        == PB2_BUNDLE_SHA256
    bundle = tmp_path / "pb2.bundle.json"
    bundle.write_text(proc.stdout, encoding="utf-8")
    proc = run("ideal-from-fs", str(bundle))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() \
        == PB2_RECOVERED_SHA256


#: sha256 of the fs-from-ideal bundle and of the ideal-from-fs output for
#: two more fixtures: a tower with non-identity composites and a chaotic
#: base with many 2-cells per hom.
ROUND_TRIP_SHA256 = {
    "ct22": ("06f939f42249815e5e101a99ee3d324ceab166452c52141a8c1069d4dcc7e60b",
             "426ad7bafd3782dafe7508d5dd9d764ba8908eb472c275c065dc006ac53c1613"),
    "ch_pb1": ("107eb405d3b0bd0ff46aaf78776b61d4fdb985cfe158e24af8985e611e59d6f1",
               "bd1b338ec9dbec3f32dd8c741da636c31ec5e02c0436d9c1d184eeddd038f6bd"),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_SHA256))
def test_round_trip_bytes_are_pinned(tmp_path, name):
    bundle = tmp_path / f"{name}.bundle.json"
    proc = run("fs-from-ideal", str(FIXTURE_DIR / f"{name}.2cat.json"),
               "--out", str(bundle))
    assert proc.returncode == 0, proc.stderr
    proc = run("ideal-from-fs", str(bundle))
    assert proc.returncode == 0, proc.stderr
    assert (hashlib.sha256(bundle.read_bytes()).hexdigest(),
            hashlib.sha256(proc.stdout.encode()).hexdigest()) \
        == ROUND_TRIP_SHA256[name]


@pytest.fixture(scope="module")
def pb2_bundle(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("pb2") / "pb2.bundle.json"
    proc = run("fs-from-ideal", str(FIXTURE_DIR / "pb2.2cat.json"),
               "--out", str(bundle))
    assert proc.returncode == 0, proc.stderr
    return bundle


_CT22_FS = str(FIXTURE_DIR / "ct22.fs.json")
_PB2 = str(FIXTURE_DIR / "pb2.2cat.json")
_PB1 = str(FIXTURE_DIR / "pb1.2cat.json")
_PB1_BUNDLE = str(FIXTURE_DIR / "pb1.bundle.json")

#: sha256 of stdout after the header line, and the exit code, of the
#: factorization-system checks, uncapped and at --cap 1, 50 and 1000.
#: ``{bundle}`` is the pb2 bundle that fs-from-ideal writes.
FS_CHECK_PINS = {
    "check-fs-ct22": (["check-fs", _CT22_FS], {
        None: (0, "11e8269f4f758b2d00942dc40ec227f52b349c47c42e9f93698448c22f604d50"),
        1: (3, "21c762fa73b7897f9e2f15ecb2691959dc821c0fee8ff3f357c5edb99caf36ed"),
        50: (3, "700ca5696a89f984b2f5c22454036ce6b9bd3728e8ef6c64ae6a606bdc7ab4b7"),
        1000: (0, "11e8269f4f758b2d00942dc40ec227f52b349c47c42e9f93698448c22f604d50"),
    }),
    # both fibration sub-checks are read off the factorization system's
    # pass, so a cap that covers validate_fs covers the whole check
    "check-fs-pb1-bundle": (["check-fs", str(FIXTURE_DIR / "pb1.bundle.json")], {
        None: (0, "b10cc6369d8d76f2d50b4c6582fc0118f1f87bac7d205f326707bf0219814e15"),
        1: (3, "75ef4275a69fbee57058c96757ee340d38ba88a5992e9143baf6a44461c9c65d"),
        50: (0, "b10cc6369d8d76f2d50b4c6582fc0118f1f87bac7d205f326707bf0219814e15"),
        1000: (0, "b10cc6369d8d76f2d50b4c6582fc0118f1f87bac7d205f326707bf0219814e15"),
    }),
    "check-fs-pb2-bundle": (["check-fs", "{bundle}"], {
        None: (0, "b10cc6369d8d76f2d50b4c6582fc0118f1f87bac7d205f326707bf0219814e15"),
        1: (3, "75ef4275a69fbee57058c96757ee340d38ba88a5992e9143baf6a44461c9c65d"),
        50: (3, "dad5c232fea0d17ecb3db57e7f352af145548ff5f733f691b3fe6b7109b45f5b"),
        1000: (0, "b10cc6369d8d76f2d50b4c6582fc0118f1f87bac7d205f326707bf0219814e15"),
    }),
    "fibration-cod-ct22": (
        ["check-fibration", _CT22_FS, "--direction", "cod"], {
            None: (0, "c48cef5f1284645dc745fa28134896047e27059b3a766a7254c90b3269218774"),
            1: (3, "ced1a5606a0c9794bf157c28c0738ea038e5d98eb7d874f47660f47ac5bbe404"),
            50: (3, "aaf0918bd6274aef782bbf901fe24daff9be233d470c0bb9da65e5320c1af5ec"),
            1000: (3, "d968c2ec252e50ed37ef9d21c03fe34029f1524babfc9869ce425522570abd1e"),
        }),
    "fibration-dom-ct22": (
        ["check-fibration", _CT22_FS, "--direction", "dom"], {
            None: (0, "6ee41ab4beb411535e5cf8638b93c8da2ff5cdf78abad6bd99729f4c7b85b90f"),
            1: (3, "9143e01095d3a2a51eac34dc0ac2cb3c7f32599a2d98480a02559a3f363626fc"),
            50: (3, "a994374897c3d03f43d367c5fb0f96d0ff0b897a2fd791abbdcb8ffc495bef8f"),
            1000: (3, "ef912e6c2b53a4f19e05f197a9b488b8c1915b5da273e6b02253046617fe65ab"),
        }),
    "fibration-cod-pb2": (
        ["check-fibration", _PB2, "--fs", "{bundle}", "--direction", "cod"], {
            None: (0, "b0d9f25dda7d80e0908b5f822580139c15b69c7b3ec8ae6bcca1b54bce834de9"),
            1: (3, "ced1a5606a0c9794bf157c28c0738ea038e5d98eb7d874f47660f47ac5bbe404"),
            50: (3, "aaf0918bd6274aef782bbf901fe24daff9be233d470c0bb9da65e5320c1af5ec"),
            1000: (3, "d968c2ec252e50ed37ef9d21c03fe34029f1524babfc9869ce425522570abd1e"),
        }),
    "fibration-dom-pb2": (
        ["check-fibration", _PB2, "--fs", "{bundle}", "--direction", "dom"], {
            None: (0, "dd801ed1a58df0e6adc9f324f600c64dfdf0b22455dd45559ced3ca3eef57f69"),
            1: (3, "9143e01095d3a2a51eac34dc0ac2cb3c7f32599a2d98480a02559a3f363626fc"),
            50: (3, "a994374897c3d03f43d367c5fb0f96d0ff0b897a2fd791abbdcb8ffc495bef8f"),
            1000: (3, "ef912e6c2b53a4f19e05f197a9b488b8c1915b5da273e6b02253046617fe65ab"),
        }),
    # a shipped bundle as --fs: only its base and system are read
    "fibration-cod-pb1-bundle": (
        ["check-fibration", _PB1, "--fs", _PB1_BUNDLE, "--direction", "cod"], {
            None: (0, "15fea099481bece865790c9ffecb7da268451b4a2e366ba6d224f576ba6c48a5"),
            1: (3, "ced1a5606a0c9794bf157c28c0738ea038e5d98eb7d874f47660f47ac5bbe404"),
            50: (3, "aaf0918bd6274aef782bbf901fe24daff9be233d470c0bb9da65e5320c1af5ec"),
            1000: (0, "15fea099481bece865790c9ffecb7da268451b4a2e366ba6d224f576ba6c48a5"),
        }),
    "fibration-dom-pb1-bundle": (
        ["check-fibration", _PB1, "--fs", _PB1_BUNDLE, "--direction", "dom"], {
            None: (0, "a309b654015a9c204a187561a0fdd530ce0fb0372ea93ca0bbd63ec7b4658210"),
            1: (3, "9143e01095d3a2a51eac34dc0ac2cb3c7f32599a2d98480a02559a3f363626fc"),
            50: (3, "a994374897c3d03f43d367c5fb0f96d0ff0b897a2fd791abbdcb8ffc495bef8f"),
            1000: (0, "a309b654015a9c204a187561a0fdd530ce0fb0372ea93ca0bbd63ec7b4658210"),
        }),
    "check-rofs-pb1-bundle": (["check-rofs", _PB1, "--fs", _PB1_BUNDLE], {
        None: (0, "df4e884497ab3ffde9fb70f2b754a3c9e8d4106423e4174925a32f1467273cb8"),
        1: (3, "960df7da273df848d734a952896dc8d92bfde84dff650ea7d971d281dc7dc6ee"),
        50: (3, "b18ddafb43dd5c5f68b6602554d64acb9a0bf7541f0c2b9b60c7084de9489844"),
        1000: (0, "df4e884497ab3ffde9fb70f2b754a3c9e8d4106423e4174925a32f1467273cb8"),
    }),
    "check-rofs-pb2": (["check-rofs", _PB2, "--fs", "{bundle}"], {
        None: (0, "5087fd11704f461ec7f2c29c46d32c1c780c79303cb3f14aa34f7b74439b5168"),
        1: (3, "960df7da273df848d734a952896dc8d92bfde84dff650ea7d971d281dc7dc6ee"),
        50: (3, "b18ddafb43dd5c5f68b6602554d64acb9a0bf7541f0c2b9b60c7084de9489844"),
        1000: (3, "453bd1b37f7fa632ba74f863942064360c6b5cad06011e407a1e14bb2c36628e"),
    }),
}


@pytest.mark.parametrize("name", FS_CHECK_PINS)
def test_factorization_system_check_bytes_are_pinned(pb2_bundle, name):
    argv, pins = FS_CHECK_PINS[name]
    argv = [a.format(bundle=pb2_bundle) for a in argv]
    for cap, (code, digest) in pins.items():
        proc = run(*argv, *([] if cap is None else ["--cap", str(cap)]))
        assert proc.returncode == code, (cap, proc.stderr)
        body = proc.stdout.split("\n", 1)[1]
        assert hashlib.sha256(body.encode()).hexdigest() == digest, cap


@pytest.mark.parametrize("table, row, column, value, clause, cells", [
    # under each command, the first used to stop bundle parsing with exit
    # 2, the second with a KeyError traceback
    ("lwhisker", {"h": "m1_0to1_e", "a": "id_m2_1to0_e"}, "ha",
     "id_m0_0to0_e", "lwhisker-boundary",
     {"h": "m1_0to1_e", "a": "id_m2_1to0_e", "result": "id_m0_0to0_e"}),
    ("comp1", {"g": "m3_1to1_e", "f": "m3_1to1_e"}, "gf", "m1_0to1_e",
     "comp1-boundary",
     {"g": "m3_1to1_e", "f": "m3_1to1_e", "composite": "m1_0to1_e"}),
], ids=["lwhisker", "comp1"])
def test_validate_reports_a_lawless_bundle_base(tmp_path, table, row, column,
                                                value, clause, cells):
    # the pseudo-arrow 2-categories cannot be rebuilt on such a base, so the
    # base's fail certificate is the whole report; check-fs prints it too,
    # and ideal-from-fs, which writes no certificate, names its clause
    body = json.loads((FIXTURE_DIR / "pb1.bundle.json").read_text())
    [edited] = [r for r in body["base"][table]
                if all(r[k] == v for k, v in row.items())]
    edited[column] = value
    bundle = tmp_path / "lawless.bundle.json"
    bundle.write_text(json.dumps(body), encoding="utf-8")
    for command in ("validate", "check-fs"):
        proc = run(command, str(bundle))
        assert (proc.returncode, proc.stderr) == (1, ""), command
        header, cert = map(json.loads, proc.stdout.splitlines())
        assert header == {"command": command, "cap": None,
                          "inputs": [str(bundle)]}
        assert cert == {"check": "validate_two_category", "status": "fail",
                        "counterexample": {"clause": clause, "cells": cells}}
    proc = run("ideal-from-fs", str(bundle))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: the bundle's base is not a 2-category: "
                           f"{clause}\n")


#: Edits that leave a witness bundle's `k` table malformed; each used to
#: crash the bundle reader while it composed `c∘k` and `k∘c`.
def _drop_ob(body):
    del body["k"]["ob"][next(iter(body["k"]["ob"]))]


def _drop_one(body):
    del body["k"]["one"][next(iter(body["k"]["one"]))]


def _bogus_one(body):
    body["k"]["one"][next(iter(body["k"]["one"]))] = "bogus"


def _drop_compositor_row(body):
    del body["k"]["compositor"][0]


#: Edits that leave the `eta` or `epsilon` table malformed; `ideal-from-fs`,
#: which does not read them, used to exit 0 on each.
def _drop_eta_component(body):
    del body["eta"]["component"][next(iter(body["eta"]["component"]))]


def _bogus_eta_component(body):
    body["eta"]["component"][next(iter(body["eta"]["component"]))] = "bogus"


def _drop_eta_structure(body):
    del body["eta"]["structure"][next(iter(body["eta"]["structure"]))]


def _bogus_epsilon_structure(body):
    structure = body["epsilon"]["structure"]
    structure[next(iter(structure))] = "bogus"


_PB1_1CELL = "m0_0to0_e|m0_0to0_e|m0_0to0_e|m0_0to0_e|id_m0_0to0_e"


@pytest.mark.parametrize("edit, error", [
    (_drop_ob, "object map is not indexed by exactly the source objects"),
    (_drop_one, "1-cell map is not indexed by exactly the source 1-cells"),
    (_bogus_one, f"1-cell map sends {_PB1_1CELL} to unknown 1-cell bogus"),
    (_drop_compositor_row, "compositor table is not indexed by exactly the "
                           "composable pairs of the source"),
    (_drop_eta_component,
     "components are not indexed by exactly the source objects"),
    (_bogus_eta_component,
     "component at m0_0to0_e names unknown 1-cell bogus"),
    (_drop_eta_structure,
     "structure cells are not indexed by exactly the source 1-cells"),
    (_bogus_epsilon_structure,
     f"structure cell at {_PB1_1CELL} names unknown 2-cell bogus"),
], ids=["drop-ob", "drop-one", "bogus-one", "drop-compositor-row",
        "drop-eta-component", "bogus-eta-component", "drop-eta-structure",
        "bogus-epsilon-structure"])
@pytest.mark.parametrize("command", ["validate", "check-fs", "ideal-from-fs"])
def test_malformed_bundle_functor_is_an_input_error(tmp_path, command, edit,
                                                    error):
    body = json.loads((FIXTURE_DIR / "pb1.bundle.json").read_text())
    edit(body)
    broken = tmp_path / "broken.bundle.json"
    broken.write_text(json.dumps(body))
    proc = run(command, str(broken))
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (2, "", f"error: {error}\n")


def _retarget(body, functor, table):
    """Point the first entry of ``functor``'s ``table`` at the first other
    cell of that table: the bundle stays well formed."""
    rows = body[functor][table]
    if table == "compositor":
        row, key, values = rows[0], "cell", [r["cell"] for r in rows]
    else:
        row, key, values = rows, next(iter(rows)), list(rows.values())
    row[key] = next(v for v in values if v != row[key])


@pytest.mark.parametrize("functor, table", [
    (functor, table) for functor in ("k", "c")
    for table in ("one", "two", "compositor")],
    ids=lambda value: value)
@pytest.mark.parametrize("command", ["validate", "check-fs"])
def test_a_bundle_functor_that_breaks_a_law_fails_its_check(
        tmp_path, command, functor, table):
    # K or C breaks a pseudofunctor law; the composites c∘k and k∘c paste
    # its cells only when their compositors are read, so the check reports
    # the broken law instead of an input error.  `k.one` is the square
    # whose image has the wrong ends, so `k` sends a composable pair to one
    # that does not compose
    body = json.loads((FIXTURE_DIR / "pb1.bundle.json").read_text())
    _retarget(body, functor, table)
    broken = tmp_path / "broken.bundle.json"
    broken.write_text(json.dumps(body))
    proc = run(command, str(broken))
    assert (proc.returncode, proc.stderr) == (1, "")
    certs = [json.loads(line) for line in proc.stdout.splitlines()[1:]]
    which = functor.upper()
    if command == "check-fs":
        [cert] = certs
        assert cert["counterexample"]["clause"] == "biequivalence"
        inner = cert["counterexample"]["cells"]["inner"]
        assert (inner["clause"], inner["cells"]["which"]) \
            == ("functor-invalid", which)
    else:
        # the unit and counit are checked only when both functors pass
        assert [(c["check"], c["status"]) for c in certs] == [
            ("validate_two_category", "pass"), ("validate_fs", "pass"),
            ("validate_pseudofunctor", "fail" if which == "K" else "pass"),
            ("validate_pseudofunctor", "fail" if which == "C" else "pass")]


def test_ideal_from_fs_stops_where_it_reads_an_off_boundary_image(
        tmp_path):
    # ideal-from-fs checks shapes only; the k.one edit above sends a square
    # to one with the wrong ends, which ideal_from_fs then cannot compose
    body = json.loads((FIXTURE_DIR / "pb1.bundle.json").read_text())
    _retarget(body, "k", "one")
    broken = tmp_path / "broken.bundle.json"
    broken.write_text(json.dumps(body))
    proc = run("ideal-from-fs", str(broken))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: 1-cells not composable: (m0_0to0_e, m1_0to1_e)\n")


def test_malformed_pseudonatural_endpoint_is_an_input_error(tmp_path):
    # the endpoint functors are shape-checked before any clause reads them
    body = json.loads((FIXTURE_DIR / "pb1.pn.json").read_text())
    del body["target_functor"]["compositor"][0]
    broken = tmp_path / "broken.pn.json"
    broken.write_text(json.dumps(body))
    proc = run("validate", str(broken))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: compositor table is not indexed by exactly the "
               "composable pairs of the source\n")


@pytest.mark.parametrize("table", ["vcomp", "lwhisker", "comp1"])
def test_malformed_ideal_base_is_an_input_error(tmp_path, table):
    # check-ideal shape-checks the base as validate does, before its header
    body = json.loads((FIXTURE_DIR / "pb2.ideal.json").read_text())
    del body[table][-1]
    broken = tmp_path / "broken.ideal.json"
    broken.write_text(json.dumps(body))
    validate = run("validate", str(broken))
    assert validate.returncode == 2 and validate.stdout == ""
    assert validate.stderr.startswith(f"error: {table} keys do not match")
    check = run("check-ideal", str(broken))
    assert (check.returncode, check.stdout, check.stderr) \
        == (2, "", validate.stderr)


_NO_VCOMP_ROW = ("error: vcomp keys do not match the vertically composable "
                 "pairs (missing 1, extra 0)\n")


@pytest.mark.parametrize("fixture, table, argv, error", [
    ("pb2.2cat.json", ("vcomp",), ["check-exact", "--mode", "puppe"],
     _NO_VCOMP_ROW),
    ("pb2.2cat.json", ("vcomp",), ["check-exact", "--mode", "weak-puppe"],
     _NO_VCOMP_ROW),
    ("ct22.fs.json", ("vcomp",), ["check-fs"], _NO_VCOMP_ROW),
    ("ct22.fs.json", ("vcomp",), ["check-fibration", "--direction", "cod"],
     _NO_VCOMP_ROW),
    ("pb2.2cat.json", ("vcomp",),
     ["biisoinserter", "{}", "m00_0to0_e", "m00_0to0_e"], _NO_VCOMP_ROW),
    ("pb2.ideal.json", ("vcomp",), ["equiv-ideals", "{}", "{}"],
     _NO_VCOMP_ROW),
    ("pb1.pf.json", ("source", "vcomp"), ["validate"], _NO_VCOMP_ROW),
    ("pb1.pf.json", ("source", "lwhisker"), ["validate"],
     "error: lwhisker keys do not match the composable (1-cell, 2-cell) "
     "pairs\n"),
], ids=["puppe", "weak-puppe", "check-fs", "check-fibration",
        "biisoinserter", "equiv-ideals", "pf-source-vcomp",
        "pf-source-lwhisker"])
def test_every_command_shape_checks_its_base_first(tmp_path, fixture, table,
                                                   argv, error):
    # the first row of one table is dropped: the command refuses the input
    # with validate's error line, before its header and before any check
    body = json.loads((FIXTURE_DIR / fixture).read_text())
    rows = body
    for key in table:
        rows = rows[key]
    del rows[0]
    broken = tmp_path / fixture
    broken.write_text(json.dumps(body))
    if "{}" not in argv:
        argv = [*argv, "{}"]
    proc = run(*(str(broken) if a == "{}" else a for a in argv))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


def _chaotic_pb2_maximal_ideal():
    t = chaotic_enrichment(partial_bijections(2))
    return json.loads(serialize(two_ideal_to_document(
        t, maximal_two_ideal(t))))


@pytest.mark.parametrize("load, find, moved_to", [
    (_chaotic_pb2_maximal_ideal,
     lambda body: next(r for r in body["lwhisker"]
                       if (r["h"], r["a"]) == ("m01_0to1_e", "c09x09")),
     "c00x00"),
    (lambda: json.loads((FIXTURE_DIR / "ct22.fs.json").read_text()),
     lambda body: body["lwhisker"][5],
     "id_m00_0to0x0"),
], ids=["two-ideal", "factorization-system"])
def test_validate_stops_at_a_lawless_base(tmp_path, load, find, moved_to):
    # one lwhisker value moved to another hom: validate reports the base's
    # failure and runs no check that composes the base's cells
    body = load()
    row = find(body)
    row["ha"] = moved_to
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(body))
    proc = run("validate", str(broken))
    assert proc.returncode == 1 and proc.stderr == ""
    header, cert = [json.loads(line) for line in proc.stdout.splitlines()]
    assert header["command"] == "validate"
    assert cert == {"check": "validate_two_category", "status": "fail",
                    "counterexample": {
                        "clause": "lwhisker-boundary",
                        "cells": {"h": row["h"], "a": row["a"],
                                  "result": moved_to}}}


def test_check_ideal_reports_a_lawless_base(tmp_path):
    # the ideal sweep cannot compose the moved cell; check-ideal then cites
    # the base's broken law instead of crashing
    body = _chaotic_pb2_maximal_ideal()
    row = next(r for r in body["lwhisker"]
               if (r["h"], r["a"]) == ("m01_0to1_e", "c09x09"))
    row["ha"] = "c00x00"
    broken = tmp_path / "broken.ideal.json"
    broken.write_text(json.dumps(body))
    proc = run("check-ideal", str(broken))
    assert proc.returncode == 1 and proc.stderr == ""
    header, cert = [json.loads(line) for line in proc.stdout.splitlines()]
    assert header["command"] == "check-ideal"
    assert cert == {"check": "validate_two_category", "status": "fail",
                    "counterexample": {
                        "clause": "lwhisker-boundary",
                        "cells": {"h": "m01_0to1_e", "a": "c09x09",
                                  "result": "c00x00"}}}


def test_check_ideal_reports_a_composite_missing_from_a_lawless_base(
        tmp_path):
    # a comp1 value off its boundary: the ideal sweep then looks up a
    # composite that is not in the table, which used to end in a KeyError
    # traceback; check-ideal cites the base's broken law instead
    body = json.loads((FIXTURE_DIR / "ct22.fs.json").read_text())
    row = next(r for r in body["comp1"]
               if (r["g"], r["f"]) == ("m13_2to2x2", "m07_1to2x2"))
    row["gf"] = "m13_2to2x2"
    broken = tmp_path / "broken.fs.json"
    broken.write_text(json.dumps(body))
    proc = run("check-ideal", str(broken))
    assert proc.returncode == 1 and proc.stderr == ""
    header, cert = [json.loads(line) for line in proc.stdout.splitlines()]
    assert header["command"] == "check-ideal"
    assert cert == {"check": "validate_two_category", "status": "fail",
                    "counterexample": {
                        "clause": "comp1-boundary",
                        "cells": {"g": "m13_2to2x2", "f": "m07_1to2x2",
                                  "composite": "m13_2to2x2"}}}


#: Three lawless bases, each one table value away from a lawful base, with
#: every table still well shaped: per case, the main document's source, the
#: edited table, the key of its edited row, the new value, and a 1-cell for
#: the commands that take one.  The main document is a two_category, a
#: two_ideal and a factorization_system document in turn.
LAWLESS_BASES = {
    "pb2-comp1": ("pb2.2cat.json", "comp1",
                  {"g": "m11_2to1_11", "f": "m19_2to2_1221"}, "m00_0to0_e",
                  "m11_2to1_11"),
    "chaotic-pb2-maximal-ideal": (
        None, "lwhisker", {"h": "m01_0to1_e", "a": "c09x09"}, "c00x00",
        "m01_0to1_e"),
    "ct22-fs": ("ct22.fs.json", "lwhisker",
                {"h": "m01_0to1x0", "a": "id_m08_2to0x0"}, "id_m00_0to0x0",
                "m01_0to1x0"),
}

#: The value column of an edited table, and its name in the base's fail
#: certificate.
_LAWLESS_VALUE = {"comp1": ("gf", "composite"), "lwhisker": ("ha", "result")}

#: Every command that reads a base, on the case's main document and the
#: documents made from the same edited base: an ideal, a factorization
#: system and a witness bundle.
LAWLESS_COMMANDS = {
    "kernel": ["kernel", "{main}", "{arrow}"],
    "cokernel": ["cokernel", "{main}", "{arrow}"],
    "biisoinserter": ["biisoinserter", "{main}", "{arrow}", "{arrow}"],
    "check-ideal": ["check-ideal", "{main}"],
    "check-closed": ["check-closed", "{main}"],
    "equiv-ideals": ["equiv-ideals", "{ideal}", "{ideal}"],
    "check-fs": ["check-fs", "{main}", "--fs", "{fs}"],
    "check-fibration": ["check-fibration", "{main}", "--fs", "{fs}",
                        "--direction", "cod"],
    "check-rofs": ["check-rofs", "{main}", "--fs", "{fs}"],
    **{f"check-exact-{mode}": ["check-exact", "--mode", mode, "{main}"]
       for mode in ("puppe", "weak-puppe", "grandis", "weak-grandis")},
    "three-pieces": ["three-pieces", "{main}", "{arrow}"],
    "fs-from-ideal": ["fs-from-ideal", "{main}"],
    "ideal-from-fs": ["ideal-from-fs", "{bundle}"],
}

#: The chaotic pb2 witness bundle is written out at about 1.4 GB, so
#: ideal-from-fs, the one command that reads only a bundle, is left out of
#: that case.
_LAWLESS_MATRIX = [(case, command) for case in LAWLESS_BASES
                   for command in LAWLESS_COMMANDS
                   if (case, command) != ("chaotic-pb2-maximal-ideal",
                                          "ideal-from-fs")]


@pytest.fixture(scope="module")
def lawless_docs(tmp_path_factory):
    """Per case, the paths of its main document and of the ideal,
    factorization-system and bundle documents on the same edited base."""
    d = tmp_path_factory.mktemp("lawless")
    paths = {}
    for case, (source, table, key, value, _) in LAWLESS_BASES.items():
        if source is None:
            t = chaotic_enrichment(partial_bijections(2))
            main = two_ideal_to_document(t, maximal_two_ideal(t))
        else:
            main = parse((FIXTURE_DIR / source).read_text())
            t = document_to_two_category(main)
        fs, k, c, eta, epsilon = fs_from_ideal(t, canonical_zero_ideal(t))
        ideal = main if source is None else two_ideal_to_document(
            t, canonical_zero_ideal(t))
        docs = {"main": main, "ideal": ideal, "fs": fs_to_document(t, fs)}
        if source is not None:
            docs["bundle"] = witness_bundle_to_document(
                t, fs, k, c, eta, epsilon)
        paths[case] = {}
        for name, doc in docs.items():
            body = json.loads(serialize(doc))
            rows = body["base"][table] if name == "bundle" else body[table]
            [row] = [r for r in rows
                     if all(r[col] == v for col, v in key.items())]
            row[_LAWLESS_VALUE[table][0]] = value
            path = d / f"{case}.{name}.json"
            path.write_text(json.dumps(body), encoding="utf-8")
            paths[case][name] = str(path)
    return paths


@pytest.mark.parametrize("case, command", _LAWLESS_MATRIX,
                         ids=[f"{c}-{m}" for c, m in _LAWLESS_MATRIX])
def test_every_command_refuses_a_lawless_base(lawless_docs, capsys, case,
                                              command):
    # a verdict on a lawless base certifies nothing: a certificate command
    # prints its header and the base's fail certificate and exits 1, and a
    # command that writes a document exits 2 with one line naming the law
    _, table, key, value, arrow = LAWLESS_BASES[case]
    paths = lawless_docs[case]
    argv = [a.format(arrow=arrow, **paths) for a in LAWLESS_COMMANDS[command]]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    clause = f"{table}-boundary"
    if command in ("fs-from-ideal", "ideal-from-fs"):
        error = ("the bundle's base is not a 2-category"
                 if command == "ideal-from-fs"
                 else "the base breaks a 2-category law")
        assert (code, out, err) == (2, "", f"error: {error}: {clause}\n")
        return
    header, cert = map(json.loads, out.splitlines())
    inputs = [paths["ideal"]] * 2 if command == "equiv-ideals" \
        else [paths["main"]]
    assert (code, err) == (1, "")
    assert header == {"command": argv[0], "cap": None, "inputs": inputs}
    assert cert == {"check": "validate_two_category", "status": "fail",
                    "counterexample": {"clause": clause, "cells": {
                        **key, _LAWLESS_VALUE[table][1]: value}}}


@pytest.mark.parametrize("argv", [
    ["kernel", "pb2.2cat.json", "nosuch"],
    ["cokernel", "pb2.2cat.json", "nosuch"],
    ["three-pieces", "pb2.2cat.json", "nosuch"],
    ["biisoinserter", "pb2.2cat.json", "m00_0to0_e", "nosuch"],
    ["biisoinserter", "pb2.2cat.json", "m00_0to0_e", "m11_2to1_11"],
], ids=["kernel", "cokernel", "three-pieces", "biisoinserter-unknown",
        "biisoinserter-not-parallel"])
def test_arrow_arguments_are_checked_before_the_header(capsys, argv):
    code = cli.main([str(FIXTURE_DIR / a) if a.endswith(".json") else a
                     for a in argv])
    out, err = capsys.readouterr()
    left, right = argv[2], argv[-1]
    error = (f"unknown 1-cell {right}" if right == "nosuch"
             else f"1-cells {left} and {right} are not parallel")
    assert (code, out, err) == (2, "", f"error: {error}\n")


#: The input-selection and budget options each subcommand accepts: --ideal
#: where it reads an ideal document, --fs where it reads a factorization
#: system, --cap where it runs a capped search or prints a header.
SUBCOMMAND_OPTIONS = {
    "validate": {"--cap"},
    "gen": set(),
    "kernel": {"--ideal", "--cap"},
    "cokernel": {"--ideal", "--cap"},
    "biisoinserter": {"--cap"},
    "check-ideal": {"--ideal", "--cap"},
    "check-closed": {"--ideal", "--cap"},
    "equiv-ideals": {"--cap"},
    "check-fs": {"--fs", "--cap"},
    "check-fibration": {"--fs", "--cap"},
    "check-rofs": {"--ideal", "--fs", "--cap"},
    "check-exact": {"--ideal", "--cap"},
    "fs-from-ideal": {"--ideal", "--cap"},
    "ideal-from-fs": set(),
    "three-pieces": {"--ideal", "--cap"},
    "oracle-1cat": {"--cap"},
    "mutate": set(),
}


def test_each_subcommand_accepts_only_the_options_it_reads():
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    accepted = {name: {o for a in p._actions for o in a.option_strings
                       if o in ("--ideal", "--fs", "--cap")}
                for name, p in subparsers.choices.items()}
    assert accepted == SUBCOMMAND_OPTIONS
    assert sum(map(len, accepted.values())) == 25


@pytest.mark.parametrize("argv", [
    ["validate", str(FIXTURE_DIR / "pb2.2cat.json"), "--ideal", "x"],
    ["gen", "terminal", "--cap", "1"],
    ["mutate", str(FIXTURE_DIR / "pb1.pf.json"), "break-compositor",
     "--cap", "1"],
    ["ideal-from-fs", str(FIXTURE_DIR / "pb1.bundle.json"), "--fs", "x"],
    ["kernel", str(FIXTURE_DIR / "pb2.2cat.json"), "m05_1to1_11",
     "--fs", "x"],
], ids=["validate-ideal", "gen-cap", "mutate-cap", "ideal-from-fs-fs",
        "kernel-fs"])
def test_options_a_subcommand_does_not_read_are_refused(argv):
    proc = run(*argv)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    assert proc.stdout == ""
