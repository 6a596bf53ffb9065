"""Command-line interface, exercised end to end through subprocesses."""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from clirun import run_cli as run
from family import LD_PB2, ZERO_IDEALS
from twoexact.cli import _build_parser
from twoexact.formats import parse, serialize, two_ideal_to_document

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


def test_small_cap_is_reported_as_inconclusive(files):
    proc = run("kernel", str(files["pb2"]), "m05_1to1_11", "--cap", "2")
    assert proc.returncode == 3
    out = last_json(proc)
    assert out["status"] == "inconclusive"
    assert "cap 2 exceeded" in out["detail"]


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


@pytest.mark.parametrize("edit", [_drop_ob, _drop_one, _bogus_one,
                                  _drop_compositor_row],
                         ids=["drop-ob", "drop-one", "bogus-one",
                              "drop-compositor-row"])
@pytest.mark.parametrize("command", ["validate", "check-fs", "ideal-from-fs"])
def test_malformed_bundle_functor_is_an_input_error(tmp_path, command, edit):
    body = json.loads((FIXTURE_DIR / "pb1.bundle.json").read_text())
    edit(body)
    broken = tmp_path / "broken.bundle.json"
    broken.write_text(json.dumps(body))
    proc = run(command, str(broken))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


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
