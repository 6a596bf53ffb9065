"""Acceptance suite: the ten headline guarantees and the timing guards, each
with a runtime bound.

Every test prints exactly one `ACCEPTANCE nn <label>: PASS/FAIL` line on the
live terminal (bypassing capture) and fails if its wall-clock budget is
exceeded, so a plain pytest run doubles as the acceptance report.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from clirun import child_env, run_cli
from family import (CORE, CORE_NAMES, CT22, LD_PB3, PB2, PS2, ZERO_IDEALS,
                    epi_mono_fs)
from test_arrow_tables import CT23_ROUND_TRIP_SHA256
from twoexact import (
    bizero_objects,
    biisoinserter,
    canonical_zero_ideal,
    check_grandis_i,
    check_grandis_ii,
    check_puppe,
    check_weak_two_fibration,
    cyclic_tower,
    find_equivalence_witness,
    fs_from_ideal,
    grandis_exact_1cat,
    ideal_from_fs,
    ideals_equivalent,
    is_biequivalence_over_base,
    is_closed_ideal,
    is_equivalence,
    is_strong_bizero,
    is_two_kernel,
    is_weakly_closed,
    locally_discrete,
    mutate,
    partial_bijections,
    pointed_sets,
    replay_two_category_counterexample,
    replay_two_ideal_counterexample,
    three_pieces,
    transfer_kernel,
    two_cokernels,
    two_kernels,
    validate_fs,
    validate_pseudofunctor,
    validate_pseudonatural,
    validate_rofs,
    validate_two_category,
    validate_two_ideal,
    zero_ideal_1cat,
)
from twoexact.factor import arrow_subcat
from twoexact.formats import (canonicalize, parse, serialize,
                              two_category_to_document)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# Exactness holds on these; the pointed-sets fixture is the designed failure.
EXPECT_EXACT = {"ld_term", "ld_pb1", "ld_pb2", "ld_ct22", "ch_pb1"}


@pytest.fixture
def criterion(capsys, request):
    """Time the test body and print the one-line verdict uncaptured."""
    record = {"num": 0, "label": "", "limit": 0.0}

    class Scope:
        def __call__(self, num, label, limit):
            record.update(num=num, label=label, limit=limit)
            record["start"] = time.monotonic()
            return self

    yield Scope()

    elapsed = time.monotonic() - record.get("start", time.monotonic())
    failed = getattr(request.node, "_acceptance_failed", False)
    ok = not failed and elapsed < record["limit"]
    with capsys.disabled():
        print(f"ACCEPTANCE {record['num']:02d} {record['label']}: "
              f"{'PASS' if ok else 'FAIL'} "
              f"({elapsed:.1f}s, limit {record['limit']:.0f}s)")
    assert elapsed < record["limit"], (
        f"runtime {elapsed:.1f}s exceeded the {record['limit']:.0f}s budget")


def test_criterion_01_structural_validation(criterion):
    criterion(1, "structural validation and mutant targeting", 30.0)
    generated = [locally_discrete(partial_bijections(k)) for k in range(4)]
    generated += [CORE["ld_ct22"], CORE["ld_ps2"], CORE["ch_pb1"]]
    for t in generated:
        assert validate_two_category(t).ok
        assert validate_two_ideal(t, canonical_zero_ideal(t)).ok
    t_fs, fs = epi_mono_fs()
    assert validate_fs(t_fs, fs).ok
    t = CORE["ld_pb2"]
    n = ZERO_IDEALS["ld_pb2"]
    built_fs, k, _, eta, _ = fs_from_ideal(t, n)
    assert validate_fs(t, built_fs).ok

    for seed in range(4):
        mut = mutate(t, "retarget-vcomp", seed)
        cert = validate_two_category(mut)
        assert cert.status == "fail"
        assert replay_two_category_counterexample(mut, cert)

        mut = mutate((t, n), "drop-null-2cell", seed)
        cert = validate_two_ideal(t, mut)
        assert cert.status == "fail"
        assert replay_two_ideal_counterexample(t, mut, cert)
        assert validate_two_category(t).ok  # the base is untouched

        mut = mutate((t, built_fs), "drop-M-translate", seed)
        cert = validate_fs(t, mut)
        assert cert.status == "fail"
        assert validate_fs(t, mut).counterexample == cert.counterexample

        mut = mutate(k, "break-compositor", seed)
        cert = validate_pseudofunctor(mut)
        assert cert.status == "fail"
        assert validate_pseudofunctor(mut).counterexample == \
            cert.counterexample

        for operator in ("swap-structure-cell", "remove-eta-inverse"):
            mut = mutate(eta, operator, seed)
            cert = validate_pseudonatural(mut)
            assert cert.status == "fail"
            assert validate_pseudonatural(mut).counterexample == \
                cert.counterexample
            assert validate_pseudofunctor(mut.source_functor).ok


def test_criterion_02_oracle_cross_validation(criterion):
    criterion(2, "two-dimensional verdicts match the categorical oracle",
              120.0)
    cases = [("ld_pb2", PB2, True), ("ld_ct22", CT22, True),
             ("ld_ps2", PS2, False)]
    for name, base, expected in cases:
        oracle = grandis_exact_1cat(base, zero_ideal_1cat(base))
        report = check_grandis_ii(CORE[name], ZERO_IDEALS[name])
        assert oracle.ok == report.ok == expected, name


def test_criterion_03_closure_triple_equivalence(criterion):
    criterion(3, "the three closedness readings coincide", 60.0)
    from twoexact import weak_closure_triple
    for name in CORE_NAMES:
        b1, b2, b3 = weak_closure_triple(CORE[name], ZERO_IDEALS[name])
        assert b1 == b2 == b3, (name, b1, b2, b3)


def test_criterion_04_weak_closedness_of_the_canonical_ideal(criterion):
    criterion(4, "canonical ideal weakly closed; strong centre closes it",
              60.0)
    for name in CORE_NAMES:
        t, n = CORE[name], ZERO_IDEALS[name]
        assert bizero_objects(t), name  # every listed fixture is 2-pointed
        assert is_weakly_closed(t, n).ok, name
        for z in bizero_objects(t):
            if is_strong_bizero(t, z).ok:
                assert is_closed_ideal(t, canonical_zero_ideal(t, z)).ok, \
                    (name, z)


def test_criterion_05_fibration_theorem_instance(criterion):
    criterion(5, "image factorization is a weak 2-fibration both ways", 60.0)
    t, fs = epi_mono_fs()
    for direction in ("dom", "cod"):
        cert = check_weak_two_fibration(t, fs, direction)
        assert cert.ok, (direction, cert.counterexample)


def test_criterion_06_main_theorem_round_trips(criterion):
    criterion(6, "ideal-to-factorization round trips", 300.0)
    t, n = CORE["ld_pb2"], ZERO_IDEALS["ld_pb2"]
    fs, k, c, eta, epsilon = fs_from_ideal(t, n)
    assert check_grandis_i(t, fs, k, c, eta, epsilon).ok
    recovered = ideal_from_fs(t, fs, k)
    assert ideals_equivalent(t, n, recovered).ok
    witness = find_equivalence_witness(t, n, recovered)
    assert witness is not None
    for f in t.one_ids:
        pres = two_kernels(t, n, f)[0]
        moved = transfer_kernel(t, n, recovered, witness, pres)
        assert is_two_kernel(t, recovered, moved).ok, f


def test_criterion_07_biisoinserter_kernel_agreement(criterion):
    criterion(7, "kernel apexes agree with the invertibility bilimit", 120.0)
    for name in CORE_NAMES:
        t, n = CORE[name], ZERO_IDEALS[name]
        for f in t.one_ids:
            a, b = t.src1[f], t.tgt1[f]
            null_f = next(m for m in sorted(n.null1)
                          if t.src1[m] == a and t.tgt1[m] == b)
            inserted = {(p.apex, p.leg) for p in biisoinserter(t, f, null_f)}
            kernels = {(p.apex, p.leg) for p in two_kernels(t, n, f)}
            assert inserted == kernels, (name, f)


def test_criterion_08_first_isomorphism_pieces(criterion):
    criterion(8, "middle piece of every arrow is an equivalence", 120.0)
    passing = {name for name in CORE_NAMES
               if check_grandis_ii(CORE[name], ZERO_IDEALS[name]).ok}
    assert passing == EXPECT_EXACT
    for name in passing:
        t, n = CORE[name], ZERO_IDEALS[name]
        for f in t.one_ids:
            pieces = three_pieces(t, n, f)
            assert is_equivalence(t, pieces.middle).ok, (name, f)
            assert t.is_invertible2(pieces.composite_iso), (name, f)


def test_criterion_09_quotients_match_subobjects(criterion):
    criterion(9, "leg classes orthogonal; kernel/cokernel sides "
                 "biequivalent over the base", 300.0)
    passing = {name for name in CORE_NAMES
               if check_grandis_ii(CORE[name], ZERO_IDEALS[name],
                                   weak=True).ok}
    assert passing == EXPECT_EXACT
    for name in passing:
        t, n = CORE[name], ZERO_IDEALS[name]
        left, right = set(), set()
        for f in t.one_ids:
            left.update(p.leg for p in two_cokernels(t, n, f))
            right.update(p.leg for p in two_kernels(t, n, f))
        assert validate_rofs(t, n, tuple(sorted(left)),
                             tuple(sorted(right))).ok, name
        fs, k, c, eta, epsilon = fs_from_ideal(t, n)
        cert = is_biequivalence_over_base(
            arrow_subcat(t, fs.left_class),
            arrow_subcat(t, fs.right_class),
            k, c, eta, epsilon)
        assert cert.ok, (name, cert.counterexample)


def test_criterion_10_format_laws_and_cli_determinism(criterion):
    criterion(10, "formats round-trip and the CLI is reproducible", 10.0)
    shipped = sorted(FIXTURE_DIR.glob("*.json"))
    assert shipped, "no shipped fixture documents found"
    names = {p.name for p in shipped}
    assert {"pb2.2cat.json", "ps2.2cat.json", "pb3.2cat.json"} <= names
    for path in shipped:
        text = path.read_text(encoding="utf-8")
        doc = parse(text)
        assert serialize(doc) == text, path.name
        canon = canonicalize(doc)
        assert serialize(canonicalize(canon)) == serialize(canon), path.name

    def run(*argv):
        proc = run_cli(*argv)
        return proc.returncode, proc.stdout

    target = str(FIXTURE_DIR / "pb2.2cat.json")
    first = run("check-exact", "--mode", "grandis", target)
    second = run("check-exact", "--mode", "grandis", target)
    assert first == second and first[0] == 0
    gen_a = run("gen", "locally-discrete", "partial-bijections", "2")
    gen_b = run("gen", "locally-discrete", "partial-bijections", "2")
    assert gen_a == gen_b
    assert gen_a[1] == Path(target).read_text(encoding="utf-8")


def test_guard_11_ideal_axioms_on_pb3(criterion):
    # the ax4 sweep walks 11.5M instances on pb3 and checks each distinct
    # pair of comparison rows once
    n = canonical_zero_ideal(LD_PB3)
    criterion(11, "ideal axioms on the canonical ideal of pb3", 5.0)
    assert validate_two_ideal(LD_PB3, n).ok


def test_guard_12_puppe_refutation_on_ps3(criterion):
    # the kernel search reads cached null cones and leg fibres, and decides
    # later candidates by equivalence: 0.2-0.3 s on a 2-vCPU host, against
    # 0.6-0.9 s checking every candidate and 2.0-2.5 s for the plain loops
    t = locally_discrete(pointed_sets(3))
    criterion(12, "puppe exactness refuted on generated ps3", 4.0)
    report = check_puppe(t)
    assert report.status == "fail"
    name, cert = report.checks[-1]
    assert (name, cert.counterexample) == ("factorization", {
        "clause": "no-cokernel-kernel-factorization",
        "cells": {"one_cell": "m018_2to1_11"}})


def test_guard_13_validation_of_pb4(criterion):
    # pb4 has 499 1-cells and is locally thin: the boundary clauses and the
    # 1-cell laws decide, with associativity checked on 58 generators.
    # 1.4-1.6 s with generation on a 2-vCPU host, against about 61 s for
    # the full sweep
    criterion(13, "structural validation of generated pb4", 6.0)
    t = locally_discrete(partial_bijections(4))
    cert = validate_two_category(t)
    assert cert.ok, cert.counterexample
    assert cert.witness == {"objects": 5, "one_cells": 499, "two_cells": 499}


#: Run the interpreter on the given arguments in a child process and print
#: the child's peak resident set size (KB on Linux).  A process's
#: ``ru_maxrss`` keeps the peak of the image it replaced at exec, so a
#: command started straight from the test process would report the test
#: process's size; this small process starts it instead.
_PEAK_RSS = """
import resource, subprocess, sys
code = subprocess.call([sys.executable, *sys.argv[1:]])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def test_guard_14_streamed_bundle_memory_on_ct23(criterion, tmp_path):
    # the 31 MB bundle goes to its file in pieces: a 76 MB peak and 1.2 s
    # on a 2-vCPU host with Python 3.11, against 210 MB and 1.6-1.7 s when
    # the whole text was built first
    source = tmp_path / "ct23.2cat.json"
    bundle = tmp_path / "ct23.bundle.json"
    source.write_text(serialize(two_category_to_document(
        locally_discrete(cyclic_tower(2, 3)))), encoding="utf-8")
    criterion(14, "fs-from-ideal on generated ct23 in bounded memory", 6.0)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "-m", "twoexact", "fs-from-ideal",
         str(source), "--out", str(bundle)], capture_output=True, text=True,
        env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(bundle.read_bytes()).hexdigest() \
        == CT23_ROUND_TRIP_SHA256[0]
    peak_mb = int(proc.stdout) / 1024
    assert peak_mb < 120, f"peak RSS {peak_mb:.0f} MB"


def test_guard_15_puppe_on_pb4(criterion):
    # later kernel candidates are decided by one equivalence test against
    # the first verified kernel: 2.6-3.8 s with generation on a 2-vCPU host,
    # against 8.2-8.3 s with the full universal-property check on each
    criterion(15, "puppe exactness of generated pb4", 6.0)
    t = locally_discrete(partial_bijections(4))
    report = check_puppe(t)
    assert report.ok, [(name, cert.counterexample)
                       for name, cert in report.checks if not cert.ok]


#: The bundle of chaotic pb2, built in process with nothing written.
_CHAOTIC_PB2_BUNDLE = """
from twoexact import (canonical_zero_ideal, chaotic_enrichment, fs_from_ideal,
                      partial_bijections)
t = chaotic_enrichment(partial_bijections(2))
fs_from_ideal(t, canonical_zero_ideal(t))
"""


def test_guard_16_chaotic_pb2_bundle_memory(criterion):
    # the pseudo-arrow 2-categories store no vcomp or whisker table, and
    # nothing reads the compositors of the composites c∘k and k∘c: an
    # 817 MB peak, against 1,975 MB when vcomp was built and every
    # composite compositor pasted.  Each induced square 2-cell is solved
    # once (exact._lift): 15.1-19.0 s on a 2-vCPU host with Python 3.11,
    # against 27.6-29.8 s when every table entry solved its own, in
    # alternating runs, so the 15 s limit is not always met on that host
    criterion(16, "fs_from_ideal on chaotic pb2 in bounded memory", 15.0)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "-c", _CHAOTIC_PB2_BUNDLE],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / 1024
    assert peak_mb <= 1300, f"peak RSS {peak_mb:.0f} MB"
