"""The benchmark's workloads: their inputs, job lists and known answers.

A job is one ``twoexact`` command line.  Each workload writes its generated
inputs (the timed set-up), lists its jobs in a seed-dependent order, and
computes the exit code every job must give from a source independent of the
command under test.  Known answers run after the measured passes, never
inside them.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

FIXTURES = "fixtures"
PASS, FAIL = 0, 1


@dataclass(frozen=True)
class Job:
    """One command line, the metric it counts towards and its known answer.

    ``answer`` names an entry of the workload's known answers.  ``replay``
    names the kind of a mutant document whose failing certificate must
    replay through the package's counterexample replay.
    """

    name: str
    command: str
    argv: tuple[str, ...]
    answer: str
    out: str | None = None
    replay: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (package, work dir) -> None; generates and writes the inputs
    write_inputs: Callable[[dict, str], None]
    # (work dir, seed) -> jobs in pass order
    jobs: Callable[[str, int], list[Job]]
    # (package, work dir) -> answer name -> expected exit code
    answers: Callable[[dict, str], dict[str, int]]


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, f"{name}.json")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_two_category(pkg: dict, path: str, two_category) -> None:
    formats = pkg["formats"]
    _write(path, formats.serialize(
        formats.two_category_to_document(two_category)))


def _load_two_category(pkg: dict, path: str):
    formats = pkg["formats"]
    return formats.document_to_two_category(formats.parse(_read(path)))


def _exit_code(cert) -> int:
    return PASS if cert.ok else FAIL


def _oracle(pkg: dict, path: str, underlying, mode: str) -> int:
    """Exit code of ``check-exact --mode mode`` on the locally discrete
    2-category at ``path``, from the 1-categorical oracle on its underlying
    1-category.  The document must be that 1-category's locally discrete
    enrichment, or the oracle does not apply."""
    gen, onecat = pkg["gen"], pkg["onecat"]
    if _load_two_category(pkg, path) != gen.locally_discrete(underlying):
        raise ValueError(f"{path} is not the locally discrete enrichment "
                         f"of the oracle's 1-category")
    if mode == "puppe":
        return _exit_code(onecat.puppe_exact_1cat(underlying))
    return _exit_code(onecat.grandis_exact_1cat(
        underlying, onecat.zero_ideal_1cat(underlying)))


def _shuffled(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# ideal-sweep
# ---------------------------------------------------------------------------

def _sweep_inputs(pkg: dict, work: str) -> None:
    gen = pkg["gen"]
    _write_two_category(pkg, os.path.join(work, "ct33.2cat.json"),
                        gen.locally_discrete(gen.cyclic_tower(3, 3)))


def _sweep_jobs(work: str, seed: int) -> list[Job]:
    ct33 = os.path.join(work, "ct33.2cat.json")
    jobs = [Job(f"check-exact/{mode}/{name}", "check_exact",
                ("check-exact", "--mode", mode, path), f"oracle-{name}")
            for name, path in (("pb3", fixture("pb3.2cat")), ("ct33", ct33))
            for mode in ("puppe", "weak-puppe")]
    jobs.append(Job("check-exact/grandis/pb2-ideal", "check_exact",
                    ("check-exact", "--mode", "grandis",
                     fixture("pb2.ideal")), "oracle-pb2-ideal"))
    jobs.append(Job("validate/pb3", "validate",
                    ("validate", fixture("pb3.2cat")), "by-construction"))
    return _shuffled(jobs, seed)


def _pb2_ideal_answer(pkg: dict) -> int:
    """Grandis exactness of the pb2 ideal fixture from the oracle.  The
    fixture's null 1-cells must be exactly the zero ideal of the underlying
    1-category, which is the ideal the oracle is given."""
    gen, onecat, formats = pkg["gen"], pkg["onecat"], pkg["formats"]
    pb2 = gen.partial_bijections(2)
    t, n = formats.document_to_two_ideal(
        formats.parse(_read(fixture("pb2.ideal"))))
    zero = onecat.zero_ideal_1cat(pb2)
    if (t != gen.locally_discrete(pb2)
            or set(n.null_one_cells) != set(zero.null)):
        raise ValueError("pb2.ideal is not the zero ideal of pb2")
    return _exit_code(onecat.grandis_exact_1cat(pb2, zero))


def _sweep_answers(pkg: dict, work: str) -> dict[str, int]:
    gen = pkg["gen"]
    return {
        "oracle-pb3": _oracle(pkg, fixture("pb3.2cat"),
                              gen.partial_bijections(3), "puppe"),
        "oracle-ct33": _oracle(pkg, os.path.join(work, "ct33.2cat.json"),
                               gen.cyclic_tower(3, 3), "puppe"),
        "oracle-pb2-ideal": _pb2_ideal_answer(pkg),
        "by-construction": PASS,
    }


# ---------------------------------------------------------------------------
# fs-roundtrip
# ---------------------------------------------------------------------------

def _roundtrip_inputs_of(work: str) -> tuple[tuple[str, str, bool], ...]:
    """Name, path and whether ``check-fs`` runs on its bundle, for each
    input of the round trip.  ``check-fs`` on ct23 takes about a minute, so
    it is left out."""
    return (("pb2", fixture("pb2.2cat"), True),
            ("ct22", fixture("ct22.2cat"), True),
            ("ch_pb1", fixture("ch_pb1.2cat"), True),
            ("ct23", os.path.join(work, "ct23.2cat.json"), False))


def _roundtrip_inputs(pkg: dict, work: str) -> None:
    gen, formats, ideal = pkg["gen"], pkg["formats"], pkg["ideal"]
    _write_two_category(pkg, os.path.join(work, "ct23.2cat.json"),
                        gen.locally_discrete(gen.cyclic_tower(2, 3)))
    for name, path, _ in _roundtrip_inputs_of(work):
        t = _load_two_category(pkg, path)
        _write(os.path.join(work, f"{name}.canonical.ideal.json"),
               formats.serialize(formats.two_ideal_to_document(
                   t, ideal.canonical_zero_ideal(t))))


def _roundtrip_jobs(work: str, seed: int) -> list[Job]:
    chains = []
    for name, path, check_fs in _roundtrip_inputs_of(work):
        bundle = os.path.join(work, f"{name}.bundle.json")
        recovered = os.path.join(work, f"{name}.recovered.ideal.json")
        chain = [
            Job(f"fs-from-ideal/{name}", "fs_from_ideal",
                ("fs-from-ideal", path, "--out", bundle), "theorem",
                out=bundle),
            Job(f"ideal-from-fs/{name}", "ideal_from_fs",
                ("ideal-from-fs", bundle, "--out", recovered), "theorem",
                out=recovered),
            Job(f"equiv-ideals/{name}", "equiv_ideals",
                ("equiv-ideals", recovered,
                 os.path.join(work, f"{name}.canonical.ideal.json")),
                "theorem"),
        ]
        if check_fs:
            chain.append(Job(f"check-fs/{name}", "check_fs",
                             ("check-fs", bundle), "theorem"))
        chains.append(chain)
    return [job for chain in _shuffled(chains, seed) for job in chain]


def _roundtrip_answers(pkg: dict, work: str) -> dict[str, int]:
    # A closed ideal's factorization system recovers an equivalent ideal,
    # and the bundle built from it passes check_grandis_i (the paper's
    # main equivalence); every step therefore exits 0.
    return {"theorem": PASS}


# ---------------------------------------------------------------------------
# validate-refute
# ---------------------------------------------------------------------------

#: Mutation operator, the shipped fixture it mutates, and the document kind
#: whose failing certificate must replay (None where no replay exists).
MUTATIONS = (("retarget-vcomp", "pb3.2cat", "two_category"),
             ("drop-null-2cell", "pb2.ideal", "two_ideal"),
             ("break-compositor", "pb1.pf", None),
             ("drop-M-translate", "ct22.fs", None),
             ("swap-structure-cell", "pb1.pn", None),
             ("remove-eta-inverse", "pb1.pn", None))
MUTATION_SEEDS = 2


def _mutation_seeds(seed: int) -> list[int]:
    return random.Random(seed).sample(range(1000), MUTATION_SEEDS)


def _refute_inputs(pkg: dict, work: str) -> None:
    gen = pkg["gen"]
    _write_two_category(pkg, os.path.join(work, "ps3.2cat.json"),
                        gen.locally_discrete(gen.pointed_sets(3)))


def _refute_jobs(work: str, seed: int) -> list[Job]:
    jobs = [
        Job("validate/pb3", "validate", ("validate", fixture("pb3.2cat")),
            "by-construction"),
        Job("check-ideal/pb3", "check_ideal",
            ("check-ideal", fixture("pb3.2cat")), "by-construction"),
        Job("check-exact/puppe/ps2", "check_exact",
            ("check-exact", "--mode", "puppe", fixture("ps2.2cat")),
            "oracle-ps2"),
        Job("check-exact/puppe/ps3", "check_exact",
            ("check-exact", "--mode", "puppe",
             os.path.join(work, "ps3.2cat.json")), "oracle-ps3"),
    ]
    chains = [[job] for job in jobs]
    for operator, source, kind in MUTATIONS:
        for mseed in _mutation_seeds(seed):
            mutant = os.path.join(work, f"{operator}.{mseed}.json")
            chains.append([
                Job(f"mutate/{operator}/{mseed}", "mutate",
                    ("mutate", fixture(source), operator, "--seed",
                     str(mseed), "--out", mutant), "mutant-written",
                    out=mutant),
                Job(f"validate/{operator}/{mseed}", "validate",
                    ("validate", mutant), "mutant-rejected", replay=kind),
            ])
    return [job for chain in _shuffled(chains, seed) for job in chain]


def _refute_answers(pkg: dict, work: str) -> dict[str, int]:
    gen = pkg["gen"]
    return {
        "by-construction": PASS,
        "oracle-ps2": _oracle(pkg, fixture("ps2.2cat"), gen.pointed_sets(2),
                              "puppe"),
        "oracle-ps3": _oracle(pkg, os.path.join(work, "ps3.2cat.json"),
                              gen.pointed_sets(3), "puppe"),
        # every operator is built to defeat its target validator
        "mutant-written": PASS,
        "mutant-rejected": FAIL,
    }


def replays(pkg: dict, kind: str, path: str, stdout: str) -> bool:
    """Whether the failing certificate in a mutant's ``validate`` output
    replays on the mutant through the package's own replay function."""
    core, formats, ideal = pkg["core"], pkg["formats"], pkg["ideal"]
    doc = formats.parse(_read(path))
    check = ("validate_two_category" if kind == "two_category"
             else "validate_two_ideal")
    try:
        certs = [json.loads(line) for line in stdout.splitlines()[1:]]
    except json.JSONDecodeError:
        return False
    failing = [c for c in certs if c.get("check") == check
               and c.get("status") == "fail"]
    if len(failing) != 1:
        return False
    try:
        cert = core.Certificate(**failing[0])
        if kind == "two_category":
            return core.replay_two_category_counterexample(
                formats.document_to_two_category(doc), cert)
        t, n = formats.document_to_two_ideal(doc)
        return ideal.replay_two_ideal_counterexample(t, n, cert)
    except (TypeError, KeyError, core.InputError):
        # fields or cells the replay cannot read: the claim does not replay
        return False


def input_sizes(path: str) -> dict[str, Any]:
    """Bytes of a document, and objects, 1-cells and 2-cells of the first
    2-category it holds (the base of a bundle or ideal, the source of a
    pseudofunctor)."""
    data = json.loads(_read(path))
    todo = [data]
    while todo:
        node = todo.pop(0)
        if "objects" in node and "one_cells" in node:
            return {"bytes": os.path.getsize(path),
                    "objects": len(node["objects"]),
                    "one_cells": len(node["one_cells"]),
                    "two_cells": len(node.get("two_cells", ()))}
        todo.extend(v for v in node.values() if isinstance(v, dict))
    return {"bytes": os.path.getsize(path)}


WORKLOADS = {w.name: w for w in (
    Workload("ideal-sweep",
             "kernel and cokernel sweeps, closedness and the iso2 "
             "factorization search on pb3 and ct33; no factor, pseudo or "
             "large serialization work",
             _sweep_inputs, _sweep_jobs, _sweep_answers),
    Workload("fs-roundtrip",
             "constructive side: arrow_subcat, functor builders, pseudo "
             "checks and multi-MB bundles written and re-read by formats",
             _roundtrip_inputs, _roundtrip_jobs, _roundtrip_answers),
    Workload("validate-refute",
             "law validation in core and ideal plus failing verdicts: "
             "early-exit refutations, a full ps3 sweep and six mutants",
             _refute_inputs, _refute_jobs, _refute_answers),
)}
