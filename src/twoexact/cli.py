"""Command-line front-end.

One subcommand per verifier, search, or construction; inputs are
interchange files, outputs are a deterministic certificate stream (one
JSON document per line) or, for the constructive subcommands, an
interchange document.  Exit codes: 0 all checks pass, 1 a check failed,
2 input or schema error, 3 inconclusive (search cap exceeded).  The
configured cap is printed in every certificate stream's header document.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Any, Callable, Sequence

from .closure import is_closed_ideal
from .core import (CapExceeded, Certificate, InputError, TwoCategory,
                   validate_two_category)
from .exact import (check_grandis_i, check_grandis_ii, check_puppe,
                    fs_from_ideal, ideal_from_fs, three_pieces)
from .factor import (FactorizationSystem, check_weak_two_fibration,
                     validate_fs, validate_rofs)
from .formats import (Document, _body_fs, document_to_finite_category,
                      document_to_fs, document_to_one_ideal,
                      document_to_pseudofunctor, document_to_pseudonatural,
                      document_to_two_category, document_to_two_ideal,
                      document_to_witness_bundle, finite_category_to_document,
                      fs_to_document, parse, pseudofunctor_to_document,
                      pseudonatural_to_document, serialize_pieces,
                      two_category_to_document, two_ideal_to_document,
                      witness_bundle_base, witness_bundle_to_document)
from .gen import (MUTATION_OPERATORS, banded, chaotic_enrichment,
                  cyclic_tower, locally_discrete, mutate, partial_bijections,
                  pointed_sets, terminal_category, thicken)
from .ideal import TwoIdeal, canonical_zero_ideal, validate_two_ideal
from .idealeq import ideals_equivalent
from .limits import (_check_arrows, _check_pair, biisoinserter, two_cokernels,
                     two_kernels)
from .onecat import (FiniteCategory, grandis_exact_1cat, puppe_exact_1cat,
                     validate_category, validate_one_ideal, zero_ideal_1cat)
from .pseudo import validate_pseudofunctor, validate_pseudonatural

PASS, FAIL, INPUT_ERROR, INCONCLUSIVE = 0, 1, 2, 3


def _emit(obj: Any) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ": ")))


def _header(command: str, cap: int | None, inputs: Sequence[str]) -> None:
    _emit({"command": command, "cap": cap, "inputs": list(inputs)})


def _cap(text: str) -> int:
    """A ``--cap`` value: a number of instances, at least 0."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"N must be at least 0, got {cap}")
    return cap


def _status_exit(status: str) -> int:
    return {"pass": PASS, "fail": FAIL, "inconclusive": INCONCLUSIVE}[status]


def _worst(codes: Sequence[int]) -> int:
    for code in (INPUT_ERROR, FAIL, INCONCLUSIVE):
        if code in codes:
            return code
    return PASS


def _load(path: str) -> Document:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse(text)


def _write_product(doc: Document, out: str | None) -> None:
    """Write the document's normal form to stdout, or to the file ``out``,
    piece by piece as it is made; a write to ``out`` that fails removes the
    partial file."""
    pieces = serialize_pieces(doc)
    if out is None:
        sys.stdout.writelines(pieces)
        return
    try:
        fh = open(out, "w", encoding="utf-8")
        try:
            with fh:
                fh.writelines(pieces)
        except BaseException:
            os.remove(out)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from None


def _lawless(t: TwoCategory, refuse: str | None = None) -> Certificate | None:
    """The lawful-base gate, run on a base as soon as it is read, so before
    the header: None on a 2-category, else the fail certificate of the first
    broken law, which a certificate command prints in place of a verdict
    that would certify nothing; or, given ``refuse`` (the error of a command
    that writes a document), an :class:`InputError` naming that law.
    It reads the verdict memoized on ``t``, whose shape check raises
    :class:`InputError` on a malformed table."""
    cert = validate_two_category(t)
    if cert.ok:
        return None
    if refuse is not None:
        raise InputError(f"{refuse}: {cert.counterexample['clause']}")
    return cert


def _base_and_ideal(args) -> tuple[TwoCategory, TwoIdeal | None]:
    """The working 2-category, gated first, and ideal: from the main file
    when it is a two_ideal document, from --ideal when given (its base
    tables must match the main file's), and else the canonical bizero
    ideal, which a lawless base does not get (None)."""
    doc = _load(args.file)
    own = doc.kind == "two_ideal" and args.ideal is None
    t, n = (document_to_two_ideal(doc) if own
            else (document_to_two_category(doc), None))
    lawless = _lawless(t)
    if args.ideal is not None:
        t2, n = document_to_two_ideal(_load(args.ideal))
        if t2 != t:
            raise InputError("the ideal document's base tables do not "
                             "match the main input")
    return t, canonical_zero_ideal(t) if n is None and not lawless else n


def _fs_file(args, t: TwoCategory) -> FactorizationSystem:
    """The factorization system of the --fs document, a
    factorization_system document or a witness bundle over ``t``; of a
    bundle only the base and the system are read."""
    if args.fs is None:
        raise InputError("this subcommand needs --fs")
    doc = _load(args.fs)
    if doc.kind == "witness-bundle":
        t2, fs = witness_bundle_base(doc), _body_fs(doc.body)
    else:
        t2, fs = document_to_fs(doc)
    if t2 != t:
        raise InputError("the factorization-system document's base tables "
                         "do not match the main input")
    return fs


def _fs_of(args, doc: Document) -> tuple[TwoCategory, FactorizationSystem]:
    """The base, gated first, and factorization system: the main document's
    own when it is a factorization_system document and no --fs is given,
    else its base with the --fs document's system."""
    own = doc.kind == "factorization_system" and args.fs is None
    t, fs = (document_to_fs(doc) if own
             else (document_to_two_category(doc), None))
    _lawless(t)
    return t, fs if own else _fs_file(args, t)


def _verdict(cert: Certificate) -> int:
    _emit(cert.to_json_dict())
    return _status_exit(cert.status)


def _certify(args, t: TwoCategory, run: Callable[[], int],
             *inputs: str) -> int:
    """Print the header of a command that read the base ``t``; then, on a
    lawful ``t``, ``run()`` its check and return the exit code it returns,
    and else print the base's fail certificate (exit 1)."""
    broken = _lawless(t)
    _header(args.command, args.cap, [args.file, *inputs])
    return _verdict(broken) if broken else run()


def _report(report) -> int:
    for _, cert in report.checks:
        _emit(cert.to_json_dict())
    _emit({"mode": report.mode, "status": report.status})
    return _status_exit(report.status)


def _found(head: dict[str, str], name: str, presentations) -> int:
    """Print the verified presentations under ``name``; fail on none."""
    _emit({**head, name: [dataclasses.asdict(p) for p in presentations]})
    return PASS if presentations else FAIL


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    doc = _load(args.file)
    certs: list[Certificate] = []
    if doc.kind == "two_category":
        certs.append(validate_two_category(document_to_two_category(doc)))
    elif doc.kind == "two_ideal":
        # the ideal and factorization checks compose cells that only a
        # lawful base makes composable, so they run on a passing base only
        t, n = document_to_two_ideal(doc)
        certs.append(validate_two_category(t))
        if certs[-1].ok:
            certs.append(validate_two_ideal(t, n))
    elif doc.kind == "factorization_system":
        t, fs = document_to_fs(doc)
        certs.append(validate_two_category(t))
        if certs[-1].ok:
            certs.append(validate_fs(t, fs, args.cap))
    elif doc.kind == "pseudofunctor":
        certs.append(validate_pseudofunctor(document_to_pseudofunctor(doc)))
    elif doc.kind == "pseudonatural":
        certs.append(
            validate_pseudonatural(document_to_pseudonatural(doc)))
    elif doc.kind == "witness-bundle":
        # the rebuild refuses a lawless base, whose certificate is the report;
        # the unit and counit paste compositors of K and C, so they are
        # checked only when both functors pass
        base = witness_bundle_base(doc)
        certs.append(validate_two_category(base))
        if certs[-1].ok:
            t, fs, k, c, eta, epsilon = document_to_witness_bundle(doc, base)
            certs += [validate_fs(t, fs, args.cap), validate_pseudofunctor(k),
                      validate_pseudofunctor(c)]
            if certs[-1].ok and certs[-2].ok:
                certs += [validate_pseudonatural(eta),
                          validate_pseudonatural(epsilon)]
    elif doc.kind == "finite_category":
        certs.append(validate_category(document_to_finite_category(doc)))
    elif doc.kind == "one_ideal":
        c1, ideal = document_to_one_ideal(doc)
        certs.append(validate_category(c1))
        certs.append(validate_one_ideal(c1, ideal))
    _header("validate", args.cap, [args.file])
    return _worst([_verdict(cert) for cert in certs])


_GENERATORS = {
    "terminal": (0, terminal_category),
    "partial-bijections": (1, partial_bijections),
    "cyclic-tower": (2, cyclic_tower),
    "pointed-sets": (1, pointed_sets),
}

#: Enrichments of a 1-category generator, with their integer arguments
#: read before the wrapped recipe (``banded K <recipe>``).
_WRAPPERS = {
    "locally-discrete": (0, locally_discrete),
    "chaotic": (0, chaotic_enrichment),
    "banded": (1, banded),
    "thicken": (1, thicken),
}


def _integers(head: str, arity: int, tokens: list[str]) -> list[int]:
    if len(tokens) < arity:
        raise InputError(f"{head} needs {arity} integer argument(s)")
    nums = []
    for _ in range(arity):
        tok = tokens.pop(0)
        try:
            nums.append(int(tok))
        except ValueError:
            raise InputError(f"{head}: not an integer: {tok!r}") from None
    return nums


def _gen_entity(tokens: list[str]):
    if not tokens:
        raise InputError("empty generator recipe")
    head = tokens.pop(0)
    if head in _WRAPPERS:
        arity, fn = _WRAPPERS[head]
        nums = _integers(head, arity, tokens)
        inner = _gen_entity(tokens)
        if not isinstance(inner, FiniteCategory):
            raise InputError(f"{head} wraps a 1-category generator")
        return fn(inner, *nums)
    if head not in _GENERATORS:
        known = ", ".join(sorted(_GENERATORS) + sorted(_WRAPPERS))
        raise InputError(f"unknown generator {head!r} (known: {known})")
    arity, fn = _GENERATORS[head]
    return fn(*_integers(head, arity, tokens))


def _cmd_gen(args) -> int:
    tokens = list(args.recipe)
    entity = _gen_entity(tokens)
    if tokens:
        raise InputError(f"trailing generator arguments: {' '.join(tokens)}")
    if isinstance(entity, FiniteCategory):
        doc = finite_category_to_document(entity)
    else:
        doc = two_category_to_document(entity)
    _write_product(doc, args.out)
    return PASS


def _cmd_presentations(args) -> int:
    """``kernel`` and ``cokernel``: every verified presentation."""
    t, n = _base_and_ideal(args)
    _check_arrows(t, args.arrow)
    search = two_kernels if args.command == "kernel" else two_cokernels
    return _certify(args, t, lambda: _found(
        {"arrow": args.arrow}, f"{args.command}s",
        search(t, n, args.arrow, cap=args.cap)))


def _cmd_biisoinserter(args) -> int:
    t = document_to_two_category(_load(args.file))
    _lawless(t)
    _check_pair(t, args.left, args.right)
    return _certify(args, t, lambda: _found(
        {"left": args.left, "right": args.right}, "inserters",
        biisoinserter(t, args.left, args.right, cap=args.cap)))


def _cmd_check_ideal(args) -> int:
    t, n = _base_and_ideal(args)
    return _certify(args, t, lambda: _verdict(validate_two_ideal(t, n)))


def _cmd_check_closed(args) -> int:
    t, n = _base_and_ideal(args)
    return _certify(args, t, lambda: _verdict(
        is_closed_ideal(t, n, args.cap)))


def _cmd_equiv_ideals(args) -> int:
    t, n = document_to_two_ideal(_load(args.file))
    _lawless(t)
    t2, n2 = document_to_two_ideal(_load(args.file2))
    if t2 != t:
        raise InputError("the two ideal documents have different base "
                         "tables")
    return _certify(args, t, lambda: _verdict(
        ideals_equivalent(t, n, n2, args.cap)), args.file2)


def _cmd_check_fs(args) -> int:
    doc = _load(args.file)
    if doc.kind == "witness-bundle":
        t = witness_bundle_base(doc)
        bundle = None if _lawless(t) else document_to_witness_bundle(doc, t)
        return _certify(args, t, lambda: _verdict(
            check_grandis_i(*bundle, cap=args.cap)))
    t, fs = _fs_of(args, doc)
    return _certify(args, t, lambda: _verdict(validate_fs(t, fs, args.cap)))


def _cmd_check_fibration(args) -> int:
    t, fs = _fs_of(args, _load(args.file))
    return _certify(args, t, lambda: _verdict(
        check_weak_two_fibration(t, fs, args.direction, args.cap)))


def _cmd_check_rofs(args) -> int:
    t, n = _base_and_ideal(args)
    fs = _fs_file(args, t)
    return _certify(args, t, lambda: _verdict(
        validate_rofs(t, n, fs.left_class, fs.right_class, args.cap)))


def _cmd_check_exact(args) -> int:
    weak = args.mode.startswith("weak-")
    if args.mode.endswith("puppe"):
        t = document_to_two_category(_load(args.file))
        _lawless(t)
        check = functools.partial(check_puppe, t)
    else:
        t, n = _base_and_ideal(args)
        check = functools.partial(check_grandis_ii, t, n)
    return _certify(args, t, lambda: _report(check(weak=weak, cap=args.cap)))


def _cmd_fs_from_ideal(args) -> int:
    t, n = _base_and_ideal(args)
    _lawless(t, refuse="the base breaks a 2-category law")
    _write_product(witness_bundle_to_document(
        t, *fs_from_ideal(t, n, cap=args.cap)), args.out)
    return PASS


def _cmd_ideal_from_fs(args) -> int:
    doc = _load(args.file)
    t = witness_bundle_base(doc)
    _lawless(t, refuse="the bundle's base is not a 2-category")
    t, fs, k, _, _, _ = document_to_witness_bundle(doc, t)
    _write_product(two_ideal_to_document(t, ideal_from_fs(t, fs, k)),
                   args.out)
    return PASS


def _cmd_three_pieces(args) -> int:
    t, n = _base_and_ideal(args)
    _check_arrows(t, args.arrow)

    def run() -> int:
        _emit(dataclasses.asdict(three_pieces(t, n, args.arrow,
                                              cap=args.cap)))
        return PASS
    return _certify(args, t, run)


def _cmd_oracle_1cat(args) -> int:
    doc = _load(args.file)
    _header("oracle-1cat", args.cap, [args.file])
    if args.mode.endswith("puppe"):
        cert = puppe_exact_1cat(document_to_finite_category(doc))
    elif doc.kind == "one_ideal":
        c1, ideal = document_to_one_ideal(doc)
        cert = grandis_exact_1cat(c1, ideal)
    else:
        c1 = document_to_finite_category(doc)
        cert = grandis_exact_1cat(c1, zero_ideal_1cat(c1))
    return _verdict(cert)


#: document kind -> (reader, writer of the mutant of the entity it read)
_MUTABLE: dict[str, tuple[Callable, Callable]] = {
    "two_category": (document_to_two_category,
                     lambda _, m: two_category_to_document(m)),
    "two_ideal": (document_to_two_ideal,
                  lambda e, m: two_ideal_to_document(e[0], m)),
    "factorization_system": (document_to_fs,
                             lambda e, m: fs_to_document(e[0], m)),
    "pseudofunctor": (document_to_pseudofunctor,
                      lambda _, m: pseudofunctor_to_document(m)),
    "pseudonatural": (document_to_pseudonatural,
                      lambda _, m: pseudonatural_to_document(m)),
}


def _cmd_mutate(args) -> int:
    doc = _load(args.file)
    if doc.kind not in _MUTABLE:
        raise InputError(f"cannot mutate documents of kind {doc.kind}")
    read, write = _MUTABLE[doc.kind]
    entity = read(doc)
    _write_product(write(entity, mutate(entity, args.operator, args.seed)),
                   args.out)
    return PASS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoexact",
        description="Verify and compute two-dimensional exactness "
                    "structure on finite strict 2-categories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, *, file: bool = True, arrow: bool = False,
            pair: bool = False, second_file: bool = False,
            operator: bool = False, recipe: bool = False,
            direction: bool = False, mode: tuple[str, ...] | None = None,
            ideal: bool = False, fs: bool = False, cap: bool = True,
            out: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        if recipe:
            p.add_argument("recipe", nargs="+",
                           help="generator name and integer arguments, "
                                "wrappers first (e.g. locally-discrete "
                                "partial-bijections 2)")
        if file:
            p.add_argument("file", help="input document path")
        if second_file:
            p.add_argument("file2", help="second input document path")
        if arrow:
            p.add_argument("arrow", help="1-cell identifier")
        if pair:
            p.add_argument("left", help="left 1-cell of the parallel pair")
            p.add_argument("right",
                           help="right 1-cell of the parallel pair")
        if operator:
            p.add_argument("operator", choices=MUTATION_OPERATORS)
            p.add_argument("--seed", type=int, default=0)
        if ideal:
            p.add_argument("--ideal", default=None,
                           help="two_ideal document path")
        if fs:
            p.add_argument("--fs", default=None,
                           help="factorization_system document path")
        if cap:
            p.add_argument("--cap", type=_cap, default=None,
                           help="search budget; omitted means unbounded")
        if mode:
            p.add_argument("--mode", choices=mode, default=mode[0])
        if direction:
            p.add_argument("--direction", choices=("dom", "cod"),
                           required=True)
        if out:
            p.add_argument("--out", default=None,
                           help="write the produced document here instead "
                                "of stdout")
        return p

    add("validate", _cmd_validate)
    add("gen", _cmd_gen, file=False, recipe=True, cap=False, out=True)
    add("kernel", _cmd_presentations, arrow=True, ideal=True)
    add("cokernel", _cmd_presentations, arrow=True, ideal=True)
    add("biisoinserter", _cmd_biisoinserter, pair=True)
    add("check-ideal", _cmd_check_ideal, ideal=True)
    add("check-closed", _cmd_check_closed, ideal=True)
    add("equiv-ideals", _cmd_equiv_ideals, second_file=True)
    add("check-fs", _cmd_check_fs, fs=True)
    add("check-fibration", _cmd_check_fibration, direction=True, fs=True)
    add("check-rofs", _cmd_check_rofs, ideal=True, fs=True)
    add("check-exact", _cmd_check_exact, ideal=True,
        mode=("grandis", "puppe", "weak-grandis", "weak-puppe"))
    add("fs-from-ideal", _cmd_fs_from_ideal, ideal=True, out=True)
    add("ideal-from-fs", _cmd_ideal_from_fs, cap=False, out=True)
    add("three-pieces", _cmd_three_pieces, arrow=True, ideal=True)
    add("oracle-1cat", _cmd_oracle_1cat, mode=("grandis", "puppe"))
    add("mutate", _cmd_mutate, operator=True, cap=False, out=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except CapExceeded as exc:
        _emit({"status": "inconclusive", "detail": str(exc)})
        return INCONCLUSIVE
    except MemoryError:
        # one line, as for a failed write; _write_product has removed a
        # partial --out file
        print("error: out of memory", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
