"""The pseudo-arrow 2-category builder against the one it replaced, and
the bytes it must keep.

``factor.arrow_subcat`` refuses a base that breaks a 2-category law, and
on a lawful base builds the ``vcomp``, ``lwhisker`` and ``rwhisker`` tables
on first read.  The two functions below are the earlier builder, kept
verbatim as the reference: after a forced read, all nine tables hold the
same entries in the same order.
"""

import dataclasses
import functools
import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Iterable, Mapping

import pytest

from clirun import run_cli as run
from family import (BANDED, CH_PB1, CORE, LD_PB1, LD_PB2, one_object_base,
                    twisted_whisker_base)
from twoexact import (InputError, TwoCategory, canonical_zero_ideal,
                      cyclic_tower, fs_from_ideal, ideal_from_fs,
                      locally_discrete, validate_pseudofunctor,
                      validate_pseudonatural, validate_two_category)
from twoexact import factor
from twoexact.core import _violations, check_shape
from twoexact.cli import main
from twoexact.factor import (ArrowTwoCategory, _ordered_unique,
                             square_two_cells, squares_between)
from twoexact.formats import (document_to_witness_bundle, parse, serialize,
                              witness_bundle_to_document)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# ---------------------------------------------------------------------------
# the reference: the earlier builder, verbatim
# ---------------------------------------------------------------------------

def arrow_subcat(t: TwoCategory, members: Iterable[str]) -> ArrowTwoCategory:
    """The pseudo-arrow 2-category of ``t`` on the given 1-cells.

    Composition of squares pastes the fillers, ``(a', b', φ')∘(a, b, φ) =
    (a'∘a, b'∘b, (b'⋆φ)·(φ'⋆a))``; 2-cells compose and whisker
    componentwise.  On a lawful base every composite, identity and whisker
    of declared squares and pairs is itself declared, so each is looked up
    by its components; an undeclared one shows a broken law of the base
    and raises :class:`InputError`.  Built once per base and member list
    and kept on the base, like :attr:`TwoCategory.dual`, so every caller
    shares one object.
    """
    mem = _ordered_unique(members)
    built = t.__dict__.setdefault("_reference_arrow_subcats", {})
    if mem in built:
        return built[mem]
    for f in mem:
        if f not in t.src1:
            raise InputError(f"unknown 1-cell {f}")
    for i in itertools.chain(t.objects, t.one_ids, t.two_ids):
        if "|" in i:
            raise InputError(
                f"cell id {i!r} contains '|'; square encoding needs ids "
                f"without it")
    try:
        built[mem] = _arrow_subcat(t, mem)
    except KeyError as exc:
        raise InputError(f"the base breaks a 2-category law: the cell "
                         f"{exc.args[0]} of the pseudo-arrow 2-category is "
                         f"not a declared square or pair") from None
    return built[mem]


def _arrow_subcat(t: TwoCategory, mem: tuple[str, ...]) -> ArrowTwoCategory:
    square_id, pair_id = ArrowTwoCategory.square_id, ArrowTwoCategory.pair_id

    sq_of: dict[str, tuple[str, str, str]] = {}
    square_ids: dict[tuple[str, ...], str] = {}
    ends: dict[str, tuple[str, str]] = {}
    one_cells: list[tuple[str, str, str]] = []
    by_pair: dict[tuple[str, str], list[str]] = {}
    # squares out of and into each member, in square order
    out_of: dict[str, list[str]] = {f: [] for f in mem}
    into: dict[str, list[str]] = {f: [] for f in mem}
    for f in mem:
        for g in mem:
            here = []
            for a, b, phi in squares_between(t, f, g):
                sid = square_id(f, g, a, b, phi)
                sq_of[sid] = (a, b, phi)
                square_ids[(f, g, a, b, phi)] = sid
                ends[sid] = (f, g)
                one_cells.append((sid, f, g))
                here.append(sid)
                out_of[f].append(sid)
                into[g].append(sid)
            by_pair[(f, g)] = here

    id1 = {f: square_ids[(f, f, t.id1[t.src1[f]], t.id1[t.tgt1[f]],
                          t.id2[f])]
           for f in mem}

    comp1 = {}
    for sid2, (a2, b2, phi2) in sq_of.items():
        g, h = ends[sid2]
        for sid1 in into[g]:
            a1, b1, phi1 = sq_of[sid1]
            psi = t.vc(t.lw(b2, phi1), t.rw(phi2, a1))
            comp1[(sid2, sid1)] = square_ids[
                (ends[sid1][0], h, t.cmp1(a2, a1), t.cmp1(b2, b1), psi)]

    two_cells: list[tuple[str, str, str]] = []
    pair_of: dict[str, tuple[str, str]] = {}
    pair_ids: dict[tuple[str, ...], str] = {}
    into2: dict[str, list[str]] = {sid: [] for sid in sq_of}
    for (f, g), sids in by_pair.items():
        for sid, sid2 in itertools.product(sids, repeat=2):
            for sigma, tau in square_two_cells(t, f, g, sq_of[sid],
                                               sq_of[sid2]):
                tid = pair_id(sid, sid2, sigma, tau)
                two_cells.append((tid, sid, sid2))
                pair_of[tid] = (sigma, tau)
                pair_ids[(sid, sid2, sigma, tau)] = tid
                into2[sid2].append(tid)

    src2 = {i: s for i, s, _ in two_cells}
    tgt2 = {i: s for i, _, s in two_cells}

    id2 = {sid: pair_ids[(sid, sid, t.id2[a], t.id2[b])]
           for sid, (a, b, _) in sq_of.items()}

    vcomp = {}
    for tid2, (s2, t2_) in pair_of.items():
        for tid1 in into2[src2[tid2]]:
            s1, t1_ = pair_of[tid1]
            vcomp[(tid2, tid1)] = pair_ids[
                (src2[tid1], tgt2[tid2], t.vc(s2, s1), t.vc(t2_, t1_))]

    lwhisker = {}
    rwhisker = {}
    for tid, (sigma, tau) in pair_of.items():
        lo, hi = src2[tid], tgt2[tid]
        f, g = ends[lo]
        for sid in out_of[g]:  # whisker a square g → · on the left
            a2, b2, _ = sq_of[sid]
            lwhisker[(sid, tid)] = pair_ids[
                (comp1[(sid, lo)], comp1[(sid, hi)],
                 t.lw(a2, sigma), t.lw(b2, tau))]
        for sid in into[f]:  # whisker a square · → f on the right
            a2, b2, _ = sq_of[sid]
            rwhisker[(tid, sid)] = pair_ids[
                (comp1[(lo, sid)], comp1[(hi, sid)],
                 t.rw(sigma, a2), t.rw(tau, b2))]

    cat = TwoCategory(
        objects=mem,
        one_cells=tuple(one_cells),
        comp1=comp1,
        id1=id1,
        two_cells=tuple(two_cells),
        vcomp=vcomp,
        id2=id2,
        lwhisker=lwhisker,
        rwhisker=rwhisker,
    )
    return ArrowTwoCategory(
        cat=cat, base=t, members=mem, squares=sq_of, pairs=pair_of,
        square_ids=square_ids, pair_ids=pair_ids)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

#: The tables whose build may be deferred.
DEFERRED = ("vcomp", "lwhisker", "rwhisker")

#: The nine tables of a 2-category, in field order.
TABLES = tuple(f.name for f in dataclasses.fields(TwoCategory))

CT23 = locally_discrete(cyclic_tower(2, 3))

#: Thin lawful bases.
THIN = {**CORE, "ct23": CT23}

#: The table entries a one-object base varies, and their values.
_ENTRIES = ("v_iziz", "v_izt", "v_tiz", "v_tt", "lw_ii", "lw_iz", "lw_t",
            "rw_ii", "rw_iz", "rw_t")
_Z_CELLS = ("iz", "t")

#: The member lists built on a one-object base.
_ONE_OBJECT_MEMBERS = (("i", "z"), ("z",), ("i",))

#: The tables a tampered base has one entry of moved.
_TAMPERED = ("comp1", "vcomp", "lwhisker", "rwhisker")


def _fresh(t: TwoCategory) -> TwoCategory:
    """A copy of ``t`` with none of its caches filled."""
    return dataclasses.replace(t)


@functools.lru_cache(maxsize=None)
def _member_lists(name: str) -> list[tuple[str, ...]]:
    """The member lists built on a named base: its first six 1-cells, and
    on a thin base the two classes of the system ``fs_from_ideal`` builds,
    where it builds one."""
    t = {**THIN, **BANDED}[name]
    lists = [t.one_ids[:6]]
    if t.locally_thin:
        try:
            fs = fs_from_ideal(_fresh(t), canonical_zero_ideal(t))[0]
        except InputError:
            return lists
        lists += [fs.left_class, fs.right_class]
    return lists


def _tampered(t: TwoCategory, table: str, seed: int) -> TwoCategory:
    """``t`` with one entry of ``table`` set to another cell of the same
    dimension, both drawn with the seed."""
    rng = random.Random(f"{table}/{seed}")
    rows = dict(getattr(t, table))
    key = rng.choice(list(rows))
    cells = t.one_ids if table == "comp1" else t.two_ids
    rows[key] = rng.choice([c for c in cells if c != rows[key]])
    return dataclasses.replace(t, **{table: rows})


def _one_object_bases():
    """The 1,024 one-object variants (``iz`` and ``t`` are both ``z ⇒ z``,
    so none is thin), as ``(variant, lawful)``."""
    for values in itertools.product(_Z_CELLS, repeat=len(_ENTRIES)):
        t = one_object_base(**dict(zip(_ENTRIES, values)))
        yield t, validate_two_category(t).ok


def _lawless_bases():
    """Every lawless base of the differential tests: the lawless one-object
    variants and the tampered thin bases."""
    for t, lawful in _one_object_bases():
        if not lawful:
            yield t, _ONE_OBJECT_MEMBERS
    for t, table, seed in itertools.product((LD_PB1, LD_PB2, CH_PB1),
                                            _TAMPERED, range(6)):
        t = _tampered(t, table, seed)
        yield t, (t.one_ids[:6],)


def _tables(arrow: ArrowTwoCategory) -> list:
    """Every table of ``arrow`` with its key order, reading each in full."""
    cat = arrow.cat
    return [arrow.members] + [
        list(x.items()) if isinstance(x, Mapping) else x
        for x in itertools.chain(
            (getattr(cat, name) for name in TABLES),
            (arrow.squares, arrow.pairs, arrow.square_ids, arrow.pair_ids))]


def _built(cat: TwoCategory) -> set[str]:
    """The deferred tables of ``cat`` that have been built."""
    return {name for name in DEFERRED
            if "table" in vars(getattr(cat, name))}


def _assert_same(t: TwoCategory, mem: Iterable[str]) -> None:
    """Build on fresh copies of the lawful ``t`` with both builders: the
    deferred tables are unbuilt until read, and then every table matches
    the reference."""
    expected = _tables(arrow_subcat(_fresh(t), mem))
    base = _fresh(t)
    arrow = factor.arrow_subcat(base, mem)
    assert _built(arrow.cat) == set()
    assert _tables(arrow) == expected
    assert _built(arrow.cat) == set(DEFERRED)
    assert factor.arrow_subcat(base, mem) is arrow


def _assert_refused(t: TwoCategory, mem: Iterable[str]) -> None:
    """``factor.arrow_subcat`` refuses the lawless ``t``, naming the first
    clause that :func:`validate_two_category` finds."""
    base = _fresh(t)
    clause = validate_two_category(_fresh(t)).counterexample["clause"]
    with pytest.raises(InputError) as exc:
        factor.arrow_subcat(base, mem)
    assert str(exc.value) == f"the base breaks a 2-category law: {clause}"
    assert factor._checked_arrow_subcat.table not in vars(base)


# ---------------------------------------------------------------------------
# the differential tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", THIN)
def test_thin_lawful_bases_match_the_reference(name):
    for mem in _member_lists(name):
        _assert_same(THIN[name], mem)


@pytest.mark.parametrize("name", BANDED)
def test_banded_bases_match_the_reference(name):
    # not locally thin, but lawful: the tables are built on read here too
    assert validate_two_category(BANDED[name]).ok
    for mem in _member_lists(name):
        _assert_same(BANDED[name], mem)


def test_one_object_bases_match_the_reference():
    # the lawful variants build as the reference does; the lawless ones are
    # refused, where the reference built some and raised on others
    lawful = 0
    for t, ok in _one_object_bases():
        for mem in _ONE_OBJECT_MEMBERS:
            (_assert_same if ok else _assert_refused)(t, mem)
        lawful += ok
    assert 0 < lawful < 1024


@pytest.mark.parametrize("table", _TAMPERED)
def test_tampered_thin_bases_match_the_reference(table):
    # one entry moved: thin but lawless, so every build is refused with the
    # base's first broken clause, including those the reference completed
    for t in (LD_PB1, LD_PB2, CH_PB1):
        for seed in range(6):
            tampered = _tampered(t, table, seed)
            assert not validate_two_category(tampered).ok
            _assert_refused(tampered, t.one_ids[:6])


def test_no_lawless_base_returns_a_category():
    # the reference completes some of these builds; the builder raises on
    # every one, before it keeps anything on the base
    completed = 0
    for t, member_lists in _lawless_bases():
        for mem in member_lists:
            try:
                arrow_subcat(_fresh(t), mem)
                completed += 1
            except InputError:
                pass
            with pytest.raises(InputError):
                factor.arrow_subcat(_fresh(t), mem)
    assert completed


def test_a_base_whose_whiskers_do_not_associate_is_refused():
    # every clause but lwhisker-rwhisker holds on this base; the reference
    # builds an arrow 2-category over it that breaks comp1-assoc
    t = twisted_whisker_base()
    cat = arrow_subcat(_fresh(t), ("i",)).cat
    check_shape(cat)
    assert next(_violations(cat))[0] == "comp1-assoc"
    for mem in _ONE_OBJECT_MEMBERS:
        _assert_refused(t, mem)


def _lawful_arrows():
    """The arrow 2-categories whose laws the full sweep checks: on every
    lawful base of the differential tests, its first four 1-cells, where
    the sweep of each stays within seconds; the two classes on each
    ``CORE`` base; and every member list on the lawful one-object
    variants."""
    for name, t in {**THIN, **BANDED}.items():
        lists = [t.one_ids[:4]]
        if name in CORE:
            lists += _member_lists(name)[1:]
        for mem in lists:
            yield factor.arrow_subcat(_fresh(t), mem)
    for t, ok in _one_object_bases():
        if ok:
            for mem in _ONE_OBJECT_MEMBERS:
                yield factor.arrow_subcat(_fresh(t), mem)


def test_arrow_categories_of_lawful_bases_pass_the_full_sweep():
    # the verdict each arrow 2-category inherits from its base
    for arrow in _lawful_arrows():
        assert validate_two_category(arrow.cat).ok
        check_shape.__wrapped__(arrow.cat)  # the check, not its record
        assert next(_violations(arrow.cat), None) is None, arrow.members


def test_the_round_trip_builds_no_whisker_table():
    # the unit and counit are built over the composites c∘k and k∘c, whose
    # compositors read vcomp; nothing reads either whisker table
    t = _fresh(LD_PB2)
    built = fs_from_ideal(t, canonical_zero_ideal(t))
    fs = built[0]
    for cls in (fs.left_class, fs.right_class):
        assert _built(factor.arrow_subcat(t, cls).cat) == {"vcomp"}
    doc = parse(serialize(witness_bundle_to_document(t, *built)))
    t2, fs2, k2, c2, eta2, eps2 = document_to_witness_bundle(doc)
    ideal_from_fs(t2, fs2, k2)
    # nor do the pseudofunctor and transformation checks: the arrow
    # 2-categories carry their base's verdict, so they are not swept, and
    # are thin, so no naturality equation is pasted
    assert validate_pseudofunctor(k2).ok and validate_pseudofunctor(c2).ok
    assert validate_pseudonatural(eta2).ok and validate_pseudonatural(eps2).ok
    for cls in (fs2.left_class, fs2.right_class):
        assert _built(factor.arrow_subcat(t2, cls).cat) == {"vcomp"}


def test_a_deferred_table_reads_as_its_dict():
    calls = []

    def build():
        calls.append(None)
        return {("b", "a"): "ba", ("a", "a"): "a"}

    table = factor._Deferred(build)
    assert not calls
    assert len(table) == 2
    assert list(table) == list(table.keys()) == [("b", "a"), ("a", "a")]
    assert table[("a", "a")] == "a" and ("b", "a") in table
    assert table.get(("x", "a")) is None and table.get(("x", "a"), 0) == 0
    assert list(table.items()) == [(("b", "a"), "ba"), (("a", "a"), "a")]
    assert list(table.values()) == ["ba", "a"]
    # built once, and the builder dropped
    assert len(calls) == 1 and "_build" not in vars(table)


# ---------------------------------------------------------------------------
# pinned bytes
# ---------------------------------------------------------------------------

#: sha256 of `fs-from-ideal` on `gen locally-discrete cyclic-tower 2 3`, and
#: of `ideal-from-fs` on that bundle.
CT23_ROUND_TRIP_SHA256 = (
    "d8b7b095ae58565a5e692ab48743b5ae2a9c845b887bc25ad11b63e5604da970",
    "25cf6d94cc40770728310b25b85edb7c033d31e08cc3504ba9132f5e45f4273e")


def test_ct23_round_trip_bytes_are_pinned(capsys, tmp_path):
    digests = []
    source = tmp_path / "ct23.2cat.json"
    assert main(["gen", "locally-discrete", "cyclic-tower", "2", "3"]) == 0
    source.write_text(capsys.readouterr().out, encoding="utf-8")
    for command in ("fs-from-ideal", "ideal-from-fs"):
        assert main([command, str(source)]) == 0
        out = capsys.readouterr().out
        digests.append(hashlib.sha256(out.encode()).hexdigest())
        source = tmp_path / "ct23.bundle.json"
        source.write_text(out, encoding="utf-8")
    assert tuple(digests) == CT23_ROUND_TRIP_SHA256


#: The value column of each edited table of a bundle's base.
_VALUE = {"comp1": "gf", "vcomp": "ba", "lwhisker": "ha", "rwhisker": "ae"}

#: (table, seed) -> command -> (exit code, sha256 of stdout, of stderr) on
#: `fixtures/pb1.bundle.json` with one base entry edited by
#: :func:`_lawless_bundle`, read from the working directory as
#: `lawless.bundle.json`.
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
LAWLESS_BUNDLE_PINS = {
    ("comp1", 0): {
        "check-fs": (1, "97f22149802870d1640ae561ee3c609b434e7b5c8a6c21359c46345b3dae47ac", _EMPTY),
        "ideal-from-fs": (2, _EMPTY, "a9e657c1f072971add02f3003ec70d0fc57a8875f08776e78db17d817e62f365")},
    ("comp1", 1): {
        "check-fs": (1, "a7828a1f05dabd6c4d91c00094fcd3485304cbbf457d010d678898bcc5668f5a", _EMPTY),
        "ideal-from-fs": (2, _EMPTY, "d92e154f1711ed8d8c0f38696c6cabd9705bd364f6190e1cd97bb4ce6a2c7638")},
    ("vcomp", 0): {
        "check-fs": (1, "99a74f02835e1597eb860060e45015c507de904d6718b134c77d02b03c3a02bf", _EMPTY),
        "ideal-from-fs": (2, _EMPTY, "da32208c54e3768fb3c671a5e2a6b8ddbfcff812f805c55be63f7fde7da80fbd")},
    ("vcomp", 1): {
        "check-fs": (1, "4a44c030260de352030026377c0fc142a80c7ec524eff7f48ec42c0583e9f5aa", _EMPTY),
        "ideal-from-fs": (2, _EMPTY, "da32208c54e3768fb3c671a5e2a6b8ddbfcff812f805c55be63f7fde7da80fbd")},
    ("lwhisker", 0): {
        "check-fs": (1, "f5e80b6022a3176f728ed8e64ccf2ef05ae4fd319e25c9b4645b00a238835241", _EMPTY),
        "ideal-from-fs": (2, _EMPTY, "0a96eeccb966b598c8570231ddf08abdba1f0e8233e32630feeb3fae47035f34")},
    ("lwhisker", 1): {
        "check-fs": (1, "c556204e0af157913e63de0582a61119d982d017a752548461f0f354e9260001", _EMPTY),
        "ideal-from-fs": (2, _EMPTY, "0a96eeccb966b598c8570231ddf08abdba1f0e8233e32630feeb3fae47035f34")},
    ("rwhisker", 0): {
        "check-fs": (1, "cf62cd1417b201e552a49589d1a60d8286690e1b58f48f440af8a5d105290db1", _EMPTY),
        "ideal-from-fs": (2, _EMPTY, "9ed0f0bfe9d90d85a181c880052043d74e618b1f06636fe308a7e9c5377c9176")},
    ("rwhisker", 1): {
        "check-fs": (1, "8408a7fb90b76b65aa6f60d41d7642129e660dc957a8a2c025c289a164f4929a", _EMPTY),
        "ideal-from-fs": (2, _EMPTY, "9ed0f0bfe9d90d85a181c880052043d74e618b1f06636fe308a7e9c5377c9176")},
}


def _lawless_bundle(table: str, seed: int) -> dict:
    """The pb1 bundle with one row of its base's ``table`` given another
    value of the same column, both drawn with the seed."""
    body = json.loads((FIXTURE_DIR / "pb1.bundle.json").read_text())
    rows = body["base"][table]
    rng = random.Random(f"{table}/{seed}")
    row = rows[rng.randrange(len(rows))]
    column = _VALUE[table]
    row[column] = rng.choice(sorted({r[column] for r in rows} - {row[column]}))
    return body


@pytest.mark.parametrize("table, seed", LAWLESS_BUNDLE_PINS,
                         ids=[f"{t}-{s}" for t, s in LAWLESS_BUNDLE_PINS])
def test_lawless_bundle_output_is_pinned(tmp_path, table, seed):
    (tmp_path / "lawless.bundle.json").write_text(
        json.dumps(_lawless_bundle(table, seed)), encoding="utf-8")
    for command, pin in LAWLESS_BUNDLE_PINS[(table, seed)].items():
        proc = run(command, "lawless.bundle.json", cwd=tmp_path)
        assert (proc.returncode,
                hashlib.sha256(proc.stdout.encode()).hexdigest(),
                hashlib.sha256(proc.stderr.encode()).hexdigest()) == pin, \
            (command, proc.stdout, proc.stderr)
