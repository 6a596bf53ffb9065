"""Wire format: round trips, canonical form, and strict parse errors."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from family import CH_PB1, LD_PB1, PB1, ZERO_IDEALS
from twoexact import (InputError, canonical_zero_ideal, fs_from_ideal,
                      identity_pseudofunctor, zero_ideal_1cat)
from twoexact import cli
from twoexact import formats as formats_module
from twoexact.formats import (
    KINDS,
    Document,
    canonicalize,
    document_to_finite_category,
    document_to_fs,
    document_to_one_ideal,
    document_to_pseudofunctor,
    document_to_pseudonatural,
    document_to_two_category,
    document_to_two_ideal,
    document_to_witness_bundle,
    finite_category_to_document,
    fs_to_document,
    natural_key,
    one_ideal_to_document,
    parse,
    pseudofunctor_to_document,
    pseudonatural_to_document,
    serialize,
    serialize_pieces,
    two_category_to_document,
    two_ideal_to_document,
    witness_bundle_to_document,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

T = LD_PB1
N = ZERO_IDEALS["ld_pb1"]
FS, K, C, ETA, EPS = fs_from_ideal(T, N)


def rt(doc):
    return parse(serialize(doc))


def test_kind_inventory():
    assert set(KINDS) == {
        "two_category", "two_ideal", "factorization_system", "pseudofunctor",
        "pseudonatural", "witness-bundle", "finite_category", "one_ideal"}


def test_two_category_round_trip():
    assert document_to_two_category(rt(two_category_to_document(T))) == T
    assert document_to_two_category(rt(two_category_to_document(CH_PB1))) == CH_PB1


def test_two_ideal_round_trip():
    t2, n2 = document_to_two_ideal(rt(two_ideal_to_document(T, N)))
    assert t2 == T and n2 == N


def test_factorization_system_round_trip():
    t2, fs2 = document_to_fs(rt(fs_to_document(T, FS)))
    assert t2 == T and fs2 == FS


def test_witness_bundle_round_trip():
    doc = witness_bundle_to_document(T, FS, K, C, ETA, EPS)
    assert document_to_witness_bundle(rt(doc)) == (T, FS, K, C, ETA, EPS)


def test_pseudofunctor_round_trip():
    p = identity_pseudofunctor(T)
    assert document_to_pseudofunctor(rt(pseudofunctor_to_document(p))) == p
    assert document_to_pseudofunctor(rt(pseudofunctor_to_document(K))) == K


def test_pseudonatural_round_trip():
    assert document_to_pseudonatural(rt(pseudonatural_to_document(ETA))) == ETA
    assert document_to_pseudonatural(rt(pseudonatural_to_document(EPS))) == EPS


def test_finite_category_round_trip():
    assert document_to_finite_category(rt(finite_category_to_document(PB1))) == PB1


def test_one_ideal_round_trip():
    ideal = zero_ideal_1cat(PB1)
    c2, i2 = document_to_one_ideal(rt(one_ideal_to_document(PB1, ideal)))
    assert c2 == PB1 and i2 == ideal


@pytest.mark.parametrize("make", [
    lambda: two_category_to_document(T),
    lambda: two_ideal_to_document(T, N),
    lambda: fs_to_document(T, FS),
    lambda: witness_bundle_to_document(T, FS, K, C, ETA, EPS),
    lambda: finite_category_to_document(PB1),
], ids=["2cat", "ideal", "fs", "bundle", "1cat"])
def test_serialization_is_stable(make):
    text = serialize(make())
    assert serialize(parse(text)) == text


def test_canonicalize_is_idempotent_and_renaming_invariant():
    doc = two_category_to_document(T)
    canon = serialize(canonicalize(doc))
    assert serialize(canonicalize(canonicalize(doc))) == canon
    assert serialize(canonicalize(parse(canon))) == canon
    renamed = parse(serialize(doc)
                    .replace("m0_0to0_e", "zzz_weird")
                    .replace("o0", "obj_alpha"))
    assert serialize(canonicalize(renamed)) == canon


def test_canonical_form_uses_systematic_names_and_validates():
    from twoexact import validate_two_category
    body = json.loads(serialize(canonicalize(two_category_to_document(T))))
    assert body["objects"] == ["o0", "o1"]
    assert [row["id"] for row in body["one_cells"]] == [
        "f0", "f1", "f2", "f3", "f4"]
    assert validate_two_category(document_to_two_category(
        canonicalize(two_category_to_document(T)))).ok


def test_serialized_text_is_sorted_json():
    text = serialize(two_category_to_document(T))
    body = json.loads(text)
    assert body["version"] == 1
    assert body["kind"] == "two_category"
    assert json.dumps(body, indent=2, sort_keys=True) + "\n" == text


def test_natural_key_orders_numeric_runs_numerically():
    names = ["f10", "f2", "o10", "a2b10", "f1", "o2", "a2b9"]
    assert sorted(names, key=natural_key) == [
        "a2b9", "a2b10", "f1", "f2", "f10", "o2", "o10"]


def _groupby_key(s):
    """The digit-run key as first written, kept as the reference: runs of
    ``str.isdigit`` through ``int``, which fails on numerals such as ``²``
    that are not decimal digits."""
    parts = []
    for is_digit, run in itertools.groupby(s, str.isdigit):
        text = "".join(run)
        parts.append((0, int(text)) if is_digit else (1, text))
    return tuple(parts)


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for k, v in node.items():
            yield k
            yield from _strings(v)
    elif isinstance(node, list):
        for v in node:
            yield from _strings(v)


def test_natural_key_agrees_with_the_groupby_reference():
    # every identifier of every fixture, and of the pb2 bundle, whose
    # square ids are long runs of alternating text and digits
    texts = [p.read_text() for p in sorted(FIXTURE_DIR.glob("*.json"))]
    t = document_to_two_category(parse(
        (FIXTURE_DIR / "pb2.2cat.json").read_text()))
    texts.append(serialize(witness_bundle_to_document(
        t, *fs_from_ideal(t, canonical_zero_ideal(t)))))
    ids = {s for text in texts for s in _strings(json.loads(text))}
    assert any(s.count("|") == 11 for s in ids)
    for s in ids:
        assert natural_key(s) == _groupby_key(s), s


def test_serialize_keys_each_distinct_identifier_once(monkeypatch):
    calls = Counter()

    def counted(s):
        calls[s] += 1
        return natural_key(s)

    monkeypatch.setattr(formats_module, "natural_key", counted)
    serialize(witness_bundle_to_document(T, FS, K, C, ETA, EPS))
    assert calls and max(calls.values()) == 1


# ---------------------------------------------------------------------------
# the schema-driven writer against the json module's encoder
# ---------------------------------------------------------------------------

def _reference_text(doc):
    """The serializer as first written, kept as the reference: identifier
    lists and rows sorted by natural key, then the json module's
    pure-Python indenting encoder."""
    def normal(fields, body):
        out = {}
        for name, spec in fields.items():
            value = body[name]
            if spec[0] == "list-str":
                out[name] = sorted(value, key=natural_key)
            elif spec[0] == "rows":
                cols = tuple(spec[1])[:spec[2]]
                out[name] = sorted(value, key=lambda row: [
                    natural_key(row[c]) for c in cols])
            elif spec[0] in ("nested", "table"):
                sub = (formats_module._SCHEMAS[spec[1]]
                       if spec[0] == "nested" else spec[1])
                out[name] = normal(sub, value)
            else:
                out[name] = value
        return out

    payload = {"version": 1, "kind": doc.kind,
               **normal(formats_module._SCHEMAS[doc.kind], doc.body)}
    return json.dumps(payload, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


@functools.cache
def _round_trip_bundle(name):
    """The fs-from-ideal bundle of a fixture 2-category and its ideal."""
    t = document_to_two_category(parse(
        (FIXTURE_DIR / f"{name}.2cat.json").read_text()))
    return (t, *fs_from_ideal(t, canonical_zero_ideal(t)))


_BRIDGES = {
    "2cat": lambda: two_category_to_document(T),
    "ideal": lambda: two_ideal_to_document(T, N),
    "fs": lambda: fs_to_document(T, FS),
    "pseudofunctor": lambda: pseudofunctor_to_document(K),
    "pseudonatural": lambda: pseudonatural_to_document(ETA),
    "pseudonatural-false": lambda: pseudonatural_to_document(
        dataclasses.replace(EPS, claims_equivalences=False)),
    "bundle": lambda: witness_bundle_to_document(T, FS, K, C, ETA, EPS),
    "1cat": lambda: finite_category_to_document(PB1),
    "1ideal": lambda: one_ideal_to_document(PB1, zero_ideal_1cat(PB1)),
    **{f"{name}-bundle": (lambda name=name: witness_bundle_to_document(
        *_round_trip_bundle(name))) for name in ("pb2", "ct22", "ch_pb1")},
}


def test_the_pinned_bridges_cover_every_kind():
    bridges = {name[:-len("_to_document")] for name in dir(formats_module)
               if name.endswith("_to_document")}
    kinds = {_BRIDGES[name]().kind for name in _BRIDGES}
    assert len(bridges) == len(KINDS) and kinds == set(KINDS)


def _streamed(doc):
    """The text the command line's writer sends to stdout for ``doc``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_product(doc, None)
    return out.getvalue()


@pytest.mark.parametrize("fixture", sorted(
    p.name for p in FIXTURE_DIR.glob("*.json")))
def test_fixture_bytes_are_pinned_to_the_reference_encoder(fixture):
    doc = parse((FIXTURE_DIR / fixture).read_text())
    assert serialize(doc) == _streamed(doc) == _reference_text(doc)


@pytest.mark.parametrize("bridge", sorted(_BRIDGES))
def test_bridge_bytes_are_pinned_to_the_reference_encoder(bridge):
    doc = _BRIDGES[bridge]()
    assert serialize(doc) == _streamed(doc) == _reference_text(doc)


#: Identifiers the encoder must escape or pass through: quotes, backslashes,
#: control characters, non-ASCII, a non-BMP character, U+2028, the empty
#: string, and digit runs with equal natural keys.
_HOSTILE_IDS = st.sampled_from(
    ['"', "\\", "\x00", "\x1f\x7f", "\n\t\r\b\f", "m²", "\U0001d7d8x",
     "\u2028", "", "f2", "f02", "f10", "a|b", "%s"]) | st.text(max_size=4)


def _bodies(fields):
    """Schema-shaped bodies of the given fields, with any identifiers."""
    def value(spec):
        shape = spec[0]
        if shape == "list-str":
            return st.lists(_HOSTILE_IDS, max_size=3)
        if shape == "rows":
            return st.lists(st.fixed_dictionaries(
                {col: _HOSTILE_IDS for col in spec[1]}), max_size=3)
        if shape == "map":
            return st.dictionaries(_HOSTILE_IDS, _HOSTILE_IDS, max_size=3)
        if shape == "bool":
            return st.booleans()
        return _bodies(formats_module._SCHEMAS[spec[1]]
                       if shape == "nested" else spec[1])
    return st.fixed_dictionaries(
        {name: value(spec) for name, spec in fields.items()})


_EMPTY_2CAT = {"objects": [], "one_cells": [], "comp1": [], "id1": {},
               "two_cells": [], "vcomp": [], "id2": {}, "lwhisker": [],
               "rwhisker": []}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS).flatmap(lambda kind: _bodies(
    formats_module._SCHEMAS[kind]).map(lambda body: Document(1, kind, body))))
@example(Document(1, "two_category", _EMPTY_2CAT))
@example(Document(1, "two_category", {
    # equal natural keys, in opposite input orders: each list keeps its own
    **_EMPTY_2CAT, "objects": ["f02", "f2"],
    "one_cells": [{"id": i, "src": "x", "tgt": "x"} for i in ("f2", "f02")]}))
def test_hostile_document_bytes_are_pinned_to_the_reference_encoder(doc):
    assert serialize(doc) == _streamed(doc) == _reference_text(doc)


@pytest.mark.parametrize("n", [0, 1, 1024, 1025, 2049])
def test_streamed_tables_at_the_piece_edges_match_the_reference(n):
    # a list, a rows table and a map of n entries each, written in pieces
    # of up to 1,024 entries
    doc = Document(1, "two_category", {
        **_EMPTY_2CAT, "objects": [f"o{i}" for i in range(n)],
        "one_cells": [{"id": f"f{i}", "src": f"o{i}", "tgt": f"o{i}"}
                      for i in range(n)],
        "id1": {f"o{i}": f"f{i}" for i in range(n)}})
    assert serialize(doc) == _streamed(doc) == _reference_text(doc)
    rows = [piece.count('"id": ') for piece in serialize_pieces(doc)]
    assert sum(rows) == n and max(rows) == min(n, 1024)


def test_fs_from_ideal_stdout_and_out_bytes_match_the_reference(
        capsys, tmp_path):
    source, out = FIXTURE_DIR / "ct22.2cat.json", tmp_path / "ct22.json"
    reference = _reference_text(witness_bundle_to_document(
        *_round_trip_bundle("ct22")))
    assert cli.main(["fs-from-ideal", str(source)]) == 0
    assert capsys.readouterr().out == reference
    assert cli.main(["fs-from-ideal", str(source), "--out", str(out)]) == 0
    assert out.read_bytes() == reference.encode("utf-8")


def _mangle(mutator):
    body = json.loads(serialize(two_category_to_document(T)))
    mutator(body)
    return json.dumps(body)


def test_parse_rejects_malformed_json_with_position():
    with pytest.raises(InputError, match=r"line 1, column 15"):
        parse('{"version": 1,,}')


def test_parse_rejects_unsupported_version():
    text = _mangle(lambda b: b.update(version=2))
    with pytest.raises(InputError, match=r"unsupported version 2"):
        parse(text)


def test_parse_rejects_unknown_kind():
    text = _mangle(lambda b: b.update(kind="three_category"))
    with pytest.raises(InputError, match=r"unknown kind 'three_category'"):
        parse(text)


def test_parse_rejects_unknown_fields():
    text = _mangle(lambda b: b.update(surplus=3))
    with pytest.raises(InputError, match=r"unknown field\(s\) surplus"):
        parse(text)


def test_parse_rejects_missing_fields():
    text = _mangle(lambda b: b.pop("objects"))
    with pytest.raises(InputError, match=r"missing field\(s\) objects"):
        parse(text)


def test_parse_rejects_bad_row_shape():
    text = _mangle(lambda b: b["one_cells"].__setitem__(
        0, {"id": "mX", "src": "o0"}))
    with pytest.raises(InputError, match=r"one_cells row"):
        parse(text)


def test_parse_reports_every_dangling_reference():
    def mutator(body):
        body["comp1"][0]["gf"] = "m99_missing"
        body["vcomp"][0]["ba"] = "a77_missing"
    with pytest.raises(InputError) as err:
        parse(_mangle(mutator))
    message = str(err.value)
    assert "m99_missing" in message and "comp1.gf" in message
    assert "a77_missing" in message and "vcomp.ba" in message


@settings(max_examples=25)
@given(st.sampled_from(["objects", "one_cells", "two_cells"]),
       st.integers(min_value=0, max_value=3))
def test_truncating_any_table_is_caught(field, index):
    body = json.loads(serialize(two_category_to_document(T)))
    rows = body[field]
    if index >= len(rows):
        return
    del rows[index]
    try:
        doc = parse(json.dumps(body))
    except InputError:
        return  # dangling reference found at parse time
    from twoexact import validate_two_category
    assert not validate_two_category(document_to_two_category(doc)).ok


def _dangle(body, path):
    """Point the string at ``path`` in a parsed JSON body at an undeclared
    identifier; a last step ``("key", k)`` renames the map key ``k``."""
    *head, last = path
    for step in head:
        body = body[step]
    if isinstance(last, tuple):
        body["zz_missing"] = body.pop(last[1])
    else:
        body[last] = "zz_missing"


@pytest.mark.parametrize("fixture, paths, expected", [
    ("pb1.2cat", [("one_cells", 1, "src")],
     "zz_missing (at one_cells[m1_0to1_e].src)"),
    ("pb1.2cat", [("comp1", 2, "gf")], "zz_missing (at comp1.gf)"),
    ("pb1.2cat", [("id1", ("key", "o1"))], "zz_missing (at id1 key)"),
    ("pb1.2cat", [("id1", "o1")], "zz_missing (at id1[o1])"),
    ("pb2.ideal", [("null_two_cells", 0)], "zz_missing (at null_two_cells)"),
    ("pb2.ideal", [("replacement", 3, "nu")],
     "zz_missing (at replacement.nu)"),
    ("ct22.fs", [("fact", 4, "theta")], "zz_missing (at fact.theta)"),
    ("pb1.pf", [("ob", "m2_1to0_e")], "zz_missing (at ob[m2_1to0_e])"),
    ("pb1.pf", [("compositor", 5, "cell")],
     "zz_missing (at compositor.cell)"),
    ("pb1.pn", [("source_functor", "one", ("key", "m0_0to0_e|m2_1to0_e|"
                                           "m1_0to1_e|m0_0to0_e|id_m0_0to0_e"))],
     "zz_missing (at one key)"),
    ("pb1.pn", [("target_functor", "source", "id1", ("key", "m2_1to0_e"))],
     "zz_missing (at target_functor.source.id1 key)"),
    ("pb1.pn", [("target_functor", "ob", "m0_0to0_e"),
                ("source_functor", "compositor", 0, "g"),
                ("source_functor", "target", "vcomp", 0, "ba")],
     "zz_missing (at source_functor.target.vcomp.ba); "
     "zz_missing (at compositor.g); zz_missing (at ob[m0_0to0_e])"),
    ("pb2.1ideal", [("null", 0)], "zz_missing (at null)"),
    ("pb1.bundle", [("E", 1)], "zz_missing (at E)"),
], ids=["one_cells.src", "comp1.gf", "id1-key", "id1-value",
        "null_two_cells", "replacement.nu", "fact.theta", "pseudofunctor-ob",
        "compositor.cell", "pseudonatural-functor-table",
        "pseudonatural-functor-category", "pseudonatural-order",
        "one_ideal-null", "witness-bundle-E"])
def test_dangling_reference_messages_are_pinned(fixture, paths, expected):
    body = json.loads((FIXTURE_DIR / f"{fixture}.json").read_text())
    for path in paths:
        _dangle(body, path)
    with pytest.raises(InputError) as err:
        parse(json.dumps(body))
    assert str(err.value) == "dangling references: " + expected


CANONICAL_SHA256 = {
    "ch_pb1.2cat": "7c38f7b40e589c4efbe8ce96cc85d602c9e04785020de429bea57288c3c11943",
    "ct22.2cat": "39c7dfa4eb1b409b442d22f6d684e64cc5ab012f2d600a51744e255a2bdec1e5",
    "ct22.fs": "9c491560cc2a5570788270897c00c31fa42cd07eb6e1e8a38ec25be4b3a32f03",
    "pb1.2cat": "73b052589e20f312ed06271f489aca826a3d1ada54c1fba71a45104112f3c2b7",
    "pb1.bundle": "ff2c839a8779f42b025bdfd048bbff7352db1fca2b6fce12b8b17fbce2b477e9",
    "pb1.pf": "7af689728347dc4f7bb7401a4278156b818984c44ab3b2f1406be03353d4aa12",
    "pb1.pn": "11dbd4a29f4c5a94c87556beaa77a32ad1db7324ac4359c6147606f0cfb82b44",
    "pb2.1cat": "ece2a552389fdac934198209da9d6f7c42c44e91f7d7b3eadc0488632f9831d9",
    "pb2.1ideal": "633087d4ad2e44ebe304af8c8073f155465720274d6b52293360d7a26f1b5329",
    "pb2.2cat": "152d168038227bad63a497c44b9937a8e4c2ce8a8c01879103fb25da50015be6",
    "pb2.ideal": "3903dcb0cf3c80aac88de8fca4023d6c276e9db27ce3689d933068a36a339afd",
    "pb3.2cat": "9b6fcdcf23e72e46da017b4833c06bd33d6eacc32806c6bfe63acfb24ac6b4d4",
    "ps2.2cat": "d207f6041454ce8f49b09e65ba9ff7b45b1d88cd9aeb587356b461a10cb968a4",
    "terminal.2cat": "12520bba456a5c9a7700fa04b94696b6b132de1a8f02cc744e2cf0b85b4e8c88",
}


def test_every_fixture_has_a_pinned_canonical_form():
    assert sorted(p.name[:-5] for p in FIXTURE_DIR.glob("*.json")) == sorted(
        CANONICAL_SHA256)


@pytest.mark.parametrize("fixture", sorted(CANONICAL_SHA256))
def test_canonical_forms_are_pinned(fixture):
    # Idempotence alone would pass a consistent but different renaming.
    doc = parse((FIXTURE_DIR / f"{fixture}.json").read_text())
    text = serialize(canonicalize(doc))
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_SHA256[fixture]


def test_canonicalize_rejects_a_square_id_with_unknown_components():
    # Parse does not check derived tables, so this is caught on renaming.
    body = json.loads((FIXTURE_DIR / "pb1.bundle.json").read_text())
    one = body["k"]["one"]
    one["q|q|q|q|q"] = one.pop(next(iter(one)))
    with pytest.raises(InputError) as err:
        canonicalize(parse(json.dumps(body)))
    assert str(err.value) == "cannot canonicalize unknown cell q|q|q|q|q"


# ---------------------------------------------------------------------------
# what the one parse walk relies on
# ---------------------------------------------------------------------------

def _seen_after(fields, seen):
    """Walk ``fields`` in order, asserting that every pool a field names,
    and every pool a derived ref's renaming reads, is in ``seen`` by then;
    return ``seen`` with the pools the fields declare or export added."""
    for name, spec in fields.items():
        shape = spec[0]
        if shape == "nested":
            sub = _seen_after(formats_module._SCHEMAS[spec[1]], set())
            if spec[2] is not None:
                seen = seen | {spec[2] + pool for pool in sub}
            continue
        if shape == "table":
            _seen_after(spec[1], seen)
            continue
        refs = (list(spec[1].values()) if shape == "rows" else
                list(spec[1:]) if shape in ("list-str", "map") else [])
        for ref in refs:
            if ref[-1] == "!":
                continue
            scope = ref.lstrip("~")[:-1]
            needed = {ref.lstrip("~")}
            if ref[0] == "~":
                needed |= {scope + pool for pool in "ofa"}
            assert needed <= seen, (name, ref, sorted(seen))
        seen = seen | {ref[0] for ref in refs if ref[-1] == "!"}
    return seen


@pytest.mark.parametrize("kind", KINDS)
def test_every_pool_is_declared_before_a_field_names_it(kind):
    # so the parse walk, in field order, sees each pool before it reads it
    _seen_after(formats_module._SCHEMAS[kind], set())


def test_a_shape_defect_is_reported_before_earlier_dangling_references():
    body = json.loads((FIXTURE_DIR / "pb2.2cat.json").read_text())
    body["comp1"][0]["gf"] = "zz_missing"
    del body["lwhisker"][0]["ha"]
    with pytest.raises(InputError) as err:
        parse(json.dumps(body))
    assert str(err.value) == (
        "schema rule 'row-shape': each lwhisker row must have exactly the "
        "string fields h, a, ha")


def test_a_parsed_bundle_holds_the_declared_ids_of_its_arrow_categories():
    text = (FIXTURE_DIR / "pb1.bundle.json").read_text()
    _, _, k, c, eta, epsilon = document_to_witness_bundle(parse(text))
    e_ids, m_ids = ({x: x for x in itertools.chain(
        cat.objects, cat.one_ids, cat.two_ids)} for cat in (k.source,
                                                             k.target))

    def declared(ids, xs):
        return all(ids[x] is x for x in xs)

    for func, keys, values in ((k, e_ids, m_ids), (c, m_ids, e_ids)):
        for table in (func.ob, func.one, func.two):
            assert declared(keys, table) and declared(values, table.values())
        assert declared(keys, itertools.chain(*func.compositor))
        assert declared(values, func.compositor.values())
    for nat, ids in ((eta, e_ids), (epsilon, m_ids)):
        for table in (nat.component, nat.structure):
            assert declared(ids, table) and declared(ids, table.values())


# ---------------------------------------------------------------------------
# row checks over whole tables, and keyed rows that repeat a key
# ---------------------------------------------------------------------------

def _fixture_body(fixture):
    return json.loads((FIXTURE_DIR / f"{fixture}.json").read_text())


_COMP1_SHAPE = ("schema rule 'row-shape': each comp1 row must have exactly "
                "the string fields g, f, gf")


@pytest.mark.parametrize("defect", [
    ["m0_0to0_e", "m0_0to0_e", "m0_0to0_e"], "m0_0to0_e", None, 7,
    {"g": "m0_0to0_e", "f": "m0_0to0_e"},
    {"g": "m0_0to0_e", "f": "m0_0to0_e", "gf": "m0_0to0_e", "h": "m0"},
    {"g": "m0_0to0_e", "f": "m0_0to0_e", "hf": "m0_0to0_e"},
    *({"g": "m0_0to0_e", "f": "m0_0to0_e", "gf": value}
      for value in (3, 2.5, True, False, None, ["m0_0to0_e"],
                    {"id": "m0_0to0_e"})),
], ids=["list-row", "string-row", "null-row", "number-row", "missing-column",
        "extra-column", "renamed-column", "int-value", "float-value",
        "true-value", "false-value", "null-value", "list-value",
        "object-value"])
@pytest.mark.parametrize("at", [0, 500, 999])
def test_each_row_shape_defect_is_reported_by_its_table(defect, at):
    # in a 1,000-row table, whichever row holds the defect; parse checks
    # shape and references, not that comp1 is total
    body = _fixture_body("pb3.2cat")
    body["comp1"] = body["comp1"][:1000]
    body["comp1"][at] = defect
    with pytest.raises(InputError) as err:
        parse(json.dumps(body))
    assert str(err.value) == _COMP1_SHAPE


def test_dangling_strings_of_two_columns_are_named_in_row_order():
    body = _fixture_body("pb2.2cat")
    body["one_cells"][4]["tgt"] = "x1"
    body["one_cells"][2]["src"] = "x2"
    body["one_cells"][2]["tgt"] = "x3"
    body["comp1"][9]["g"] = "x4"
    body["comp1"][3]["gf"] = "x5"
    body["comp1"][3]["g"] = "x6"
    body["comp1"][40]["gf"] = "x7"
    one = [row["id"] for row in body["one_cells"]]
    with pytest.raises(InputError) as err:
        parse(json.dumps(body))
    assert str(err.value) == "dangling references: " + "; ".join([
        f"x2 (at one_cells[{one[2]}].src)", f"x3 (at one_cells[{one[2]}].tgt)",
        f"x1 (at one_cells[{one[4]}].tgt)", "x6 (at comp1.g)",
        "x5 (at comp1.gf)", "x4 (at comp1.g)", "x7 (at comp1.gf)"])


def _repeat_row(body, table, index, **changes):
    """The body with a copy of ``body[table][index]``, with ``changes``,
    added first, and the body with it added last."""
    row = {**body[table][index], **changes}
    return ({**body, table: [row, *body[table]]},
            {**body, table: [*body[table], row]})


@pytest.mark.parametrize("fixture, table, index, changes, read, named", [
    ("pb1.2cat", "comp1", 3, {"gf": "m4_1to1_11"}, document_to_two_category,
     "g=m1_0to1_e, f=m2_1to0_e"),
    ("pb1.2cat", "comp1", 3, {}, document_to_two_category,
     "g=m1_0to1_e, f=m2_1to0_e"),
    ("pb2.ideal", "replacement", 1, {"nu": "id_m00_0to0_e"},
     document_to_two_ideal, "a=m00_0to0_e, n=m00_0to0_e, b=m01_0to1_e"),
    ("ct22.fs", "fact", 1, {}, document_to_fs, "f=m01_0to1x0"),
], ids=["pb1-comp1-wrong", "pb1-comp1-exact", "pb2-replacement", "ct22-fact"])
def test_keyed_rows_that_repeat_a_key_are_rejected(fixture, table, index,
                                                   changes, read, named):
    # before this rule, the row read last won: with the wrong pb1
    # composite first validate passed, and with it last it failed
    # comp1-assoc; an exact copy passed
    for repeated in _repeat_row(_fixture_body(fixture), table, index,
                                **changes):
        doc = parse(json.dumps(repeated))
        with pytest.raises(InputError) as err:
            read(doc)
        assert str(err.value) == (f"schema rule 'unique-keys': two {table} "
                                  f"rows have {named}")


def test_the_cli_rejects_repeated_keys_with_exit_2(tmp_path, capsys):
    for repeated in _repeat_row(_fixture_body("pb1.2cat"), "comp1", 3,
                                gf="m4_1to1_11"):
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(repeated))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: schema rule 'unique-keys': two comp1 rows have "
            "g=m1_0to1_e, f=m2_1to0_e\n")
