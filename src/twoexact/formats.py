"""Textual interchange format: parser, serializer, and canonicalization.

Documents are JSON objects with a mandatory ``version`` and a ``kind`` tag
from: ``two_category``, ``two_ideal``, ``factorization_system``,
``pseudofunctor``, ``pseudonatural``, ``witness-bundle``,
``finite_category``, ``one_ideal``.  The schema is strict — unknown fields
are rejected — and every identifier a table references must be declared in
the same document.  ``serialize`` emits sorted object keys, identifier
lists sorted by a natural key (digit runs compare numerically), and a
trailing newline, so serialization is a normal form; ``parse∘serialize``
is the identity on documents already in that form.  ``canonicalize``
renames every cell to the stable scheme ``o0, o1, …`` / ``f0, …`` /
``a0, …`` in declaration order and is idempotent on serializer output.

One annotated schema, ``_SCHEMAS``, states the format once.  A field spec
gives the field's shape and the pool each of its strings names::

    ("list-str", ref)             a list of strings
    ("rows", {column: ref}, n)    a list of rows with exactly these string
                                  columns, sorted by their first n columns
    ("map", key_ref, value_ref)   a string-to-string map
    ("bool",)                     a boolean
    ("nested", kind, export)      a document of that kind, whose pools are
                                  seen here under the prefix ``export``
                                  (not at all when it is None)
    ("table", fields)             a sub-object in the enclosing scope that
                                  holds derived cells only

A ref names a pool: ``o`` objects, ``f`` 1-cells (morphisms) or ``a``
2-cells, after an optional scope prefix, ``src.`` or ``tgt.``, for a
functor's source or target.  ``o!``, ``f!`` and ``a!`` mark the column that
declares a pool, and its order gives the canonical names.  Parsing reports
every string missing from its pool as a dangling reference, at its path in
the document, or at its bare field name when its pool is scoped.

A leading ``~`` marks derived cells.  The functor and natural tables of a
``witness-bundle`` name squares and square pairs of the two pseudo-arrow
2-categories, which are rebuilt from the base tables and the two classes,
so their integrity is established when the bundle is rebuilt, not at parse
time; the component and structure tables of a ``pseudonatural`` are not
checked at parse time either.  ``canonicalize`` renames a derived cell as
a cell of its ref's pool, else as an object of the ref's scope, else as a
1-cell or 2-cell, else componentwise as a square or square pair.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from .core import InputError, TwoCategory, natural_key
from .factor import FactorizationSystem, arrow_subcat
from .ideal import TwoIdeal
from .onecat import FiniteCategory, OneIdeal
from .pseudo import (PseudoFunctor, PseudoNatural, check_pseudofunctor_shape,
                     check_pseudonatural_shape, compose_pseudofunctors,
                     identity_pseudofunctor)

KINDS = ("two_category", "two_ideal", "factorization_system",
         "pseudofunctor", "pseudonatural", "witness-bundle",
         "finite_category", "one_ideal")


@dataclass(frozen=True)
class Document:
    """A parsed interchange document: format version, entity kind tag, and
    the payload tables keyed by field name."""

    version: int
    kind: str
    body: Mapping[str, Any]


def _rule(rule: str, msg: str) -> InputError:
    return InputError(f"schema rule '{rule}': {msg}")


# ---------------------------------------------------------------------------
# field schemas
# ---------------------------------------------------------------------------

_TWOCAT_FIELDS: dict[str, tuple] = {
    "objects": ("list-str", "o!"),
    "one_cells": ("rows", {"id": "f!", "src": "o", "tgt": "o"}, 1),
    "comp1": ("rows", {"g": "f", "f": "f", "gf": "f"}, 2),
    "id1": ("map", "o", "f"),
    "two_cells": ("rows", {"id": "a!", "src": "f", "tgt": "f"}, 1),
    "vcomp": ("rows", {"b": "a", "a": "a", "ba": "a"}, 2),
    "id2": ("map", "f", "a"),
    "lwhisker": ("rows", {"h": "f", "a": "a", "ha": "a"}, 2),
    "rwhisker": ("rows", {"a": "a", "e": "f", "ae": "a"}, 2),
}

_IDEAL_FIELDS: dict[str, tuple] = {
    "null_one_cells": ("list-str", "f"),
    "null_two_cells": ("list-str", "a"),
    "replacement": ("rows", {"a": "f", "n": "f", "b": "f", "tilde": "f",
                             "nu": "a"}, 4),
}

_FS_FIELDS: dict[str, tuple] = {
    "E": ("list-str", "f"),
    "M": ("list-str", "f"),
    "fact": ("rows", {"f": "f", "e": "f", "m": "f", "theta": "a"}, 1),
}


def _functor_fields(src: str, tgt: str) -> dict[str, tuple]:
    return {
        "ob": ("map", src + "o", tgt + "o"),
        "one": ("map", src + "f", tgt + "f"),
        "two": ("map", src + "a", tgt + "a"),
        "compositor": ("rows", {"g": src + "f", "f": src + "f",
                                "cell": tgt + "a"}, 2),
    }


def _natural_fields(src: str, tgt: str) -> dict[str, tuple]:
    return {
        "component": ("map", src + "o", tgt + "f"),
        "structure": ("map", src + "f", tgt + "a"),
        "claims_equivalences": ("bool",),
    }


_ONECAT_FIELDS: dict[str, tuple] = {
    "objects": ("list-str", "o!"),
    "morphisms": ("rows", {"id": "f!", "src": "o", "tgt": "o"}, 1),
    "comp": ("rows", {"g": "f", "f": "f", "gf": "f"}, 2),
    "ident": ("map", "o", "f"),
}

_SCHEMAS: dict[str, dict[str, tuple]] = {
    "two_category": _TWOCAT_FIELDS,
    "two_ideal": {**_TWOCAT_FIELDS, **_IDEAL_FIELDS},
    "factorization_system": {**_TWOCAT_FIELDS, **_FS_FIELDS},
    "pseudofunctor": {
        "source": ("nested", "two_category", "src."),
        "target": ("nested", "two_category", "tgt."),
        **_functor_fields("src.", "tgt."),
    },
    "pseudonatural": {
        "source_functor": ("nested", "pseudofunctor", ""),
        "target_functor": ("nested", "pseudofunctor", None),
        **_natural_fields("~src.", "~tgt."),
    },
    "witness-bundle": {
        "base": ("nested", "two_category", ""),
        **_FS_FIELDS,
        "k": ("table", _functor_fields("~", "~")),
        "c": ("table", _functor_fields("~", "~")),
        "eta": ("table", _natural_fields("~", "~")),
        "epsilon": ("table", _natural_fields("~", "~")),
    },
    "finite_category": _ONECAT_FIELDS,
    "one_ideal": {**_ONECAT_FIELDS, "null": ("list-str", "f")},
}


def _check_fields(body: Any, fields: dict[str, tuple], where: str) -> None:
    if not isinstance(body, dict):
        raise _rule("payload-object", f"{where or 'payload'} must be an "
                    f"object")
    unknown = sorted(set(body) - set(fields))
    if unknown:
        raise _rule("no-unknown-fields",
                    f"unknown field(s) {', '.join(unknown)} in "
                    f"{where or 'payload'}")
    missing = sorted(set(fields) - set(body))
    if missing:
        raise _rule("required-fields",
                    f"missing field(s) {', '.join(missing)} in "
                    f"{where or 'payload'}")
    for name, spec in fields.items():
        value = body[name]
        at = f"{where}{name}"
        shape = spec[0]
        if shape == "list-str":
            if not (isinstance(value, list)
                    and all(isinstance(x, str) for x in value)):
                raise _rule("field-type", f"{at} must be a list of strings")
        elif shape == "rows":
            cols = spec[1]
            if not isinstance(value, list):
                raise _rule("field-type", f"{at} must be a list of rows")
            for row in value:
                if (not isinstance(row, dict)
                        or set(row) != set(cols)
                        or not all(isinstance(row[c], str) for c in cols)):
                    raise _rule(
                        "row-shape",
                        f"each {at} row must have exactly the string "
                        f"fields {', '.join(cols)}")
        elif shape == "map":
            if (not isinstance(value, dict)
                    or not all(isinstance(k, str) and isinstance(v, str)
                               for k, v in value.items())):
                raise _rule("field-type",
                            f"{at} must be a string-to-string map")
        elif shape == "bool":
            if not isinstance(value, bool):
                raise _rule("field-type", f"{at} must be a boolean")
        elif shape == "nested":
            _check_fields(value, _SCHEMAS[spec[1]], f"{at}.")
        elif shape == "table":
            _check_fields(value, spec[1], f"{at}.")


# ---------------------------------------------------------------------------
# the two schema walks: referential integrity and canonical renaming
# ---------------------------------------------------------------------------

_Pools = dict[str, dict[str, str]]


def _key(spec: tuple) -> str | None:
    """The column of a rows spec that declares its pool, if any."""
    return next((c for c, r in spec[1].items() if r[-1] == "!"), None)


def _pools(fields: dict[str, tuple], body: Mapping[str, Any],
           nested: Callable[[str, str], _Pools]) -> _Pools:
    """The pools a document sees, each mapping its identifiers to their
    canonical names: those it declares, and those its nested documents
    export (``nested(field, kind)`` walks one and returns its pools)."""
    pools: _Pools = {}
    for name, spec in fields.items():
        if spec[0] == "nested":
            sub = nested(name, spec[1])
            if spec[2] is not None:
                pools.update({spec[2] + p: m for p, m in sub.items()})
            continue
        if spec[0] == "list-str" and spec[1][-1] == "!":
            ref, ids = spec[1], body[name]
        elif spec[0] == "rows" and (key := _key(spec)):
            ref, ids = spec[1][key], [row[key] for row in body[name]]
        else:
            continue
        pools[ref[0]] = {x: f"{ref[0]}{i}" for i, x in enumerate(ids)}
    return pools


def _dangling(fields: dict[str, tuple], body: Mapping[str, Any], where: str,
              out: list[str]) -> _Pools:
    """Append each string of a document that names no cell of its pool to
    ``out`` as ``"<ref> (at <place>)"``, in field, row and column order, and
    return the document's pools.  A place is prefixed by ``where`` unless
    its pool is scoped; derived cells are skipped."""
    pools = _pools(fields, body, lambda name, kind: _dangling(
        _SCHEMAS[kind], body[name], f"{where}{name}.", out))

    def place(ref: str, name: str) -> str:
        return name if "." in ref else where + name

    for name, spec in fields.items():
        shape, value = spec[0], body[name]
        if shape == "list-str" and spec[1][-1] != "!":
            pool, at = pools[spec[1]], place(spec[1], name)
            out.extend(f"{x} (at {at})" for x in value if x not in pool)
        elif shape == "rows":
            key = _key(spec)
            need = [(col, pools[ref], place(ref, name))
                    for col, ref in spec[1].items() if ref[-1] != "!"
                    and ref[0] != "~"]
            for row in value:
                for col, pool, at in need:
                    if row[col] not in pool:
                        label = at if key is None else f"{at}[{row[key]}]"
                        out.append(f"{row[col]} (at {label}.{col})")
        elif shape == "map" and spec[1][0] != "~":
            kpool, vpool = pools[spec[1]], pools[spec[2]]
            at = place(spec[1], name)
            for k, v in value.items():
                if k not in kpool:
                    out.append(f"{k} (at {at} key)")
                if v not in vpool:
                    out.append(f"{v} (at {at}[{k}])")
    return pools


def _rename_derived(cell: str, one_map: dict, two_map: dict) -> str:
    """Rename a possibly derived identifier: declared cells by their own
    map, square and square-pair encodings componentwise."""
    if cell in one_map:
        return one_map[cell]
    if cell in two_map:
        return two_map[cell]
    parts = cell.split("|")
    try:
        if len(parts) == 5:
            f, g, a, b, phi = parts
            return "|".join([one_map[f], one_map[g], one_map[a], one_map[b],
                             two_map[phi]])
        if len(parts) == 12:
            return "|".join([
                _rename_derived("|".join(parts[0:5]), one_map, two_map),
                _rename_derived("|".join(parts[5:10]), one_map, two_map),
                two_map[parts[10]], two_map[parts[11]]])
    except KeyError:
        pass
    raise InputError(f"cannot canonicalize unknown cell {cell}")


def _renamed(fields: dict[str, tuple], body: Mapping[str, Any],
             pools: _Pools | None = None) -> tuple[dict, _Pools]:
    """A document with every string replaced by its canonical name, and
    its pools.  A table is renamed in the given enclosing ``pools``."""
    out: dict[str, Any] = {}

    def nested(name: str, kind: str) -> _Pools:
        out[name], sub = _renamed(_SCHEMAS[kind], body[name])
        return sub

    if pools is None:
        pools = _pools(fields, body, nested)

    def renamer(ref: str) -> Callable[[str], str]:
        if ref[0] != "~":
            return pools[ref.rstrip("!")].__getitem__
        scope = ref[1:-1]
        tried = (pools[ref[1:]], pools[scope + "o"])

        def derived(x: str) -> str:
            for pool in tried:
                if x in pool:
                    return pool[x]
            return _rename_derived(x, pools[scope + "f"], pools[scope + "a"])
        return derived

    for name, spec in fields.items():
        shape, value = spec[0], body[name]
        if shape == "list-str":
            out[name] = list(map(renamer(spec[1]), value))
        elif shape == "rows":
            cols = [(col, renamer(ref)) for col, ref in spec[1].items()]
            out[name] = [{col: new(row[col]) for col, new in cols}
                         for row in value]
        elif shape == "map":
            key, val = renamer(spec[1]), renamer(spec[2])
            out[name] = {key(k): val(v) for k, v in value.items()}
        elif shape == "bool":
            out[name] = value
        elif shape == "table":
            out[name] = _renamed(spec[1], value, pools)[0]
    return out, pools


# ---------------------------------------------------------------------------
# parse / serialize / canonicalize
# ---------------------------------------------------------------------------

def parse(text: str) -> Document:
    """Parse interchange text into a :class:`Document`.

    Raises :class:`InputError` with line and column for malformed JSON, the
    violated schema rule for shape errors, and an exhaustive list of
    dangling references for integrity errors.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"parse error at line {exc.lineno}, column "
                         f"{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise _rule("top-level-object", "document must be a JSON object")
    if data.get("version") != 1:
        raise _rule("version", f"unsupported version {data.get('version')!r}"
                    f" (expected 1)")
    kind = data.get("kind")
    if kind not in KINDS:
        raise _rule("kind", f"unknown kind {kind!r}")
    body = {k: v for k, v in data.items() if k not in ("version", "kind")}
    _check_fields(body, _SCHEMAS[kind], "")
    dangling: list[str] = []
    _dangling(_SCHEMAS[kind], body, "", dangling)
    if dangling:
        raise InputError("dangling references: " + "; ".join(dangling))
    return Document(1, kind, body)


def _sorted_ids(fields: dict[str, tuple], body: Mapping[str, Any],
                out: set[str]) -> set[str]:
    """Add to ``out`` every identifier a document is sorted by: those of
    its identifier lists and of its rows' sort columns."""
    for name, spec in fields.items():
        shape, value = spec[0], body[name]
        if shape == "list-str":
            out.update(value)
        elif shape == "rows":
            for col in tuple(spec[1])[:spec[2]]:
                out.update(row[col] for row in value)
        elif shape == "nested":
            _sorted_ids(_SCHEMAS[spec[1]], value, out)
        elif shape == "table":
            _sorted_ids(spec[1], value, out)
    return out


def _ranks(ids: set[str]) -> dict[str, int]:
    """One dense rank per identifier, in natural-key order; identifiers
    with equal natural keys (``f2``, ``f02``) share a rank, so a stable
    sort keeps them in input order."""
    keyed = sorted(((natural_key(s), s) for s in ids), key=itemgetter(0))
    rank: dict[str, int] = {}
    prev, r = None, -1
    for k, s in keyed:
        if k != prev:
            prev, r = k, r + 1
        rank[s] = r
    return rank


def _normalize(fields: dict[str, tuple], body: Mapping[str, Any],
               rank: dict[str, int]) -> dict:
    out: dict[str, Any] = {}
    for name, spec in fields.items():
        value = body[name]
        shape = spec[0]
        if shape == "list-str":
            out[name] = sorted(value, key=rank.__getitem__)
        elif shape == "rows":
            cols = tuple(spec[1])[:spec[2]]
            if len(cols) == 1:
                col = cols[0]
                out[name] = sorted(value, key=lambda row: rank[row[col]])
            else:
                get = itemgetter(*cols)
                out[name] = sorted(value, key=lambda row: tuple(
                    map(rank.__getitem__, get(row))))
        elif shape == "nested":
            out[name] = _normalize(_SCHEMAS[spec[1]], value, rank)
        elif shape == "table":
            out[name] = _normalize(spec[1], value, rank)
        else:  # maps and booleans: the writer sorts map keys itself
            out[name] = value
    return out


class _Encoded(dict):
    """JSON string literals of identifiers, each encoded on first lookup
    only, by the C encoder the ``json`` module uses for non-ASCII output."""

    def __missing__(self, s: str) -> str:
        text = self[s] = encode_basestring(s)
        return text


#: The most items of a list, rows or map table written as one piece.
_PIECE = 1024


def _array(brackets: str, texts: Iterable[str], inner: str,
           close: str) -> Iterator[str]:
    """A JSON array or object of already written items, one per line at the
    ``inner`` indent, in pieces of up to ``_PIECE`` items; empty, just its
    two brackets."""
    texts, sep = iter(texts), "," + inner
    piece = list(itertools.islice(texts, _PIECE))
    if not piece:
        yield brackets
        return
    yield brackets[0] + inner + sep.join(piece)
    while piece := list(itertools.islice(texts, _PIECE)):
        yield sep + sep.join(piece)
    yield close + brackets[1]


@lru_cache(maxsize=None)
def _row_template(cols: tuple[str, ...], depth: int) -> str:
    """A ``%``-template for one row of a rows table at nesting ``depth``,
    with one ``%s`` per column in sorted order."""
    pad = "\n" + "  " * depth
    return ("{" + ",".join(f"{pad}  {encode_basestring(c)}: %s"
                           for c in cols) + pad + "}")


def _write(fields: dict[str, tuple], body: Mapping[str, Any],
           enc: Callable[[str], str], depth: int,
           members: Mapping[str, str] = {}) -> Iterator[str]:
    """The JSON text of a normalized document object ``depth`` levels deep,
    in pieces, with sorted keys and two-space indentation, and with the
    written ``members`` (name to text) among its fields."""
    close = "\n" + "  " * depth
    at = close + "  "
    inner = at + "  "
    lead = "{"
    for name in sorted([*fields, *members]):
        yield f"{lead}{at}{enc(name)}: "
        lead = ","
        if name in members:
            yield members[name]
            continue
        spec = fields[name]
        shape, value = spec[0], body[name]
        if shape == "list-str":
            yield from _array("[]", map(enc, value), inner, at)
        elif shape == "rows":
            cols = tuple(sorted(spec[1]))
            row, get = _row_template(cols, depth + 2), itemgetter(*cols)
            yield from _array("[]", (row % tuple(map(enc, get(r)))
                                     for r in value), inner, at)
        elif shape == "map":
            yield from _array("{}", (f"{enc(k)}: {enc(v)}"
                                     for k, v in sorted(value.items())),
                              inner, at)
        elif shape == "bool":
            yield "true" if value else "false"
        elif shape == "nested":
            yield from _write(_SCHEMAS[spec[1]], value, enc, depth + 1)
        else:  # table
            yield from _write(spec[1], value, enc, depth + 1)
    yield close + "}"


def serialize_pieces(doc: Document) -> Iterator[str]:
    """The text of :func:`serialize` as consecutive pieces, made as they are
    read, with each list, rows or map table in pieces of up to 1,024 items.
    The kind is checked and the document put in normal form before this
    returns, so reading the pieces only writes."""
    if doc.kind not in KINDS:
        raise InputError(f"unknown kind {doc.kind!r}")
    fields = _SCHEMAS[doc.kind]
    body = _normalize(fields, doc.body, _ranks(_sorted_ids(
        fields, doc.body, set())))
    enc = _Encoded().__getitem__
    return itertools.chain(_write(fields, body, enc, 0, {
        "kind": enc(doc.kind), "version": "1"}), ("\n",))


def serialize(doc: Document) -> str:
    """Emit the document's normal form: sorted keys, natural-sorted
    identifier lists and rows, two-space indentation, trailing newline.
    Written from the schema, with each distinct identifier encoded once;
    the bytes are those the ``json`` module writes for the payload with
    sorted keys, ``indent=2`` and ``ensure_ascii=False``, plus a newline."""
    return "".join(serialize_pieces(doc))


def canonicalize(doc: Document) -> Document:
    """Rename all cells to the stable scheme (objects ``o0, o1, …``,
    1-cells ``f0, …``, 2-cells ``a0, …``) in declaration order, rewriting
    derived square identifiers componentwise.  Idempotent on serializer
    output."""
    if doc.kind not in KINDS:
        raise InputError(f"unknown kind {doc.kind!r}")
    return Document(1, doc.kind, _renamed(_SCHEMAS[doc.kind], doc.body)[0])


# ---------------------------------------------------------------------------
# entity bridges
# ---------------------------------------------------------------------------

def _twocat_body(t: TwoCategory) -> dict[str, Any]:
    return {
        "objects": list(t.objects),
        "one_cells": [{"id": i, "src": s, "tgt": g}
                      for i, s, g in t.one_cells],
        "comp1": [{"g": g, "f": f, "gf": gf}
                  for (g, f), gf in t.comp1.items()],
        "id1": dict(t.id1),
        "two_cells": [{"id": i, "src": s, "tgt": g}
                      for i, s, g in t.two_cells],
        "vcomp": [{"b": b, "a": a, "ba": ba}
                  for (b, a), ba in t.vcomp.items()],
        "id2": dict(t.id2),
        "lwhisker": [{"h": h, "a": a, "ha": ha}
                     for (h, a), ha in t.lwhisker.items()],
        "rwhisker": [{"a": a, "e": e, "ae": ae}
                     for (a, e), ae in t.rwhisker.items()],
    }


def _body_twocat(body: Mapping[str, Any]) -> TwoCategory:
    return TwoCategory(
        objects=tuple(body["objects"]),
        one_cells=tuple((r["id"], r["src"], r["tgt"])
                        for r in body["one_cells"]),
        comp1={(r["g"], r["f"]): r["gf"] for r in body["comp1"]},
        id1=dict(body["id1"]),
        two_cells=tuple((r["id"], r["src"], r["tgt"])
                        for r in body["two_cells"]),
        vcomp={(r["b"], r["a"]): r["ba"] for r in body["vcomp"]},
        id2=dict(body["id2"]),
        lwhisker={(r["h"], r["a"]): r["ha"] for r in body["lwhisker"]},
        rwhisker={(r["a"], r["e"]): r["ae"] for r in body["rwhisker"]},
    )


def two_category_to_document(t: TwoCategory) -> Document:
    return Document(1, "two_category", _twocat_body(t))


def document_to_two_category(doc: Document) -> TwoCategory:
    if doc.kind not in ("two_category", "two_ideal", "factorization_system"):
        raise InputError(f"expected a 2-category document, got {doc.kind}")
    return _body_twocat(doc.body)


def _ideal_body(n: TwoIdeal) -> dict[str, Any]:
    return {
        "null_one_cells": list(n.null_one_cells),
        "null_two_cells": list(n.null_two_cells),
        "replacement": [
            {"a": a, "n": nl, "b": b, "tilde": tilde, "nu": nu}
            for (a, nl, b), (tilde, nu) in n.replacement.items()],
    }


def two_ideal_to_document(t: TwoCategory, n: TwoIdeal) -> Document:
    return Document(1, "two_ideal", {**_twocat_body(t), **_ideal_body(n)})


def document_to_two_ideal(doc: Document) -> tuple[TwoCategory, TwoIdeal]:
    if doc.kind != "two_ideal":
        raise InputError(f"expected a two_ideal document, got {doc.kind}")
    n = TwoIdeal(
        null_one_cells=tuple(doc.body["null_one_cells"]),
        null_two_cells=tuple(doc.body["null_two_cells"]),
        replacement={(r["a"], r["n"], r["b"]): (r["tilde"], r["nu"])
                     for r in doc.body["replacement"]},
    )
    return _body_twocat(doc.body), n


def _fs_body(fs: FactorizationSystem) -> dict[str, Any]:
    return {
        "E": list(fs.left_class),
        "M": list(fs.right_class),
        "fact": [{"f": f, "e": e, "m": m, "theta": theta}
                 for f, (e, m, theta) in fs.factorization.items()],
    }


def _body_fs(body: Mapping[str, Any]) -> FactorizationSystem:
    return FactorizationSystem(
        left_class=tuple(body["E"]),
        right_class=tuple(body["M"]),
        factorization={r["f"]: (r["e"], r["m"], r["theta"])
                       for r in body["fact"]},
    )


def fs_to_document(t: TwoCategory, fs: FactorizationSystem) -> Document:
    return Document(1, "factorization_system",
                    {**_twocat_body(t), **_fs_body(fs)})


def document_to_fs(doc: Document) -> tuple[TwoCategory,
                                           FactorizationSystem]:
    if doc.kind != "factorization_system":
        raise InputError(f"expected a factorization_system document, got "
                         f"{doc.kind}")
    return _body_twocat(doc.body), _body_fs(doc.body)


def _functor_tables(p: PseudoFunctor) -> dict[str, Any]:
    return {
        "ob": dict(p.ob),
        "one": dict(p.one),
        "two": dict(p.two),
        "compositor": [{"g": g, "f": f, "cell": cell}
                       for (g, f), cell in p.compositor.items()],
    }


def pseudofunctor_to_document(p: PseudoFunctor) -> Document:
    return Document(1, "pseudofunctor", {
        "source": _twocat_body(p.source),
        "target": _twocat_body(p.target),
        **_functor_tables(p),
    })


def document_to_pseudofunctor(doc: Document) -> PseudoFunctor:
    if doc.kind != "pseudofunctor":
        raise InputError(f"expected a pseudofunctor document, got "
                         f"{doc.kind}")
    return _body_pseudofunctor(doc.body)


def _interned(table: Mapping[str, str], keys: Mapping[str, str],
              values: Mapping[str, str]) -> dict[str, str]:
    """``table`` with each key and value declared in ``keys`` / ``values``
    as the declared string object; the shape checks reject any other."""
    key, value = keys.get, values.get
    return {key(x, x): value(v, v) for x, v in table.items()}


def _body_pseudofunctor(body: Mapping[str, Any]) -> PseudoFunctor:
    return _tables_functor(body, _body_twocat(body["source"]),
                           _body_twocat(body["target"]), {}, {})


def _tables_functor(tables: Mapping[str, Any], source: TwoCategory,
                    target: TwoCategory, keys: Mapping[str, str],
                    values: Mapping[str, str]) -> PseudoFunctor:
    """A pseudofunctor read off its tables, with the ids declared in
    ``keys`` (source) and ``values`` (target) as the declared objects."""
    key, value = keys.get, values.get
    return PseudoFunctor(
        source, target,
        *(_interned(tables[name], keys, values)
          for name in ("ob", "one", "two")),
        {(key(r["g"], r["g"]), key(r["f"], r["f"])):
         value(r["cell"], r["cell"]) for r in tables["compositor"]})


def pseudonatural_to_document(nat: PseudoNatural) -> Document:
    return Document(1, "pseudonatural", {
        "source_functor": pseudofunctor_to_document(
            nat.source_functor).body,
        "target_functor": pseudofunctor_to_document(
            nat.target_functor).body,
        **_natural_tables(nat),
    })


def document_to_pseudonatural(doc: Document) -> PseudoNatural:
    if doc.kind != "pseudonatural":
        raise InputError(f"expected a pseudonatural document, got "
                         f"{doc.kind}")
    return _tables_natural(doc.body, {},
                           _body_pseudofunctor(doc.body["source_functor"]),
                           _body_pseudofunctor(doc.body["target_functor"]))


def _tables_natural(tables: Mapping[str, Any], ids: Mapping[str, str],
                    *functors: PseudoFunctor) -> PseudoNatural:
    """A transformation read off its tables, as :func:`_tables_functor`."""
    return PseudoNatural(*functors, _interned(tables["component"], ids, ids),
                         _interned(tables["structure"], ids, ids),
                         tables["claims_equivalences"])


def _natural_tables(nat: PseudoNatural) -> dict[str, Any]:
    return {
        "component": dict(nat.component),
        "structure": dict(nat.structure),
        "claims_equivalences": nat.claims_equivalences,
    }


def witness_bundle_to_document(t: TwoCategory, fs: FactorizationSystem,
                               k: PseudoFunctor, c: PseudoFunctor,
                               eta: PseudoNatural,
                               epsilon: PseudoNatural) -> Document:
    """Bundle one base 2-category, a factorization system on it, and the
    kernel/cokernel functors with unit and counit into one document.  The
    two pseudo-arrow 2-categories are not serialized; they are rebuilt from
    the classes on reconstruction."""
    return Document(1, "witness-bundle", {
        "base": _twocat_body(t),
        **_fs_body(fs),
        "k": _functor_tables(k),
        "c": _functor_tables(c),
        "eta": _natural_tables(eta),
        "epsilon": _natural_tables(epsilon),
    })


def witness_bundle_base(doc: Document) -> TwoCategory:
    """The base 2-category of a witness bundle alone, without the
    pseudo-arrow 2-categories, whose construction needs a lawful base."""
    if doc.kind != "witness-bundle":
        raise InputError(f"expected a witness-bundle document, got "
                         f"{doc.kind}")
    return _body_twocat(doc.body["base"])


def document_to_witness_bundle(doc: Document) -> tuple[
        TwoCategory, FactorizationSystem, PseudoFunctor, PseudoFunctor,
        PseudoNatural, PseudoNatural]:
    t = witness_bundle_base(doc)
    body = doc.body
    fs = _body_fs(body)
    e_cat = arrow_subcat(t, fs.left_class).cat
    m_cat = arrow_subcat(t, fs.right_class).cat
    # each cell id to itself: the tables then hold the declared string
    # objects, not second copies of them
    e_ids, m_ids = ({i: i for i in itertools.chain(
        cat.objects, cat.one_ids, cat.two_ids)} for cat in (e_cat, m_cat))
    k = _tables_functor(body["k"], e_cat, m_cat, e_ids, m_ids)
    c = _tables_functor(body["c"], m_cat, e_cat, m_ids, e_ids)
    check_pseudofunctor_shape(k)
    check_pseudofunctor_shape(c)
    eta = _tables_natural(body["eta"], e_ids, identity_pseudofunctor(e_cat),
                          compose_pseudofunctors(c, k))
    epsilon = _tables_natural(body["epsilon"], m_ids,
                              compose_pseudofunctors(k, c),
                              identity_pseudofunctor(m_cat))
    check_pseudonatural_shape(eta)
    check_pseudonatural_shape(epsilon)
    return t, fs, k, c, eta, epsilon


def finite_category_to_document(c: FiniteCategory) -> Document:
    return Document(1, "finite_category", {
        "objects": list(c.objects),
        "morphisms": [{"id": i, "src": s, "tgt": g}
                      for i, s, g in c.morphisms],
        "comp": [{"g": g, "f": f, "gf": gf}
                 for (g, f), gf in c.comp.items()],
        "ident": dict(c.ident),
    })


def document_to_finite_category(doc: Document) -> FiniteCategory:
    if doc.kind not in ("finite_category", "one_ideal"):
        raise InputError(f"expected a finite_category document, got "
                         f"{doc.kind}")
    return FiniteCategory(
        objects=tuple(doc.body["objects"]),
        morphisms=tuple((r["id"], r["src"], r["tgt"])
                        for r in doc.body["morphisms"]),
        comp={(r["g"], r["f"]): r["gf"] for r in doc.body["comp"]},
        ident=dict(doc.body["ident"]),
    )


def one_ideal_to_document(c: FiniteCategory, ideal: OneIdeal) -> Document:
    return Document(1, "one_ideal", {
        **finite_category_to_document(c).body,
        "null": sorted(ideal.null, key=natural_key),
    })


def document_to_one_ideal(doc: Document) -> tuple[FiniteCategory, OneIdeal]:
    if doc.kind != "one_ideal":
        raise InputError(f"expected a one_ideal document, got {doc.kind}")
    return (document_to_finite_category(doc),
            OneIdeal(null=frozenset(doc.body["null"])))
