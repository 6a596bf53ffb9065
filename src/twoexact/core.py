"""Finite strict 2-categories presented as explicit total tables.

A two-category here is a finite collection of objects, 1-cells and 2-cells,
together with total lookup tables for 1-cell composition, vertical composition
of 2-cells and whiskering of 2-cells by 1-cells on either side.  Horizontal
composition of 2-cells is not stored; it is derived from whiskering and
vertical composition.  Equality of cells is equality of identifiers, and every
search in the package iterates cells in the order the tables list them, so all
results are deterministic for a given presentation.
"""
from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property, wraps
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping


class InputError(Exception):
    """Raised when input data is malformed: dangling identifiers, missing or
    extra table entries, or records that do not describe cells at all.

    Distinct from a failing :class:`Certificate`: a certificate reports that a
    well-formed structure violates a law, while this exception reports that the
    data does not present a structure in the first place.
    """


class CapExceeded(Exception):
    """Raised internally when a configured search cap is hit before the search
    concluded; callers that emit certificates convert it to an inconclusive
    certificate rather than letting it escape."""

    def __init__(self, context: str, cap: int):
        super().__init__(f"search cap {cap} exceeded during {context}")
        self.context = context
        self.cap = cap


class Budget:
    """Counts quantifier instances consumed by a search against an optional cap."""

    def __init__(self, cap: int | None, context: str):
        self.cap = cap
        self.context = context
        self.spent = 0

    def tick(self, n: int = 1) -> None:
        self.spent += n
        if self.cap is not None and self.spent > self.cap:
            raise CapExceeded(self.context, self.cap)


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable outcome of one check.

    ``status`` is ``"pass"``, ``"fail"`` or ``"inconclusive"`` (a search cap
    was exhausted).  On pass, ``witness`` carries the cells realizing the
    property; on fail, ``counterexample`` carries the violating cell tuple and
    the tag of the violated clause so the violation can be replayed.
    """

    check: str
    status: str
    witness: Any = None
    counterexample: Any = None
    detail: Any = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"check": self.check, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def _fail(check: str, clause: str, **cells: Any) -> Certificate:
    return Certificate(check, "fail", counterexample={"clause": clause, "cells": cells})


def _inconclusive(check: str, exc: CapExceeded) -> Certificate:
    return Certificate(
        check, "inconclusive",
        detail={"reason": "cap exceeded", "context": exc.context, "cap": exc.cap},
    )


def _memo(build: Callable[..., Any]) -> Callable[..., Any]:
    """Memoize ``build(t, *key)`` on the object ``t`` it reads, a category,
    a side of the constructive builders (``exact._Side``) or a
    pseudofunctor: one table per function, kept in ``t.__dict__`` under the
    name ``table``, so the table dies with ``t``.  A hit is one lookup in
    it; a build that raises stores nothing."""
    name = f"_memo {build.__module__}.{build.__qualname__}"

    @wraps(build)
    def cached(t: Any, *key: Any) -> Any:
        try:
            return t.__dict__[name][key]
        except KeyError:
            out = t.__dict__.setdefault(name, {})[key] = build(t, *key)
            return out
    cached.table = name
    return cached


class _Computed(Mapping):
    """A read-only table that stores no entry: a call of ``keys`` lists its
    keys in table order, and ``read(key)`` computes an entry each time it
    is read, raising ``KeyError`` exactly for a key outside the table."""

    __slots__ = ("_keys", "_read")

    def __init__(self, keys: Callable[[], Iterable[Any]],
                 read: Callable[[Any], Any]):
        self._keys = keys
        self._read = read

    def __getitem__(self, key: Any) -> Any:
        return self._read(key)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._keys())

    def __len__(self) -> int:
        return sum(1 for _ in self._keys())


@dataclass(frozen=True)
class TwoCategory:
    """A strict 2-category as total tables over finite cell inventories.

    ``one_cells`` and ``two_cells`` are ``(id, src, tgt)`` triples; ``comp1``
    maps each composable pair ``(g, f)`` to ``g∘f``; ``vcomp`` maps each
    vertically composable pair ``(b, a)`` to ``b·a`` (``b`` after ``a``);
    ``lwhisker`` maps ``(h, a)`` to ``h⋆a`` and ``rwhisker`` maps ``(a, e)``
    to ``a⋆e``.
    """

    objects: tuple[str, ...]
    one_cells: tuple[tuple[str, str, str], ...]
    comp1: Mapping[tuple[str, str], str]
    id1: Mapping[str, str]
    two_cells: tuple[tuple[str, str, str], ...]
    vcomp: Mapping[tuple[str, str], str]
    id2: Mapping[str, str]
    lwhisker: Mapping[tuple[str, str], str]
    rwhisker: Mapping[tuple[str, str], str]
    # on a dual built by :attr:`dual`, a weak reference to its primal
    _primal: Any = field(default=None, init=False, repr=False, compare=False)

    # -- inventories -------------------------------------------------------

    @cached_property
    def one_ids(self) -> tuple[str, ...]:
        return tuple(i for i, _, _ in self.one_cells)

    @cached_property
    def two_ids(self) -> tuple[str, ...]:
        return tuple(i for i, _, _ in self.two_cells)

    @cached_property
    def src1(self) -> dict[str, str]:
        return {i: s for i, s, _ in self.one_cells}

    @cached_property
    def tgt1(self) -> dict[str, str]:
        return {i: t for i, _, t in self.one_cells}

    @cached_property
    def src2(self) -> dict[str, str]:
        return {i: s for i, s, _ in self.two_cells}

    @cached_property
    def tgt2(self) -> dict[str, str]:
        return {i: t for i, _, t in self.two_cells}

    @cached_property
    def _bounds(self) -> dict[tuple[int, str | None, str | None], tuple[str, ...]]:
        """Cell ids of each dimension by boundary, in table order: under
        ``(dim, src, tgt)``, ``(dim, src, None)`` and ``(dim, None, tgt)``."""
        out: dict[tuple[int, str | None, str | None], list[str]] = {}
        for dim, cells in ((1, self.one_cells), (2, self.two_cells)):
            for i, s, t in cells:
                for key in ((dim, s, t), (dim, s, None), (dim, None, t)):
                    out.setdefault(key, []).append(i)
        return {k: tuple(v) for k, v in out.items()}

    def hom1(self, a: str | None, b: str | None) -> tuple[str, ...]:
        """All 1-cells from object ``a`` to object ``b``, in table order;
        ``None`` leaves that end free."""
        return self._bounds.get((1, a, b), ())

    def hom2(self, f: str | None, g: str | None) -> tuple[str, ...]:
        """All 2-cells from 1-cell ``f`` to 1-cell ``g``, in table order;
        ``None`` leaves that end free."""
        return self._bounds.get((2, f, g), ())

    # -- operations --------------------------------------------------------

    def cmp1(self, g: str, f: str) -> str:
        """The composite ``g∘f`` (``f`` then ``g``)."""
        try:
            return self.comp1[(g, f)]
        except KeyError:
            raise InputError(f"1-cells not composable: ({g}, {f})") from None

    def vc(self, b: str, a: str) -> str:
        """The vertical composite ``b·a`` (``a`` then ``b``)."""
        try:
            return self.vcomp[(b, a)]
        except KeyError:
            raise InputError(f"2-cells not vertically composable: ({b}, {a})") from None

    def lw(self, h: str, a: str) -> str:
        """The left whiskering ``h⋆a`` of 2-cell ``a`` by 1-cell ``h``."""
        try:
            return self.lwhisker[(h, a)]
        except KeyError:
            raise InputError(f"left whiskering undefined: ({h}, {a})") from None

    def rw(self, a: str, e: str) -> str:
        """The right whiskering ``a⋆e`` of 2-cell ``a`` by 1-cell ``e``."""
        try:
            return self.rwhisker[(a, e)]
        except KeyError:
            raise InputError(f"right whiskering undefined: ({a}, {e})") from None

    def id2_of(self, f: str) -> str:
        try:
            return self.id2[f]
        except KeyError:
            raise InputError(f"no identity 2-cell recorded for 1-cell {f}") from None

    def hc(self, b: str, a: str) -> str:
        """Horizontal composite ``b∘a`` of 2-cells, derived as ``(b⋆f')·(g⋆a)``
        where ``a: f ⇒ f'`` and ``b: g ⇒ g'``."""
        f2 = self.tgt2[a]
        g = self.src2[b]
        return self.vc(self.rw(b, f2), self.lw(g, a))

    def vc_chain(self, *cells: str) -> str:
        """Vertical composite of a chain listed target-to-source,
        ``vc_chain(c, b, a) = c·b·a``."""
        if not cells:
            raise InputError("empty vertical chain")
        out = cells[-1]
        for c in reversed(cells[:-1]):
            out = self.vc(c, out)
        return out

    def cmp1_chain(self, *cells: str) -> str:
        """Composite of a 1-cell chain listed target-to-source."""
        if not cells:
            raise InputError("empty 1-cell chain")
        out = cells[-1]
        for c in reversed(cells[:-1]):
            out = self.cmp1(c, out)
        return out

    # -- invertibility -----------------------------------------------------

    @cached_property
    def inverse2(self) -> dict[str, str]:
        """Maps each invertible 2-cell to its (unique) inverse."""
        out: dict[str, str] = {}
        for a, f, g in self.two_cells:
            if a in out:
                continue
            for b in self.hom2(g, f):
                if (self.vcomp.get((b, a)) == self.id2.get(f)
                        and self.vcomp.get((a, b)) == self.id2.get(g)):
                    out[a] = b
                    out[b] = a
                    break
        return out

    def is_invertible2(self, a: str) -> bool:
        return a in self.inverse2

    def inv(self, a: str) -> str:
        try:
            return self.inverse2[a]
        except KeyError:
            raise InputError(f"2-cell {a} is not invertible") from None

    @cached_property
    def _isos(self) -> dict[tuple[str, str | None], tuple[str, ...]]:
        """Invertible 2-cell ids by boundary, in table order: under
        ``(src, tgt)`` and ``(src, None)``."""
        out: dict[tuple[str, str | None], list[str]] = {}
        inverse2 = self.inverse2
        for a, f, g in self.two_cells:
            if a in inverse2:
                out.setdefault((f, g), []).append(a)
                out.setdefault((f, None), []).append(a)
        return {k: tuple(v) for k, v in out.items()}

    def iso2(self, f: str, g: str | None = None) -> tuple[str, ...]:
        """All invertible 2-cells from ``f`` to ``g``, in table order;
        ``None`` leaves the target free."""
        return self._isos.get((f, g), ())

    # -- search indexes -----------------------------------------------------

    @_memo
    def null_cones(self, null1: frozenset[str],
                   f: str) -> tuple[tuple[str, str, str], ...]:
        """The triples ``(z, nz, β)``: ``z`` into the source of ``f``,
        ``nz`` in ``null1`` parallel to ``f∘z`` and ``β: f∘z ⇒ nz``
        invertible; by the source object of ``z`` in object order, then in
        table order.  Built once per ``(null1, f)``.

        For each ``z`` these are the invertible 2-cells out of ``f∘z`` whose
        targets are null 1-cells ``obj → b``, sorted by the rank of the
        target in the 1-cell table, and in table order within one target:
        the order of a scan of ``hom1(obj, b)``, without that scan."""
        a, b = self.src1[f], self.tgt1[f]
        src1, tgt1, tgt2, rank = self.src1, self.tgt1, self.tgt2, self._rank1
        out = []
        for obj in self.objects:
            for z in self.hom1(obj, a):
                hits = [(rank[nz], z, nz, beta)
                        for beta in self.iso2(self.cmp1(f, z))
                        if (nz := tgt2[beta]) in null1
                        and src1[nz] == obj and tgt1[nz] == b]
                hits.sort(key=itemgetter(0))
                out += hits
        return tuple(hit[1:] for hit in out)

    @cached_property
    def _rank1(self) -> dict[str, int]:
        """The position of each 1-cell in the 1-cell table."""
        return {f: i for i, f in enumerate(self.one_ids)}

    @_memo
    def leg_fibres(self, k: str, s: str) -> dict[str, tuple[int, ...]]:
        """For the 1-cell ``k`` and the object ``s``: each composite ``w``
        to the positions in ``hom1(s, src k)`` of the ``u`` with
        ``k∘u = w``, ascending.  Built once per ``(k, s)``."""
        out: dict[str, list[int]] = {}
        for i, u in enumerate(self.hom1(s, self.src1[k])):
            out.setdefault(self.cmp1(k, u), []).append(i)
        return {w: tuple(v) for w, v in out.items()}

    # -- duality ------------------------------------------------------------

    @property
    def dual(self) -> "TwoCategory":
        """The 1-cell dual: reverse 1-cells, keep 2-cell directions.

        Composition reverses (``g∘f`` becomes ``f∘g``), left and right
        whiskering trade places, and null/kernel notions turn into their
        co-versions.  Built once and linked back, so ``t.dual.dual is t``:
        the involution is an identity rather than merely an isomorphism.
        The primal holds its dual and the dual only a weak reference to the
        primal, so the two form no reference cycle; a dual whose primal
        has died builds a new one.
        """
        primal = None if self._primal is None else self._primal()
        return self._dual if primal is None else primal

    @cached_property
    def _dual(self) -> "TwoCategory":
        d = TwoCategory(
            objects=self.objects,
            one_cells=tuple((i, tt, s) for i, s, tt in self.one_cells),
            comp1={(f, g): v for (g, f), v in self.comp1.items()},
            id1=dict(self.id1),
            two_cells=self.two_cells,
            vcomp=dict(self.vcomp),
            id2=dict(self.id2),
            lwhisker={(e, a): v for (a, e), v in self.rwhisker.items()},
            rwhisker={(a, h): v for (h, a), v in self.lwhisker.items()},
        )
        object.__setattr__(d, "_primal", weakref.ref(self))
        return d

    @cached_property
    def _equivalences(self) -> frozenset[str]:
        """The 1-cells that pass :func:`is_equivalence`."""
        return frozenset(equivalences(self))

    @cached_property
    def locally_thin(self) -> bool:
        """Whether there is at most one 2-cell between any two parallel
        1-cells: no ``(2, src, tgt)`` entry of the boundary index lists
        two cells."""
        return all(len(cells) < 2 for (dim, f, g), cells in self._bounds.items()
                   if dim == 2 and f is not None and g is not None)


# ---------------------------------------------------------------------------
# structural shape checking (raises InputError; not a certificate concern)
# ---------------------------------------------------------------------------

@_memo
def check_shape(t: TwoCategory) -> None:
    """Verify referential integrity and table totality, raising
    :class:`InputError` on the first defect found.

    Covers: duplicate identifiers; 1-cell/2-cell records referring to unknown
    objects/1-cells; non-parallel 2-cell boundaries; missing, extra or
    dangling entries in the composition, identity and whiskering tables.
    Boundary correctness of table *values* is a law matter left to
    :func:`validate_two_category`.  The first stage of :func:`_law_verdict`,
    so a well-shaped category is checked once.
    """
    obs = set(t.objects)
    if len(obs) != len(t.objects):
        raise InputError("duplicate object identifiers")
    if len(set(t.one_ids)) != len(t.one_ids):
        raise InputError("duplicate 1-cell identifiers")
    if len(set(t.two_ids)) != len(t.two_ids):
        raise InputError("duplicate 2-cell identifiers")
    ones = set(t.one_ids)
    twos = set(t.two_ids)

    for i, s, tt in t.one_cells:
        if s not in obs or tt not in obs:
            raise InputError(f"1-cell {i} has unknown boundary object ({s}, {tt})")
    for i, s, tt in t.two_cells:
        if s not in ones or tt not in ones:
            raise InputError(f"2-cell {i} has unknown boundary 1-cell ({s}, {tt})")
        if (t.src1[s], t.tgt1[s]) != (t.src1[tt], t.tgt1[tt]):
            raise InputError(f"2-cell {i} has non-parallel boundary ({s}, {tt})")

    if set(t.id1) != obs:
        raise InputError("id1 table is not indexed by exactly the objects")
    for obj, f in t.id1.items():
        if f not in ones:
            raise InputError(f"id1[{obj}] = {f} is not a 1-cell")
    if set(t.id2) != ones:
        raise InputError("id2 table is not indexed by exactly the 1-cells")
    for f, a in t.id2.items():
        if a not in twos:
            raise InputError(f"id2[{f}] = {a} is not a 2-cell")

    comp_keys = {(g, f) for f in t.one_ids for g in t.hom1(t.tgt1[f], None)}
    if set(t.comp1) != comp_keys:
        missing = comp_keys - set(t.comp1)
        extra = set(t.comp1) - comp_keys
        raise InputError(
            f"comp1 keys do not match the composable pairs "
            f"(missing {sorted(missing)[:3]}..., extra {sorted(extra)[:3]}...)"
            if missing or extra else "comp1 keys malformed")
    for k, v in t.comp1.items():
        if v not in ones:
            raise InputError(f"comp1[{k}] = {v} is not a 1-cell")

    vkeys = {(b, a) for a, _, ta in t.two_cells for b in t.hom2(ta, None)}
    if set(t.vcomp) != vkeys:
        missing = vkeys - set(t.vcomp)
        extra = set(t.vcomp) - vkeys
        raise InputError(
            f"vcomp keys do not match the vertically composable pairs "
            f"(missing {len(missing)}, extra {len(extra)})")
    for k, v in t.vcomp.items():
        if v not in twos:
            raise InputError(f"vcomp[{k}] = {v} is not a 2-cell")

    lkeys = {(h, a) for a in t.two_ids
             for h in t.hom1(t.tgt1[t.src2[a]], None)}
    if set(t.lwhisker) != lkeys:
        raise InputError("lwhisker keys do not match the composable (1-cell, 2-cell) pairs")
    for k, v in t.lwhisker.items():
        if v not in twos:
            raise InputError(f"lwhisker[{k}] = {v} is not a 2-cell")

    rkeys = {(a, e) for a in t.two_ids
             for e in t.hom1(None, t.src1[t.src2[a]])}
    if set(t.rwhisker) != rkeys:
        raise InputError("rwhisker keys do not match the composable (2-cell, 1-cell) pairs")
    for k, v in t.rwhisker.items():
        if v not in twos:
            raise InputError(f"rwhisker[{k}] = {v} is not a 2-cell")


# ---------------------------------------------------------------------------
# law validation
# ---------------------------------------------------------------------------

def _generating_set(t: TwoCategory) -> tuple[str, ...]:
    """Generators of the 1-cells: every 1-cell is an identity or a
    composite ``g1∘(g2∘(…∘gk))`` of generators, read off ``comp1``.

    Greedy, in table order: a 1-cell not yet reached from the identities by
    composing generators on the left becomes a generator, and the reached
    set is closed again.  Needs composites of the right boundary.
    """
    reached = set(t.id1.values())
    gens: list[str] = []
    for f in t.one_ids:
        if f in reached:
            continue
        gens.append(f)
        fresh = [f, *(t.comp1[(f, x)] for x in t.hom1(None, t.src1[f])
                      if x in reached)]
        while fresh:
            y = fresh.pop()
            if y not in reached:
                reached.add(y)
                fresh += (t.comp1[(g, y)] for g in gens
                          if t.src1[g] == t.tgt1[y])
    return tuple(gens)


def _violations(t: TwoCategory,
                reduced: bool = False) -> Iterator[tuple[str, dict[str, str]]]:
    """Every violation of a strict 2-category law in the shape-checked tables,
    as ``(clause, cells)`` in the fixed clause order.

    A violated boundary clause ends the sweep once its loop is done: the laws
    after it would read those table values as cells of the wrong boundary.

    ``reduced`` keeps only the boundary clauses, ``comp1-unit`` and
    ``comp1-assoc`` with its middle argument over :func:`_generating_set`.
    On a locally thin input an empty reduced sweep decides "pass"; a
    reduced violation only shows that some law fails, and the full sweep
    names the first one:

    - Once the reduced clauses hold, every other clause compares two
      parallel 2-cells: both sides of each unit, associativity, whisker and
      interchange law run between the same composite 1-cells, by the
      boundary clauses, the unit laws and (for ``*-comp1`` and
      ``lwhisker-rwhisker``) associativity of 1-cells.  Parallel 2-cells of a
      locally thin input are equal.
    - ``S = {g : (h∘g)∘f = h∘(g∘f) for all h, f}`` holds the identities by
      the unit laws, and is closed under composition: for ``a, b`` in ``S``,
      ``(h∘(a∘b))∘f = ((h∘a)∘b)∘f = (h∘a)∘(b∘f) = h∘(a∘(b∘f)) =
      h∘((a∘b)∘f)``.  So ``S`` is every 1-cell once it holds the generators
      (Light's associativity test).
    """
    # identity 1-cells: boundaries and unit laws
    broken = False
    for obj in t.objects:
        e = t.id1[obj]
        if not (t.src1[e] == obj and t.tgt1[e] == obj):
            broken = True
            yield "id1-boundary", {"object": obj, "id1": e}
    if broken:
        return
    for f in t.one_ids:
        if t.comp1[(f, t.id1[t.src1[f]])] != f:
            yield "comp1-unit", {"one_cell": f, "side": "right"}
        if t.comp1[(t.id1[t.tgt1[f]], f)] != f:
            yield "comp1-unit", {"one_cell": f, "side": "left"}

    # composite boundaries
    for (g, f), gf in t.comp1.items():
        if not (t.src1[gf] == t.src1[f] and t.tgt1[gf] == t.tgt1[g]):
            broken = True
            yield "comp1-boundary", {"g": g, "f": f, "composite": gf}
    if broken:
        return

    # associativity of 1-cell composition
    middles = frozenset(_generating_set(t)) if reduced else None
    for h in t.one_ids:
        for g in t.hom1(None, t.src1[h]):
            if middles is not None and g not in middles:
                continue
            hg = t.comp1[(h, g)]
            for f in t.hom1(None, t.src1[g]):
                if t.comp1[(hg, f)] != t.comp1[(h, t.comp1[(g, f)])]:
                    yield "comp1-assoc", {"h": h, "g": g, "f": f}

    # identity 2-cells: boundaries and vertical unit laws
    for f in t.one_ids:
        i = t.id2[f]
        if not (t.src2[i] == f and t.tgt2[i] == f):
            broken = True
            yield "id2-boundary", {"one_cell": f, "id2": i}
    if broken:
        return
    for a, sa, ta in () if reduced else t.two_cells:
        if t.vcomp[(a, t.id2[sa])] != a:
            yield "vcomp-unit", {"two_cell": a, "side": "right"}
        if t.vcomp[(t.id2[ta], a)] != a:
            yield "vcomp-unit", {"two_cell": a, "side": "left"}

    # vertical composite boundaries
    for (b, a), ba in t.vcomp.items():
        if not (t.src2[ba] == t.src2[a] and t.tgt2[ba] == t.tgt2[b]):
            broken = True
            yield "vcomp-boundary", {"b": b, "a": a, "composite": ba}
    if broken:
        return

    # associativity of vertical composition (within each hom-category)
    for c in () if reduced else t.two_ids:
        for b in t.hom2(None, t.src2[c]):
            cb = t.vcomp[(c, b)]
            for a in t.hom2(None, t.src2[b]):
                if t.vcomp[(cb, a)] != t.vcomp[(c, t.vcomp[(b, a)])]:
                    yield "vcomp-assoc", {"c": c, "b": b, "a": a}

    # whisker boundaries
    for (h, a), ha in t.lwhisker.items():
        want_s = t.comp1[(h, t.src2[a])]
        want_t = t.comp1[(h, t.tgt2[a])]
        if not (t.src2[ha] == want_s and t.tgt2[ha] == want_t):
            broken = True
            yield "lwhisker-boundary", {"h": h, "a": a, "result": ha}
    for (a, e), ae in t.rwhisker.items():
        want_s = t.comp1[(t.src2[a], e)]
        want_t = t.comp1[(t.tgt2[a], e)]
        if not (t.src2[ae] == want_s and t.tgt2[ae] == want_t):
            broken = True
            yield "rwhisker-boundary", {"a": a, "e": e, "result": ae}
    if broken or reduced:
        return

    # whiskering is functorial in the 2-cell
    for (h, a) in t.lwhisker:
        if a == t.id2[t.src2[a]] and t.lwhisker[(h, a)] != t.id2[t.comp1[(h, t.src2[a])]]:
            yield "lwhisker-id2", {"h": h, "a": a}
    for (a, e) in t.rwhisker:
        if a == t.id2[t.src2[a]] and t.rwhisker[(a, e)] != t.id2[t.comp1[(t.src2[a], e)]]:
            yield "rwhisker-id2", {"a": a, "e": e}
    for (b, a), ba in t.vcomp.items():
        for h in t.hom1(t.tgt1[t.src2[a]], None):
            if t.lwhisker[(h, ba)] != t.vcomp[(t.lwhisker[(h, b)], t.lwhisker[(h, a)])]:
                yield "lwhisker-vcomp", {"h": h, "b": b, "a": a}
        for e in t.hom1(None, t.src1[t.src2[a]]):
            if t.rwhisker[(ba, e)] != t.vcomp[(t.rwhisker[(b, e)], t.rwhisker[(a, e)])]:
                yield "rwhisker-vcomp", {"b": b, "a": a, "e": e}

    # whiskering is compatible with 1-cell composition and identities
    for a in t.two_ids:
        fa = t.src2[a]
        if t.lwhisker[(t.id1[t.tgt1[fa]], a)] != a:
            yield "lwhisker-id1", {"a": a}
        if t.rwhisker[(a, t.id1[t.src1[fa]])] != a:
            yield "rwhisker-id1", {"a": a}
    for (h, a) in t.lwhisker:
        for h2 in t.hom1(t.tgt1[h], None):
            if t.lwhisker[(t.comp1[(h2, h)], a)] != t.lwhisker[(h2, t.lwhisker[(h, a)])]:
                yield "lwhisker-comp1", {"h2": h2, "h": h, "a": a}
    for (a, e) in t.rwhisker:
        for e2 in t.hom1(None, t.src1[e]):
            if t.rwhisker[(a, t.comp1[(e, e2)])] != t.rwhisker[(t.rwhisker[(a, e)], e2)]:
                yield "rwhisker-comp1", {"a": a, "e": e, "e2": e2}

    # middle-four interchange, in the derived-horizontal-composition form
    for b in t.two_ids:
        g, g2 = t.src2[b], t.tgt2[b]
        mid = t.src1[g]
        for a in t.two_ids:
            fa, fa2 = t.src2[a], t.tgt2[a]
            if t.tgt1[fa] != mid:
                continue
            lhs = t.vcomp[(t.rwhisker[(b, fa2)], t.lwhisker[(g, a)])]
            rhs = t.vcomp[(t.lwhisker[(g2, a)], t.rwhisker[(b, fa)])]
            if lhs != rhs:
                yield "interchange", {"b": b, "a": a}

    # whiskering on both sides associates: h⋆(a⋆e) = (h⋆a)⋆e
    for (a, e), ae in t.rwhisker.items():
        for h in t.hom1(t.tgt1[t.src2[a]], None):
            if t.lwhisker[(h, ae)] != t.rwhisker[(t.lwhisker[(h, a)], e)]:
                yield "lwhisker-rwhisker", {"h": h, "a": a, "e": e}


@_memo
def _law_verdict(t: TwoCategory) -> tuple[str, dict[str, str]] | None:
    """The law verdict of ``t``: :func:`check_shape`, then the first
    violated law as ``(clause, cells)`` in clause order, or None.  On a
    locally thin input an empty reduced sweep decides None (see
    :func:`_violations`); any other input gets the full sweep, once."""
    check_shape(t)
    if t.locally_thin and next(_violations(t, reduced=True), None) is None:
        return None
    return next(_violations(t), None)


def _is_lawful(t: TwoCategory) -> bool:
    """Whether :func:`_law_verdict` finds no violation; False when the
    tables of ``t`` are not well shaped.  The shape and the laws are
    self-dual, so a dual with a live primal reads the primal's verdict."""
    primal = None if t._primal is None else t._primal()
    if primal is not None:
        return _is_lawful(primal)
    try:
        return _law_verdict(t) is None
    except InputError:
        return False


def _record_lawful(t: TwoCategory) -> None:
    """Record that ``t`` is well shaped and lawful by construction."""
    for memo in (check_shape, _law_verdict):
        t.__dict__[memo.table] = {(): None}


def validate_two_category(t: TwoCategory) -> Certificate:
    """Check every strict 2-category law over the given tables.

    Returns a pass certificate, or a fail certificate citing the first
    violated clause (in a fixed deterministic clause order) with the cells
    that violate it.  Raises :class:`InputError` for shape defects.

    It reads :func:`_law_verdict`, where a thin input may pass without
    the full sweep; a failure always cites the first violation in clause
    order (``vcomp-unit``, say, before ``vcomp-boundary``).
    """
    name = "validate_two_category"
    broken = _law_verdict(t)
    if broken is not None:
        return _fail(name, broken[0], **broken[1])
    return Certificate(name, "pass", witness={
        "objects": len(t.objects), "one_cells": len(t.one_cells),
        "two_cells": len(t.two_cells)})


def replay_two_category_counterexample(t: TwoCategory, cert: Certificate) -> bool:
    """Re-run the law sweep of :func:`validate_two_category`; True iff it finds
    the cited clause violated on exactly the cited cells."""
    if cert.status != "fail" or cert.check != "validate_two_category":
        raise InputError("not a validate_two_category fail certificate")
    check_shape(t)
    c = cert.counterexample
    return (c["clause"], c["cells"]) in _violations(t)


# ---------------------------------------------------------------------------
# pasting expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gen:
    """A named 2-cell."""
    cell: str


@dataclass(frozen=True)
class Id2:
    """The identity 2-cell on a 1-cell."""
    one_cell: str


@dataclass(frozen=True)
class VComp:
    """Vertical composite ``after · before``."""
    after: "PastingExpr"
    before: "PastingExpr"


@dataclass(frozen=True)
class LWhisker:
    """Left whiskering ``post ⋆ expr`` by a 1-cell."""
    post: str
    expr: "PastingExpr"


@dataclass(frozen=True)
class RWhisker:
    """Right whiskering ``expr ⋆ pre`` by a 1-cell."""
    expr: "PastingExpr"
    pre: str


@dataclass(frozen=True)
class Inverse:
    """Vertical inverse of an invertible pasting."""
    expr: "PastingExpr"


PastingExpr = Gen | Id2 | VComp | LWhisker | RWhisker | Inverse


def paste(t: TwoCategory, expr: PastingExpr) -> str:
    """Evaluate a pasting expression to the 2-cell it denotes.

    Boundary mismatches and inversion of a non-invertible cell raise
    :class:`InputError`.
    """
    if isinstance(expr, Gen):
        if expr.cell not in t.src2:
            raise InputError(f"unknown 2-cell {expr.cell}")
        return expr.cell
    if isinstance(expr, Id2):
        return t.id2_of(expr.one_cell)
    if isinstance(expr, VComp):
        a = paste(t, expr.before)
        b = paste(t, expr.after)
        if t.src2[b] != t.tgt2[a]:
            raise InputError(
                f"vertical composite boundary mismatch: {b} after {a}")
        return t.vc(b, a)
    if isinstance(expr, LWhisker):
        a = paste(t, expr.expr)
        return t.lw(expr.post, a)
    if isinstance(expr, RWhisker):
        a = paste(t, expr.expr)
        return t.rw(a, expr.pre)
    if isinstance(expr, Inverse):
        return t.inv(paste(t, expr.expr))
    raise InputError(f"not a pasting expression: {expr!r}")


# ---------------------------------------------------------------------------
# elementary predicates
# ---------------------------------------------------------------------------

def is_faithful(t: TwoCategory, f: str) -> Certificate:
    """Whether left whiskering by ``f`` is injective on every hom-set of
    2-cells landing in the source of ``f``."""
    if f not in t.src1:
        raise InputError(f"unknown 1-cell {f}")
    name = "is_faithful"
    a_obj = t.src1[f]
    seen: dict[tuple[str, str, str], str] = {}
    for a, sa, ta in t.two_cells:
        if t.tgt1[sa] != a_obj:
            continue
        key = (sa, ta, t.lwhisker[(f, a)])
        if key in seen and seen[key] != a:
            return _fail(name, "whisker-collision", one_cell=f,
                         first=seen[key], second=a, whiskered=key[2])
        seen.setdefault(key, a)
    return Certificate(name, "pass", witness={"one_cell": f})


def is_cofaithful(t: TwoCategory, f: str) -> Certificate:
    """Whether right whiskering by ``f`` is injective; the dual of
    :func:`is_faithful`."""
    return replace(is_faithful(t.dual, f), check="is_cofaithful")


def is_equivalence(t: TwoCategory, f: str) -> Certificate:
    """Search for a pseudo-inverse: ``g`` with invertible 2-cells
    ``id ⇒ g∘f`` and ``f∘g ⇒ id``."""
    if f not in t.src1:
        raise InputError(f"unknown 1-cell {f}")
    name = "is_equivalence"
    a_obj, b_obj = t.src1[f], t.tgt1[f]
    for g in t.hom1(b_obj, a_obj):
        units = t.iso2(t.id1[a_obj], t.comp1[(g, f)])
        if not units:
            continue
        counits = t.iso2(t.comp1[(f, g)], t.id1[b_obj])
        if counits:
            return Certificate(name, "pass", witness={
                "one_cell": f, "inverse": g,
                "unit": units[0], "counit": counits[0]})
    return Certificate(name, "fail", counterexample={
        "clause": "no-pseudo-inverse", "cells": {"one_cell": f}})


def equivalences(t: TwoCategory) -> tuple[str, ...]:
    """All 1-cells that pass :func:`is_equivalence`, in table order."""
    return tuple(f for f in t.one_ids if is_equivalence(t, f).ok)


def iso_two_cells(t: TwoCategory, f: str, g: str) -> tuple[str, ...]:
    """All invertible 2-cells ``f ⇒ g``, in table order."""
    for c in (f, g):
        if c not in t.src1:
            raise InputError(f"unknown 1-cell {c}")
    return t.iso2(f, g)


def solve_lwhisker(t: TwoCategory, leg: str, src: str, tgt: str,
                   whiskered: str) -> str:
    """The unique 2-cell ``μ: src ⇒ tgt`` with ``leg ⋆ μ = whiskered``.

    This is how a faithful leg induces 2-cells: existence is the caller's
    universal-property argument, uniqueness is faithfulness.  Raises
    :class:`InputError` when the count is not exactly one.
    """
    found = [mu for mu in t.hom2(src, tgt) if t.lw(leg, mu) == whiskered]
    if len(found) != 1:
        raise InputError(
            f"expected exactly one 2-cell {src} ⇒ {tgt} whiskering to "
            f"{whiskered} under {leg}; found {len(found)}")
    return found[0]


def solve_rwhisker(t: TwoCategory, leg: str, src: str, tgt: str,
                   whiskered: str) -> str:
    """The unique 2-cell ``μ: src ⇒ tgt`` with ``μ ⋆ leg = whiskered``;
    :func:`solve_lwhisker` in the dual."""
    return solve_lwhisker(t.dual, leg, src, tgt, whiskered)


# ---------------------------------------------------------------------------
# identifier ordering
# ---------------------------------------------------------------------------

def natural_key(s: str) -> tuple:
    """Sort key comparing digit runs numerically, so ``f2`` sorts before
    ``f10``.  The canonical ordering for identifier lists everywhere cell
    names are emitted or classes are enumerated.  A digit is a decimal digit
    (Unicode category Nd); other numerals such as ``²`` count as text."""
    runs = re.split(r"(\d+)", s)
    return tuple((0, int(run)) if i % 2 else (1, run)
                 for i, run in enumerate(runs) if run)
