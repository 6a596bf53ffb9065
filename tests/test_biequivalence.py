"""The biequivalence over the base, read off squares, against the
projection-functor formulation kept here as the reference.

The reference below builds the ``dom`` projection of the left pseudo-arrow
2-category and the ``cod`` projection of the right one as strict
2-functors, validates them, and compares the composites ``Q∘K`` and ``P∘C``
with them table by table.  ``is_biequivalence_over_base`` reads the same
conditions off the squares; on every bundle and on tampered copies of it
the two give the same status, clause and cells.
"""

import dataclasses
import functools

import pytest

from family import CORE, ZERO_IDEALS
from twoexact import (
    Certificate,
    InputError,
    PseudoFunctor,
    arrow_subcat,
    compose_pseudofunctors,
    fs_from_ideal,
    identity_pseudofunctor,
    is_biequivalence_over_base,
    is_equivalence,
    pseudofunctors_equal,
    validate_pseudofunctor,
    validate_pseudonatural,
)
from twoexact.core import _fail

EXACT_NAMES = ("ld_term", "ld_pb1", "ld_pb2", "ld_ct22", "ch_pb1")

#: The bundles that are tampered with: all but pb2, whose reference check
#: takes seconds per copy.
TAMPERED_NAMES = ("ld_term", "ld_pb1", "ld_ct22", "ch_pb1")


def _projection(arrow, side):
    """``dom`` (side 0) or ``cod`` (side 1) as a strict 2-functor."""
    base, cat = arrow.base, arrow.cat
    end = (base.src1, base.tgt1)[side]
    one = {sid: arrow.square(sid)[side] for sid in cat.one_ids}
    return PseudoFunctor(
        source=cat, target=base,
        ob={e: end[e] for e in arrow.members},
        one=one,
        two={tid: arrow.pair(tid)[side] for tid in cat.two_ids},
        compositor={(g, f): base.id2[base.cmp1(one[g], one[f])]
                    for (g, f) in cat.comp1})


def reference_biequivalence(p, q, k, c, eta, epsilon) -> Certificate:
    """The projection-functor check, clause for clause."""
    name = "is_biequivalence_over_base"
    top, bottom = p.source, p.target
    if q.target != bottom:
        raise InputError("projections do not share their base")
    if k.source != top or k.target != q.source:
        raise InputError("K does not run between the projections' sources")
    if c.source != q.source or c.target != top:
        raise InputError("C does not run opposite K")

    for func, tag in ((p, "P"), (q, "Q"), (k, "K"), (c, "C")):
        cert = validate_pseudofunctor(func)
        if not cert.ok:
            return _fail(name, "functor-invalid", which=tag,
                         inner=cert.counterexample)

    for outer, inner, proj, tag, which in ((q, k, p, "Q∘K", "Q∘K≠P"),
                                          (p, c, q, "P∘C", "P∘C≠Q")):
        comp = compose_pseudofunctors(outer, inner)
        if not (dict(comp.ob) == dict(proj.ob)
                and dict(comp.one) == dict(proj.one)
                and dict(comp.two) == dict(proj.two)):
            return _fail(name, "not-over-base", which=which)
        for key, phi in comp.compositor.items():
            if phi != proj.compositor[key]:
                return _fail(name, "not-over-base",
                             which=f"{tag}-compositor", at=list(key))

    if not (pseudofunctors_equal(eta.source_functor,
                                 identity_pseudofunctor(top))
            and pseudofunctors_equal(eta.target_functor,
                                     compose_pseudofunctors(c, k))):
        return _fail(name, "unit-endpoints")
    if not (pseudofunctors_equal(epsilon.source_functor,
                                 compose_pseudofunctors(k, c))
            and pseudofunctors_equal(epsilon.target_functor,
                                     identity_pseudofunctor(q.source))):
        return _fail(name, "counit-endpoints")

    for nat, tag in ((eta, "unit"), (epsilon, "counit")):
        cert = validate_pseudonatural(nat, require_equivalences=False)
        if not cert.ok:
            return _fail(name, f"{tag}-invalid", inner=cert.counterexample)
    for nat, tag in ((eta, "unit"), (epsilon, "counit")):
        for x, comp in nat.component.items():
            if not is_equivalence(nat.source_functor.target, comp).ok:
                return _fail(name, f"{tag}-component-not-equivalence",
                             object=x, component=comp)

    for nat, proj, tag in ((eta, p, "unit"), (epsilon, q, "counit")):
        for x, comp in nat.component.items():
            if proj.one[comp] != bottom.id1[proj.ob[x]]:
                return _fail(name, f"{tag}-not-over-base", object=x,
                             component=comp)
        for h, cell in nat.structure.items():
            if proj.two[cell] != bottom.id2[proj.one[h]]:
                return _fail(name, f"{tag}-structure-not-over-base",
                             one_cell=h)

    return Certificate(name, "pass", witness={
        "unit_components": len(eta.component),
        "counit_components": len(epsilon.component)})


@functools.cache
def _bundle(name):
    t = CORE[name]
    fs, k, c, eta, epsilon = fs_from_ideal(t, ZERO_IDEALS[name])
    return (arrow_subcat(t, fs.left_class), arrow_subcat(t, fs.right_class),
            k, c, eta, epsilon)


def _outcome(check, *args):
    try:
        cert = check(*args)
    except InputError as exc:
        return ("raises", type(exc).__name__)
    return (cert.status, cert.counterexample, cert.witness)


def _reference_outcome(args):
    return _outcome(reference_biequivalence, _projection(args[0], 0),
                    _projection(args[1], 1), *args[2:])


@pytest.mark.parametrize("name", EXACT_NAMES)
def test_reference_projections_validate(name):
    e_arrow, m_arrow = _bundle(name)[:2]
    for arrow in (e_arrow, m_arrow):
        for side in (0, 1):
            assert validate_pseudofunctor(_projection(arrow, side)).ok


@pytest.mark.parametrize("name", EXACT_NAMES)
def test_bundle_passes_both_checks(name):
    args = _bundle(name)
    new = _outcome(is_biequivalence_over_base, *args)
    assert new[0] == "pass"
    assert new == _reference_outcome(args)


#: (argument position, table) for every table a tampered copy edits.
_TABLES = [(2, "ob"), (2, "one"), (2, "two"), (2, "compositor"),
           (3, "ob"), (3, "one"), (3, "two"), (3, "compositor"),
           (4, "component"), (4, "structure"),
           (5, "component"), (5, "structure")]


def _tampered(args, pos, table, index):
    """``args`` with entry ``index`` of one table set to the first other
    value of that table, or None when the table has a single value."""
    old = getattr(args[pos], table)
    key = list(old)[index]
    other = next((v for v in old.values() if v != old[key]), None)
    if other is None:
        return None
    out = list(args)
    out[pos] = dataclasses.replace(args[pos], **{table: {**old, key: other}})
    return out


@pytest.mark.parametrize("name", TAMPERED_NAMES)
@pytest.mark.parametrize("pos, table", _TABLES,
                         ids=[f"{'k c eta epsilon'.split()[p - 2]}.{t}"
                              for p, t in _TABLES])
def test_tampered_bundle_gets_the_reference_verdict(name, pos, table):
    args = _bundle(name)
    size = len(getattr(args[pos], table))
    for index in sorted({0, size // 2, size - 1}):
        tampered = _tampered(args, pos, table, index)
        if tampered is None:
            continue
        want = _reference_outcome(tampered)
        assert want[0] != "pass", (table, index)
        assert _outcome(is_biequivalence_over_base, *tampered) == want, \
            (table, index)


def _unique2(cat, src, tgt):
    (cell,) = cat.hom2(src, tgt)
    return cell


def _rechosen(args, pos, index):
    """On a locally chaotic bundle, ``args`` with one square of K, C, η or
    ε (entry ``index`` of ``one`` or ``component``) moved to another
    parallel square, and every 2-cell that depends on it re-derived as the
    unique one: the copy stays valid, but need not lie over the base."""
    e_arrow, m_arrow = args[:2]
    old = args[pos]
    table = "one" if pos in (2, 3) else "component"
    values = getattr(old, table)
    key = list(values)[index]
    target = (m_arrow, e_arrow, e_arrow, m_arrow)[pos - 2].cat
    sq = values[key]
    others = [s for s in target.hom1(target.src1[sq], target.tgt1[sq])
              if s != sq]
    if not others or (pos in (2, 3) and key in old.source.id1.values()):
        return None
    values = {**values, key: others[0]}
    if pos in (2, 3):
        src = old.source
        new = dataclasses.replace(
            old, one=values,
            two={a: _unique2(target, values[src.src2[a]], values[src.tgt2[a]])
                 for a in old.two},
            compositor={(g, f): _unique2(target,
                                         target.cmp1(values[g], values[f]),
                                         values[src.comp1[(g, f)]])
                        for (g, f) in old.compositor})
    else:
        first, second = old.source_functor, old.target_functor
        src = first.source
        new = dataclasses.replace(
            old, component=values,
            structure={h: _unique2(
                target,
                target.cmp1(second.one[h], values[src.src1[h]]),
                target.cmp1(values[src.tgt1[h]], first.one[h]))
                for h in old.structure})
    out = list(args)
    out[pos] = new
    return out


@pytest.mark.parametrize("pos", [2, 3, 4, 5],
                         ids=["k.one", "c.one", "eta.component",
                              "epsilon.component"])
def test_valid_copy_off_the_base_gets_the_reference_verdict(pos):
    # The tampered copies above all fail validation first.  On the locally
    # chaotic ch_pb1 bundle a square can be moved to a parallel one without
    # breaking validity, so these copies reach the over-base clauses.
    args = _bundle("ch_pb1")
    size = len(getattr(args[pos], "one" if pos in (2, 3) else "component"))
    clauses = set()
    for index in range(size):
        tampered = _rechosen(args, pos, index)
        if tampered is None:
            continue
        want = _reference_outcome(tampered)
        assert _outcome(is_biequivalence_over_base, *tampered) == want, index
        clauses.add(want[1]["clause"])
    assert clauses & {"not-over-base", "unit-not-over-base",
                      "counit-not-over-base"}, clauses


@pytest.mark.parametrize("name", ["ld_ct22", "ch_pb1"])
@pytest.mark.parametrize("pos, end, clause",
                         [(4, "target_functor", "unit-endpoints"),
                          (5, "source_functor", "counit-endpoints")],
                         ids=["unit", "counit"])
def test_identity_endpoint_fails_the_endpoints_clause(name, pos, end, clause):
    # The copies above never reach the endpoint clauses.  Here the composite
    # end of η (C∘K) or of ε (K∘C) is replaced by the identity of its
    # category.  On ld_term and ld_pb1 that composite is the identity, so
    # only the other bundles can show the clause.
    args = list(_bundle(name))
    nat = args[pos]
    args[pos] = dataclasses.replace(nat, **{
        end: identity_pseudofunctor(getattr(nat, end).source)})
    want = _reference_outcome(args)
    assert want[:2] == ("fail", {"clause": clause, "cells": {}})
    assert _outcome(is_biequivalence_over_base, *args) == want
