"""Normal pseudofunctors between table 2-categories, pseudonatural
transformations, and biequivalences over a common base.

All structure maps are explicit tables; validation checks totality, cell
boundaries, normalization on identities, compositor invertibility and
naturality, and the associativity coherence.  A biequivalence over the
base is checked between two pseudo-arrow 2-categories: the ``dom`` and
``cod`` projections are read off their squares, never built as functors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import (
    Certificate, InputError, TwoCategory, _fail, _is_lawful, check_shape,
    is_equivalence,
)
from .factor import ArrowTwoCategory


@dataclass(frozen=True)
class PseudoFunctor:
    """Object/1-cell/2-cell maps plus invertible compositors
    ``φ_{g,f}: F(g)∘F(f) ⇒ F(g∘f)``, normalized on identities."""

    source: TwoCategory
    target: TwoCategory
    ob: Mapping[str, str]
    one: Mapping[str, str]
    two: Mapping[str, str]
    compositor: Mapping[tuple[str, str], str]


def check_pseudofunctor_shape(func: PseudoFunctor) -> None:
    """Shape-check the source and target, then the four maps against them,
    raising :class:`InputError` on the first defect found."""
    s, t = func.source, func.target
    check_shape(s)
    check_shape(t)
    if set(func.ob) != set(s.objects):
        raise InputError("object map is not indexed by exactly the source objects")
    if set(func.one) != set(s.one_ids):
        raise InputError("1-cell map is not indexed by exactly the source 1-cells")
    if set(func.two) != set(s.two_ids):
        raise InputError("2-cell map is not indexed by exactly the source 2-cells")
    if set(func.compositor) != set(s.comp1):
        raise InputError("compositor table is not indexed by exactly the "
                         "composable pairs of the source")
    objects = set(t.objects)
    for x, v in func.ob.items():
        if v not in objects:
            raise InputError(f"object map sends {x} to unknown object {v}")
    for x, v in func.one.items():
        if v not in t.src1:
            raise InputError(f"1-cell map sends {x} to unknown 1-cell {v}")
    for x, v in func.two.items():
        if v not in t.src2:
            raise InputError(f"2-cell map sends {x} to unknown 2-cell {v}")
    for k, v in func.compositor.items():
        if v not in t.src2:
            raise InputError(f"compositor at {k} names unknown 2-cell {v}")


def _functor_violations(func: PseudoFunctor, reduced: bool = False
                        ) -> Iterator[tuple[str, dict[str, str]]]:
    """The violations of the pseudofunctor laws by the shape-checked
    ``func``, as ``(clause, cells)`` in the fixed clause order; only the
    first is meaningful, since later clauses assume the earlier ones.

    ``reduced`` keeps the boundary, ``normal-id1``, ``compositor-*`` and
    ``normal-compositor`` clauses.  Every clause it skips compares two
    2-cells of the target, which are parallel once the kept clauses hold
    and the source and target pass their reduced law sweeps (boundaries and
    1-cell laws; ``compositor-assoc`` needs associativity on both sides).
    So on a locally thin target an empty reduced sweep decides "pass".
    Invertibility is not implied (a poset is thin), so it is kept.
    """
    s, t = func.source, func.target

    for f in s.one_ids:
        ff = func.one[f]
        if not (t.src1[ff] == func.ob[s.src1[f]] and t.tgt1[ff] == func.ob[s.tgt1[f]]):
            yield "one-cell-boundary", dict(source_cell=f, image=ff)
    for a in s.two_ids:
        fa = func.two[a]
        if not (t.src2[fa] == func.one[s.src2[a]] and t.tgt2[fa] == func.one[s.tgt2[a]]):
            yield "two-cell-boundary", dict(source_cell=a, image=fa)

    for x in s.objects:
        if func.one[s.id1[x]] != t.id1[func.ob[x]]:
            yield "normal-id1", dict(object=x)
    for f in () if reduced else s.one_ids:
        if func.two[s.id2[f]] != t.id2[func.one[f]]:
            yield "hom-functor-id2", dict(one_cell=f)
    for (b, a), ba in () if reduced else s.vcomp.items():
        if func.two[ba] != t.vc(func.two[b], func.two[a]):
            yield "hom-functor-vcomp", dict(b=b, a=a)

    for (g, f), phi in func.compositor.items():
        want_src = t.cmp1(func.one[g], func.one[f])
        want_tgt = func.one[s.comp1[(g, f)]]
        if not (t.src2[phi] == want_src and t.tgt2[phi] == want_tgt):
            yield "compositor-boundary", dict(g=g, f=f, compositor=phi)
        if not t.is_invertible2(phi):
            yield "compositor-invertible", dict(g=g, f=f, compositor=phi)
    for f in s.one_ids:
        if func.compositor[(f, s.id1[s.src1[f]])] != t.id2[func.one[f]]:
            yield "normal-compositor", dict(one_cell=f, side="right")
        if func.compositor[(s.id1[s.tgt1[f]], f)] != t.id2[func.one[f]]:
            yield "normal-compositor", dict(one_cell=f, side="left")
    if reduced:
        return

    # naturality of the compositors in either argument
    for (g, a) in s.lwhisker:
        f, f2 = s.src2[a], s.tgt2[a]
        lhs = t.vc(func.compositor[(g, f2)], t.lw(func.one[g], func.two[a]))
        rhs = t.vc(func.two[s.lwhisker[(g, a)]], func.compositor[(g, f)])
        if lhs != rhs:
            yield "compositor-naturality-left", dict(g=g, a=a)
    for (b, f) in s.rwhisker:
        g, g2 = s.src2[b], s.tgt2[b]
        lhs = t.vc(func.compositor[(g2, f)], t.rw(func.two[b], func.one[f]))
        rhs = t.vc(func.two[s.rwhisker[(b, f)]], func.compositor[(g, f)])
        if lhs != rhs:
            yield "compositor-naturality-right", dict(b=b, f=f)

    # associativity coherence, over composable triples in table order
    for h in s.one_ids:
        for g in s.hom1(None, s.src1[h]):
            hg = s.comp1[(h, g)]
            for f in s.hom1(None, s.src1[g]):
                gf = s.comp1[(g, f)]
                lhs = t.vc(func.compositor[(h, gf)],
                           t.lw(func.one[h], func.compositor[(g, f)]))
                rhs = t.vc(func.compositor[(hg, f)],
                           t.rw(func.compositor[(h, g)], func.one[f]))
                if lhs != rhs:
                    yield "compositor-assoc", dict(h=h, g=g, f=f)


def _reduced_decides(func: PseudoFunctor) -> bool:
    """Whether the reduced clauses of :func:`_functor_violations` decide
    "pass" for the shape-checked ``func``: its target is locally thin, its
    source and target are lawful, and those clauses find nothing."""
    s, t = func.source, func.target
    return (t.locally_thin and _is_lawful(s) and _is_lawful(t)
            and next(_functor_violations(func, reduced=True), None) is None)


def validate_pseudofunctor(func: PseudoFunctor) -> Certificate:
    """Boundary preservation, hom-functoriality, normalization, compositor
    invertibility/naturality and the associativity coherence.

    Where :func:`_reduced_decides` holds, the reduced clauses decide
    "pass"; otherwise the full sweep names the first violated clause."""
    check_pseudofunctor_shape(func)
    name = "validate_pseudofunctor"
    if not _reduced_decides(func):
        for clause, cells in _functor_violations(func):
            return _fail(name, clause, **cells)
    return Certificate(name, "pass", witness={
        "objects": len(func.ob), "one_cells": len(func.one),
        "two_cells": len(func.two)})


def identity_pseudofunctor(t: TwoCategory) -> PseudoFunctor:
    return PseudoFunctor(
        source=t, target=t,
        ob={x: x for x in t.objects},
        one={f: f for f in t.one_ids},
        two={a: a for a in t.two_ids},
        compositor={k: t.id2[v] for k, v in t.comp1.items()},
    )


def compose_pseudofunctors(outer: PseudoFunctor, inner: PseudoFunctor) -> PseudoFunctor:
    """``outer ∘ inner`` with the pasted compositors
    ``outer(φ^inner_{g,f}) · φ^outer_{inner g, inner f}``."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise InputError("pseudofunctors not composable")
    t = outer.target
    compositor = {}
    for (g, f), phi_in in inner.compositor.items():
        pair = (inner.one[g], inner.one[f])
        outer.source.cmp1(*pair)  # an InputError if the pair does not compose
        compositor[(g, f)] = t.vc(outer.two[phi_in], outer.compositor[pair])
    return PseudoFunctor(
        source=inner.source, target=outer.target,
        ob={x: outer.ob[v] for x, v in inner.ob.items()},
        one={x: outer.one[v] for x, v in inner.one.items()},
        two={x: outer.two[v] for x, v in inner.two.items()},
        compositor=compositor,
    )


def pseudofunctors_equal(a: PseudoFunctor, b: PseudoFunctor) -> bool:
    """Equality of all four structure tables (sources/targets assumed shared)."""
    return (dict(a.ob) == dict(b.ob) and dict(a.one) == dict(b.one)
            and dict(a.two) == dict(b.two)
            and dict(a.compositor) == dict(b.compositor))


# ---------------------------------------------------------------------------
# pseudonatural transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PseudoNatural:
    """Components ``σ_X: F X → G X`` with invertible structure 2-cells
    ``σ_f: G(f)∘σ_X ⇒ σ_Y∘F(f)``; ``claims_equivalences`` records whether the
    components are asserted to be equivalences."""

    source_functor: PseudoFunctor
    target_functor: PseudoFunctor
    component: Mapping[str, str]
    structure: Mapping[str, str]
    claims_equivalences: bool = False


def check_pseudonatural_shape(nat: PseudoNatural) -> None:
    f, g = nat.source_functor, nat.target_functor
    if f.source != g.source or f.target != g.target:
        raise InputError("pseudonatural endpoints do not share source/target")
    s, t = f.source, f.target
    if set(nat.component) != set(s.objects):
        raise InputError("components are not indexed by exactly the source objects")
    if set(nat.structure) != set(s.one_ids):
        raise InputError("structure cells are not indexed by exactly the source 1-cells")
    for x, v in nat.component.items():
        if v not in t.src1:
            raise InputError(f"component at {x} names unknown 1-cell {v}")
    for x, v in nat.structure.items():
        if v not in t.src2:
            raise InputError(f"structure cell at {x} names unknown 2-cell {v}")


def validate_pseudonatural(nat: PseudoNatural,
                           require_equivalences: bool | None = None) -> Certificate:
    """Boundaries, invertibility, unit normalization, 2-cell naturality and
    the composition coherence; optionally that every component is an
    equivalence.

    The ``naturality`` and ``composition`` clauses each compare two pasted
    2-cells of the target.  The two are parallel once the earlier clauses
    hold, both endpoint functors pass the reduced clauses of
    :func:`_functor_violations` (images and compositors have the right
    boundaries), and the source and target are lawful (whiskers and
    composites have the right boundaries, and 1-cell composition
    associates, as the two sides of ``composition`` need).  So where
    :func:`_reduced_decides` holds of both endpoints the two clauses
    cannot fail and are skipped; otherwise every clause runs, in order.
    Both endpoint functors are shape-checked first, as the ``composition``
    clause reads every compositor."""
    check_pseudonatural_shape(nat)
    name = "validate_pseudonatural"
    f, g = nat.source_functor, nat.target_functor
    check_pseudofunctor_shape(f)
    check_pseudofunctor_shape(g)
    s, t = f.source, f.target
    if require_equivalences is None:
        require_equivalences = nat.claims_equivalences

    for x in s.objects:
        c = nat.component[x]
        if not (t.src1[c] == f.ob[x] and t.tgt1[c] == g.ob[x]):
            return _fail(name, "component-boundary", object=x, component=c)

    for h in s.one_ids:
        cell = nat.structure[h]
        x, y = s.src1[h], s.tgt1[h]
        want_src = t.cmp1(g.one[h], nat.component[x])
        want_tgt = t.cmp1(nat.component[y], f.one[h])
        if not (t.src2[cell] == want_src and t.tgt2[cell] == want_tgt):
            return _fail(name, "structure-boundary", one_cell=h, cell=cell)
        if not t.is_invertible2(cell):
            return _fail(name, "structure-invertible", one_cell=h, cell=cell)

    for x in s.objects:
        if nat.structure[s.id1[x]] != t.id2[nat.component[x]]:
            return _fail(name, "unit", object=x)

    thin = _reduced_decides(f) and _reduced_decides(g)
    for mu in () if thin else s.two_ids:
        h, h2 = s.src2[mu], s.tgt2[mu]
        x, y = s.src1[h], s.tgt1[h]
        lhs = t.vc(nat.structure[h2], t.rw(g.two[mu], nat.component[x]))
        rhs = t.vc(t.lw(nat.component[y], f.two[mu]), nat.structure[h])
        if lhs != rhs:
            return _fail(name, "naturality", two_cell=mu)

    for (k, h), kh in () if thin else s.comp1.items():
        x = s.src1[h]
        z = s.tgt1[k]
        lhs = t.vc(nat.structure[kh],
                   t.rw(g.compositor[(k, h)], nat.component[x]))
        rhs = t.vc(t.lw(nat.component[z], f.compositor[(k, h)]),
                   t.vc(t.rw(nat.structure[k], f.one[h]),
                        t.lw(g.one[k], nat.structure[h])))
        if lhs != rhs:
            return _fail(name, "composition", k=k, h=h)

    if require_equivalences:
        for x in s.objects:
            if not is_equivalence(t, nat.component[x]).ok:
                return _fail(name, "component-not-equivalence", object=x,
                             component=nat.component[x])

    return Certificate(name, "pass", witness={
        "components": len(nat.component),
        "equivalences_required": bool(require_equivalences)})


# ---------------------------------------------------------------------------
# biequivalence over a base
# ---------------------------------------------------------------------------

def _over_base_failure(name: str, func: PseudoFunctor,
                       src: ArrowTwoCategory, tgt: ArrowTwoCategory,
                       side: int, composite: str,
                       projection: str) -> Certificate | None:
    """The first way ``func`` fails to lie over the base, or None.  Part
    ``1 - side`` (0 is dom, 1 is cod) of each image must equal part ``side``
    of its argument, and part ``1 - side`` of each compositor must be an
    identity; a failure names the comparison as ``composite`` against
    ``projection``, as in ``Q∘K≠P``."""
    base = src.base
    ends = (base.src1, base.tgt1)
    image = {s: tgt.square(v)[1 - side] for s, v in func.one.items()}
    if not (all(ends[1 - side][v] == ends[side][x]
                for x, v in func.ob.items())
            and all(v == src.square(s)[side] for s, v in image.items())
            and all(tgt.pair(v)[1 - side] == src.pair(a)[side]
                    for a, v in func.two.items())):
        return _fail(name, "not-over-base", which=f"{composite}≠{projection}")
    for (g, f), phi in func.compositor.items():
        projected = base.vc(tgt.pair(phi)[1 - side],
                            base.id2[base.cmp1(image[g], image[f])])
        if projected != base.id2[base.cmp1(src.square(g)[side],
                                           src.square(f)[side])]:
            return _fail(name, "not-over-base",
                         which=f"{composite}-compositor", at=[g, f])
    return None


def is_biequivalence_over_base(e_arrow: ArrowTwoCategory,
                               m_arrow: ArrowTwoCategory,
                               k: PseudoFunctor, c: PseudoFunctor,
                               eta: PseudoNatural, epsilon: PseudoNatural) -> Certificate:
    """Whether ``K`` and ``C`` form a biequivalence between the pseudo-arrow
    2-categories of the left class E and the right class M, strictly over
    the common base, with unit ``η: Id ⇒ C∘K`` and counit ``ε: K∘C ⇒ Id``
    whose projections are identities.

    "Over the base" is read off the squares: ``P`` is ``dom`` on E's
    2-category and ``Q`` is ``cod`` on M's, so ``Q∘K = P`` says the cod part
    of ``K(x)`` is the dom part of ``x``, and ``P∘C = Q`` the converse.  The
    projections are strict 2-functors by construction and are never built.

    Over-ness failures and equivalence failures are reported under distinct
    clauses.
    """
    name = "is_biequivalence_over_base"
    top, bottom, right = e_arrow.cat, e_arrow.base, m_arrow.cat
    if m_arrow.base != bottom:
        raise InputError("projections do not share their base")
    if k.source != top or k.target != right:
        raise InputError("K does not run between the projections' sources")
    if c.source != right or c.target != top:
        raise InputError("C does not run opposite K")

    for func, tag in ((k, "K"), (c, "C")):
        cert = validate_pseudofunctor(func)
        if not cert.ok:
            return _fail(name, "functor-invalid", which=tag,
                         inner=cert.counterexample)

    for args in ((k, e_arrow, m_arrow, 0, "Q∘K", "P"),
                 (c, m_arrow, e_arrow, 1, "P∘C", "Q")):
        failure = _over_base_failure(name, *args)
        if failure is not None:
            return failure

    ck = compose_pseudofunctors(c, k)
    ident_top = identity_pseudofunctor(top)
    if not (pseudofunctors_equal(eta.source_functor, ident_top)
            and pseudofunctors_equal(eta.target_functor, ck)):
        return _fail(name, "unit-endpoints")
    kc = compose_pseudofunctors(k, c)
    ident_s = identity_pseudofunctor(right)
    if not (pseudofunctors_equal(epsilon.source_functor, kc)
            and pseudofunctors_equal(epsilon.target_functor, ident_s)):
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

    # over-ness of the unit and counit: η's components and structure cells
    # have identity dom parts, ε's identity cod parts
    for nat, arrow, side, tag in ((eta, e_arrow, 0, "unit"),
                                  (epsilon, m_arrow, 1, "counit")):
        end = (bottom.src1, bottom.tgt1)[side]
        for x, comp in nat.component.items():
            if arrow.square(comp)[side] != bottom.id1[end[x]]:
                return _fail(name, f"{tag}-not-over-base", object=x,
                             component=comp)
        for h, cell in nat.structure.items():
            if arrow.pair(cell)[side] != bottom.id2[arrow.square(h)[side]]:
                return _fail(name, f"{tag}-structure-not-over-base",
                             one_cell=h)

    return Certificate(name, "pass", witness={
        "unit_components": len(eta.component),
        "counit_components": len(epsilon.component)})
