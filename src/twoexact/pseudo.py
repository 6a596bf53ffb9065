"""Normal pseudofunctors between table 2-categories, pseudonatural
transformations, and biequivalences over a common base.

All structure maps are explicit tables; validation checks totality, cell
boundaries, normalization on identities, compositor invertibility and
naturality, and the associativity coherence.  A pseudofunctor with identity
compositors is a strict 2-functor; the projection functors used elsewhere in
the package are built that way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (
    Certificate, InputError, TwoCategory, _fail, is_equivalence,
)


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

    def comp_at(self, g: str, f: str) -> str:
        try:
            return self.compositor[(g, f)]
        except KeyError:
            raise InputError(f"no compositor entry for ({g}, {f})") from None


def check_pseudofunctor_shape(func: PseudoFunctor) -> None:
    s, t = func.source, func.target
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


def validate_pseudofunctor(func: PseudoFunctor) -> Certificate:
    """Boundary preservation, hom-functoriality, normalization, compositor
    invertibility/naturality and the associativity coherence."""
    check_pseudofunctor_shape(func)
    name = "validate_pseudofunctor"
    s, t = func.source, func.target

    for f in s.one_ids:
        ff = func.one[f]
        if not (t.src1[ff] == func.ob[s.src1[f]] and t.tgt1[ff] == func.ob[s.tgt1[f]]):
            return _fail(name, "one-cell-boundary", source_cell=f, image=ff)
    for a in s.two_ids:
        fa = func.two[a]
        if not (t.src2[fa] == func.one[s.src2[a]] and t.tgt2[fa] == func.one[s.tgt2[a]]):
            return _fail(name, "two-cell-boundary", source_cell=a, image=fa)

    for x in s.objects:
        if func.one[s.id1[x]] != t.id1[func.ob[x]]:
            return _fail(name, "normal-id1", object=x)
    for f in s.one_ids:
        if func.two[s.id2[f]] != t.id2[func.one[f]]:
            return _fail(name, "hom-functor-id2", one_cell=f)
    for (b, a), ba in s.vcomp.items():
        if func.two[ba] != t.vc(func.two[b], func.two[a]):
            return _fail(name, "hom-functor-vcomp", b=b, a=a)

    for (g, f), phi in func.compositor.items():
        want_src = t.cmp1(func.one[g], func.one[f])
        want_tgt = func.one[s.comp1[(g, f)]]
        if not (t.src2[phi] == want_src and t.tgt2[phi] == want_tgt):
            return _fail(name, "compositor-boundary", g=g, f=f, compositor=phi)
        if not t.is_invertible2(phi):
            return _fail(name, "compositor-invertible", g=g, f=f, compositor=phi)
    for f in s.one_ids:
        if func.compositor[(f, s.id1[s.src1[f]])] != t.id2[func.one[f]]:
            return _fail(name, "normal-compositor", one_cell=f, side="right")
        if func.compositor[(s.id1[s.tgt1[f]], f)] != t.id2[func.one[f]]:
            return _fail(name, "normal-compositor", one_cell=f, side="left")

    # naturality of the compositors in either argument
    for (g, a) in s.lwhisker:
        f, f2 = s.src2[a], s.tgt2[a]
        lhs = t.vc(func.compositor[(g, f2)], t.lw(func.one[g], func.two[a]))
        rhs = t.vc(func.two[s.lwhisker[(g, a)]], func.compositor[(g, f)])
        if lhs != rhs:
            return _fail(name, "compositor-naturality-left", g=g, a=a)
    for (b, f) in s.rwhisker:
        g, g2 = s.src2[b], s.tgt2[b]
        lhs = t.vc(func.compositor[(g2, f)], t.rw(func.two[b], func.one[f]))
        rhs = t.vc(func.two[s.rwhisker[(b, f)]], func.compositor[(g, f)])
        if lhs != rhs:
            return _fail(name, "compositor-naturality-right", b=b, f=f)

    # associativity coherence, over composable triples in table order
    into: dict[str, list[str]] = {}
    for f in s.one_ids:
        into.setdefault(s.tgt1[f], []).append(f)
    for h in s.one_ids:
        for g in into.get(s.src1[h], ()):
            hg = s.comp1[(h, g)]
            for f in into.get(s.src1[g], ()):
                gf = s.comp1[(g, f)]
                lhs = t.vc(func.compositor[(h, gf)],
                           t.lw(func.one[h], func.compositor[(g, f)]))
                rhs = t.vc(func.compositor[(hg, f)],
                           t.rw(func.compositor[(h, g)], func.one[f]))
                if lhs != rhs:
                    return _fail(name, "compositor-assoc", h=h, g=g, f=f)

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


def strict_two_functor(source: TwoCategory, target: TwoCategory,
                       ob: Mapping[str, str], one: Mapping[str, str],
                       two: Mapping[str, str]) -> PseudoFunctor:
    """A pseudofunctor with identity compositors; caller supplies maps that
    preserve composition on the nose."""
    return PseudoFunctor(
        source=source, target=target, ob=dict(ob), one=dict(one), two=dict(two),
        compositor={(g, f): target.id2[target.cmp1(one[g], one[f])]
                    for (g, f) in source.comp1},
    )


def compose_pseudofunctors(outer: PseudoFunctor, inner: PseudoFunctor) -> PseudoFunctor:
    """``outer ∘ inner`` with the pasted compositors
    ``outer(φ^inner_{g,f}) · φ^outer_{inner g, inner f}``."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise InputError("pseudofunctors not composable")
    t = outer.target
    compositor = {}
    for (g, f), phi_in in inner.compositor.items():
        phi_out = outer.compositor[(inner.one[g], inner.one[f])]
        compositor[(g, f)] = t.vc(outer.two[phi_in], phi_out)
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
    equivalence."""
    check_pseudonatural_shape(nat)
    name = "validate_pseudonatural"
    f, g = nat.source_functor, nat.target_functor
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

    for mu in s.two_ids:
        h, h2 = s.src2[mu], s.tgt2[mu]
        x, y = s.src1[h], s.tgt1[h]
        lhs = t.vc(nat.structure[h2], t.rw(g.two[mu], nat.component[x]))
        rhs = t.vc(t.lw(nat.component[y], f.two[mu]), nat.structure[h])
        if lhs != rhs:
            return _fail(name, "naturality", two_cell=mu)

    for (k, h), kh in s.comp1.items():
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

def is_biequivalence_over_base(p: PseudoFunctor, q: PseudoFunctor,
                               k: PseudoFunctor, c: PseudoFunctor,
                               eta: PseudoNatural, epsilon: PseudoNatural) -> Certificate:
    """Whether ``K`` and ``C`` form a biequivalence between the sources of
    ``P`` and ``Q``, strictly over the common base, with unit
    ``η: Id ⇒ C∘K`` and counit ``ε: K∘C ⇒ Id`` whose projections are
    identities.

    Over-ness failures and equivalence failures are reported under distinct
    clauses.
    """
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

    qk = compose_pseudofunctors(q, k)
    if not (dict(qk.ob) == dict(p.ob) and dict(qk.one) == dict(p.one)
            and dict(qk.two) == dict(p.two)):
        return _fail(name, "not-over-base", which="Q∘K≠P")
    for key, phi in qk.compositor.items():
        if phi != p.compositor[key]:
            return _fail(name, "not-over-base", which="Q∘K-compositor", at=list(key))
    pc = compose_pseudofunctors(p, c)
    if not (dict(pc.ob) == dict(q.ob) and dict(pc.one) == dict(q.one)
            and dict(pc.two) == dict(q.two)):
        return _fail(name, "not-over-base", which="P∘C≠Q")
    for key, phi in pc.compositor.items():
        if phi != q.compositor[key]:
            return _fail(name, "not-over-base", which="P∘C-compositor", at=list(key))

    ck = compose_pseudofunctors(c, k)
    ident_top = identity_pseudofunctor(top)
    if not (pseudofunctors_equal(eta.source_functor, ident_top)
            and pseudofunctors_equal(eta.target_functor, ck)):
        return _fail(name, "unit-endpoints")
    kc = compose_pseudofunctors(k, c)
    ident_s = identity_pseudofunctor(q.source)
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

    # over-ness of the unit and counit: projected components are identity
    # 1-cells, projected structure cells are identity 2-cells
    for x, comp in eta.component.items():
        if p.one[comp] != bottom.id1[p.ob[x]]:
            return _fail(name, "unit-not-over-base", object=x, component=comp)
    for h, cell in eta.structure.items():
        if p.two[cell] != bottom.id2[p.one[h]]:
            return _fail(name, "unit-structure-not-over-base", one_cell=h)
    for x, comp in epsilon.component.items():
        if q.one[comp] != bottom.id1[q.ob[x]]:
            return _fail(name, "counit-not-over-base", object=x, component=comp)
    for h, cell in epsilon.structure.items():
        if q.two[cell] != bottom.id2[q.one[h]]:
            return _fail(name, "counit-structure-not-over-base", one_cell=h)

    return Certificate(name, "pass", witness={
        "unit_components": len(eta.component),
        "counit_components": len(epsilon.component)})
