"""Finite ordinary categories with morphism ideals: the 1-dimensional oracle.

Everything here is implemented by direct exhaustion over the finite data using
the classical 1-categorical definitions (kernels and cokernels relative to an
ideal of null morphisms, closedness, normal factorization).  Each cokernel
notion is its kernel notion on the opposite category, ``FiniteCategory.op``,
under the same ideal.  No checker module calls into this module, and it reads
nothing of theirs; it exists so that the 2-dimensional machinery can be
cross-validated against an independent computation on locally discrete
inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .core import Certificate, InputError, _fail


@dataclass(frozen=True)
class FiniteCategory:
    """A finite category: morphisms as ``(id, src, tgt)`` triples with a total
    composition table ``comp[(g, f)] = g∘f`` and chosen identities."""

    objects: tuple[str, ...]
    morphisms: tuple[tuple[str, str, str], ...]
    comp: Mapping[tuple[str, str], str]
    ident: Mapping[str, str]

    @cached_property
    def mor_ids(self) -> tuple[str, ...]:
        return tuple(i for i, _, _ in self.morphisms)

    @cached_property
    def src(self) -> dict[str, str]:
        return {i: s for i, s, _ in self.morphisms}

    @cached_property
    def tgt(self) -> dict[str, str]:
        return {i: t for i, _, t in self.morphisms}

    @cached_property
    def _hom(self) -> dict[tuple[str, str], tuple[str, ...]]:
        out: dict[tuple[str, str], list[str]] = {}
        for i, s, t in self.morphisms:
            out.setdefault((s, t), []).append(i)
        return {k: tuple(v) for k, v in out.items()}

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return self._hom.get((a, b), ())

    @cached_property
    def op(self) -> FiniteCategory:
        """The opposite category: each morphism reversed, in table order, so
        its hom lists are this category's."""
        return FiniteCategory(
            self.objects, tuple((i, t, s) for i, s, t in self.morphisms),
            {(f, g): h for (g, f), h in self.comp.items()}, self.ident)


def check_category_shape(c: FiniteCategory) -> None:
    """Referential integrity and totality; raises :class:`InputError`."""
    obs = set(c.objects)
    if len(obs) != len(c.objects):
        raise InputError("duplicate object identifiers")
    if len(set(c.mor_ids)) != len(c.mor_ids):
        raise InputError("duplicate morphism identifiers")
    mors = set(c.mor_ids)
    for i, s, t in c.morphisms:
        if s not in obs or t not in obs:
            raise InputError(f"morphism {i} has unknown boundary ({s}, {t})")
    if set(c.ident) != obs:
        raise InputError("identity table is not indexed by exactly the objects")
    for o, i in c.ident.items():
        if i not in mors:
            raise InputError(f"ident[{o}] = {i} is not a morphism")
    keys = {(g, f) for g in c.mor_ids for f in c.mor_ids if c.src[g] == c.tgt[f]}
    if set(c.comp) != keys:
        raise InputError("comp keys do not match the composable pairs")
    for k, v in c.comp.items():
        if v not in mors:
            raise InputError(f"comp[{k}] = {v} is not a morphism")


def validate_category(c: FiniteCategory) -> Certificate:
    """Unit and associativity laws plus composite boundaries."""
    check_category_shape(c)
    name = "validate_category"
    for o in c.objects:
        i = c.ident[o]
        if not (c.src[i] == o and c.tgt[i] == o):
            return _fail(name, "ident-boundary", object=o, ident=i)
    for f in c.mor_ids:
        if c.comp[(f, c.ident[c.src[f]])] != f or c.comp[(c.ident[c.tgt[f]], f)] != f:
            return _fail(name, "unit", morphism=f)
    for (g, f), gf in c.comp.items():
        if not (c.src[gf] == c.src[f] and c.tgt[gf] == c.tgt[g]):
            return _fail(name, "comp-boundary", g=g, f=f, composite=gf)
    for h in c.mor_ids:
        for g in c.mor_ids:
            if c.src[h] != c.tgt[g]:
                continue
            hg = c.comp[(h, g)]
            for f in c.mor_ids:
                if c.src[g] != c.tgt[f]:
                    continue
                if c.comp[(hg, f)] != c.comp[(h, c.comp[(g, f)])]:
                    return _fail(name, "assoc", h=h, g=g, f=f)
    return Certificate(name, "pass", witness={
        "objects": len(c.objects), "morphisms": len(c.morphisms)})


@dataclass(frozen=True)
class OneIdeal:
    """A two-sided ideal of null morphisms in a finite category."""

    null: frozenset[str]

    def __contains__(self, m: str) -> bool:
        return m in self.null


def validate_one_ideal(c: FiniteCategory, ideal: OneIdeal) -> Certificate:
    """Closure of the null class under composition with arbitrary morphisms
    on either side."""
    name = "validate_one_ideal"
    unknown = [n for n in sorted(ideal.null) if n not in c.src]
    if unknown:
        raise InputError(f"ideal references unknown morphisms {unknown}")
    for n in c.mor_ids:
        if n not in ideal:
            continue
        for g in c.mor_ids:
            if c.src[g] == c.tgt[n] and c.comp[(g, n)] not in ideal:
                return _fail(name, "post-compose", null=n, morphism=g)
            if c.tgt[g] == c.src[n] and c.comp[(n, g)] not in ideal:
                return _fail(name, "pre-compose", null=n, morphism=g)
    return Certificate(name, "pass", witness={"nulls": len(ideal.null)})


# ---------------------------------------------------------------------------
# kernels, cokernels, closedness, exactness
# ---------------------------------------------------------------------------

def kernels_1cat(c: FiniteCategory, ideal: OneIdeal, f: str) -> tuple[tuple[str, str], ...]:
    """All ``(K, k)`` with ``f∘k`` null and the strict universal property:
    every ``z`` with ``f∘z`` null factors as ``z = k∘u`` for a unique ``u``."""
    if f not in c.src:
        raise InputError(f"unknown morphism {f}")
    a = c.src[f]
    out: list[tuple[str, str]] = []
    for kobj in c.objects:
        for k in c.hom(kobj, a):
            if c.comp[(f, k)] not in ideal:
                continue
            good = True
            for z in c.mor_ids:
                if c.tgt[z] != a or c.comp[(f, z)] not in ideal:
                    continue
                us = [u for u in c.hom(c.src[z], kobj) if c.comp[(k, u)] == z]
                if len(us) != 1:
                    good = False
                    break
            if good:
                out.append((kobj, k))
    return tuple(out)


def cokernels_1cat(c: FiniteCategory, ideal: OneIdeal, f: str) -> tuple[tuple[str, str], ...]:
    """All ``(Q, q)`` with ``q∘f`` null and the dual universal property: the
    kernels of ``f`` in the opposite category."""
    return kernels_1cat(c.op, ideal, f)


def null_objects_1cat(c: FiniteCategory, ideal: OneIdeal) -> tuple[str, ...]:
    """Objects whose identity morphism is null."""
    return tuple(o for o in c.objects if c.ident[o] in ideal)


def _kernel_table(c: FiniteCategory, ideal: OneIdeal) -> dict[str, tuple]:
    """The kernels of every morphism, in table order."""
    return {f: kernels_1cat(c, ideal, f) for f in c.mor_ids}


def _legs(table: dict[str, tuple]) -> tuple[str, ...]:
    """The legs of a kernel table, each once, in table order."""
    return tuple(dict.fromkeys(k for kernels in table.values()
                               for _, k in kernels))


def kernel_legs_1cat(c: FiniteCategory, ideal: OneIdeal) -> tuple[str, ...]:
    """Morphisms appearing as the leg of some kernel, in table order."""
    return _legs(_kernel_table(c, ideal))


def cokernel_legs_1cat(c: FiniteCategory, ideal: OneIdeal) -> tuple[str, ...]:
    """The kernel legs of the opposite category."""
    return kernel_legs_1cat(c.op, ideal)


def closedness_triple_1cat(c: FiniteCategory, ideal: OneIdeal) -> tuple[bool, bool, bool]:
    """Three classically equivalent readings of closedness of the ideal:

    1. every null morphism factors through a null object;
    2. every kernel leg reflects nullity (``k∘s`` null implies ``s`` null);
    3. every cokernel leg coreflects nullity.

    Returned separately so callers can assert their agreement.
    """
    return _closedness(c, ideal, kernel_legs_1cat(c, ideal),
                       cokernel_legs_1cat(c, ideal))


def _closedness(c: FiniteCategory, ideal: OneIdeal, klegs: tuple[str, ...],
                qlegs: tuple[str, ...]) -> tuple[bool, bool, bool]:
    """:func:`closedness_triple_1cat` read off the kernel and cokernel legs;
    the third reading is the second on ``c.op``."""
    nulls_obj = null_objects_1cat(c, ideal)
    b1 = all(
        any(c.comp[(y, x)] == n for z in nulls_obj
            for x in c.hom(c.src[n], z) for y in c.hom(z, c.tgt[n]))
        for n in c.mor_ids if n in ideal)
    b2, b3 = (not any(
        cat.tgt[s] == cat.src[k] and cat.comp[(k, s)] in ideal
        and s not in ideal for k in legs for s in cat.mor_ids)
        for cat, legs in ((c, klegs), (c.op, qlegs)))
    return b1, b2, b3


def grandis_exact_1cat(c: FiniteCategory, ideal: OneIdeal) -> Certificate:
    """Exactness of a finite category relative to an ideal, checked by
    exhaustion: kernels and cokernels everywhere, a closed ideal (with the
    three closedness readings required to agree), each kernel the kernel of
    its cokernel and dually, and a cokernel-then-kernel factorization of every
    morphism.  The kernels of every morphism in ``c`` and in ``c.op`` are
    searched once each, and every clause reads them."""
    name = "grandis_exact_1cat"
    shape = validate_category(c)
    if not shape.ok:
        return Certificate(name, "fail", counterexample=shape.counterexample)
    icert = validate_one_ideal(c, ideal)
    if not icert.ok:
        return Certificate(name, "fail", counterexample=icert.counterexample)

    kernels, cokernels = (_kernel_table(cat, ideal) for cat in (c, c.op))
    for f in c.mor_ids:
        if not kernels[f]:
            return _fail(name, "missing-kernel", morphism=f)
        if not cokernels[f]:
            return _fail(name, "missing-cokernel", morphism=f)

    klegs, qlegs = _legs(kernels), _legs(cokernels)
    b1, b2, b3 = _closedness(c, ideal, klegs, qlegs)
    if not (b1 == b2 == b3):
        return _fail(name, "closedness-readings-disagree", triple=[b1, b2, b3])
    if not b1:
        return _fail(name, "ideal-not-closed", triple=[b1, b2, b3])

    # the cokernel-of-kernel clause is the kernel-of-cokernel clause on c.op,
    # where kernels and cokernels trade places
    for cat, legs, ks, qs, clause, leg, coleg in (
            (c, klegs, kernels, cokernels, "kernel-of-cokernel",
             "kernel_leg", "cokernel_leg"),
            (c.op, qlegs, cokernels, kernels, "cokernel-of-kernel",
             "cokernel_leg", "kernel_leg")):
        for k in legs:
            _, q = qs[k][0]
            if (cat.src[k], k) not in ks[q]:
                return _fail(name, clause, **{leg: k, coleg: q})

    for f in c.mor_ids:
        if not any(
            c.comp[(m, e)] == f
            for e in qlegs if c.src[e] == c.src[f]
            for m in klegs if c.src[m] == c.tgt[e] and c.tgt[m] == c.tgt[f]
        ):
            return _fail(name, "factorization", morphism=f)

    return Certificate(name, "pass", witness={
        "kernel_legs": list(klegs), "cokernel_legs": list(qlegs)})


def zero_objects_1cat(c: FiniteCategory) -> tuple[str, ...]:
    """Objects with exactly one morphism to and from every object."""
    return tuple(
        z for z in c.objects
        if all(len(c.hom(a, z)) == 1 and len(c.hom(z, a)) == 1 for a in c.objects)
    )


def zero_ideal_1cat(c: FiniteCategory, zero: str | None = None) -> OneIdeal:
    """The ideal of morphisms factoring through a zero object."""
    zs = zero_objects_1cat(c)
    if zero is None:
        if not zs:
            raise InputError("category has no zero object")
        zero = zs[0]
    elif zero not in zs:
        raise InputError(f"{zero} is not a zero object")
    null = frozenset(
        c.comp[(y, x)]
        for a in c.objects for b in c.objects
        for x in c.hom(a, zero) for y in c.hom(zero, b)
    )
    return OneIdeal(null)


def puppe_exact_1cat(c: FiniteCategory) -> Certificate:
    """Pointed exactness: a zero object exists and the category is exact
    relative to its zero ideal."""
    name = "puppe_exact_1cat"
    if not zero_objects_1cat(c):
        return _fail(name, "no-zero-object")
    inner = grandis_exact_1cat(c, zero_ideal_1cat(c))
    if inner.ok:
        return Certificate(name, "pass", witness=inner.witness)
    return Certificate(name, "fail", counterexample=inner.counterexample)
