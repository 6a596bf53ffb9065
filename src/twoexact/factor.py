"""Factorization systems on a finite strict 2-category.

Provides: validation of a two-class factorization system with chosen
factorizations (closure, iso-stability, 1- and 2-dimensional diagonal
lifting, connectedness of factorizations); the (1,1)-properness check
(left class cofaithful, right class faithful); the pseudo-arrow
2-category on a designated class of 1-cells; weak 2-(op)fibration checks
for the domain/codomain projections out of that pseudo-arrow 2-category;
and the relatively orthogonal variant where lifting is only required
against squares compatible with a 2-ideal's null structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (Budget, CapExceeded, Certificate, InputError, TwoCategory,
                   _fail, _inconclusive, equivalences, is_cofaithful,
                   is_equivalence, is_faithful)
from .ideal import TwoIdeal
from .limits import (CokernelPresentation, KernelPresentation,
                     cokernel_presentations_by_arrow,
                     kernel_presentations_by_arrow)


# ---------------------------------------------------------------------------
# factorization systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationSystem:
    """Two designated classes of 1-cells plus a chosen factorization per
    1-cell.

    ``factorization[f] = (left, right, theta)`` asserts that ``left`` belongs
    to the left class, ``right`` to the right class, and ``theta: f ⇒
    right∘left`` is invertible.  The classes are stored as tuples so the
    enumeration order of every downstream search is reproducible.
    """

    left_class: tuple[str, ...]
    right_class: tuple[str, ...]
    factorization: Mapping[str, tuple[str, str, str]]

    def chosen(self, f: str) -> tuple[str, str, str]:
        try:
            return self.factorization[f]
        except KeyError:
            raise InputError(f"missing factorization entry for {f}") from None


def check_fs_shape(t: TwoCategory, fs: FactorizationSystem) -> None:
    """Raise :class:`InputError` on dangling ids or missing factorization
    entries; value-level law violations are left to :func:`validate_fs`."""
    one = set(t.one_ids)
    two = set(t.two_ids)
    for side, cls in (("left", fs.left_class), ("right", fs.right_class)):
        for c in cls:
            if c not in one:
                raise InputError(f"unknown 1-cell {c} in the {side} class")
    for f in t.one_ids:
        if f not in fs.factorization:
            raise InputError(f"missing factorization entry for {f}")
    for f, triple in fs.factorization.items():
        if f not in one:
            raise InputError(f"factorization entry for unknown 1-cell {f}")
        if len(triple) != 3:
            raise InputError(f"factorization of {f} is not a triple")
        left, right, theta = triple
        if left not in one or right not in one:
            raise InputError(f"factorization of {f} names unknown 1-cells")
        if theta not in two:
            raise InputError(f"factorization of {f} names unknown 2-cell "
                             f"{theta}")


def squares_between(t: TwoCategory, f: str, g: str) -> Iterator[tuple[str, str, str]]:
    """All squares ``(a, b, φ): f → g``: ``a: dom f → dom g``, ``b: cod f →
    cod g`` and invertible ``φ: g∘a ⇒ b∘f``.  These are exactly the 1-cells
    of the pseudo-arrow 2-category."""
    for a in t.hom1(t.src1[f], t.src1[g]):
        ga = t.cmp1(g, a)
        for b in t.hom1(t.tgt1[f], t.tgt1[g]):
            bf = t.cmp1(b, f)
            for phi in t.iso2(ga, bf):
                yield a, b, phi


def square_two_cells(t: TwoCategory, f: str, g: str,
                     sq: tuple[str, str, str],
                     sq2: tuple[str, str, str]) -> list[tuple[str, str]]:
    """All coherent pairs ``(σ, τ)`` between two squares ``f → g``: σ and τ
    must satisfy ``φ'·(g⋆σ) = (τ⋆f)·φ``."""
    a, b, phi = sq
    a2, b2, phi2 = sq2
    out = []
    for sigma in t.hom2(a, a2):
        left = t.vc(phi2, t.lw(g, sigma))
        for tau in t.hom2(b, b2):
            if left == t.vc(t.rw(tau, f), phi):
                out.append((sigma, tau))
    return out


def fill_ins(t: TwoCategory, e: str, m: str, u: str, v: str,
             phi: str) -> list[tuple[str, str, str]]:
    """All diagonal fill-ins ``(d, σ, ρ)`` of the square ``(u, v, φ): e → m``:
    invertible ``σ: u ⇒ d∘e`` and ``ρ: m∘d ⇒ v`` recombining to
    ``φ = (ρ⋆e)·(m⋆σ)``."""
    out = []
    for d in t.hom1(t.tgt1[e], t.src1[m]):
        de = t.cmp1(d, e)
        md = t.cmp1(m, d)
        for sigma in t.iso2(u, de):
            whiskered = t.lw(m, sigma)
            for rho in t.iso2(md, v):
                if t.vc(t.rw(rho, e), whiskered) == phi:
                    out.append((d, sigma, rho))
    return out


def _ordered_unique(cls: Iterable[str]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(cls))


def factorizations(t: TwoCategory, f: str, left: Sequence[str],
                   right: Sequence[str]) -> Iterator[tuple[str, str, str]]:
    """Every ``(e, m, θ)`` with ``e`` in ``left``, ``m`` in ``right`` and
    invertible ``θ: f ⇒ m∘e``, in class order; the first is the one a
    chosen factorization takes."""
    for e in left:
        if t.src1[e] != t.src1[f]:
            continue
        for m in right:
            if t.src1[m] == t.tgt1[e] and t.tgt1[m] == t.tgt1[f]:
                for theta in t.iso2(f, t.cmp1(m, e)):
                    yield e, m, theta


def validate_fs(t: TwoCategory, fs: FactorizationSystem,
                cap: int | None = None) -> Certificate:
    """Check every law of a factorization system with chosen factorizations.

    Fail clauses, in check order: ``factorization-left-class``,
    ``factorization-right-class``, ``factorization-boundary``,
    ``factorization-invertible``, ``class-equivalence-closure``,
    ``class-iso-stability``, ``orthogonality-fill-in``,
    ``orthogonality-two-dim-existence`` / ``-uniqueness``, and
    ``factorization-connectedness`` (any two factorizations of the same
    1-cell are linked by an equivalence diagonal).
    """
    check_fs_shape(t, fs)
    budget = Budget(cap, "validate_fs")
    try:
        return _validate_fs(t, fs, budget)
    except CapExceeded as exc:
        return _inconclusive("validate_fs", exc)


def _validate_fs(t: TwoCategory, fs: FactorizationSystem,
                 budget: Budget) -> Certificate:
    left = _ordered_unique(fs.left_class)
    right = _ordered_unique(fs.right_class)
    left_set, right_set = set(left), set(right)

    # chosen factorizations
    for f in t.one_ids:
        l, r, theta = fs.factorization[f]
        if l not in left_set:
            return _fail("validate_fs", "factorization-left-class",
                         one_cell=f, left=l)
        if r not in right_set:
            return _fail("validate_fs", "factorization-right-class",
                         one_cell=f, right=r)
        composable = (t.src1[l] == t.src1[f] and t.tgt1[l] == t.src1[r]
                      and t.tgt1[r] == t.tgt1[f])
        if not composable or t.src2[theta] != f or \
                t.tgt2[theta] != t.cmp1(r, l):
            return _fail("validate_fs", "factorization-boundary",
                         one_cell=f, left=l, right=r, theta=theta)
        if not t.is_invertible2(theta):
            return _fail("validate_fs", "factorization-invertible",
                         one_cell=f, theta=theta)

    # closure of both classes under composition with equivalences (both sides)
    eqs = equivalences(t)
    for side, cls, cls_set in (("left", left, left_set),
                               ("right", right, right_set)):
        for c in cls:
            for i in eqs:
                if t.tgt1[i] == t.src1[c] and t.cmp1(c, i) not in cls_set:
                    return _fail("validate_fs", "class-equivalence-closure",
                                 side=side, member=c, equivalence=i,
                                 composite=t.cmp1(c, i), position="pre")
                if t.src1[i] == t.tgt1[c] and t.cmp1(i, c) not in cls_set:
                    return _fail("validate_fs", "class-equivalence-closure",
                                 side=side, member=c, equivalence=i,
                                 composite=t.cmp1(i, c), position="post")

    # stability of both classes under invertible 2-cells
    for side, cls, cls_set in (("left", left, left_set),
                               ("right", right, right_set)):
        for c in cls:
            for g in t.hom1(t.src1[c], t.tgt1[c]):
                if g not in cls_set and t.iso2(c, g):
                    return _fail("validate_fs", "class-iso-stability",
                                 side=side, member=c, other=g,
                                 iso=t.iso2(c, g)[0])

    # 1- and 2-dimensional diagonal lifting
    squares_checked = 0
    for e in left:
        for m in right:
            instances: list[tuple[tuple[str, str, str],
                                  list[tuple[str, str, str]]]] = []
            for u, v, phi in squares_between(t, e, m):
                budget.tick()
                squares_checked += 1
                fills = fill_ins(t, e, m, u, v, phi)
                if not fills:
                    return _fail("validate_fs", "orthogonality-fill-in",
                                 left=e, right=m, u=u, v=v, phi=phi)
                instances.append(((u, v, phi), fills))
            for (sq, fills), (sq2, fills2) in itertools.product(instances,
                                                                repeat=2):
                for sigma_c, tau_c in square_two_cells(t, e, m, sq, sq2):
                    for (d, sigma, rho), (d2, sigma2, rho2) in \
                            itertools.product(fills, fills2):
                        budget.tick()
                        sols = [
                            lam for lam in t.hom2(d, d2)
                            if t.vc(t.rw(lam, e), sigma) ==
                            t.vc(sigma2, sigma_c)
                            and t.vc(rho2, t.lw(m, lam)) == t.vc(tau_c, rho)]
                        if not sols:
                            return _fail(
                                "validate_fs", "orthogonality-two-dim-existence",
                                left=e, right=m, square=list(sq),
                                square2=list(sq2), sigma=sigma_c, tau=tau_c,
                                fill_in=[d, sigma, rho],
                                fill_in2=[d2, sigma2, rho2])
                        if len(sols) > 1:
                            return _fail(
                                "validate_fs", "orthogonality-two-dim-uniqueness",
                                left=e, right=m, square=list(sq),
                                square2=list(sq2), sigma=sigma_c, tau=tau_c,
                                fill_in=[d, sigma, rho],
                                fill_in2=[d2, sigma2, rho2],
                                connectors=sols[:2])

    # any two factorizations of the same 1-cell are linked by an
    # equivalence diagonal
    for f in t.one_ids:
        triples = list(factorizations(t, f, left, right))
        for (e1, m1, th1), (e2, m2, th2) in itertools.product(triples,
                                                              repeat=2):
            budget.tick()
            phi = t.vc(th1, t.inv(th2))  # m2∘e2 ⇒ m1∘e1
            linked = any(
                is_equivalence(t, d).ok
                for d, _, _ in fill_ins(t, e1, m2, e2, m1, phi))
            if not linked:
                return _fail("validate_fs", "factorization-connectedness",
                             one_cell=f, first=[e1, m1, th1],
                             second=[e2, m2, th2])

    return Certificate("validate_fs", "pass",
                       {"left-class": len(left), "right-class": len(right),
                        "squares": squares_checked})


def is_proper_11(t: TwoCategory, fs: FactorizationSystem) -> Certificate:
    """Properness in the (1,1) sense: every member of the left class is
    cofaithful and every member of the right class is faithful."""
    check_fs_shape(t, fs)
    for e in _ordered_unique(fs.left_class):
        cert = is_cofaithful(t, e)
        if not cert.ok:
            return _fail("is_proper_11", "left-not-cofaithful", member=e,
                         inner=cert.counterexample["cells"])
    for m in _ordered_unique(fs.right_class):
        cert = is_faithful(t, m)
        if not cert.ok:
            return _fail("is_proper_11", "right-not-faithful", member=m,
                         inner=cert.counterexample["cells"])
    return Certificate("is_proper_11", "pass",
                       {"left-class": len(set(fs.left_class)),
                        "right-class": len(set(fs.right_class))})


# ---------------------------------------------------------------------------
# the pseudo-arrow 2-category on a class of 1-cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrowTwoCategory:
    """The pseudo-arrow 2-category on a designated class of 1-cells.

    Objects are the designated 1-cells of the base (object ids reuse the
    1-cell ids).  A 1-cell ``f → g`` is a square ``(a, b, φ)`` with
    invertible ``φ: g∘a ⇒ b∘f``, declared as ``"f|g|a|b|φ"``.  A 2-cell is a
    coherent pair ``(σ, τ)`` between parallel squares, declared as
    ``"<src square>|<tgt square>|σ|τ"``.  Base ids must not contain ``"|"``.

    ``squares`` and ``pairs`` decode the declared ids; ``square_ids`` and
    ``pair_ids`` map ``(f, g, a, b, φ)`` and ``(src, tgt, σ, τ)`` back to
    them.  No other id is ever made.
    """

    cat: TwoCategory
    base: TwoCategory
    members: tuple[str, ...]
    squares: Mapping[str, tuple[str, str, str]] = field(
        repr=False, compare=False)
    pairs: Mapping[str, tuple[str, str]] = field(repr=False, compare=False)
    square_ids: Mapping[tuple[str, ...], str] = field(
        repr=False, compare=False)
    pair_ids: Mapping[tuple[str, ...], str] = field(
        repr=False, compare=False)

    @staticmethod
    def square_id(f: str, g: str, a: str, b: str, phi: str) -> str:
        return f"{f}|{g}|{a}|{b}|{phi}"

    @staticmethod
    def pair_id(src_sq: str, tgt_sq: str, sigma: str, tau: str) -> str:
        return f"{src_sq}|{tgt_sq}|{sigma}|{tau}"

    def intern_square(self, f: str, g: str, a: str, b: str, phi: str) -> str:
        """The declared id of the square ``(a, b, φ): f → g``."""
        try:
            return self.square_ids[(f, g, a, b, phi)]
        except KeyError:
            raise InputError(f"not a declared square: ({a}, {b}, {phi}): "
                             f"{f} → {g}") from None

    def intern_pair(self, src_sq: str, tgt_sq: str, sigma: str,
                    tau: str) -> str:
        """The declared id of the pair ``(σ, τ)`` between two squares."""
        try:
            return self.pair_ids[(src_sq, tgt_sq, sigma, tau)]
        except KeyError:
            raise InputError(f"not a declared square 2-cell: ({sigma}, "
                             f"{tau}): {src_sq} ⇒ {tgt_sq}") from None

    def square(self, one_id: str) -> tuple[str, str, str]:
        """Decode a declared 1-cell id into its square ``(a, b, φ)``."""
        try:
            return self.squares[one_id]
        except KeyError:
            raise InputError(f"not a square id: {one_id}") from None

    def pair(self, two_id: str) -> tuple[str, str]:
        """Decode a declared 2-cell id into its component pair ``(σ, τ)``."""
        try:
            return self.pairs[two_id]
        except KeyError:
            raise InputError(f"not a square 2-cell id: {two_id}") from None


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
    built = t._arrow_subcats
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
# weak 2-(op)fibration checks for the two projections
# ---------------------------------------------------------------------------

def check_weak_two_fibration(t: TwoCategory, fs: FactorizationSystem,
                             direction: str,
                             cap: int | None = None) -> Certificate:
    """Check that the projection out of the pseudo-arrow 2-category on one
    class admits the lifting structure of a weak 2-(op)fibration.

    ``direction="cod"`` checks the codomain projection on the right class:
    for every member ``m`` and every 1-cell ``f`` out of its codomain, the
    chosen factorization of ``f∘m`` supplies a canonical lifting square,
    which must be 2-cocartesian (a 1-dimensional factorization property plus
    a 2-dimensional unique-connector property), and every invertible 2-cell
    under the projection must lift with prescribed domain (the projection is
    locally an isofibration).  ``direction="dom"`` checks the domain
    projection on the left class, which is the same property in the formal
    dual with the two classes swapped.
    """
    if direction not in ("dom", "cod"):
        raise InputError(f"direction must be 'dom' or 'cod', got {direction!r}")
    check_fs_shape(t, fs)
    if direction == "cod":
        return _check_cod_fibration(t, fs, cap)
    flipped = FactorizationSystem(
        left_class=fs.right_class,
        right_class=fs.left_class,
        factorization={f: (r, l, th)
                       for f, (l, r, th) in fs.factorization.items()})
    cert = _check_cod_fibration(t.dual, flipped, cap)
    detail = cert.detail
    if isinstance(detail, dict):
        detail = {**detail, "direction": "dom"}
    else:
        detail = (detail + "; " if detail else "") + (
            "checked on the formal dual; cited cells read in the dual "
            "orientation")
    witness = cert.witness
    if witness is not None:
        witness = {**witness, "direction": "dom"}
    counterexample = cert.counterexample
    if counterexample is not None:
        counterexample = {**counterexample,
                          "cells": {**counterexample["cells"],
                                    "direction": "dom"}}
    return replace(cert, witness=witness, counterexample=counterexample,
                   detail=detail)


def _check_cod_fibration(t: TwoCategory, fs: FactorizationSystem,
                         cap: int | None) -> Certificate:
    budget = Budget(cap, "check_weak_two_fibration")
    try:
        return _check_cod_fibration_body(t, fs, budget)
    except CapExceeded as exc:
        return _inconclusive("check_weak_two_fibration", exc)


def _check_cod_fibration_body(t: TwoCategory, fs: FactorizationSystem,
                              budget: Budget) -> Certificate:
    right = _ordered_unique(fs.right_class)
    right_set = set(right)
    liftings: dict[str, list[str]] = {}

    for m in right:
        for f in t.hom1(t.tgt1[m], None):
            fm = t.cmp1(f, m)
            l, r, theta = fs.factorization[fm]
            if r not in right_set:
                raise InputError(
                    f"factorization of {fm} has right part {r} outside the "
                    f"designated class; cannot build the canonical lifting")
            liftings[f"{m}:{f}"] = [l, f, t.inv(theta)]
            inv_theta = t.inv(theta)

            for n2 in right:
                instances = []
                for z, h, phi1 in squares_between(t, m, n2):
                    for g in t.hom1(t.tgt1[f], t.tgt1[n2]):
                        gf = t.cmp1(g, f)
                        for xi in t.iso2(h, gf):
                            budget.tick()
                            rhs = t.vc(t.rw(xi, m), phi1)
                            fills = []
                            for d in t.hom1(t.tgt1[l], t.src1[n2]):
                                n2d = t.cmp1(n2, d)
                                gr = t.cmp1(g, r)
                                for beta in t.iso2(n2d, gr):
                                    part = t.vc(t.lw(g, inv_theta),
                                                t.rw(beta, l))
                                    for alpha in t.iso2(z, t.cmp1(d, l)):
                                        if t.vc(part, t.lw(n2, alpha)) == rhs:
                                            fills.append((d, beta, alpha))
                            if not fills:
                                return _fail(
                                    "check_weak_two_fibration",
                                    "cocartesian-one-dim",
                                    direction="cod", member=m, extension=f,
                                    target=n2, z=z, h=h, phi=phi1, g=g, xi=xi)
                            instances.append((z, h, phi1, g, xi, fills))

                for inst, inst2 in itertools.product(instances, repeat=2):
                    z, h, phi1, g, xi, fills = inst
                    z2, h2, phi12, g2, xi2, fills2 = inst2
                    for sigma_c, tau_c in square_two_cells(
                            t, m, n2, (z, h, phi1), (z2, h2, phi12)):
                        for rho_c in t.hom2(g, g2):
                            if t.vc(t.rw(rho_c, f), xi) != t.vc(xi2, tau_c):
                                continue
                            for (d, beta, alpha), (d2, beta2, alpha2) in \
                                    itertools.product(fills, fills2):
                                budget.tick()
                                sols = [
                                    lam for lam in t.hom2(d, d2)
                                    if t.vc(beta2, t.lw(n2, lam)) ==
                                    t.vc(t.rw(rho_c, r), beta)
                                    and t.vc(t.rw(lam, l), alpha) ==
                                    t.vc(alpha2, sigma_c)]
                                if len(sols) != 1:
                                    clause = ("cocartesian-two-dim-existence"
                                              if not sols else
                                              "cocartesian-two-dim-uniqueness")
                                    return _fail(
                                        "check_weak_two_fibration", clause,
                                        direction="cod", member=m,
                                        extension=f, target=n2,
                                        square=[z, h, phi1],
                                        square2=[z2, h2, phi12],
                                        sigma=sigma_c, tau=tau_c, rho=rho_c,
                                        fill_in=[d, beta, alpha],
                                        fill_in2=[d2, beta2, alpha2])

    # the projection is locally an isofibration
    for m in right:
        for m2 in right:
            for a, b, phi in squares_between(t, m, m2):
                for b2 in t.hom1(t.src1[b], t.tgt1[b]):
                    for beta in t.iso2(b, b2):
                        budget.tick()
                        rhs = t.vc(t.rw(beta, m), phi)
                        if not any(
                                t.vc(phi2, t.lw(m2, alpha)) == rhs
                                for a2 in t.hom1(t.src1[a], t.tgt1[a])
                                for phi2 in t.iso2(t.cmp1(m2, a2),
                                                   t.cmp1(b2, m))
                                for alpha in t.iso2(a, a2)):
                            return _fail(
                                "check_weak_two_fibration",
                                "local-isofibration", direction="cod",
                                member=m, target=m2, a=a, b=b, phi=phi,
                                b2=b2, beta=beta)

    return Certificate("check_weak_two_fibration", "pass",
                       {"direction": "cod", "liftings": liftings})


# ---------------------------------------------------------------------------
# relatively orthogonal cokernel-kernel factorization systems
# ---------------------------------------------------------------------------

def _rofs_compatibility(t: TwoCategory, n: TwoIdeal,
                        p_m: KernelPresentation, p_e: CokernelPresentation,
                        s: str, t_: str, phi: str) -> str:
    """The compatibility pasting of a square ``(s, t, φ): e → m`` against a
    kernel presentation with leg ``m`` and a cokernel presentation with leg
    ``e``; lifting is only required when some such pasting is an invertible
    null 2-cell."""
    f = p_m.arrow
    g = p_e.arrow
    ft = t.cmp1(f, t_)
    sg = t.cmp1(s, g)
    _, nu1 = n.repl(t.id1[t.src1[g]], p_e.null_cell, ft)
    _, nu2 = n.repl(sg, p_m.null_cell, t.id1[t.tgt1[f]])
    return t.vc_chain(nu1,
                      t.lw(ft, p_e.structure),
                      t.lw(f, t.rw(phi, g)),
                      t.rw(t.inv(p_m.structure), sg),
                      t.inv(nu2))


def validate_rofs(t: TwoCategory, n: TwoIdeal,
                  left_class: Iterable[str], right_class: Iterable[str],
                  cap: int | None = None) -> Certificate:
    """Validate a relatively orthogonal factorization system for the ideal.

    Clauses, in check order: the right class consists of verified kernel
    legs and the left class of verified cokernel legs; every 1-cell factors
    up to invertible 2-cell as left-then-right; the right class is closed
    under pre-composition and the left class under post-composition with
    equivalences; both classes are stable under invertible 2-cells; every
    square from a left member to a right member whose null-compatibility
    pasting is an invertible null 2-cell (for some choice of witnessing
    kernel/cokernel presentations) admits a diagonal fill-in; and
    connectors between fill-ins exist uniquely in dimension 2.
    """
    left = _ordered_unique(left_class)
    right = _ordered_unique(right_class)
    for c in itertools.chain(left, right):
        if c not in t.src1:
            raise InputError(f"unknown 1-cell {c}")
    budget = Budget(cap, "validate_rofs")
    try:
        return _validate_rofs(t, n, left, right, budget)
    except CapExceeded as exc:
        return _inconclusive("validate_rofs", exc)


def _validate_rofs(t: TwoCategory, n: TwoIdeal, left: tuple[str, ...],
                   right: tuple[str, ...], budget: Budget) -> Certificate:
    left_set, right_set = set(left), set(right)
    kernels = kernel_presentations_by_arrow(t, n, _budget=budget)
    cokernels = cokernel_presentations_by_arrow(t, n, _budget=budget)
    kernel_by_leg: dict[str, list[KernelPresentation]] = {}
    for ps in kernels.values():
        for p in ps:
            kernel_by_leg.setdefault(p.leg, []).append(p)
    cokernel_by_leg: dict[str, list[CokernelPresentation]] = {}
    for ps in cokernels.values():
        for p in ps:
            cokernel_by_leg.setdefault(p.leg, []).append(p)

    for m in right:
        if m not in kernel_by_leg:
            return _fail("validate_rofs", "right-class-not-kernel-leg",
                         member=m)
    for e in left:
        if e not in cokernel_by_leg:
            return _fail("validate_rofs", "left-class-not-cokernel-leg",
                         member=e)

    for f in t.one_ids:
        if next(factorizations(t, f, left, right), None) is None:
            return _fail("validate_rofs", "factorization", one_cell=f)

    eqs = equivalences(t)
    for m in right:
        for i in eqs:
            if t.tgt1[i] == t.src1[m] and t.cmp1(m, i) not in right_set:
                return _fail("validate_rofs",
                             "right-precomposition-equivalence", member=m,
                             equivalence=i, composite=t.cmp1(m, i))
    for e in left:
        for i in eqs:
            if t.src1[i] == t.tgt1[e] and t.cmp1(i, e) not in left_set:
                return _fail("validate_rofs",
                             "left-postcomposition-equivalence", member=e,
                             equivalence=i, composite=t.cmp1(i, e))

    for side, cls, cls_set in (("left", left, left_set),
                               ("right", right, right_set)):
        for c in cls:
            for g in t.hom1(t.src1[c], t.tgt1[c]):
                if g not in cls_set and t.iso2(c, g):
                    return _fail("validate_rofs", f"{side}-iso-stability",
                                 member=c, other=g, iso=t.iso2(c, g)[0])

    for e in left:
        for m in right:
            instances = []
            for s, t_, phi in squares_between(t, e, m):
                budget.tick()
                fills = fill_ins(t, e, m, s, t_, phi)
                eligible = any(
                    n.is_invertible_null2(
                        t, _rofs_compatibility(t, n, p_m, p_e, s, t_, phi))
                    for p_m in kernel_by_leg[m]
                    for p_e in cokernel_by_leg[e])
                if eligible and not fills:
                    return _fail("validate_rofs", "fill-in", left=e, right=m,
                                 u=s, v=t_, phi=phi)
                if fills:
                    instances.append(((s, t_, phi), fills))
            for (sq, fills), (sq2, fills2) in itertools.product(instances,
                                                                repeat=2):
                for lam_c, mu_c in square_two_cells(t, e, m, sq, sq2):
                    for (d, sigma, rho), (d2, sigma2, rho2) in \
                            itertools.product(fills, fills2):
                        budget.tick()
                        sols = [
                            iota for iota in t.hom2(d, d2)
                            if t.vc(rho2, t.lw(m, iota)) == t.vc(mu_c, rho)
                            and t.vc(t.rw(iota, e), sigma) ==
                            t.vc(sigma2, lam_c)]
                        if len(sols) != 1:
                            clause = ("two-dim-existence" if not sols
                                      else "two-dim-uniqueness")
                            return _fail(
                                "validate_rofs", clause, left=e, right=m,
                                square=list(sq), square2=list(sq2),
                                sigma=lam_c, tau=mu_c,
                                fill_in=[d, sigma, rho],
                                fill_in2=[d2, sigma2, rho2])

    return Certificate("validate_rofs", "pass",
                       {"left-class": len(left), "right-class": len(right)})
