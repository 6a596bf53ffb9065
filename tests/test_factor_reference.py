"""The factorization-system checks against the separate searches they
replaced.

``validate_fs`` and ``validate_rofs`` now share one lifting search, one
equivalence-closure sweep and one iso-stability sweep; ``validate_rofs``
reads its cokernels as the kernels of the duals; and the dom fibration
check runs the cod body on the duals.  The functions below are the earlier
ones, kept verbatim as the reference: on every input they give the same
certificate (or raise the same error) uncapped and at every cap.  The
edits are in the fibration check: a chosen factorization whose right part
leaves the class now fails ``factorization-right-class``, and one whose
cell ``theta`` is not invertible fails ``factorization-invertible``, where
each used to raise ``InputError``.
"""

import functools
import itertools
import random
from dataclasses import replace
from typing import Iterable

import pytest

from family import (CORE, ZERO_IDEALS, epi_mono_fs, null_z_ideal,
                    one_object_base)
from twoexact import (
    Budget,
    CapExceeded,
    Certificate,
    CokernelPresentation,
    FactorizationSystem,
    InputError,
    KernelPresentation,
    TwoCategory,
    TwoIdeal,
    check_fs_shape,
    cokernel_presentations_by_arrow,
    equivalences,
    fill_ins,
    fs_from_ideal,
    is_cofaithful,
    is_equivalence,
    is_faithful,
    kernel_presentations_by_arrow,
    maximal_two_ideal,
    square_two_cells,
    squares_between,
    two_cokernels,
    two_kernels,
    validate_two_category,
)
from twoexact import factor
from twoexact.core import _fail, _inconclusive
from twoexact.factor import _ordered_unique, factorizations

# ---------------------------------------------------------------------------
# the reference: the earlier checks, verbatim
# ---------------------------------------------------------------------------

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
                # the one deliberate change: a fail certificate, where the
                # earlier check raised an input error
                return _fail("check_weak_two_fibration",
                             "factorization-right-class", direction="cod",
                             member=m, extension=f, one_cell=fm, right=r)
            if not t.is_invertible2(theta):
                # and the same change for a cell theta that is not
                # invertible
                return _fail("check_weak_two_fibration",
                             "factorization-invertible", direction="cod",
                             member=m, extension=f, one_cell=fm, theta=theta)
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
    kernels = kernel_presentations_by_arrow(t, n, budget)
    cokernels = cokernel_presentations_by_arrow(t, n, budget)
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


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

CAPS = (None, 1, 7, 60, 800)

#: The 2-cells a varied table entry of the one-object bases ranges over.
Z_CELLS = ("iz", "t")


def one_object_systems() -> list[FactorizationSystem]:
    """Every pair of classes drawn from ``i`` and ``z``, with ``i``
    factored through itself and every choice of ``(left, right, θ)`` for
    ``z``."""
    classes = [c for r in range(3) for c in itertools.combinations("iz", r)]
    return [FactorizationSystem(left, right, {"i": ("i", "i", "ii"),
                                              "z": (l, r, theta)})
            for left, right in itertools.product(classes, repeat=2)
            for l, r in itertools.product("iz", repeat=2)
            for theta in Z_CELLS]


@functools.lru_cache(maxsize=None)
def constructed(name: str) -> tuple[TwoCategory, TwoIdeal,
                                    FactorizationSystem]:
    """The system ``fs_from_ideal`` builds on a CORE fixture, or the image
    factorization system of the cyclic tower."""
    if name == "epi_mono":
        t, fs = epi_mono_fs()
        return t, ZERO_IDEALS["ld_ct22"], fs
    t, n = CORE[name], ZERO_IDEALS[name]
    return t, n, fs_from_ideal(t, n)[0]


def _buildable(name: str) -> bool:
    try:
        constructed(name)
    except InputError:
        return False
    return True


SYSTEMS = [name for name in CORE if _buildable(name)] + ["epi_mono"]


def perturbed(t: TwoCategory, n: TwoIdeal, fs: FactorizationSystem,
              seed: int) -> FactorizationSystem:
    """One or two seeded edits of the classes: add a member (half the time
    a verified kernel or cokernel leg), drop one, or swap the classes."""
    rng = random.Random(seed)
    legs = sorted({p.leg for f in t.one_ids
                   for p in two_kernels(t, n, f) + two_cokernels(t, n, f)})
    classes = [list(fs.left_class), list(fs.right_class)]
    for _ in range(rng.randint(1, 2)):
        op, side = rng.choice(("add", "drop", "swap")), rng.randint(0, 1)
        cls = classes[side]
        if op == "add":
            pool = legs if rng.random() < 0.5 else list(t.one_ids)
            cls.insert(rng.randint(0, len(cls)), rng.choice(pool))
        elif op == "drop" and cls:
            cls.pop(rng.randrange(len(cls)))
        else:
            classes.reverse()
    return FactorizationSystem(tuple(classes[0]), tuple(classes[1]),
                               fs.factorization)


def _outcome(check, *args):
    try:
        return check(*args).to_json_dict()
    except InputError as exc:
        return "InputError", str(exc)


def _same(check, reference, *args):
    """``check`` and ``reference`` agree on ``args`` uncapped and at every
    cap in :data:`CAPS`."""
    for cap in CAPS:
        assert _outcome(check, *args, cap) == \
            _outcome(reference, *args, cap), cap


def _same_fibration(t: TwoCategory, fs: FactorizationSystem,
                    direction: str):
    _same(functools.partial(factor.check_weak_two_fibration, t, fs, direction),
          functools.partial(check_weak_two_fibration, t, fs, direction))


def _assert_same(t: TwoCategory, n: TwoIdeal, fs: FactorizationSystem):
    assert _outcome(factor.is_proper_11, t, fs) == \
        _outcome(is_proper_11, t, fs)
    _same(factor.validate_fs, validate_fs, t, fs)
    for direction in ("cod", "dom"):
        _same_fibration(t, fs, direction)
    _same(factor.validate_rofs, validate_rofs, t, n, fs.left_class,
          fs.right_class)


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SYSTEMS)
def test_constructed_systems_match_the_reference(name):
    _assert_same(*constructed(name))


@pytest.mark.parametrize("name", SYSTEMS)
def test_perturbed_systems_match_the_reference(name):
    t, n, fs = constructed(name)
    for seed in range(40):
        _assert_same(t, n, perturbed(t, n, fs, seed))


def _same_on_one_object(t: TwoCategory, ideals: list[TwoIdeal],
                        fibrations: bool):
    """validate_fs and is_proper_11 on every one-object system,
    validate_rofs on every pair of classes under each ideal, and (if
    ``fibrations``) each fibration check, which reads one class, on every
    system whose other class is empty."""
    for fs in one_object_systems():
        assert _outcome(factor.is_proper_11, t, fs) == \
            _outcome(is_proper_11, t, fs)
        _same(factor.validate_fs, validate_fs, t, fs)
        if fs.factorization["z"] == ("i", "i", "iz"):
            for n in ideals:
                _same(factor.validate_rofs, validate_rofs, t, n,
                      fs.left_class, fs.right_class)
        for direction, other in (("cod", fs.left_class),
                                 ("dom", fs.right_class)):
            if fibrations and not other:
                _same_fibration(t, fs, direction)


@pytest.mark.parametrize("v_tt", Z_CELLS)
def test_one_object_bases_match_the_reference(v_tt):
    # the fibration checks over every ninth choice of whiskers only
    for k, whiskers in enumerate(itertools.product(Z_CELLS, repeat=6)):
        t = one_object_base(v_tt=v_tt, **dict(zip(
            ("lw_ii", "lw_iz", "lw_t", "rw_ii", "rw_iz", "rw_t"), whiskers)))
        _same_on_one_object(t, [maximal_two_ideal(t)], k % 9 == 0)


#: The one-object bases the failure-clause pins start from.
CLAUSE_BASES = {
    "lawful": {},
    "v_izt": {"v_izt": "iz"},
    "v_tiz": {"v_tiz": "iz"},
    "v_iziz": {"v_iziz": "t", "v_izt": "iz", "v_tiz": "iz"},
    "v_iziz-rw_t": {"v_iziz": "t", "rw_t": "iz"},
    "v_iziz-lw_t": {"v_iziz": "t", "lw_t": "iz"},
    "rw_t": {"rw_t": "iz"},
    "lw_t": {"lw_t": "iz"},
    "rofs": {"v_izt": "iz", "lw_ii": "t", "rw_ii": "t"},
}


@pytest.mark.parametrize("name", CLAUSE_BASES)
def test_clause_bases_match_the_reference(name):
    # validate_rofs also under each ideal with null 1-cell z and null
    # 2-cell iz
    t = one_object_base(**CLAUSE_BASES[name])
    _same_on_one_object(t, [maximal_two_ideal(t)] + [
        null_z_ideal(("iz",), dict(zip(("ii", "iz", "zi", "zz"), nu)))
        for nu in itertools.product(Z_CELLS, repeat=4)], True)


# ---------------------------------------------------------------------------
# the theorem check_grandis_i relies on
# ---------------------------------------------------------------------------

def _valid_systems_on_lawful_bases():
    """``(kind, base, system)`` for every system that passes
    :func:`validate_fs` on a lawful base: the constructed systems, their
    40 seeded perturbations, and the one-object systems on every lawful
    one-object base."""
    for name in SYSTEMS:
        t, n, fs = constructed(name)
        assert validate_two_category(t).ok
        systems = [("constructed", fs)] + [
            ("perturbed", perturbed(t, n, fs, seed)) for seed in range(40)]
        for kind, system in systems:
            if factor.validate_fs(t, system).ok:
                yield kind, t, system
    entries = ("v_iziz", "v_izt", "v_tiz", "v_tt", "lw_ii", "lw_iz", "lw_t",
               "rw_ii", "rw_iz", "rw_t")
    for values in itertools.product(Z_CELLS, repeat=len(entries)):
        t = one_object_base(**dict(zip(entries, values)))
        if validate_two_category(t).ok:
            for fs in one_object_systems():
                if factor.validate_fs(t, fs).ok:
                    yield "one-object", t, fs


def test_a_valid_system_on_a_lawful_base_is_a_weak_two_fibration_both_ways():
    # check_grandis_i reads both fibration sub-checks off validate_fs's
    # pass; the fibration checks themselves are the oracle here
    kinds = []
    for kind, t, fs in _valid_systems_on_lawful_bases():
        for direction in ("cod", "dom"):
            cert = factor.check_weak_two_fibration(t, fs, direction)
            assert cert.ok, (kind, fs, direction, cert.counterexample)
        kinds.append(kind)
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "constructed": 6, "perturbed": 71, "one-object": 24}
