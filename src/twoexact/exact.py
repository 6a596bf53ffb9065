"""Exactness checkers and both constructive directions of the equivalence
between closed-ideal exactness data and proper factorization systems.

``check_grandis_ii`` verifies the ideal-side conditions (kernels and
cokernels everywhere, closedness, each kernel being a kernel of its
cokernel and dually, cokernel-then-kernel factorization) and
``check_grandis_i`` the factorization-system side (validity, properness,
both weak 2-(op)fibration directions, and the kernel/cokernel functors
forming a biequivalence over the base, read off the squares of the two
pseudo-arrow 2-categories).  ``fs_from_ideal`` and
``ideal_from_fs`` realize the two directions constructively, and
``three_pieces`` computes the cokernel--middle--kernel factorization of a
single 1-cell together with its dual route and the connecting 2-cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .closure import _closedness, _leg_order, _reflection_conclusion, _sweeps
from .core import (Budget, CapExceeded, Certificate, InputError, TwoCategory,
                   _Computed, _fail, _is_lawful, _memo, natural_key,
                   solve_lwhisker, solve_rwhisker)
from .factor import (ArrowTwoCategory, FactorizationSystem, arrow_subcat,
                     check_fs_shape, factorizations, is_proper_11, validate_fs)
from .ideal import (TwoIdeal, bizero_objects, canonical_zero_ideal,
                    check_ideal_shape)
from .limits import (CokernelPresentation, KernelPresentation,
                     _check_kernel_candidate, _kernels, _to_cokernel,
                     _to_dual_kernel, cokernel_factor, kernel_factor)
from .pseudo import (PseudoFunctor, PseudoNatural, compose_pseudofunctors,
                     identity_pseudofunctor, is_biequivalence_over_base)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactnessReport:
    """An ordered bundle of named sub-certificates for one exactness mode.

    ``status`` is ``"fail"`` when any sub-certificate fails,
    ``"inconclusive"`` when none fail but some ran out of search budget, and
    ``"pass"`` otherwise.
    """

    mode: str
    checks: tuple[tuple[str, Certificate], ...]

    @property
    def status(self) -> str:
        statuses = [cert.status for _, cert in self.checks]
        if "fail" in statuses:
            return "fail"
        if "inconclusive" in statuses:
            return "inconclusive"
        return "pass"

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def certificate(self, name: str) -> Certificate:
        for check_name, cert in self.checks:
            if check_name == name:
                return cert
        raise InputError(f"no sub-certificate named {name}")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "status": self.status,
            "checks": {name: cert.to_json_dict()
                       for name, cert in self.checks},
        }


def _inconclusive_at(name: str, exc: CapExceeded, at: str) -> Certificate:
    return Certificate(name, "inconclusive",
                       detail=f"{exc} while processing 1-cell {at}")


# ---------------------------------------------------------------------------
# the ideal-side conditions
# ---------------------------------------------------------------------------

def check_grandis_ii(t: TwoCategory, n: TwoIdeal, weak: bool = False,
                     cap: int | None = None) -> ExactnessReport:
    """Check the ideal-side exactness conditions, one certificate each:
    every 1-cell has a kernel and a cokernel, the ideal is (weakly) closed,
    every kernel leg is a kernel of its own cokernel with structure cell
    agreeing up to an invertible null 2-cell, dually for cokernel legs, and
    every 1-cell factors up to invertible 2-cell as a cokernel leg followed
    by a kernel leg."""
    check_ideal_shape(t, n)
    mode = "weak-grandis" if weak else "grandis"
    budget = Budget(cap, "check_grandis_ii")
    checks: list[tuple[str, Certificate]] = []

    try:
        sides = list(_sweeps(t, n, budget))
    except CapExceeded as exc:
        checks.append(("all-kernels-exist",
                       _inconclusive_at("all-kernels-exist", exc, "(sweep)")))
        return ExactnessReport(mode, tuple(checks))

    for side, _, _, by_arrow in sides:
        name = f"all-{side}s-exist"
        missing = [f for f in t.one_ids if not by_arrow[f]]
        if missing:
            cert = _fail(name, f"missing-{side}", one_cell=missing[0])
        else:
            cert = Certificate(name, "pass", {"arrows": len(t.one_ids)})
        checks.append((name, cert))

    checks.append(("weak-closedness" if weak else "closedness",
                   _closedness(sides, weak, budget)))

    (_, _, _, kernels), (_, _, _, cokernels) = sides
    kernel_legs, cokernel_legs = _leg_order(kernels), _leg_order(cokernels)

    checks.append(_kernel_of_its_cokernel(
        t, n, kernels, cokernels, budget, "kernel-of-its-cokernel"))
    checks.append(_kernel_of_its_cokernel(
        t.dual, n.dual, cokernels, kernels, budget,
        "cokernel-of-its-kernel"))

    name = "factorization"
    cert = None
    chosen: dict[str, list[str]] = {}
    for f in t.one_ids:
        found = next(factorizations(t, f, cokernel_legs, kernel_legs), None)
        if found is None:
            cert = _fail(name, "no-cokernel-kernel-factorization", one_cell=f)
            break
        chosen[f] = list(found)
    if cert is None:
        cert = Certificate(name, "pass", {"chosen": chosen})
    checks.append((name, cert))

    return ExactnessReport(mode, tuple(checks))


def _null_iso_adjustments(t: TwoCategory, n: TwoIdeal,
                          start: str) -> list[str]:
    """All invertible null 2-cells out of the null 1-cell ``start`` —
    the allowed adjustments between two structure cells."""
    return [z for z in t.hom2(start, None)
            if z in n.null2 and t.is_invertible2(z)]


def _kernel_of_its_cokernel(
        t: TwoCategory, n: TwoIdeal,
        kernels: dict[str, tuple[KernelPresentation, ...]],
        cokernels: dict[str, tuple[KernelPresentation, ...]],
        budget: Budget, name: str) -> tuple[str, Certificate]:
    """Each kernel leg must be a kernel of its own cokernel, with structure
    cell obtained from the cokernel's structure cell by pasting an
    invertible null 2-cell; ``kernels`` holds the verified kernel
    presentations of ``t`` and ``cokernels`` the cokernel presentations as
    kernel presentations of the duals.  On the duals, with the two swapped,
    this checks that each cokernel leg is a cokernel of its own kernel.

    A well-formed candidate is a null cone of the cokernel leg, so it is
    verified exactly when the sweep verified it: when it is among that
    leg's presentations in ``kernels``."""
    kernel_legs = _leg_order(kernels)
    for m in kernel_legs:
        try:
            found = False
            for pres_c in cokernels[m]:
                for zeta in _null_iso_adjustments(t, n, pres_c.null_cell):
                    budget.tick()
                    candidate = KernelPresentation(
                        arrow=pres_c.leg, apex=t.src1[m], leg=m,
                        null_cell=t.tgt2[zeta],
                        structure=t.vc(zeta, pres_c.structure))
                    _check_kernel_candidate(t, n, candidate)
                    if candidate in kernels[pres_c.leg]:
                        found = True
                        break
                if found:
                    break
            if not found:
                return name, _fail(name, f"not-{name}", member=m)
        except CapExceeded as exc:
            return name, _inconclusive_at(name, exc, m)
    return name, Certificate(name, "pass", {"legs": len(kernel_legs)})


def check_puppe(t: TwoCategory, weak: bool = False,
                cap: int | None = None) -> ExactnessReport:
    """Locate a bizero object, build the canonical ideal of 1-cells
    factoring through it, and run the ideal-side conditions against it.
    The ideal records ``t``, so on a lawful base the sweeps decide later
    kernel candidates by equivalence (see
    :func:`~twoexact.limits.kernel_presentations_by_arrow`).  That gate
    reads the law verdict, which is decided here before the ideal's tables
    are built, so its transient does not stack on top of them."""
    mode = "weak-puppe" if weak else "puppe"
    zeros = bizero_objects(t)
    if not zeros:
        return ExactnessReport(mode, (
            ("two-pointed", _fail("two-pointed", "not-2-pointed")),))
    zero = zeros[0]
    pointed = Certificate("two-pointed", "pass", {"bizero": zero})
    _is_lawful(t)
    inner = check_grandis_ii(t, canonical_zero_ideal(t, zero), weak=weak,
                             cap=cap)
    return ExactnessReport(mode, (("two-pointed", pointed),) + inner.checks)


# ---------------------------------------------------------------------------
# the factorization-system side
# ---------------------------------------------------------------------------

def check_grandis_i(t: TwoCategory, fs: FactorizationSystem,
                    k: PseudoFunctor, c: PseudoFunctor,
                    eta: PseudoNatural, epsilon: PseudoNatural,
                    cap: int | None = None) -> Certificate:
    """Check the factorization-system side on a full bundle: the system is
    valid and proper, and ``k``/``c`` with unit ``eta`` and counit
    ``epsilon`` form a biequivalence between the two pseudo-arrow
    2-categories strictly over the base, which refuses a lawless base.  On a
    lawful base a valid system makes both projections weak 2-(op)fibrations,
    so ``fibration-cod`` and ``-dom`` are read off :func:`validate_fs`.
    ``dom`` is ``cod`` in the dual, with the classes swapped; for ``cod``,
    with ``m``, ``f`` and the chosen ``(l, r, θ)`` of ``f∘m`` as in
    :func:`check_weak_two_fibration`:

    - ``cocartesian-one-dim``: the fills of ``(z, h, φ₁, g, ξ)`` are the
      fill-ins of the square ``(z, g∘r, (g⋆θ)·(ξ⋆m)·φ₁): l → n₂``.
    - ``cocartesian-two-dim-*``: ``(σ_c, ρ_c⋆r)`` is a square 2-cell between
      two such squares: one connector, by ``orthogonality-two-dim-*``.
    - ``local-isofibration``: ``a₂ = a``, ``α = id``, ``φ₂ = (β⋆m)·φ``.
    """
    name = "check_grandis_i"
    subchecks = (
        ("factorization-system", lambda: validate_fs(t, fs, cap)),
        ("properness", lambda: is_proper_11(t, fs)),
        ("biequivalence", lambda: is_biequivalence_over_base(
            arrow_subcat(t, fs.left_class), arrow_subcat(t, fs.right_class),
            k, c, eta, epsilon)),
    )
    for tag, run in subchecks:
        cert = run()
        if cert.status == "fail":
            return Certificate(name, "fail", None,
                               {"clause": tag,
                                "cells": {"inner": cert.counterexample}},
                               detail=cert.detail)
        if cert.status == "inconclusive":
            return Certificate(name, "inconclusive",
                               detail={"clause": tag, "inner": cert.detail})
    return Certificate(name, "pass", {"checks": dict.fromkeys((
        "factorization-system", "properness", "fibration-cod",
        "fibration-dom", "biequivalence"), "pass")})


# ---------------------------------------------------------------------------
# construction: from a closed ideal to a factorization system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Side:
    """A pseudo-arrow 2-category read as it is, or in the 1-cell dual: there
    the square ``(a, b, φ): f → g`` reads as ``(b, a, φ⁻¹): g → f``, the
    pair ``(σ, τ)`` as ``(τ, σ)``, and composition reverses.  The oriented
    tables are built once, so every read is one lookup.  ``cat`` is the
    category as it is; the builders compose in it, in its own order.
    ``base`` is the base the squares are read over: the dual base on the
    dual side."""

    cat: TwoCategory
    base: TwoCategory
    dual: bool
    src1: Mapping[str, str]
    tgt1: Mapping[str, str]
    squares: Mapping[str, tuple[str, str, str]]
    pairs: Mapping[str, tuple[str, str]]
    square_ids: Mapping[tuple[str, ...], str]
    pair_ids: Mapping[tuple[str, ...], str]


def _sides(arrow: ArrowTwoCategory) -> tuple[_Side, _Side]:
    """``arrow`` read as it is and in the 1-cell dual."""
    cat, base = arrow.cat, arrow.base
    squares = {sid: (b, a, base.inverse2[phi])
               for sid, (a, b, phi) in arrow.squares.items()}
    return (
        _Side(cat, base, False, cat.src1, cat.tgt1, arrow.squares,
              arrow.pairs, arrow.square_ids, arrow.pair_ids),
        _Side(cat, base.dual, True, cat.tgt1, cat.src1, squares,
              {tid: (tau, sigma)
               for tid, (sigma, tau) in arrow.pairs.items()},
              {(cat.tgt1[sid], cat.src1[sid], *sq): sid
               for sid, sq in squares.items()},
              {(lo, hi, tau, sigma): tid
               for (lo, hi, sigma, tau), tid in arrow.pair_ids.items()}))


@_memo
def _lift(side: _Side, lo: str, hi: str, tau: str) -> str:
    """The pair ``(σ, τ): lo ⇒ hi`` between two squares ``f → g`` of
    ``side`` with bottom cell ``τ``, where ``σ`` is the one 2-cell with
    ``g⋆σ = φ_hi⁻¹·(τ⋆f)·φ_lo``: faithfulness of the right-class leg ``g``
    induces it, and :func:`solve_lwhisker` raises when it is not unique.
    Compositors and :func:`_counit` take ``τ = id_v`` for ``lo``'s bottom
    1-cell ``v``; on the lawful base that :func:`arrow_subcat` requires,
    the right side is then ``φ_hi⁻¹·φ_lo`` by ``rwhisker-id2`` and
    ``vcomp-unit``, so the lift is the cell that equation determines."""
    t = side.base
    a, _, phi = side.squares[lo]
    a2, _, phi2 = side.squares[hi]
    needed = t.vc_chain(t.inv(phi2), t.rw(tau, side.src1[lo]), phi)
    sigma = solve_lwhisker(t, side.tgt1[lo], a, a2, needed)
    return side.pair_ids[(lo, hi, sigma, tau)]


def _kernel_functor(n: TwoIdeal, source: _Side, target: _Side,
                    chosen: dict[str, KernelPresentation]) -> PseudoFunctor:
    """The kernel functor from the left pseudo-arrow 2-category to the right
    one: objects go to chosen kernel legs, squares to the induced comparison
    squares, 2-cells and compositors to the lifts (:func:`_lift`) that the
    faithfulness of their target legs induces.  The compositor stores no
    entry: each is one lift, made when it is read, with the keys of the
    source's ``comp1`` in their order.  On the dual sides, with the dual
    ideal and the cokernels as kernels there, it is the cokernel functor."""
    t, cat, src1, tgt1 = source.base, source.cat, source.src1, source.tgt1
    squares, square_ids = source.squares, target.square_ids
    ob = {e: chosen[e].leg for e in cat.objects}
    identity_squares = set(cat.id1.values())
    one: dict[str, str] = {}
    for sid in cat.one_ids:
        e, e2 = src1[sid], tgt1[sid]
        if sid in identity_squares:
            one[sid] = target.cat.id1[ob[e]]
            continue
        a, b, phi = squares[sid]
        pres, pres2 = chosen[e], chosen[e2]
        k_e = pres.leg
        z = t.cmp1(a, k_e)
        _, nu = n.repl(t.id1[t.src1[pres.null_cell]], pres.null_cell, b)
        beta = t.vc_chain(nu, t.lw(b, pres.structure), t.rw(phi, k_e))
        w_hat, gamma = kernel_factor(t, n, pres2, z, beta)
        one[sid] = square_ids[(ob[e], ob[e2], w_hat, a, t.inv(gamma))]

    two = {tid: _lift(target, one[cat.src2[tid]], one[cat.tgt2[tid]],
                      source.pairs[tid][0])
           for tid in cat.two_ids}
    source_comp1, target_comp1 = cat.comp1, target.cat.comp1

    def compositor(key: tuple[str, str]) -> str:
        sid12 = source_comp1[key]
        img_comp = target_comp1[(one[key[0]], one[key[1]])]
        return _lift(target, img_comp, one[sid12],
                     t.id2[target.squares[img_comp][1]])

    return PseudoFunctor(source=cat, target=target.cat, ob=ob, one=one,
                         two=two,
                         compositor=_Computed(source_comp1.keys, compositor))


def fs_from_ideal(t: TwoCategory, n: TwoIdeal, cap: int | None = None
                  ) -> tuple[FactorizationSystem, PseudoFunctor,
                             PseudoFunctor, PseudoNatural, PseudoNatural]:
    """Build the factorization-system bundle out of ideal-side exactness
    data: left class all verified cokernel legs, right class all verified
    kernel legs, chosen factorizations by first search hit, the kernel and
    cokernel functors between the two pseudo-arrow 2-categories, and the
    unit and counit exhibiting them as a biequivalence over the base.  A
    cokernel is a kernel in the dual, so the cokernel functor and the unit
    are the kernel functor and the counit on the dual sides.

    Requires the ideal-side conditions to hold; a missing kernel, cokernel
    or factorization raises :class:`InputError` naming the gap.
    """
    check_ideal_shape(t, n)
    sides = tuple(_sweeps(t, n, Budget(cap, "fs_from_ideal")))
    for f in t.one_ids:
        for side, _, _, by_arrow in sides:
            if not by_arrow[f]:
                raise InputError(f"precondition failure: no verified {side} "
                                 f"for {f}")
    (_, _, _, kernels), (_, _, _, cokernels) = sides
    chosen_kernel = {f: kernels[f][0] for f in t.one_ids}
    chosen_cokernel = {f: cokernels[f][0] for f in t.one_ids}
    kernel_legs = tuple(sorted(_leg_order(kernels), key=natural_key))
    cokernel_legs = tuple(sorted(_leg_order(cokernels), key=natural_key))

    factorization: dict[str, tuple[str, str, str]] = {}
    for f in t.one_ids:
        entry = next(factorizations(t, f, cokernel_legs, kernel_legs), None)
        if entry is None:
            raise InputError(f"precondition failure: {f} does not factor "
                             f"as a cokernel leg followed by a kernel leg")
        factorization[f] = entry
    fs = FactorizationSystem(left_class=cokernel_legs,
                             right_class=kernel_legs,
                             factorization=factorization)

    e_side, e_dual = _sides(arrow_subcat(t, cokernel_legs))
    m_side, m_dual = _sides(arrow_subcat(t, kernel_legs))
    try:
        k = _kernel_functor(n, e_side, m_side, chosen_kernel)
        c = _kernel_functor(n.dual, m_dual, e_dual, chosen_cokernel)
        eta = _counit(n.dual, e_dual, c, k, chosen_cokernel, chosen_kernel,
                      cokernels)
        epsilon = _counit(n, m_side, k, c, chosen_kernel, chosen_cokernel,
                          kernels)
    except KeyError as exc:
        raise InputError(f"the ideal-side data yield the cell {exc.args[0]}, "
                         f"which is not a declared square or pair") from None
    return fs, k, c, eta, epsilon


def _counit(n: TwoIdeal, side: _Side, k: PseudoFunctor, c: PseudoFunctor,
            chosen_kernel: dict[str, KernelPresentation],
            chosen_cokernel: dict[str, KernelPresentation],
            kernels) -> PseudoNatural:
    """The counit ``ε: K∘C ⇒ Id``: at each right-class member ``m``, the
    comparison square from the chosen kernel of its chosen cokernel down to
    ``m``, induced by ``m``'s own presentation as a kernel of its cokernel;
    each structure cell is a lift (:func:`_lift`).  On the dual side, with
    the dual ideal and the roles of kernels and cokernels (and of ``K`` and
    ``C``) swapped, it is the unit ``η: Id ⇒ C∘K``: a transformation
    dualizes with its direction reversed and its structure cells inverted,
    so the ends ``F ⇒ G`` swap and each cell ``G(f)∘σ_X ⇒ σ_Y∘F(f)`` is
    taken as ``cat`` composes."""
    t, cat = side.base, side.cat
    kc = compose_pseudofunctors(k, c)
    ends = (kc, identity_pseudofunctor(cat))
    source_functor, target_functor = ends[::-1] if side.dual else ends
    component: dict[str, str] = {}
    for m in cat.objects:
        c_m = chosen_cokernel[m].leg
        own = next((p for p in kernels[c_m] if p.leg == m), None)
        if own is None:
            kinds = ("kernel", "cokernel")
            kind, cokind = kinds[::-1] if side.dual else kinds
            raise InputError(f"precondition failure: {m} is not exhibited "
                             f"as a {kind} of its {cokind} {c_m}")
        source_pres = chosen_kernel[c_m]
        u_hat, gamma = kernel_factor(t, n, own, source_pres.leg,
                                     source_pres.structure)
        component[m] = side.square_ids[
            (source_pres.leg, m, u_hat, t.id1[t.tgt1[m]], t.inv(gamma))]
        assert kc.ob[m] == source_pres.leg

    structure: dict[str, str] = {}
    identity_squares = set(cat.id1.values())
    for sid in cat.one_ids:
        x, y = cat.src1[sid], cat.tgt1[sid]
        if sid in identity_squares:
            structure[sid] = cat.id2[component[x]]
            continue
        lhs = cat.comp1[(target_functor.one[sid], component[x])]
        rhs = cat.comp1[(component[y], source_functor.one[sid])]
        structure[sid] = _lift(side, lhs, rhs, t.id2[side.squares[lhs][1]])

    return PseudoNatural(source_functor=source_functor,
                         target_functor=target_functor,
                         component=component, structure=structure,
                         claims_equivalences=True)


# ---------------------------------------------------------------------------
# construction: from a factorization system to an ideal
# ---------------------------------------------------------------------------

def ideal_from_fs(t: TwoCategory, fs: FactorizationSystem,
                  k: PseudoFunctor) -> TwoIdeal:
    """Rebuild the ideal out of a factorization-system bundle: null 1-cells
    are those factoring on the nose through the kernel of the identity at
    their target, null 2-cells those that whisker-factor through the same
    leg, and replacement pastes the kernel functor's image of the
    conjugation square at the identity."""
    check_fs_shape(t, fs)
    e_arrow = arrow_subcat(t, fs.left_class)
    m_arrow = arrow_subcat(t, fs.right_class)
    if k.source != e_arrow.cat or k.target != m_arrow.cat:
        raise InputError("the kernel functor is not indexed by the "
                         "pseudo-arrow 2-categories of the two classes")
    members = set(e_arrow.members)
    for x in t.objects:
        if t.id1[x] not in members:
            raise InputError(f"identity of {x} is not in the left class; "
                             f"its kernel object is unavailable")
    k_id = {x: k.ob[t.id1[x]] for x in t.objects}

    factors: dict[str, list[str]] = {}
    null1: list[str] = []
    for f in t.one_ids:
        kb = k_id[t.tgt1[f]]
        found = [nbar for nbar in t.hom1(t.src1[f], t.src1[kb])
                 if t.cmp1(kb, nbar) == f]
        if found:
            null1.append(f)
            factors[f] = found
    null1_set = set(null1)

    null2: list[str] = []
    for mu in t.two_ids:
        lo, hi = t.src2[mu], t.tgt2[mu]
        if lo not in null1_set or hi not in null1_set:
            continue
        kb = k_id[t.tgt1[lo]]
        if any(t.lw(kb, mubar) == mu
               for nbar in factors[lo]
               for nbar2 in factors[hi]
               for mubar in t.hom2(nbar, nbar2)):
            null2.append(mu)

    replacement: dict[tuple[str, str, str], tuple[str, str]] = {}
    for nl in null1:
        x, y = t.src1[nl], t.tgt1[nl]
        nbar = factors[nl][0]
        for a in t.hom1(None, x):
            na = t.cmp1(nbar, a)
            for b in t.hom1(y, None):
                sq = e_arrow.intern_square(
                    t.id1[y], t.id1[t.tgt1[b]], b, b, t.id2[b])
                w_hat, _, psi = m_arrow.square(k.one[sq])
                kb2 = k_id[t.tgt1[b]]
                replacement[(a, nl, b)] = (
                    t.cmp1_chain(kb2, w_hat, na),
                    t.rw(t.inv(psi), na))
    return TwoIdeal(null_one_cells=tuple(null1),
                    null_two_cells=tuple(null2),
                    replacement=replacement)


# ---------------------------------------------------------------------------
# three-pieces factorization of one 1-cell
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreePieces:
    """The cokernel--middle--kernel factorization of one 1-cell, with both
    construction routes and the connecting 2-cell between the two middles.

    ``composite_iso: arrow ⇒ last.leg ∘ middle ∘ first.leg`` is the
    factorization itself; ``mu``, ``xi`` are the route that applies the
    cokernel's universal property first, ``lam``, ``xi_prime`` the dual
    route, and ``connecting: middle_dual ⇒ middle`` reconciles them.
    """

    arrow: str
    kernel: KernelPresentation
    cokernel: CokernelPresentation
    first: CokernelPresentation
    last: KernelPresentation
    u: str
    mu: str
    middle: str
    xi: str
    composite_iso: str
    v: str
    lam: str
    middle_dual: str
    xi_prime: str
    connecting: str


def _middle_route(t: TwoCategory, n: TwoIdeal, f: str,
                  kernel: KernelPresentation, first: CokernelPresentation,
                  cokernel: CokernelPresentation, last: KernelPresentation,
                  refusal: str) -> tuple[str, str, str, str]:
    """``(u, μ: f ⇒ u∘c, z, ξ: u ⇒ k∘z)`` from the cokernel ``c`` of
    ``first`` (of the kernel leg), the coreflection of the comparison to a
    null morphism, and the kernel ``k`` of ``last`` (of the cokernel leg);
    ``refusal`` when ``c`` does not coreflect.  On the duals, with kernels
    and cokernels swapped, this is the dual route ``(v, λ, z₂, ξ′)``: their
    tables are the primal's read flipped, so every cell id is the same."""
    u, mu = cokernel_factor(t, n, first, f, kernel.structure)
    chi = t.vc(cokernel.structure, t.lw(cokernel.leg, t.inv(mu)))
    concl = _reflection_conclusion(t.dual, n.dual, first.leg,
                                   t.cmp1(cokernel.leg, u), chi)
    if concl is None:
        raise InputError(refusal)
    z, xi = kernel_factor(t, n, last, u, concl[1])
    return u, mu, z, xi


def three_pieces(t: TwoCategory, n: TwoIdeal, f: str,
                 cap: int | None = None) -> ThreePieces:
    """Factor ``f`` as (cokernel of its kernel) then a middle piece then
    (kernel of its cokernel).

    The middle piece exists because the cokernel of the kernel coreflects
    null morphisms — full closedness of the ideal.  Weak coreflection is
    not enough for this construction, so there is no weak variant.
    """
    if f not in t.src1:
        raise InputError(f"unknown 1-cell {f}")
    budget = Budget(cap, "three_pieces")

    def first_verified(dual: bool, arrow: str, what: str):
        # the search stops at the first verified presentation
        tt, nn = (t.dual, n.dual) if dual else (t, n)
        for pres in _kernels(tt, nn, arrow, budget, False):
            return _to_cokernel(pres) if dual else pres
        side = "cokernel" if dual else "kernel"
        raise InputError(f"no verified {side} for {what}")

    pres_kf = first_verified(False, f, f)
    first = first_verified(True, pres_kf.leg, f"the kernel leg {pres_kf.leg}")
    pres_cf = first_verified(True, f, f)
    last = first_verified(False, pres_cf.leg,
                          f"the cokernel leg {pres_cf.leg}")

    c, kk = first.leg, last.leg

    # route one: cokernel universal property first, then coreflect, then
    # the kernel universal property; route two is route one on the duals
    u, mu, z, xi = _middle_route(
        t, n, f, pres_kf, first, pres_cf, last,
        f"the cokernel {c} of the kernel of {f} does not coreflect the "
        f"comparison to a null morphism; the ideal is not closed enough "
        f"for the middle piece")
    composite = t.vc(t.rw(xi, c), mu)
    v, lam, z2, xi2 = _middle_route(
        t.dual, n.dual, f, _to_dual_kernel(pres_cf), _to_cokernel(last),
        _to_cokernel(pres_kf), _to_dual_kernel(first),
        f"the kernel {kk} of the cokernel of {f} does not reflect the "
        f"comparison to a null morphism; the ideal is not closed enough "
        f"for the dual middle piece")

    # the two middles agree up to a unique invertible 2-cell
    needed = t.vc_chain(t.rw(xi, c), mu, t.inv(lam),
                        t.inv(t.lw(kk, xi2)))
    whiskered = solve_rwhisker(t, c, t.cmp1(kk, z2), t.cmp1(kk, z), needed)
    eta = solve_lwhisker(t, kk, z2, z, whiskered)

    return ThreePieces(arrow=f, kernel=pres_kf, cokernel=pres_cf,
                       first=first, last=last, u=u, mu=mu, middle=z, xi=xi,
                       composite_iso=composite, v=v, lam=lam,
                       middle_dual=z2, xi_prime=xi2, connecting=eta)
