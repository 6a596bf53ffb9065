"""Two-dimensional kernels, cokernels and iso-inserters by exhaustive
universal-property search.

A kernel presentation of ``f: A → B`` relative to an ideal is an apex with a
leg ``k: K → A``, a null 1-cell ``n: K → B`` and an invertible structure cell
``α: f∘k ⇒ n``.  The checker verifies the one-dimensional factorization
property (every nullifying cone factors through the leg, with the comparison
pasting an invertible null 2-cell) and the two-dimensional property (cells
between whiskered cones with null comparison descend uniquely).  Cokernels
are kernels in the dual; iso-inserters are checked directly and agree with
kernels against a chosen null in the pointed case.

Searches iterate cells in table order, so the first witness found is
deterministic for a given presentation.  A ``cap`` bounds the number of
quantifier instances examined; exceeding it raises
:class:`~twoexact.core.CapExceeded` from enumeration functions and produces
an inconclusive certificate from certificate-returning checkers.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterator

from .core import (
    Budget, CapExceeded, Certificate, InputError, TwoCategory, _fail,
    _inconclusive, _is_lawful, _memo,
)
from .ideal import TwoIdeal


@dataclass(frozen=True)
class KernelPresentation:
    """Candidate kernel data for ``arrow: A → B``: ``leg: apex → A``,
    ``null_cell: apex → B`` null, ``structure: arrow∘leg ⇒ null_cell``
    invertible."""

    arrow: str
    apex: str
    leg: str
    null_cell: str
    structure: str


@dataclass(frozen=True)
class CokernelPresentation:
    """Candidate cokernel data for ``arrow: A → B``: ``leg: B → coapex``,
    ``null_cell: A → coapex`` null, ``structure: leg∘arrow ⇒ null_cell``
    invertible."""

    arrow: str
    coapex: str
    leg: str
    null_cell: str
    structure: str


def _check_kernel_candidate(t: TwoCategory, n: TwoIdeal,
                            pres: KernelPresentation) -> None:
    f = pres.arrow
    if f not in t.src1:
        raise InputError(f"unknown 1-cell {f}")
    a, b = t.src1[f], t.tgt1[f]
    if pres.apex not in t.objects:
        raise InputError(f"unknown object {pres.apex}")
    if pres.leg not in t.src1 or (t.src1[pres.leg], t.tgt1[pres.leg]) != (pres.apex, a):
        raise InputError(f"kernel leg {pres.leg} is not a 1-cell {pres.apex} → {a}")
    if pres.null_cell not in n.null1:
        raise InputError(f"{pres.null_cell} is not a null 1-cell")
    if (t.src1[pres.null_cell], t.tgt1[pres.null_cell]) != (pres.apex, b):
        raise InputError(
            f"null cell {pres.null_cell} is not a 1-cell {pres.apex} → {b}")
    fk = t.cmp1(f, pres.leg)
    alpha = pres.structure
    if alpha not in t.src2 or (t.src2[alpha], t.tgt2[alpha]) != (fk, pres.null_cell):
        raise InputError(
            f"structure cell {alpha} is not a 2-cell {fk} ⇒ {pres.null_cell}")
    if not t.is_invertible2(alpha):
        raise InputError(f"structure cell {alpha} is not invertible")


def _cone_comparison(t: TwoCategory, n: TwoIdeal, pres: KernelPresentation,
                     u: str, gamma: str, beta: str) -> str:
    """The clause-(1) comparison pasting
    ``β · (f⋆γ⁻¹) · (α⁻¹⋆u) · ν⁻¹``: replacement of ``null∘u`` ⇒ cone null."""
    f, alpha = pres.arrow, pres.structure
    _, nu = n.repl(u, pres.null_cell, t.id1[t.tgt1[f]])
    return t.vc_chain(
        beta,
        t.lw(f, t.inv(gamma)),
        t.rw(t.inv(alpha), u),
        t.inv(nu),
    )


def _descent_comparison(t: TwoCategory, n: TwoIdeal, pres: KernelPresentation,
                        u: str, v: str, lam: str) -> str:
    """The clause-(2) comparison pasting
    ``ν_v · (α⋆v) · (f⋆λ) · (α⁻¹⋆u) · ν_u⁻¹`` between replacements."""
    f, alpha = pres.arrow, pres.structure
    idb = t.id1[t.tgt1[f]]
    _, nu_u = n.repl(u, pres.null_cell, idb)
    _, nu_v = n.repl(v, pres.null_cell, idb)
    return t.vc_chain(
        nu_v,
        t.rw(alpha, v),
        t.lw(f, lam),
        t.rw(t.inv(alpha), u),
        t.inv(nu_u),
    )


def is_two_kernel(t: TwoCategory, n: TwoIdeal, pres: KernelPresentation,
                  cap: int | None = None, _budget: Budget | None = None) -> Certificate:
    """Verify a candidate kernel presentation against both universal-property
    clauses.

    Clause 1: every ``z`` with an invertible ``β: arrow∘z ⇒ null`` factors as
    ``γ: z ⇒ leg∘u`` with the comparison pasting an invertible null 2-cell.
    Clause 2: every ``λ: leg∘u ⇒ leg∘v`` whose comparison pasting is null is
    ``leg ⋆ μ`` for exactly one ``μ: u ⇒ v``.
    """
    name = "is_two_kernel"
    _check_kernel_candidate(t, n, pres)
    budget = _budget if _budget is not None else Budget(cap, name)
    f, k = pres.arrow, pres.leg
    try:
        for z, nz, beta in t.null_cones(n.null1, f):
            budget.tick()
            if _cone_factor(t, n, pres, z, beta) is None:
                return _fail(name, "cone-factorization",
                             arrow=f, leg=k, cone=z, cone_null=nz, beta=beta)
        for z_obj in t.objects:
            for u in t.hom1(z_obj, pres.apex):
                ku = t.cmp1(k, u)
                for v in _through_leg(t, k, z_obj, t.hom2(ku, None)):
                    for lam in t.hom2(ku, t.cmp1(k, v)):
                        budget.tick()
                        if _descent_comparison(t, n, pres, u, v, lam) not in n.null2:
                            continue
                        mus = [mu for mu in t.hom2(u, v) if t.lw(k, mu) == lam]
                        if len(mus) == 0:
                            return _fail(name, "descent-existence",
                                         arrow=f, leg=k, u=u, v=v, lam=lam)
                        if len(mus) > 1:
                            return _fail(name, "descent-uniqueness",
                                         arrow=f, leg=k, u=u, v=v, lam=lam,
                                         mus=mus[:2])
    except CapExceeded as exc:
        if _budget is not None:
            raise
        return _inconclusive(name, exc)
    return Certificate(name, "pass", witness={
        "arrow": f, "apex": pres.apex, "leg": k,
        "null_cell": pres.null_cell, "structure": pres.structure})


def _through_leg(t: TwoCategory, k: str, s: str,
                 cells: tuple[str, ...]) -> Iterator[str]:
    """The ``u: s → src k`` with ``k∘u`` the target of one of the 2-cells
    ``cells``, in table order: the leg fibres of those targets merged back
    by position."""
    us = t.hom1(s, t.src1[k])
    fibres = t.leg_fibres(k, s)
    hits = [fibres[w] for w in dict.fromkeys(map(t.tgt2.__getitem__, cells))
            if w in fibres]
    positions = hits[0] if len(hits) == 1 else heapq.merge(*hits)
    return map(us.__getitem__, positions)


@_memo
def _cone_candidates(t: TwoCategory, k: str, z: str) -> tuple[str, ...]:
    """The ``u`` with an invertible 2-cell ``z ⇒ k∘u``, in table order.
    Built once per ``(k, z)`` and kept on ``t``."""
    return tuple(_through_leg(t, k, t.src1[z], t.iso2(z)))


def _cone_factor(t: TwoCategory, n: TwoIdeal, pres: KernelPresentation,
                 z: str, beta: str) -> tuple[str, str] | None:
    """The first ``(u, γ: z ⇒ leg∘u)`` whose clause-(1) comparison for the
    cone ``(z, β)`` is an invertible null 2-cell, or ``None``."""
    k = pres.leg
    for u in _cone_candidates(t, k, z):
        for gamma in t.iso2(z, t.cmp1(k, u)):
            chi = _cone_comparison(t, n, pres, u, gamma, beta)
            if chi in n.null2 and t.is_invertible2(chi):
                return u, gamma
    return None


def kernel_factor(t: TwoCategory, n: TwoIdeal, pres: KernelPresentation,
                  z: str, beta: str) -> tuple[str, str]:
    """Apply clause 1 of a verified kernel to the cone ``(z, β)``: the first
    ``(u, γ: z ⇒ leg∘u)`` whose comparison is an invertible null 2-cell."""
    if z not in t.src1:
        raise InputError(f"unknown 1-cell {z}")
    found = _cone_factor(t, n, pres, z, beta)
    if found is None:
        raise InputError(f"cone {z} with {beta} does not factor through "
                         f"kernel leg {pres.leg}")
    return found


def _kernels(t: TwoCategory, n: TwoIdeal, f: str, budget: Budget,
             by_equivalence: bool) -> tuple[KernelPresentation, ...]:
    """The verified kernel presentations of ``f``, spending from ``budget``.

    The candidates are the null cones ``(k, m, α)`` of ``f``.  Each one up
    to and including the first verified one, ``P = (K, k, m, α)``, gets the
    full :func:`is_two_kernel`.  With ``by_equivalence`` a later candidate
    ``P' = (K', k', m', α')`` is verified exactly when clause 1 of ``P``,
    applied to the cone ``(k', α')``, gives a ``u₀: K' → K`` that is an
    equivalence; it gives some ``(u₀, γ₀)``, as clause 1 of ``P`` held on
    every cone.  The conditions this needs are in
    :func:`kernel_presentations_by_arrow`.

    Proof.  With identity replacements the clause-1 comparison of ``(u, γ)``
    for a cone ``(z, β)`` is ``χ_P(u, γ; β) = β·(f⋆γ⁻¹)·(α⁻¹⋆u): m∘u ⇒
    nz``, and the clause-2 comparison of ``λ: k∘u ⇒ k∘v`` is ``D_P(λ) =
    (α⋆v)·(f⋆λ)·(α⁻¹⋆u): m∘u ⇒ m∘v``.  The axioms give: null 2-cells
    compose (closure-vcomp); whiskering a null 2-cell keeps it null (ax2);
    ``x⋆σ`` is null for a null ``x`` and any 2-cell ``σ`` (ax3); identities
    of null 1-cells are null (closure-id2); ``x∘a`` is null for a null
    ``x`` (repl-null).  Write ``c₀ = χ_P(u₀, γ₀; α')``.  It is invertible
    and null, so ``c₀⁻¹ = (α⋆u₀)·(f⋆γ₀)·α'⁻¹`` is null too.

    If ``u₀`` is an equivalence, with ``w: K → K'`` and invertible ``η: id
    ⇒ w∘u₀`` and ``ε: u₀∘w ⇒ id``, then ``P'`` is verified:

    - Clause 1: clause 1 of ``P`` factors a cone ``(z, β)`` as ``(v, δ)``.
      Take ``v' = w∘v`` and ``δ' = (γ₀⁻¹⋆wv)·(k⋆ε⁻¹⋆v)·δ``.  By
      interchange, ``χ_P'(v', δ'; β) = χ_P(v, δ; β)·(m⋆ε⋆v)·(c₀⁻¹⋆wv)``,
      which is invertible and null.
    - Clause 2: for ``λ: k'∘u ⇒ k'∘v`` put ``λ̂ = (γ₀⋆v)·λ·(γ₀⁻¹⋆u)``.
      Then ``D_P(λ̂) = (c₀⁻¹⋆v)·D_P'(λ)·(c₀⋆u)``, null when ``D_P'(λ)``
      is.  By interchange, ``k'⋆μ = λ`` exactly when ``k⋆(u₀⋆μ) = λ̂``.
      Whiskering by ``u₀`` is a bijection ``hom(u, v) → hom(u₀∘u, u₀∘v)``:
      whiskering by an equivalence is faithful, and ``μ = (η⁻¹⋆v)·
      (w⋆μ̂)·(η⋆u)`` has ``w⋆(u₀⋆μ) = w⋆μ̂``.  So the one ``μ̂`` that
      clause 2 of ``P`` gives is ``u₀⋆μ`` for exactly one ``μ``.

    If ``P'`` is verified, then ``u₀`` is an equivalence.  Clause 1 of
    ``P'`` factors the cone ``(k, α)`` as ``(w, γ₁)``, with ``c₁ =
    χ_P'(w, γ₁; α)`` invertible and null.

    - ``λ = (γ₀⋆w)·γ₁: k ⇒ k∘u₀∘w`` is invertible, with ``D_P(λ) =
      (c₀⁻¹⋆w)·c₁⁻¹`` null and ``D_P(λ⁻¹) = D_P(λ)⁻¹`` null.  Clause 2 of
      ``P`` lifts them to ``μ: id ⇒ u₀∘w`` and ``μ': u₀∘w ⇒ id``.  The
      composites ``μ'·μ`` and ``μ·μ'`` lift ``id_k`` and ``id_{k∘u₀∘w}``,
      whose comparisons are the identities of the null ``m`` and ``m∘u₀∘w``.
      So, by uniqueness, ``μ`` is invertible.
    - In the same way ``(γ₁⋆u₀)·γ₀: k' ⇒ k'∘w∘u₀`` has ``D_P'`` equal to
      ``(c₁⁻¹⋆u₀)·c₀⁻¹``, and clause 2 of ``P'`` gives ``id ≅ w∘u₀``.

    Neither direction depends on which factorization clause 1 chose.  A
    later candidate spends one tick; the equivalences are read from
    ``TwoCategory._equivalences``.
    """
    out = []
    for k, nc, alpha in t.null_cones(n.null1, f):
        budget.tick()
        pres = KernelPresentation(f, t.src1[k], k, nc, alpha)
        if out and by_equivalence:
            u, _ = _cone_factor(t, n, out[0], k, alpha)
            verified = u in t._equivalences
        else:
            verified = is_two_kernel(t, n, pres, _budget=budget).ok
        if verified:
            out.append(pres)
    return tuple(out)


def two_kernels(t: TwoCategory, n: TwoIdeal, f: str, cap: int | None = None,
                _budget: Budget | None = None) -> tuple[KernelPresentation, ...]:
    """All verified kernel presentations of ``f``, in candidate table order,
    each candidate checked with :func:`is_two_kernel`.  Raises
    :class:`CapExceeded` when the cap runs out mid-search."""
    if f not in t.src1:
        raise InputError(f"unknown 1-cell {f}")
    budget = _budget if _budget is not None else Budget(cap, "two_kernels")
    return _kernels(t, n, f, budget, False)


def _to_dual_kernel(pres: CokernelPresentation) -> KernelPresentation:
    return KernelPresentation(pres.arrow, pres.coapex, pres.leg,
                              pres.null_cell, pres.structure)


def is_two_cokernel(t: TwoCategory, n: TwoIdeal, pres: CokernelPresentation,
                    cap: int | None = None) -> Certificate:
    """A cokernel is a kernel in the dual 2-category with the dual ideal."""
    return replace(is_two_kernel(t.dual, n.dual, _to_dual_kernel(pres), cap),
                   check="is_two_cokernel")


def _to_cokernel(pres: KernelPresentation) -> CokernelPresentation:
    return CokernelPresentation(pres.arrow, pres.apex, pres.leg,
                                pres.null_cell, pres.structure)


def two_cokernels(t: TwoCategory, n: TwoIdeal, f: str, cap: int | None = None,
                  _budget: Budget | None = None) -> tuple[CokernelPresentation, ...]:
    """All verified cokernel presentations of ``f``, via the dual search."""
    return tuple(map(_to_cokernel,
                     two_kernels(t.dual, n.dual, f, cap, _budget=_budget)))


def kernel_presentations_by_arrow(
        t: TwoCategory, n: TwoIdeal, cap: int | None = None,
        _budget: Budget | None = None) -> dict[str, tuple[KernelPresentation, ...]]:
    """Verified kernel presentations for every 1-cell, sharing one search
    budget across the whole sweep.  When ``n.built_on is t`` and ``t`` is
    lawful, ``n`` satisfies its axioms with identity replacements and null
    2-cells closed under inverses, so each candidate after an arrow's first
    verified kernel is decided by one equivalence test (:func:`_kernels`);
    any other ideal gets a check per candidate, with the same result."""
    budget = _budget if _budget is not None else Budget(cap, "kernel_presentations_by_arrow")
    by_equivalence = n.built_on is t and _is_lawful(t)
    return {f: _kernels(t, n, f, budget, by_equivalence) for f in t.one_ids}


def cokernel_presentations_by_arrow(
        t: TwoCategory, n: TwoIdeal, cap: int | None = None,
        _budget: Budget | None = None) -> dict[str, tuple[CokernelPresentation, ...]]:
    """Verified cokernel presentations for every 1-cell, sharing one budget:
    the kernel sweep of the duals."""
    budget = _budget if _budget is not None else Budget(cap, "cokernel_presentations_by_arrow")
    return {f: tuple(map(_to_cokernel, presentations))
            for f, presentations in kernel_presentations_by_arrow(
                t.dual, n.dual, _budget=budget).items()}


def cokernel_factor(t: TwoCategory, n: TwoIdeal, pres: CokernelPresentation,
                    z: str, beta: str) -> tuple[str, str]:
    """Dual of :func:`kernel_factor`: first ``(u, γ: z ⇒ u∘leg)`` in the dual
    sense for a cone ``z`` out of the arrow's target."""
    return kernel_factor(t.dual, n.dual, _to_dual_kernel(pres), z, beta)


# ---------------------------------------------------------------------------
# iso-inserters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InserterPresentation:
    """Candidate iso-inserter data for a parallel pair ``(left, right)``:
    ``leg: apex → A`` with invertible ``structure: left∘leg ⇒ right∘leg``."""

    left: str
    right: str
    apex: str
    leg: str
    structure: str


def _check_inserter_candidate(t: TwoCategory, pres: InserterPresentation) -> None:
    f, g = pres.left, pres.right
    for c in (f, g):
        if c not in t.src1:
            raise InputError(f"unknown 1-cell {c}")
    if (t.src1[f], t.tgt1[f]) != (t.src1[g], t.tgt1[g]):
        raise InputError(f"1-cells {f} and {g} are not parallel")
    if pres.apex not in t.objects:
        raise InputError(f"unknown object {pres.apex}")
    a = t.src1[f]
    if pres.leg not in t.src1 or (t.src1[pres.leg], t.tgt1[pres.leg]) != (pres.apex, a):
        raise InputError(f"leg {pres.leg} is not a 1-cell {pres.apex} → {a}")
    fl = t.cmp1(f, pres.leg)
    gl = t.cmp1(g, pres.leg)
    lam = pres.structure
    if lam not in t.src2 or (t.src2[lam], t.tgt2[lam]) != (fl, gl):
        raise InputError(f"structure cell {lam} is not a 2-cell {fl} ⇒ {gl}")
    if not t.is_invertible2(lam):
        raise InputError(f"structure cell {lam} is not invertible")


def is_biisoinserter(t: TwoCategory, pres: InserterPresentation,
                     cap: int | None = None,
                     _budget: Budget | None = None) -> Certificate:
    """Verify an iso-inserter presentation: every 1-cell with an invertible
    comparison between the two composites factors through the leg with the
    comparison reconstructed on the nose, and cells between whiskered factors
    satisfying the evident compatibility descend uniquely."""
    name = "is_biisoinserter"
    _check_inserter_candidate(t, pres)
    budget = _budget if _budget is not None else Budget(cap, name)
    f, g, ell, lam = pres.left, pres.right, pres.leg, pres.structure
    a = t.src1[f]
    try:
        for m_obj in t.objects:
            for m in t.hom1(m_obj, a):
                fm = t.cmp1(f, m)
                gm = t.cmp1(g, m)
                for mu in t.iso2(fm, gm):
                    budget.tick()
                    if not _inserter_factors(t, pres, m_obj, m, mu):
                        return _fail(name, "cone-factorization",
                                     left=f, right=g, leg=ell, cone=m, mu=mu)
        for z_obj in t.objects:
            vs = t.hom1(z_obj, pres.apex)
            for v in vs:
                lv = t.cmp1(ell, v)
                for w in vs:
                    lw_ = t.cmp1(ell, w)
                    for tau in t.hom2(lv, lw_):
                        budget.tick()
                        lhs = t.vc(t.rw(lam, w), t.lw(f, tau))
                        rhs = t.vc(t.lw(g, tau), t.rw(lam, v))
                        if lhs != rhs:
                            continue
                        sigmas = [s for s in t.hom2(v, w) if t.lw(ell, s) == tau]
                        if len(sigmas) == 0:
                            return _fail(name, "descent-existence",
                                         leg=ell, v=v, w=w, tau=tau)
                        if len(sigmas) > 1:
                            return _fail(name, "descent-uniqueness",
                                         leg=ell, v=v, w=w, tau=tau,
                                         sigmas=sigmas[:2])
    except CapExceeded as exc:
        if _budget is not None:
            raise
        return _inconclusive(name, exc)
    return Certificate(name, "pass", witness={
        "left": f, "right": g, "apex": pres.apex, "leg": ell,
        "structure": lam})


def _inserter_factors(t: TwoCategory, pres: InserterPresentation,
                      m_obj: str, m: str, mu: str) -> bool:
    f, g, ell, lam = pres.left, pres.right, pres.leg, pres.structure
    for v in t.hom1(m_obj, pres.apex):
        lv = t.cmp1(ell, v)
        for delta in t.iso2(m, lv):
            built = t.vc_chain(t.lw(g, t.inv(delta)), t.rw(lam, v),
                               t.lw(f, delta))
            if built == mu:
                return True
    return False


def biisoinserter(t: TwoCategory, f: str, g: str, cap: int | None = None,
                  _budget: Budget | None = None) -> tuple[InserterPresentation, ...]:
    """All verified iso-inserter presentations of the parallel pair
    ``(f, g)``, in candidate table order."""
    for c in (f, g):
        if c not in t.src1:
            raise InputError(f"unknown 1-cell {c}")
    if (t.src1[f], t.tgt1[f]) != (t.src1[g], t.tgt1[g]):
        raise InputError(f"1-cells {f} and {g} are not parallel")
    budget = _budget if _budget is not None else Budget(cap, "biisoinserter")
    a = t.src1[f]
    out = []
    for apex in t.objects:
        for ell in t.hom1(apex, a):
            fl = t.cmp1(f, ell)
            gl = t.cmp1(g, ell)
            for lam in t.iso2(fl, gl):
                budget.tick()
                pres = InserterPresentation(f, g, apex, ell, lam)
                if is_biisoinserter(t, pres, _budget=budget).ok:
                    out.append(pres)
    return tuple(out)
