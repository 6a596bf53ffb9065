"""Reflection and coreflection of null cells along (co)kernel legs, their
weak variants, and closedness of an ideal.

A 1-cell ``k: K → A`` *reflects null 1-cells* when every ``s: D → K`` whose
composite ``k∘s`` is invertibly null is itself invertibly null, coherently:
the comparison ``ν∘(k⋆ψ)∘δ⁻¹`` must land in the null 2-cell class.  It
*reflects null 2-cells* when 2-cells between null 1-cells whose conjugated
whiskering is null are null.  The weak variant restricts the 1-cell
quantifier to cones compatible with a given kernel presentation's structure
cell.  An ideal is closed when every verified kernel leg reflects (both
flavours) and every cokernel leg coreflects; weakly closed replaces strong
reflection with the presentation-relative weak one.

``weak_closure_triple`` evaluates the three equivalent readings of weak
closedness (kernels weakly reflect / null-isomorphic 1-cells factor through a
null object / cokernels weakly coreflect) separately, so tests can assert
the equivalence rather than assume it.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .core import (
    Budget, CapExceeded, Certificate, InputError, TwoCategory, _capped, _fail,
    _inconclusive,
)
from .ideal import TwoIdeal, null_objects
from .limits import (
    KernelPresentation, _check_arrows, is_two_kernel,
    kernel_presentations_by_arrow,
)


def _reflection_conclusion(t: TwoCategory, n: TwoIdeal, k: str, s: str,
                           delta: str) -> tuple[str, str] | None:
    """Search a null ``ψ̂`` parallel to ``s`` and invertible ``ψ: s ⇒ ψ̂``
    making ``ν∘(k⋆ψ)∘δ⁻¹`` an invertible null 2-cell; ``δ: k∘s ⇒ null``."""
    d_obj, k_obj = t.src1[s], t.tgt1[s]
    idd = t.id1[d_obj]
    for psi_hat in t.hom1(d_obj, k_obj):
        if psi_hat not in n.null1:
            continue
        for psi in t.iso2(s, psi_hat):
            _, nu = n.repl(idd, psi_hat, k)
            chi = t.vc_chain(nu, t.lw(k, psi), t.inv(delta))
            if n.is_invertible_null2(t, chi):
                return psi_hat, psi
    return None


def reflects_null_morphisms(t: TwoCategory, n: TwoIdeal, k: str,
                            cap: int | Budget | None = None) -> Certificate:
    """Whether ``k`` reflects null 1-cells: every ``s`` with an invertible
    ``δ: k∘s ⇒ null`` is invertibly null, with a coherent comparison."""
    _check_arrows(t, k)
    return _capped("reflects_null_morphisms", cap, _reflects_1cells, t, n, k)


def _reflects_1cells(t: TwoCategory, n: TwoIdeal, k: str,
                     budget: Budget) -> Certificate:
    for s, nc, delta in t.null_cones(n.null1, k):
        budget.tick()
        if _reflection_conclusion(t, n, k, s, delta) is None:
            return _fail("reflects_null_morphisms", "reflect-1cell",
                         leg=k, cone=s, null=nc, delta=delta)
    return Certificate("reflects_null_morphisms", "pass", witness={"leg": k})


def reflects_null_2cells(t: TwoCategory, n: TwoIdeal, k: str,
                         cap: int | Budget | None = None) -> Certificate:
    """Whether ``k`` reflects null 2-cells: for ``μ`` between null 1-cells
    into the source of ``k``, if the ν-conjugate of ``k⋆μ`` is null then
    ``μ`` is null."""
    _check_arrows(t, k)
    return _capped("reflects_null_2cells", cap, _reflects_2cells, t, n, k)


def _reflects_2cells(t: TwoCategory, n: TwoIdeal, k: str,
                     budget: Budget) -> Certificate:
    k_src = t.src1[k]
    for mu, s, s_prime in t.two_cells:
        if s not in n.null1 or s_prime not in n.null1:
            continue
        if t.tgt1[s] != k_src:
            continue
        budget.tick()
        idd = t.id1[t.src1[s]]
        _, nu_s = n.repl(idd, s, k)
        _, nu_sp = n.repl(idd, s_prime, k)
        conj = t.vc_chain(nu_sp, t.lw(k, mu), t.inv(nu_s))
        if conj in n.null2 and mu not in n.null2:
            return _fail("reflects_null_2cells", "reflect-2cell",
                         leg=k, two_cell=mu, src=s, tgt=s_prime)
    return Certificate("reflects_null_2cells", "pass", witness={"leg": k})


def _weak_hypothesis(t: TwoCategory, n: TwoIdeal, pres: KernelPresentation,
                     s: str, nc: str, delta: str) -> str:
    """The compatibility pasting restricting the weak-reflection quantifier:
    ``ν∘(α⋆s)∘(f⋆δ⁻¹)∘ν⁻¹`` between replacements of ``f∘nc`` and
    ``n_f∘s``."""
    f, alpha = pres.arrow, pres.structure
    idb = t.id1[t.tgt1[f]]
    idd = t.id1[t.src1[s]]
    _, nu_side = n.repl(s, pres.null_cell, idb)
    _, nu_cone = n.repl(idd, nc, f)
    return t.vc_chain(
        nu_side,
        t.rw(alpha, s),
        t.lw(f, t.inv(delta)),
        t.inv(nu_cone),
    )


def weakly_reflects(t: TwoCategory, n: TwoIdeal, pres: KernelPresentation,
                    cap: int | Budget | None = None) -> Certificate:
    """As :func:`reflects_null_morphisms` for the presentation's leg, but
    quantifying only over ``(s, null, δ)`` whose compatibility pasting with
    the presentation's structure cell is an invertible null 2-cell.  Given
    a number, it first checks the presentation with :func:`is_two_kernel`
    from the same budget and raises :class:`InputError` unless it passes;
    given a budget, it trusts the caller's sweep."""
    body = (_weak_reflection if isinstance(cap, Budget)
            else _checked_weak_reflection)
    return _capped("weakly_reflects", cap, body, t, n, pres)


def _checked_weak_reflection(t: TwoCategory, n: TwoIdeal,
                             pres: KernelPresentation,
                             budget: Budget) -> Certificate:
    if not is_two_kernel(t, n, pres, budget).ok:
        raise InputError("presentation is not a verified kernel")
    return _weak_reflection(t, n, pres, budget)


def _weak_reflection(t: TwoCategory, n: TwoIdeal, pres: KernelPresentation,
                     budget: Budget) -> Certificate:
    k = pres.leg
    for s, nc, delta in t.null_cones(n.null1, k):
        budget.tick()
        hyp = _weak_hypothesis(t, n, pres, s, nc, delta)
        if not n.is_invertible_null2(t, hyp):
            continue
        if _reflection_conclusion(t, n, k, s, delta) is None:
            return _fail("weakly_reflects", "weak-reflect-1cell",
                         leg=k, cone=s, null=nc, delta=delta)
    return Certificate("weakly_reflects", "pass", witness={
        "leg": k, "arrow": pres.arrow, "structure": pres.structure})


# (side, category, ideal, verified presentations by arrow); the cokernel
# side is the kernel side of the duals.
_Side = tuple[str, TwoCategory, TwoIdeal, dict]


def _leg_order(by_arrow: dict) -> tuple[str, ...]:
    """Presentation legs deduplicated, first appearance first."""
    return tuple(dict.fromkeys(
        p.leg for presentations in by_arrow.values() for p in presentations))


def _sweeps(t: TwoCategory, n: TwoIdeal, budget: Budget) -> Iterator[_Side]:
    """The kernel sweep of ``t``, then the cokernel sweep as the kernel
    sweep of the dual, both spending from ``budget``.  Lazy, so a caller
    can stop before the second sweep.  Each sweep decides later kernel
    candidates by equivalence when it may, as
    :func:`~twoexact.limits.kernel_presentations_by_arrow` says; the dual
    of an ideal the program built on ``t`` records ``t.dual``."""
    for side, tt, nn in (("kernel", t, n), ("cokernel", t.dual, n.dual)):
        yield side, tt, nn, kernel_presentations_by_arrow(tt, nn, budget)


def _cited(name: str, prefix: str, cert: Certificate) -> Certificate:
    """Fail ``name`` with the clause and cells of a failing ``cert``."""
    return _fail(name, prefix + cert.counterexample["clause"],
                 **cert.counterexample["cells"])


def _closedness(sides: Iterable[_Side], weak: bool,
                budget: Budget) -> Certificate:
    """Closedness (``weak``: weak closedness) read off the swept sides:
    fail on the first 1-cell a side misses, before the next side is
    swept; then each side's legs reflect null 1-cells (``weak``: each
    presentation weakly reflects) and null 2-cells, spending from
    ``budget``."""
    name = "is_weakly_closed" if weak else "is_closed_ideal"
    leg_checks = ((reflects_null_2cells,) if weak else
                  (reflects_null_morphisms, reflects_null_2cells))
    swept = []
    try:
        for side, tt, nn, by_arrow in sides:
            for f, presentations in by_arrow.items():
                if not presentations:
                    return _fail(name, f"missing-{side}", arrow=f)
            swept.append((side, tt, nn, by_arrow))
        for side, tt, nn, by_arrow in swept:
            if weak:
                for presentations in by_arrow.values():
                    for p in presentations:
                        cert = weakly_reflects(tt, nn, p, budget)
                        if not cert.ok:
                            return _cited(name, f"{side}-", cert)
            for k in _leg_order(by_arrow):
                for check in leg_checks:
                    cert = check(tt, nn, k, budget)
                    if not cert.ok:
                        return _cited(name, f"{side}-leg-", cert)
    except CapExceeded as exc:
        return _inconclusive(name, exc)
    return Certificate(name, "pass", witness={
        f"{side}_legs": list(_leg_order(by_arrow))
        for side, _, _, by_arrow in swept})


def is_closed_ideal(t: TwoCategory, n: TwoIdeal,
                    cap: int | None = None) -> Certificate:
    """Every verified kernel leg reflects null 1-cells and null 2-cells, and
    every verified cokernel leg coreflects both (reflects them in the dual);
    fails early when some 1-cell has no kernel or no cokernel."""
    budget = Budget(cap, "is_closed_ideal")
    return _closedness(_sweeps(t, n, budget), False, budget)


def is_weakly_closed(t: TwoCategory, n: TwoIdeal,
                     cap: int | None = None) -> Certificate:
    """Every verified kernel presentation weakly reflects and its leg
    reflects null 2-cells; dually for cokernel presentations."""
    budget = Budget(cap, "is_weakly_closed")
    return _closedness(_sweeps(t, n, budget), True, budget)


def _factors_through_null_object(t: TwoCategory, n: TwoIdeal, h: str,
                                 null_m: str, rho: str,
                                 budget: Budget) -> bool:
    """Search a null object ``(Z, ξ̂, ξ)`` and ``(x, y, γ: h ⇒ y∘x)`` whose
    comparison ``ν∘(y⋆ξ⋆x)∘γ∘ρ⁻¹``, running from the null 1-cell all the
    way to the null replacement, is an invertible null 2-cell."""
    a_obj, b_obj = t.src1[h], t.tgt1[h]
    for z, xhat, xi in null_objects(t, n):
        for x in t.hom1(a_obj, z):
            for y in t.hom1(z, b_obj):
                yx = t.cmp1(y, x)
                for gamma in t.iso2(h, yx):
                    budget.tick()
                    _, nu = n.repl(x, xhat, y)
                    chi = t.vc_chain(nu, t.lw(y, t.rw(xi, x)), gamma,
                                     t.inv(rho))
                    if n.is_invertible_null2(t, chi):
                        return True
    return False


def weak_closure_triple(t: TwoCategory, n: TwoIdeal,
                        cap: int | None = None) -> tuple[bool, bool, bool]:
    """The three equivalent readings of weak closedness, evaluated
    independently: (kernel presentations weakly reflect, 1-cells isomorphic
    to a null one factor through a null object, cokernel presentations
    weakly coreflect).  Raises :class:`CapExceeded` on budget overflow and
    :class:`InputError` when some 1-cell lacks a kernel or cokernel."""
    budget = Budget(cap, "weak_closure_triple")
    (_, _, _, kernels), (_, _, _, cokernels) = _sweeps(t, n, budget)
    for f in t.one_ids:
        if not kernels[f]:
            raise InputError(f"no kernel found for {f}")
        if not cokernels[f]:
            raise InputError(f"no cokernel found for {f}")

    b1 = all(
        weakly_reflects(t, n, p, budget).ok
        for presentations in kernels.values() for p in presentations)

    b2 = all(
        _factors_through_null_object(t, n, h, null_m, rho, budget)
        for h in t.one_ids for null_m in t.hom1(t.src1[h], t.tgt1[h])
        if null_m in n.null1 for rho in t.iso2(h, null_m))

    b3 = all(
        weakly_reflects(t.dual, n.dual, p, budget).ok
        for presentations in cokernels.values() for p in presentations)
    return b1, b2, b3
