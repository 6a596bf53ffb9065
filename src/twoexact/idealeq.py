"""Equivalence of two ideals on the same 2-category, witnessed cellwise, and
transfer of (co)kernel presentations along such a witness.

A witness assigns to every null 1-cell of the first ideal a null counterpart
in the second together with an invertible comparison 2-cell (oriented from
the counterpart to the original), and symmetrically in the other direction.
The checked properties say the comparisons conjugate null 2-cells across the
two ideals, commute with the replacement tables, and make the two round
trips invertibly null.  A verified kernel presentation transfers to the
other ideal by pasting the comparison's inverse onto its structure cell.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import TypeVar

from .core import (
    Budget, Certificate, InputError, TwoCategory, _capped, _fail, _spending,
)
from .ideal import TwoIdeal
from .limits import CokernelPresentation, KernelPresentation

_Presentation = TypeVar("_Presentation", KernelPresentation,
                        CokernelPresentation)

@dataclass(frozen=True)
class IdealEquivalenceWitness:
    """``counterpart[n] = (n', Ξ: n' ⇒ n)`` for each null ``n`` of the first
    ideal (``n'`` null in the second); ``counterpart_back[n'] = (m, Ξ': m ⇒
    n')`` for each null ``n'`` of the second (``m`` null in the first)."""

    counterpart: dict[str, tuple[str, str]]
    counterpart_back: dict[str, tuple[str, str]]


def check_witness_shape(t: TwoCategory, n: TwoIdeal, n_prime: TwoIdeal,
                        w: IdealEquivalenceWitness) -> None:
    """Totality and boundary correctness of a witness; raises on defects."""
    for label, mapping, src_ideal, tgt_ideal in (
            ("counterpart", w.counterpart, n, n_prime),
            ("counterpart_back", w.counterpart_back, n_prime, n)):
        missing = src_ideal.null1 - set(mapping)
        if missing:
            raise InputError(f"{label} lacks entries for {sorted(missing)}")
        for cell, (other, xi) in mapping.items():
            if cell not in src_ideal.null1:
                raise InputError(f"{label} keyed by non-null 1-cell {cell}")
            if other not in tgt_ideal.null1:
                raise InputError(
                    f"{label}[{cell}] names non-null counterpart {other}")
            if xi not in t.src2 or (t.src2[xi], t.tgt2[xi]) != (other, cell):
                raise InputError(
                    f"{label}[{cell}] comparison {xi} is not a 2-cell "
                    f"{other} ⇒ {cell}")
            if not t.is_invertible2(xi):
                raise InputError(f"comparison {xi} is not invertible")


def _conjugate(t: TwoCategory, mapping: dict[str, tuple[str, str]],
               alpha: str, src: str, tgt: str) -> str:
    """``Ξ⁻¹_tgt · α · Ξ_src`` between the counterparts of ``src`` and
    ``tgt``."""
    _, xi_src = mapping[src]
    _, xi_tgt = mapping[tgt]
    return t.vc_chain(t.inv(xi_tgt), alpha, xi_src)


def witness_violation(t: TwoCategory, n: TwoIdeal, n_prime: TwoIdeal,
                      w: IdealEquivalenceWitness) -> tuple[str, dict] | None:
    """First violated property among (1)–(4), as ``(clause, cells)``;
    ``None`` when all hold."""
    for alpha in n.null2:
        m, nn = t.src2[alpha], t.tgt2[alpha]
        if _conjugate(t, w.counterpart, alpha, m, nn) not in n_prime.null2:
            return "property-1", {"two_cell": alpha}
    for beta in n_prime.null2:
        mp, np_ = t.src2[beta], t.tgt2[beta]
        for m in n.null1:
            if w.counterpart[m][0] != mp:
                continue
            for nn in n.null1:
                if w.counterpart[nn][0] != np_:
                    continue
                _, xi_m = w.counterpart[m]
                _, xi_n = w.counterpart[nn]
                back = t.vc_chain(xi_n, beta, t.inv(xi_m))
                if back not in n.null2:
                    return "property-2", {
                        "two_cell": beta, "null_src": m, "null_tgt": nn}
    for (a, x, b), (rep, nu) in n.replacement.items():
        np_cell, xi = w.counterpart[x]
        _, nu_p = n_prime.repl(a, np_cell, b)
        _, xi_hat = w.counterpart[rep]
        chi = t.vc_chain(
            t.inv(xi_hat), nu, t.lw(b, t.rw(xi, a)), t.inv(nu_p))
        if not n_prime.is_invertible_null2(t, chi):
            return "property-3", {"pre": a, "null": x, "post": b}
    for np_cell in n_prime.null1:
        m, xi_back = w.counterpart_back[np_cell]
        _, xi_m = w.counterpart[m]
        chi = t.vc(t.inv(xi_m), t.inv(xi_back))
        if not n_prime.is_invertible_null2(t, chi):
            return "property-4", {"null": np_cell}
    return None


def check_witness(t: TwoCategory, n: TwoIdeal, n_prime: TwoIdeal,
                  w: IdealEquivalenceWitness) -> Certificate:
    """Certificate form of :func:`witness_violation` (shape-checked)."""
    name = "check_witness"
    check_witness_shape(t, n, n_prime, w)
    violation = witness_violation(t, n, n_prime, w)
    if violation is None:
        return Certificate(name, "pass", witness=_witness_dict(w))
    clause, cells = violation
    return _fail(name, clause, **cells)


def _witness_dict(w: IdealEquivalenceWitness) -> dict:
    return {
        "counterpart": {k: list(v) for k, v in w.counterpart.items()},
        "counterpart_back": {k: list(v) for k, v in w.counterpart_back.items()},
    }


def _candidates(t: TwoCategory, tgt_ideal: TwoIdeal,
                cell: str) -> list[tuple[str, str]]:
    """Possible ``(counterpart, Ξ: counterpart ⇒ cell)`` pairs, the identity
    comparison first when the cell is its own candidate."""
    a, b = t.src1[cell], t.tgt1[cell]
    out: list[tuple[str, str]] = []
    if cell in tgt_ideal.null1:
        out.append((cell, t.id2[cell]))
    for cand in t.hom1(a, b):
        if cand not in tgt_ideal.null1:
            continue
        for xi in t.iso2(cand, cell):
            if (cand, xi) not in out:
                out.append((cand, xi))
    return out


class _NoCounterpart(InputError):
    def __init__(self, clause: str, cell: str):
        super().__init__(f"{clause}: no null counterpart for {cell}")
        self.clause = clause
        self.cell = cell


def find_equivalence_witness(t: TwoCategory, n: TwoIdeal, n_prime: TwoIdeal,
                             cap: int | Budget | None = None,
                             ) -> IdealEquivalenceWitness | None:
    """Exhaustive search for a witness satisfying properties (1)–(4);
    deterministic, identity comparisons preferred.  Raises
    :class:`CapExceeded` on budget overflow and :class:`InputError` when
    some null cell has no boundary-compatible null counterpart at all."""
    budget = _spending(cap, "find_equivalence_witness")
    forward_nulls = [f for f in t.one_ids if f in n.null1]
    backward_nulls = [f for f in t.one_ids if f in n_prime.null1]
    forward_choices = []
    for cell in forward_nulls:
        budget.tick()
        cands = _candidates(t, n_prime, cell)
        if not cands:
            raise _NoCounterpart("condition-A", cell)
        forward_choices.append(cands)
    backward_choices = []
    for cell in backward_nulls:
        budget.tick()
        cands = _candidates(t, n, cell)
        if not cands:
            raise _NoCounterpart("condition-B", cell)
        backward_choices.append(cands)
    for fwd in product(*forward_choices):
        counterpart = dict(zip(forward_nulls, fwd))
        for bwd in product(*backward_choices):
            budget.tick()
            w = IdealEquivalenceWitness(counterpart,
                                        dict(zip(backward_nulls, bwd)))
            if witness_violation(t, n, n_prime, w) is None:
                return w
    return None


def ideals_equivalent(t: TwoCategory, n: TwoIdeal, n_prime: TwoIdeal,
                      cap: int | Budget | None = None) -> Certificate:
    """Search a cellwise equivalence witness between two ideals, under
    this check's name; pass certificates carry the witness found."""
    return _capped("ideals_equivalent", cap, _equivalence, t, n, n_prime)


def _equivalence(t: TwoCategory, n: TwoIdeal, n_prime: TwoIdeal,
                 budget: Budget) -> Certificate:
    name = "ideals_equivalent"
    try:
        w = find_equivalence_witness(t, n, n_prime, budget)
    except _NoCounterpart as exc:
        return _fail(name, exc.clause, null=exc.cell)
    if w is None:
        return _fail(name, "no-witness")
    return Certificate(name, "pass", witness=_witness_dict(w))


def transfer_kernel(t: TwoCategory, n: TwoIdeal, n_prime: TwoIdeal,
                    w: IdealEquivalenceWitness, pres: _Presentation
                    ) -> _Presentation:
    """Move a kernel presentation to an equivalent ideal: replace the null
    cell by its counterpart and paste the comparison's inverse onto the
    structure cell."""
    check_witness_shape(t, n, n_prime, w)
    new_null, xi = w.counterpart[pres.null_cell]
    return replace(pres, null_cell=new_null,
                   structure=t.vc(t.inv(xi), pres.structure))


def transfer_cokernel(t: TwoCategory, n: TwoIdeal, n_prime: TwoIdeal,
                      w: IdealEquivalenceWitness,
                      pres: CokernelPresentation) -> CokernelPresentation:
    """Dual of :func:`transfer_kernel`; vertical pasting is unchanged by
    1-cell dualization, so the formula is the same."""
    return transfer_kernel(t, n, n_prime, w, pres)
