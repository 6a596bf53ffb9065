"""Two-dimensional ideals of null cells, presented in characterization form.

An ideal consists of a class of null 1-cells, a class of null 2-cells, and a
total *replacement* table assigning to every composite ``b∘n∘a`` around a null
``n`` a null 1-cell ``ñ`` with an invertible comparison 2-cell
``ν: b∘n∘a ⇒ ñ``.  The axioms checked here say the replacements are normalized
on identities, conjugation by the comparisons preserves nullity of 2-cells,
and iterated replacement agrees with direct replacement up to an invertible
null comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from .core import Certificate, InputError, TwoCategory, _fail


@dataclass(frozen=True)
class TwoIdeal:
    """Null 1-cells, null 2-cells, and the replacement table
    ``(a, n, b) ↦ (ñ, ν)`` for pre-composition by ``a`` and post-composition
    by ``b`` around the null 1-cell ``n``."""

    null_one_cells: tuple[str, ...]
    null_two_cells: tuple[str, ...]
    replacement: Mapping[tuple[str, str, str], tuple[str, str]]

    @cached_property
    def null1(self) -> frozenset[str]:
        return frozenset(self.null_one_cells)

    @cached_property
    def null2(self) -> frozenset[str]:
        return frozenset(self.null_two_cells)

    def repl(self, a: str, n: str, b: str) -> tuple[str, str]:
        """The pair ``(ñ, ν)`` replacing ``b∘n∘a``."""
        try:
            return self.replacement[(a, n, b)]
        except KeyError:
            raise InputError(f"no replacement entry for ({a}, {n}, {b})") from None

    def is_invertible_null2(self, t: TwoCategory, cell: str) -> bool:
        return cell in self.null2 and t.is_invertible2(cell)

    @cached_property
    def dual(self) -> "TwoIdeal":
        """The same ideal read in the 1-cell dual: pre- and post-composition
        trade places, so replacement keys flip ``(a, n, b) ↦ (b, n, a)``.
        Built once and linked back, so ``n.dual.dual is n``."""
        d = TwoIdeal(
            null_one_cells=self.null_one_cells,
            null_two_cells=self.null_two_cells,
            replacement={(b, x, a): v
                         for (a, x, b), v in self.replacement.items()},
        )
        d.__dict__["dual"] = self
        return d


def check_ideal_shape(t: TwoCategory, n: TwoIdeal) -> None:
    """Referential integrity and replacement-table totality."""
    ones = set(t.one_ids)
    twos = set(t.two_ids)
    for f in n.null_one_cells:
        if f not in ones:
            raise InputError(f"null 1-cell {f} is not a 1-cell of the 2-category")
    if len(n.null1) != len(n.null_one_cells):
        raise InputError("duplicate null 1-cell identifiers")
    for a in n.null_two_cells:
        if a not in twos:
            raise InputError(f"null 2-cell {a} is not a 2-cell of the 2-category")
    if len(n.null2) != len(n.null_two_cells):
        raise InputError("duplicate null 2-cell identifiers")
    keys = {
        (a, x, b)
        for x in n.null_one_cells
        for a in t.hom1(None, t.src1[x])
        for b in t.hom1(t.tgt1[x], None)
    }
    if set(n.replacement) != keys:
        missing = keys - set(n.replacement)
        extra = set(n.replacement) - keys
        raise InputError(
            f"replacement table does not cover exactly the composable triples "
            f"around null 1-cells (missing {len(missing)}, extra {len(extra)})")
    for k, (tilde, nu) in n.replacement.items():
        if tilde not in ones:
            raise InputError(f"replacement[{k}] names unknown 1-cell {tilde}")
        if nu not in twos:
            raise InputError(f"replacement[{k}] names unknown 2-cell {nu}")


def _violations(t: TwoCategory, n: TwoIdeal) -> Iterator[tuple[str, dict[str, str]]]:
    """Every violation of an ideal axiom in the shape-checked tables, as
    ``(clause, cells)`` in the fixed clause order.

    Violated null 2-cell or replacement boundaries end the sweep once their
    loop is done: the axioms after them compose cells of those boundaries.
    """
    broken = False
    for mu in n.null_two_cells:
        if t.src2[mu] not in n.null1 or t.tgt2[mu] not in n.null1:
            broken = True
            yield "null2-boundary", {"two_cell": mu, "src": t.src2[mu],
                                     "tgt": t.tgt2[mu]}
    if broken:
        return

    for x in n.null_one_cells:
        if t.id2[x] not in n.null2:
            yield "closure-id2", {"null_one_cell": x, "id2": t.id2[x]}

    for mu in n.null_two_cells:
        src = t.src2[mu]
        for prev in n.null_two_cells:
            if t.tgt2[prev] != src:
                continue
            composite = t.vc(mu, prev)
            if composite not in n.null2:
                yield "closure-vcomp", {"after": mu, "before": prev,
                                        "composite": composite}

    for (a, x, b), (tilde, nu) in n.replacement.items():
        if tilde not in n.null1:
            broken = True
            yield "repl-null", {"a": a, "n": x, "b": b, "tilde": tilde}
        composite = t.cmp1(b, t.cmp1(x, a))
        if not (t.src2[nu] == composite and t.tgt2[nu] == tilde):
            broken = True
            yield "repl-boundary", {"a": a, "n": x, "b": b, "nu": nu}
        if not t.is_invertible2(nu):
            broken = True
            yield "repl-invertible", {"a": a, "n": x, "b": b, "nu": nu}
    if broken:
        return

    # ax1: replacement along identities is the identity comparison
    for x in n.null_one_cells:
        ia = t.id1[t.src1[x]]
        ib = t.id1[t.tgt1[x]]
        tilde, nu = n.replacement[(ia, x, ib)]
        if tilde != x or nu != t.id2[x]:
            yield "ax1", {"n": x, "tilde": tilde, "nu": nu}

    # ax2: conjugating a null 2-cell by the comparisons stays null
    for mu in n.null_two_cells:
        x, x2 = t.src2[mu], t.tgt2[mu]
        for a in t.hom1(None, t.src1[x]):
            mu_a = t.rw(mu, a)
            for b in t.hom1(t.tgt1[x], None):
                _, nu1 = n.replacement[(a, x, b)]
                _, nu2 = n.replacement[(a, x2, b)]
                cell = t.vc_chain(nu2, t.lw(b, mu_a), t.inv(nu1))
                if cell not in n.null2:
                    yield "ax2", {"mu": mu, "a": a, "b": b, "conjugate": cell}

    # ax3: conjugated whiskerings of the null 1-cell by arbitrary 2-cells are null
    for x in n.null_one_cells:
        asrc, atgt = t.src1[x], t.tgt1[x]
        for alpha in t.two_ids:
            a, a2 = t.src2[alpha], t.tgt2[alpha]
            if t.tgt1[a] != asrc:
                continue
            for beta in t.two_ids:
                b, b2 = t.src2[beta], t.tgt2[beta]
                if t.src1[b] != atgt:
                    continue
                _, nu1 = n.replacement[(a, x, b)]
                _, nu2 = n.replacement[(a2, x, b2)]
                mid = t.hc(beta, t.hc(t.id2[x], alpha))
                cell = t.vc(nu2, t.vc(mid, t.inv(nu1)))
                if cell not in n.null2:
                    yield "ax3", {"n": x, "alpha": alpha, "beta": beta,
                                  "conjugate": cell}

    # ax4: iterated replacement agrees with direct replacement.  The
    # comparison is ν_{a∘a2, n, b2∘b} · (b2 ⋆ (ν1⁻¹ ⋆ a2)) · ν_{a2, m, b2}⁻¹.
    # Over b2 in post(b) its direct factor depends only on (a∘a2, n, b), and
    # its iterated factor only on (ν1, a2): ν1 fixes m and the target of b
    # once the replacement boundaries hold.  Each row of factors is built
    # once and numbered by content; each pair of row numbers is checked
    # once, keeping the positions in post(b) where the comparison fails.
    vc, comp1, repl, inv2 = t.vc, t.comp1, n.replacement, t.inverse2
    good = n.null2.intersection(inv2)
    numbers: dict[tuple[str, ...], int] = {}
    direct, iterated, failing = {}, {}, {}

    def numbered(row):
        return numbers.setdefault(row, len(numbers)), row

    for (a, x, b), (m, nu1) in repl.items():
        post = t.hom1(t.tgt1[b], None)
        for a2 in t.hom1(None, t.src1[a]):
            aa = comp1[(a, a2)]
            d = direct.get((aa, x, b))
            if d is None:
                d = direct[(aa, x, b)] = numbered(tuple(
                    repl[(aa, x, comp1[(b2, b)])][1] for b2 in post))
            i = iterated.get((nu1, a2))
            if i is None:
                inner = t.rw(inv2[nu1], a2)
                i = iterated[(nu1, a2)] = numbered(tuple(
                    vc(t.lw(b2, inner), inv2[repl[(a2, m, b2)][1]])
                    for b2 in post))
            bad = failing.get((d[0], i[0]))
            if bad is None:
                bad = failing[(d[0], i[0])] = [
                    (j, cell) for j, cell in enumerate(map(vc, d[1], i[1]))
                    if cell not in good]
            for j, cell in bad:
                yield "ax4", {"a": a, "n": x, "b": b, "a2": a2, "b2": post[j],
                              "comparison": cell}


def validate_two_ideal(t: TwoCategory, n: TwoIdeal) -> Certificate:
    """Check the ideal axioms, citing the first violated clause.

    Clause order: null 2-cell boundaries, identity closure, vertical-composite
    closure, replacement boundaries/invertibility/nullity, identity
    normalization (ax1), conjugation-nullity for null 2-cells (ax2) and for
    whiskering 2-cells (ax3), and coherence of iterated replacement (ax4).
    """
    check_ideal_shape(t, n)
    name = "validate_two_ideal"
    for clause, cells in _violations(t, n):
        return _fail(name, clause, **cells)
    return Certificate(name, "pass", witness={
        "null_one_cells": len(n.null_one_cells),
        "null_two_cells": len(n.null_two_cells),
        "replacement_entries": len(n.replacement)})


def replay_two_ideal_counterexample(t: TwoCategory, n: TwoIdeal,
                                    cert: Certificate) -> bool:
    """Re-run the axiom sweep of :func:`validate_two_ideal`; True iff it finds
    the cited clause violated on exactly the cited cells."""
    if cert.status != "fail" or cert.check != "validate_two_ideal":
        raise InputError("not a validate_two_ideal fail certificate")
    check_ideal_shape(t, n)
    c = cert.counterexample
    return (c["clause"], c["cells"]) in _violations(t, n)


# ---------------------------------------------------------------------------
# distinguished ideals
# ---------------------------------------------------------------------------

def maximal_two_ideal(t: TwoCategory) -> TwoIdeal:
    """Everything is null; replacements are identities on the composites."""
    repl = {
        (a, x, b): (t.cmp1(b, t.cmp1(x, a)), t.id2[t.cmp1(b, t.cmp1(x, a))])
        for x in t.one_ids
        for a in t.hom1(None, t.src1[x])
        for b in t.hom1(t.tgt1[x], None)
    }
    return TwoIdeal(t.one_ids, t.two_ids, repl)


def bizero_objects(t: TwoCategory) -> tuple[str, ...]:
    """Objects whose hom-categories to and from every object are equivalent to
    the terminal category: nonempty, with exactly one (invertible) 2-cell
    between any ordered pair of 1-cells."""
    out = []
    for z in t.objects:
        if all(_hom_terminal(t, a, z) and _hom_terminal(t, z, a)
               for a in t.objects):
            out.append(z)
    return tuple(out)


def _hom_terminal(t: TwoCategory, a: str, b: str) -> bool:
    fs = t.hom1(a, b)
    if not fs:
        return False
    for f in fs:
        for g in fs:
            cells = t.hom2(f, g)
            if len(cells) != 1 or not t.is_invertible2(cells[0]):
                return False
    return True


def is_strong_bizero(t: TwoCategory, zero: str) -> Certificate:
    """A bizero object through which null composites are unique up to a
    *unique* 2-cell: for any parallel pair of composites ``i∘t`` via the
    bizero object there is exactly one 2-cell between them, and it is
    invertible."""
    name = "is_strong_bizero"
    if zero not in t.objects:
        raise InputError(f"unknown object {zero}")
    if zero not in bizero_objects(t):
        return _fail(name, "not-bizero", object=zero)
    for a in t.objects:
        for b in t.objects:
            comps: list[str] = []
            for tt in t.hom1(a, zero):
                for i in t.hom1(zero, b):
                    f = t.cmp1(i, tt)
                    if f not in comps:
                        comps.append(f)
            for f in comps:
                for g in comps:
                    cells = t.hom2(f, g)
                    if len(cells) != 1 or not t.is_invertible2(cells[0]):
                        return _fail(name, "null-composite-cells", object=zero,
                                     f=f, g=g, count=len(cells))
    return Certificate(name, "pass", witness={"object": zero})


def canonical_zero_ideal(t: TwoCategory, zero: str | None = None) -> TwoIdeal:
    """The ideal of 1-cells factoring on the nose through a bizero object.

    Null 2-cells are generated by horizontally pasting the unique comparison
    2-cells between factorization legs, then closing under vertical
    composition.  Replacements are identity comparisons: ``b∘(i∘t)∘a`` factors
    through the bizero object again by strictness.
    """
    zs = bizero_objects(t)
    if zero is None:
        if not zs:
            raise InputError("no bizero object")
        zero = zs[0]
    elif zero not in zs:
        raise InputError(f"{zero} is not a bizero object")

    nulls = []
    for f in t.one_ids:
        a, b = t.src1[f], t.tgt1[f]
        if any(t.cmp1(i, tt) == f
               for tt in t.hom1(a, zero) for i in t.hom1(zero, b)):
            nulls.append(f)

    gens: list[str] = []
    for a in t.objects:
        ts = t.hom1(a, zero)
        for b in t.objects:
            is_ = t.hom1(zero, b)
            for t1 in ts:
                for t2 in ts:
                    u = t.hom2(t1, t2)[0]
                    for i1 in is_:
                        for i2 in is_:
                            v = t.hom2(i1, i2)[0]
                            cell = t.hc(v, u)
                            if cell not in gens:
                                gens.append(cell)
    # close under vertical composition
    null2 = list(gens)
    added = True
    while added:
        added = False
        for b in list(null2):
            for a in list(null2):
                if t.src2[b] != t.tgt2[a]:
                    continue
                c = t.vcomp[(b, a)]
                if c not in null2:
                    null2.append(c)
                    added = True

    nullset = set(nulls)
    repl = {}
    for x in nulls:
        for a in t.hom1(None, t.src1[x]):
            for b in t.hom1(t.tgt1[x], None):
                comp = t.cmp1(b, t.cmp1(x, a))
                if comp not in nullset:
                    raise InputError(
                        f"composite {comp} around null {x} does not factor "
                        f"through {zero}; {zero} is not bizero")
                repl[(a, x, b)] = (comp, t.id2[comp])
    return TwoIdeal(tuple(nulls), tuple(null2), repl)


def null_objects(t: TwoCategory, n: TwoIdeal) -> tuple[tuple[str, str, str], ...]:
    """Triples ``(Z, ξ̂, ξ)``: an object whose identity is invertibly null,
    witnessed by a null endo-1-cell ``ξ̂`` and an invertible ``ξ: id_Z ⇒ ξ̂``."""
    return tuple((z, xhat, xi) for z in t.objects
                 for xhat in t.hom1(z, z) if xhat in n.null1
                 for xi in t.iso2(t.id1[z], xhat))
