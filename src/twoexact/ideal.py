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

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping

from .core import Certificate, InputError, TwoCategory, _fail, _is_lawful


@dataclass(frozen=True)
class TwoIdeal:
    """Null 1-cells, null 2-cells, and the replacement table
    ``(a, n, b) ↦ (ñ, ν)`` for pre-composition by ``a`` and post-composition
    by ``b`` around the null 1-cell ``n``.  ``built_on``, left out of ``==``,
    is the 2-category :func:`canonical_zero_ideal` or :func:`maximal_two_ideal`
    built the ideal on, its dual on the dual ideal, and None on any other."""

    null_one_cells: tuple[str, ...]
    null_two_cells: tuple[str, ...]
    replacement: Mapping[tuple[str, str, str], tuple[str, str]]
    # on a dual built by :attr:`dual`, a weak reference to its primal
    _primal: Any = field(default=None, init=False, repr=False, compare=False)
    built_on: Any = field(default=None, init=False, repr=False, compare=False)

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

    @property
    def dual(self) -> "TwoIdeal":
        """The same ideal read in the 1-cell dual: pre- and post-composition
        trade places, so replacement keys flip ``(a, n, b) ↦ (b, n, a)``.
        Built once and linked back, so ``n.dual.dual is n``; as for
        :attr:`TwoCategory.dual`, the dual refers to its primal weakly."""
        primal = None if self._primal is None else self._primal()
        return self._dual if primal is None else primal

    @cached_property
    def _dual(self) -> "TwoIdeal":
        d = TwoIdeal(
            null_one_cells=self.null_one_cells,
            null_two_cells=self.null_two_cells,
            replacement={(b, x, a): v
                         for (a, x, b), v in self.replacement.items()},
        )
        object.__setattr__(d, "_primal", weakref.ref(self))
        if self.built_on is not None:
            object.__setattr__(d, "built_on", self.built_on.dual)
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
    # the keys that are composable triples around a null 1-cell, counted
    # against the number of such triples
    src1, tgt1 = t.src1, t.tgt1
    triples = sum(len(t.hom1(None, src1[x])) * len(t.hom1(tgt1[x], None))
                  for x in n.null_one_cells)
    covered = sum(x in n.null1 and a in tgt1 and b in src1
                  and tgt1[a] == src1[x] and src1[b] == tgt1[x]
                  for a, x, b in n.replacement)
    if covered != triples or covered != len(n.replacement):
        raise InputError(
            f"replacement table does not cover exactly the composable triples "
            f"around null 1-cells (missing {triples - covered}, "
            f"extra {len(n.replacement) - covered})")
    for k, (tilde, nu) in n.replacement.items():
        if tilde not in ones:
            raise InputError(f"replacement[{k}] names unknown 1-cell {tilde}")
        if nu not in twos:
            raise InputError(f"replacement[{k}] names unknown 2-cell {nu}")


def _violations(t: TwoCategory, n: TwoIdeal,
                reduced: bool = False) -> Iterator[tuple[str, dict[str, str]]]:
    """Every violation of an ideal axiom in the shape-checked tables, as
    ``(clause, cells)`` in the fixed clause order.

    Violated null 2-cell or replacement boundaries end the sweep once their
    loop is done: the axioms after them compose cells of those boundaries.

    ``reduced`` runs the clauses up to ax1 as they are, then tests ax2, ax3
    and ax4 on replacement targets alone (:func:`_by_boundary`).  On a
    locally thin lawful input an empty reduced sweep decides "pass"; a
    reduced violation only shows that some axiom fails, and the full sweep
    names the first one.  Write ``ñ(a, x, b)`` for the target of the
    replacement of ``(a, x, b)``, ``B`` for the boundary pairs ``(src μ,
    tgt μ)`` of the null 2-cells ``μ``, and ``G`` for those of the
    invertible null 2-cells.

    - Once the clauses up to ax1 hold, each ``ν`` of the replacement table
      runs ``b∘x∘a ⇒ ñ(a, x, b)`` and is invertible.  On a lawful input the
      composites of the axioms then have the boundaries their factors give:
      ax2's conjugate of ``μ: x ⇒ x2`` runs ``ñ(a, x, b) ⇒ ñ(a, x2, b)``,
      ax3's conjugate of ``α: a ⇒ a2`` and ``β: b ⇒ b2`` runs ``ñ(a, x, b)
      ⇒ ñ(a2, x, b2)``, and ax4's comparison runs ``ñ(a2, m, b2) ⇒ ñ(a∘a2,
      x, b2∘b)`` with ``m = ñ(a, x, b)``, by associativity of 1-cells.
    - On a locally thin input each of them is the one 2-cell of its
      boundary.  So a conjugate is null exactly when its boundary pair is in
      ``B``, and a comparison is null and invertible exactly when its pair is
      in ``G``.
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
    if reduced:
        yield from _by_boundary(t, n)
        return

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


def _by_boundary(t: TwoCategory,
                 n: TwoIdeal) -> Iterator[tuple[str, dict[str, str]]]:
    """ax2, ax3 and ax4 of the reduced sweep of :func:`_violations`: each
    tested cell's boundary pair must lie in ``B`` (ax2, ax3) or ``G`` (ax4).

    ax4 reads numbered rows: ``row(a1, y)`` lists ``ñ(a1, y, c)`` over ``c``
    in ``hom1(tgt y, None)``.  For the key ``(a, x, b)`` with target ``m``,
    the comparison at ``(a2, b2)`` pairs entry ``j`` of ``row(a2, m)``, where
    ``b2`` is entry ``j`` of ``hom1(tgt b, None)`` (``m`` ends where ``b``
    does), with the entry of ``row(a∘a2, x)`` at ``b2∘b``.  Over ``a2`` in
    ``hom1(None, src a)``, which is also ``m``'s, the first rows depend on
    ``m`` alone and the second on ``(a, x)``, numbered by content; the places
    of ``b2∘b`` depend on ``b`` alone.  So a key's verdict is decided once per
    ``(m, (a, x) number, b)``, and each pair of rows once per ``b``.
    """
    repl, comp1, src1, tgt1, src2, tgt2 = (
        n.replacement, t.comp1, t.src1, t.tgt1, t.src2, t.tgt2)
    pairs = {(src2[mu], tgt2[mu]) for mu in n.null_two_cells}
    for mu in n.null_two_cells:
        x, x2 = src2[mu], tgt2[mu]
        for a in t.hom1(None, src1[x]):
            for b in t.hom1(tgt1[x], None):
                if (repl[(a, x, b)][0], repl[(a, x2, b)][0]) not in pairs:
                    yield "ax2", {"mu": mu, "a": a, "b": b}

    for x in n.null_one_cells:
        betas = [c for b in t.hom1(tgt1[x], None) for c in t.hom2(b, None)]
        for a in t.hom1(None, src1[x]):
            for alpha in t.hom2(a, None):
                a2 = tgt2[alpha]
                for beta in betas:
                    if (repl[(a, x, src2[beta])][0],
                            repl[(a2, x, tgt2[beta])][0]) not in pairs:
                        yield "ax3", {"n": x, "alpha": alpha, "beta": beta}

    pairs = {(src2[mu], tgt2[mu]) for mu in n.null_two_cells
             if t.is_invertible2(mu)}
    row_ids: dict[tuple[str, ...], int] = {}
    row = {}
    for y in n.null_one_cells:
        post = t.hom1(tgt1[y], None)
        for a1 in t.hom1(None, src1[y]):
            row[(a1, y)] = row_ids.setdefault(
                tuple(repl[(a1, y, c)][0] for c in post), len(row_ids))
    rows = list(row_ids)
    # over a2: the rows of (a2, m) by m, and those of (a∘a2, x) by (a, x)
    down = {y: tuple(row[(a2, y)] for a2 in t.hom1(None, src1[y]))
            for y in n.null_one_cells}
    vector_ids: dict[tuple[int, ...], int] = {}
    across = {(a, y): vector_ids.setdefault(tuple(
        row[(comp1[(a, a2)], y)] for a2 in t.hom1(None, src1[a])),
        len(vector_ids))
        for y in n.null_one_cells for a in t.hom1(None, src1[y])}
    vectors = list(vector_ids)
    place = {o: {c: j for j, c in enumerate(t.hom1(o, None))}
             for o in t.objects}
    places = {b: tuple(place[src1[b]][comp1[(b2, b)]]
                       for b2 in t.hom1(tgt1[b], None)) for b in t.one_ids}
    checked, verdicts = {}, {}

    def holds(i: int, d: int, b: str) -> bool:
        ok = checked.get((i, d, b))
        if ok is None:
            ok = checked[(i, d, b)] = all(map(pairs.__contains__, zip(
                rows[i], map(rows[d].__getitem__, places[b]))))
        return ok

    for (a, x, b), (m, _) in repl.items():
        key = (m, across[(a, x)], b)
        ok = verdicts.get(key)
        if ok is None:
            ok = verdicts[key] = all(holds(i, d, b) for i, d in
                                     set(zip(down[m], vectors[key[1]])))
        if not ok:
            yield "ax4", {"a": a, "n": x, "b": b}


def validate_two_ideal(t: TwoCategory, n: TwoIdeal) -> Certificate:
    """Check the ideal axioms, citing the first violated clause.

    Clause order: null 2-cell boundaries, identity closure, vertical-composite
    closure, replacement boundaries/invertibility/nullity, identity
    normalization (ax1), conjugation-nullity for null 2-cells (ax2) and for
    whiskering 2-cells (ax3), and coherence of iterated replacement (ax4).

    On a locally thin lawful base an empty reduced sweep of
    :func:`_violations` decides "pass"; any other input, and any reduced
    violation, gets the full sweep, whose first item is cited.
    """
    check_ideal_shape(t, n)
    name = "validate_two_ideal"
    if not (t.locally_thin and _is_lawful(t)
            and next(_violations(t, n, reduced=True), None) is None):
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
    """Everything is null; replacements are identities on the composites.

    On a lawful base the result passes :func:`validate_two_ideal`, and so
    does its dual, which is this construction on the dual base: all cells
    are null, so the closure, nullity and conjugation clauses hold and null
    2-cells are closed under inverses; every replacement is an identity,
    so the replacement clauses hold, ax1 is the unit laws and ax4 compares
    identities over one 1-cell, by associativity."""
    repl = {
        (a, x, b): (t.cmp1(b, t.cmp1(x, a)), t.id2[t.cmp1(b, t.cmp1(x, a))])
        for x in t.one_ids
        for a in t.hom1(None, t.src1[x])
        for b in t.hom1(t.tgt1[x], None)
    }
    n = TwoIdeal(t.one_ids, t.two_ids, repl)
    object.__setattr__(n, "built_on", t)
    return n


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

    On a lawful base the result passes :func:`validate_two_ideal`, and its
    null 2-cells are invertible and closed under inverses.  Write ``0`` for
    the bizero object, and ``x = i∘t`` with ``t: A → 0`` and ``i: 0 → B``
    for a null ``x``.  Between two 1-cells into or out of ``0`` there is
    exactly one 2-cell, and it is invertible.  So the one 2-cell ``t ⇒ t``
    is ``id_t``, the inverse of the one 2-cell ``t₁ ⇒ t₂`` is the one
    2-cell ``t₂ ⇒ t₁``, and a whiskering of either is the one 2-cell of its
    boundary.  The generators are the ``v∘u`` (``t.hc(v, u)``) for ``u: t₁
    ⇒ t₂`` and ``v: i₁ ⇒ i₂``.

    - Whiskering: by the whisker laws, ``(v∘u)⋆a = v∘(u⋆a)`` and
      ``b⋆(v∘u) = (b⋆v)∘u``, which are generators.  Whiskering distributes
      over vertical composites, so null 2-cells whisker to null 2-cells.
    - Inverses: by interchange ``(v∘u)⁻¹ = v⁻¹∘u⁻¹``, a generator.  A
      vertical composite of generators has the reversed composite of their
      inverses as inverse.
    - null2-boundary: ``v∘u: i₁∘t₁ ⇒ i₂∘t₂`` runs between 1-cells that
      factor through ``0``, and a vertical composite keeps the outer ends.
    - closure-id2: ``id_x = id_i∘id_t`` is a generator.  closure-vcomp
      holds by construction.
    - repl-null, repl-boundary and repl-invertible: ``b∘x∘a = (b∘i)∘(t∘a)``
      factors through ``0`` (otherwise this raises), and ``ν`` is its
      identity.  ax1: the unit laws.
    - ax2: with identity ``ν`` the conjugate is ``b⋆μ⋆a``, a whiskering.
    - ax3: the conjugate is ``β∘id_x∘α = (β⋆i)∘(t⋆α)``, by interchange and
      the whisker laws.  It is a generator, as ``t⋆α`` lies in ``hom(A',
      0)`` and ``β⋆i`` in ``hom(0, B')``.
    - ax4: the comparison is a vertical composite of identities over one
      1-cell, by associativity.  So it is the identity of a null 1-cell.

    On the dual base the dual ideal is this construction again, up to the
    order of the null 2-cells, so the same holds there.  These are the
    conditions under which the kernel sweeps decide by equivalence (see
    :func:`~twoexact.limits.kernel_presentations_by_arrow`).
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

    gens = (t.hc(t.hom2(i1, i2)[0], t.hom2(t1, t2)[0])
            for a in t.objects for b in t.objects
            for t1 in t.hom1(a, zero) for t2 in t.hom1(a, zero)
            for i1 in t.hom1(zero, b) for i2 in t.hom1(zero, b))
    null2 = _vertical_closure(t, gens)

    nullset = set(nulls)
    repl = {}
    for x in nulls:
        for a in t.hom1(None, t.src1[x]):
            xa = t.cmp1(x, a)
            for b in t.hom1(t.tgt1[x], None):
                comp = t.cmp1(b, xa)
                if comp not in nullset:
                    raise InputError(
                        f"composite {comp} around null {x} does not factor "
                        f"through {zero}; {zero} is not bizero")
                repl[(a, x, b)] = (comp, t.id2[comp])
    n = TwoIdeal(tuple(nulls), null2, repl)
    object.__setattr__(n, "built_on", t)
    return n


def _vertical_closure(t: TwoCategory, cells: Iterable[str]) -> tuple[str, ...]:
    """``cells`` without repeats, then their vertical composites in rounds
    until a round adds none.  A round composes each ``b`` listed at its
    start after each listed ``a`` that ends where ``b`` begins, in list
    order, among the cells listed when ``b``'s turn comes; a new composite
    goes to the end of the list."""
    out = dict.fromkeys(cells)
    ending: dict[str, list[str]] = {}
    for c in out:
        ending.setdefault(t.tgt2[c], []).append(c)
    added = True
    while added:
        added = False
        for b in list(out):
            for a in tuple(ending.get(t.src2[b], ())):
                c = t.vcomp[(b, a)]
                if c not in out:
                    out[c] = None
                    ending.setdefault(t.tgt2[c], []).append(c)
                    added = True
    return tuple(out)


def null_objects(t: TwoCategory, n: TwoIdeal) -> tuple[tuple[str, str, str], ...]:
    """Triples ``(Z, ξ̂, ξ)``: an object whose identity is invertibly null,
    witnessed by a null endo-1-cell ``ξ̂`` and an invertible ``ξ: id_Z ⇒ ξ̂``."""
    return tuple((z, xhat, xi) for z in t.objects
                 for xhat in t.hom1(z, z) if xhat in n.null1
                 for xi in t.iso2(t.id1[z], xhat))
