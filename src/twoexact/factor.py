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

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (Budget, Certificate, InputError, TwoCategory, _Computed,
                   _capped, _fail, _memo, _record_lawful, equivalences,
                   is_cofaithful, is_equivalence, is_faithful,
                   validate_two_category)
from .closure import _sweeps
from .ideal import TwoIdeal
from .limits import KernelPresentation


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


def _equivalence_escapes(t: TwoCategory, sides) -> Iterator[tuple[str, ...]]:
    """Every ``(side, member, equivalence, composite, position)`` where a
    member composed with an equivalence before it (``"pre"``) or after it
    (``"post"``) leaves its class; ``sides`` holds ``(side, class,
    positions)``."""
    eqs = equivalences(t)
    for side, cls, positions in sides:
        members = set(cls)
        for c in cls:
            for i in eqs:
                for position in positions:
                    g, f = (c, i) if position == "pre" else (i, c)
                    if t.src1[g] == t.tgt1[f] and t.cmp1(g, f) not in members:
                        yield side, c, i, t.cmp1(g, f), position


def _iso_escapes(t: TwoCategory, sides) -> Iterator[tuple[str, ...]]:
    """Every ``(side, member, other, iso)``: a parallel 1-cell outside the
    class with an invertible 2-cell from a member; ``sides`` holds ``(side,
    class)`` pairs."""
    for side, cls in sides:
        members = set(cls)
        for c in cls:
            for g in t.hom1(t.src1[c], t.tgt1[c]):
                if g not in members and t.iso2(c, g):
                    yield side, c, g, t.iso2(c, g)[0]


def _lifting_failure(t: TwoCategory, e: str, m: str, budget: Budget,
                     needs_fill) -> tuple[str, dict] | None:
    """The first failure of 1- and 2-dimensional diagonal lifting of ``e``
    against ``m`` as ``(clause, cells)``, or ``None``: a square ``(u, v, φ)``
    that ``needs_fill`` but has no fill-in (``fill-in``), or two fill-ins
    joined by no connector or by several (``two-dim-existence`` /
    ``-uniqueness``, citing two ``connectors``)."""
    instances = []
    for u, v, phi in squares_between(t, e, m):
        budget.tick()
        fills = fill_ins(t, e, m, u, v, phi)
        if needs_fill((u, v, phi)) and not fills:
            return "fill-in", dict(left=e, right=m, u=u, v=v, phi=phi)
        if fills:
            instances.append(((u, v, phi), fills))
    for (sq, fills), (sq2, fills2) in itertools.product(instances, repeat=2):
        for sigma_c, tau_c in square_two_cells(t, e, m, sq, sq2):
            for (d, sigma, rho), (d2, sigma2, rho2) in \
                    itertools.product(fills, fills2):
                budget.tick()
                sols = [lam for lam in t.hom2(d, d2)
                        if t.vc(t.rw(lam, e), sigma) == t.vc(sigma2, sigma_c)
                        and t.vc(rho2, t.lw(m, lam)) == t.vc(tau_c, rho)]
                if len(sols) == 1:
                    continue
                cells = {"left": e, "right": m, "square": list(sq),
                         "square2": list(sq2), "sigma": sigma_c,
                         "tau": tau_c, "fill_in": [d, sigma, rho],
                         "fill_in2": [d2, sigma2, rho2]}
                if not sols:
                    return "two-dim-existence", cells
                return "two-dim-uniqueness", {**cells,
                                              "connectors": sols[:2]}
    return None


def validate_fs(t: TwoCategory, fs: FactorizationSystem,
                cap: int | Budget | None = None) -> Certificate:
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
    return _capped("validate_fs", cap, _validate_fs, t, fs)


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

    # closure of both classes under composition with equivalences (both
    # sides), then stability under invertible 2-cells; the first escape fails
    both = ("pre", "post")
    for side, c, i, composite, position in _equivalence_escapes(
            t, (("left", left, both), ("right", right, both))):
        return _fail("validate_fs", "class-equivalence-closure", side=side,
                     member=c, equivalence=i, composite=composite,
                     position=position)
    for side, c, g, iso in _iso_escapes(t, (("left", left),
                                            ("right", right))):
        return _fail("validate_fs", "class-iso-stability", side=side,
                     member=c, other=g, iso=iso)

    # 1- and 2-dimensional diagonal lifting; every square needs a fill-in
    squares_checked = 0

    def needs_fill(_sq) -> bool:
        nonlocal squares_checked
        squares_checked += 1
        return True

    for e in left:
        for m in right:
            failure = _lifting_failure(t, e, m, budget, needs_fill)
            if failure is not None:
                return _fail("validate_fs", "orthogonality-" + failure[0],
                             **failure[1])

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
    for cls, check, clause in (
            (fs.left_class, is_cofaithful, "left-not-cofaithful"),
            (fs.right_class, is_faithful, "right-not-faithful")):
        for c in _ordered_unique(cls):
            cert = check(t, c)
            if not cert.ok:
                return _fail("is_proper_11", clause, member=c,
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
    componentwise.  The base must pass :func:`validate_two_category` (a
    read of its cached law verdict); a lawless one raises
    :class:`InputError` naming the first broken clause, and keeps nothing.
    So every composite, identity and whisker of declared squares and pairs
    is declared and looked up by its components: ``comp1``, ``vcomp``,
    ``lwhisker`` and ``rwhisker`` store no entry, and compute each one from
    the base's tables when it is read.  Built once per base and member
    list and kept on the base, like :attr:`TwoCategory.dual`.

    The result is lawful and records so as its law verdict: its 2-cell laws
    are base laws read componentwise, and its 1-cell laws equate fillers
    that the base's whisker laws paste equal (associativity needs
    ``lwhisker-rwhisker``: ``b₃⋆(φ₂⋆a₁) = (b₃⋆φ₂)⋆a₁``).
    """
    return _checked_arrow_subcat(t, _ordered_unique(members))


@_memo
def _checked_arrow_subcat(t: TwoCategory,
                          mem: tuple[str, ...]) -> ArrowTwoCategory:
    for f in mem:
        if f not in t.src1:
            raise InputError(f"unknown 1-cell {f}")
    for i in itertools.chain(t.objects, t.one_ids, t.two_ids):
        if "|" in i:
            raise InputError(
                f"cell id {i!r} contains '|'; square encoding needs ids "
                f"without it")
    broken = validate_two_category(t).counterexample
    if broken:
        raise InputError(f"the base breaks a 2-category law: {broken['clause']}")
    arrow = _arrow_subcat(t, mem)
    _record_lawful(arrow.cat)
    return arrow


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

    # squares compose by pasting their fillers, and 2-cells compose and
    # whisker componentwise, each read straight off the base's tables: the
    # base is lawful, so every lookup of a key in a table hits.  A key
    # outside a table fails a boundary test or a lookup with KeyError
    base_comp1, base_vcomp = t.comp1, t.vcomp
    base_lw, base_rw = t.lwhisker, t.rwhisker

    def comp1(key: tuple[str, str]) -> str:
        sid2, sid1 = key
        (f, g), (g2, h) = ends[sid1], ends[sid2]
        if g != g2:
            raise KeyError(key)
        (a2, b2, phi2), (a1, b1, phi1) = sq_of[sid2], sq_of[sid1]
        psi = base_vcomp[(base_lw[(b2, phi1)], base_rw[(phi2, a1)])]
        return square_ids[(f, h, base_comp1[(a2, a1)], base_comp1[(b2, b1)],
                           psi)]

    def vcomp(key: tuple[str, str]) -> str:
        tid2, tid1 = key
        if src2[tid2] != tgt2[tid1]:
            raise KeyError(key)
        (s2, t2_), (s1, t1_) = pair_of[tid2], pair_of[tid1]
        return pair_ids[(src2[tid1], tgt2[tid2], t.vc(s2, s1),
                         t.vc(t2_, t1_))]

    def lwhisker(key: tuple[str, str]) -> str:
        sid, tid = key
        (a2, b2, _), (sigma, tau) = sq_of[sid], pair_of[tid]
        return pair_ids[(comp1((sid, src2[tid])), comp1((sid, tgt2[tid])),
                         t.lw(a2, sigma), t.lw(b2, tau))]

    def rwhisker(key: tuple[str, str]) -> str:
        tid, sid = key
        (a2, b2, _), (sigma, tau) = sq_of[sid], pair_of[tid]
        return pair_ids[(comp1((src2[tid], sid)), comp1((tgt2[tid], sid)),
                         t.rw(sigma, a2), t.rw(tau, b2))]

    cat = TwoCategory(
        objects=mem,
        one_cells=tuple(one_cells),
        # a square g → h composes after each square into g
        comp1=_Computed(lambda: ((sid2, sid1) for sid2 in sq_of
                                 for sid1 in into[ends[sid2][0]]), comp1),
        id1=id1,
        two_cells=tuple(two_cells),
        vcomp=_Computed(lambda: ((b, a) for b in pair_of
                                 for a in into2[src2[b]]), vcomp),
        id2=id2,
        # a 2-cell between squares f → g whiskers on the left by a square
        # out of g, and on the right by a square into f
        lwhisker=_Computed(lambda: ((sid, tid) for tid in pair_of
                                    for sid in out_of[ends[src2[tid]][1]]),
                           lwhisker),
        rwhisker=_Computed(lambda: ((tid, sid) for tid in pair_of
                                    for sid in into[ends[src2[tid]][0]]),
                           rwhisker),
    )
    return ArrowTwoCategory(
        cat=cat, base=t, members=mem, squares=sq_of, pairs=pair_of,
        square_ids=square_ids, pair_ids=pair_ids)


# ---------------------------------------------------------------------------
# weak 2-(op)fibration checks for the two projections
# ---------------------------------------------------------------------------

def check_weak_two_fibration(t: TwoCategory, fs: FactorizationSystem,
                             direction: str,
                             cap: int | Budget | None = None) -> Certificate:
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
    dual with the two classes swapped.  A chosen factorization of ``f∘m``
    whose right part lies outside the class fails the check under
    ``factorization-right-class``, and one whose cell ``theta`` is not
    invertible under ``factorization-invertible``, as they fail
    :func:`validate_fs`.
    """
    if direction not in ("dom", "cod"):
        raise InputError(f"direction must be 'dom' or 'cod', got {direction!r}")
    check_fs_shape(t, fs)
    if direction == "dom":
        t, fs = t.dual, FactorizationSystem(
            fs.right_class, fs.left_class,
            {f: (r, l, th) for f, (l, r, th) in fs.factorization.items()})
    cert = _capped("check_weak_two_fibration", cap, _cod_fibration, t, fs,
                   direction)
    if direction == "cod":
        return cert
    detail = ({**cert.detail, "direction": "dom"} if cert.detail else
              "checked on the formal dual; cited cells read in the dual "
              "orientation")
    return replace(cert, detail=detail)


def _cod_fibration(t: TwoCategory, fs: FactorizationSystem, direction: str,
                   budget: Budget) -> Certificate:
    """The codomain-projection check of :func:`check_weak_two_fibration`,
    citing ``direction`` in its cells and witness."""
    right = _ordered_unique(fs.right_class)
    right_set = set(right)
    liftings: dict[str, list[str]] = {}

    for m in right:
        for f in t.hom1(t.tgt1[m], None):
            fm = t.cmp1(f, m)
            l, r, theta = fs.factorization[fm]
            if r not in right_set:
                return _fail("check_weak_two_fibration",
                             "factorization-right-class", direction=direction,
                             member=m, extension=f, one_cell=fm, right=r)
            inv_theta = t.inverse2.get(theta)
            if inv_theta is None:
                return _fail("check_weak_two_fibration",
                             "factorization-invertible", direction=direction,
                             member=m, extension=f, one_cell=fm, theta=theta)
            liftings[f"{m}:{f}"] = [l, f, inv_theta]

            for n2 in right:
                instances = []
                for z, h, phi1 in squares_between(t, m, n2):
                    for g in t.hom1(t.tgt1[f], t.tgt1[n2]):
                        for xi in t.iso2(h, t.cmp1(g, f)):
                            budget.tick()
                            rhs = t.vc(t.rw(xi, m), phi1)
                            fills = []
                            for d in t.hom1(t.tgt1[l], t.src1[n2]):
                                for beta in t.iso2(t.cmp1(n2, d),
                                                   t.cmp1(g, r)):
                                    part = t.vc(t.lw(g, inv_theta),
                                                t.rw(beta, l))
                                    for alpha in t.iso2(z, t.cmp1(d, l)):
                                        if t.vc(part, t.lw(n2, alpha)) == rhs:
                                            fills.append((d, beta, alpha))
                            if not fills:
                                return _fail(
                                    "check_weak_two_fibration",
                                    "cocartesian-one-dim",
                                    direction=direction, member=m, extension=f,
                                    target=n2, z=z, h=h, phi=phi1, g=g, xi=xi)
                            instances.append((z, h, phi1, g, xi, fills))

                for (z, h, phi1, g, xi, fills), \
                        (z2, h2, phi12, g2, xi2, fills2) in \
                        itertools.product(instances, repeat=2):
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
                                    clause = "cocartesian-two-dim-" + (
                                        "uniqueness" if sols else "existence")
                                    return _fail(
                                        "check_weak_two_fibration", clause,
                                        direction=direction, member=m,
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
                                "local-isofibration", direction=direction,
                                member=m, target=m2, a=a, b=b, phi=phi,
                                b2=b2, beta=beta)

    return Certificate("check_weak_two_fibration", "pass",
                       {"direction": direction, "liftings": liftings})


# ---------------------------------------------------------------------------
# relatively orthogonal cokernel-kernel factorization systems
# ---------------------------------------------------------------------------

def _needs_rofs_fill(t: TwoCategory, n: TwoIdeal,
                     kernels: list[KernelPresentation],
                     cokernels: list[KernelPresentation],
                     sq: tuple[str, str, str]) -> bool:
    """Whether the square ``(s, t, φ): e → m`` needs a fill-in: some
    compatibility pasting of it against a kernel presentation with leg
    ``m`` and a cokernel presentation with leg ``e`` (a kernel presentation
    of the duals) is an invertible null 2-cell."""
    s, t_, phi = sq
    for p_m, p_e in itertools.product(kernels, cokernels):
        f, g = p_m.arrow, p_e.arrow
        ft, sg = t.cmp1(f, t_), t.cmp1(s, g)
        _, nu1 = n.repl(t.id1[t.src1[g]], p_e.null_cell, ft)
        _, nu2 = n.repl(sg, p_m.null_cell, t.id1[t.tgt1[f]])
        if n.is_invertible_null2(t, t.vc_chain(
                nu1, t.lw(ft, p_e.structure), t.lw(f, t.rw(phi, g)),
                t.rw(t.inv(p_m.structure), sg), t.inv(nu2))):
            return True
    return False


def validate_rofs(t: TwoCategory, n: TwoIdeal,
                  left_class: Iterable[str], right_class: Iterable[str],
                  cap: int | Budget | None = None) -> Certificate:
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
    return _capped("validate_rofs", cap, _validate_rofs, t, n, left, right)


def _validate_rofs(t: TwoCategory, n: TwoIdeal, left: tuple[str, ...],
                   right: tuple[str, ...], budget: Budget) -> Certificate:
    # verified presentations by side and leg; the cokernel side holds the
    # kernel presentations of the duals
    by_leg: dict[str, dict[str, list[KernelPresentation]]] = {}
    for kind, _, _, by_arrow in _sweeps(t, n, budget):
        legs = by_leg[kind] = {}
        for p in itertools.chain.from_iterable(by_arrow.values()):
            legs.setdefault(p.leg, []).append(p)
    for side, cls, kind in (("right", right, "kernel"),
                            ("left", left, "cokernel")):
        for c in cls:
            if c not in by_leg[kind]:
                return _fail("validate_rofs", f"{side}-class-not-{kind}-leg",
                             member=c)

    for f in t.one_ids:
        if next(factorizations(t, f, left, right), None) is None:
            return _fail("validate_rofs", "factorization", one_cell=f)

    for side, c, i, composite, position in _equivalence_escapes(
            t, (("right", right, ("pre",)), ("left", left, ("post",)))):
        return _fail("validate_rofs",
                     f"{side}-{position}composition-equivalence", member=c,
                     equivalence=i, composite=composite)
    for side, c, g, iso in _iso_escapes(t, (("left", left),
                                            ("right", right))):
        return _fail("validate_rofs", f"{side}-iso-stability", member=c,
                     other=g, iso=iso)

    for e in left:
        for m in right:
            needs_fill = functools.partial(_needs_rofs_fill, t, n,
                                           by_leg["kernel"][m],
                                           by_leg["cokernel"][e])
            failure = _lifting_failure(t, e, m, budget, needs_fill)
            if failure is not None:
                clause, cells = failure
                cells.pop("connectors", None)
                return _fail("validate_rofs", clause, **cells)

    return Certificate("validate_rofs", "pass",
                       {"left-class": len(left), "right-class": len(right)})
