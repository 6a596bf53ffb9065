"""Deterministic generators for test-scale categories and their enrichments,
plus single-fault mutation operators.

The four enrichments (locally discrete, chaotic, banded and thickened) are
one construction, ``_enrich``: ℤ/k-labelled 2-cells between the 1-cells of
one block of parallel 1-cells.  Each generator enumerates its cells in a
fixed order and names them with zero-padded indices, so generated
presentations are stable across runs and their serialized form is
byte-stable.  ``mutate`` produces well-formed structures that fail exactly
one targeted validator, searching candidate single-entry faults
deterministically from the seed until the target validator rejects.
"""
from __future__ import annotations

import itertools
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import (InputError, TwoCategory, is_equivalence,
                   validate_two_category)
from .factor import FactorizationSystem, validate_fs
from .ideal import TwoIdeal, validate_two_ideal
from .onecat import FiniteCategory
from .pseudo import (PseudoFunctor, PseudoNatural, validate_pseudofunctor,
                     validate_pseudonatural)


def _width(count: int) -> int:
    return max(1, len(str(max(count - 1, 0))))


# ---------------------------------------------------------------------------
# finite category builders
# ---------------------------------------------------------------------------

def terminal_category() -> FiniteCategory:
    """One object, its identity, nothing else."""
    return FiniteCategory(
        objects=("o0",),
        morphisms=(("m0_id", "o0", "o0"),),
        comp={("m0_id", "m0_id"): "m0_id"},
        ident={"o0": "m0_id"},
    )


def _family(size: int, hom: Callable[[int, int], Iterable[Any]],
            label: Callable[[Any], str], compose: Callable[[tuple, tuple], Any],
            identity: Callable[[int], Any]) -> FiniteCategory:
    """The category on objects ``o0, …, o<size>`` whose morphisms ``a → b``
    are the data ``hom(a, b)``.

    Morphisms are listed by source, then target, then ``hom`` order, and the
    one at index ``i`` is named ``m<i>_<a>to<b><label(datum)>``.
    ``compose(g, f)`` maps the ``(a, b, datum)`` triples of ``g`` and ``f``
    to the datum of ``g∘f``; ``identity(a)`` is the datum of ``id_o<a>``.
    """
    raw = [(a, b, d) for a in range(size + 1) for b in range(size + 1)
           for d in hom(a, b)]
    w = _width(len(raw))
    ids = {m: f"m{i:0{w}d}_{m[0]}to{m[1]}{label(m[2])}"
           for i, m in enumerate(raw)}
    into = {b: [m for m in raw if m[1] == b] for b in range(size + 1)}
    return FiniteCategory(
        objects=tuple(f"o{a}" for a in range(size + 1)),
        morphisms=tuple((ids[m], f"o{m[0]}", f"o{m[1]}") for m in raw),
        comp={(ids[g], ids[f]): ids[(f[0], g[1], compose(g, f))]
              for g in raw for f in into[g[0]]},
        ident={f"o{a}": ids[(a, a, identity(a))] for a in range(size + 1)})


def partial_bijections(n: int) -> FiniteCategory:
    """The category of cardinalities ``0..n`` with partial injections.

    A morphism ``a ⇀ b`` is an injective partial map ``{1..a} ⇀ {1..b}``,
    encoded by its graph; composition is relational.
    """
    if n < 0:
        raise InputError("size must be nonnegative")

    def hom(a: int, b: int) -> Iterator[tuple[tuple[int, int], ...]]:
        for mask in range(1 << a):
            dom = [i + 1 for i in range(a) if mask >> i & 1]
            for img in itertools.permutations(range(1, b + 1), len(dom)):
                yield tuple(zip(dom, img))

    def compose(g: tuple, f: tuple) -> tuple[tuple[int, int], ...]:
        g_map = dict(g[2])
        return tuple(sorted((i, g_map[j]) for i, j in f[2] if j in g_map))

    return _family(
        n, hom, lambda graph: "_" + ("".join(f"{i}{j}" for i, j in graph)
                                     or "e"),
        compose, lambda a: tuple((i, i) for i in range(1, a + 1)))


def cyclic_tower(p: int, k: int) -> FiniteCategory:
    """Cyclic groups of orders ``p^0, …, p^k`` with all group homomorphisms.

    A homomorphism ``Z/p^i → Z/p^j`` is multiplication by ``t`` where
    ``t·p^i ≡ 0 (mod p^j)``; composition multiplies the parameters.
    """
    if p < 2 or k < 0:
        raise InputError("need a base ≥ 2 and a nonnegative height")
    mods = [p ** i for i in range(k + 1)]
    return _family(
        k, lambda i, j: range(0, mods[j], p ** max(0, j - i)),
        lambda t: f"x{t}", lambda g, f: (g[2] * f[2]) % mods[g[1]],
        lambda i: 1 % mods[i])


def pointed_sets(n: int) -> FiniteCategory:
    """Skeletal pointed sets with up to ``n`` non-base points and all
    base-point-preserving maps."""
    if n < 0:
        raise InputError("size must be nonnegative")
    return _family(
        n, lambda a, b: itertools.product(range(b + 1), repeat=a),
        lambda phi: "_" + ("".join(str(v) for v in phi) or "e"),
        lambda g, f: tuple(0 if v == 0 else g[2][v - 1] for v in f[2]),
        lambda a: tuple(range(1, a + 1)))


# ---------------------------------------------------------------------------
# enrichments
# ---------------------------------------------------------------------------

def _enrich(objects: tuple, one_cells: tuple, comp1: dict, id1: dict,
            block: Callable[[str], Any], k: int,
            name: Callable[[str, str, int], str]) -> TwoCategory:
    """The 2-category on the given 1-dimensional data with one 2-cell
    ``(x, y, i): x ⇒ y``, named ``name(x, y, i)``, for 1-cells ``x``, ``y``
    of one block and ``i ∈ ℤ/k``, listed by ``x``, ``y`` (in 1-cell order)
    and ``i``.  Vertical composition adds labels, ``(y, z, j)·(x, y, i) =
    (x, z, i + j)``, with identity ``(x, x, 0)``; whiskering keeps them,
    ``h⋆(x, y, i) = (h∘x, h∘y, i)`` and ``(x, y, i)⋆e = (x∘e, y∘e, i)``,
    listed by cell, then by ``h`` or ``e`` in 1-cell order.

    The laws hold when the data is a category and the blocks are parallel
    and closed under composition on either side (``h∘x``, ``h∘y`` share a
    block when ``x``, ``y`` do, and so do ``x∘e``, ``y∘e``): every table is
    then total, ``(y, x, −i)`` inverts ``(x, y, i)``, whiskering is
    functorial as it keeps labels, and interchange holds because ``ℤ/k`` is
    abelian: both composites of ``(h, h′, j)`` and ``(x, y, i)`` are
    ``(h∘x, h′∘y, i + j)``.
    """
    ends = {x: (s, t) for x, s, t in one_cells}
    members: dict[Any, list[str]] = {}
    after: dict[str, list[str]] = {}
    before: dict[str, list[str]] = {}
    for x, s, t in one_cells:
        members.setdefault(block(x), []).append(x)
        after.setdefault(s, []).append(x)
        before.setdefault(t, []).append(x)
    peers = {x: members[block(x)] for x in ends}
    cell = {(x, y, i): name(x, y, i)
            for x in ends for y in peers[x] for i in range(k)}
    return TwoCategory(
        objects=objects, one_cells=one_cells, comp1=comp1, id1=id1,
        two_cells=tuple((a, x, y) for (x, y, _), a in cell.items()),
        vcomp={(cell[(y, z, j)], a): cell[(x, z, (i + j) % k)]
               for (x, y, i), a in cell.items()
               for z in peers[y] for j in range(k)},
        id2={x: cell[(x, x, 0)] for x in ends},
        lwhisker={(h, a): cell[(comp1[(h, x)], comp1[(h, y)], i)]
                  for (x, y, i), a in cell.items()
                  for h in after.get(ends[x][1], ())},
        rwhisker={(a, e): cell[(comp1[(x, e)], comp1[(y, e)], i)]
                  for (x, y, i), a in cell.items()
                  for e in before.get(ends[x][0], ())})


def locally_discrete(c: FiniteCategory) -> TwoCategory:
    """The 2-category with the same 1-dimensional data and only identity
    2-cells."""
    return _enrich(c.objects, c.morphisms, dict(c.comp), dict(c.ident),
                   lambda f: f, 1, lambda f, _g, _i: f"id_{f}")


def chaotic_enrichment(c: FiniteCategory) -> TwoCategory:
    """The 2-category with exactly one 2-cell between every ordered pair of
    parallel 1-cells (necessarily invertible); every 2-dimensional law holds
    by uniqueness."""
    w = _width(len(c.mor_ids))
    index = {f: i for i, f in enumerate(c.mor_ids)}
    return _enrich(c.objects, c.morphisms, dict(c.comp), dict(c.ident),
                   lambda f: (c.src[f], c.tgt[f]), 1,
                   lambda f, g, _: f"c{index[f]:0{w}d}x{index[g]:0{w}d}")


def banded(c: FiniteCategory, k: int) -> TwoCategory:
    """The 2-category whose 2-cells ``f ⇒ f`` on each 1-cell ``f`` are
    labelled by ``ℤ/k``: vertical composition adds labels, whiskering keeps
    them, and there are no 2-cells between distinct 1-cells.

    Every 2-cell is invertible and interchange holds because ``ℤ/k`` is
    abelian; for ``k ≥ 2`` the result is not locally thin.  Label 0 is the
    identity 2-cell.
    """
    if k < 1:
        raise InputError("need at least one label")
    w, wk = _width(len(c.mor_ids)), _width(k)
    index = {f: n for n, f in enumerate(c.mor_ids)}
    return _enrich(c.objects, c.morphisms, dict(c.comp), dict(c.ident),
                   lambda f: f, k,
                   lambda f, _, i: f"b{index[f]:0{w}d}n{i:0{wk}d}")


def thicken(c: FiniteCategory, k: int) -> TwoCategory:
    """The 2-category with ``k`` parallel copies ``f#0, …, f#<k-1>`` of
    each morphism ``f``: copies compose by adding indices mod ``k``
    (``g#j ∘ f#i = (g∘f)#<i+j>``), the copies ``#0`` of the identities are
    the identities, and between any two copies ``f#i``, ``f#j`` of one
    morphism there is exactly one 2-cell ``f#i>j``, which is invertible.

    Every law holds by uniqueness of 2-cells, and sending ``f#i`` to ``f``
    is a biequivalence onto ``locally_discrete(c)``: each hom-category is
    one indiscrete groupoid of ``k`` copies per morphism.  For ``k ≥ 2`` the
    copies ``id#i`` are equivalences that are not identities, so a 1-cell
    has kernels that are equivalent and not equal.
    """
    if k < 1:
        raise InputError("need at least one copy")
    one = {(f, i): f"{f}#{i}" for f in c.mor_ids for i in range(k)}
    return _enrich(
        c.objects,
        tuple((x, c.src[f], c.tgt[f]) for (f, _), x in one.items()),
        {(one[(g, j)], one[(f, i)]): one[(gf, (i + j) % k)]
         for (g, f), gf in c.comp.items() for i in range(k) for j in range(k)},
        {x: one[(e, 0)] for x, e in c.ident.items()},
        lambda x: x.rpartition("#")[0], 1,
        lambda x, y, _: f"{x}>{y.rpartition('#')[2]}")


# ---------------------------------------------------------------------------
# mutation operators
# ---------------------------------------------------------------------------

#: Each operator's entity, as the classes of its parts, in operator order.
_SHAPES: dict[str, tuple[type, ...]] = {
    "retarget-vcomp": (TwoCategory,),
    "drop-null-2cell": (TwoCategory, TwoIdeal),
    "break-compositor": (PseudoFunctor,),
    "drop-M-translate": (TwoCategory, FactorizationSystem),
    "swap-structure-cell": (PseudoNatural,),
    "remove-eta-inverse": (PseudoNatural,),
}

MUTATION_OPERATORS = tuple(_SHAPES)


def _alternatives(t: TwoCategory, val: str) -> list[str]:
    """Candidate replacement 2-cells for ``val``: parallel ones first, then
    the rest, in table order."""
    parallel = [c for c in t.hom2(t.src2[val], t.tgt2[val]) if c != val]
    rest = [c for c in t.two_ids if c != val and c not in parallel]
    return parallel + rest


def _retargets(obj: Any, field: str, alternatives: Callable[[str], list]):
    """Sites are the entries of the table ``obj.<field>``; the mutants at
    one send its key to each of ``alternatives(value)`` in turn."""
    table = getattr(obj, field)
    return list(table.items()), lambda site: (
        replace(obj, **{field: {**table, site[0]: alt}})
        for alt in alternatives(site[1]))


def _drops(obj: Any, field: str, sites: Sequence[str]):
    """The mutant at a site is ``obj`` without that member of its tuple
    ``obj.<field>``."""
    return sites, lambda drop: [replace(obj, **{field: tuple(
        x for x in getattr(obj, field) if x != drop)})]


def _plan(operator: str, entity: Any):
    """The sites of ``operator`` on ``entity``, the mutants it tries at one
    site, and the validator a mutant must fail, looked up by name on each
    call so that one patched on this module (as perfbench does) is used."""
    if operator == "retarget-vcomp":
        return (*_retargets(entity, "vcomp", partial(_alternatives, entity)),
                validate_two_category)
    if operator == "drop-null-2cell":
        t, ideal = entity
        return (*_drops(ideal, "null_two_cells", ideal.null_two_cells),
                partial(validate_two_ideal, t))
    if operator == "break-compositor":
        return (*_retargets(entity, "compositor",
                            partial(_alternatives, entity.target)),
                validate_pseudofunctor)
    if operator == "drop-M-translate":
        t, fs = entity
        rights = {v[1] for v in fs.factorization.values()}
        return (*_drops(fs, "right_class",
                        [m for m in fs.right_class if m in rights]),
                partial(validate_fs, t))
    target = entity.source_functor.target
    if operator == "swap-structure-cell":
        return (*_retargets(entity, "structure",
                            partial(_alternatives, target)),
                validate_pseudonatural)
    # remove-eta-inverse: replace a component 1-cell by a parallel
    # non-equivalence, so the equivalence-components requirement fails
    return (*_retargets(entity, "component", lambda val: [
        f for f in target.hom1(target.src1[val], target.tgt1[val])
        if f != val and not is_equivalence(target, f).ok]),
        partial(validate_pseudonatural, require_equivalences=True))


def mutate(entity: Any, operator: str, seed: int) -> Any:
    """Apply a deterministic single-fault mutation.

    The candidate fault site starts at ``seed`` (modulo the site count) and
    advances until the mutated structure is rejected by the operator's target
    validator, so the result is guaranteed to be well-formed and to fail that
    validator.  Raises :class:`InputError` when no eligible site exists.

    Expected entity per operator: ``retarget-vcomp`` a two-category;
    ``drop-null-2cell`` a ``(two-category, ideal)`` pair; ``break-compositor``
    a pseudofunctor; ``drop-M-translate`` a ``(two-category, factorization
    system)`` pair; ``swap-structure-cell`` and ``remove-eta-inverse`` a
    pseudonatural transformation.
    """
    if operator not in _SHAPES:
        raise InputError(f"unknown mutation operator {operator}")
    if seed < 0:
        raise InputError("seed must be nonnegative")
    shape = _SHAPES[operator]
    given = entity if len(shape) > 1 else (entity,)
    if (not isinstance(given, tuple) or len(given) != len(shape)
            or any(not isinstance(part, want)
                   for part, want in zip(given, shape))):
        wanted = " + ".join(w.__name__ for w in shape)
        raise InputError(f"{operator} mutates a {wanted}, "
                         f"got {type(entity).__name__}")

    sites, mutants, validator = _plan(operator, entity)
    for off in range(len(sites)):
        for mutant in mutants(sites[(seed + off) % len(sites)]):
            if not validator(mutant).ok:
                return mutant
    raise InputError(f"no eligible site for {operator}")
