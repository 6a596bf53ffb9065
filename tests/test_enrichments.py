"""The four hom-groupoid enrichments of ``gen`` against the builders they
replaced, kept below verbatim as the reference.

``gen`` builds ``locally_discrete``, ``chaotic_enrichment``, ``banded`` and
``thicken`` through one construction.  On eight generated categories each
enrichment must give the reference's tables, as dicts and, for every table
but the two whisker tables of ``locally_discrete`` (which the reference
listed by whiskering 1-cell first), in the reference's insertion order.
"""

import dataclasses

import pytest

from twoexact import (InputError, TwoCategory, banded, chaotic_enrichment,
                      cyclic_tower, locally_discrete, partial_bijections,
                      pointed_sets, terminal_category, thicken)
from twoexact.core import _violations
from twoexact.onecat import FiniteCategory


def _width(count: int) -> int:
    return max(1, len(str(max(count - 1, 0))))


def reference_locally_discrete(c: FiniteCategory) -> TwoCategory:
    """The 2-category with the same 1-dimensional data and only identity
    2-cells."""
    id2 = {f: f"id_{f}" for f in c.mor_ids}
    two_cells = tuple((id2[f], f, f) for f in c.mor_ids)
    vcomp = {(id2[f], id2[f]): id2[f] for f in c.mor_ids}
    lwhisker = {}
    rwhisker = {}
    for h in c.mor_ids:
        for f in c.mor_ids:
            if c.src[h] == c.tgt[f]:
                lwhisker[(h, id2[f])] = id2[c.comp[(h, f)]]
            if c.tgt[h] == c.src[f]:
                rwhisker[(id2[f], h)] = id2[c.comp[(f, h)]]
    return TwoCategory(
        objects=c.objects,
        one_cells=c.morphisms,
        comp1=dict(c.comp),
        id1=dict(c.ident),
        two_cells=two_cells,
        vcomp=vcomp,
        id2=id2,
        lwhisker=lwhisker,
        rwhisker=rwhisker,
    )


def reference_chaotic_enrichment(c: FiniteCategory) -> TwoCategory:
    """The 2-category with exactly one 2-cell between every ordered pair of
    parallel 1-cells (necessarily invertible); every 2-dimensional law holds
    by uniqueness."""
    w = _width(len(c.mor_ids))
    index = {f: i for i, f in enumerate(c.mor_ids)}
    cell: dict[tuple[str, str], str] = {}
    two_cells = []
    for f in c.mor_ids:
        for g in c.mor_ids:
            if c.src[f] == c.src[g] and c.tgt[f] == c.tgt[g]:
                cid = f"c{index[f]:0{w}d}x{index[g]:0{w}d}"
                cell[(f, g)] = cid
                two_cells.append((cid, f, g))
    vcomp = {}
    for (f, g), a in cell.items():
        for (g2, h), b in cell.items():
            if g2 == g:
                vcomp[(b, a)] = cell[(f, h)]
    lwhisker = {}
    rwhisker = {}
    for (f, g), a in cell.items():
        for h in c.mor_ids:
            if c.src[h] == c.tgt[f]:
                lwhisker[(h, a)] = cell[(c.comp[(h, f)], c.comp[(h, g)])]
            if c.tgt[h] == c.src[f]:
                rwhisker[(a, h)] = cell[(c.comp[(f, h)], c.comp[(g, h)])]
    return TwoCategory(
        objects=c.objects,
        one_cells=c.morphisms,
        comp1=dict(c.comp),
        id1=dict(c.ident),
        two_cells=tuple(two_cells),
        vcomp=vcomp,
        id2={f: cell[(f, f)] for f in c.mor_ids},
        lwhisker=lwhisker,
        rwhisker=rwhisker,
    )


def reference_banded(c: FiniteCategory, k: int) -> TwoCategory:
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
    cell = {(f, i): f"b{n:0{w}d}n{i:0{wk}d}"
            for n, f in enumerate(c.mor_ids) for i in range(k)}
    return TwoCategory(
        objects=c.objects,
        one_cells=c.morphisms,
        comp1=dict(c.comp),
        id1=dict(c.ident),
        two_cells=tuple((a, f, f) for (f, _), a in cell.items()),
        vcomp={(cell[(f, j)], a): cell[(f, (i + j) % k)]
               for (f, i), a in cell.items() for j in range(k)},
        id2={f: cell[(f, 0)] for f in c.mor_ids},
        lwhisker={(h, a): cell[(c.comp[(h, f)], i)]
                  for (f, i), a in cell.items() for h in c.mor_ids
                  if c.src[h] == c.tgt[f]},
        rwhisker={(a, e): cell[(c.comp[(f, e)], i)]
                  for (f, i), a in cell.items() for e in c.mor_ids
                  if c.tgt[e] == c.src[f]},
    )


def reference_thicken(c: FiniteCategory, k: int) -> TwoCategory:
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
    cell = {(f, i, j): f"{f}#{i}>{j}"
            for f in c.mor_ids for i in range(k) for j in range(k)}
    return TwoCategory(
        objects=c.objects,
        one_cells=tuple((x, c.src[f], c.tgt[f]) for (f, _), x in one.items()),
        comp1={(one[(g, j)], one[(f, i)]): one[(gf, (i + j) % k)]
               for (g, f), gf in c.comp.items()
               for i in range(k) for j in range(k)},
        id1={x: one[(e, 0)] for x, e in c.ident.items()},
        two_cells=tuple((a, one[(f, i)], one[(f, j)])
                        for (f, i, j), a in cell.items()),
        vcomp={(cell[(f, j, m)], a): cell[(f, i, m)]
               for (f, i, j), a in cell.items() for m in range(k)},
        id2={x: cell[(f, i, i)] for (f, i), x in one.items()},
        lwhisker={(one[(h, b)], a):
                  cell[(c.comp[(h, f)], (i + b) % k, (j + b) % k)]
                  for (f, i, j), a in cell.items() for h in c.mor_ids
                  if c.src[h] == c.tgt[f] for b in range(k)},
        rwhisker={(a, one[(e, b)]):
                  cell[(c.comp[(f, e)], (i + b) % k, (j + b) % k)]
                  for (f, i, j), a in cell.items() for e in c.mor_ids
                  if c.tgt[e] == c.src[f] for b in range(k)},
    )


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

CATEGORIES = {
    "term": terminal_category(),
    "pb1": partial_bijections(1),
    "pb2": partial_bijections(2),
    "pb3": partial_bijections(3),
    "ct22": cyclic_tower(2, 2),
    "ct33": cyclic_tower(3, 3),
    "ps2": pointed_sets(2),
    "ps3": pointed_sets(3),
}

#: Each enrichment, its reference, and the label or copy counts it runs with.
ENRICHMENTS = {
    "locally_discrete": (locally_discrete, reference_locally_discrete,
                         (None,)),
    "chaotic_enrichment": (chaotic_enrichment,
                           reference_chaotic_enrichment, (None,)),
    "banded": (banded, reference_banded, (1, 2, 3)),
    "thicken": (thicken, reference_thicken, (1, 2, 3)),
}

#: The tables whose insertion order may differ from the reference's:
#: ``locally_discrete``'s reference listed its whiskers by 1-cell first.
UNORDERED = {"locally_discrete": {"lwhisker", "rwhisker"}}

TABLES = [f.name for f in dataclasses.fields(TwoCategory) if f.init]

CASES = [(cat, enr, k) for cat in CATEGORIES
         for enr, (_, _, ks) in ENRICHMENTS.items() for k in ks]


def _build(builder, c, k):
    return builder(c) if k is None else builder(c, k)


@pytest.mark.parametrize(("cat", "enrichment", "k"), CASES)
def test_enrichments_match_the_reference(cat, enrichment, k):
    builder, reference, _ = ENRICHMENTS[enrichment]
    c = CATEGORIES[cat]
    got, want = _build(builder, c, k), _build(reference, c, k)
    for name in TABLES:
        g, w = getattr(got, name), getattr(want, name)
        assert g == w, name
        if name not in UNORDERED.get(enrichment, ()):
            assert list(g) == list(w), name


@pytest.mark.parametrize("cat", ["pb2", "ps2"])
@pytest.mark.parametrize(("enrichment", "k"), [
    ("chaotic_enrichment", None), ("banded", 2), ("banded", 3),
    ("thicken", 2), ("thicken", 3)])
def test_the_enrichments_break_no_law(cat, enrichment, k):
    t = _build(ENRICHMENTS[enrichment][0], CATEGORIES[cat], k)
    assert list(_violations(t)) == []


@pytest.mark.parametrize("builder", [banded, thicken])
def test_the_counted_enrichments_refuse_no_labels(builder):
    with pytest.raises(InputError):
        builder(CATEGORIES["pb1"], 0)
