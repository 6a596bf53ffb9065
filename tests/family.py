"""Shared fixture family for the test suite.

Everything is built once at import time from the deterministic generators,
so frozen literals in the tests refer to stable cell names.  The family
deliberately spans the interesting regimes: a one-object chaotic-free
terminal case, locally discrete enrichments of four 1-categories with
different exactness behavior, and one chaotic enrichment where hom-sets
are genuinely 2-dimensional.
"""

from twoexact import (
    FiniteCategory,
    TwoCategory,
    TwoIdeal,
    banded,
    canonical_zero_ideal,
    chaotic_enrichment,
    cyclic_tower,
    locally_discrete,
    partial_bijections,
    pointed_sets,
    terminal_category,
    thicken,
)

TERM = terminal_category()
PB1 = partial_bijections(1)
PB2 = partial_bijections(2)
PB3 = partial_bijections(3)
CT22 = cyclic_tower(2, 2)
PS2 = pointed_sets(2)

LD_TERM = locally_discrete(TERM)
LD_PB1 = locally_discrete(PB1)
LD_PB2 = locally_discrete(PB2)
LD_PB3 = locally_discrete(PB3)
LD_CT22 = locally_discrete(CT22)
LD_PS2 = locally_discrete(PS2)
CH_PB1 = chaotic_enrichment(PB1)

#: The six fixtures every semantic check runs over (pb3 is reserved for
#: structural validation and format tests, where its size stays cheap).
CORE: dict[str, TwoCategory] = {
    "ld_term": LD_TERM,
    "ld_pb1": LD_PB1,
    "ld_pb2": LD_PB2,
    "ld_ct22": LD_CT22,
    "ld_ps2": LD_PS2,
    "ch_pb1": CH_PB1,
}

CORE_NAMES = tuple(CORE)

#: Underlying 1-categories of the locally discrete members, for oracle
#: cross-validation.
UNDERLYING: dict[str, FiniteCategory] = {
    "ld_term": TERM,
    "ld_pb1": PB1,
    "ld_pb2": PB2,
    "ld_ct22": CT22,
    "ld_ps2": PS2,
    "ch_pb1": PB1,
}

ZERO_IDEALS: dict[str, TwoIdeal] = {
    name: canonical_zero_ideal(t) for name, t in CORE.items()
}

#: The banded family: 2-cells ``f ⇒ f`` labelled by ``ℤ/k``, not locally
#: thin, so the full 2-cell law code keeps real inputs.
BANDED: dict[str, TwoCategory] = {
    f"bd{k}_{name}": banded(c, k)
    for name, c in (("term", TERM), ("pb1", PB1), ("pb2", PB2),
                    ("ct22", CT22), ("ps2", PS2))
    for k in (2, 3)
}


#: The thickened family: ``k`` copies of each morphism with one invertible
#: 2-cell between any two copies of one morphism.  Locally thin and lawful,
#: biequivalent to the locally discrete enrichment of its 1-category (kept
#: alongside for the oracle), with kernels equivalent and not equal.
THICK: dict[str, tuple[TwoCategory, FiniteCategory]] = {
    f"th{k}_{name}": (thicken(c, k), c)
    for name, c in (("pb1", PB1), ("pb2", PB2), ("ct22", CT22), ("ps2", PS2))
    for k in (2, 3)
}


def full_sub(t: TwoCategory, objects: frozenset[str]) -> TwoCategory:
    """Full sub-2-category on a subset of objects: keep exactly the cells
    whose 0-cell boundaries lie in the subset and restrict every table."""
    ones = tuple(c for c in t.one_cells if c[1] in objects and c[2] in objects)
    one_ids = {c[0] for c in ones}
    twos = tuple(c for c in t.two_cells
                 if t.src1[c[1]] in objects and t.tgt1[c[1]] in objects)
    two_ids = {c[0] for c in twos}
    return TwoCategory(
        objects=tuple(o for o in t.objects if o in objects),
        one_cells=ones,
        comp1={k: v for k, v in t.comp1.items() if k[0] in one_ids and k[1] in one_ids},
        id1={o: f for o, f in t.id1.items() if o in objects},
        two_cells=twos,
        vcomp={k: v for k, v in t.vcomp.items() if k[0] in two_ids and k[1] in two_ids},
        id2={f: a for f, a in t.id2.items() if f in one_ids},
        lwhisker={k: v for k, v in t.lwhisker.items()
                  if k[0] in one_ids and k[1] in two_ids},
        rwhisker={k: v for k, v in t.rwhisker.items()
                  if k[0] in two_ids and k[1] in one_ids},
    )


#: ld(pb2) without its zero object: still a strict 2-category, but with no
#: bizero object and (for the nowhere-defined-map ideal) missing kernels.
NO_ZERO = full_sub(LD_PB2, frozenset({"o1", "o2"}))

#: The nowhere-defined partial bijections of NO_ZERO still absorb
#: composition, so they form a 2-ideal even though no null object remains.
_PB2_ZERO = ZERO_IDEALS["ld_pb2"]
NO_ZERO_IDEAL = TwoIdeal(
    null_one_cells=tuple(f for f in NO_ZERO.one_ids if f in _PB2_ZERO.null1),
    null_two_cells=tuple(a for a in NO_ZERO.two_ids if a in _PB2_ZERO.null2),
    replacement={k: v for k, v in _PB2_ZERO.replacement.items()
                 if k[0] in NO_ZERO.src1 and k[1] in NO_ZERO.src1
                 and k[2] in NO_ZERO.src1},
)


def epi_mono_fs():
    """The image factorization system on the cyclic tower: surjective
    homomorphisms followed by injective ones."""
    from twoexact import FactorizationSystem, natural_key

    c, t = CT22, LD_CT22

    def cancels_left(m):
        return all(c.comp[(m, a)] != c.comp[(m, b)]
                   for a in c.mor_ids for b in c.mor_ids
                   if a != b and (m, a) in c.comp and (m, b) in c.comp)

    def cancels_right(m):
        return all(c.comp[(a, m)] != c.comp[(b, m)]
                   for a in c.mor_ids for b in c.mor_ids
                   if a != b and (a, m) in c.comp and (b, m) in c.comp)

    epis = tuple(sorted((m for m in c.mor_ids if cancels_right(m)),
                        key=natural_key))
    monos = tuple(sorted((m for m in c.mor_ids if cancels_left(m)),
                         key=natural_key))
    fact = {}
    for f, s, tgt in c.morphisms:
        for e, es, et in c.morphisms:
            if e not in epis or es != s:
                continue
            for m, ms, mt in c.morphisms:
                if m in monos and ms == et and mt == tgt \
                        and c.comp[(m, e)] == f:
                    fact[f] = (e, m, t.id2[f])
                    break
            if f in fact:
                break
    return t, FactorizationSystem(epis, monos, fact)


def one_object_base(**entries: str) -> TwoCategory:
    """One object ``o``; 1-cells ``i`` (the identity) and ``z`` with ``z∘z =
    z``; 2-cells ``ii``, ``iz`` (the identities) and ``t: z ⇒ z``.

    ``entries`` overrides the vertical composites of ``z``'s 2-cells
    (``v_iziz``, ``v_izt``, ``v_tiz``, ``v_tt``) and the whiskers by ``z``
    (``lw_ii``, ``lw_iz``, ``lw_t`` for ``z⋆a``; ``rw_ii``, ``rw_iz``,
    ``rw_t`` for ``a⋆z``), each ``"iz"`` or ``"t"``.  Every table lookup
    is defined whatever they are, though most choices break a law.  The
    defaults give a lawful base in which ``t`` is invertible and
    self-inverse."""
    e = dict(v_iziz="iz", v_izt="t", v_tiz="t", v_tt="iz", lw_ii="iz",
             lw_iz="iz", lw_t="t", rw_ii="iz", rw_iz="iz", rw_t="t")
    unknown = set(entries) - set(e)
    if unknown:
        raise TypeError(f"unknown table entries {sorted(unknown)}")
    e.update(entries)
    return TwoCategory(
        objects=("o",),
        one_cells=(("i", "o", "o"), ("z", "o", "o")),
        comp1={("i", "i"): "i", ("i", "z"): "z", ("z", "i"): "z",
               ("z", "z"): "z"},
        id1={"o": "i"},
        two_cells=(("ii", "i", "i"), ("iz", "z", "z"), ("t", "z", "z")),
        vcomp={("ii", "ii"): "ii", ("iz", "iz"): e["v_iziz"],
               ("iz", "t"): e["v_izt"], ("t", "iz"): e["v_tiz"],
               ("t", "t"): e["v_tt"]},
        id2={"i": "ii", "z": "iz"},
        lwhisker={("i", "ii"): "ii", ("i", "iz"): "iz", ("i", "t"): "t",
                  ("z", "ii"): e["lw_ii"], ("z", "iz"): e["lw_iz"],
                  ("z", "t"): e["lw_t"]},
        rwhisker={("ii", "i"): "ii", ("iz", "i"): "iz", ("t", "i"): "t",
                  ("ii", "z"): e["rw_ii"], ("iz", "z"): e["rw_iz"],
                  ("t", "z"): e["rw_t"]},
    )


def twisted_whisker_base() -> TwoCategory:
    """One object ``o``; 1-cells ``i`` (the identity) and ``z`` with ``z∘z =
    z``; over each 1-cell ``f`` the 2-cells ``f ⇒ f`` labelled by ``(ℤ/2)²``
    (``f00`` the identity), composing by adding labels.  Whiskering by ``z``
    applies ``P(x, y) = (x, 0)`` on the left and ``Q(x, y) = (x + y, 0)``
    on the right.  Every clause but ``lwhisker-rwhisker`` holds: ``P`` and
    ``Q`` are idempotent and additive, and interchange holds as the labels
    commute, but ``PQ ≠ QP``, so ``z⋆(a⋆z) ≠ (z⋆a)⋆z``."""
    act = {"i": (lambda v: v, lambda v: v),
           "z": (lambda v: (v[0], 0), lambda v: ((v[0] + v[1]) % 2, 0))}
    comp = {("i", "i"): "i", ("i", "z"): "z", ("z", "i"): "z",
            ("z", "z"): "z"}
    labels = [(x, y) for x in (0, 1) for y in (0, 1)]

    def cell(f, v):
        return f"{f}{v[0]}{v[1]}"

    return TwoCategory(
        objects=("o",),
        one_cells=(("i", "o", "o"), ("z", "o", "o")),
        comp1=comp,
        id1={"o": "i"},
        two_cells=tuple((cell(f, v), f, f) for f in "iz" for v in labels),
        vcomp={(cell(f, v), cell(f, w)):
               cell(f, ((v[0] + w[0]) % 2, (v[1] + w[1]) % 2))
               for f in "iz" for v in labels for w in labels},
        id2={f: cell(f, (0, 0)) for f in "iz"},
        lwhisker={(h, cell(f, v)): cell(comp[(h, f)], act[h][0](v))
                  for h in "iz" for f in "iz" for v in labels},
        rwhisker={(cell(f, v), e): cell(comp[(f, e)], act[e][1](v))
                  for e in "iz" for f in "iz" for v in labels},
    )


def null_z_ideal(null2: tuple[str, ...], nu: dict[str, str]) -> TwoIdeal:
    """An ideal on a one-object base: ``z`` the only null 1-cell, the null
    2-cells ``null2``, and ``b∘z∘a`` replaced by ``(z, nu[a + b])``."""
    return TwoIdeal(("z",), null2, {(a, "z", b): ("z", nu[a + b])
                                    for a in "iz" for b in "iz"})
