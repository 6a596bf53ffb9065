"""Reduced law sweeps against the full sweeps they stand in for.

On a locally thin input, ``validate_two_category`` and
``validate_pseudofunctor`` decide "pass" from the boundary clauses and the
1-cell laws alone, with 1-cell associativity checked on a generating set,
and ``validate_pseudonatural`` skips its two clauses that compare parallel
2-cells. Every other input, and every reduced violation, goes to the full
sweep. These tests hold the validators to the certificate the full sweep
gives.
"""

import dataclasses
import itertools
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from family import (BANDED, CH_PB1, CORE, CT22, LD_PB2, LD_PB3, NO_ZERO, PB1,
                    PB2, ZERO_IDEALS, one_object_base)
from twoexact import (
    Certificate,
    InputError,
    PseudoFunctor,
    PseudoNatural,
    banded,
    canonical_zero_ideal,
    check_puppe,
    cyclic_tower,
    fs_from_ideal,
    identity_pseudofunctor,
    locally_discrete,
    mutate,
    validate_pseudofunctor,
    validate_pseudonatural,
    validate_two_category,
)
from twoexact import core, pseudo
from twoexact.core import (_fail, _generating_set, _is_lawful, _violations,
                           check_shape)
from twoexact.factor import arrow_subcat
from twoexact.formats import document_to_pseudonatural, parse
from twoexact.pseudo import _functor_violations, check_pseudofunctor_shape


def _reference_two_category(t):
    """The certificate of the full sweep alone."""
    check_shape(t)
    for clause, cells in _violations(t):
        return _fail("validate_two_category", clause, **cells)
    return Certificate("validate_two_category", "pass", witness={
        "objects": len(t.objects), "one_cells": len(t.one_cells),
        "two_cells": len(t.two_cells)})


def _reference_pseudofunctor(func):
    check_pseudofunctor_shape(func)
    for clause, cells in _functor_violations(func):
        return _fail("validate_pseudofunctor", clause, **cells)
    return Certificate("validate_pseudofunctor", "pass", witness={
        "objects": len(func.ob), "one_cells": len(func.one),
        "two_cells": len(func.two)})


def _fresh(t):
    """A copy of ``t`` with none of its caches filled."""
    return dataclasses.replace(t)


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _outcome(check, entity):
    try:
        return check(entity)
    except InputError as exc:
        return f"InputError: {exc}"


def _same(validator, reference, entity):
    assert _outcome(validator, entity) == _outcome(reference, entity)


THIN = {**CORE, "ld_pb3": LD_PB3, "no_zero": NO_ZERO,
        "ld_bd1_pb2": banded(PB2, 1)}

_BUNDLES = {name: fs_from_ideal(CORE[name], ZERO_IDEALS[name])
            for name in ("ld_pb1", "ld_pb2", "ld_ct22", "ch_pb1")}


def _arrow_categories():
    for name, (fs, *_) in _BUNDLES.items():
        for side, cls in (("E", fs.left_class), ("M", fs.right_class)):
            yield f"{name}:{side}", arrow_subcat(CORE[name], cls).cat


ARROWS = dict(_arrow_categories())


# ---------------------------------------------------------------------------
# the two reads the reduction rests on
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [*THIN.values(), *ARROWS.values(),
                               *BANDED.values(), one_object_base()],
                         ids=[*THIN, *ARROWS, *BANDED, "one_object"])
def test_thinness_is_read_off_the_boundary_index(t):
    by_pair = {}
    for a, f, g in t.two_cells:
        by_pair.setdefault((f, g), []).append(a)
    assert t.locally_thin == all(len(v) == 1 for v in by_pair.values())


def test_thinness_of_the_families():
    assert all(t.locally_thin for t in THIN.values())
    assert all(t.locally_thin for t in ARROWS.values())
    assert not any(t.locally_thin for t in BANDED.values())
    assert not one_object_base().locally_thin


def _right_nested_closure(t, gens):
    """Every composite ``g1∘(g2∘(…∘gk))`` of generators, with the
    identities as the empty composites, by a plain breadth-first search."""
    reached = set(t.id1.values())
    frontier = list(reached)
    while frontier:
        frontier = [t.comp1[(g, y)] for y in frontier for g in gens
                    if t.src1[g] == t.tgt1[y]]
        frontier = [y for y in dict.fromkeys(frontier) if y not in reached]
        reached.update(frontier)
    return reached


@pytest.mark.parametrize("t", [*THIN.values(), *ARROWS.values(),
                               *BANDED.values()],
                         ids=[*THIN, *ARROWS, *BANDED])
def test_every_one_cell_is_a_composite_of_the_generating_set(t):
    gens = _generating_set(t)
    assert _right_nested_closure(t, gens) == set(t.one_ids)
    # greedy in table order: no generator is a composite of earlier ones
    for i, g in enumerate(gens):
        assert g not in _right_nested_closure(t, gens[:i])


def test_generating_set_sizes():
    sizes = [(len(_generating_set(t)), len(t.one_ids))
             for t in (LD_PB2, LD_PB3)]
    assert sizes == [(9, 20), (25, 90)]


def test_thin_lawful_inputs_skip_the_full_sweep(monkeypatch):
    modes = []
    sweep = core._violations

    def counted(t, reduced=False):
        modes.append(reduced)
        return sweep(t, reduced)

    monkeypatch.setattr(core, "_violations", counted)
    assert validate_two_category(_fresh(LD_PB3)).ok
    assert modes == [True]
    modes.clear()
    assert validate_two_category(_fresh(BANDED["bd2_pb1"])).ok
    assert modes == [False]
    modes.clear()
    mutant = _fresh(mutate(LD_PB2, "retarget-vcomp", 0))
    modes.clear()
    assert not validate_two_category(mutant).ok
    assert modes == [True, False]


def test_the_reduced_verdict_is_decided_once_per_category(monkeypatch):
    t = _fresh(CH_PB1)
    assert validate_two_category(t).ok
    monkeypatch.setattr(core, "_violations", None)
    assert validate_two_category(t).ok
    assert validate_pseudofunctor(identity_pseudofunctor(t)).ok


@pytest.mark.parametrize("name", ["ld_pb3", "bd2_pb1", "mutant"])
def test_a_dual_reads_its_primal_law_verdict(monkeypatch, name):
    # the cokernel sweep reads the dual's verdict after the kernel sweep
    # read the primal's: no second law sweep runs, and the verdict is the
    # one a sweep of the dual's own tables gives
    t = _fresh({**THIN, **BANDED,
                "mutant": mutate(LD_PB2, "retarget-vcomp", 0)}[name])
    modes = []
    sweep = core._violations

    def counted(t, reduced=False):
        modes.append(reduced)
        return sweep(t, reduced)

    monkeypatch.setattr(core, "_violations", counted)
    lawful = _is_lawful(t)
    swept = len(modes)
    assert _is_lawful(t.dual) is lawful and len(modes) == swept
    assert _is_lawful(_fresh(t.dual)) is lawful
    assert lawful == (name != "mutant")


@pytest.fixture
def decisions(monkeypatch):
    """Law sweeps run, by ``(category id, reduced)``, and shape checks run,
    by category id, while the test runs."""
    sweeps, shapes = Counter(), Counter()
    sweep = core._violations

    def counted(t, reduced=False):
        sweeps[(id(t), reduced)] += 1
        return sweep(t, reduced)

    shape_code = check_shape.__wrapped__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is shape_code:
            shapes[id(frame.f_locals["t"])] += 1

    monkeypatch.setattr(core, "_violations", counted)
    sys.setprofile(profile)
    try:
        yield sweeps, shapes
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("name, reduced", [("ld_pb2", True),
                                           ("bd2_pb1", False)])
def test_each_category_is_checked_and_swept_once(decisions, name, reduced):
    # on the thin ld_pb2 the reduced sweep alone decides; the non-thin
    # bd2_pb1 gets the full sweep alone, once, however often it is read;
    # an arrow 2-category carries its base's verdict and is never checked
    sweeps, shapes = decisions
    t = _fresh({**CORE, **BANDED}[name])
    check_shape(t)
    check_puppe(t)
    for _ in range(3):
        assert validate_two_category(t).ok
    arrow = arrow_subcat(t, t.one_ids[:4])
    assert arrow_subcat(t, t.one_ids[:4]) is arrow
    for c in (t, arrow.cat):
        assert validate_pseudofunctor(identity_pseudofunctor(c)).ok
        assert validate_pseudonatural(_identity_transformation(c)).ok
    assert sweeps == {(id(t), reduced): 1}
    assert shapes == {id(t): 1}


# ---------------------------------------------------------------------------
# validate_two_category against the full sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [*THIN.values(), *ARROWS.values(),
                               *BANDED.values()],
                         ids=[*THIN, *ARROWS, *BANDED])
def test_fixture_certificates_match_the_reference(t):
    _same(validate_two_category, _reference_two_category, _fresh(t))


@pytest.mark.parametrize("name", ["ld_pb1", "ld_pb2", "ld_ct22", "ch_pb1",
                                  "bd2_pb1", "bd3_pb1", "bd2_ct22"])
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_retarget_mutant_certificates_match_the_reference(name, seed):
    t = {**THIN, **BANDED}[name]
    mutant = mutate(t, "retarget-vcomp", seed)
    _same(validate_two_category, _reference_two_category, mutant)


_ENTRIES = ["v_iziz", "v_izt", "v_tiz", "v_tt", "lw_ii", "lw_iz", "lw_t",
            "rw_ii", "rw_iz", "rw_t"]


def test_one_object_base_certificates_match_the_reference():
    # not locally thin (iz and t are both z ⇒ z), so always the full path
    for values in itertools.product(("iz", "t"), repeat=len(_ENTRIES)):
        t = one_object_base(**dict(zip(_ENTRIES, values)))
        _same(validate_two_category, _reference_two_category, t)


_TABLES = {"comp1": "one", "vcomp": "two", "id2": "two",
           "lwhisker": "two", "rwhisker": "two"}

_TAMPER_BASES = {**THIN, **BANDED, "ld_pb1:E": ARROWS["ld_pb1:E"]}


@st.composite
def _tampered(draw):
    """A base with one entry of one table pointed at another cell of the
    right dimension."""
    t = _TAMPER_BASES[draw(st.sampled_from(sorted(_TAMPER_BASES)))]
    table = draw(st.sampled_from(sorted(_TABLES)))
    entries = getattr(t, table)
    key = draw(st.sampled_from(list(entries)))
    cells = t.one_ids if _TABLES[table] == "one" else t.two_ids
    value = draw(st.sampled_from([c for c in cells if c != entries[key]]
                                 or [entries[key]]))
    return dataclasses.replace(t, **{table: {**entries, key: value}})


@settings(max_examples=300, deadline=None)
@given(_tampered())
def test_tampered_table_certificates_match_the_reference(t):
    _same(validate_two_category, _reference_two_category, t)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(THIN)), st.data())
def test_tampered_thin_tables_fail_their_reduced_sweep(name, data):
    # thinness reads the cells, not the tables, so a tampered entry of a
    # thin base either breaks a boundary clause or is the original value
    t = THIN[name]
    table = data.draw(st.sampled_from(sorted(_TABLES)))
    entries = getattr(t, table)
    key = data.draw(st.sampled_from(list(entries)))
    cells = t.one_ids if _TABLES[table] == "one" else t.two_ids
    value = data.draw(st.sampled_from(cells))
    tampered = dataclasses.replace(t, **{table: {**entries, key: value}})
    assert tampered.locally_thin
    reduced = next(_violations(tampered, reduced=True), None)
    assert (reduced is None) == _reference_two_category(tampered).ok
    assert (reduced is None) == (value == entries[key])


# ---------------------------------------------------------------------------
# validate_pseudofunctor against the full sweep
# ---------------------------------------------------------------------------

def _collapse(c, k):
    """The strict 2-functor from ``banded(c, k)`` to ``banded(c, 1)`` that
    forgets labels: a non-thin source over a thin target."""
    src, tgt = banded(c, k), banded(c, 1)
    return PseudoFunctor(
        src, tgt, {x: x for x in src.objects}, {f: f for f in src.one_ids},
        {a: tgt.id2[f] for a, f, _ in src.two_cells},
        {gf: tgt.id2[v] for gf, v in src.comp1.items()})


def _functors():
    for name, (_, k, c, eta, eps) in _BUNDLES.items():
        yield f"{name}:K", k
        yield f"{name}:C", c
        yield f"{name}:CK", eta.target_functor
        yield f"{name}:KC", eps.source_functor
    for name, t in {**CORE, **BANDED, "one_object": one_object_base()}.items():
        yield f"id:{name}", identity_pseudofunctor(t)
    yield "collapse:pb1", _collapse(PB1, 2)
    yield "collapse:ct22", _collapse(CT22, 3)


FUNCTORS = dict(_functors())


@pytest.mark.parametrize("name", FUNCTORS)
def test_functor_certificates_match_the_reference(name):
    _same(validate_pseudofunctor, _reference_pseudofunctor, FUNCTORS[name])


@pytest.mark.parametrize("name", ["ld_pb1:K", "ld_pb2:C", "ch_pb1:K",
                                  "id:bd2_pb1", "collapse:pb1"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_broken_compositor_certificates_match_the_reference(name, seed):
    mutant = mutate(FUNCTORS[name], "break-compositor", seed)
    _same(validate_pseudofunctor, _reference_pseudofunctor, mutant)


@pytest.mark.parametrize("operator", ["swap-structure-cell",
                                      "remove-eta-inverse"])
@pytest.mark.parametrize("seed", [0, 7])
def test_transformation_mutant_endpoints_match_the_reference(operator, seed):
    _, _, _, eta, _ = _BUNDLES["ld_pb2"]
    mutant = mutate(eta, operator, seed)
    for func in (mutant.source_functor, mutant.target_functor):
        _same(validate_pseudofunctor, _reference_pseudofunctor, func)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FUNCTORS)), st.data())
def test_tampered_functor_certificates_match_the_reference(name, data):
    func = FUNCTORS[name]
    field = data.draw(st.sampled_from(["one", "two", "compositor"]))
    table = getattr(func, field)
    key = data.draw(st.sampled_from(list(table)))
    cells = func.target.one_ids if field == "one" else func.target.two_ids
    value = data.draw(st.sampled_from(cells))
    _same(validate_pseudofunctor, _reference_pseudofunctor,
          dataclasses.replace(func, **{field: {**table, key: value}}))


def test_lawless_target_certificates_match_the_reference():
    # the target's tables break a law, so the target gate fails and the
    # full sweep decides, as before the reduction
    t = mutate(LD_PB2, "retarget-vcomp", 0)
    func = dataclasses.replace(identity_pseudofunctor(LD_PB2), target=t)
    assert not validate_two_category(t).ok
    _same(validate_pseudofunctor, _reference_pseudofunctor, func)


def test_unshaped_target_outcomes_match_the_reference():
    t = dataclasses.replace(LD_PB2, vcomp={})
    func = dataclasses.replace(identity_pseudofunctor(LD_PB2), target=t)
    with pytest.raises(InputError):
        check_shape(t)
    assert _outcome(validate_pseudofunctor, func).startswith("InputError")
    _same(validate_pseudofunctor, _reference_pseudofunctor, func)


# ---------------------------------------------------------------------------
# validate_pseudonatural against the full sweep
# ---------------------------------------------------------------------------

def _reference_pseudonatural(nat):
    """The certificate with every clause run: the thin-target gate shut."""
    with mock.patch.object(pseudo, "_reduced_decides",
                           lambda func: False):
        return validate_pseudonatural(nat)


def _identity_transformation(t):
    func = identity_pseudofunctor(t)
    return PseudoNatural(func, func, dict(t.id1),
                         {f: t.id2[f] for f in t.one_ids})


def _transformations():
    # ld_ps2 is not exact, and fs_from_ideal refuses it
    ct23 = locally_discrete(cyclic_tower(2, 3))
    built = {**_BUNDLES,
             "ld_term": fs_from_ideal(CORE["ld_term"], ZERO_IDEALS["ld_term"]),
             "ld_ct23": fs_from_ideal(ct23, canonical_zero_ideal(ct23))}
    for name, (_, _, _, eta, eps) in built.items():
        yield f"{name}:eta", eta
        yield f"{name}:eps", eps
    pn = document_to_pseudonatural(parse(
        (FIXTURE_DIR / "pb1.pn.json").read_text(encoding="utf-8")))
    yield "pb1.pn", pn
    for name, t in BANDED.items():
        yield f"id:{name}", _identity_transformation(t)
    for operator in ("swap-structure-cell", "remove-eta-inverse"):
        for seed in (0, 1, 2):
            yield f"pb1.pn:{operator}:{seed}", mutate(pn, operator, seed)
            for name in ("bd2_pb1", "bd3_ct22"):
                yield (f"id:{name}:{operator}:{seed}",
                       mutate(_identity_transformation(BANDED[name]),
                              operator, seed))
    # mutate picks its mutants with validate_pseudonatural itself; these
    # are picked without it: a structure cell of a banded identity
    # swapped for a parallel one, which only the pasted clauses can refute
    for name in ("bd2_pb1", "bd3_ct22"):
        t = BANDED[name]
        nat = _identity_transformation(t)
        for f in [f for f in t.one_ids if f not in t.id1.values()][:3]:
            for a in t.hom2(f, f)[1:]:
                yield (f"id:{name}:parallel:{f}:{a}", dataclasses.replace(
                    nat, structure={**nat.structure, f: a}))


TRANSFORMATIONS = dict(_transformations())


@pytest.mark.parametrize("name", TRANSFORMATIONS)
def test_transformation_certificates_match_the_reference(name):
    nat = TRANSFORMATIONS[name]
    assert nat.source_functor.target.locally_thin == \
        (not name.startswith("id:bd"))
    _same(validate_pseudonatural, _reference_pseudonatural, nat)


def test_a_partial_endpoint_functor_is_refused_before_any_sweep():
    # a compositor table missing an entry fails no reduced clause, and the
    # composition clause reads the entry: the endpoint functors' shape check
    # refuses it first, with the thin gate open or shut
    pn = TRANSFORMATIONS["pb1.pn"]
    g = pn.target_functor
    identities = set(g.source.id1.values())
    compositor = dict(g.compositor)
    del compositor[next(pair for pair in compositor
                        if identities.isdisjoint(pair))]
    nat = dataclasses.replace(pn, target_functor=dataclasses.replace(
        g, compositor=compositor))
    for check in (_reference_pseudonatural, validate_pseudonatural):
        with pytest.raises(InputError, match="compositor table"):
            check(nat)
