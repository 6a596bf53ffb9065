"""Composition tables, validation, pasting, duality, whisker solving."""

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from family import (CH_PB1, CORE, CORE_NAMES, LD_CT22, LD_PB2, ZERO_IDEALS,
                    null_z_ideal, one_object_base, parallel_pairs,
                    twisted_whisker_base)
from twoexact import (
    Budget,
    CapExceeded,
    InputError,
    canonical_zero_ideal,
    check_puppe,
    fs_from_ideal,
    ideals_equivalent,
    is_cofaithful,
    is_equivalence,
    is_faithful,
    iso_two_cells,
    locally_discrete,
    maximal_two_ideal,
    natural_key,
    partial_bijections,
    replay_two_category_counterexample,
    solve_lwhisker,
    solve_rwhisker,
    validate_two_category,
)
from twoexact import closure, exact, factor, limits
from twoexact.core import (Gen, Id2, Inverse, LWhisker, RWhisker, TwoCategory,
                           VComp, _law_verdict, _violations, check_shape,
                           paste)
from twoexact.gen import mutate


@pytest.mark.parametrize("name", CORE_NAMES)
def test_core_fixtures_validate(name):
    cert = validate_two_category(CORE[name])
    assert cert.ok, cert.counterexample


def test_fixture_inventory_sizes():
    sizes = {name: (len(t.objects), len(t.one_cells), len(t.two_cells))
             for name, t in CORE.items()}
    assert sizes == {
        "ld_term": (1, 1, 1),
        "ld_pb1": (2, 5, 5),
        "ld_pb2": (3, 20, 20),
        "ld_ct22": (3, 15, 15),
        "ld_ps2": (3, 23, 23),
        "ch_pb1": (2, 5, 7),
    }


def test_composition_convention_is_target_to_source():
    # In the cyclic tower, m07: o1→o2 is the multiplication-by-two
    # embedding and m10: o2→o1 the projection; their composite (projection
    # applied after the embedding) is the zero endomorphism of o1, the very
    # identity that makes the tower a null-composable pair.
    t = LD_CT22
    zero_endo = "m04_1to1x0"
    assert t.cmp1("m10_2to1x1", "m07_1to2x2") == zero_endo
    assert t.cmp1_chain("m10_2to1x1", "m07_1to2x2") == zero_endo
    assert (t.cmp1_chain(t.id1["o1"], "m10_2to1x1", "m07_1to2x2")
            == zero_endo)
    # the transposition of the two-element set is an involution
    p = LD_PB2
    assert p.cmp1("m19_2to2_1221", "m19_2to2_1221") == p.id1["o2"]


def test_vertical_composition_chain_order():
    t = CH_PB1
    f = t.id1["o1"]
    cells = t.hom2(f, f)
    a = cells[0]
    assert t.vc_chain(t.id2[f], a) == t.vc(t.id2[f], a) == a
    assert t.vc_chain(a, t.id2[f], t.id2[f]) == a


@given(st.sampled_from(CORE_NAMES))
def test_dualize_is_an_involution(name):
    t = CORE[name]
    assert t.dual.dual == t
    assert t.dual.dual is t
    assert t.dual is t.dual


def test_dualized_categories_are_not_retained():
    refs = []
    for _ in range(20):
        t = locally_discrete(partial_bijections(2))
        t.dual
        refs.append(weakref.ref(t))
    del t
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_a_finished_check_frees_its_categories_without_a_collection(
        monkeypatch):
    # a dual refers to its primal weakly, so no reference cycle keeps the
    # category, its dual, the ideal or the ideal's dual alive
    built = []

    def recording(t, zero=None):
        built.append(canonical_zero_ideal(t, zero))
        return built[-1]

    monkeypatch.setattr(exact, "canonical_zero_ideal", recording)
    gc.disable()
    try:
        t = locally_discrete(partial_bijections(2))
        assert check_puppe(t).ok
        n = built.pop()
        refs = [weakref.ref(x) for x in (t, t.dual, n, n.dual)]
        del t, n
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_the_memo_tables_live_on_their_category():
    # every table a check fills is in the category's own dict, so nothing
    # outside it keeps the category alive: the Puppe check frees it without
    # a collection, and after fs_from_ideal a collection frees it and the
    # pseudo-arrow 2-categories kept on it
    gc.disable()
    try:
        t = locally_discrete(partial_bijections(2))
        assert check_puppe(t).ok
        memos = (check_shape, _law_verdict, TwoCategory.null_cones,
                 TwoCategory.leg_fibres, limits._cone_candidates)
        assert {memo.table for memo in memos} <= set(vars(t))
        ref = weakref.ref(t)
        del t
        assert ref() is None
        t = locally_discrete(partial_bijections(2))
        assert check_puppe(t).ok
        fs_from_ideal(t, canonical_zero_ideal(t))
        ref = weakref.ref(t)
        del t
    finally:
        gc.enable()
    gc.collect()
    assert ref() is None


def test_a_dual_outliving_its_primal_builds_a_new_one():
    d = locally_discrete(partial_bijections(1)).dual
    gc.collect()
    t = d.dual
    assert t == locally_discrete(partial_bijections(1))
    assert t.dual is d and d.dual is t


@given(st.sampled_from(CORE_NAMES))
def test_dualize_preserves_validity(name):
    assert validate_two_category(CORE[name].dual).ok


def test_paste_evaluates_expression_trees():
    t = CH_PB1
    f = t.id1["o1"]
    a = t.hom2(f, f)[0]
    assert paste(t, Gen(a)) == a
    assert paste(t, Id2(f)) == t.id2[f]
    assert paste(t, VComp(Gen(t.id2[f]), Gen(a))) == a
    assert paste(t, LWhisker(f, Gen(a))) == t.lw(f, a)
    assert paste(t, RWhisker(Gen(a), f)) == t.rw(a, f)
    if t.is_invertible2(a):
        assert paste(t, VComp(Gen(t.inv(a)), Gen(a))) == t.id2[f]
        assert paste(t, Inverse(Gen(a))) == t.inv(a)


def test_paste_rejects_non_composable():
    t = LD_PB2
    a = t.id2[t.id1["o1"]]
    b = t.id2[t.id1["o2"]]
    with pytest.raises(InputError):
        paste(t, VComp(Gen(a), Gen(b)))


def test_whisker_solvers_recover_unique_factor():
    t = CH_PB1
    # whenever h ⋆ μ is defined, solving h ⋆ ? = h ⋆ μ recovers a factor
    for h, _, _ in t.one_cells:
        for mu_id, mu_src, mu_tgt in t.two_cells:
            if t.src1[h] != t.tgt1[mu_src]:
                continue
            whiskered = t.lw(h, mu_id)
            solved = solve_lwhisker(t, h, mu_src, mu_tgt, whiskered)
            assert t.lw(h, solved) == whiskered


def test_solve_lwhisker_rejects_unsolvable():
    t = CH_PB1
    f = t.id1["o1"]
    # no 2-cell whiskers to something outside the table
    with pytest.raises(InputError):
        solve_lwhisker(t, f, f, f, "a99_absent")


def test_solve_rwhisker_matches_left_on_identity_whisker():
    t = CH_PB1
    f = t.id1["o1"]
    for a, s, tg in t.two_cells:
        if s == f and tg == f:
            assert solve_rwhisker(t, f, s, tg, t.rw(a, f)) == a


def test_natural_key_orders_digit_runs_numerically():
    names = ["f10", "f2", "f1", "o2", "o10", "a2b10", "a2b9"]
    assert sorted(names, key=natural_key) == [
        "a2b9", "a2b10", "f1", "f2", "f10", "o2", "o10"]


def test_natural_key_reads_non_decimal_numerals_as_text():
    # '¹' and '²' satisfy str.isdigit but are not decimal digits
    assert natural_key("a⁻¹") == ((1, "a⁻¹"),)
    assert natural_key("m²3") == ((1, "m²"), (0, 3))


def test_iso_two_cells_on_locally_discrete_are_identities():
    t = LD_PB2
    for f, g in parallel_pairs(t):
        isos = iso_two_cells(t, f, g)
        if f == g:
            assert isos == (t.id2[f],)
        else:
            assert isos == ()


def test_chaotic_enrichment_makes_every_parallel_pair_isomorphic():
    t = CH_PB1
    for f, g in parallel_pairs(t):
        assert iso_two_cells(t, f, g)


def _grouped(cells):
    """Cell ids by ``(src, tgt)``, keys in order of first appearance."""
    out = {}
    for i, s, tt in cells:
        out.setdefault((s, tt), []).append(i)
    return {k: tuple(v) for k, v in out.items()}


@pytest.mark.parametrize("dual", [False, True], ids=["t", "t.dual"])
@pytest.mark.parametrize("name", CORE_NAMES)
def test_boundary_index_matches_table_order_scans(name, dual):
    t = CORE[name].dual if dual else CORE[name]
    for a in t.objects:
        assert t.hom1(a, None) == tuple(i for i, s, _ in t.one_cells if s == a)
        assert t.hom1(None, a) == tuple(
            i for i, _, tt in t.one_cells if tt == a)
    for f in t.one_ids:
        assert t.hom2(f, None) == tuple(i for i, s, _ in t.two_cells if s == f)
        assert t.hom2(None, f) == tuple(
            i for i, _, tt in t.two_cells if tt == f)
    homs1, homs2 = _grouped(t.one_cells), _grouped(t.two_cells)
    for a in t.objects:
        for b in t.objects:
            assert t.hom1(a, b) == homs1.get((a, b), ())
    for f in t.one_ids:
        for g in t.one_ids:
            assert t.hom2(f, g) == homs2.get((f, g), ())
    assert list(parallel_pairs(t)) == [
        (f, g) for fs in homs1.values() for f in fs for g in fs]


@pytest.mark.parametrize("dual", [False, True], ids=["t", "t.dual"])
@pytest.mark.parametrize("name", CORE_NAMES)
def test_search_indexes_match_table_order_scans(name, dual):
    t = CORE[name].dual if dual else CORE[name]
    for f in t.one_ids:
        assert t.iso2(f) == t.iso2(f, None) == tuple(
            a for a in t.hom2(f, None) if a in t.inverse2)
        for g in t.one_ids:
            assert t.iso2(f, g) == tuple(
                a for a in t.hom2(f, g) if a in t.inverse2)
    for k in t.one_ids:
        for s in t.objects:
            us = t.hom1(s, t.src1[k])
            fibres = t.leg_fibres(k, s)
            assert sorted(i for fibre in fibres.values() for i in fibre) \
                == list(range(len(us)))
            for w, fibre in fibres.items():
                assert list(fibre) == sorted(fibre)
                assert all(t.cmp1(k, us[i]) == w for i in fibre)
    for n in (ZERO_IDEALS[name], maximal_two_ideal(CORE[name])):
        for f in t.one_ids:
            a, b = t.src1[f], t.tgt1[f]
            assert t.null_cones(n.null1, f) == tuple(
                (z, nz, beta) for obj in t.objects for z in t.hom1(obj, a)
                for nz in t.hom1(obj, b) if nz in n.null1
                for beta in t.iso2(t.cmp1(f, z), nz))


def test_faithful_and_cofaithful_identities():
    t = LD_PB2
    for o in t.objects:
        assert is_faithful(t, t.id1[o]).ok
        assert is_cofaithful(t, t.id1[o]).ok
        assert is_equivalence(t, t.id1[o]).ok


def test_equivalences_are_identities_and_the_transposition():
    t = LD_PB2
    eqs = {f for f in t.one_ids if is_equivalence(t, f).ok}
    assert eqs == {t.id1[o] for o in t.objects} | {"m19_2to2_1221"}


def test_budget_raises_cap_exceeded():
    b = Budget(3, "probe")
    b.tick()
    b.tick()
    b.tick()
    with pytest.raises(CapExceeded):
        b.tick()


def test_budget_unbounded_when_cap_is_none():
    b = Budget(None, "probe")
    for _ in range(10_000):
        b.tick()


def _capped_searches():
    """Every search that takes a cap, with inputs on which it spends: on
    ld_pb2, and for ``ideals_equivalent`` two inequivalent ideals of a
    one-object base, whose search tries four witnesses.  A number that runs
    out makes each report its own name."""
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    f, g = "m05_1to1_11", "m04_1to1_e"
    pres = limits.two_kernels(t, n, f)[0]
    fs = fs_from_ideal(t, n)[0]
    nu = dict.fromkeys(("ii", "iz", "zi", "zz"), "iz")
    searches = {
        limits.is_two_kernel: (t, n, pres),
        limits.two_kernels: (t, n, f),
        limits.is_two_cokernel: (t, n, limits.two_cokernels(t, n, f)[0]),
        limits.two_cokernels: (t, n, f),
        limits.kernel_presentations_by_arrow: (t, n),
        limits.cokernel_presentations_by_arrow: (t, n),
        limits.is_biisoinserter: (t, limits.biisoinserter(t, g, f)[0]),
        limits.biisoinserter: (t, g, f),
        closure.reflects_null_morphisms: (t, n, pres.leg),
        closure.reflects_null_2cells: (t, n, pres.leg),
        closure.weakly_reflects: (t, n, pres),
        factor.validate_fs: (t, fs),
        factor.validate_rofs: (t, n, fs.left_class, fs.right_class),
        factor.check_weak_two_fibration: (t, fs, "cod"),
        ideals_equivalent: (one_object_base(), null_z_ideal(("iz",), nu),
                            null_z_ideal(("iz",), {**nu, "ii": "t"})),
    }
    return {search.__name__: (search, args)
            for search, args in searches.items()}


CAPPED_SEARCHES = _capped_searches()


@pytest.mark.parametrize("name", CAPPED_SEARCHES)
def test_a_cap_is_a_number_or_the_running_budget_of_a_caller(
        name, monkeypatch):
    search, args = CAPPED_SEARCHES[name]
    made = []
    init = Budget.__init__

    def recorded(budget, *init_args):
        init(budget, *init_args)
        made.append(budget)

    monkeypatch.setattr(Budget, "__init__", recorded)
    caller = Budget(None, "caller")
    assert search(*args, caller) == search(*args, None)
    cap = caller.spent - 1
    assert cap > 0

    # a number: a budget of the search's own, whose overflow it reports
    made.clear()
    try:
        out = search(*args, cap)
    except CapExceeded as exc:
        assert (exc.context, exc.cap) == (name, cap)
    else:
        assert (out.check, out.status) == (name, "inconclusive")
        assert out.detail == {"reason": "cap exceeded", "context": name,
                              "cap": cap}
    [own] = [b for b in made if b.context == name]
    assert own.spent == cap + 1

    # the caller's budget: spent from, and its overflow left to the caller
    running = Budget(cap, "caller")
    made.clear()
    with pytest.raises(CapExceeded) as exc:
        search(*args, running)
    assert (exc.value.context, exc.value.cap) == ("caller", cap)
    assert running.spent == own.spent
    assert made == []


def test_weakly_reflects_checks_its_presentation_only_given_a_number():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    f = "m05_1to1_11"
    bad = next(pres for pres in (
        limits.KernelPresentation(f, t.src1[k], k, nc, alpha)
        for k, nc, alpha in t.null_cones(n.null1, f))
        if limits.is_two_kernel(t, n, pres).status == "fail")
    for cap in (None, 10**6):
        with pytest.raises(InputError, match="not a verified kernel"):
            closure.weakly_reflects(t, n, bad, cap)
    # given a running budget, it trusts the sweep that spends from it
    assert closure.weakly_reflects(t, n, bad, Budget(None, "sweep")).check \
        == "weakly_reflects"


def test_weakly_reflects_spends_one_budget_given_a_number():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    pres = limits.two_kernels(t, n, "m05_1to1_11")[0]
    check, loop = Budget(None, "check"), Budget(None, "loop")
    assert limits.is_two_kernel(t, n, pres, check).ok
    assert closure.weakly_reflects(t, n, pres, loop).ok
    # a number that runs out in the presentation check or in the quantifier
    # is an inconclusive certificate of weakly_reflects
    for cap in (check.spent - 1, check.spent + loop.spent - 1):
        cert = closure.weakly_reflects(t, n, pres, cap)
        assert (cert.check, cert.status) == ("weakly_reflects",
                                             "inconclusive")
        assert cert.detail == {"reason": "cap exceeded",
                               "context": "weakly_reflects", "cap": cap}
    assert closure.weakly_reflects(t, n, pres,
                                   check.spent + loop.spent).ok


@given(st.integers(min_value=0, max_value=11))
def test_mutant_certificates_replay(seed):
    mut = mutate(LD_PB2, "retarget-vcomp", seed)
    cert = validate_two_category(mut)
    assert cert.status == "fail"
    assert replay_two_category_counterexample(mut, cert)


def test_replay_needs_a_known_clause_and_well_shaped_tables():
    mut = mutate(LD_PB2, "retarget-vcomp", 0)
    cert = validate_two_category(mut)
    unknown = dataclasses.replace(cert, counterexample={
        **cert.counterexample, "clause": "no-such-clause"})
    assert not replay_two_category_counterexample(mut, unknown)
    a = cert.counterexample["cells"]["two_cell"]
    vcomp = {k: v for k, v in mut.vcomp.items() if k != (a, mut.id2[mut.src2[a]])}
    with pytest.raises(InputError):
        replay_two_category_counterexample(
            dataclasses.replace(mut, vcomp=vcomp), cert)


@pytest.mark.parametrize("table, clause", [
    ("id1", "id1-boundary"), ("comp1", "comp1-boundary"),
    ("id2", "id2-boundary"), ("vcomp", "vcomp-boundary"),
    ("lwhisker", "lwhisker-boundary"), ("rwhisker", "rwhisker-boundary")])
def test_boundary_counterexamples_replay_only_where_they_hold(table, clause):
    # Retarget one entry of the table; the certificate must replay on the
    # mutant and not on the valid category it came from.
    entries = getattr(CH_PB1, table)
    cells = CH_PB1.one_ids if table in ("id1", "comp1") else CH_PB1.two_ids
    for key in entries:
        for cell in cells:
            mutant = dataclasses.replace(CH_PB1, **{table: {**entries,
                                                            key: cell}})
            cert = validate_two_category(mutant)
            if cert.status == "fail" and cert.counterexample["clause"] == clause:
                assert replay_two_category_counterexample(mutant, cert)
                assert not replay_two_category_counterexample(CH_PB1, cert)
                # The laws after a broken boundary are not read, so a
                # certificate from another category does not replay here.
                foreign = validate_two_category(
                    mutate(LD_PB2, "retarget-vcomp", 0))
                assert not replay_two_category_counterexample(mutant, foreign)
                return
    pytest.fail(f"no single retarget in {table} breaks {clause}")


def test_validation_cites_the_broken_clause():
    mut = mutate(LD_PB2, "retarget-vcomp", 3)
    cert = validate_two_category(mut)
    assert cert.counterexample["clause"]
    assert cert.counterexample["cells"]


def test_whiskers_that_do_not_associate_break_a_law():
    # every other clause holds, so only lwhisker-rwhisker refuses this base
    t = twisted_whisker_base()
    cert = validate_two_category(t)
    assert cert.counterexample == {"clause": "lwhisker-rwhisker", "cells": {
        "h": "z", "a": "i01", "e": "z"}}
    assert [clause for clause, _ in _violations(t)] == \
        ["lwhisker-rwhisker"] * 4
    assert replay_two_category_counterexample(t, cert)


def test_every_export_resolves_and_is_listed_once():
    import twoexact
    assert len(set(twoexact.__all__)) == len(twoexact.__all__)
    for name in twoexact.__all__:
        assert hasattr(twoexact, name), name
