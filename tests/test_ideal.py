"""Null-cell classes with replacement: validity, duals, canonical forms."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from family import (
    CH_PB1,
    CORE,
    CORE_NAMES,
    LD_PB2,
    NO_ZERO,
    NO_ZERO_IDEAL,
    ZERO_IDEALS,
)
from twoexact import (
    InputError,
    bizero_objects,
    canonical_zero_ideal,
    chaotic_enrichment,
    is_strong_bizero,
    maximal_two_ideal,
    mutate,
    null_objects,
    partial_bijections,
    replay_two_ideal_counterexample,
    validate_two_ideal,
)


@pytest.mark.parametrize("name", CORE_NAMES)
def test_canonical_zero_ideal_validates(name):
    cert = validate_two_ideal(CORE[name], ZERO_IDEALS[name])
    assert cert.ok, cert.counterexample


@pytest.mark.parametrize("name", CORE_NAMES)
def test_maximal_ideal_validates(name):
    t = CORE[name]
    m = maximal_two_ideal(t)
    assert validate_two_ideal(t, m).ok
    assert m.null1 == frozenset(t.one_ids)
    assert m.null2 == frozenset(t.two_ids)


def test_zero_ideal_of_pb2_is_the_nowhere_defined_class():
    n = ZERO_IDEALS["ld_pb2"]
    assert n.null1 == frozenset(
        f for f in LD_PB2.one_ids if f.endswith("_e"))
    assert len(n.null2) == 9


def test_bizero_objects():
    assert {name: bizero_objects(CORE[name]) for name in CORE_NAMES} == {
        "ld_term": ("o0",),
        "ld_pb1": ("o0",),
        "ld_pb2": ("o0",),
        "ld_ct22": ("o0",),
        "ld_ps2": ("o0",),
        "ch_pb1": ("o0", "o1"),
    }


@pytest.mark.parametrize("name", CORE_NAMES)
def test_strong_bizero_at_the_canonical_basepoint(name):
    assert is_strong_bizero(CORE[name], "o0")


def test_no_zero_fixture_has_no_bizero_but_a_valid_ideal():
    assert bizero_objects(NO_ZERO) == ()
    assert validate_two_ideal(NO_ZERO, NO_ZERO_IDEAL).ok
    with pytest.raises(InputError):
        canonical_zero_ideal(NO_ZERO)


@given(st.sampled_from(CORE_NAMES))
def test_dual_ideal_is_an_involution(name):
    n = ZERO_IDEALS[name]
    assert n.dual.dual == n
    assert n.dual.dual is n
    assert n.dual is n.dual


@given(st.sampled_from(CORE_NAMES))
def test_dual_ideal_is_valid_for_the_dual_category(name):
    t, n = CORE[name], ZERO_IDEALS[name]
    assert validate_two_ideal(t.dual, n.dual).ok


def test_null_objects_of_the_zero_ideal_include_the_basepoint():
    for name in CORE_NAMES:
        t, n = CORE[name], ZERO_IDEALS[name]
        witnessed = {z for z, _, _ in null_objects(t, n)}
        assert "o0" in witnessed
        assert witnessed <= set(t.objects)


def test_replacement_table_covers_all_composable_triples():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    expected = {(a, nl, b)
                for nl in n.null1
                for a in t.one_ids if t.tgt1[a] == t.src1[nl]
                for b in t.one_ids if t.src1[b] == t.tgt1[nl]}
    assert set(n.replacement) == expected
    for (a, nl, b), (tilde, nu) in n.replacement.items():
        assert tilde in n.null1
        assert nu in n.null2 or nu in t.two_ids


@given(st.integers(min_value=0, max_value=11))
def test_dropped_null_2cell_mutants_fail_and_replay(seed):
    t = LD_PB2
    n = ZERO_IDEALS["ld_pb2"]
    mut = mutate((t, n), "drop-null-2cell", seed)
    cert = validate_two_ideal(t, mut)
    assert cert.status == "fail"
    assert replay_two_ideal_counterexample(t, mut, cert)
    assert not replay_two_ideal_counterexample(t, n, cert)


@pytest.mark.parametrize("dropped, clause, derived", [
    ("c06x07", "closure-vcomp", "composite"),
    ("c04x05", "ax2", "conjugate")])
def test_replay_matches_the_cited_cells_exactly(dropped, clause, derived):
    t = chaotic_enrichment(partial_bijections(2))
    n = maximal_two_ideal(t)
    mut = dataclasses.replace(n, null_two_cells=tuple(
        c for c in n.null_two_cells if c != dropped))
    cert = validate_two_ideal(t, mut)
    assert cert.counterexample["clause"] == clause
    cells = cert.counterexample["cells"]
    assert cells[derived] == dropped
    assert replay_two_ideal_counterexample(t, mut, cert)
    for tampered in ({"clause": clause,
                      "cells": {**cells, derived: t.id2[t.src2[dropped]]}},
                     {"clause": "no-such-clause", "cells": cells}):
        assert not replay_two_ideal_counterexample(
            t, mut, dataclasses.replace(cert, counterexample=tampered))


def test_replay_does_not_read_past_a_broken_boundary():
    # The axioms after a broken boundary would compose cells off the tables.
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    outside = next(f for f in t.one_ids if f not in n.null1)
    key = next(iter(n.replacement))
    for broken in (
            dataclasses.replace(n, null_two_cells=n.null_two_cells
                                + (t.id2[outside],)),
            dataclasses.replace(n, replacement={
                **n.replacement, key: (outside, t.id2[outside])})):
        cert = validate_two_ideal(t, broken)
        unknown = dataclasses.replace(cert, counterexample={
            **cert.counterexample, "clause": "no-such-clause"})
        assert replay_two_ideal_counterexample(t, broken, cert)
        assert not replay_two_ideal_counterexample(t, broken, unknown)


def test_ideal_validation_rejects_unknown_cells():
    t = LD_PB2
    n = ZERO_IDEALS["ld_pb2"]
    broken = dataclasses.replace(
        n, null_one_cells=n.null_one_cells + ("m99_missing",))
    with pytest.raises(InputError):
        validate_two_ideal(t, broken)
