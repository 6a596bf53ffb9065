"""Null-cell classes with replacement: validity, duals, canonical forms."""

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from family import (
    BANDED,
    CH_PB1,
    CORE,
    CORE_NAMES,
    CT22,
    LD_PB2,
    NO_ZERO,
    NO_ZERO_IDEAL,
    PB2,
    PS2,
    THICK,
    ZERO_IDEALS,
)
from twoexact import (
    Certificate,
    InputError,
    TwoCategory,
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
import twoexact.ideal as ideal_module
from twoexact.cli import main
from twoexact.core import _fail, _is_lawful
from twoexact.formats import (document_to_two_ideal, parse, serialize,
                              two_ideal_to_document)
from twoexact.ideal import _vertical_closure, _violations

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize("name", CORE_NAMES)
def test_canonical_zero_ideal_validates(name):
    cert = validate_two_ideal(CORE[name], ZERO_IDEALS[name])
    assert cert.ok, cert.counterexample


@pytest.mark.parametrize("name", [*CORE_NAMES, *BANDED, *THICK])
def test_maximal_ideal_validates(name):
    t = {**CORE, **BANDED}[name] if name not in THICK else THICK[name][0]
    m = maximal_two_ideal(t)
    assert validate_two_ideal(t, m).ok
    assert m.null1 == frozenset(t.one_ids)
    assert m.null2 == frozenset(t.two_ids)


@pytest.mark.parametrize("build", [canonical_zero_ideal, maximal_two_ideal])
def test_a_built_ideal_records_its_base(build):
    # the record survives the dual and nothing else: a copy, a mutant and
    # a parsed document record nothing, and it is left out of == and repr
    t = CORE["ch_pb1"]
    n = build(t)
    assert n.built_on is t
    assert n.dual.built_on is t.dual and n.dual.dual is n
    assert n.dual.dual.built_on is t
    copy = dataclasses.replace(n)
    assert copy == n and copy.built_on is None and copy.dual.built_on is None
    assert "built_on" not in repr(n)
    assert mutate((t, n), "drop-null-2cell", 3).built_on is None
    t2, n2 = document_to_two_ideal(
        parse(serialize(two_ideal_to_document(t, n))))
    assert t2 == t and n2.null1 == n.null1 and n2.built_on is None


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


def test_replacement_keys_missing_and_extra_are_counted():
    t, n = LD_PB2, ZERO_IDEALS["ld_pb2"]
    repl = dict(n.replacement)
    (a, x, b), value = repl.popitem()
    outside = next(f for f in t.one_ids
                   if f not in n.null1 and t.src1[f] == t.src1[x]
                   and t.tgt1[f] == t.tgt1[x])
    repl[("m99_missing", x, b)] = value   # not a 1-cell
    repl[(a, outside, b)] = value         # not around a null 1-cell
    with pytest.raises(InputError, match=r"exactly the composable triples "
                       r"around null 1-cells \(missing 1, extra 2\)$"):
        validate_two_ideal(t, dataclasses.replace(n, replacement=repl))


def _reference_closure(t, gens):
    """The vertical closure as :func:`canonical_zero_ideal` first built it:
    every pair in the list composed each round, until a round adds
    nothing."""
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
    return tuple(null2)


def _reference_null_two_cells(t, zero):
    """The null 2-cells of :func:`canonical_zero_ideal` as first built: the
    generators deduplicated in a list, then closed by
    :func:`_reference_closure`."""
    gens = []
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
    return _reference_closure(t, gens)


def _vcomp_retargeted(t, k):
    """``t`` after 40 seeded ``retarget-vcomp`` mutations, off the laws: on
    these the vertical closure of the null 2-cells adds composites, which it
    never does on a lawful base."""
    for seed in range(40 * k, 40 * k + 40):
        t = mutate(t, "retarget-vcomp", seed)
    return t


_CANONICAL_BASES = {
    **CORE,
    **{name: t for name, (t, _) in THICK.items()},
    "ch_pb2": chaotic_enrichment(PB2),
    "ch_ps2": chaotic_enrichment(PS2),
    "ch_ct22": chaotic_enrichment(CT22),
    **{f"ch_pb2 retarget-vcomp {k}": _vcomp_retargeted(
        chaotic_enrichment(PB2), k) for k in (3, 6, 7)},
}


@pytest.mark.parametrize("name", _CANONICAL_BASES)
def test_canonical_null_two_cells_match_the_reference(name):
    t = _CANONICAL_BASES[name]
    for zero in bizero_objects(t):
        assert canonical_zero_ideal(t, zero).null_two_cells \
            == _reference_null_two_cells(t, zero)


@pytest.mark.parametrize("name", ["ch_pb2", "ch_ps2", "ch_ct22"])
@pytest.mark.parametrize("seed", range(4))
def test_vertical_closures_match_the_reference(name, seed):
    # seeded 2-cells in two hom-categories of a chaotic base, which close in
    # several rounds, so the order in which composites join is exercised
    t = _CANONICAL_BASES[name]
    rng = random.Random(seed)
    homs = [fs for fs in dict.fromkeys(t.hom1(t.src1[f], t.tgt1[f])
                                       for f in t.one_ids) if len(fs) > 1]
    gens = list(dict.fromkeys(t.hom2(*rng.sample(fs, 2))[0]
                              for fs in rng.sample(homs, 2) for _ in range(3)))
    closed = _vertical_closure(t, gens)
    assert closed == _reference_closure(t, gens)
    assert len(closed) > len(gens)


# ---------------------------------------------------------------------------
# ax3 and ax4 against a naive reference
# ---------------------------------------------------------------------------

def _retargeted_maximal_ideal(t, seed):
    """The maximal ideal of a chaotic 2-category with every replacement but
    the identity ones ``(id, n, id)`` moved to a seeded parallel 1-cell,
    through the one (invertible) 2-cell between the two."""
    rng = random.Random(seed)
    n = maximal_two_ideal(t)
    repl = {}
    for (a, x, b), (c, nu) in n.replacement.items():
        if (a, b) != (t.id1[t.src1[x]], t.id1[t.tgt1[x]]):
            c2 = rng.choice(t.hom1(t.src1[c], t.tgt1[c]))
            nu = t.hom2(c, c2)[0]
            c = c2
        repl[(a, x, b)] = (c, nu)
    return dataclasses.replace(n, replacement=repl)


def _dropped(t, n, share, seed):
    """``n`` without a seeded ``share`` of its non-identity null 2-cells."""
    rng = random.Random(seed)
    ids = set(t.id2.values())
    return dataclasses.replace(n, null_two_cells=tuple(
        c for c in n.null_two_cells if c in ids or rng.random() >= share))


def _naive_ax3(t, n):
    for x in n.null_one_cells:
        for alpha in t.two_ids:
            a, a2 = t.src2[alpha], t.tgt2[alpha]
            if t.tgt1[a] != t.src1[x]:
                continue
            for beta in t.two_ids:
                b, b2 = t.src2[beta], t.tgt2[beta]
                if t.src1[b] != t.tgt1[x]:
                    continue
                mid = t.hc(beta, t.hc(t.id2_of(x), alpha))
                cell = t.vc_chain(n.repl(a2, x, b2)[1], mid,
                                  t.inv(n.repl(a, x, b)[1]))
                if cell not in n.null2:
                    yield "ax3", {"n": x, "alpha": alpha, "beta": beta,
                                  "conjugate": cell}


def _naive_ax4(t, n):
    for (a, x, b), (m, nu1) in n.replacement.items():
        for a2 in t.one_ids:
            if t.tgt1[a2] != t.src1[a]:
                continue
            for b2 in t.one_ids:
                if t.src1[b2] != t.tgt1[b]:
                    continue
                direct = n.repl(t.cmp1(a, a2), x, t.cmp1(b2, b))[1]
                iterated = t.vc(t.lw(b2, t.rw(t.inv(nu1), a2)),
                                t.inv(n.repl(a2, m, b2)[1]))
                cell = t.vc(direct, iterated)
                if not n.is_invertible_null2(t, cell):
                    yield "ax4", {"a": a, "n": x, "b": b, "a2": a2, "b2": b2,
                                  "comparison": cell}


def _reference(t, n):
    """The sweep's items before ax3, then ax3 and ax4 recomputed naively:
    one instance at a time, each factor composed afresh."""
    head = [v for v in _violations(t, n) if v[0] not in ("ax3", "ax4")]
    return head + list(_naive_ax3(t, n)) + list(_naive_ax4(t, n))


_CHAOTIC = {"ch_pb2": chaotic_enrichment(PB2),
            "ch_ps2": chaotic_enrichment(PS2),
            "ch_ct22": chaotic_enrichment(CT22)}
_DIFFERENTIAL = {
    **{name: (CORE[name], ZERO_IDEALS[name]) for name in CORE_NAMES},
    **{f"{name} drop {share}": (t, _dropped(
        t, _retargeted_maximal_ideal(t, 1), share, 1))
       for name, t in _CHAOTIC.items() for share in (0.0, 0.05, 0.3)},
}


@pytest.mark.parametrize("name", _DIFFERENTIAL)
def test_violations_match_the_naive_ax3_ax4_reference(name):
    t, n = _DIFFERENTIAL[name]
    sweep = list(_violations(t, n))
    assert sweep == _reference(t, n)
    if name.endswith("drop 0.3"):
        assert {"closure-vcomp", "ax2", "ax3", "ax4"} \
            <= {clause for clause, _ in sweep}


def _blocked(t, n, seed):
    """``n`` with null 2-cells only between 1-cells of one seeded block:
    still closed under identities and vertical composites on a locally thin
    ``t``, so that ax2, ax3 and ax4 are the clauses left to fail."""
    rng = random.Random(seed)
    block = {f: rng.randrange(2) for f in t.one_ids}
    return dataclasses.replace(n, null_two_cells=tuple(
        c for c in n.null_two_cells if block[t.src2[c]] == block[t.tgt2[c]]))


#: The monoid ``{i, e}`` with ``e∘e = e``, ordered ``i ≤ e``, as a locally
#: thin 2-category on one object whose 2-cell ``th: i ⇒ e`` is not
#: invertible.
_POSETAL = TwoCategory(
    objects=("o",),
    one_cells=(("i", "o", "o"), ("e", "o", "o")),
    comp1={("i", "i"): "i", ("i", "e"): "e", ("e", "i"): "e",
           ("e", "e"): "e"},
    id1={"o": "i"},
    two_cells=(("Ii", "i", "i"), ("Ie", "e", "e"), ("th", "i", "e")),
    vcomp={("Ii", "Ii"): "Ii", ("Ie", "Ie"): "Ie", ("th", "Ii"): "th",
           ("Ie", "th"): "th"},
    id2={"i": "Ii", "e": "Ie"},
    lwhisker={**{("i", a): a for a in ("Ii", "Ie", "th")},
              **{("e", a): "Ie" for a in ("Ii", "Ie", "th")}},
    rwhisker={**{(a, "i"): a for a in ("Ii", "Ie", "th")},
              **{(a, "e"): "Ie" for a in ("Ii", "Ie", "th")}},
)

_PB2_IDEAL = document_to_two_ideal(
    parse((FIXTURE_DIR / "pb2.ideal.json").read_text()))


_REDUCED = {
    **_DIFFERENTIAL,
    **{f"pb2.ideal drop-null-2cell {seed}": (_PB2_IDEAL[0], mutate(
        _PB2_IDEAL, "drop-null-2cell", seed)) for seed in range(6)},
    **{f"{name} {kind}": (t, ideal(t)) for name, (t, _) in THICK.items()
       for kind, ideal in (("canonical", canonical_zero_ideal),
                           ("maximal", maximal_two_ideal))},
    **{f"{name} maximal": (t, maximal_two_ideal(t))
       for name, t in BANDED.items()},
    **{f"{name} blocked {seed}": (t, _blocked(
        t, _retargeted_maximal_ideal(t, seed), seed))
       for name, t in _CHAOTIC.items() for seed in (1, 2)},
    **{f"{name} blocked {seed}": (t, _blocked(t, maximal_two_ideal(t), seed))
       for name in ("th2_pb2", "th3_ct22") for seed in (1, 2)
       for t in (THICK[name][0],)},
    # a null 2-cell that is not invertible is a conjugate of ax3; without it
    # ax3 fails
    "posetal maximal": (_POSETAL, maximal_two_ideal(_POSETAL)),
    "posetal without th": (_POSETAL, dataclasses.replace(
        maximal_two_ideal(_POSETAL), null_two_cells=("Ii", "Ie"))),
}


def _as_reduced(clause, cells):
    """A full sweep item as the reduced sweep reports it: without the
    derived cell, and for ax4 without the arguments ``a2``, ``b2``."""
    drop = {"ax2": ("conjugate",), "ax3": ("conjugate",),
            "ax4": ("a2", "b2", "comparison")}.get(clause, ())
    return clause, tuple(sorted((k, v) for k, v in cells.items()
                                if k not in drop))


@pytest.mark.parametrize("name", _REDUCED)
def test_reduced_ideal_verdicts_match_the_reference(monkeypatch, name):
    t, n = _REDUCED[name]
    full = list(_violations(t, n))
    if full:
        want = _fail("validate_two_ideal", full[0][0], **full[0][1])
    else:
        want = Certificate("validate_two_ideal", "pass", witness={
            "null_one_cells": len(n.null_one_cells),
            "null_two_cells": len(n.null_two_cells),
            "replacement_entries": len(n.replacement)})
    reduced_calls = []

    def recorded(t, n, reduced=False):
        reduced_calls.append(reduced)
        return _violations(t, n, reduced)

    monkeypatch.setattr(ideal_module, "_violations", recorded)
    assert validate_two_ideal(t, n) == want
    banded = name.split()[0] in BANDED
    assert banded == (not (t.locally_thin and _is_lawful(t)))
    if banded:
        assert True not in reduced_calls
        return
    assert reduced_calls[0] is True
    reduced = list(_violations(t, n, reduced=True))
    assert (not reduced) == (not full)
    assert {_as_reduced(*item) for item in reduced} \
        == {_as_reduced(*item) for item in full}
    if " blocked " in name and name.startswith("ch_"):
        assert {"ax2", "ax3", "ax4"} <= {clause for clause, _ in full}


def _next(cells, cell):
    return cells[(cells.index(cell) + 1) % len(cells)]


@pytest.mark.parametrize("clause", ["ax3", "ax4"])
def test_ax3_and_ax4_items_replay_until_tampered(clause):
    t, n = _DIFFERENTIAL["ch_pb2 drop 0.3"]

    def hom_of(cell):
        f = t.src2[cell]
        return t.hom1(t.src1[f], t.tgt1[f])

    # an ax3 item whose whiskering 2-cells can be moved to another target
    cells = next(c for k, c in _violations(t, n) if k == clause and (
        clause == "ax4" or min(len(hom_of(c["alpha"])),
                               len(hom_of(c["beta"]))) > 1))

    def replays(cited):
        return replay_two_ideal_counterexample(t, n, Certificate(
            "validate_two_ideal", "fail",
            counterexample={"clause": clause, "cells": cited}))

    assert replays(cells)
    if clause == "ax3":
        # a2 and b2 are the targets of the whiskering 2-cells alpha, beta
        # (a chaotic hom has one 2-cell between any two of its 1-cells)
        def retargeted(cell):
            return t.hom2(t.src2[cell], _next(hom_of(cell), t.tgt2[cell]))[0]

        tampered = [
            {**cells, "alpha": retargeted(cells["alpha"])},
            {**cells, "beta": retargeted(cells["beta"])},
            {**cells, "conjugate": t.id2[t.src2[cells["conjugate"]]]}]
    else:
        a, b = cells["a"], cells["b"]
        tampered = [
            {**cells, "a2": _next(t.hom1(None, t.src1[a]), cells["a2"])},
            {**cells, "b2": _next(t.hom1(t.tgt1[b], None), cells["b2"])},
            {**cells, "comparison": t.id2[t.src2[cells["comparison"]]]}]
    for cited in tampered:
        assert cited != cells
        assert not replays(cited)


# ---------------------------------------------------------------------------
# check-ideal output
# ---------------------------------------------------------------------------

#: `check-ideal` on shipped fixtures and on `drop-null-2cell` mutants of
#: `pb2.ideal` (by seed): the exit code and the sha256 of the stdout lines
#: after the header (which names the input path).
CHECK_IDEAL_SHA256 = {
    "pb3.2cat":
        (0, "79372507e35a63de9ad4962026688058717355730c55bc565a12fdd990afb427"),
    "pb2.2cat":
        (0, "07f3a4998a76f6efe40075426a71b131cff4e43d3f1ca84300ec4b956fe2d248"),
    "pb2.ideal":
        (0, "07f3a4998a76f6efe40075426a71b131cff4e43d3f1ca84300ec4b956fe2d248"),
    "ct22.2cat":
        (0, "23ebebed531649a33f780d90a9f3e6232f0d8ac92370c784a6b5f7fe8d51cf56"),
    "ps2.2cat":
        (0, "8beeb2780a35556efc77067f2626d12c5327d7b33a43399fe270924311345e94"),
    "drop-null-2cell 0":
        (1, "1a8babc9725fe998e4c1b0df056f8ef2d891b59c080d38060d283b78f1a8ec05"),
    "drop-null-2cell 1":
        (1, "082870df74c56267b331f29b9f349057ae619bf5d14ff90fa6abf5334744e2be"),
}


@pytest.mark.parametrize("name", CHECK_IDEAL_SHA256)
def test_check_ideal_output_is_pinned(capsys, tmp_path, name):
    path = FIXTURE_DIR / f"{name}.json"
    if name.startswith("drop-null-2cell"):
        path = tmp_path / "mutant.json"
        assert main(["mutate", str(FIXTURE_DIR / "pb2.ideal.json"),
                     "drop-null-2cell", "--seed", name.split()[1],
                     "--out", str(path)]) == 0
    code = main(["check-ideal", str(path)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.split("\n", 1)[1].encode()).hexdigest()) \
        == CHECK_IDEAL_SHA256[name]
