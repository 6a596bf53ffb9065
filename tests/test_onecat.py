"""One-dimensional oracles: finite categories, ideals, exactness."""

import hashlib
import json
from itertools import combinations
from pathlib import Path

import pytest

from family import CT22, PB1, PB2, PB3, PS2, TERM
from twoexact import onecat
from twoexact import (
    InputError,
    OneIdeal,
    closedness_triple_1cat,
    cokernel_legs_1cat,
    cokernels_1cat,
    cyclic_tower,
    grandis_exact_1cat,
    kernel_legs_1cat,
    kernels_1cat,
    null_objects_1cat,
    partial_bijections,
    pointed_sets,
    puppe_exact_1cat,
    terminal_category,
    validate_category,
    validate_one_ideal,
    zero_ideal_1cat,
    zero_objects_1cat,
)
from twoexact.formats import (document_to_finite_category,
                              document_to_one_ideal, parse)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

CATS = {"term": TERM, "pb1": PB1, "pb2": PB2, "pb3": PB3,
        "ct22": CT22, "ps2": PS2}


@pytest.mark.parametrize("name", sorted(CATS))
def test_generated_categories_validate(name):
    assert validate_category(CATS[name]).ok


def test_morphism_counts():
    assert {n: len(c.morphisms) for n, c in CATS.items()} == {
        "term": 1, "pb1": 5, "pb2": 20, "pb3": 90, "ct22": 15, "ps2": 23}


@pytest.mark.parametrize("name", sorted(CATS))
def test_zero_ideal_validates(name):
    c = CATS[name]
    assert validate_one_ideal(c, zero_ideal_1cat(c)).ok


def test_zero_objects():
    assert zero_objects_1cat(PB2) == ("o0",)
    assert zero_objects_1cat(CT22) == ("o0",)
    assert zero_objects_1cat(PS2) == ("o0",)
    assert zero_objects_1cat(TERM) == ("o0",)


def test_zero_ideal_of_partial_bijections_is_the_nowhere_defined_maps():
    ideal = zero_ideal_1cat(PB2)
    empties = {m for m, _, _ in PB2.morphisms if m.endswith("_e")}
    assert ideal.null == frozenset(empties)


def test_kernels_in_partial_bijections():
    ideal = zero_ideal_1cat(PB2)
    # kernel of the identity graph on {1} is the empty embedding from the
    # empty set; kernel of a nowhere-defined map is an identity
    assert kernels_1cat(PB2, ideal, "m05_1to1_11") == (("o0", "m01_0to1_e"),)
    kerns = kernels_1cat(PB2, ideal, "m03_1to0_e")
    assert ("o1", "m05_1to1_11") in kerns


def test_kernels_in_the_cyclic_tower():
    ideal = zero_ideal_1cat(CT22)
    # the projection's kernel is the multiplication-by-two embedding and
    # the embedding's cokernel is the projection: the classical extension
    assert kernels_1cat(CT22, ideal, "m10_2to1x1") == (("o1", "m07_1to2x2"),)
    assert cokernels_1cat(CT22, ideal, "m07_1to2x2") == (("o1", "m10_2to1x1"),)
    assert kernels_1cat(CT22, ideal, "m07_1to2x2") == (("o0", "m01_0to1x0"),)


def test_kernel_legs_listing_matches_pointwise_search():
    ideal = zero_ideal_1cat(PB2)
    legs = set(kernel_legs_1cat(PB2, ideal))
    pointwise = {leg for m in PB2.mor_ids
                 for _, leg in kernels_1cat(PB2, ideal, m)}
    assert legs == pointwise
    colegs = set(cokernel_legs_1cat(PB2, ideal))
    copointwise = {leg for m in PB2.mor_ids
                   for _, leg in cokernels_1cat(PB2, ideal, m)}
    assert colegs == copointwise


def test_null_objects_are_the_zero_objects_for_the_zero_ideal():
    for c in (PB2, CT22, PS2):
        ideal = zero_ideal_1cat(c)
        assert set(null_objects_1cat(c, ideal)) == set(zero_objects_1cat(c))


@pytest.mark.parametrize("name", ["pb1", "pb2", "ct22", "ps2"])
def test_closedness_triple_components_agree(name):
    c = CATS[name]
    triple = closedness_triple_1cat(c, zero_ideal_1cat(c))
    assert triple[0] == triple[1] == triple[2]


def test_grandis_exactness_verdicts():
    assert grandis_exact_1cat(PB2, zero_ideal_1cat(PB2)).ok
    assert grandis_exact_1cat(CT22, zero_ideal_1cat(CT22)).ok
    cert = grandis_exact_1cat(PS2, zero_ideal_1cat(PS2))
    assert cert.status == "fail"
    assert cert.counterexample["clause"] == "factorization"
    assert cert.counterexample["cells"]["morphism"] == "m13_2to1_11"


def test_puppe_exactness_verdicts():
    assert puppe_exact_1cat(PB2).ok
    assert puppe_exact_1cat(CT22).ok
    assert not puppe_exact_1cat(PS2).ok
    assert puppe_exact_1cat(TERM).ok


def test_zero_ideal_refuses_a_non_zero_basepoint():
    with pytest.raises(InputError):
        zero_ideal_1cat(CT22, zero="o1")


def test_empty_ideal_is_valid_but_not_exact():
    empty = OneIdeal(frozenset())
    assert validate_one_ideal(PB2, empty).ok
    assert not grandis_exact_1cat(PB2, empty).ok


def _generated_ideal(c, generators):
    """The ideal generated by ``generators``: every ``g∘m∘f``."""
    return OneIdeal(frozenset(
        c.comp[(g, c.comp[(m, f)])] for m in generators
        for f in c.mor_ids if c.tgt[f] == c.src[m]
        for g in c.mor_ids if c.src[g] == c.tgt[m]))


def _oracle_dump(c, ideal):
    return {
        "kernels": {f: kernels_1cat(c, ideal, f) for f in c.mor_ids},
        "cokernels": {f: cokernels_1cat(c, ideal, f) for f in c.mor_ids},
        "kernel_legs": kernel_legs_1cat(c, ideal),
        "cokernel_legs": cokernel_legs_1cat(c, ideal),
        "closedness": closedness_triple_1cat(c, ideal),
        "grandis": grandis_exact_1cat(c, ideal).to_json_dict(),
    }


def test_oracle_answers_are_pinned():
    """Every oracle function on 13 categories, each under its zero ideal,
    the ideal of all morphisms and the empty ideal (and the fixture ideal
    on its own document), and on the 71 distinct ideals generated by one
    or two morphisms of eight small categories."""
    fixture_cat, fixture_ideal = document_to_one_ideal(
        parse((FIXTURE_DIR / "pb2.1ideal.json").read_text()))
    cats = {
        "terminal": terminal_category(),
        **{f"pb{n}": partial_bijections(n) for n in (1, 2, 3)},
        **{f"ps{n}": pointed_sets(n) for n in (1, 2, 3)},
        **{f"ct{p}{k}": cyclic_tower(p, k) for p in (2, 3) for k in (2, 3)},
        "pb2.1cat.json": document_to_finite_category(
            parse((FIXTURE_DIR / "pb2.1cat.json").read_text())),
        "pb2.1ideal.json": fixture_cat,
    }
    dump = {}
    for name, c in cats.items():
        ideals = {"all": OneIdeal(frozenset(c.mor_ids)),
                  "empty": OneIdeal(frozenset())}
        if zero_objects_1cat(c):
            ideals["zero"] = zero_ideal_1cat(c)
        if name == "pb2.1ideal.json":
            ideals["document"] = fixture_ideal
        dump[name] = {
            "puppe": puppe_exact_1cat(c).to_json_dict(),
            **{label: _oracle_dump(c, ideal)
               for label, ideal in ideals.items()}}
    generated = {}
    for name in ("terminal", "pb1", "pb2", "ps1", "ps2", "ct22", "ct23",
                 "ct32"):
        c = cats[name]
        ideals = {}
        for size in (1, 2):
            for ms in combinations(c.mor_ids, size):
                ideals.setdefault(_generated_ideal(c, ms).null, ms)
        for null, ms in ideals.items():
            generated[f"{name} {' '.join(ms)}"] = _oracle_dump(
                c, OneIdeal(null))
    assert len(generated) == 71
    verdicts = {(case["grandis"].get("counterexample") or {}).get("clause")
                for cases in (*dump.values(), generated)
                for case in cases.values() if "grandis" in case}
    assert verdicts >= {None, "factorization", "missing-kernel",
                        "missing-cokernel"}
    text = json.dumps({"categories": dump, "generated": generated},
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "ca6ffe10b01f5119e9a4bb5eed62343fc364b245b3f8c79a4b2ce29bf7e31d4d"


@pytest.mark.parametrize("name", ["pb2", "pb3", "ps2"])
def test_the_oracle_searches_each_kernel_once(name, monkeypatch):
    # one kernel search per morphism of c and one per morphism of c.op
    c = CATS[name]
    calls = []
    search = onecat.kernels_1cat

    def counted(*args):
        calls.append(args[2])
        return search(*args)

    monkeypatch.setattr(onecat, "kernels_1cat", counted)
    cert = grandis_exact_1cat(c, zero_ideal_1cat(c))
    assert cert.ok == (name != "ps2")
    assert sorted(calls) == sorted(2 * c.mor_ids)
