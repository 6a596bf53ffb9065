"""The kernel search over cached null cones and leg fibres, against the
plain loops kept here as the reference.

The reference below enumerates each null cone ``(z, nz, β)`` with four
nested loops, scans whole hom-sets for the clause-1 factorizations and the
clause-2 pairs ``(u, v)``, and reads invertible 2-cells off a filtered
``hom2`` scan.  The package reads the cones from ``TwoCategory.null_cones``
and visits only the composable witnesses through the leg fibres.  On every
core fixture and its dual, and on the chaotic pb2 as generated and with
its 2-cell table reversed (with their duals), the two give the same
status, clause and cells, with the same number of budget ticks; and a cap
cuts both off at the same instance.

The kernel sweep decides each candidate after an arrow's first verified one
by one equivalence test when ``canonical_zero_ideal`` or
``maximal_two_ideal`` built the ideal on the swept base and the base is
lawful.  On such inputs it finds the reference's presentations in the
reference's order, and spends the reference's ticks up to and including
each arrow's first verified candidate, then one tick per later candidate;
on a copy of the same ideal, which records nothing, it spends the
reference's ticks.  On mutants, where the sweep keeps the per-candidate
search, the shortcut is not sound.
"""

import dataclasses
import functools
import hashlib
from pathlib import Path

import pytest

from family import BANDED, CORE, THICK, ZERO_IDEALS
from twoexact import (
    Budget,
    CapExceeded,
    Certificate,
    CokernelPresentation,
    InputError,
    KernelPresentation,
    canonical_zero_ideal,
    chaotic_enrichment,
    is_two_kernel,
    kernel_factor,
    kernel_presentations_by_arrow,
    maximal_two_ideal,
    mutate,
    partial_bijections,
    reflects_null_morphisms,
    two_cokernels,
    two_kernels,
    validate_two_category,
    validate_two_ideal,
    weakly_reflects,
)
from twoexact.cli import main
from twoexact.closure import _reflection_conclusion, _weak_hypothesis
from twoexact.core import _fail
from twoexact.limits import (
    _check_kernel_candidate, _cone_comparison, _descent_comparison, _kernels,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _iso2(t, f, g):
    return tuple(a for a in t.hom2(f, g) if a in t.inverse2)


def reference_cone_factor(t, n, pres, z, beta):
    k = pres.leg
    for u in t.hom1(t.src1[z], pres.apex):
        ku = t.cmp1(k, u)
        for gamma in _iso2(t, z, ku):
            chi = _cone_comparison(t, n, pres, u, gamma, beta)
            if chi in n.null2 and t.is_invertible2(chi):
                return u, gamma
    return None


def reference_kernel_factor(t, n, pres, z, beta):
    found = reference_cone_factor(t, n, pres, z, beta)
    if found is None:
        raise InputError("cone does not factor")
    return found


def reference_is_two_kernel(t, n, pres, budget):
    name = "is_two_kernel"
    _check_kernel_candidate(t, n, pres)
    f, k = pres.arrow, pres.leg
    a = t.src1[f]
    for z_obj in t.objects:
        for z in t.hom1(z_obj, a):
            fz = t.cmp1(f, z)
            for nz in t.hom1(z_obj, t.tgt1[f]):
                if nz not in n.null1:
                    continue
                for beta in _iso2(t, fz, nz):
                    budget.tick()
                    if reference_cone_factor(t, n, pres, z, beta) is None:
                        return _fail(
                            name, "cone-factorization",
                            arrow=f, leg=k, cone=z, cone_null=nz, beta=beta)
    for z_obj in t.objects:
        us = t.hom1(z_obj, pres.apex)
        for u in us:
            ku = t.cmp1(k, u)
            for v in us:
                kv = t.cmp1(k, v)
                for lam in t.hom2(ku, kv):
                    budget.tick()
                    if _descent_comparison(t, n, pres, u, v, lam) not in n.null2:
                        continue
                    mus = [mu for mu in t.hom2(u, v) if t.lw(k, mu) == lam]
                    if len(mus) == 0:
                        return _fail(name, "descent-existence",
                                     arrow=f, leg=k, u=u, v=v, lam=lam)
                    if len(mus) > 1:
                        return _fail(name, "descent-uniqueness",
                                     arrow=f, leg=k, u=u, v=v, lam=lam,
                                     mus=mus[:2])
    return Certificate(name, "pass", witness={
        "arrow": f, "apex": pres.apex, "leg": k,
        "null_cell": pres.null_cell, "structure": pres.structure})


def reference_candidates(t, n, f):
    a, b = t.src1[f], t.tgt1[f]
    for apex in t.objects:
        for k in t.hom1(apex, a):
            fk = t.cmp1(f, k)
            for nc in t.hom1(apex, b):
                if nc not in n.null1:
                    continue
                for alpha in _iso2(t, fk, nc):
                    yield KernelPresentation(f, apex, k, nc, alpha)


def reference_two_kernels(t, n, f, budget):
    out = []
    for pres in reference_candidates(t, n, f):
        budget.tick()
        if reference_is_two_kernel(t, n, pres, budget).ok:
            out.append(pres)
    return tuple(out)


def reference_sweep(t, n, budget):
    return {f: reference_two_kernels(t, n, f, budget) for f in t.one_ids}


def reference_reflects_null_morphisms(t, n, k, budget):
    name = "reflects_null_morphisms"
    k_src, k_tgt = t.src1[k], t.tgt1[k]
    for d_obj in t.objects:
        for s in t.hom1(d_obj, k_src):
            ks = t.cmp1(k, s)
            for nc in t.hom1(d_obj, k_tgt):
                if nc not in n.null1:
                    continue
                for delta in _iso2(t, ks, nc):
                    budget.tick()
                    if _reflection_conclusion(t, n, k, s, delta) is None:
                        return _fail(name, "reflect-1cell",
                                     leg=k, cone=s, null=nc, delta=delta)
    return Certificate(name, "pass", witness={"leg": k})


def reference_weakly_reflects(t, n, pres, budget):
    name = "weakly_reflects"
    k = pres.leg
    k_src, k_tgt = t.src1[k], t.tgt1[k]
    for d_obj in t.objects:
        for s in t.hom1(d_obj, k_src):
            ks = t.cmp1(k, s)
            for nc in t.hom1(d_obj, k_tgt):
                if nc not in n.null1:
                    continue
                for delta in _iso2(t, ks, nc):
                    budget.tick()
                    hyp = _weak_hypothesis(t, n, pres, s, nc, delta)
                    if not n.is_invertible_null2(t, hyp):
                        continue
                    if _reflection_conclusion(t, n, k, s, delta) is None:
                        return _fail(name, "weak-reflect-1cell",
                                     leg=k, cone=s, null=nc, delta=delta)
    return Certificate(name, "pass", witness={
        "leg": k, "arrow": pres.arrow, "structure": pres.structure})


CH_PB2 = chaotic_enrichment(partial_bijections(2))

#: The chaotic pb2 with its 2-cells listed in reverse, so the iso targets
#: of a 1-cell come in the opposite order to the 1-cell table.
CH_PB2_REVERSED = dataclasses.replace(CH_PB2, two_cells=CH_PB2.two_cells[::-1])

#: Every core fixture with its canonical ideal, and the chaotic pb2, whose
#: 1-cells have several iso targets each (so the fibres are merged).
SEARCHED = {**{name: (t, ZERO_IDEALS[name]) for name, t in CORE.items()},
            "ch_pb2": (CH_PB2, canonical_zero_ideal(CH_PB2)),
            "ch_pb2_reversed": (CH_PB2_REVERSED,
                                canonical_zero_ideal(CH_PB2_REVERSED))}

CASES = [(name, side) for name in SEARCHED for side in ("plain", "dual")]
IDS = [f"{name}-{side}" for name, side in CASES]


def _case(name, side):
    t, n = SEARCHED[name]
    return (t, n) if side == "plain" else (t.dual, n.dual)


def _run(search, *args, cap=None):
    """The outcome of one search spending from a fresh budget: its result
    (a certificate as status, counterexample and witness) or the exception
    it raised, and the instances it spent."""
    budget = Budget(cap, "reference")
    try:
        out = search(*args, budget)
    except (CapExceeded, InputError) as exc:
        out = type(exc).__name__
    if isinstance(out, Certificate):
        out = (out.status, out.counterexample, out.witness)
    return out, budget.spent


def _spending(search, **kwargs):
    """``search`` taking its budget as the last positional argument, as the
    reference functions do."""
    return lambda *args: search(*args[:-1], _budget=args[-1], **kwargs)


SWEEP = _spending(kernel_presentations_by_arrow)


def _assert_same(search, reference, *args):
    """Same outcome and spending, uncapped and cut off halfway."""
    got = _run(search, *args)
    assert got == _run(reference, *args)
    half = got[1] // 2
    if half:
        assert _run(search, *args, cap=half) \
            == _run(reference, *args, cap=half)


@functools.cache
def _kernel_table(name, side):
    t, n = _case(name, side)
    return {f: reference_two_kernels(t, n, f, Budget(None, "reference"))
            for f in t.one_ids}


@pytest.mark.parametrize("name, side", CASES, ids=IDS)
def test_two_kernels_match_the_reference(name, side):
    t, n = _case(name, side)
    for f in t.one_ids:
        _assert_same(_spending(two_kernels), reference_two_kernels, t, n, f)
    assert {f: two_kernels(t, n, f) for f in t.one_ids} \
        == _kernel_table(name, side)


@pytest.mark.parametrize("name, side", CASES, ids=IDS)
def test_two_cokernels_match_the_reference(name, side):
    t, n = _case(name, side)
    dual = "dual" if side == "plain" else "plain"
    for f in t.one_ids:
        assert two_cokernels(t, n, f) == tuple(
            CokernelPresentation(p.arrow, p.apex, p.leg, p.null_cell,
                                 p.structure)
            for p in _kernel_table(name, dual)[f])
        budget, ref = Budget(None, "cokernels"), Budget(None, "reference")
        two_cokernels(t, n, f, _budget=budget)
        reference_two_kernels(t.dual, n.dual, f, ref)
        assert budget.spent == ref.spent


@pytest.mark.parametrize("name, side", CASES, ids=IDS)
def test_every_candidate_checks_as_the_reference(name, side):
    # failing candidates included: the first failure must be the same one
    t, n = _case(name, side)
    for f in t.one_ids:
        for pres in reference_candidates(t, n, f):
            _assert_same(_spending(is_two_kernel), reference_is_two_kernel,
                         t, n, pres)


@pytest.mark.parametrize("name, side", CASES, ids=IDS)
def test_kernel_factor_matches_the_reference(name, side):
    t, n = _case(name, side)
    for f, kernels in _kernel_table(name, side).items():
        cones = t.null_cones(n.null1, f)
        for pres in kernels:
            for z, _, beta in cones:
                assert kernel_factor(t, n, pres, z, beta) \
                    == reference_kernel_factor(t, n, pres, z, beta)


@pytest.mark.parametrize("name, side", CASES, ids=IDS)
def test_reflection_matches_the_reference(name, side):
    t, n = _case(name, side)
    for k in t.one_ids:
        _assert_same(_spending(reflects_null_morphisms),
                     reference_reflects_null_morphisms, t, n, k)
    for kernels in _kernel_table(name, side).values():
        for pres in kernels:
            _assert_same(_spending(weakly_reflects, _verified=True),
                         reference_weakly_reflects, t, n, pres)


def reference_gated_spending(t, n, f, budget):
    """The spending of the search by equivalence, from the reference: its
    ticks up to and including the first verified candidate, then one tick
    per later candidate."""
    found = False
    for pres in reference_candidates(t, n, f):
        budget.tick()
        if not found:
            found = reference_is_two_kernel(t, n, pres, budget).ok


#: Lawful inputs with lawful ideals of identity replacements: the searched
#: inputs, the banded family and the thickened family, each with its
#: maximal ideal and, where it has a bizero object, its canonical ideal.
LAWFUL = {
    **{(name, "canonical"): (t, n) for name, (t, n) in SEARCHED.items()},
    **{(name, "maximal"): (t, maximal_two_ideal(t))
       for name, (t, _) in SEARCHED.items()},
    **{(name, "maximal"): (t, maximal_two_ideal(t))
       for name, t in BANDED.items()},
    **{(name, ideal): (t, build(t)) for name, (t, _) in THICK.items()
       for ideal, build in (("canonical", canonical_zero_ideal),
                            ("maximal", maximal_two_ideal))},
}


def _mutants():
    """``retarget-vcomp`` mutants of a chaotic and a thickened base, with
    their canonical ideals where they keep a bizero object; and
    ``drop-null-2cell`` mutants of the maximal ideal of ch_pb1 and of the
    canonical ideals of two thickened bases."""
    th_pb1, th_ct22 = THICK["th2_pb1"][0], THICK["th2_ct22"][0]
    for name, t in (("ch_pb1", CORE["ch_pb1"]), ("th2_pb1", th_pb1)):
        for seed in (0, 5, 10, 30):
            mutant = mutate(t, "retarget-vcomp", seed)
            try:
                n = canonical_zero_ideal(mutant)
            except InputError:
                n = canonical_zero_ideal(t)
            yield ("retarget-vcomp", name, seed), (mutant, n)
    for name, t, n in (
            ("ch_pb1", CORE["ch_pb1"], maximal_two_ideal(CORE["ch_pb1"])),
            ("th2_pb1", th_pb1, canonical_zero_ideal(th_pb1)),
            ("th2_ct22", th_ct22, canonical_zero_ideal(th_ct22))):
        for seed in (3, 18, 24, 40):
            yield (("drop-null-2cell", name, seed),
                   (t, mutate((t, n), "drop-null-2cell", seed)))


#: Mutants that the gate keeps on the per-candidate search: a base that
#: fails its law check, or an ideal other than the canonical one.
MUTANTS = dict(_mutants())

GATED_CASES = [(name, ideal, side) for name, ideal in LAWFUL
               for side in ("plain", "dual")]


@pytest.mark.parametrize("name, ideal, side", GATED_CASES,
                         ids=[f"{n}-{i}-{s}" for n, i, s in GATED_CASES])
def test_two_kernels_by_equivalence_match_the_reference(name, ideal, side):
    t, n = LAWFUL[(name, ideal)]
    t, n = (t, n) if side == "plain" else (t.dual, n.dual)
    assert n.built_on is t
    reference, gated = Budget(None, "reference"), Budget(None, "reference")
    want = reference_sweep(t, n, reference)
    for f in t.one_ids:
        reference_gated_spending(t, n, f, gated)
    assert _run(SWEEP, t, n) == (want, gated.spent)
    if gated.spent // 2:
        assert _run(SWEEP, t, n, cap=gated.spent // 2)[0] == "CapExceeded"
    # a copy records nothing, so it gets the per-candidate search
    assert _run(SWEEP, t, dataclasses.replace(n)) == (want, reference.spent)


@pytest.mark.parametrize("operator, name, seed", MUTANTS,
                         ids=[f"{o}-{n}-{s}" for o, n, s in MUTANTS])
def test_mutants_keep_the_per_candidate_search(operator, name, seed):
    t, n = MUTANTS[(operator, name, seed)]
    if operator == "retarget-vcomp":
        assert not validate_two_category(t).ok
    else:
        assert not validate_two_ideal(t, n).ok
    for tt, nn in ((t, n), (t.dual, n.dual)):
        for f in tt.one_ids:
            _assert_same(_spending(two_kernels), reference_two_kernels,
                         tt, nn, f)


def test_the_shortcut_needs_its_gate():
    # forced on some mutants of each operator, the search by equivalence
    # finds other presentations than the reference; the public sweep keeps
    # the per-candidate search on every mutant and its dual
    def forced(t, n, f, budget):
        return _kernels(t, n, f, budget, True)

    moved = {operator for (operator, _, _), (t, n) in MUTANTS.items()
             if any(_run(forced, t, n, f)[0]
                    != _run(reference_two_kernels, t, n, f)[0]
                    for f in t.one_ids)}
    assert moved == {"retarget-vcomp", "drop-null-2cell"}
    for t, n in MUTANTS.values():
        for tt, nn in ((t, n), (t.dual, n.dual)):
            _assert_same(SWEEP, reference_sweep, tt, nn)


#: The capped searches on ps2 and pb3: per (fixture, command, cap), the exit
#: code and the sha256 of the stdout lines after the header (which names the
#: input path).  The caps cut the searches off at different instances, so
#: these pin where each cut falls as well as the results.  The Puppe modes
#: decide later kernel candidates by equivalence, so on pb3 a cap of 20000
#: now lets them finish, with the uncapped bytes.  So does ``check-closed``,
#: whose sweeps take the same path on the canonical ideal the program
#: builds (it read ``(3, "b2ac5442…eb0d")`` with a check per candidate).
CAPPED_SHA256 = {
    ("ps2", "kernel", 1):
        (3, "0b7e6140259aa3c75fdaa99dcbb0442b74542f1208c384141668171a2932e570"),
    ("ps2", "kernel", 50):
        (3, "bff7e084ab2bb688dd6d5ed481285570ea82dd67649f7c8f5107e935b35bc808"),
    ("ps2", "kernel", 1000):
        (0, "a62612ac7cc225cba77e2c2965cf513d395b8ab2c3d2718bf5ce4975e5953818"),
    ("ps2", "kernel", 20000):
        (0, "a62612ac7cc225cba77e2c2965cf513d395b8ab2c3d2718bf5ce4975e5953818"),
    ("ps2", "cokernel", 1):
        (3, "0b7e6140259aa3c75fdaa99dcbb0442b74542f1208c384141668171a2932e570"),
    ("ps2", "cokernel", 50):
        (3, "bff7e084ab2bb688dd6d5ed481285570ea82dd67649f7c8f5107e935b35bc808"),
    ("ps2", "cokernel", 1000):
        (0, "4cf0b7ac741836e33cf5ae894fd2a8683505a11b9bbab980a118477e0b495ae6"),
    ("ps2", "cokernel", 20000):
        (0, "4cf0b7ac741836e33cf5ae894fd2a8683505a11b9bbab980a118477e0b495ae6"),
    ("ps2", "check-closed", 1):
        (3, "fa550e466d174fa69695839831cbda49b80e6b18a06aef0458e57f24e275cc25"),
    ("ps2", "check-closed", 50):
        (3, "17eb2d0ccf42d64382c2db5141d465a65f77c2b56ea6d43ae91bfc1e06cd861c"),
    ("ps2", "check-closed", 1000):
        (3, "ddf4e3237e88a73192ca024e7aedfab3f14cb8684d6787a217c16252be948644"),
    ("ps2", "check-closed", 20000):
        (0, "d72f2f69b6f4820b65271f6eb92503fa69eed17d6450a4ab567132eab8e15b64"),
    ("ps2", "check-exact --mode puppe", 1):
        (3, "b2d0fc30df85ea4fbdc117b4325ae94ae8e3514fb76db10f5acebb4e93ef470e"),
    ("ps2", "check-exact --mode puppe", 50):
        (3, "d5bbd0b4f67788209c20824049f9e0be9ff308f17144367fbad8cc6c30e58fb6"),
    ("ps2", "check-exact --mode puppe", 1000):
        (3, "4f3e5165ed7ca3228c6e0cd4e1f71190a55d5ca374b8d2d2fb4fba005602aa49"),
    ("ps2", "check-exact --mode puppe", 20000):
        (1, "96e9e24c198d2d2b2305b52d4e44180bdba4109304237a34ba002e5791bc04e0"),
    ("ps2", "check-exact --mode weak-puppe", 1):
        (3, "4f983d76b7fd8b3355b8e60d80667083405218fb9dda7ae64c216431155cce79"),
    ("ps2", "check-exact --mode weak-puppe", 50):
        (3, "c63f4763fc8159d109cd46307f7a0841d71da385a6555baf4f227509daa304c2"),
    ("ps2", "check-exact --mode weak-puppe", 1000):
        (3, "1b617567253541b707550e1e79a4025755e892a2ef057e0c8cb59a8b896d20e8"),
    ("ps2", "check-exact --mode weak-puppe", 20000):
        (1, "bea26b99799d354a28c454499478e391a6a0d3849cc6e909bd277bcf24358db8"),
    ("pb3", "kernel", 1):
        (3, "0b7e6140259aa3c75fdaa99dcbb0442b74542f1208c384141668171a2932e570"),
    ("pb3", "kernel", 50):
        (3, "bff7e084ab2bb688dd6d5ed481285570ea82dd67649f7c8f5107e935b35bc808"),
    ("pb3", "kernel", 1000):
        (0, "e0426af7b0f0413bf17628993f69f1c1635ea6294a4c87cc7b03963e4e8a47cd"),
    ("pb3", "kernel", 20000):
        (0, "e0426af7b0f0413bf17628993f69f1c1635ea6294a4c87cc7b03963e4e8a47cd"),
    ("pb3", "cokernel", 1):
        (3, "0b7e6140259aa3c75fdaa99dcbb0442b74542f1208c384141668171a2932e570"),
    ("pb3", "cokernel", 50):
        (3, "bff7e084ab2bb688dd6d5ed481285570ea82dd67649f7c8f5107e935b35bc808"),
    ("pb3", "cokernel", 1000):
        (0, "6c2a1c3053be93024c47885fd5bb6b6c703603faedabe036cbc7ddd00d2aa20b"),
    ("pb3", "cokernel", 20000):
        (0, "6c2a1c3053be93024c47885fd5bb6b6c703603faedabe036cbc7ddd00d2aa20b"),
    ("pb3", "check-closed", 1):
        (3, "fa550e466d174fa69695839831cbda49b80e6b18a06aef0458e57f24e275cc25"),
    ("pb3", "check-closed", 50):
        (3, "17eb2d0ccf42d64382c2db5141d465a65f77c2b56ea6d43ae91bfc1e06cd861c"),
    ("pb3", "check-closed", 1000):
        (3, "ddf4e3237e88a73192ca024e7aedfab3f14cb8684d6787a217c16252be948644"),
    ("pb3", "check-closed", 20000):
        (0, "07f9c37b36a4a27a944fc0a14f9148cbaf5ab83ae30ae595fcd1d5c21fac5fef"),
    ("pb3", "check-exact --mode puppe", 1):
        (3, "b2d0fc30df85ea4fbdc117b4325ae94ae8e3514fb76db10f5acebb4e93ef470e"),
    ("pb3", "check-exact --mode puppe", 50):
        (3, "d5bbd0b4f67788209c20824049f9e0be9ff308f17144367fbad8cc6c30e58fb6"),
    ("pb3", "check-exact --mode puppe", 1000):
        (3, "4f3e5165ed7ca3228c6e0cd4e1f71190a55d5ca374b8d2d2fb4fba005602aa49"),
    ("pb3", "check-exact --mode puppe", 20000):
        (0, "876b3562692cd6798c186f772125d987faad1b34424ada1ee6658926103278e3"),
    ("pb3", "check-exact --mode weak-puppe", 1):
        (3, "4f983d76b7fd8b3355b8e60d80667083405218fb9dda7ae64c216431155cce79"),
    ("pb3", "check-exact --mode weak-puppe", 50):
        (3, "c63f4763fc8159d109cd46307f7a0841d71da385a6555baf4f227509daa304c2"),
    ("pb3", "check-exact --mode weak-puppe", 1000):
        (3, "1b617567253541b707550e1e79a4025755e892a2ef057e0c8cb59a8b896d20e8"),
    ("pb3", "check-exact --mode weak-puppe", 20000):
        (0, "f71c7bbc8de737bbdd6d3792cb688c1c345e16fd491207812800ba09ee6a2cde"),
}

#: The kernel and cokernel commands' arrow: the 1-cell whose searches spend
#: the most.
CAPPED_ARROW = {"ps2": "m14_2to2_00", "pb3": "m56_3to3_e"}


def _pinned(capsys, fixture, command, cap=None):
    """The exit code and the sha256 of the stdout after the header."""
    path = str(FIXTURE_DIR / f"{fixture}.2cat.json")
    arrow = [CAPPED_ARROW[fixture]] if command in ("kernel", "cokernel") else []
    capped = [] if cap is None else ["--cap", str(cap)]
    code = main(command.split() + [path, *arrow, *capped])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.split("\n", 1)[1].encode()).hexdigest()


@pytest.mark.parametrize("fixture, command, cap", CAPPED_SHA256,
                         ids=[f"{f} {c} {n}" for f, c, n in CAPPED_SHA256])
def test_capped_search_output_is_pinned(capsys, fixture, command, cap):
    assert _pinned(capsys, fixture, command, cap) \
        == CAPPED_SHA256[(fixture, command, cap)]


@pytest.mark.parametrize("command", ["check-closed", "check-exact --mode puppe",
                                     "check-exact --mode weak-puppe"])
def test_the_pb3_runs_that_finish_at_20000_print_the_uncapped_bytes(
        capsys, command):
    assert _pinned(capsys, "pb3", command) \
        == CAPPED_SHA256[("pb3", command, 20000)]
