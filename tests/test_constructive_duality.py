"""The constructive side against the hand-mirrored builders it replaced.

``fs_from_ideal`` builds the cokernel functor and the unit as the kernel
functor and the counit on the 1-cell duals.  The four builders below are
the earlier hand-written ones, kept verbatim as the reference: on every
bundle they give the same tables, in the same order, and every cell they
name is the declared id object of its pseudo-arrow 2-category.
"""

import pytest

from family import CH_PB1, LD_CT22, LD_PB1, LD_PB2
from twoexact import (
    ArrowTwoCategory,
    CokernelPresentation,
    InputError,
    KernelPresentation,
    PseudoFunctor,
    PseudoNatural,
    TwoCategory,
    TwoIdeal,
    arrow_subcat,
    canonical_zero_ideal,
    cokernel_factor,
    cokernel_presentations_by_arrow,
    compose_pseudofunctors,
    cyclic_tower,
    fs_from_ideal,
    identity_pseudofunctor,
    kernel_factor,
    kernel_presentations_by_arrow,
    locally_discrete,
    pseudofunctors_equal,
    solve_lwhisker,
    solve_rwhisker,
)
from twoexact import exact
from twoexact.exact import _sides

# ---------------------------------------------------------------------------
# the reference: the four mirrored builders, verbatim
# ---------------------------------------------------------------------------

def _first_with_leg(presentations, leg: str):
    for p in presentations:
        if p.leg == leg:
            return p
    return None


def _kernel_functor(t: TwoCategory, n: TwoIdeal, e_arrow: ArrowTwoCategory,
                    m_arrow: ArrowTwoCategory,
                    chosen: dict[str, KernelPresentation]) -> PseudoFunctor:
    """The kernel functor from the left pseudo-arrow 2-category to the right
    one: objects go to chosen kernel legs, squares to the induced comparison
    squares, 2-cells and compositors to the unique cells solving the
    faithfulness equations."""
    cat = e_arrow.cat
    ob = {e: chosen[e].leg for e in e_arrow.members}
    identity_squares = set(cat.id1.values())
    one: dict[str, str] = {}
    for sid in cat.one_ids:
        e, e2 = cat.src1[sid], cat.tgt1[sid]
        if sid in identity_squares:
            one[sid] = m_arrow.cat.id1[ob[e]]
            continue
        a, b, phi = e_arrow.square(sid)
        pres, pres2 = chosen[e], chosen[e2]
        k_e = pres.leg
        z = t.cmp1(a, k_e)
        _, nu = n.repl(t.id1[t.src1[pres.null_cell]], pres.null_cell, b)
        beta = t.vc_chain(nu, t.lw(b, pres.structure), t.rw(phi, k_e))
        w_hat, gamma = kernel_factor(t, n, pres2, z, beta)
        one[sid] = m_arrow.intern_square(
            ob[e], ob[e2], w_hat, a, t.inv(gamma))

    two: dict[str, str] = {}
    for tid in cat.two_ids:
        sid, sid2 = cat.src2[tid], cat.tgt2[tid]
        sigma, _ = e_arrow.pair(tid)
        img, img2 = one[sid], one[sid2]
        w_hat, _, psi = m_arrow.square(img)
        w_hat2, _, psi2 = m_arrow.square(img2)
        leg2 = chosen[cat.tgt1[sid]].leg
        k_e = chosen[cat.src1[sid]].leg
        needed = t.vc_chain(t.inv(psi2), t.rw(sigma, k_e), psi)
        mu = solve_lwhisker(t, leg2, w_hat, w_hat2, needed)
        two[tid] = m_arrow.intern_pair(img, img2, mu, sigma)

    compositor: dict[tuple[str, str], str] = {}
    for (sid2, sid1), sid12 in cat.comp1.items():
        img_comp = m_arrow.cat.comp1[(one[sid2], one[sid1])]
        img_tgt = one[sid12]
        u_comp, v_comp, psi_comp = m_arrow.square(img_comp)
        u_tgt, _, psi_tgt = m_arrow.square(img_tgt)
        leg2 = chosen[cat.tgt1[sid2]].leg
        kappa = solve_lwhisker(t, leg2, u_comp, u_tgt,
                               t.vc(t.inv(psi_tgt), psi_comp))
        compositor[(sid2, sid1)] = m_arrow.intern_pair(
            img_comp, img_tgt, kappa, t.id2[v_comp])

    return PseudoFunctor(source=cat, target=m_arrow.cat,
                         ob=ob, one=one, two=two, compositor=compositor)


def _cokernel_functor(t: TwoCategory, n: TwoIdeal, m_arrow: ArrowTwoCategory,
                      e_arrow: ArrowTwoCategory,
                      chosen: dict[str, CokernelPresentation]
                      ) -> PseudoFunctor:
    """Mirror of :func:`_kernel_functor`: objects go to chosen cokernel legs,
    with the unique cells solved along cofaithful legs."""
    cat = m_arrow.cat
    ob = {m: chosen[m].leg for m in m_arrow.members}
    identity_squares = set(cat.id1.values())
    one: dict[str, str] = {}
    for sid in cat.one_ids:
        m, m2 = cat.src1[sid], cat.tgt1[sid]
        if sid in identity_squares:
            one[sid] = e_arrow.cat.id1[ob[m]]
            continue
        u, v, psi = m_arrow.square(sid)
        pres, pres2 = chosen[m], chosen[m2]
        c_m2 = pres2.leg
        z = t.cmp1(c_m2, v)
        _, nu = n.repl(u, pres2.null_cell, t.id1[t.tgt1[pres2.null_cell]])
        beta = t.vc_chain(nu, t.rw(pres2.structure, u),
                          t.lw(c_m2, t.inv(psi)))
        b_hat, gamma = cokernel_factor(t, n, pres, z, beta)
        one[sid] = e_arrow.intern_square(
            ob[m], ob[m2], v, b_hat, gamma)

    two: dict[str, str] = {}
    for tid in cat.two_ids:
        sid, sid2 = cat.src2[tid], cat.tgt2[tid]
        _, mu_v = m_arrow.pair(tid)
        img, img2 = one[sid], one[sid2]
        _, b_hat, chi = e_arrow.square(img)
        _, b_hat2, chi2 = e_arrow.square(img2)
        c_m = chosen[cat.src1[sid]].leg
        c_m2 = chosen[cat.tgt1[sid]].leg
        needed = t.vc_chain(chi2, t.lw(c_m2, mu_v), t.inv(chi))
        kappa = solve_rwhisker(t, c_m, b_hat, b_hat2, needed)
        two[tid] = e_arrow.intern_pair(img, img2, mu_v, kappa)

    compositor: dict[tuple[str, str], str] = {}
    for (sid2, sid1), sid12 in cat.comp1.items():
        img_comp = e_arrow.cat.comp1[(one[sid2], one[sid1])]
        img_tgt = one[sid12]
        v_comp, b_comp, chi_comp = e_arrow.square(img_comp)
        _, b_tgt, chi_tgt = e_arrow.square(img_tgt)
        c_m = chosen[cat.src1[sid1]].leg
        kappa = solve_rwhisker(t, c_m, b_comp, b_tgt,
                               t.vc(chi_tgt, t.inv(chi_comp)))
        compositor[(sid2, sid1)] = e_arrow.intern_pair(
            img_comp, img_tgt, t.id2[v_comp], kappa)

    return PseudoFunctor(source=cat, target=e_arrow.cat,
                         ob=ob, one=one, two=two, compositor=compositor)


def _unit(t: TwoCategory, n: TwoIdeal, e_arrow: ArrowTwoCategory,
          k: PseudoFunctor, c: PseudoFunctor,
          chosen_kernel: dict[str, KernelPresentation],
          chosen_cokernel: dict[str, CokernelPresentation],
          cokernels) -> PseudoNatural:
    """The unit: at each left-class member ``e``, the comparison square from
    ``e`` to the chosen cokernel of its chosen kernel, induced by ``e``'s
    own presentation as a cokernel of its kernel."""
    cat = e_arrow.cat
    ck = compose_pseudofunctors(c, k)
    component: dict[str, str] = {}
    for e in e_arrow.members:
        k_e = chosen_kernel[e].leg
        own = _first_with_leg(cokernels[k_e], e)
        if own is None:
            raise InputError(f"precondition failure: {e} is not exhibited "
                             f"as a cokernel of its kernel {k_e}")
        target_pres = chosen_cokernel[k_e]
        u_prime, gamma = cokernel_factor(t, n, own, target_pres.leg,
                                         target_pres.structure)
        component[e] = e_arrow.intern_square(
            e, target_pres.leg, t.id1[t.src1[e]], u_prime, gamma)
        assert ck.ob[e] == target_pres.leg

    structure: dict[str, str] = {}
    identity_squares = set(cat.id1.values())
    for sid in cat.one_ids:
        e, e2 = cat.src1[sid], cat.tgt1[sid]
        if sid in identity_squares:
            structure[sid] = cat.id2[component[e]]
            continue
        lhs = cat.comp1[(ck.one[sid], component[e])]
        rhs = cat.comp1[(component[e2], sid)]
        a_l, b_l, phi_l = e_arrow.square(lhs)
        _, b_r, phi_r = e_arrow.square(rhs)
        tau = solve_rwhisker(t, e, b_l, b_r, t.vc(phi_r, t.inv(phi_l)))
        structure[sid] = e_arrow.intern_pair(lhs, rhs, t.id2[a_l], tau)

    return PseudoNatural(source_functor=identity_pseudofunctor(cat),
                         target_functor=ck, component=component,
                         structure=structure, claims_equivalences=True)


def _counit(t: TwoCategory, n: TwoIdeal, m_arrow: ArrowTwoCategory,
            k: PseudoFunctor, c: PseudoFunctor,
            chosen_kernel: dict[str, KernelPresentation],
            chosen_cokernel: dict[str, CokernelPresentation],
            kernels) -> PseudoNatural:
    """The counit: at each right-class member ``m``, the comparison square
    from the chosen kernel of its chosen cokernel down to ``m``, induced by
    ``m``'s own presentation as a kernel of its cokernel."""
    cat = m_arrow.cat
    kc = compose_pseudofunctors(k, c)
    component: dict[str, str] = {}
    for m in m_arrow.members:
        c_m = chosen_cokernel[m].leg
        own = _first_with_leg(kernels[c_m], m)
        if own is None:
            raise InputError(f"precondition failure: {m} is not exhibited "
                             f"as a kernel of its cokernel {c_m}")
        source_pres = chosen_kernel[c_m]
        u_hat, gamma = kernel_factor(t, n, own, source_pres.leg,
                                     source_pres.structure)
        component[m] = m_arrow.intern_square(
            source_pres.leg, m, u_hat, t.id1[t.tgt1[m]], t.inv(gamma))
        assert kc.ob[m] == source_pres.leg

    structure: dict[str, str] = {}
    identity_squares = set(cat.id1.values())
    for sid in cat.one_ids:
        m, m2 = cat.src1[sid], cat.tgt1[sid]
        if sid in identity_squares:
            structure[sid] = cat.id2[component[m]]
            continue
        lhs = cat.comp1[(sid, component[m])]
        rhs = cat.comp1[(component[m2], kc.one[sid])]
        u_l, v_l, phi_l = m_arrow.square(lhs)
        u_r, _, phi_r = m_arrow.square(rhs)
        sigma = solve_lwhisker(t, m2, u_l, u_r, t.vc(t.inv(phi_r), phi_l))
        structure[sid] = m_arrow.intern_pair(lhs, rhs, sigma, t.id2[v_l])

    return PseudoNatural(source_functor=kc,
                         target_functor=identity_pseudofunctor(cat),
                         component=component, structure=structure,
                         claims_equivalences=True)


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

BASES = {
    "ld_pb1": LD_PB1,
    "ld_pb2": LD_PB2,
    "ld_ct22": LD_CT22,
    "ch_pb1": CH_PB1,
    "ld_ct23": locally_discrete(cyclic_tower(2, 3)),
}


def _reference(t, n, fs):
    e_arrow = arrow_subcat(t, fs.left_class)
    m_arrow = arrow_subcat(t, fs.right_class)
    kernels = kernel_presentations_by_arrow(t, n)
    cokernels = cokernel_presentations_by_arrow(t, n)
    chosen_kernel = {f: kernels[f][0] for f in t.one_ids}
    chosen_cokernel = {f: cokernels[f][0] for f in t.one_ids}
    k = _kernel_functor(t, n, e_arrow, m_arrow, chosen_kernel)
    c = _cokernel_functor(t, n, m_arrow, e_arrow, chosen_cokernel)
    eta = _unit(t, n, e_arrow, k, c, chosen_kernel, chosen_cokernel,
                cokernels)
    epsilon = _counit(t, n, m_arrow, k, c, chosen_kernel, chosen_cokernel,
                      kernels)
    return k, c, eta, epsilon


@pytest.fixture(scope="module", params=sorted(BASES))
def built(request):
    t = BASES[request.param]
    n = canonical_zero_ideal(t)
    fs, *made = fs_from_ideal(t, n)
    return made, _reference(t, n, fs)


def _assert_declared(cat, ids):
    declared = {i: i for i in (*cat.objects, *cat.one_ids, *cat.two_ids)}
    for i in ids:
        assert i is declared[i], i


def _items(table):
    return list(table.items())


@pytest.mark.parametrize("which", [0, 1], ids=["kernel", "cokernel"])
def test_functors_match_the_mirrored_builders(built, which):
    func, ref = built[0][which], built[1][which]
    assert func.source is ref.source and func.target is ref.target
    for table in ("ob", "one", "two", "compositor"):
        assert _items(getattr(func, table)) == _items(getattr(ref, table)), \
            table
    _assert_declared(func.source, [*func.ob, *func.one, *func.two,
                                   *(x for gf in func.compositor for x in gf)])
    _assert_declared(func.target, [*func.ob.values(), *func.one.values(),
                                   *func.two.values(),
                                   *func.compositor.values()])


@pytest.mark.parametrize("which", [2, 3], ids=["unit", "counit"])
def test_transformations_match_the_mirrored_builders(built, which):
    nat, ref = built[0][which], built[1][which]
    for table in ("component", "structure"):
        assert _items(getattr(nat, table)) == _items(getattr(ref, table)), \
            table
    for end in ("source_functor", "target_functor"):
        assert pseudofunctors_equal(getattr(nat, end), getattr(ref, end))
        assert getattr(nat, end).source is getattr(ref, end).source
    assert nat.claims_equivalences is ref.claims_equivalences
    cat = nat.source_functor.source
    _assert_declared(cat, [*nat.component, *nat.structure,
                           *nat.component.values(),
                           *nat.structure.values()])


@pytest.mark.parametrize("name", sorted(BASES))
def test_dual_sides_read_squares_of_the_dual_base(name):
    # each side's squares and pairs satisfy the square and coherence laws
    # of its own base: the dual side reads squares and pairs of the dual
    # base, under the ids of the original
    t = BASES[name]
    fs = fs_from_ideal(t, canonical_zero_ideal(t))[0]
    for members in (fs.left_class, fs.right_class):
        arrow = arrow_subcat(t, members)
        cat = arrow.cat
        for side, base in zip(_sides(arrow), (t, t.dual)):
            assert side.cat is cat and side.base is base
            for sid, (a, b, phi) in side.squares.items():
                f, g = side.src1[sid], side.tgt1[sid]
                assert (base.src2[phi], base.tgt2[phi]) == (
                    base.cmp1(g, a), base.cmp1(b, f))
                assert side.square_ids[(f, g, a, b, phi)] is sid
            for tid, (sigma, tau) in side.pairs.items():
                lo, hi = cat.src2[tid], cat.tgt2[tid]
                f, g = side.src1[lo], side.tgt1[lo]
                phi, phi2 = side.squares[lo][2], side.squares[hi][2]
                assert base.vc(phi2, base.lw(g, sigma)) == base.vc(
                    base.rw(tau, f), phi)
                assert side.pair_ids[(lo, hi, sigma, tau)] is tid


def test_each_lift_is_solved_once(monkeypatch):
    # every 2-cell image, compositor and structure cell is a lift, memoized
    # on its side: fs_from_ideal on pb2 solves each distinct lift once (354
    # of them), where a solve per table entry made 11,920 calls
    solves, lifts = [], set()
    solve, lift = exact.solve_lwhisker, exact._lift

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    def recorded_lift(side, *key):
        lifts.add((id(side), *key))
        return lift(side, *key)

    monkeypatch.setattr(exact, "solve_lwhisker", counted_solve)
    monkeypatch.setattr(exact, "_lift", recorded_lift)
    fs_from_ideal(LD_PB2, canonical_zero_ideal(LD_PB2))
    assert len(solves) == len(lifts) == 354
