import random

import pytest

from periodic_kl.laurent import LaurentPoly, ONE, V, VINV, ZERO
from periodic_kl.orders import standard_window
from periodic_kl.periodic import PeriodicModule
from periodic_kl.rootdata import Weight
from oracles import class_support_below_lead, inversion_sum_per_pair, koszul_of_series_per_pair


def test_action_examples(a1):
    M, W = a1.module, a1.group
    e, s = W.identity(), W.simple_reflection(0)
    # s lies below e, so acting on B_e picks up the (v^{-1} - v) term
    r = M.act_gen(M.basis(e), 1)
    assert r.coefficient(s) == ONE and r.coefficient(e) == VINV - V
    # upward case: B_s . H_s = B_e
    r2 = M.act_gen(M.basis(s), 1)
    assert r2 == M.basis(e)


DATA = ["a1", "a2", "a3", "b2", "c2", "g2"]
# The periodic module, and the Hecke algebra as its own regular module.
MODULES = ["module", "hecke"]


@pytest.mark.parametrize("datum", DATA)
@pytest.mark.parametrize("which", MODULES)
def test_action_satisfies_quadratic_relation(request, datum, which):
    ctx = request.getfixturevalue(datum)
    M, W = getattr(ctx, which), ctx.group
    rng = random.Random(0)
    elts = list(W.elements_of_length_leq(3))
    for _ in range(10):
        terms = {x: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)}) for x in rng.sample(elts, 3)}
        m = M.from_terms(terms)
        for j in W.affine_generator_indices():
            lhs = M.act_gen(M.act_gen(m, j), j)
            rhs = m + M.act_gen(m, j).scale(VINV - V)
            assert lhs == rhs


@pytest.mark.parametrize("datum", DATA)
@pytest.mark.parametrize("which", MODULES)
def test_action_satisfies_braid_relations(request, datum, which):
    ctx = request.getfixturevalue(datum)
    M, W = getattr(ctx, which), ctx.group
    rng = random.Random(1)
    elts = list(W.elements_of_length_leq(2))
    for i in W.affine_generator_indices():
        for j in W.affine_generator_indices():
            if i >= j:
                continue
            m_ord = _braid_order(W, i, j)
            if m_ord is None:
                continue
            for _ in range(4):
                terms = {x: LaurentPoly({rng.randint(-1, 1): 1}) for x in rng.sample(elts, 2)}
                m = M.from_terms(terms)
                assert _act_alternating(M, m, i, j, m_ord) == _act_alternating(M, m, j, i, m_ord)


def _braid_order(W, i, j, cap=8):
    prod = W.multiply(W.affine_generator(i), W.affine_generator(j))
    cur = prod
    for m in range(1, cap + 1):
        if cur == W.identity():
            return m
        cur = W.multiply(cur, prod)
    return None


def _act_alternating(M, m, i, j, order):
    gens = [i, j]
    for k in range(order):
        m = M.act_gen(m, gens[k % 2])
    return m


@pytest.mark.parametrize("datum", DATA)
def test_action_module_over_algebra(request, datum):
    # acting by a product equals acting twice (uses reduced-word expansion)
    ctx = request.getfixturevalue(datum)
    M, W, H = ctx.module, ctx.group, ctx.hecke
    rng = random.Random(2)
    elts = list(W.elements_of_length_leq(3))
    for _ in range(10):
        m = M.from_terms({x: ONE for x in rng.sample(elts, 2)})
        h1 = H.basis(rng.choice(elts))
        h2 = H.basis(rng.choice(elts))
        assert M.act_hecke(M.act_hecke(m, h1), h2) == M.act_hecke(m, H.multiply(h1, h2))


def test_e_element_examples(a1, a2):
    M1, W1 = a1.module, a1.group
    e0 = M1.e_element(Weight((0,)))
    assert e0.coefficient(W1.identity()) == ONE
    assert e0.coefficient(W1.simple_reflection(0)) == V
    assert len(e0.terms) == 2

    M2 = a2.module
    e0 = M2.e_element(Weight((0, 0)))
    exps = sorted(next(iter(p.coeffs)) for p in e0.terms.values())
    assert exps == [0, 1, 1, 2, 2, 3]

    lam = Weight((2, -1))
    assert M2.e_element(lam) == M2.shift(M2.e_element(Weight((0, 0))), lam)


def test_e_element_eigenproperty_finite_generators(a2):
    M, W = a2.module, a2.group
    lam = Weight((1, 0))
    el = M.e_element(lam)
    for j in range(1, W.num_affine_gens):
        assert M.act_cs(el, j) == el.scale(V + VINV)


def test_selfdual_base_case(a1):
    M, W = a1.module, a1.group
    e, s = W.identity(), W.simple_reflection(0)
    sd = M.selfdual(e)
    assert sd == M.e_element(Weight((0,)))
    assert M.p_polynomial(s, e) == V
    assert M.p_polynomial(e, e) == ONE


def test_selfdual_known_value(a1):
    # frozen by hand from the defining recursion: SD_s = B_s + v B_{t(-alpha)}
    M, W = a1.module, a1.group
    alpha = a1.rd.simple_roots[0]
    s = W.simple_reflection(0)
    sd = M.selfdual(s)
    assert sd.coefficient(s) == ONE
    assert sd.coefficient(W.translation(-alpha)) == V
    assert len(sd.terms) == 2


def test_selfdual_certification_window(a1):
    M, W, O = a1.module, a1.group, a1.order
    for x in standard_window(W, 2):
        sd = M.selfdual(x)
        assert sd.coefficient(x) == ONE
        for y, p in sd.terms.items():
            if y != x:
                assert p.in_v_times_Zv()
                assert O.leq(y, x)


def test_selfdual_base_case_condition(a1, a2):
    # every t(lam) w with w != e lies strictly below t(lam)
    for ctx in (a1, a2):
        W, O = ctx.group, ctx.order
        lam = Weight(tuple(1 for _ in range(ctx.rd.rank)))
        top = W.translation(lam)
        for w in W.finite_elements:
            if w.length == 0:
                continue
            below = W.element(lam, w)
            assert O.leq(below, top) and not O.leq(top, below)


def test_selfdual_translation_equivariance(a2):
    M, W = a2.module, a2.group
    rng = random.Random(3)
    win = standard_window(W, 1)
    for _ in range(10):
        x = rng.choice(win)
        nu = Weight((rng.randint(-2, 2), rng.randint(-2, 2)))
        assert M.selfdual(W.translate_left(nu, x)) == M.shift(M.selfdual(x), nu)


def test_translation_operator(a1):
    M, W = a1.module, a1.group
    alpha = a1.rd.simple_roots[0]
    m = M.e_element(Weight((1,)))
    zero = Weight((0,))
    assert M.shift(m, zero) == m
    assert M.shift(M.shift(m, alpha), -alpha) == m
    assert M.shift(M.basis(W.identity()), alpha) == M.basis(W.translation(alpha))


def test_generic_polynomial_examples(a1):
    M, W = a1.module, a1.group
    alpha = a1.rd.simple_roots[0]
    e = W.identity()
    assert M.generic_polynomial(e, e, "q") == ONE
    assert M.generic_polynomial(e, e, "qprime") == ONE
    assert M.generic_polynomial(W.translation(-alpha), e, "q") == LaurentPoly({2: 1})
    assert M.generic_polynomial(W.translation(-alpha), e, "qprime") == ONE
    # positions not reachable below give zero
    assert M.generic_polynomial(W.translation(alpha), e, "q") == ZERO


def test_generic_polynomial_against_truncated_series(a1, a2):
    # independent route: literally materialize the truncated geometric series
    for ctx, height in ((a1, 2), (a2, 1)):
        M, W, rd = ctx.module, ctx.group, ctx.rd
        win = standard_window(W, height)
        K = 2 * height + 4
        for x in win[:: max(1, len(win) // 8)]:
            sd = M.selfdual(x)
            expanded = sd
            for beta in rd.positive_roots:
                acc = M.zero()
                for k in range(K + 1):
                    acc = acc + M.shift(expanded, -(k * beta)).scale(LaurentPoly({2 * k: 1}))
                expanded = acc
            for y in win:
                # truncation exact as long as sigma stays well inside K steps
                assert expanded.coefficient(y) == M.generic_polynomial(y, x, "q")


def test_koszul_examples(a1):
    M, W = a1.module, a1.group
    alpha = a1.rd.simple_roots[0]
    e = W.identity()
    k = M.koszul_apply(M.basis(e))
    assert k.coefficient(e) == ONE
    assert k.coefficient(W.translation(-alpha)) == LaurentPoly({2: -1})
    assert len(k.terms) == 2


def test_koszul_inverts_geometric_series_per_root(a1):
    # (1 - v^2 <-a>) (1 + v^2 <-a> + ...) = 1, checked on a truncated window
    M, W = a1.module, a1.group
    alpha = a1.rd.simple_roots[0]
    m = M.basis(W.identity())
    K = 8
    series = M.zero()
    for k in range(K + 1):
        series = series + M.shift(m, -(k * alpha)).scale(LaurentPoly({2 * k: 1}))
    collapsed = series - M.shift(series, -alpha).scale(LaurentPoly({2: 1}))
    # telescopes to m minus the truncation tail at depth K+1
    tail = M.shift(m, -((K + 1) * alpha)).scale(LaurentPoly({2 * (K + 1): 1}))
    assert collapsed == m - tail


def test_koszul_recovers_selfdual(a1, a2):
    for ctx, height in ((a1, 2), (a2, 1)):
        M, W = ctx.module, ctx.group
        win = standard_window(W, height)
        for x in win[:: max(1, len(win) // 10)]:
            sd = M.selfdual(x)
            for y in list(sd.terms) + win[:4]:
                assert M.koszul_of_series(y, x) == sd.coefficient(y)


def test_inversion_identity_small(a1):
    M, W = a1.module, a1.group
    e, s = W.identity(), W.simple_reflection(0)
    assert M.inversion_sum(e, e) == ONE
    assert M.inversion_sum(e, s) == ZERO
    assert M.inversion_sum(s, e) == ZERO
    assert M.inversion_report(standard_window(W, 2)) == []


def _same_coset_pairs(window):
    return [(y, z) for y in window for z in window if y.omega_component == z.omega_component]


def test_orbit_memos_match_per_pair_formulas_on_all_a2_pairs(a2):
    # every same-coset pair of the A2 l5 h1 window, in window order: most
    # pairs find their orbit already filled by an earlier translate
    M = PeriodicModule(a2.group, a2.order)
    pairs = _same_coset_pairs(standard_window(a2.group, 1))
    for y, z in pairs:
        assert M.inversion_sum(y, z) == inversion_sum_per_pair(M, y, z)
        assert M.koszul_of_series(y, z) == koszul_of_series_per_pair(M, y, z)
    assert len(M._inversion_memo) < len(pairs) / 2
    assert len(M._koszul_memo) < len(pairs) / 2


@pytest.mark.parametrize("name,height", [("b2", 1), ("g2", 1)])
def test_orbit_memos_match_per_pair_formulas_on_sampled_pairs(request, name, height):
    ctx = request.getfixturevalue(name)
    M, W = PeriodicModule(ctx.group, ctx.order), ctx.group
    rng = random.Random(11)
    window = standard_window(W, height)
    pairs = rng.sample(_same_coset_pairs(window), 60)
    # pairs (y, x) with y in the support of the self-dual element at x
    pairs += [(rng.choice(sorted(M.selfdual(x).terms, key=lambda z: z.key)), x)
              for x in rng.sample(window, 30)]
    for y, z in pairs:
        nu = Weight(tuple(rng.choice((-2, -1, 1, 2)) for _ in range(ctx.rd.rank)))
        # fill both orbit memos from a different translate of the pair first
        M.inversion_sum(W.translate_left(nu, y), W.translate_left(nu, z))
        M.koszul_of_series(W.translate_left(nu, y), W.translate_left(nu, z))
        sizes = len(M._inversion_memo), len(M._koszul_memo)
        assert M.inversion_sum(y, z) == inversion_sum_per_pair(M, y, z)
        assert M.koszul_of_series(y, z) == koszul_of_series_per_pair(M, y, z)
        assert (len(M._inversion_memo), len(M._koszul_memo)) == sizes


def test_p_table_shape(a2):
    M, W = a2.module, a2.group
    win = standard_window(W, 1, coset=(0, 0))
    table = M.polynomial_table("periodic_p", win)
    for x in win:
        assert table.entries.get((x, x)) == ONE
    for (y, x), p in table.entries.items():
        if y != x:
            assert p.in_v_times_Zv()
            assert a2.order.leq(y, x)


def test_generic_table_equivariance(a2):
    M, W = a2.module, a2.group
    rng = random.Random(5)
    win = standard_window(W, 1)
    for _ in range(12):
        x, y = rng.choice(win), rng.choice(win)
        nu = Weight((rng.randint(-1, 1), rng.randint(-1, 1)))
        for kind in ("q", "qprime"):
            assert M.generic_polynomial(y, x, kind) == M.generic_polynomial(
                W.translate_left(nu, y), W.translate_left(nu, x), kind
            )


def test_selfdual_nontrivial_coset(a1):
    M, W, O = a1.module, a1.group, a1.order
    w1 = a1.rd.fundamental_weight(0)
    x = W.multiply(W.translation(w1), W.simple_reflection(0))
    sd = M.selfdual(x)
    assert sd.coefficient(x) == ONE
    for y, p in sd.terms.items():
        assert y.omega_component == x.omega_component
        if y != x:
            assert p.in_v_times_Zv() and O.leq(y, x)


def test_resource_bound_raises(a1):
    from periodic_kl.hecke import ResourceError
    from periodic_kl.periodic import PeriodicModule

    M = PeriodicModule(a1.group, a1.order, max_sweep_steps=1)
    with pytest.raises(ResourceError, match=r"^self-dual basis sweep of class t\(0\)\*w\[1\] "
                                            r"exceeded max_sweep_steps=1 with [1-9]\d* positions queued$"):
        M.selfdual(a1.group.simple_reflection(0))


def test_certification_catches_product_term_outside_ideal(a2, monkeypatch):
    # a product with one extra term far above the lead must stop the class solve
    from periodic_kl.orders import SemiInfiniteOrder
    from periodic_kl.periodic import CertificationError

    real_act_cs = PeriodicModule.act_cs
    stray = a2.group.translation(Weight((1, 1)))

    def act_cs_with_stray_term(self, m, j):
        return real_act_cs(self, m, j) + self.basis(stray).scale(V)

    monkeypatch.setattr(PeriodicModule, "act_cs", act_cs_with_stray_term)
    M = PeriodicModule(a2.group, SemiInfiniteOrder(a2.group))
    with pytest.raises(CertificationError, match="^support escapes the semi-infinite ideal of the lead$"):
        M._class_element(a2.group.w0.index)
    assert list(M._class_cache) == [0]  # only the base case, which needs no solve


def test_stray_product_term_stops_the_solve_before_its_sweep(a2, monkeypatch):
    # class w0 descends onto the translation class, so no other sweep runs
    # first; the stray term must be refused before the sweep's step bound
    from periodic_kl.orders import SemiInfiniteOrder
    from periodic_kl.periodic import CertificationError

    w = a2.group.w0.index
    assert a2.module._down_policy[w][2] == 0
    real_act_cs = PeriodicModule.act_cs
    stray = a2.group.translation(Weight((1, 1)))

    def act_cs_with_stray_term(self, m, j):
        return real_act_cs(self, m, j) + self.basis(stray).scale(V)

    monkeypatch.setattr(PeriodicModule, "act_cs", act_cs_with_stray_term)
    M = PeriodicModule(a2.group, SemiInfiniteOrder(a2.group), max_sweep_steps=1)
    with pytest.raises(CertificationError, match="^support escapes the semi-infinite ideal of the lead$"):
        M._class_element(w)


def test_witness_check_correction_branch(a2):
    # witnesses (z, src) of positions t(z.trans) src pushed by a correction at z
    from periodic_kl.periodic import CertificationError

    M, W = a2.module, a2.group
    w = W.w0.index
    j, nu, sigma = M._down_policy[w]
    base = M.shift(M._class_element(sigma), nu)
    lead, z = W.element(Weight((0, 0)), w), W.element(nu, sigma)
    src = next(x for x in M._class_element(sigma).terms if x.w.index != sigma)
    pos = W.translate_left(nu, src)
    escapes = "^support escapes the semi-infinite ideal of the lead$"

    # witness None marks a product term, checked before the sweep: the lead
    # and z = t(nu) sigma both lie in supp(base) or supp(base) . s_j
    M._check_product_terms(w, base, [lead, z])
    # z lies below the lead, but its own witness is checked first
    ok = M._check_witnesses(w, [lead, z, pos], {lead: None, z: None, pos: (z, src)})
    assert ok == {lead, z, pos}
    with pytest.raises(CertificationError, match=escapes):
        M._check_witnesses(w, [lead, pos], {lead: None, pos: (z, src)})
    # src outside the support of class sigma
    far = W.translation(Weight((1, 1)))
    pos_far = W.translate_left(nu, far)
    with pytest.raises(CertificationError, match=escapes):
        M._check_witnesses(w, [lead, z, pos_far], {lead: None, z: None, pos_far: (z, far)})
    # a self-correction whose src is not yet checked
    with pytest.raises(CertificationError, match=escapes):
        M._check_witnesses(w, [lead, pos], {lead: None, pos: (lead, pos)})
    # a position that is not t(z.trans) src
    with pytest.raises(CertificationError, match=escapes):
        M._check_witnesses(w, [lead, z, far], {lead: None, z: None, far: (z, src)})


def test_witness_check_requires_a_down_move(a2):
    # product terms are witnessed by SD_{ws}, which only helps if ws < w
    from periodic_kl.periodic import CertificationError

    M, W = PeriodicModule(a2.group, a2.order), a2.group
    w = W.w0.index
    lead = W.element(Weight((0, 0)), w)
    up = W.right_multiply_gen(lead, 1)  # w0 s_1 lies above w0 in the order
    assert not a2.order.descends(lead, 1)
    M._down_policy[w] = (1, up.trans, up.w.index)
    base = M.shift(a2.module._class_element(up.w.index), up.trans)
    with pytest.raises(CertificationError, match="^support escapes the semi-infinite ideal of the lead$"):
        M._check_product_terms(w, base, [lead])


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2", "c2", "g2"])
def test_class_support_below_lead_by_order_search(request, name):
    ctx = request.getfixturevalue(name)
    for w in ctx.group.finite_elements:
        assert class_support_below_lead(ctx.module, w.index)


def test_equality_is_type_strict(a1):
    # a Hecke element and a periodic element with the same terms differ
    e = a1.group.identity()
    assert a1.hecke.basis(e) != a1.module.basis(e)
    assert a1.module.basis(e) != a1.hecke.basis(e)
    assert a1.module.basis(e) == a1.module.basis(e)
