import hashlib
import json
import random
import re

import pytest

from periodic_kl import laurent, periodic
from periodic_kl.laurent import LaurentPoly, ONE, V, VINV, ZERO
from periodic_kl.orders import SemiInfinitePoset, standard_window
from periodic_kl.periodic import PeriodicModule
from periodic_kl.rootdata import Weight, scaled_coordinates
from periodic_kl.weyl import AffineWeyl
from oracles import (
    class_element,
    class_support_below_lead,
    e_element,
    elements_of_length_leq,
    generic_polynomial_by_dicts,
    inversion_sum_per_pair,
    koszul_of_series_per_pair,
    module_with_classes_of,
)


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
    elts = list(elements_of_length_leq(W, 3))
    for _ in range(10):
        terms = {x: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)}) for x in rng.sample(elts, 3)}
        m = M.element(terms)
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
    elts = list(elements_of_length_leq(W, 2))
    for i in W.affine_generator_indices():
        for j in W.affine_generator_indices():
            if i >= j:
                continue
            m_ord = _braid_order(W, i, j)
            if m_ord is None:
                continue
            for _ in range(4):
                terms = {x: LaurentPoly({rng.randint(-1, 1): 1}) for x in rng.sample(elts, 2)}
                m = M.element(terms)
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
    elts = list(elements_of_length_leq(W, 3))
    for _ in range(10):
        m = M.element({x: ONE for x in rng.sample(elts, 2)})
        h1 = H.basis(rng.choice(elts))
        h2 = H.basis(rng.choice(elts))
        assert M.act_hecke(M.act_hecke(m, h1), h2) == M.act_hecke(m, H.multiply(h1, h2))


def test_e_element_examples(a1, a2):
    M1, W1 = a1.module, a1.group
    e0 = e_element(M1, Weight((0,)))
    assert e0.coefficient(W1.identity()) == ONE
    assert e0.coefficient(W1.simple_reflection(0)) == V
    assert len(e0.terms) == 2

    M2 = a2.module
    e0 = e_element(M2, Weight((0, 0)))
    exps = sorted(next(iter(p.coeffs)) for p in e0.terms.values())
    assert exps == [0, 1, 1, 2, 2, 3]

    lam = Weight((2, -1))
    assert e_element(M2, lam) == M2.shift(e_element(M2, Weight((0, 0))), lam)


def test_e_element_eigenproperty_finite_generators(a2):
    M, W = a2.module, a2.group
    lam = Weight((1, 0))
    el = e_element(M, lam)
    for j in range(1, W.num_affine_gens):
        assert M.act_cs(el, j) == el.scale(V + VINV)


def test_selfdual_base_case(a1):
    M, W = a1.module, a1.group
    e, s = W.identity(), W.simple_reflection(0)
    sd = M.selfdual(e)
    assert sd == e_element(M, Weight((0,)))
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


def _check_w_graph_relations(M):
    """Assert the W-graph relations of every class element SD_x, x = t(0)w, at
    every affine simple s, with C_s = H_s + v: SD_x . C_s = (v + v^-1) SD_x
    when s descends x; otherwise SD_x . C_s - SD_{xs} peels, top height
    first, into integer mu times SD_z, each z strictly below x and descended
    by s."""
    W, O = M.group, M.order
    zero = (0,) * W.rd.rank
    for w in W.finite_elements:
        x = W.element(zero, w)
        sd = M.selfdual(x)
        for j in W.affine_generator_indices():
            lhs = M.act_cs(sd, j)
            if O.descends(x, j):
                assert lhs == sd.scale(V + VINV), (x, j)
                continue
            rest = lhs - M.selfdual(W.right_multiply_gen(x, j))
            while not rest.is_zero():
                z = max(rest.terms, key=lambda y: (O.height(y), y.key))
                mu = rest.terms[z]
                assert set(mu.coeffs) == {0}, (x, j, z, mu)
                assert z is not x and O.leq(z, x) and O.descends(z, j), (x, j, z)
                rest = rest - M.selfdual(z).scale(mu)


@pytest.mark.parametrize("name", DATA)
def test_class_elements_satisfy_the_w_graph_relations(request, name):
    _check_w_graph_relations(request.getfixturevalue(name).module)


@pytest.mark.parametrize("name", ["a2", "b2", "g2"])
def test_a_flipped_descent_breaks_the_w_graph_relations(request, monkeypatch, name):
    # each entry of the descent table off the down-move policy, flipped in a
    # fresh module, either breaks a relation or makes a class solve refuse.
    # A runaway solve refuses at the step bound, lowered far above the at
    # most 192 steps that any class of these types needs.
    from periodic_kl.laurent import ResourceError
    from periodic_kl.periodic import CertificationError

    monkeypatch.setattr(periodic, "MAX_SWEEP_STEPS", 5_000)
    W = AffineWeyl(request.getfixturevalue(name).rd)
    policy = PeriodicModule(W)._down_policy
    flips = [(w.index, j) for w in W.finite_elements for j in W.affine_generator_indices()
             if w.index not in policy or policy[w.index][0] != j]
    assert len(flips) == {"a2": 13, "b2": 17, "g2": 25}[name]
    for w, j in flips:
        M = PeriodicModule(W)
        descents = [list(row) for row in M.order._descents]
        descents[w][j] = not descents[w][j]
        M.order._descents = tuple(map(tuple, descents))
        with pytest.raises((AssertionError, CertificationError, ResourceError)):
            _check_w_graph_relations(M)


@pytest.mark.parametrize("name", ["a2", "b2", "g2"])
def test_a_wrong_right_step_breaks_the_w_graph_relations(request, monkeypatch, name):
    # each right_steps entry at a (w, j) off the down-move policy, replaced in
    # a fresh group by a wrong row (generator j + 1's row at w, or the
    # identity step (0, w)), either breaks a relation or makes a class solve
    # refuse.  The group reads it in every step x s_j it fills, and a class
    # solve at every term of finite part w whose class steps down by s_j.
    # The step bound is lowered as in the flipped-descent test
    from periodic_kl.laurent import ResourceError
    from periodic_kl.periodic import CertificationError

    monkeypatch.setattr(periodic, "MAX_SWEEP_STEPS", 5_000)
    rd = request.getfixturevalue(name).rd
    W = AffineWeyl(rd)
    policy = PeriodicModule(W)._down_policy
    gens = W.affine_generator_indices()
    plants = [(w.index, j) for w in W.finite_elements for j in gens
              if w.index not in policy or policy[w.index][0] != j]
    assert len(plants) == {"a2": 13, "b2": 17, "g2": 25}[name]
    zero = (0,) * rd.rank
    for w, j in plants:
        for wrong in (W.right_steps[(j + 1) % len(gens)][w], (zero, w)):
            W = AffineWeyl(rd)
            steps = [list(row) for row in W.right_steps]
            assert steps[j][w] != wrong
            steps[j][w] = wrong
            W.right_steps = tuple(map(tuple, steps))
            with pytest.raises((AssertionError, CertificationError, ResourceError)):
                _check_w_graph_relations(PeriodicModule(W))


def test_translation_operator(a1):
    M, W = a1.module, a1.group
    alpha = a1.rd.simple_roots[0]
    m = e_element(M, Weight((1,)))
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
                acc = M.element({})
                for k in range(K + 1):
                    acc = acc + M.shift(expanded, -(k * beta)).scale(LaurentPoly({2 * k: 1}))
                expanded = acc
            for y in win:
                # truncation exact as long as sigma stays well inside K steps
                assert expanded.coefficient(y) == M.generic_polynomial(y, x, "q")


def test_koszul_inverts_geometric_series_per_root(a1):
    # (1 - v^2 <-a>) (1 + v^2 <-a> + ...) = 1, checked on a truncated window
    M, W = a1.module, a1.group
    alpha = a1.rd.simple_roots[0]
    m = M.basis(W.identity())
    K = 8
    series = M.element({})
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


def test_orbit_sums_match_per_pair_formulas_on_all_a2_pairs(a2):
    # every same-coset pair of the A2 l5 h1 window, in window order
    M = PeriodicModule(a2.group)
    pairs = _same_coset_pairs(standard_window(a2.group, 1))
    for y, z in pairs:
        assert M.inversion_sum(y, z) == inversion_sum_per_pair(M, y, z)
        assert M.koszul_of_series(y, z) == koszul_of_series_per_pair(M, y, z)


@pytest.mark.parametrize("name,height", [("b2", 1), ("g2", 1)])
def test_orbit_sums_match_per_pair_formulas_and_translates_on_sampled_pairs(request, name, height):
    ctx = request.getfixturevalue(name)
    M, W = PeriodicModule(ctx.group), ctx.group
    rng = random.Random(11)
    window = standard_window(W, height)
    pairs = rng.sample(_same_coset_pairs(window), 60)
    # pairs (y, x) with y in the support of the self-dual element at x
    pairs += [(rng.choice(sorted(M.selfdual(x).terms, key=lambda z: z.key)), x)
              for x in rng.sample(window, 30)]
    for y, z in pairs:
        nu = Weight(tuple(rng.choice((-2, -1, 1, 2)) for _ in range(ctx.rd.rank)))
        # a different translate of the pair has the pair's values
        inversion = M.inversion_sum(W.translate_left(nu, y), W.translate_left(nu, z))
        koszul = M.koszul_of_series(W.translate_left(nu, y), W.translate_left(nu, z))
        assert M.inversion_sum(y, z) == inversion_sum_per_pair(M, y, z) == inversion
        assert M.koszul_of_series(y, z) == koszul_of_series_per_pair(M, y, z) == koszul


@pytest.mark.parametrize("name", DATA)
def test_every_class_term_lies_in_the_root_lattice(request, name):
    # SD_{t(0)w} lies in the coset of t(0)w, so the generic rows divide the
    # scaled root coordinates of each term by e exactly
    ctx = request.getfixturevalue(name)
    rd = ctx.rd
    e = rd.lattice_index_e
    for w in ctx.group.finite_elements:
        for t, _ in ctx.module._class(w.index):
            assert not any(E % e for E in rd.scaled_root_coordinates(t)), (w, t)


def test_cross_coset_queries_are_zero_and_fill_no_memo(b2):
    M, W = PeriodicModule(b2.group), b2.group
    window = standard_window(W, 1)
    pairs = [(y, x) for y in window for x in window if y.omega_component != x.omega_component]
    for y, x in pairs[::23]:
        for kind in ("q", "qprime"):
            assert M.generic_polynomial(y, x, kind) == ZERO == generic_polynomial_by_dicts(M, y, x, kind)
        assert M.inversion_sum(y, x) == ZERO
        assert M.koszul_of_series(y, x) == ZERO
    assert not M._generic_tables


def test_p_table_shape(a2):
    M, W = a2.module, a2.group
    win = standard_window(W, 1, coset=(0, 0))
    table = M.polynomial_table("periodic_p", win)
    for x in win:
        assert table.get((x, x)) == ONE
    for (y, x), p in table.items():
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
    w1 = Weight((1,))  # the fundamental weight omega_1
    x = W.multiply(W.translation(w1), W.simple_reflection(0))
    sd = M.selfdual(x)
    assert sd.coefficient(x) == ONE
    for y, p in sd.terms.items():
        assert y.omega_component == x.omega_component
        if y != x:
            assert p.in_v_times_Zv() and O.leq(y, x)


def test_resource_bound_raises(a1, monkeypatch):
    from periodic_kl.hecke import ResourceError

    monkeypatch.setattr(periodic, "MAX_SWEEP_STEPS", 1)
    M = PeriodicModule(a1.group)
    with pytest.raises(ResourceError, match=r"^self-dual basis sweep of class t\(0\)\*w\[1\] "
                                            r"exceeded MAX_SWEEP_STEPS=1 with [1-9]\d* positions queued$"):
        M.selfdual(a1.group.simple_reflection(0))


def _product_with_stray_term(monkeypatch):
    """Plant the term v B_{t(1,1)} in every product the class solve makes."""
    real_product = PeriodicModule._product
    stray = ((1, 1), 0)

    def product_with_stray_term(self, w_index):
        acc = real_product(self, w_index)
        acc[stray] = [1 << laurent._WIDTH, 1]
        return acc

    monkeypatch.setattr(PeriodicModule, "_product", product_with_stray_term)


def test_certification_catches_product_term_outside_ideal(a2, monkeypatch):
    # a product with one extra term far above the lead must stop the class solve
    from periodic_kl.periodic import CertificationError

    _product_with_stray_term(monkeypatch)
    M = PeriodicModule(a2.group)
    with pytest.raises(CertificationError, match="^support escapes the semi-infinite ideal of the lead$"):
        M._class(a2.group.w0.index)
    assert list(M._classes) == [0]  # only the base case, which needs no solve


def test_stray_product_term_stops_the_solve_before_its_sweep(a2, monkeypatch):
    # class w0 descends onto the translation class, so no other sweep runs
    # first; the stray term must be refused before the sweep's step bound
    from periodic_kl.periodic import CertificationError

    w = a2.group.w0.index
    assert a2.module._down_policy[w][2] == 0
    _product_with_stray_term(monkeypatch)
    monkeypatch.setattr(periodic, "MAX_SWEEP_STEPS", 1)
    M = PeriodicModule(a2.group)
    with pytest.raises(CertificationError, match="^support escapes the semi-infinite ideal of the lead$"):
        M._class(w)


def test_negative_exponent_in_the_product_is_refused(a2):
    # every value the class solve sweeps lies in Z[v] (module docstring): the
    # product shifts a coefficient right only at a down move, after testing
    # that its low digit is zero.  A constant planted in the base class at a
    # term where s descends would leave v^{-1} in the product, so it must
    # stop the solve there, before the sweep or the certification could run
    from periodic_kl.periodic import CertificationError

    W = a2.group
    w = W.w0.index
    j, nu, sigma = a2.module._down_policy[w]
    base = class_element(a2.module, sigma)
    src = min((x for x in base.terms if x.w.index != sigma and a2.order.descends(x, j)), key=lambda x: x.key)
    assert base.coefficient(src).in_v_times_Zv()
    M = PeriodicModule(W)
    M.preload_class(sigma, base + M.basis(src))
    pos, lead = W.translate_left(nu, src), W.element(Weight((0, 0)), w)
    with pytest.raises(CertificationError, match=f"^coefficient at {re.escape(repr(pos))} of class "
                                                 f"{re.escape(repr(lead))} outside Z\\[v\\]$"):
        M._class(w)
    assert list(M._classes) == [sigma]


def test_correction_above_the_lead_is_refused(b2):
    # B2 class w[2] is corrected once, by class w[2 1 2] at its lead z, a
    # class its product does not read.  A term v^3 B_above planted in that
    # class, above the lead of class w[2], reaches the sweep only through
    # the correction at z; the cone test refuses it when the sweep pops it
    from periodic_kl.periodic import CertificationError

    W = b2.group
    lead = W.parse_element("t(0,0)*w[2]")
    z = W.parse_element("t(0,0)*w[2 1 2]")
    above = W.translate_left(Weight((1, 1)), z)
    assert not b2.order.leq(above, lead)
    M = PeriodicModule(W)
    assert M._down_policy[lead.w.index][2] != z.w.index
    M.preload_class(z.w.index, class_element(b2.module, z.w.index) + M.basis(above).scale(LaurentPoly({3: 1})))
    with pytest.raises(CertificationError, match="^support escapes the semi-infinite ideal of the lead$"):
        M._class(lead.w.index)
    assert lead.w.index not in M._classes


def test_an_up_move_policy_is_refused(a2):
    # the product SD_{ws} . (H_s + v) lies below w only for a descent
    # ws < w.  Planted with the up move w0 s_1, which lies above w0 (its
    # class preloaded, since its own down move leads back to w0), s_1
    # descends the product's lead w0 s_1, whose coefficient 1 would become
    # v^{-1}: the product refuses it as outside Z[v]
    from periodic_kl.periodic import CertificationError

    M, W = PeriodicModule(a2.group), a2.group
    w = W.w0.index
    lead = W.element(Weight((0, 0)), w)
    up = W.right_multiply_gen(lead, 1)
    assert not a2.order.descends(lead, 1) and a2.order.leq(lead, up)
    M._down_policy[w] = (1, up.trans, up.w.index)
    M.preload_class(up.w.index, class_element(a2.module, up.w.index))
    with pytest.raises(CertificationError, match=f"^coefficient at {re.escape(repr(up))} of class "
                                                 f"{re.escape(repr(lead))} outside Z\\[v\\]$"):
        M._class(w)
    assert list(M._classes) == [up.w.index]


def test_class_solve_reads_the_apex_table(a2, monkeypatch):
    # the solve's support check is the order's cone test: one apex made
    # stricter by e, at the finite parts (u, w) of a term t(lam) u of class
    # w on the boundary of the cone there, must stop the solve of class w.
    # The stricter table stands in for ``_apex_table``, so the cached real
    # table is untouched, and a fresh module reads it again
    from periodic_kl import orders
    from periodic_kl.periodic import CertificationError

    W, rd = a2.group, a2.rd
    e, w = rd.lattice_index_e, W.w0.index
    real = orders._apex_table(rd.cartan_type, rd.rank)
    for lam, u in sorted(a2.module._class(w)):
        diff = scaled_coordinates(rd.scaled_inverse_cartan, tuple(-c for c in lam))
        tight = [i for i, (d, a) in enumerate(zip(diff, real[u][w])) if d == a]
        if u != w and tight:
            break
    row = list(real[u])
    row[w] = tuple(a + e * (i == tight[0]) for i, a in enumerate(row[w]))
    stricter = real[:u] + (tuple(row),) + real[u + 1:]
    monkeypatch.setattr(orders, "_apex_table", lambda cartan_type, rank: stricter)
    M = PeriodicModule(W)
    with pytest.raises(CertificationError, match="^support escapes the semi-infinite ideal of the lead$"):
        M._class(w)
    monkeypatch.undo()
    assert class_element(PeriodicModule(W), w) == class_element(a2.module, w)


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "b2", "c2", "g2"])
def test_class_support_below_lead_by_order_search(request, name):
    ctx = request.getfixturevalue(name)
    for w in ctx.group.finite_elements:
        assert class_support_below_lead(ctx.module, w.index)


@pytest.mark.parametrize("name", ["b2", "a3"])
def test_a_point_query_encodes_only_the_finite_part_it_reads(request, name):
    # a generic point query builds the rows of its own (u, c) table alone;
    # the rows of every part, built on their first reads, are the terms of
    # the class by finite part, by descending sum E(lam)
    ctx = request.getfixturevalue(name)
    W = ctx.group
    M = module_with_classes_of(ctx.module)
    c = W.w0.index
    terms = M._class(c)
    u = max({v for _, v in terms} - {c})
    y = W.element(next(t for t, v in terms if v == u), u)
    M.generic_polynomial(y, W.element((0,) * ctx.rd.rank, c))
    assert set(M._generic_tables) == {(u, c)}
    assert set(M._encoded) == {t for t, v in terms if v == u}
    rows = {v: [] for v in range(len(W.finite_elements))}
    for (t, v), (p, lp, _) in terms.items():
        packed, total = M._encode(t)
        rows[v].append((total, packed, p, lp))
    for v, expected in rows.items():
        assert M._generic_table(v, c)[1] == sorted(expected, key=lambda row: row[0], reverse=True), v


def test_a_refused_class_solve_leaves_no_rows_behind(monkeypatch, b2):
    # a class solve that refuses keeps no split of the class: a later query
    # on the same module refuses again rather than reading empty rows as
    # zero, and once the solve succeeds it gives the fresh module's value
    from periodic_kl.laurent import ResourceError

    W = b2.group
    M = module_with_classes_of(b2.module)
    c = W.w0.index
    t, u = next(key for key, term in M._class(c).items() if key[1] != c and term[0])
    y, x = W.element(t, u), W.element((0,) * b2.rd.rank, c)
    expected = module_with_classes_of(b2.module).generic_polynomial(y, x)
    assert expected != ZERO
    M._classes.pop(c)

    def refuse(w_index):
        raise ResourceError("planted refusal")

    monkeypatch.setattr(M, "_class", refuse)
    for _ in range(2):
        with pytest.raises(ResourceError, match="planted refusal"):
            M.generic_polynomial(y, x)
    assert c not in M._class_parts and not M._generic_tables
    monkeypatch.undo()
    M.preload_class(c, class_element(b2.module, c))
    assert M.generic_polynomial(y, x) == expected


@pytest.mark.parametrize("name", DATA)
def test_class_solve_builds_no_element(request, name):
    # the module's construction and every class solve read the group's
    # finite tables on keys: no element is interned, no Cayley-graph id given
    W = AffineWeyl(request.getfixturevalue(name).rd)
    elements, elts = dict(W._elements), list(W._elts)
    M = PeriodicModule(W)
    for w in W.finite_elements:
        M._class(w.index)
    assert W._elements == elements and W._elts == elts


def test_selfdual_refuses_an_element_of_another_group(a1, a2):
    x = a1.group.parse_element("t(1)*w[1]")
    W = AffineWeyl(a2.rd)
    M = PeriodicModule(W)
    before = dict(W._elements)
    with pytest.raises(ValueError, match="^elements belong to different root data$"):
        M.selfdual(x)
    assert W._elements == before


# every entry point of the periodic module that takes elements, given a
# window: each refuses one from another group before any lookup
_ENTRY_POINTS = {
    "inversion_report": lambda M, w: M.inversion_report(w),
    "koszul_report": lambda M, w: M.koszul_report(w),
    "polynomial_table": lambda M, w: M.polynomial_table("generic_q", w),
    "generic_polynomial": lambda M, w: M.generic_polynomial(w[0], w[-1]),
    "p_polynomial": lambda M, w: M.p_polynomial(w[0], w[-1]),
    "inversion_sum": lambda M, w: M.inversion_sum(w[0], w[-1]),
    "koszul_of_series": lambda M, w: M.koszul_of_series(w[0], w[-1]),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_refuse_elements_of_another_group(a2, b2, entry):
    M = PeriodicModule(a2.group)
    with pytest.raises(ValueError, match="^elements belong to different root data$"):
        _ENTRY_POINTS[entry](M, standard_window(b2.group, 1))


# sha256 of every class element of the datum, as in ``_class_digest``
_CLASS_DIGESTS = {
    "a1": "b64bbcb0e57805deca37ed638500146bf8b6f86f276abf3b860493c0890b7e87",
    "a2": "14a765f16becd25b5c2f8fe1221bb4d6090b0ea94af57c28ab03619ba628a98c",
    "b2": "f9fdcb9e78159896c2b52db74a4ecc70e942e6b247cb84920c2aa8a5f1d9bb1b",
    "c2": "1b59e55678840e7f5955ea34f027645f675642bf99ffd587bab81c13b7481ead",
    "g2": "e84f29baef6db2fe0e54984af1cdd8bb4b68ce3a9b9623260b980e4e1423d899",
    "a3": "0bd5c8df85ac1e79ecb05c727995eaa88e30d876d4c2a3eeebbc8bb2c51b007c",
}


def _class_digest(module) -> str:
    """sha256 of the class elements SD_{t(0)w} in finite-index order, each as
    its [repr(x), polynomial] terms sorted by x.key."""
    classes = [class_element(module, w.index) for w in module.group.finite_elements]
    payload = [[[repr(x), c.terms[x].to_json()] for x in sorted(c.terms, key=lambda x: x.key)] for c in classes]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_CLASS_DIGESTS))
def test_every_class_element_is_pinned(request, name):
    ctx = request.getfixturevalue(name)
    assert _class_digest(PeriodicModule(ctx.group)) == _CLASS_DIGESTS[name]


def test_planted_correction_term_queues_a_new_position(b2):
    # B2 class w[2] descends onto class w[2 1] and is corrected once, by class
    # w[2 1 2] at its lead z; the product does not read that class.  A term
    # v^3 B_far planted in it, far below z, lies outside the product's support:
    # the correction alone queues far and leaves -m v^3 there, which is in
    # vZ[v] and so needs no further correction
    W = b2.group
    lead = W.parse_element("t(0,0)*w[2]")
    z = W.parse_element("t(0,0)*w[2 1 2]")
    far = W.translate_left(Weight((-2, -2)), z)
    true = class_element(b2.module, lead.w.index)
    M = PeriodicModule(W)
    assert M._down_policy[lead.w.index][2] != z.w.index
    M.preload_class(z.w.index, class_element(b2.module, z.w.index) + M.basis(far).scale(LaurentPoly({3: 1})))
    seen = {}
    certify = M._certify

    def record_certify(w_index, result, product, corrections):
        seen["product"], seen["corrections"] = product, list(corrections)
        return certify(w_index, result, product, corrections)

    M._certify = record_certify
    terms = M._class(lead.w.index)
    solved = class_element(M, lead.w.index)
    [(at, m)] = seen["corrections"]
    assert at == z.key
    assert far.key not in seen["product"] and far not in true.terms
    assert solved == true - M.basis(far).scale(m * LaurentPoly({3: 1}))
    assert M._classes[lead.w.index] is terms


def test_sweep_refuses_a_lead_that_is_not_one(a2, monkeypatch):
    from periodic_kl.periodic import CertificationError

    real_product = PeriodicModule._product

    def product_with_lead_two(self, w_index):
        acc = real_product(self, w_index)
        acc[((0, 0), w_index)][0] += 1
        return acc

    monkeypatch.setattr(PeriodicModule, "_product", product_with_lead_two)
    with pytest.raises(CertificationError, match="^leading coefficient is not 1$"):
        PeriodicModule(a2.group)._class(a2.group.w0.index)


def test_correction_cycle_is_refused(a2):
    # class w0 descends onto the translation class; planted as in progress,
    # the solve of w0 finds a cycle instead of reading it
    from periodic_kl.periodic import CertificationError

    M = PeriodicModule(a2.group)
    M._in_progress.add(M._down_policy[a2.group.w0.index][2])
    with pytest.raises(CertificationError, match="^cross-class correction cycle; "):
        M._class(a2.group.w0.index)


def test_each_certification_check_fires(b2):
    # the arguments of a real certification (B2 class w[2], corrected once),
    # each tampered in one way
    from periodic_kl.periodic import CertificationError

    M = PeriodicModule(b2.group)
    certify, seen = M._certify, []

    def record(*args):
        seen.append(args)
        return certify(*args)

    M._certify = record
    w = b2.group.parse_element("t(0,0)*w[2]").w.index
    M._class(w)
    [(w_index, result, product, corrections)] = [args for args in seen if args[0] == w]
    assert corrections
    certify(w_index, result, product, corrections)
    lead = ((0, 0), w)
    off = min(pos for pos in result if pos != lead)
    c, l1, p = result[off]

    def fails(message, result=result, product=product):
        with pytest.raises(CertificationError, match=f"^certification: {message}$"):
            certify(w_index, result, product, corrections)

    fails("leading coefficient", result={**result, lead: (2, 2, LaurentPoly({0: 2}))})
    fails(r"coefficient not in vZ\[v\]", result={**result, off: (c + 1, l1 + 1, p + ONE)})
    fails("product relation fails on complete vectors",
          product={**product, off: product.get(off, 0) + (1 << laurent._WIDTH)})


def test_sweep_refuses_a_bound_before_reading_a_digit(a2, monkeypatch):
    # at 2-bit digits some A2 positions carry an l1 bound of 2 or more; the
    # sweep itself refuses there, before it reads the low digit, even when
    # the decode it calls afterwards would check nothing
    from periodic_kl.hecke import ResourceError

    monkeypatch.setattr(laurent, "_WIDTH", 2)
    unguarded = laurent.unpack
    monkeypatch.setattr(periodic, "unpack", lambda packed, bound, what, key: unguarded(packed, 0, what, key))
    with pytest.raises(ResourceError, match=r"^self-dual class t\(0,0\)\*w\[[12 ]+\] \(trans, w\) at .*: "
                                            r"the coefficient bound \([2-9] bits\) reaches the packed digit width of 2 bits$"):
        M = PeriodicModule(a2.group)
        for w in a2.group.finite_elements:
            M._class(w.index)


@pytest.mark.parametrize("name", DATA)
def test_packed_product_is_the_dict_action(request, name):
    # for every class, the product on keys equals the stated rule, the dict
    # action act_cs of H_s + v on the shifted class SD_{ws} = t(nu) SD_sigma,
    # and each position's bound dominates the l1 norm of its coefficient
    ctx = request.getfixturevalue(name)
    M, W = ctx.module, ctx.group
    for w in W.finite_elements[1:]:
        j, nu, sigma = M._down_policy[w.index]
        expected = M.act_cs(M.shift(class_element(M, sigma), nu), j)
        product = M._product(w.index)
        decoded = {W.element(Weight(t), u): laurent.unpack(p, b, "product", (t, u))
                   for (t, u), (p, b) in product.items()}
        assert M.element(decoded) == expected, w
        assert all(b >= sum(map(abs, expected.coefficient(W.element(Weight(t), u)).coeffs.values()))
                   for (t, u), (_, b) in product.items())


@pytest.mark.parametrize("name,height", [("a1", 2), ("a2", 2), ("a3", 1), ("b2", 2), ("c2", 2), ("g2", 2)])
def test_linear_height_is_twice_the_root_coordinate_sum(request, name, height):
    # h(t(lam) w) = h(t(0) w) + l <lam, 2 rho^> equals 2 sum(E) / e, E = e * rc(x dot 0)
    ctx = request.getfixturevalue(name)
    order, e = ctx.order, ctx.rd.lattice_index_e
    for x in standard_window(ctx.group, height):
        doubled = 2 * sum(ctx.rd.scaled_root_coordinates(ctx.group.dot_zero(x)))
        assert doubled % e == 0 and order.height(x) == doubled // e, x


@pytest.mark.parametrize("name,height", [("a1", 1), ("a2", 1), ("b2", 1), ("c2", 1), ("g2", 1), ("a3", 0)])
def test_generic_support_is_the_semi_infinite_order(request, name, height):
    # q_{y,x} and q'_{y,x} are nonzero on exactly the window pairs with
    # y <= x: the generic layer and the order share no code
    ctx = request.getfixturevalue(name)
    win = standard_window(ctx.group, height)
    rows = SemiInfinitePoset.build(ctx.order, win).rows
    below = {(y, x) for i, y in enumerate(win) for j, x in enumerate(win) if rows[i] >> j & 1}
    for kind in ("generic_q", "generic_qprime"):
        assert set(ctx.module.polynomial_table(kind, win)) == below, kind


def test_polynomial_table_refuses_an_unknown_kind(a1):
    M, W = a1.module, a1.group
    with pytest.raises(ValueError, match=r"^unknown table kind 'bogus'; expected one of "
                                         r"periodic_p, generic_q, generic_qprime$"):
        M.polynomial_table("bogus", standard_window(W, 0))


def test_generic_polynomial_refuses_an_unknown_kind(a1):
    # also once the memo holds the pair: the kind is checked before the lookup
    M, W = a1.module, a1.group
    e = W.identity()
    assert M.generic_polynomial(e, e, "qprime") == ONE
    with pytest.raises(ValueError, match=r"^unknown generic polynomial kind 'nonsense'; expected one of q, qprime$"):
        M.generic_polynomial(e, e, "nonsense")


def test_bound_counts_the_size_of_each_correction(b2, monkeypatch):
    # every real correction has m = 1, so the factor |m| of the bound is
    # planted: the far term of the previous test, and one more constant in
    # the product at z, which makes m = 2 there; far is then reached by that
    # correction alone, with the value -2 v^3 and the bound |m| l1(v^3) = 2
    W = b2.group
    lead = W.parse_element("t(0,0)*w[2]")
    z = W.parse_element("t(0,0)*w[2 1 2]")
    far = W.translate_left(Weight((-2, -2)), z)
    M = PeriodicModule(W)
    M.preload_class(z.w.index, class_element(b2.module, z.w.index) + M.basis(far).scale(LaurentPoly({3: 1})))
    real_product, real_unpack = PeriodicModule._product, periodic.unpack
    bounds = {}

    def product_with_a_constant_at_z(self, w_index):
        acc = real_product(self, w_index)
        if w_index == lead.w.index:
            acc[z.key][0] += 1
            acc[z.key][1] += 1
        return acc

    def recording_unpack(packed, bound, what, key):
        bounds[key] = bound
        return real_unpack(packed, bound, what, key)

    monkeypatch.setattr(PeriodicModule, "_product", product_with_a_constant_at_z)
    monkeypatch.setattr(periodic, "unpack", recording_unpack)
    solved = class_element(M, lead.w.index)
    assert solved.coefficient(far) == LaurentPoly({3: -2})
    assert bounds[far.key] == 2


def test_equality_is_type_strict(a1):
    # a Hecke element and a periodic element with the same terms differ
    e = a1.group.identity()
    assert a1.hecke.basis(e) != a1.module.basis(e)
    assert a1.module.basis(e) != a1.hecke.basis(e)
    assert a1.module.basis(e) == a1.module.basis(e)
