import random

import pytest

from oracles import poset_rows_per_column
from periodic_kl.orders import SemiInfinitePoset, standard_window
from periodic_kl.rootdata import Weight, dominance_leq


@pytest.mark.parametrize("fixture", ["a1", "a2", "b2", "c2", "g2", "a3"])
def test_standard_window_is_in_key_order(fixture, request):
    W = request.getfixturevalue(fixture).group
    for height in (0, 1, 2):
        for coset in (None, *W.omega_elements):
            win = standard_window(W, height, coset)
            assert win == sorted(win, key=lambda z: z.key)
            assert len(set(win)) == len(win)


def test_generating_relation_examples(a1):
    W, O = a1.group, a1.order
    e = W.identity()
    s = W.simple_reflection(0)
    # s <= e: the generating relation at x = e with the finite reflection
    assert O.descends(e, 1)
    assert O.generating_relation_holds(e, 1)
    assert O.leq(s, e)
    assert O.leq(e, e)
    assert not O.leq(e, s)


def test_local_rule_matches_literal_dot_comparison(a2, b2):
    for ctx in (a2, b2):
        W, O = ctx.group, ctx.order
        for x in W.elements_of_length_leq(4):
            for j in W.affine_generator_indices():
                assert O.descends(x, j) == O.generating_relation_holds(x, j)


def test_chain_example(a1):
    W, O = a1.group, a1.order
    alpha = a1.rd.simple_roots[0]
    # ... < t(-a)s < t(-a) < s < e < t(a)s < t(a) < ...
    s = W.simple_reflection(0)
    chain = [
        W.multiply(W.translation(-alpha), s),
        W.translation(-alpha),
        s,
        W.identity(),
        W.multiply(W.translation(alpha), s),
        W.translation(alpha),
    ]
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            assert O.leq(a, b) == (i <= j)
    # every chain from e down to t(-2a) passes through an element with finite part s
    assert O.leq(W.translation(-2 * alpha), W.identity()) is True


def test_cross_coset_incomparable(a1):
    W, O = a1.group, a1.order
    w = a1.rd.fundamental_weight(0)
    assert not O.leq(W.translation(w), W.identity())
    assert not O.leq(W.identity(), W.translation(w))


@pytest.mark.parametrize("fixture,height,coset", [("a1", 2, None), ("a2", 1, (0, 0))])
def test_translation_characterization_agrees(fixture, height, coset, request):
    ctx = request.getfixturevalue(fixture)
    W, O = ctx.group, ctx.order
    win = standard_window(W, height, coset=coset)
    mu = O.sufficient_mu(win)
    for a in win:
        for b in win:
            if a.omega_component != b.omega_component:
                continue
            assert O.leq(a, b) == O.leq_via_translation(a, b, mu)


@pytest.mark.parametrize("fixture,height", [("a1", 3), ("a2", 1), ("b2", 1), ("c2", 1), ("g2", 1), ("a3", 0)])
def test_below_matches_translation_oracle(fixture, height, request):
    # one batched search per y against the independent Bruhat characterization
    ctx = request.getfixturevalue(fixture)
    W, O = ctx.group, ctx.order
    win = standard_window(W, height)
    mu = O.sufficient_mu(win)
    for y in win:
        assert O.below(y, win) == {x for x in win if O.leq_via_translation(x, y, mu)}


def test_translation_characterization_rejects_shallow_mu(a1):
    W, O = a1.group, a1.order
    alpha = a1.rd.simple_roots[0]
    deep = W.translation(-3 * alpha)
    with pytest.raises(ValueError, match="not sufficiently dominant"):
        O.leq_via_translation(deep, W.identity(), Weight((0,)))
    # a failed certificate is not memoized: the same query raises again
    with pytest.raises(ValueError, match="not sufficiently dominant"):
        O.leq_via_translation(W.identity(), deep, Weight((0,)))


def test_l_independence(a1, a1_l5):
    W3, W5 = a1.group, a1_l5.group
    O3, O5 = a1.order, a1_l5.order
    win = standard_window(W3, 2)
    for x in win:
        for y in win:
            x5 = W5.element(x.trans, x.w.index)
            y5 = W5.element(y.trans, y.w.index)
            assert O3.leq(x, y) == O5.leq(x5, y5)


def test_left_translation_invariance(a1, a2):
    import random

    random.seed(5)
    for ctx in (a1, a2):
        W, O = ctx.group, ctx.order
        win = standard_window(W, 1)
        for _ in range(25):
            x, y = random.choice(win), random.choice(win)
            nu = Weight(tuple(random.randint(-2, 2) for _ in range(ctx.rd.rank)))
            assert O.leq(x, y) == O.leq(W.translate_left(nu, x), W.translate_left(nu, y))
            moved = O.below(W.translate_left(nu, y), [W.translate_left(nu, z) for z in win])
            assert moved == {W.translate_left(nu, z) for z in O.below(y, win)}


def test_monotone_under_dot_values(a2):
    # x <= y forces x dot 0 <= y dot 0 in dominance order
    W, O = a2.group, a2.order
    win = standard_window(W, 1, coset=(0, 0))
    for x in win:
        for y in win:
            if O.leq(x, y):
                assert dominance_leq(a2.rd, W.dot_zero(x), W.dot_zero(y))


def test_poset_and_hasse(a1):
    W, O = a1.group, a1.order
    win = standard_window(W, 1, coset=(0,))
    poset = SemiInfinitePoset.build(O, win)
    edges = poset.hasse_edges()
    s = W.simple_reflection(0)
    assert (s, W.identity()) in edges
    assert len(edges) == 1  # only the cover s < e inside this window
    poset.check_partial_order()


@pytest.mark.parametrize("fixture,height", [("a1", 6), ("a2", 2), ("b2", 1), ("c2", 1), ("g2", 1), ("a3", 0)])
def test_build_matches_per_column_oracle(fixture, height, request):
    ctx = request.getfixturevalue(fixture)
    win = standard_window(ctx.group, height)
    assert SemiInfinitePoset.build(ctx.order, win).rows == poset_rows_per_column(ctx.order, win)


def test_build_matches_per_column_oracle_on_cosets(a2):
    for coset in a2.group.omega_elements:
        win = standard_window(a2.group, 1, coset)
        assert SemiInfinitePoset.build(a2.order, win).rows == poset_rows_per_column(a2.order, win)


@pytest.mark.parametrize("fixture,height", [("a2", 2), ("b2", 2), ("c2", 1), ("g2", 1), ("a3", 1)])
def test_build_matches_per_column_oracle_on_shuffled_subwindows(fixture, height, request):
    # the pass sorts by height itself, so neither the order nor the gaps of
    # the window may matter
    ctx = request.getfixturevalue(fixture)
    full = standard_window(ctx.group, height)
    rng = random.Random(f"subwindow:{fixture}")
    for _ in range(6):
        win = rng.sample(full, rng.randint(5, 60))
        assert SemiInfinitePoset.build(ctx.order, win).rows == poset_rows_per_column(ctx.order, win)
