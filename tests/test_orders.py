import random

import pytest

from oracles import (apex_certificate, elements_of_length_leq, generating_relation_holds,
                     poset_rows_by_search, poset_rows_per_column)
from periodic_kl.orders import (SemiInfiniteOrder, SemiInfinitePoset, _apex_table, _apexes, _quantum_bruhat_graph,
                                 standard_window)
from periodic_kl.rootdata import (_CARTAN, Weight, dominance_leq, root_datum, root_system, scaled_coordinates,
                                  validate_l)
from periodic_kl.weyl import AffineWeyl, weyl_tables


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
    assert generating_relation_holds(O, e, 1)
    assert O.leq(s, e)
    assert O.leq(e, e)
    assert not O.leq(e, s)


def test_local_rule_matches_literal_dot_comparison(a2, b2):
    for ctx in (a2, b2):
        W, O = ctx.group, ctx.order
        for x in elements_of_length_leq(W, 4):
            for j in W.affine_generator_indices():
                assert O.descends(x, j) == generating_relation_holds(O, x, j)


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
    w = Weight((1,))  # the fundamental weight omega_1
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


def test_translation_characterization_rejects_shallow_mu(a1):
    W, O = a1.group, a1.order
    alpha = a1.rd.simple_roots[0]
    deep = W.translation(-3 * alpha)
    with pytest.raises(ValueError, match="not sufficiently dominant"):
        O.leq_via_translation(deep, W.identity(), Weight((0,)))
    # a failed certificate is not memoized: the same query raises again
    with pytest.raises(ValueError, match="not sufficiently dominant"):
        O.leq_via_translation(W.identity(), deep, Weight((0,)))


@pytest.mark.parametrize("fixture,height,shallow_failures", [
    ("a1", 1, 1), ("a2", 1, 17), ("b2", 1, 23), ("c2", 0, 7), ("g2", 1, 35), ("a3", 0, 23),
])
def test_sufficient_mu_takes_the_least_margin(fixture, height, shallow_failures, request):
    # (H + 1) rho certifies every element of the window, and H rho fails
    # the certificate of some element of the same window
    ctx = request.getfixturevalue(fixture)
    W, O = ctx.group, ctx.order
    win = standard_window(W, height)
    assert O.sufficient_mu(win) == (height + 1) * ctx.rd.rho
    shallow = height * ctx.rd.rho
    failures = [z for z in win if O.dominant_alcove_certificate(W.translate_left(shallow, z))]
    assert len(failures) == shallow_failures


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
        rows = SemiInfinitePoset.build(O, win).rows
        for _ in range(25):
            x, y = random.choice(win), random.choice(win)
            nu = Weight(tuple(random.randint(-2, 2) for _ in range(ctx.rd.rank)))
            assert O.leq(x, y) == O.leq(W.translate_left(nu, x), W.translate_left(nu, y))
            moved = [W.translate_left(nu, z) for z in win]
            assert SemiInfinitePoset.build(O, moved).rows == rows


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


@pytest.mark.parametrize("fixture,height", [("a1", 2), ("a2", 1), ("b2", 1), ("c2", 1), ("g2", 1), ("a3", 0)])
def test_leq_is_the_row_bit_on_every_pair(fixture, height, request):
    # every ordered pair of the window, all cosets, and False across cosets
    ctx = request.getfixturevalue(fixture)
    O = ctx.order
    win = standard_window(ctx.group, height)
    rows = SemiInfinitePoset.build(O, win).rows
    for i, x in enumerate(win):
        for j, y in enumerate(win):
            assert O.leq(x, y) == bool(rows[i] >> j & 1), (x, y)
            if x.omega_component != y.omega_component:
                assert not O.leq(x, y)


def _both_oracles(order, win):
    rows = SemiInfinitePoset.build(order, win).rows
    assert rows == poset_rows_by_search(order, win)
    assert rows == poset_rows_per_column(order, win)


@pytest.mark.parametrize("fixture,height", [("a1", 6), ("a2", 2), ("b2", 1), ("c2", 1), ("g2", 1), ("a3", 0)])
def test_build_matches_per_column_oracle(fixture, height, request):
    # against the generating-move search and the translation
    # characterization, one Bruhat column per element
    ctx = request.getfixturevalue(fixture)
    _both_oracles(ctx.order, standard_window(ctx.group, height))


def test_build_matches_per_column_oracle_on_cosets(a2):
    for coset in a2.group.omega_elements:
        _both_oracles(a2.order, standard_window(a2.group, 1, coset))


@pytest.mark.parametrize("fixture,height", [("a2", 2), ("b2", 2), ("c2", 1), ("g2", 1), ("a3", 1)])
def test_build_matches_per_column_oracle_on_shuffled_subwindows(fixture, height, request):
    # the rows are read per element, so neither the order nor the gaps of
    # the window may matter
    ctx = request.getfixturevalue(fixture)
    full = standard_window(ctx.group, height)
    rng = random.Random(f"subwindow:{fixture}")
    for _ in range(6):
        _both_oracles(ctx.order, rng.sample(full, rng.randint(5, 60)))


# -- the certificate of the closed form ------------------------------------------------


TYPES = sorted(_CARTAN)
TYPE_IDS = [f"{t}{r}" for t, r in TYPES]


def _order_of(key):
    """An order of the type ``key`` at its least admissible l."""
    rd = next(rd for l in range(3, 100) if not validate_l(rd := root_datum(*key, l)))
    return SemiInfiniteOrder(AffineWeyl(rd))


def _labels(key, coroot_heights, coroot_weights):
    """(2 ht, E(weight)) per positive root b: at root or coroot heights, and
    weighted by b or by its coroot read in the simple roots."""
    roots = root_system(*key)
    e = roots.lattice_index_e
    labels = []
    for beta in roots.positive_roots:
        root = scaled_coordinates(roots.scaled_inverse_cartan, beta)
        coroot = tuple(e * c for c in roots.coroots[beta])
        labels.append((2 * sum(coroot if coroot_heights else root) // e, coroot if coroot_weights else root))
    return labels


def _caught(order, build) -> str:
    """'same' when ``build`` gives the type's apex table, 'caught' when it
    raises AssertionError or its table fails the certificate, else 'missed'."""
    rd = order.rd
    try:
        apexes = build()
    except AssertionError:
        return "caught"
    if apexes == _apex_table(rd.cartan_type, rd.rank):
        return "same"
    return "caught" if apex_certificate(order, apexes) else "missed"


@pytest.mark.parametrize("key", TYPES, ids=TYPE_IDS)
def test_the_apex_certificate_holds(key):
    # (a)-(d) of the orders docstring on every supported type, so the closed
    # form is proved for all lam, mu and l of each
    order = _order_of(key)
    assert apex_certificate(order, _apex_table(*key)) == []
    tables = weyl_tables(*key)
    assert _apexes(tables, _quantum_bruhat_graph(tables, _labels(key, False, False))) == _apex_table(*key)


@pytest.mark.parametrize("key", TYPES, ids=TYPE_IDS)
def test_a_dropped_quantum_edge_fails_the_certificate(key):
    # every single quantum edge dropped in turn: a drop that moves a shortest
    # path's weight is caught, and some drop does
    order, tables = _order_of(key), weyl_tables(*key)
    graph = _quantum_bruhat_graph(tables, _labels(key, False, False))
    outcomes = []
    for u, edges in enumerate(graph):
        for k, (_, weight) in enumerate(edges):
            if any(weight):
                dropped = (*graph[:u], edges[:k] + edges[k + 1:], *graph[u + 1:])
                outcomes.append(_caught(order, lambda: _apexes(tables, dropped)))
    assert "missed" not in outcomes and "caught" in outcomes


@pytest.mark.parametrize("key", TYPES, ids=TYPE_IDS)
def test_coroot_weighted_quantum_edges_fail_the_certificate(key):
    # weighting quantum edges by coroots, at root or at coroot heights, is
    # caught on every doubly laced type and changes nothing on a simply laced one
    order, tables = _order_of(key), weyl_tables(*key)
    for heights in (False, True):
        outcome = _caught(order, lambda: _apexes(tables, _quantum_bruhat_graph(tables, _labels(key, heights, True))))
        assert outcome == ("same" if key[0] == "A" else "caught"), heights


@pytest.mark.parametrize("key", TYPES, ids=TYPE_IDS)
def test_apexes_read_without_the_inverses_fail_the_certificate(key):
    # d(w, v) = wt(v => w) in place of wt(v^-1 => w^-1): in A1 every
    # element is its own inverse, elsewhere the table moves and is caught
    order, apexes = _order_of(key), _apex_table(*key)
    inv = [w.inverse_index for w in order.group.finite_elements]
    outcome = _caught(order, lambda: tuple(tuple(apexes[inv[w]][inv[v]] for v in range(len(inv)))
                                           for w in range(len(inv))))
    assert outcome == ("same" if key == ("A", 1) else "caught")
