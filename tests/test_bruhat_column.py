"""The Bruhat order a column at a time (``AffineWeyl.bruhat_column``) and
the translation characterization of the semi-infinite order built on it
(``SemiInfiniteOrder.column_via_translation``), against the subword and
per-pair descent oracles, and the ``selfcheck`` line that compares it with
the generated order."""

import pytest

from periodic_kl.cli import main
from periodic_kl.orders import SemiInfinitePoset, standard_window
from periodic_kl.rootdata import Weight
from oracles import bruhat_leq_by_descent, from_word, subword_bruhat


@pytest.mark.parametrize("fixture,height", [("a1", 2), ("a2", 1), ("b2", 1)])
def test_bruhat_column_against_subword_oracle(fixture, height, request):
    # every pair of a small window, cross-coset pairs included
    ctx = request.getfixturevalue(fixture)
    W = ctx.group
    win = standard_window(W, height)
    for y in win:
        assert W.bruhat_column(win, y) == [subword_bruhat(W, x, y) for x in win], repr(y)


@pytest.mark.parametrize("fixture,height", [
    ("a1", 6), ("a2", 1), ("b2", 0), ("c2", 0), ("g2", 0), ("a3", 0),
])
def test_bruhat_column_against_descent_recursion(fixture, height, request):
    # the translated windows that selfcheck compares (the benchmark's five
    # selfcheck data and A3 h0), every pair, against one walk per pair
    ctx = request.getfixturevalue(fixture)
    W, O = ctx.group, ctx.order
    win = standard_window(W, height)
    mu = O.sufficient_mu(win)
    deep = [W.translate_left(mu, z) for z in win]
    for y in deep:
        assert W.bruhat_column(deep, y) == [bruhat_leq_by_descent(W, x, y) for x in deep], repr(y)


def test_bruhat_column_edge_cases(a2):
    W = a2.group
    e = W.identity()
    omega = next(om for om in W.omega_elements.values() if om is not e)
    x = from_word(W, [1, 2, 1, 0])
    assert W.bruhat_column([], x) == []
    # at length 0 only the element itself lies below; other cosets never do
    assert W.bruhat_column([e, omega, x], e) == [True, False, False]
    assert W.bruhat_column([x, e, omega, x], x) == [True, True, False, True]
    assert W.bruhat_leq(e, x) and not W.bruhat_leq(x, e)


def test_column_via_translation_matches_the_generated_order(b2):
    W, O = b2.group, b2.order
    win = standard_window(W, 1)
    mu = O.sufficient_mu(win)
    rows = SemiInfinitePoset.build(O, win).rows
    for j, y in enumerate(win):
        assert O.column_via_translation(win, y, mu) == [bool(row >> j & 1) for row in rows], repr(y)


def test_column_via_translation_rejects_shallow_mu(a1):
    # a query that is not dominant enough is refused wherever it sits in the column
    W, O = a1.group, a1.order
    deep = W.translation(-3 * a1.rd.simple_roots[0])
    zero = Weight((0,))
    for xs, y in (([W.identity(), deep], W.identity()), ([W.identity()], deep)):
        with pytest.raises(ValueError, match="not sufficiently dominant: <t"):
            O.column_via_translation(xs, y, zero)


def test_planted_order_disagreement_fails_selfcheck(monkeypatch, capsys):
    # flip one off-diagonal same-coset bit of the generated A2 l5 h1 order:
    # only the order line may fail, and selfcheck exits 4
    build = SemiInfinitePoset.build

    def flipped(order, window):
        poset = build(order, window)
        win = poset.window
        i, j = next((i, j) for i, a in enumerate(win) for j, b in enumerate(win)
                    if i != j and a.omega_component == b.omega_component)
        rows = list(poset.rows)
        rows[i] ^= 1 << j
        return SemiInfinitePoset(win, tuple(rows))

    monkeypatch.setattr(SemiInfinitePoset, "build", staticmethod(flipped))
    code = main(["selfcheck", "--type", "A", "--rank", "2", "--l", "5", "--height", "1", "--format", "text"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out.splitlines() == [
        "FAIL  order generated == translation characterization",
        "ok  signed inversion identity q * p = delta",
        "ok  Koszul operator inverts the geometric series",
    ]
    assert err.startswith("internal consistency failure: selfcheck failed")
