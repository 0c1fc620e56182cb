"""A window's poset: its partial-order check on planted non-orders, and its
covers against an oracle that reads columns."""

import random

import pytest

from oracles import covers_by_columns
from periodic_kl import orders
from periodic_kl.cli import main
from periodic_kl.orders import SemiInfiniteOrder, SemiInfinitePoset, standard_window


@pytest.mark.parametrize("rows,message", [
    ((0b111, 0b100, 0b100), "reflexivity"),  # the chain 0 < 1 < 2 without 1 <= 1
    ((0b011, 0b011, 0b100), "antisymmetry"),  # 0 <= 1 <= 0
    ((0b011, 0b110, 0b100), "transitivity"),  # 0 <= 1 <= 2 without 0 <= 2
], ids=["reflexivity", "antisymmetry", "transitivity"])
def test_planted_non_orders_are_refused(a1, rows, message):
    window = tuple(standard_window(a1.group, 1)[:3])
    with pytest.raises(AssertionError, match=f"^{message} violated$"):
        SemiInfinitePoset(window, rows).check_partial_order()


def _is_partial_order(rows) -> bool:
    n = len(rows)
    pairs = [(i, j) for i in range(n) for j in range(n) if rows[i] >> j & 1]
    return (all(rows[i] >> i & 1 for i in range(n))
            and not any(i != j and rows[j] >> i & 1 for i, j in pairs)
            and all(rows[i] >> k & 1 for i, j in pairs for k in range(n) if rows[j] >> k & 1))


def test_check_partial_order_is_the_per_pair_definition(a1):
    # up to 5 random points of a 3 x 3 grid under the componentwise preorder
    # (a repeated point is a 2-cycle), half of them with one bit flipped:
    # the row check refuses exactly the non-orders
    rng = random.Random(0)
    window = tuple(standard_window(a1.group, 2)[:5])
    outcomes = set()
    for _ in range(2000):
        points = [(rng.randrange(3), rng.randrange(3)) for _ in range(rng.randint(1, 5))]
        n = len(points)
        rows = [sum(1 << j for j, q in enumerate(points) if p[0] <= q[0] and p[1] <= q[1]) for p in points]
        if rng.random() < 0.5:
            rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
        try:
            SemiInfinitePoset(window[:n], tuple(rows)).check_partial_order()
            outcome = "ok"
        except AssertionError as exc:
            outcome = str(exc)
        assert (outcome == "ok") == _is_partial_order(rows), rows
        outcomes.add(outcome)
    assert outcomes == {"ok", "reflexivity violated", "antisymmetry violated", "transitivity violated"}


def test_a_planted_symmetric_apex_pair_stops_orders_hasse(a2, monkeypatch, capsys):
    # d(e, s_1) = d(s_1, e) = 0 puts t(0) e and t(0) s_1 below each other.
    # Planted for ``_apex_table``, it reaches a fresh order's cone test and
    # the window's rows alike, and the command exits 4 with one line
    W = a2.group
    x, y = W.identity(), W.simple_reflection(0)
    w, v = x.w.index, y.w.index
    real = orders._apex_table("A", 2)
    zero = real[w][w]
    planted = tuple(tuple(zero if {a, b} == {w, v} else d for b, d in enumerate(row)) for a, row in enumerate(real))
    assert planted != real
    monkeypatch.setattr(orders, "_apex_table", lambda cartan_type, rank: planted)
    order = SemiInfiniteOrder(W)
    assert order.leq(x, y) and order.leq(y, x)
    assert main(["orders", "hasse", "--type", "A", "--rank", "2", "--l", "5", "--height", "0"]) == 4
    assert capsys.readouterr() == ("", "internal consistency failure: antisymmetry violated\n")


@pytest.mark.parametrize("name", ["a2", "b2", "c2", "g2", "a3"])
def test_hasse_edges_are_the_covers_read_from_columns(request, name):
    ctx = request.getfixturevalue(name)
    poset = SemiInfinitePoset.build(ctx.order, standard_window(ctx.group, 1))
    index = {z: i for i, z in enumerate(poset.window)}
    edges = [(index[a], index[b]) for a, b in poset.hasse_edges()]
    assert edges and len(set(edges)) == len(edges)
    assert set(edges) == covers_by_columns(poset.rows)
