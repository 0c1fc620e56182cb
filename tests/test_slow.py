"""The slow tier: whole-window checks too long for the default run.

Deselected by the ``addopts`` in ``pyproject.toml``; run them with
``pytest -m slow``.
"""

import contextlib
import hashlib
import io

import pytest

from oracles import (every_table, generic_polynomial_by_dicts, kl_basis_by_dicts, module_with_classes_of,
                     poset_rows_per_column, tables_by_point_queries)
from periodic_kl.cli import main
from periodic_kl.hecke import MAX_LENGTH, HeckeAlgebra
from periodic_kl.orders import SemiInfinitePoset, standard_window
from periodic_kl.periodic import PeriodicModule
from periodic_kl.rootdata import Weight, dominance_leq
from periodic_kl.weyl import AffineWeyl

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("name,height", [("a3", 1), ("a3", 2), ("g2", 3)])
def test_build_matches_per_column_oracle_at_scale(request, name, height):
    ctx = request.getfixturevalue(name)
    win = standard_window(ctx.group, height)
    assert SemiInfinitePoset.build(ctx.order, win).rows == poset_rows_per_column(ctx.order, win)


def test_orders_hasse_g2_h2_is_the_searched_order():
    # stdout pinned from the generating-move search that decided the order
    # before its closed form
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["orders", "hasse", "--type", "G", "--rank", "2", "--l", "7", "--height", "2"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "0d953dc6d2bfa1d5993b222ce5120effecfbba67f4fe73f0f231e27d4e1091c2")


def test_orders_hasse_a3_h2_is_unchanged():
    # stdout pinned from the per-bit partial-order check and cover walk
    # that the whole-row ones replaced
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["orders", "hasse", "--type", "A", "--rank", "3", "--l", "5", "--height", "2"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "1c3744c8c182730eb2b4f64a62161170c326da2879276ac39707a232bc6e1014")


@pytest.mark.parametrize("cartan,rank,l,height", [
    ("A", 3, 5, 1),
    ("G", 2, 7, 1),
    ("B", 2, 5, 2),
], ids=["A3-l5-h1", "G2-l7-h1", "B2-l5-h2"])
def test_selfcheck_text(cartan, rank, l, height, tmp_path):
    out = tmp_path / "selfcheck.txt"
    argv = ["selfcheck", "--type", cartan, "--rank", str(rank), "--l", str(l),
            "--height", str(height), "--format", "text", "-o", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines and all(line.startswith("ok ") for line in lines)


def test_kl_basis_matches_the_dict_oracle_g2_length_42(g2):
    W = g2.group
    x = W.parse_element("t(3,3)*w[1 2 1 2 1 2]")
    assert x.length == 42
    H = HeckeAlgebra(W)
    assert H.kl_basis(x).terms == kl_basis_by_dicts(H, x, {}).terms


def test_hecke_kl_at_the_length_bound_g2(g2):
    # the longest element the command line admits: at 64-bit digits its
    # tracked bound alone reaches 2^63 by length 50, while its coefficients
    # stay below 2^12, so it completes through the measured bound; its stdout
    # is pinned from 128-bit digits, where the tracked bound (82 bits) fit
    argv = ["hecke", "kl", "--type", "G", "--rank", "2", "--l", "7", "--x", "t(5,4)*w[1 2 1 2 1 2]"]
    assert g2.group.parse_element(argv[-1]).length == MAX_LENGTH
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "3602ff3b980a4aa798bb5e33964d2c40db9d6c758da27812646b8ae3ca13d73e")


def test_kl_memo_at_the_length_bound_g2(g2):
    # the memo of that element, stepping through a memoized u or else the u
    # with the most right descents: 1,433 entries and 1,396,187 terms, where
    # the lowest descent took 1,853 and 1,880,297
    W = AffineWeyl(g2.rd)
    H = HeckeAlgebra(W)
    H.kl_basis(W.parse_element("t(5,4)*w[1 2 1 2 1 2]"))
    assert sum(len(cy) for cy, _ in H._kl_cache.values()) <= 1_396_187


def test_koszul_round_trip_over_support_and_window_a3_h1(a3):
    # every window x and every y in supp(SD_x) or the window, zeros included
    M = PeriodicModule(a3.group)
    win = standard_window(a3.group, 1)
    for x in win:
        sd = M.selfdual(x)
        for y in set(sd.terms) | set(win):
            assert M.koszul_of_series(y, x) == sd.coefficient(y), (y, x)


def test_generic_polynomials_match_the_dict_oracle_g2_h1(g2):
    M = g2.module
    win = standard_window(g2.group, 1)
    for x in win:
        for y in win:
            if y.omega_component == x.omega_component:
                for kind in ("q", "qprime"):
                    assert M.generic_polynomial(y, x, kind) == generic_polynomial_by_dicts(M, y, x, kind)


@pytest.mark.parametrize("name,height", [("b2", 2), ("c2", 2), ("g2", 2), ("a3", 1)])
def test_tables_match_point_queries_at_scale(request, name, height):
    # every kind, every pair of a full window, against point queries on a
    # module whose memo no table has filled (G2 h1 is in the default run)
    ctx = request.getfixturevalue(name)
    W, rd = ctx.group, ctx.rd
    window = standard_window(W, height)
    nu = Weight((0,) * rd.rank)
    kept = [y for y in window if dominance_leq(rd, W.dot_zero(y), rd.l * nu)]
    assert 0 < len(kept) < len(window)
    tables = every_table(module_with_classes_of(ctx.module), window, nu)
    assert tables == tables_by_point_queries(ctx.module, window, nu)
