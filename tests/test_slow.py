"""The slow tier: whole-window checks too long for the default run.

Deselected by the ``addopts`` in ``pyproject.toml``; run them with
``pytest -m slow``.
"""

import pytest

from oracles import generic_polynomial_by_dicts, kl_basis_by_dicts, poset_rows_per_column
from periodic_kl.cli import main
from periodic_kl.hecke import HeckeAlgebra
from periodic_kl.orders import SemiInfinitePoset, standard_window
from periodic_kl.periodic import PeriodicModule

pytestmark = pytest.mark.slow


def test_build_matches_per_column_oracle_a3_h1(a3):
    win = standard_window(a3.group, 1)
    assert SemiInfinitePoset.build(a3.order, win).rows == poset_rows_per_column(a3.order, win)


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
    assert H.kl_basis(x).to_json() == kl_basis_by_dicts(H, x, {}).to_json()


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
