"""The slow tier: whole-window checks too long for the default run.

Deselected by the ``addopts`` in ``pyproject.toml``; run them with
``pytest -m slow``.
"""

import pytest

from oracles import poset_rows_per_column
from periodic_kl.cli import main
from periodic_kl.orders import SemiInfinitePoset, standard_window

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
