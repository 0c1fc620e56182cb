"""Contexts are acyclic: a group, order, module or algebra and everything
computed from it is freed by reference counting, never left to the cyclic
collector.  Elements and combinations hold no pointer to their owner."""

import contextlib
import gc
import io
import json
import re
from pathlib import Path

import pytest

from periodic_kl.cli import build_parser, main
from periodic_kl.hecke import HeckeAlgebra, HeckeElement
from periodic_kl.multiplicity import MultiplicityTables
from periodic_kl.orders import SemiInfinitePoset, standard_window
from periodic_kl.periodic import PeriodicElement, PeriodicModule
from periodic_kl.rootdata import root_datum
from periodic_kl.weyl import AffineWeyl, ExtAffineElement
from test_digests import FORMAT_DIGESTS

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())


@contextlib.contextmanager
def _collector_off():
    """Run the body with the collector disabled, saving what it finds after."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        gc.enable()


def _exercise(cartan_type: str, rank: int, l: int, height: int) -> None:
    rd = root_datum(cartan_type, rank, l)
    group = AffineWeyl(rd)
    module = PeriodicModule(group)
    order = module.order
    algebra = HeckeAlgebra(group)
    window = standard_window(group, height)
    module.polynomial_table("periodic_p", window)
    module.polynomial_table("generic_q", window)
    assert module.inversion_report(window) == []
    for x in window[:4]:
        sd = module.selfdual(x)
        for y in sd.terms:
            assert module.koszul_of_series(y, x) == sd.coefficient(y)
    MultiplicityTables(module).table("simple_in_verma", window)
    SemiInfinitePoset.build(order, window).hasse_edges()
    for x in window[:4]:
        algebra.kl_basis(x)


@pytest.mark.parametrize("cartan_type,rank,l,height", [
    ("A", 1, 3, 2), ("A", 2, 5, 1), ("B", 2, 5, 1), ("C", 2, 5, 1), ("G", 2, 7, 1), ("A", 3, 5, 0),
])
def test_a_dropped_context_leaves_no_cyclic_garbage(cartan_type, rank, l, height):
    with _collector_off():
        _exercise(cartan_type, rank, l, height)
        found = gc.collect()
        kinds = sorted({type(o).__qualname__ for o in gc.garbage})
    assert found == 0, kinds


def _tokens(argv: str) -> list[str]:
    return re.findall(r"\S*\[[^\]]*\]|\S+", argv)


# Every pinned invocation: the benchmark's, and every other format and small
# document of tests/test_digests.py.
@pytest.mark.parametrize("argv", sorted({*DIGESTS, *FORMAT_DIGESTS}))
def test_an_invocation_leaves_no_garbage_of_ours(argv):
    # The parser is built once per process, and building it leaves argparse
    # cycles behind; build it before measuring.  Everything else an
    # invocation makes, its output included, is freed by reference
    # counting.
    build_parser()
    with _collector_off():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(_tokens(argv)) == 0
        gc.collect()
        kinds = sorted({type(o).__qualname__ for o in gc.garbage})
    assert kinds == []


def test_elements_and_combinations_hold_no_owner():
    assert "group" not in ExtAffineElement.__slots__
    assert PeriodicElement.__slots__ == HeckeElement.__slots__ == ()
