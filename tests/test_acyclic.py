"""Contexts are acyclic: a group, order, module or algebra and everything
computed from it is freed by reference counting, never left to the cyclic
collector.  Elements and combinations hold no pointer to their owner.  Each
pinned command-line invocation is checked on the one run that
``test_digests`` also reads for its digest."""

import gc

import pytest

from periodic_kl.hecke import HeckeAlgebra, HeckeElement
from periodic_kl.multiplicity import MultiplicityTables
from periodic_kl.orders import SemiInfinitePoset, _apex_table, standard_window
from periodic_kl.periodic import PeriodicElement, PeriodicModule
from periodic_kl.rootdata import _CARTAN, root_datum
from periodic_kl.weyl import AffineWeyl, ExtAffineElement
from test_digests import FORMAT_DIGESTS, PINNED, collector_off, run_once


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
    with collector_off():
        _exercise(cartan_type, rank, l, height)
        found = gc.collect()
        kinds = sorted({type(o).__qualname__ for o in gc.garbage})
    assert found == 0, kinds


# Every pinned invocation: the benchmark's, and every other format and small
# document of tests/test_digests.py.
@pytest.mark.parametrize("argv", sorted({*PINNED, *FORMAT_DIGESTS}))
def test_an_invocation_leaves_no_garbage_of_ours(argv):
    assert run_once(argv)[1] == []


def test_elements_and_combinations_hold_no_owner():
    assert "group" not in ExtAffineElement.__slots__
    assert PeriodicElement.__slots__ == HeckeElement.__slots__ == ()


def test_the_apex_cache_holds_only_integers():
    # the per-type apex tables outlive every context: tuples of ints only,
    # so they hold no group, element or root datum alive
    def kinds(value):
        yield type(value)
        if type(value) is tuple:
            for item in value:
                yield from kinds(item)

    for key in _CARTAN:
        assert set(kinds(_apex_table(*key))) == {tuple, int}
    assert _apex_table.cache_info().currsize <= len(_CARTAN)
