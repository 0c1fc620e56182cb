import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))
# While collecting property tests, hypothesis caches the constants of loaded
# modules under its home directory, ./.hypothesis by default; keep the tree clean.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "periodic-kl-hypothesis")

from periodic_kl.hecke import HeckeAlgebra
from periodic_kl.periodic import PeriodicModule
from periodic_kl.rootdata import root_datum
from periodic_kl.weyl import AffineWeyl


class Context:
    """One root datum with all derived structures, shared across a session."""

    def __init__(self, cartan_type: str, rank: int, l: int):
        self.rd = root_datum(cartan_type, rank, l)
        self.group = AffineWeyl(self.rd)
        self.hecke = HeckeAlgebra(self.group)
        self.module = PeriodicModule(self.group)
        self.order = self.module.order


@pytest.fixture(scope="session")
def a1():
    return Context("A", 1, 3)


@pytest.fixture(scope="session")
def a1_l5():
    return Context("A", 1, 5)


@pytest.fixture(scope="session")
def a2():
    return Context("A", 2, 5)


@pytest.fixture(scope="session")
def b2():
    return Context("B", 2, 5)


@pytest.fixture(scope="session")
def c2():
    return Context("C", 2, 5)


@pytest.fixture(scope="session")
def g2():
    return Context("G", 2, 7)


@pytest.fixture(scope="session")
def a3():
    return Context("A", 3, 5)
