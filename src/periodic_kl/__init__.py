"""Exact periodic and generic Kazhdan-Lusztig polynomials over extended
affine Weyl groups, with the graded multiplicity tables they control.

Typical use::

    from periodic_kl import root_datum, AffineWeyl, PeriodicModule

    rd = root_datum("A", 1, 3)
    group = AffineWeyl(rd)
    mod = PeriodicModule(group)
    s = group.simple_reflection(0)
    mod.selfdual(s)          # self-dual basis element, certified
    mod.p_polynomial(group.translation(-rd.simple_roots[0]), s)
"""

from .hecke import HeckeAlgebra, HeckeElement, ResourceError
from .laurent import LaurentPoly
from .multiplicity import (
    BlockLabel,
    MultiplicityTable,
    MultiplicityTables,
    enumerate_blocks,
    select_omega_s,
)
from .orders import SemiInfiniteOrder, SemiInfinitePoset, standard_window
from .periodic import CertificationError, PeriodicElement, PeriodicModule, PolynomialTable
from .rootdata import RootDatum, Weight, dominance_leq, pairing, root_datum, validate_l
from .weyl import AffineWeyl, ExtAffineElement, FiniteWeylElement

__all__ = [
    "AffineWeyl",
    "BlockLabel",
    "CertificationError",
    "ExtAffineElement",
    "FiniteWeylElement",
    "HeckeAlgebra",
    "HeckeElement",
    "LaurentPoly",
    "MultiplicityTable",
    "MultiplicityTables",
    "PeriodicElement",
    "PeriodicModule",
    "PolynomialTable",
    "ResourceError",
    "RootDatum",
    "SemiInfiniteOrder",
    "SemiInfinitePoset",
    "Weight",
    "dominance_leq",
    "enumerate_blocks",
    "pairing",
    "root_datum",
    "select_omega_s",
    "standard_window",
    "validate_l",
]

__version__ = "0.1.0"
