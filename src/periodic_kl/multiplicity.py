"""Block combinatorics and graded multiplicity tables.

Blocks of the principal-type module categories are labelled by orbits of the
l-dilated dot action; each orbit has a unique representative in the closed
fundamental alcove

    { lam : 0 <= <lam + rho, beta^> <= l  for all positive coroots beta^ },

whose lattice points this module enumerates together with their stabilizers
under the affine dot action.  The stabilizer of a point is generated by the
reflections through the alcove walls containing it: the finite reflection
s_i for a wall <lam + rho, alpha_i^> = 0 and the affine reflection
t(eta) s_eta for the upper wall <lam + rho, eta^> = l (eta the dominant root
with highest coroot).  A label is regular iff its stabilizer is trivial.

The graded multiplicity tables are views over the periodic and generic
polynomial tables of :mod:`.periodic`:

- simple-in-Verma:                [x : y]  =  q_{w0 x, w0 y},
- Verma-in-(truncated) projective: (x : y) =  q'_{w0 y, w0 x} if
  y dot_l 0 <= l * nu, and 0 otherwise,
- baby-Verma-in-projective and simple-in-baby-Verma, which coincide:
                                   p_{w0 x, w0 y}.

Grading normalization: each lift is normalized so that the diagonal entry
is 1 (no overall grading shift); tables are reported in that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Literal, Optional, Sequence, get_args

from .laurent import ZERO, LaurentPoly
from .periodic import PeriodicModule
from .rootdata import Weight, dominance_leq, pairing
from .weyl import AffineWeyl, ExtAffineElement

__all__ = [
    "BlockLabel",
    "MultiplicityTable",
    "enumerate_blocks",
    "select_omega_s",
    "MultiplicityTables",
]


@dataclass(frozen=True)
class BlockLabel:
    """An orbit label: a lattice point of the closed fundamental alcove."""

    representative: Weight
    stabilizer_generators: tuple[ExtAffineElement, ...]
    walls: tuple[str, ...]  # "s1", "s2", ... for lower walls, "s0" for the upper wall
    regular: bool


def enumerate_blocks(group: AffineWeyl) -> list[BlockLabel]:
    """All lattice points of the closed fundamental alcove with stabilizers."""
    rd = group.rd
    l = rd.l
    rank = rd.rank
    eta = rd.short_dominant_root
    eta_check = rd.coroot(eta)
    out = []
    for lam in map(Weight, product(range(-1, l), repeat=rank)):
        shifted = lam + rd.rho
        if any(pairing(rd, shifted, rd.coroot(b)) < 0 for b in rd.positive_roots):
            continue
        if any(pairing(rd, shifted, rd.coroot(b)) > l for b in rd.positive_roots):
            continue
        gens: list[ExtAffineElement] = []
        walls: list[str] = []
        for i in range(rank):
            if pairing(rd, shifted, rd.simple_coroots[i]) == 0:
                gens.append(group.simple_reflection(i))
                walls.append(f"s{i + 1}")
        if pairing(rd, shifted, eta_check) == l:
            gens.append(group.affine_generator(0))
            walls.append("s0")
        out.append(
            BlockLabel(
                representative=lam,
                stabilizer_generators=tuple(gens),
                walls=tuple(walls),
                regular=not gens,
            )
        )
    out.sort(key=lambda b: b.representative)
    return out


def select_omega_s(group: AffineWeyl, j: int) -> BlockLabel:
    """A block label whose dot-action stabilizer is {1, s_j} exactly.

    ``j`` indexes the affine simple reflections (0 is the affine one).
    """
    want = "s0" if j == 0 else f"s{j}"
    for label in enumerate_blocks(group):
        if label.walls == (want,):
            return label
    raise ValueError(f"no block label with stabilizer {{1, {want}}} (is l large enough?)")


TableKind = Literal[
    "simple_in_verma",
    "verma_in_projective_truncated",
    "babyverma_in_projective",
    "simple_in_babyverma",
]


@dataclass
class MultiplicityTable:
    kind: TableKind
    window: tuple[ExtAffineElement, ...]
    truncation: Optional[Weight]
    entries: dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly]


class MultiplicityTables:
    """Graded multiplicities as views over one periodic-module context."""

    def __init__(self, module: PeriodicModule):
        self.module = module
        self.group = module.group
        self.rd = module.rd
        g = self.group
        self._w0 = g.element(Weight((0,) * self.rd.rank), g.w0.index)

    def _twist(self, x: ExtAffineElement) -> ExtAffineElement:
        return self.group.multiply(self._w0, x)

    # -- operations -------------------------------------------------------------

    def simple_in_verma(self, x: ExtAffineElement, y: ExtAffineElement) -> LaurentPoly:
        """Graded multiplicity of the simple at y dot 0 in the Verma at x dot 0."""
        return self.module.generic_polynomial(self._twist(x), self._twist(y), "q")

    def verma_in_projective(
        self, x: ExtAffineElement, y: ExtAffineElement, nu: Weight
    ) -> LaurentPoly:
        """Graded multiplicity of the Verma at y dot 0 in the nu-truncated
        projective at x dot 0; zero when y dot 0 is not below l*nu."""
        if not dominance_leq(self.rd, self.group.dot_zero(y), self.rd.l * nu):
            return ZERO
        return self.module.generic_polynomial(self._twist(y), self._twist(x), "qprime")

    def baby_verma_in_projective(self, x: ExtAffineElement, y: ExtAffineElement) -> LaurentPoly:
        """(projective at y : baby Verma at x), graded.  By reciprocity it equals
        [baby Verma at x : simple at y], so ``simple_in_baby_verma`` is this
        same function."""
        return self.module.p_polynomial(self._twist(x), self._twist(y))

    simple_in_baby_verma = baby_verma_in_projective

    # -- tables ------------------------------------------------------------------

    def table(
        self,
        kind: TableKind,
        window: Sequence[ExtAffineElement],
        nu: Optional[Weight] = None,
    ) -> MultiplicityTable:
        """The nonzero entries (x, y) over the window, twisting each element by w0 once."""
        if kind not in get_args(TableKind):
            raise ValueError(f"unknown table kind {kind!r}")
        truncated = kind == "verma_in_projective_truncated"
        if truncated and nu is None:
            raise ValueError("truncated table needs a truncation weight nu")
        win = tuple(window)
        mod = self.module
        twisted = [(x, self._twist(x)) for x in win]
        columns = twisted
        if truncated:
            top = self.rd.l * nu
            columns = [(y, ty) for y, ty in twisted
                       if dominance_leq(self.rd, self.group.dot_zero(y), top)]
        entries: dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly] = {}
        for x, tx in twisted:
            for y, ty in columns:
                if kind == "simple_in_verma":
                    p = mod.generic_polynomial(tx, ty, "q")
                elif truncated:
                    p = mod.generic_polynomial(ty, tx, "qprime")
                else:  # both baby kinds are p_{w0 x, w0 y}
                    p = mod.p_polynomial(tx, ty)
                if not p.is_zero():
                    entries[(x, y)] = p
        return MultiplicityTable(kind, win, nu, entries)
