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

A table is a relabelling of the module's table of q, q' or p over the
w0-twisted window, w0 t(lam) w = t(w0 lam) (w0 w), back onto the window;
the truncated projective table restricts its rows w0 y by the dominance
test before any polynomial is evaluated.

Grading normalization: each lift is normalized so that the diagonal entry
is 1 (no overall grading shift); tables are reported in that convention.
"""

from __future__ import annotations

from itertools import product
from typing import Literal, NamedTuple, Optional, Sequence, get_args

from .laurent import ZERO, LaurentPoly, ResourceError
from .periodic import PeriodicModule
from .rootdata import Weight, dominance_leq, pairing
from .weyl import AffineWeyl, ExtAffineElement

__all__ = [
    "BlockLabel",
    "enumerate_blocks",
    "MultiplicityTables",
]

# Bound on the points the alcove enumeration visits, (l + 1)^rank.
MAX_BLOCK_POINTS = 100_000


class BlockLabel(NamedTuple):
    """An orbit label: a lattice point of the closed fundamental alcove."""

    representative: Weight
    stabilizer_generators: tuple[ExtAffineElement, ...]
    walls: tuple[str, ...]  # "s1", "s2", ... for lower walls, "s0" for the upper wall
    regular: bool


def enumerate_blocks(group: AffineWeyl) -> list[BlockLabel]:
    """All lattice points of the closed fundamental alcove with stabilizers.

    The walk visits the (l + 1)^rank points of the box [-1, l - 1]^rank in
    ascending order; a box of more than ``MAX_BLOCK_POINTS`` points is
    refused before the walk.  In the box every <lam + rho, alpha_i^> lies in
    [0, l], and every positive coroot is at most eta^ coordinatewise
    (``rootdata.root_system`` asserts it), so the upper wall alone decides
    the closed alcove.
    """
    rd = group.rd
    l = rd.l
    rank = rd.rank
    size = (l + 1) ** rank
    if size > MAX_BLOCK_POINTS:
        raise ResourceError(
            f"the alcove walk at l={l} in rank {rank} visits {size} points, above the bound of {MAX_BLOCK_POINTS}"
        )
    eta = rd.short_dominant_root
    eta_check = rd.coroot(eta)
    out = []
    for lam in map(Weight, product(range(-1, l), repeat=rank)):
        shifted = lam + rd.rho
        upper = pairing(rd, shifted, eta_check)
        if upper > l:
            continue
        gens: list[ExtAffineElement] = []
        walls: list[str] = []
        for i in range(rank):
            if pairing(rd, shifted, rd.simple_coroots[i]) == 0:
                gens.append(group.simple_reflection(i))
                walls.append(f"s{i + 1}")
        if upper == l:
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
    return out


TableKind = Literal[
    "simple_in_verma",
    "verma_in_projective_truncated",
    "babyverma_in_projective",
]


class MultiplicityTables:
    """Graded multiplicities as views over one periodic-module context."""

    def __init__(self, module: PeriodicModule):
        self.module = module
        self.group = module.group
        self.rd = module.rd

    def _twist(self, x: ExtAffineElement) -> ExtAffineElement:
        """w0 x = t(w0 lam)(w0 w) for x = t(lam) w."""
        g = self.group
        g._check(x)
        w0 = g.w0
        return g.element(w0.apply(x.trans), g._fin_mul[w0.index][x.w.index])

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
        """(projective at y : baby Verma at x), graded.  By reciprocity it also
        equals [baby Verma at x : simple at y]."""
        return self.module.p_polynomial(self._twist(x), self._twist(y))

    # -- tables ------------------------------------------------------------------

    def table(
        self,
        kind: TableKind,
        window: Sequence[ExtAffineElement],
        nu: Optional[Weight] = None,
    ) -> dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly]:
        """The nonzero entries {(x, y): polynomial} over the window: the
        module's table of the view's kind over the w0-twisted window,
        relabelled (module docstring).  ``nu`` is required by the truncated
        kind and refused by the others."""
        if kind not in get_args(TableKind):
            raise ValueError(f"unknown table kind {kind!r}; expected one of {', '.join(get_args(TableKind))}")
        truncated = kind == "verma_in_projective_truncated"
        if truncated and nu is None:
            raise ValueError("truncated table needs a truncation weight nu")
        if not truncated and nu is not None:
            raise ValueError(f"a truncation weight nu applies only to verma_in_projective_truncated, not {kind}")
        back = {self._twist(x): x for x in window}
        twisted = list(back)
        if truncated:  # (x : y) = q'_{w0 y, w0 x}, over the y with y dot 0 <= l * nu
            top = self.rd.l * nu
            rows = [ty for ty, y in back.items() if dominance_leq(self.rd, self.group.dot_zero(y), top)]
            raw = self.module._table_entries("generic_qprime", rows, twisted)
            return {(back[b], back[a]): p for (a, b), p in raw.items()}
        # [x : y] = q_{w0 x, w0 y}, and the baby view p_{w0 x, w0 y}
        raw = self.module._table_entries("generic_q" if kind == "simple_in_verma" else "periodic_p", twisted, twisted)
        return {(back[a], back[b]): p for (a, b), p in raw.items()}
