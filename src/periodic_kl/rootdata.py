"""Root data for the supported semisimple types, with exact integer arithmetic.

Conventions used throughout the package:

- Weights live in the weight lattice and are their own *fundamental-weight
  coordinates*: a :class:`Weight` is the integer tuple ``(<lam, a_1^>, ...,
  <lam, a_r^>)`` of pairings against the simple coroots, a ``tuple``
  subclass that adds only vector arithmetic (it equals and hashes as the
  plain tuple).  In these coordinates the pairing against any coroot is a
  plain integer dot product.
- A coroot is a plain integer tuple, its expansion in the simple coroots,
  so that ``pairing(lam, beta^) = sum_s c_s * lam_s`` where ``c`` are the
  coroot's coordinates.
- Root coordinates (the expansion in the simple roots) of a general weight
  are rational with denominator dividing the lattice index ``e = |weight
  lattice / root lattice| = det C``.  Their one integer form is
  ``E = e * C^{-1} lam`` (:meth:`RootDatum.scaled_root_coordinates`, with
  ``e * C^{-1}`` the adjugate of the Cartan matrix ``C``): ``lam`` lies in
  the root lattice iff every ``E_i`` is divisible by ``e``, ``E mod e`` is
  its coset tag, dominance is ``E >= 0`` and divisible by ``e``, and
  ``<lam, 2 rho^> = 2 sum(E) / e``.  Every other module reads root
  coordinates from this form.
- ``rho`` is the half sum of positive roots, i.e. ``(1, ..., 1)`` in
  fundamental coordinates.

Supported types: A1, A2, A3, B2 (with C2 as the transposed labelling) and
G2.  Positive roots are enumerated by closing the simple roots under simple
reflections; nothing here is hard-coded beyond the Cartan matrices and the
symmetrizers ``d_s``.

Per-type tables.  Everything above is built from the Cartan matrix and the
symmetrizers of the type alone, so :func:`root_system` builds it once per
(type, rank) and process, as a :class:`RootSystem`: at most six entries,
one per supported type (the Weyl group tables of :mod:`.weyl` have their
own cache, :func:`.weyl.weyl_tables`, built from this one).  The root
system's fields are the Cartan matrix, ``d``, the symmetrized
matrix ``sym``, ``e`` and the adjugate ``e * C^{-1}``, the simple roots and
coroots, the positive roots, the coroot of every root, the highest and
short dominant roots, ``rho``, the Coxeter number and ``2 rho^``.  None of
them reads ``l``: the build takes only (type, rank), and ``l`` enters only
through :class:`RootDatum`, which holds it next to a reference to the
shared tables.  The tables are frozen records of tuples of integers and one
read-only mapping, so no caller can edit them for the calls after it.

The root-of-unity order ``l`` attached to a :class:`RootDatum` must be odd,
larger than the Coxeter number, coprime to the lattice index ``e``, and
coprime to 3 in type G2.  ``validate_l`` reports violations of these
constraints, and they are the only check on ``l``.  Results elsewhere may
assume ``l`` is a prime power; nothing here depends on it.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from operator import add, mul, neg, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Weight",
    "RootDatum",
    "root_datum",
    "root_system",
    "pairing",
    "dominance_leq",
    "validate_l",
]

# Cartan matrices A[s][t] = <a_s^, a_t> and symmetrizers d_s (so that
# d_s * A[s][t] is symmetric positive definite, with gcd(d_s) = 1).
_CARTAN = {
    ("A", 1): ([[2]], [1]),
    ("A", 2): ([[2, -1], [-1, 2]], [1, 1]),
    ("A", 3): ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1]),
    # B2: alpha_1 long, alpha_2 short.
    ("B", 2): ([[2, -1], [-2, 2]], [2, 1]),
    # C2 is B2 with the opposite labelling (alpha_1 short, alpha_2 long).
    ("C", 2): ([[2, -2], [-1, 2]], [1, 2]),
    # G2: alpha_1 short, alpha_2 long.
    ("G", 2): ([[2, -3], [-1, 2]], [1, 3]),
}


class Weight(tuple):
    """A weight: its tuple of fundamental-weight coordinates, with vector arithmetic."""

    __slots__ = ()

    def __add__(self, other: Sequence[int]) -> "Weight":
        return Weight(map(add, self, other))

    def __sub__(self, other: Sequence[int]) -> "Weight":
        return Weight(map(sub, self, other))

    def __neg__(self) -> "Weight":
        return Weight(map(neg, self))

    def __rmul__(self, n: int) -> "Weight":
        return Weight(n * a for a in self)

    # without this, ``w * n`` would fall back to tuple repetition
    __mul__ = __rmul__

    def __repr__(self) -> str:
        return f"Weight{tuple.__repr__(self)}"


class RootDatum:
    """Root-system context for one simple type, rank and order l.

    Use :func:`root_datum` to construct one.  It holds ``l`` and refers to
    its type's shared :class:`RootSystem` (:func:`root_system`): positive
    roots, coroots, rho, the Coxeter number, ... are its fields, read here
    as attributes.  Every operation on it is pure.
    """

    def __init__(self, cartan_type: str, rank: int, l: int):
        roots = root_system(cartan_type, rank)
        self.cartan_type = cartan_type
        self.rank = rank
        self.l = l
        self.cartan, self.d, self.sym = roots.cartan, roots.d, roots.sym
        self.lattice_index_e, self.scaled_inverse_cartan = roots.lattice_index_e, roots.scaled_inverse_cartan
        self.simple_roots, self.simple_coroots = roots.simple_roots, roots.simple_coroots
        self.positive_roots, self._coroots = roots.positive_roots, roots.coroots
        self.highest_root, self.short_dominant_root = roots.highest_root, roots.short_dominant_root
        self.rho, self.coxeter_number, self.two_rho_check = roots.rho, roots.coxeter_number, roots.two_rho_check

    # -- roots ---------------------------------------------------------------

    def coroot(self, beta: Weight) -> tuple[int, ...]:
        """The coroot of a root ``beta``, as its coordinates in the simple coroots."""
        try:
            return self._coroots[beta]
        except KeyError:
            raise ValueError(f"{beta} is not a root") from None

    # -- coordinates ---------------------------------------------------------

    def scaled_root_coordinates(self, lam: Sequence[int]) -> tuple[int, ...]:
        """E = e * C^{-1} lam: e times the expansion of ``lam`` in the simple roots."""
        return scaled_coordinates(self.scaled_inverse_cartan, lam)

    def root_coordinates(self, lam: Sequence[int]) -> tuple[Fraction, ...]:
        """Expansion of a weight in the simple roots (exact rationals)."""
        from fractions import Fraction  # off the import path: no production caller

        e = self.lattice_index_e
        return tuple(Fraction(c, e) for c in self.scaled_root_coordinates(lam))

    def coset_tag(self, lam: Sequence[int]) -> tuple[int, ...]:
        """Class of ``lam`` in (weight lattice)/(root lattice), as a hashable tag."""
        return coset_tag_of(self.scaled_inverse_cartan, self.lattice_index_e, lam)

    def __repr__(self) -> str:
        return f"RootDatum({self.cartan_type}{self.rank}, l={self.l})"


def root_datum(cartan_type: str, rank: int, l: int) -> RootDatum:
    """A new root datum of ``cartan_type`` and ``rank`` at order ``l``, over the
    type's root system (:func:`root_system`, built on the first call per
    process); an unsupported type raises ValueError.  ``l`` is not checked here: see
    :func:`validate_l`."""
    return RootDatum(cartan_type, rank, l)


class Frozen:
    """A record of fields set once, by keyword, at construction: setting or
    deleting a field afterwards raises AttributeError.  The per-type tables
    are built of these and of tuples, so no caller can edit them."""

    __slots__ = ()

    def __init__(self, **fields: object):
        if fields.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self.__slots__)}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: its type's tables are shared")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: its type's tables are shared")


class RootSystem(Frozen):
    """The root system of one type and rank: every table of :class:`RootDatum`
    but ``l`` (module docstring), built once per process by
    :func:`root_system`.  Every field is a tuple of integers or an integer,
    but ``coroots``, a read-only mapping from every root (positive and
    negative) to its coroot."""

    __slots__ = ("cartan", "d", "sym", "lattice_index_e", "scaled_inverse_cartan", "simple_roots",
                 "simple_coroots", "positive_roots", "coroots", "highest_root", "short_dominant_root",
                 "rho", "coxeter_number", "two_rho_check")


def scaled_coordinates(adjugate: Sequence[Sequence[int]], lam: Sequence[int]) -> tuple[int, ...]:
    """E = ``adjugate`` lam: with the adjugate e * C^{-1} of the Cartan
    matrix, e times the root coordinates of ``lam`` (module docstring)."""
    return tuple(sum(map(mul, row, lam)) for row in adjugate)


def coset_tag_of(adjugate: Sequence[Sequence[int]], e: int, lam: Sequence[int]) -> tuple[int, ...]:
    """The coset tag E mod e of ``lam`` in (weight lattice)/(root lattice)."""
    return tuple(c % e for c in scaled_coordinates(adjugate, lam))


@cache
def root_system(cartan_type: str, rank: int) -> RootSystem:
    """The root system of ``cartan_type`` and ``rank``, built on the first call
    and shared by every root datum of the type after it: the cache holds at
    most one entry per supported type.  An unsupported type raises
    ValueError and is not cached."""
    key = (cartan_type, rank)
    if key not in _CARTAN:
        supported = ", ".join(f"{t}{r}" for t, r in sorted(_CARTAN))
        raise ValueError(f"unsupported type {cartan_type}{rank}; supported: {supported}")
    cartan = tuple(map(tuple, _CARTAN[key][0]))
    d = tuple(_CARTAN[key][1])

    # Symmetrized pairing matrix (a_s, a_t) = d_s <a_s^, a_t>, integer valued
    # on the root lattice; the extension to the weight lattice takes values
    # in (1/e)Z and is not used in any computation here.
    sym = tuple(tuple(d[s] * cartan[s][t] for t in range(rank)) for s in range(rank))
    for s in range(rank):
        for t in range(rank):
            if sym[s][t] != sym[t][s]:
                raise AssertionError("symmetrized Cartan matrix is not symmetric")

    # The one integer form of the root coordinates: e * C^{-1}, the
    # adjugate of C, since det C = e > 0 for every supported type.  Row i
    # maps fundamental coordinates to e times the i-th root coordinate.
    e = _det(cartan)
    if e <= 0:
        raise AssertionError("Cartan matrix has no positive determinant")
    adjugate = _adjugate(cartan)

    # Simple roots: weight coordinates are the columns of the Cartan matrix.
    simple_roots = tuple(Weight(col) for col in zip(*cartan))
    simple_coroots = tuple(tuple(1 if s == t else 0 for s in range(rank)) for t in range(rank))

    # Close the simple roots under the simple reflections
    # s_i(beta) = beta - <beta, a_i^> a_i.
    roots = set(simple_roots)
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i, alpha in enumerate(simple_roots):
            image = beta - beta[i] * alpha
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    # Root coordinates of a root are integers, E / e.
    root_coords = {b: tuple(c // e for c in scaled_coordinates(adjugate, b)) for b in roots}
    # Positive roots sorted by height, then root coordinates: a canonical order.
    positive_roots = tuple(sorted(
        (b for b, rc in root_coords.items() if min(rc) >= 0),
        key=lambda b: (sum(root_coords[b]), root_coords[b]),
    ))

    # The coroot of beta = sum_s c_s a_s: beta^ = sum_s (d_s c_s / d_beta) a_s^
    # where d_beta = (beta, beta)/2.
    coroots: dict[Weight, tuple[int, ...]] = {}
    for wc, rc in root_coords.items():
        norm2 = sum(rc[s] * sym[s][t] * rc[t] for s in range(rank) for t in range(rank))
        d_beta, rem = divmod(norm2, 2)
        assert rem == 0
        coords = []
        for s in range(rank):
            q, r = divmod(d[s] * rc[s], d_beta)
            assert r == 0, "coroot coordinates must be integral"
            coords.append(q)
        coroots[wc] = tuple(coords)

    # Highest root: maximal root coordinates among positive roots.
    highest_root = max(positive_roots, key=lambda b: root_coords[b])
    for b in positive_roots:
        assert all(x <= y for x, y in zip(root_coords[b], root_coords[highest_root]))
    # Short dominant root: the positive root whose coroot is the highest
    # coroot.  This is the root through whose wall the affine simple
    # reflection acts.
    short_dominant_root = max(positive_roots, key=lambda b: coroots[b])
    for b in positive_roots:
        assert all(x <= y for x, y in zip(coroots[b], coroots[short_dominant_root]))

    rho = Weight((1,) * rank)
    if tuple(map(sum, zip(*positive_roots))) != 2 * rho:
        raise AssertionError("sum of positive roots is not 2*rho")

    coxeter_number = 2 * len(positive_roots) // rank
    # Height of the highest coroot is h - 1; cross-check.
    if sum(coroots[short_dominant_root]) != coxeter_number - 1:
        raise AssertionError("highest coroot height does not match Coxeter number")

    two_rho_check = tuple(map(sum, zip(*(coroots[b] for b in positive_roots))))
    return RootSystem(cartan=cartan, d=d, sym=sym, lattice_index_e=e, scaled_inverse_cartan=adjugate,
                      simple_roots=simple_roots, simple_coroots=simple_coroots, positive_roots=positive_roots,
                      coroots=MappingProxyType(coroots), highest_root=highest_root,
                      short_dominant_root=short_dominant_root, rho=rho, coxeter_number=coxeter_number,
                      two_rho_check=two_rho_check)


# -- operations ----------------------------------------------------------------


def pairing(rd: RootDatum, lam: Weight, coroot: Sequence[int]) -> int:
    """Exact pairing ``<lam, beta^>`` of a weight with a coroot, given by its
    coordinates in the simple coroots."""
    if len(coroot) != rd.rank or len(lam) != rd.rank:
        raise ValueError("dimension mismatch between weight and coroot")
    return sum(map(mul, coroot, lam))


def dominance_leq(rd: RootDatum, mu: Weight, lam: Weight) -> bool:
    """True iff ``lam - mu`` is a nonnegative integer combination of simple roots."""
    e = rd.lattice_index_e
    return all(c >= 0 and c % e == 0 for c in rd.scaled_root_coordinates(lam - mu))


def validate_l(rd: RootDatum) -> list[str]:
    """The violated constraints on the order ``l``; the datum is admissible
    iff the list is empty.  Each check is a comparison or a residue of
    ``l``, so an ``l`` of any size is checked at once."""
    l = rd.l
    violations = []
    if l <= 0:
        violations.append(f"l={l} is not a positive integer")
        return violations
    if l % 2 == 0:
        violations.append(f"l={l} is not odd")
    if l <= rd.coxeter_number:
        violations.append(f"l={l} is not larger than the Coxeter number {rd.coxeter_number}")
    if gcd(l, rd.lattice_index_e) != 1:
        violations.append(f"l={l} is not coprime to the lattice index e={rd.lattice_index_e}")
    if rd.cartan_type == "G" and l % 3 == 0:
        violations.append(f"l={l} is not coprime to 3 (required in type G2)")
    return violations


# -- small exact linear algebra helpers ----------------------------------------


def _minor(m: Sequence[Sequence[int]], i: int, j: int) -> list[list[int]]:
    return [[x for k, x in enumerate(row) if k != j] for r, row in enumerate(m) if r != i]


def _det(m: Sequence[Sequence[int]]) -> int:
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det(_minor(m, 0, j)) for j in range(len(m)))


def _adjugate(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """adj(m), with m adj(m) = det(m) I."""
    n = len(m)
    return tuple(tuple((-1) ** (i + j) * _det(_minor(m, j, i)) for j in range(n)) for i in range(n))
