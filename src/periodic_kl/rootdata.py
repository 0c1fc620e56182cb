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

The root-of-unity order ``l`` attached to a :class:`RootDatum` must be odd,
larger than the Coxeter number, coprime to the lattice index ``e``, and
coprime to 3 in type G2.  ``validate_l`` reports violations of these
constraints; the additional prime-power condition is reported only as a
warning since it is not needed for any computation done here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul, neg, sub
from typing import Sequence

__all__ = [
    "Weight",
    "RootDatum",
    "root_datum",
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

    def is_zero(self) -> bool:
        return not any(self)

    def __repr__(self) -> str:
        return f"Weight{tuple.__repr__(self)}"


class RootDatum:
    """Immutable root-system context for one simple type, rank and order l.

    Use :func:`root_datum` to construct one.  All derived data (positive
    roots, coroots, rho, Coxeter number, ...) is computed once here and the
    object is safe to share; every operation on it is pure.
    """

    def __init__(self, cartan_type: str, rank: int, l: int):
        key = (cartan_type, rank)
        if key not in _CARTAN:
            supported = ", ".join(f"{t}{r}" for t, r in sorted(_CARTAN))
            raise ValueError(f"unsupported type {cartan_type}{rank}; supported: {supported}")
        cartan, d = _CARTAN[key]
        self.cartan_type = cartan_type
        self.rank = rank
        self.l = l
        self.cartan = tuple(tuple(row) for row in cartan)
        self.d = tuple(d)

        # Symmetrized pairing matrix (a_s, a_t) = d_s <a_s^, a_t>, integer valued
        # on the root lattice; the extension to the weight lattice takes values
        # in (1/e)Z and is not used in any computation here.
        self.sym = tuple(tuple(self.d[s] * self.cartan[s][t] for t in range(rank)) for s in range(rank))
        for s in range(rank):
            for t in range(rank):
                if self.sym[s][t] != self.sym[t][s]:
                    raise AssertionError("symmetrized Cartan matrix is not symmetric")

        # The one integer form of the root coordinates: e * C^{-1}, the
        # adjugate of C, since det C = e > 0 for every supported type.  Row i
        # maps fundamental coordinates to e times the i-th root coordinate.
        self.lattice_index_e = _det(self.cartan)
        if self.lattice_index_e <= 0:
            raise AssertionError("Cartan matrix has no positive determinant")
        self.scaled_inverse_cartan = _adjugate(self.cartan)

        # Simple roots: weight coordinates are the columns of the Cartan matrix.
        self.simple_roots = tuple(Weight(col) for col in zip(*self.cartan))
        self.simple_coroots = tuple(tuple(1 if s == t else 0 for s in range(rank)) for t in range(rank))

        self._build_roots()

        self.rho = Weight((1,) * rank)
        if tuple(map(sum, zip(*self.positive_roots))) != 2 * self.rho:
            raise AssertionError("sum of positive roots is not 2*rho")

        self.coxeter_number = 2 * len(self.positive_roots) // rank
        # Height of the highest coroot is h - 1; cross-check.
        if sum(self.coroot(self.short_dominant_root)) != self.coxeter_number - 1:
            raise AssertionError("highest coroot height does not match Coxeter number")

        self.two_rho_check = tuple(map(sum, zip(*map(self.coroot, self.positive_roots))))

    # -- roots ---------------------------------------------------------------

    def _build_roots(self) -> None:
        rank = self.rank
        # Close the simple roots under the simple reflections
        # s_i(beta) = beta - <beta, a_i^> a_i.
        roots = set(self.simple_roots)
        frontier = list(roots)
        while frontier:
            beta = frontier.pop()
            for i, alpha in enumerate(self.simple_roots):
                image = beta - beta[i] * alpha
                if image not in roots:
                    roots.add(image)
                    frontier.append(image)
        # Root coordinates of a root are integers, E / e.
        e = self.lattice_index_e
        self._root_coords = {b: tuple(c // e for c in self.scaled_root_coordinates(b)) for b in roots}
        # Positive roots sorted by height, then root coordinates: a canonical order.
        self.positive_roots: tuple[Weight, ...] = tuple(sorted(
            (b for b, rc in self._root_coords.items() if min(rc) >= 0),
            key=lambda b: (sum(self._root_coords[b]), self._root_coords[b]),
        ))

        # The coroot of beta = sum_s c_s a_s: beta^ = sum_s (d_s c_s / d_beta) a_s^
        # where d_beta = (beta, beta)/2.
        self._coroots: dict[Weight, tuple[int, ...]] = {}
        for wc, rc in self._root_coords.items():
            norm2 = sum(rc[s] * self.sym[s][t] * rc[t] for s in range(rank) for t in range(rank))
            d_beta, rem = divmod(norm2, 2)
            assert rem == 0
            coords = []
            for s in range(rank):
                num = self.d[s] * rc[s]
                q, r = divmod(num, d_beta)
                assert r == 0, "coroot coordinates must be integral"
                coords.append(q)
            self._coroots[wc] = tuple(coords)

        # Highest root: maximal root coordinates among positive roots.
        self.highest_root = max(self.positive_roots, key=lambda b: self._root_coords[b])
        for b in self.positive_roots:
            assert all(x <= y for x, y in zip(self._root_coords[b], self._root_coords[self.highest_root]))
        # Short dominant root: the positive root whose coroot is the highest
        # coroot.  This is the root through whose wall the affine simple
        # reflection acts.
        best = max(self.positive_roots, key=lambda b: self._coroots[b])
        for b in self.positive_roots:
            assert all(x <= y for x, y in zip(self._coroots[b], self._coroots[best]))
        self.short_dominant_root = best

    def coroot(self, beta: Weight) -> tuple[int, ...]:
        """The coroot of a root ``beta``, as its coordinates in the simple coroots."""
        try:
            return self._coroots[beta]
        except KeyError:
            raise ValueError(f"{beta} is not a root") from None

    def root_sign(self, beta: Weight) -> int:
        """+1 for a positive root, -1 for a negative root."""
        rc = self._root_coords[beta]
        return 1 if all(c >= 0 for c in rc) else -1

    # -- coordinates ---------------------------------------------------------

    def scaled_root_coordinates(self, lam: Sequence[int]) -> tuple[int, ...]:
        """E = e * C^{-1} lam: e times the expansion of ``lam`` in the simple roots."""
        return tuple(sum(map(mul, row, lam)) for row in self.scaled_inverse_cartan)

    def root_coordinates(self, lam: Sequence[int]) -> tuple[Fraction, ...]:
        """Expansion of a weight in the simple roots (exact rationals)."""
        e = self.lattice_index_e
        return tuple(Fraction(c, e) for c in self.scaled_root_coordinates(lam))

    def in_root_lattice(self, lam: Sequence[int]) -> bool:
        e = self.lattice_index_e
        return all(c % e == 0 for c in self.scaled_root_coordinates(lam))

    def coset_tag(self, lam: Sequence[int]) -> tuple[int, ...]:
        """Class of ``lam`` in (weight lattice)/(root lattice), as a hashable tag."""
        e = self.lattice_index_e
        return tuple(c % e for c in self.scaled_root_coordinates(lam))

    def fundamental_weight(self, i: int) -> Weight:
        return Weight(tuple(1 if j == i else 0 for j in range(self.rank)))

    def __repr__(self) -> str:
        return f"RootDatum({self.cartan_type}{self.rank}, l={self.l})"


def root_datum(cartan_type: str, rank: int, l: int) -> RootDatum:
    """Construct the root datum for ``cartan_type`` and ``rank`` at order ``l``."""
    return RootDatum(cartan_type, rank, l)


# -- operations ----------------------------------------------------------------


def pairing(rd: RootDatum, lam: Weight, coroot: Sequence[int] | int) -> int:
    """Exact pairing ``<lam, beta^>`` of a weight with a coroot.

    ``coroot`` may be a coroot's coordinate tuple or the index of a simple coroot.
    """
    if isinstance(coroot, int):
        coroot = rd.simple_coroots[coroot]
    if len(coroot) != rd.rank or len(lam) != rd.rank:
        raise ValueError("dimension mismatch between weight and coroot")
    return sum(map(mul, coroot, lam))


def dominance_leq(rd: RootDatum, mu: Weight, lam: Weight) -> bool:
    """True iff ``lam - mu`` is a nonnegative integer combination of simple roots."""
    e = rd.lattice_index_e
    return all(c >= 0 and c % e == 0 for c in rd.scaled_root_coordinates(lam - mu))


def validate_l(rd: RootDatum) -> tuple[list[str], list[str]]:
    """Check the constraints on the order ``l``.

    Returns ``(violations, warnings)``; the datum is admissible iff
    ``violations`` is empty.  A non-prime-power ``l`` only produces a warning.
    """
    l = rd.l
    violations = []
    warnings = []
    if l <= 0:
        violations.append(f"l={l} is not a positive integer")
        return violations, warnings
    if l % 2 == 0:
        violations.append(f"l={l} is not odd")
    if l <= rd.coxeter_number:
        violations.append(f"l={l} is not larger than the Coxeter number {rd.coxeter_number}")
    if gcd(l, rd.lattice_index_e) != 1:
        violations.append(f"l={l} is not coprime to the lattice index e={rd.lattice_index_e}")
    if rd.cartan_type == "G" and l % 3 == 0:
        violations.append(f"l={l} is not coprime to 3 (required in type G2)")
    if not _is_prime_power(l):
        warnings.append(f"l={l} is not a prime power (harmless; some external contexts assume it)")
    return violations, warnings


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


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True
