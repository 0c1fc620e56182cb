"""Root data for the supported semisimple types, with exact integer arithmetic.

Conventions used throughout the package:

- Weights live in the weight lattice and are stored in *fundamental-weight
  coordinates*: a weight ``lam`` is the integer vector ``(<lam, a_1^>, ...,
  <lam, a_r^>)`` of pairings against the simple coroots.  In these
  coordinates the pairing against any coroot is a plain integer dot product.
- Roots additionally carry *root coordinates* (their expansion in the simple
  roots); a weight lies in the root lattice iff its root coordinates are
  integral.  Root coordinates of a general weight are rational with
  denominator dividing the lattice index ``e = |weight lattice / root
  lattice|``.
- Coroots are stored by their expansion in the simple coroots, so that
  ``pairing(lam, beta^) = sum_s c_s * lam_s`` where ``c`` are the coroot's
  coordinates.
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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

__all__ = [
    "Weight",
    "Coroot",
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


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates."""

    coords: tuple[int, ...]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def __rmul__(self, n: int) -> "Weight":
        return Weight(tuple(n * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __repr__(self) -> str:
        return f"Weight{self.coords}"


@dataclass(frozen=True)
class Coroot:
    """A coroot, stored by its coordinates in the simple coroots."""

    coords: tuple[int, ...]

    def __repr__(self) -> str:
        return f"Coroot{self.coords}"


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

        # Inverse of the Cartan matrix, exact.  Column t gives the root
        # coordinates of the fundamental weight w_t.
        self._cartan_inv = _invert_rational(self.cartan)
        self._rc_cache: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
        det = _det(self.cartan)
        self.lattice_index_e = abs(det)

        # Simple roots: weight coordinates are the columns of the Cartan matrix.
        self.simple_roots = tuple(
            Weight(tuple(self.cartan[s][t] for s in range(rank))) for t in range(rank)
        )
        self.simple_coroots = tuple(Coroot(tuple(1 if s == t else 0 for s in range(rank))) for t in range(rank))

        self._build_roots()

        self.rho = Weight((1,) * rank)
        two_rho = Weight(tuple(sum(r.coords[i] for r in self.positive_roots) for i in range(rank)))
        if two_rho != self.rho + self.rho:
            raise AssertionError("sum of positive roots is not 2*rho")

        self.coxeter_number = 2 * len(self.positive_roots) // rank
        # Height of the highest coroot is h - 1; cross-check.
        if sum(self.coroot(self.short_dominant_root).coords) != self.coxeter_number - 1:
            raise AssertionError("highest coroot height does not match Coxeter number")

        self.two_rho_check = tuple(
            sum(self.coroot(b).coords[i] for b in self.positive_roots) for i in range(rank)
        )

    # -- roots ---------------------------------------------------------------

    def _build_roots(self) -> None:
        rank = self.rank
        # Track (weight coords, root coords) pairs; close under simple reflections.
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        frontier = []
        for t in range(rank):
            rc = tuple(1 if i == t else 0 for i in range(rank))
            seen[self.simple_roots[t].coords] = rc
            frontier.append((self.simple_roots[t].coords, rc))
        while frontier:
            wc, rc = frontier.pop()
            for i in range(rank):
                # s_i(beta) = beta - <beta, a_i^> a_i in both coordinate systems.
                k = wc[i]
                nwc = tuple(wc[j] - k * self.cartan[j][i] for j in range(rank))
                nrc = tuple(rc[j] - (k if j == i else 0) for j in range(rank))
                if nwc not in seen:
                    seen[nwc] = nrc
                    frontier.append((nwc, nrc))
        pos = [(wc, rc) for wc, rc in seen.items() if all(c >= 0 for c in rc)]
        # Sort by height then root coordinates for a stable canonical order.
        pos.sort(key=lambda p: (sum(p[1]), p[1]))
        self.positive_roots: tuple[Weight, ...] = tuple(Weight(wc) for wc, _ in pos)
        self._root_coords: dict[tuple[int, ...], tuple[int, ...]] = {wc: rc for wc, rc in seen.items()}

        # Coroot of beta = sum_s c_s a_s: beta^ = sum_s (d_s c_s / d_beta) a_s^
        # where d_beta = (beta, beta)/2.
        self._coroots: dict[tuple[int, ...], Coroot] = {}
        for wc, rc in seen.items():
            norm2 = sum(rc[s] * self.sym[s][t] * rc[t] for s in range(rank) for t in range(rank))
            d_beta, rem = divmod(norm2, 2)
            assert rem == 0
            coords = []
            for s in range(rank):
                num = self.d[s] * rc[s]
                q, r = divmod(num, d_beta)
                assert r == 0, "coroot coordinates must be integral"
                coords.append(q)
            self._coroots[wc] = Coroot(tuple(coords))

        # Highest root: maximal root coordinates among positive roots.
        self.highest_root = max(self.positive_roots, key=lambda b: self._root_coords[b.coords])
        for b in self.positive_roots:
            assert all(
                x <= y
                for x, y in zip(self._root_coords[b.coords], self._root_coords[self.highest_root.coords])
            )
        # Short dominant root: the positive root whose coroot is the highest
        # coroot.  This is the root through whose wall the affine simple
        # reflection acts.
        best = max(self.positive_roots, key=lambda b: self._coroots[b.coords].coords)
        for b in self.positive_roots:
            assert all(x <= y for x, y in zip(self._coroots[b.coords].coords, self._coroots[best.coords].coords))
        self.short_dominant_root = best

    def coroot(self, beta: Weight) -> Coroot:
        """The coroot of a root ``beta``."""
        try:
            return self._coroots[beta.coords]
        except KeyError:
            raise ValueError(f"{beta} is not a root") from None

    def root_sign(self, beta: Weight) -> int:
        """+1 for a positive root, -1 for a negative root."""
        rc = self._root_coords[beta.coords]
        return 1 if all(c >= 0 for c in rc) else -1

    # -- coordinates ---------------------------------------------------------

    def root_coordinates(self, lam: Weight) -> tuple[Fraction, ...]:
        """Expansion of a weight in the simple roots (exact rationals, memoized)."""
        hit = self._rc_cache.get(lam.coords)
        if hit is not None:
            return hit
        rank = self.rank
        rc = tuple(
            sum((self._cartan_inv[t][s] * lam.coords[s] for s in range(rank)), Fraction(0))
            for t in range(rank)
        )
        self._rc_cache[lam.coords] = rc
        return rc

    def in_root_lattice(self, lam: Weight) -> bool:
        return all(c.denominator == 1 for c in self.root_coordinates(lam))

    def coset_tag(self, lam: Weight) -> tuple[int, ...]:
        """Class of ``lam`` in (weight lattice)/(root lattice), as a hashable tag."""
        e = self.lattice_index_e
        tag = []
        for c in self.root_coordinates(lam):
            scaled = c * e
            assert scaled.denominator == 1
            tag.append(int(scaled) % e)
        return tuple(tag)

    def fundamental_weight(self, i: int) -> Weight:
        return Weight(tuple(1 if j == i else 0 for j in range(self.rank)))

    def __repr__(self) -> str:
        return f"RootDatum({self.cartan_type}{self.rank}, l={self.l})"


def root_datum(cartan_type: str, rank: int, l: int) -> RootDatum:
    """Construct the root datum for ``cartan_type`` and ``rank`` at order ``l``."""
    return RootDatum(cartan_type, rank, l)


# -- operations ----------------------------------------------------------------


def pairing(rd: RootDatum, lam: Weight, coroot: Coroot | int) -> int:
    """Exact pairing ``<lam, beta^>`` of a weight with a coroot.

    ``coroot`` may be a :class:`Coroot` or the index of a simple coroot.
    """
    if isinstance(coroot, int):
        coroot = rd.simple_coroots[coroot]
    if len(coroot.coords) != rd.rank or len(lam.coords) != rd.rank:
        raise ValueError("dimension mismatch between weight and coroot")
    return sum(c * x for c, x in zip(coroot.coords, lam.coords))


def dominance_leq(rd: RootDatum, mu: Weight, lam: Weight) -> bool:
    """True iff ``lam - mu`` is a nonnegative integer combination of simple roots."""
    diff = rd.root_coordinates(lam - mu)
    return all(c.denominator == 1 and c >= 0 for c in diff)


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


def _det(m: Sequence[Sequence[int]]) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _invert_rational(m: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


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
