"""Integer-coefficient Laurent polynomials in the formal variable v.

Sparse dict representation {exponent: coefficient} with no zero entries;
the empty dict is the zero polynomial.  Coefficients are Python integers,
so all arithmetic is exact and overflow-free.

Hot loops whose polynomials all lie in Z[v] run on packed integers instead:
``pack`` sends c_0 + c_1 v + ... + c_k v^k to the Python int sum c_e 2^(B e),
B = ``_WIDTH`` bits per exponent.  v -> 2^B is a ring homomorphism
Z[v] -> Z, so every packed sum and product is exact, whatever the digit
sizes.  ``unpack`` reads the balanced digits c_e in [-2^(B-1), 2^(B-1))
back: if every |c_e| < 2^(B-1), then p = c_0 mod 2^B, so
c_0 = ((p + 2^(B-1)) mod 2^B) - 2^(B-1) and (p - c_0) / 2^B packs the rest.
The caller passes a bound on every |c_e| (an l1 bound sum |c_e| is one; l1
is subadditive and submultiplicative, so a sum of products is bounded by
the sum of the products of the bounds), and ``unpack`` refuses with a
:class:`ResourceError` when the bound reaches 2^(B-1), before a wrapped
digit could be read.  There is one width and no knob.

:class:`Combination` is the free Z[v^{+-1}]-module structure on top: a
sparse {basis label: polynomial} dict, shared by the Hecke algebra and the
periodic module.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

__all__ = ["Combination", "LaurentPoly", "ResourceError", "ZERO", "ONE", "V", "VINV", "bound_error", "pack", "unpack"]

# Bits per exponent of a packed Z[v] polynomial sum c_e 2^(_WIDTH e).
_WIDTH = 128


class ResourceError(RuntimeError):
    """Raised when a configured resource bound is exceeded."""


class LaurentPoly:
    # ``coeffs`` is assigned only by the constructors (``__init__``, the
    # operators that fill a ``__new__`` object and ``unpack``) and never
    # mutated, so the hash is computed once, on first use, into ``_hash``.
    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        d = dict(coeffs)
        self.coeffs = {e: c for e, c in d.items() if c != 0}

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            n = d.get(e, 0) + c
            if n:
                d[e] = n
            else:
                d.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            n = d.get(e, 0) - c
            if n:
                d[e] = n
            else:
                d.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return self.scale(other)
        d: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                n = d.get(e, 0) + c1 * c2
                if n:
                    d[e] = n
                else:
                    d.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        return out

    __rmul__ = __mul__

    def scale(self, n: int) -> "LaurentPoly":
        if n == 0:
            return ZERO
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e: n * c for e, c in self.coeffs.items()}
        return out

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def in_v_times_Zv(self) -> bool:
        """True iff every exponent is >= 1 (vacuously true for zero)."""
        return all(e >= 1 for e in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            if other == 0:
                return not self.coeffs
            return self.coeffs == {0: other}
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._hash = hash(frozenset(self.coeffs.items()))
        return h

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- text and JSON forms -----------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                term = str(abs(c))
            else:
                base = "v" if e == 1 else ("v^-1" if e == -1 else f"v^{e}")
                term = base if abs(c) == 1 else f"{abs(c)}*{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in sorted(self.coeffs.items())}

    @staticmethod
    def from_json(obj: Mapping[str, int]) -> "LaurentPoly":
        return LaurentPoly({int(e): int(c) for e, c in obj.items()})


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})
VINV = LaurentPoly({-1: 1})


def pack(p: LaurentPoly) -> int:
    """The packed form sum c_e 2^(_WIDTH e) of a polynomial p in Z[v]."""
    width = _WIDTH
    packed = 0
    for e, c in p.coeffs.items():
        packed += c << (width * e)
    return packed


def bound_error(bound: int, what: str, key: object) -> ResourceError:
    """The refusal of a packed value of ``what`` at ``key`` whose coefficient
    bound reaches 2^(_WIDTH - 1), where a balanced digit could have wrapped."""
    return ResourceError(
        f"{what} at {key}: the coefficient bound ({bound.bit_length()} bits) "
        f"reaches the packed digit width of {_WIDTH} bits"
    )


def unpack(packed: int, bound: int, what: str, key: object) -> LaurentPoly:
    """The polynomial sum c_e v^e of a packed sum c_e 2^(_WIDTH e), given
    ``bound`` >= every |c_e|.

    Raises ``bound_error`` if the bound reaches 2^(_WIDTH - 1), where a
    balanced digit could have wrapped.
    """
    width = _WIDTH
    half = 1 << (width - 1)
    if bound >= half:
        raise bound_error(bound, what, key)
    mask = (1 << width) - 1
    coeffs = {}
    e = 0
    while packed:
        packed += half
        c = (packed & mask) - half
        if c:
            coeffs[e] = c
        packed >>= width  # (p - c_0) / 2^B, as p + 2^(B-1) - (c_0 + 2^(B-1)) has no low digit
        e += 1
    out = LaurentPoly.__new__(LaurentPoly)
    out.coeffs = coeffs
    return out


class Combination:
    """A finite Z[v^{+-1}]-linear combination of hashable basis labels.

    Zero coefficients are dropped on construction.  A combination holds its
    terms and nothing else, no pointer to the algebra or module its basis
    belongs to, so it closes no reference cycle with that owner's caches.
    Results are built as ``type(self)(terms)``; elements of different
    subclasses never compare equal, even with the same terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Hashable, LaurentPoly]):
        self.terms = {x: p for x, p in terms.items() if not p.is_zero()}

    def __add__(self, other):
        d = dict(self.terms)
        for x, p in other.terms.items():
            q = d.get(x)
            d[x] = p if q is None else q + p
        return type(self)(d)

    def __sub__(self, other):
        d = dict(self.terms)
        for x, p in other.terms.items():
            q = d.get(x, ZERO)
            d[x] = q - p
        return type(self)(d)

    def scale(self, p: LaurentPoly | int):
        if isinstance(p, int):
            p = LaurentPoly({0: p})
        return type(self)({x: q * p for x, q in self.terms.items()})

    def coefficient(self, x: Hashable) -> LaurentPoly:
        return self.terms.get(x, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms
