"""The extended affine Hecke algebra, in Soergel's normalization.

Generated over Z[v, v^{-1}] by standard basis elements H_x (x in the
extended affine Weyl group) subject to

    (H_s + v)(H_s - v^{-1}) = 0          for affine simple reflections s,
    H_x H_y = H_{xy}                     whenever len(x) + len(y) = len(xy).

Products are computed by expanding the right factor into a reduced word
times its length-zero part (which multiplies by index relabelling at no
polynomial cost).  The bar involution is the ring homomorphism fixing the
basis-free structure with v -> v^{-1} and H_x -> (H_{x^{-1}})^{-1}; the
self-dual (Kazhdan-Lusztig) basis element at x is the unique bar-invariant
element of H_x + sum_{y < x} vZ[v] H_y (Bruhat order), computed by the
standard multiply-by-(H_s + v)-and-correct recursion with the corrections
made in one pass down the lengths.  Every coefficient that recursion meets
lies in Z[v], so it runs on the packed integers of :mod:`.laurent`
(``pack``/``unpack``, B = ``laurent._WIDTH`` bits per exponent, each c_e a
balanced digit in [-2^(B-1), 2^(B-1))).  A sum of polynomials is one
integer add, v^{+-1} is a shift by B bits, and the constant term is the
signed low digit.  Only the element returned is decoded into a
HeckeElement, through the guarded ``unpack``; the decode is exact while
every |c_e| < 2^(B-1), which a tracked bound proves (see
``HeckeAlgebra.kl_basis``).  The recursion is used in this package as
an internal cross-check oracle; the periodic module carries its own
self-dual basis.

Bernstein translation elements are theta_lam = H_{t(mu)} (H_{t(nu)})^{-1}
for any splitting lam = mu - nu into dominant parts; independence of the
splitting is asserted in the test suite.

All caches are plain dicts owned by the algebra object; operations are pure
apart from cache insertion, so sharing an algebra across threads only needs
the usual CPython guarantees.
"""

from __future__ import annotations

from typing import Mapping

from . import laurent
from .laurent import ONE, V, VINV, Combination, LaurentPoly, ResourceError, unpack
from .rootdata import Weight
from .weyl import AffineWeyl, ExtAffineElement

__all__ = ["HeckeAlgebra", "HeckeElement"]

_V_MINUS_VINV = V - VINV  # v - v^{-1}


class HeckeElement(Combination):
    """A finite Z[v^{+-1}]-linear combination of standard basis elements."""

    __slots__ = ()

    def sorted_support(self) -> list[ExtAffineElement]:
        """The support by length, then key: the order of every printed form."""
        return sorted(self.terms, key=lambda x: (x.length, x.key))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[x]})*H[{x!r}]" for x in self.sorted_support())

    def to_json(self) -> list:
        return [
            {"element": repr(x), "polynomial": self.terms[x].to_json()}
            for x in self.sorted_support()
        ]


class HeckeAlgebra:
    def __init__(self, group: AffineWeyl):
        self.group = group
        self.rd = group.rd
        self._bar_cache: dict = {}
        self._kl_cache: dict = {}

    # -- constructors --------------------------------------------------------------

    def zero(self) -> HeckeElement:
        return HeckeElement({})

    def unit(self) -> HeckeElement:
        return HeckeElement({self.group.identity(): ONE})

    def basis(self, x: ExtAffineElement) -> HeckeElement:
        return HeckeElement({x: ONE})

    def from_terms(self, terms: Mapping[ExtAffineElement, LaurentPoly]) -> HeckeElement:
        return HeckeElement(terms)

    # -- products ----------------------------------------------------------------------

    def right_mul_gen(self, h: HeckeElement, j: int) -> HeckeElement:
        """h * H_{s_j} for an affine simple reflection s_j."""
        g = self.group
        out: dict[ExtAffineElement, LaurentPoly] = {}
        for x, p in h.terms.items():
            xs = g.right_multiply_gen(x, j)
            q = out.get(xs)
            out[xs] = p if q is None else q + p
            if xs.length < x.length:
                extra = p * _V_MINUS_VINV
                q = out.get(x)
                out[x] = -extra if q is None else q - extra
        return HeckeElement(out)

    def right_mul_gen_inverse(self, h: HeckeElement, j: int) -> HeckeElement:
        """h * (H_{s_j})^{-1} = h * (H_{s_j} + (v - v^{-1}))."""
        return self.right_mul_gen(h, j) + h.scale(_V_MINUS_VINV)

    def right_mul_element(self, h: HeckeElement, y: ExtAffineElement) -> HeckeElement:
        """h * H_y via a reduced word for y."""
        word, omega = self.group.reduced_word(y)
        # H_y = H_omega H_{s_j1} ... H_{s_jk}; multiply left-to-right.
        cur = self.right_mul_basis_translate(h, omega)
        for j in word:
            cur = self.right_mul_gen(cur, j)
        return cur

    def right_mul_basis_translate(self, h: HeckeElement, omega: ExtAffineElement) -> HeckeElement:
        """h * H_omega for a length-zero omega: pure index relabelling."""
        if omega.length != 0:
            raise ValueError("expected a length-zero element")
        g = self.group
        return HeckeElement({g.multiply(x, omega): p for x, p in h.terms.items()})

    def multiply(self, h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
        out = self.zero()
        for y, p in h2.terms.items():
            out = out + self.right_mul_element(h1.scale(p), y)
        return out

    def inverse_basis(self, x: ExtAffineElement) -> HeckeElement:
        """(H_x)^{-1}, via the reversed word of generator inverses."""
        word, omega = self.group.reduced_word(x)
        cur = self.unit()
        for j in reversed(word):
            cur = self.right_mul_gen_inverse(cur, j)
        return self.right_mul_basis_translate(cur, self.group.inverse(omega))

    # -- bar involution --------------------------------------------------------------------

    def bar_basis(self, x: ExtAffineElement) -> HeckeElement:
        """bar(H_x) = (H_{x^{-1}})^{-1}, cached."""
        hit = self._bar_cache.get(x)
        if hit is None:
            hit = self.inverse_basis(self.group.inverse(x))
            self._bar_cache[x] = hit
        return hit

    def bar(self, h: HeckeElement) -> HeckeElement:
        out = self.zero()
        for x, p in h.terms.items():
            out = out + self.bar_basis(x).scale(p.bar())
        return out

    # -- Kazhdan-Lusztig basis (internal oracle) ----------------------------------------------

    def kl_basis(self, x: ExtAffineElement, max_length: int = 64) -> HeckeElement:
        """The self-dual basis element C_x for the Bruhat order.

        Unique bar-invariant element of H_x + sum_{y<x} vZ[v] H_y.  The bound
        ``max_length`` on len(x) is checked before any work.

        Recursion: with s_j the lowest right descent of x and u = x s_j, the
        product C_u (H_s + v) is built in one {element: packed int} dict by
        one integer add per term:

            H_y (H_s + v) = H_{ys} + v^{-1} H_y   if ys < y  (shift right),
                            H_{ys} + v H_y        otherwise  (shift left).

        One pass over the lengths len(x) - 1, ..., 0 then subtracts m C_y at
        every y whose coefficient is not in vZ[v].  As every coefficient is
        in Z[v], m (its bar-symmetric lower part) is the constant term, the
        low digit, and the correction is one integer multiply-add per term
        of C_y.  C_y adds terms only strictly below y, so each length is
        final when the pass reaches it.  Every C_y visited stays packed in
        the memo; only C_x is decoded.

        Decode: if p = sum c_e 2^(B e) with every |c_e| < 2^(B-1), then
        p = c_0 mod 2^B with c_0 in [-2^(B-1), 2^(B-1)), so
        c_0 = ((p + 2^(B-1)) mod 2^B) - 2^(B-1) and (p - c_0) / 2^B packs the
        rest.  Checks: the right shift is exact only on a coefficient in
        vZ[v], so a down move first tests that its low digit is zero (this
        keeps every coefficient in Z[v], which makes m an integer); and the
        coefficient of H_x must come out 1.

        Overflow bound: each C_y carries a bound M_y on |coefficient|.  Every
        coefficient of C_u (H_s + v) is the sum of at most two coefficients
        of C_u, and subtracting m C_y moves a coefficient by at most |m| M_y,
        so every coefficient of the accumulator stays within
        2 M_u + sum |m| M_y over the corrections made so far, and that sum
        becomes M_x.  While it stays below 2^(B-1) no digit wraps, so every
        m, low-digit test and decode is exact.  It only grows, so it is
        checked once, when C_x is complete and before its lead is read: if
        it reached 2^(B-1), a ResourceError names it, and no digit that may
        have wrapped leaves the recursion.  The bound is loose: it grows by
        about 1.3 bits per length, while the true coefficients stay below
        2^14 up to length 90 in G2.
        """
        n = x.length
        if n > max_length:
            raise ResourceError(
                f"KL recursion at an element of length {n} exceeds the configured length bound {max_length}"
            )
        terms, bound = self._kl_packed(x)
        return HeckeElement({z: unpack(p, bound, "KL basis coefficient", z) for z, p in terms.items()})

    def _kl_packed(self, x: ExtAffineElement) -> tuple[dict[ExtAffineElement, int], int]:
        """C_x as {element: packed coefficient} and the bound M_x on its
        coefficients, memoized: the recursion of ``kl_basis``."""
        hit = self._kl_cache.get(x)
        if hit is not None:
            return hit
        n = x.length
        if n == 0:
            hit = ({x: 1}, 1)
            self._kl_cache[x] = hit
            return hit
        width = laurent._WIDTH
        half = 1 << (width - 1)
        mask = (1 << width) - 1
        g = self.group
        step = g.right_multiply_gen
        j = next(k for k in g.affine_generator_indices() if g.right_descent(x, k))
        cu, bound_u = self._kl_packed(step(x, j))
        bound = 2 * bound_u
        acc: dict[ExtAffineElement, int] = {}
        by_length: list[list[ExtAffineElement]] = [[] for _ in range(n + 1)]
        for y, p in cu.items():
            ys = step(y, j)
            k = y.length
            if ys.length < k:
                if p & mask:
                    raise AssertionError("unexpected correction shape in KL recursion")
                q = p >> width
            else:
                q = p << width
            r = acc.get(y)
            if r is None:
                acc[y] = q
                by_length[k].append(y)
            else:
                acc[y] = r + q
            r = acc.get(ys)
            if r is None:
                acc[ys] = p
                by_length[ys.length].append(ys)
            else:
                acc[ys] = r + p
        for level in range(n - 1, -1, -1):
            for y in by_length[level]:
                m = ((acc[y] + half) & mask) - half
                if not m:
                    continue
                cy, bound_y = self._kl_packed(y)
                bound += abs(m) * bound_y
                for z, q in cy.items():
                    r = acc.get(z)
                    if r is None:
                        acc[z] = -m * q
                        by_length[z.length].append(z)
                    else:
                        acc[z] = r - m * q
        if bound >= half:
            raise ResourceError(
                f"KL recursion at an element of length {n}: the coefficient bound "
                f"({bound.bit_length()} bits) reaches the packed digit width of {width} bits"
            )
        if acc.get(x) != 1:
            raise AssertionError("KL basis element has wrong leading coefficient")
        hit = ({z: p for z, p in acc.items() if p}, bound)
        self._kl_cache[x] = hit
        return hit

    # -- Bernstein translation elements -----------------------------------------------------------

    def bernstein(self, lam: Weight) -> HeckeElement:
        """theta_lam = H_{t(lam_+)} (H_{t(lam_-)})^{-1} with dominant lam_+ and lam_-."""
        plus = Weight(max(c, 0) for c in lam)
        minus = Weight(max(-c, 0) for c in lam)
        g = self.group
        h = self.basis(g.translation(plus))
        if minus.is_zero():
            return h
        return self.multiply(h, self.inverse_basis(g.translation(minus)))
