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
standard multiply-by-(H_s + v)-and-correct recursion: the product is formed
on mutable {exponent: coefficient} dicts by exponent shifts alone, and the
corrections are made in one pass down the lengths.  It is used in this
package as an internal cross-check oracle; the periodic module carries its
own self-dual basis.

Bernstein translation elements are theta_lam = H_{t(mu)} (H_{t(nu)})^{-1}
for any splitting lam = mu - nu into dominant parts; independence of the
splitting is asserted in the test suite.

All caches are plain dicts owned by the algebra object; operations are pure
apart from cache insertion, so sharing an algebra across threads only needs
the usual CPython guarantees.
"""

from __future__ import annotations

from typing import Mapping

from .laurent import ONE, V, VINV, Combination, LaurentPoly
from .rootdata import Weight
from .weyl import AffineWeyl, ExtAffineElement

__all__ = ["HeckeAlgebra", "HeckeElement"]

_V_MINUS_VINV = V - VINV  # v - v^{-1}


class HeckeElement(Combination):
    """A finite Z[v^{+-1}]-linear combination of standard basis elements."""

    __slots__ = ()

    def _support_by_length(self) -> list[ExtAffineElement]:
        return sorted(self.terms, key=lambda x: (x.length, x.key))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[x]})*H[{x!r}]" for x in self._support_by_length())

    def to_json(self) -> list:
        return [
            {"element": repr(x), "polynomial": self.terms[x].to_json()}
            for x in self._support_by_length()
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

        Unique bar-invariant element of H_x + sum_{y<x} vZ[v] H_y.  With s_j
        the lowest right descent of x and u = x s_j, the product C_u (H_s + v)
        is built in one mutable {element: {exponent: coefficient}} dict by
        exponent shifts alone:

            H_y (H_s + v) = H_{ys} + v^{-1} H_y   if ys < y,
                            H_{ys} + v H_y        otherwise.

        One pass over the lengths len(x) - 1, ..., 0 then subtracts m C_y at
        every y whose coefficient is not in vZ[v], where m is its
        bar-symmetric lower part, one shifted and scaled copy of C_y per
        monomial of m.  Every coefficient of C_u (H_s + v) and of the C_y
        lies in Z[v], so m is the constant term, an integer, and the copy is
        one integer scaling.  C_y adds terms only strictly below y, so each
        length is final when the pass reaches it.
        """
        hit = self._kl_cache.get(x)
        if hit is not None:
            return hit
        n = x.length
        if n > max_length:
            raise ResourceError(
                f"KL recursion at an element of length {n} exceeds the configured length bound {max_length}"
            )
        if n == 0:
            result = self.basis(x)
        else:
            g = self.group
            j = next(k for k in g.affine_generator_indices() if g.right_descent(x, k))
            acc: dict[ExtAffineElement, dict[int, int]] = {}
            by_length: list[list[ExtAffineElement]] = [[] for _ in range(n + 1)]

            def add(terms: Mapping[ExtAffineElement, LaurentPoly], shift: int, factor: int) -> None:
                # acc += factor * v^shift * terms, dropping zero coefficients.
                for z, q in terms.items():
                    d = acc.get(z)
                    if d is None:
                        acc[z] = {e + shift: factor * c for e, c in q.coeffs.items()}
                        by_length[z.length].append(z)
                        continue
                    for e, c in q.coeffs.items():
                        e += shift
                        k = d.get(e, 0) + factor * c
                        if k:
                            d[e] = k
                        else:
                            del d[e]

            cu = self.kl_basis(g.right_multiply_gen(x, j), max_length).terms
            moved, down, up = {}, {}, {}
            for y, p in cu.items():
                ys = g.right_multiply_gen(y, j)
                moved[ys] = p
                (down if ys.length < y.length else up)[y] = p
            add(moved, 0, 1)
            add(down, -1, 1)
            add(up, 1, 1)
            for level in range(n - 1, -1, -1):
                for y in by_length[level]:
                    d = acc[y]
                    if not d or min(d) >= 1:
                        continue
                    p = LaurentPoly(d)
                    m = p.lower_symmetrization()
                    if not m.is_bar_symmetric() or m.coefficient(0) != p.coefficient(0):
                        raise AssertionError("unexpected correction shape in KL recursion")
                    cy = self.kl_basis(y, max_length).terms
                    for shift, c in m.coeffs.items():
                        add(cy, shift, -c)
            result = HeckeElement({z: LaurentPoly(d) for z, d in acc.items()})
        lead = result.coefficient(x)
        if lead != ONE:
            raise AssertionError("KL basis element has wrong leading coefficient")
        self._kl_cache[x] = result
        return result

    # -- Bernstein translation elements -----------------------------------------------------------

    def bernstein(self, lam: Weight) -> HeckeElement:
        """theta_lam = H_{t(lam_+)} (H_{t(lam_-)})^{-1} with dominant lam_+ and lam_-."""
        plus = Weight(tuple(max(c, 0) for c in lam.coords))
        minus = Weight(tuple(max(-c, 0) for c in lam.coords))
        g = self.group
        h = self.basis(g.translation(plus))
        if minus.is_zero():
            return h
        return self.multiply(h, self.inverse_basis(g.translation(minus)))


class ResourceError(RuntimeError):
    """Raised when a configured resource bound is exceeded."""
