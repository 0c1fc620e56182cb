"""The extended affine Hecke algebra, in Soergel's normalization.

Generated over Z[v, v^{-1}] by standard basis elements H_x (x in the
extended affine Weyl group) subject to

    (H_s + v)(H_s - v^{-1}) = 0          for affine simple reflections s,
    H_x H_y = H_{xy}                     whenever len(x) + len(y) = len(xy).

Products are the right action of :class:`RightHeckeModule`, shared with
the periodic module, of the algebra on itself; its one rule is the action
of H_s + v.  The bar involution is the ring homomorphism with v -> v^{-1}
and H_x -> (H_{x^{-1}})^{-1}; the self-dual (Kazhdan-Lusztig) basis
element at x is the unique bar-invariant element of H_x + sum_{y < x}
vZ[v] H_y (Bruhat order), computed by the standard multiply-by-(H_s +
v)-and-correct recursion on the ids of the group's Cayley graph, with the
corrections made in one walk down the lengths of the product's support.  Every coefficient that recursion meets lies in Z[v], so it runs
on the packed integers of :mod:`.laurent` (``pack``/``unpack``, B =
``laurent._WIDTH`` bits per exponent, each c_e a balanced digit in
[-2^(B-1), 2^(B-1))).  A sum of polynomials is one
integer add, v^{+-1} is a shift by B bits, and the constant term is the
signed low digit.  Only the element returned is decoded into a
HeckeElement, each distinct value once, through the guarded ``unpack``;
the decode is exact while every |c_e| < 2^(B-1), which a tracked bound
proves (see
``HeckeAlgebra.kl_basis``).  The recursion serves ``hecke kl`` on the
command line; the periodic module carries its own self-dual basis.

All caches are plain dicts owned by the algebra object; operations are
pure apart from cache insertion.
"""

from __future__ import annotations

from typing import Callable

from . import laurent
from .laurent import ONE, V, VINV, Combination, LaurentPoly, ResourceError, unpack
from .weyl import AffineWeyl, ExtAffineElement

__all__ = ["HeckeAlgebra", "HeckeElement", "RightHeckeModule"]

# The longest element the KL recursion and the command line's products and
# bar accept: their work grows with the length.
MAX_LENGTH = 64


def check_length(x: ExtAffineElement, what: str) -> None:
    """Refuse, before any work, an element longer than ``MAX_LENGTH``."""
    if x.length > MAX_LENGTH:
        raise ResourceError(
            f"{what} at an element of length {x.length} exceeds the configured length bound {MAX_LENGTH}"
        )


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


class RightHeckeModule:
    """The free Z[v^{+-1}]-module on {B_x}, x in the extended affine Weyl group,
    with the right action of the Hecke algebra.  Its one rule is the action of
    C_s = H_s + v (``act_cs``),

        B_x . (H_s + v) = B_{xs} + v^{-1} B_x   if s descends x,
                          B_{xs} + v B_x        otherwise          (s affine simple),
        B_x . H_omega   = B_{x omega}                              (len(omega) = 0),

    so H_s = C_s - v, H_s^{-1} = C_s - v^{-1}, and H_y = H_omega H_{s_j1} ...
    H_{s_jk} along a reduced word for y.  A subclass sets its ``element``
    type and passes ``descends(x, j)``, bound once: the Bruhat order for the
    algebra acting on itself, the semi-infinite order for the periodic module.
    """

    element: type[Combination]

    def __init__(self, group: AffineWeyl, descends: Callable[[ExtAffineElement, int], bool]):
        self.group = group
        self.rd = group.rd
        self.descends = descends

    def basis(self, x: ExtAffineElement) -> Combination:
        return self.element({x: ONE})

    def act_cs(self, m: Combination, j: int) -> Combination:
        """m . (H_{s_j} + v) for an affine simple reflection s_j, in one pass: the
        rule ``HeckeAlgebra._kl_packed`` runs on packed ids."""
        step = self.group.right_multiply_gen
        descends = self.descends
        out: dict[ExtAffineElement, LaurentPoly] = {}
        for x, p in m.terms.items():
            xs = step(x, j)
            q = out.get(xs)
            out[xs] = p if q is None else q + p
            pv = p * (VINV if descends(x, j) else V)
            q = out.get(x)
            out[x] = pv if q is None else q + pv
        return self.element(out)

    def act_gen(self, m: Combination, j: int) -> Combination:
        """m . H_{s_j} = m . (H_{s_j} + v) - v m."""
        return self.act_cs(m, j) - m.scale(V)

    def act_omega(self, m: Combination, omega: ExtAffineElement) -> Combination:
        """m . H_omega for a length-zero omega: pure index relabelling."""
        if omega.length != 0:
            raise ValueError("expected a length-zero element")
        g = self.group
        return self.element({g.multiply(x, omega): p for x, p in m.terms.items()})

    def act_hecke(self, m: Combination, h: HeckeElement) -> Combination:
        """m . h, each H_y of h expanded along a reduced word for y."""
        out = self.element({})
        for y, p in h.terms.items():
            word, omega = self.group.reduced_word(y)
            cur = self.act_omega(m.scale(p), omega)
            for j in word:
                cur = self.act_gen(cur, j)
            out = out + cur
        return out


class HeckeAlgebra(RightHeckeModule):
    """The regular representation: H_x . H_s descends exactly when len(xs) < len(x)."""

    element = HeckeElement

    def __init__(self, group: AffineWeyl):
        super().__init__(group, group.right_descent)
        self._kl_cache: dict[int, tuple[dict[int, int], int]] = {}

    # -- products: h * H_{s_j} and h1 * h2 are the shared action ------------------------

    right_mul_gen = RightHeckeModule.act_gen
    multiply = RightHeckeModule.act_hecke

    # -- bar involution --------------------------------------------------------------------

    def bar_basis(self, x: ExtAffineElement) -> HeckeElement:
        """bar(H_x) = H_omega H_{s_j1}^{-1} ... H_{s_jk}^{-1} along a reduced word
        x = omega s_j1 ... s_jk, each factor H_s^{-1} = (H_s + v) - v^{-1}."""
        word, omega = self.group.reduced_word(x)
        cur = self.basis(omega)
        for j in word:
            cur = self.act_cs(cur, j) - cur.scale(VINV)
        return cur

    # -- Kazhdan-Lusztig basis ----------------------------------------------------------------

    def kl_basis(self, x: ExtAffineElement) -> HeckeElement:
        """The self-dual basis element C_x for the Bruhat order.

        Unique bar-invariant element of H_x + sum_{y<x} vZ[v] H_y.  The bound
        ``MAX_LENGTH`` on len(x) is checked before any work.

        Recursion: with s_j the lowest right descent of x and u = x s_j, the
        product C_u (H_s + v) is built in one {id: packed int} dict, on the
        ids of the group's Cayley graph.  Every s-orbit {a, b = as} with
        a < b meeting the support of C_u is visited once, by one slot lookup:

            acc[a] = v p_a + p_b,    acc[b] = p_a + v^{-1} p_b,

        from H_a (H_s + v) = H_b + v H_a and H_b (H_s + v) = H_a + v^{-1} H_b,
        the rule of ``RightHeckeModule.act_cs``.
        One walk over its keys, sorted by descending length, then subtracts
        m C_y at every y below len(x) whose coefficient is not in vZ[v].  As
        every coefficient is in Z[v], m (its bar-symmetric lower part) is the
        constant term, the low digit, and the correction is one integer
        multiply-add per term of C_y, applied as one bulk update.  C_y adds
        terms only strictly below y, so each key is final when the walk
        reaches it.  Every C_y visited stays packed in the memo; only C_x is
        decoded.

        Support: the keys of the product are supp C_u together with its
        s-translates, which is [e, u] u [e, u]s = [e, x].  By positivity
        (Kazhdan-Lusztig, "Schubert varieties and Poincare duality", 1980)
        every coefficient of C_u (H_s + v) = C_x + sum mu C_z is a non-negative
        sum, and supp C_y = [e, y] for every y, so each correction term lies
        in [e, y], inside [e, x]: it is already a key.  A miss is an internal
        error (AssertionError), so no key is ever added behind the walk.
        The memo keeps the accumulator itself, with no filter: its keys are
        [e, x], and no coefficient on [e, x] is zero, as the coefficient of
        H_y in C_x is v^(len x - len y) P_{y,x}(v^-2) with P_{y,x}(0) = 1.

        Decode: if p = sum c_e 2^(B e) with every |c_e| < 2^(B-1), then
        p = c_0 mod 2^B with c_0 in [-2^(B-1), 2^(B-1)), so
        c_0 = ((p + 2^(B-1)) mod 2^B) - 2^(B-1) and (p - c_0) / 2^B packs the
        rest.  The walk reads the same digit with one big-integer operation,
        c_0 = (p mod 2^B) - [p mod 2^B >= 2^(B-1)] 2^B.  Checks: the right
        shift is exact only on a coefficient in vZ[v], so a down move first
        tests that its low digit is zero (this keeps every coefficient in
        Z[v], which makes m an integer); and the coefficient of H_x must come
        out 1.

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
        check_length(x, "KL recursion")
        terms, bound = self._kl_packed(self.group._id(x))
        elts = self.group._elts
        decoded: dict[int, LaurentPoly] = {}  # each distinct value once: equal terms share it
        out = {}
        for z, p in terms.items():
            q = decoded.get(p)
            if q is None:
                q = decoded[p] = unpack(p, bound, "KL basis coefficient", elts[z])
            out[elts[z]] = q
        return HeckeElement(out)

    def _kl_packed(self, x: int) -> tuple[dict[int, int], int]:
        """C_x as {id: packed coefficient} and the bound M_x on its
        coefficients, memoized by id: the recursion of ``kl_basis``."""
        cache = self._kl_cache
        hit = cache.get(x)
        if hit is not None:
            return hit
        g = self.group
        lens, step = g._lens, g._step
        n = lens[x]
        if n == 0:
            hit = cache[x] = ({x: 1}, 1)
            return hit
        width = laurent._WIDTH
        half = 1 << (width - 1)
        full = 1 << width
        mask = full - 1
        for j, nbr in enumerate(g._nbrs):  # j, nbr: the lowest right descent s_j of x
            u = nbr[x]
            if u is None:
                u = step(x, j)
            if u < 0:
                break
        else:
            raise AssertionError("positive-length element with no descent")
        cu, bound_u = self._kl_packed(~u)
        bound = 2 * bound_u
        acc: dict[int, int] = {}
        get = cu.get
        for a, p in cu.items():
            b = nbr[a]
            if b is None:
                b = step(a, j)
            if b >= 0:  # the orbit {a < b}: p_a = p
                q = get(b)
                if q is None:  # p_b = 0: acc[b] shares p's int
                    acc[a] = p << width
                    acc[b] = p
                    continue
                if q & mask:
                    raise AssertionError("unexpected correction shape in KL recursion")
                acc[a] = (p << width) + q
                acc[b] = p + (q >> width)
            elif ~b not in cu:  # the orbit {~b < a}: p_{~b} = 0, p_a = p (else done at ~b)
                if p & mask:
                    raise AssertionError("unexpected correction shape in KL recursion")
                acc[~b] = p
                acc[a] = p >> width
        order = sorted(acc, key=lens.__getitem__, reverse=True)
        top = 0
        while lens[order[top]] == n:
            top += 1
        for y in order[top:]:
            m = acc[y] & mask  # the low digit, made balanced below
            if not m:
                continue
            if m >= half:
                m -= full
            cy, bound_y = cache.get(y) or self._kl_packed(y)
            bound += abs(m) * bound_y
            try:
                acc.update({z: acc[z] - m * q for z, q in cy.items()})
            except KeyError:
                raise AssertionError("KL correction term outside the support of the product") from None
        if bound >= half:
            raise laurent.bound_error(bound, "KL recursion", f"an element of length {n}")
        if acc.get(x) != 1:
            raise AssertionError("KL basis element has wrong leading coefficient")
        hit = cache[x] = (acc, bound)
        return hit
