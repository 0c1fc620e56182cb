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
v)-and-correct recursion on the ids of the group's Cayley graph, each
correction read off the product as a mu-coefficient (Kazhdan-Lusztig
1979).  It steps down from x to u = xs through a right descent s whose u
is memoized, else one whose u has the most right descents: by the same
paper (2.3.e) a correction other than some u t, t simple, has every right
descent of u, so such a u admits the fewest corrections, each a memo
entry with its own recursion.  Every coefficient that recursion meets
lies in Z[v], and the one at H_z in C_x has only exponents of the parity
of len x - len z, so it runs on the packed integers of :mod:`.laurent` at
every other power of v: digit i is the coefficient of v^(par + 2i), par =
(len x - len z) mod 2, a balanced digit in [-2^(B-1), 2^(B-1)) of B =
``laurent._WIDTH`` bits.  A sum of polynomials of one parity is one
integer add, v^{+-1} moves a value to the other parity (no shift one way,
a shift by B bits the other), and the low digit is the constant or the v
term.  Only the element returned is decoded into a HeckeElement, each
distinct (value, parity) pair once, through the guarded ``unpack``; the
decode is exact while every |c_e| < 2^(B-1), which a tracked bound,
measured once it is large, proves (see ``HeckeAlgebra.kl_basis``).  The
recursion serves ``hecke kl`` on the command line; the periodic module
carries its own self-dual basis.

All caches are plain dicts owned by the algebra object; operations are
pure apart from cache insertion.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable

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

        Packing: the coefficient of H_z in C_x is h_z = v^(len x - len z)
        P_{z,x}(v^-2) (Kazhdan-Lusztig 1979, in Soergel's normalization,
        Represent. Theory 1, 1997), so its exponents all have the parity
        par = (len x - len z) mod 2.  Digit i of z's packed integer p_z is the
        coefficient of v^(par + 2i): half the digits of packing every power
        of v, and no value can hold a negative exponent or a term of the
        wrong parity.

        Recursion: with s_j a right descent of x and u = x s_j, the
        product C_u (H_s + v) is built in one {id: packed int} dict, on the
        ids of the group's Cayley graph.  Every s-orbit {a, b = as} with
        a < b meeting the support of C_u is visited once, at a, by one slot
        lookup.  From H_a (H_s + v) = H_b + v H_a and H_b (H_s + v) = H_a +
        v^{-1} H_b, the rule of ``RightHeckeModule.act_cs``, the product has
        v h_a + h_b at a and h_a + v^{-1} h_b at b.  As len b = len a + 1,
        each of the two sums has one parity, and packed they are

            len u - len a even:  acc[a] = acc[b] = p_a + p_b  (one shared int),
            len u - len a odd:   acc[b] = p_a + p_b / 2^B,  acc[a] = acc[b] 2^B.

        The product is C_x + sum mu(y, u) C_y over y < u with ys < y
        (Kazhdan-Lusztig, "Representations of Coxeter groups and Hecke
        algebras", 1979), mu(y, u) the v term of h_y, which is 0 unless
        len u - len y is odd.  As every h_z with z != u is in vZ[v], the low
        digit (constant term) of the even case's sum at an upper b != x is
        h_a(0) + [v] h_b = mu(b, u); the odd case has len u - len b even, so
        no correction.  Each m C_b, m != 0, is recorded as its orbit is
        built and subtracted once the product is complete, in any order: C_b
        is in H_b + sum vZ[v] H_z, so it moves no constant term but b's.  As
        len x - len b is even, C_b is packed by the accumulator's parities, so
        each is one integer multiply-add per term of C_b, applied as one bulk
        update.  Every C_b used stays packed in the memo; only C_x is decoded.

        Step: any right descent gives C_x, which is unique, so the recursion
        takes the one that adds the fewest memo entries.  A u already in the
        memo needs no recursion, so it takes the lowest j whose u is
        memoized; if there is none, the j whose u has the most right
        descents, the lowest j on ties, both read from the group's signed
        slots.  By Kazhdan-Lusztig 1979 (2.3.e, for right descents), if
        mu(y, u) != 0 with y < u and t is a right descent of u that y does not
        have, then y = u t: every correction other than the u t has every
        right descent of u, so the more right descents u has, the fewer y can
        be corrections, and each new one is a memo entry with its own
        recursion.  The path, and so the memo, depends on what was computed
        before; C_x does not.

        Support: the keys of the product are supp C_u together with its
        s-translates, which is [e, u] u [e, u]s = [e, x].  By positivity
        (Kazhdan-Lusztig, "Schubert varieties and Poincare duality", 1980)
        every coefficient of C_u (H_s + v) = C_x + sum mu C_z is a non-negative
        sum, and supp C_y = [e, y] for every y, so each correction term lies
        in [e, y], inside [e, x]: it is already a key.  A miss, a memoized
        C_y outside [e, y], is an internal error (AssertionError): the new
        key's constant term would never be read.  So is an upper b in supp
        C_u whose a is not: [e, u] is closed under going down, and the orbit
        is visited at a.
        The memo keeps the accumulator itself, with no filter: its keys are
        [e, x], and no coefficient on [e, x] is zero, as the coefficient of
        H_y in C_x is v^(len x - len y) P_{y,x}(v^-2) with P_{y,x}(0) = 1.

        Decode: if p = sum c_i 2^(B i) with every |c_i| < 2^(B-1), then
        p = c_0 mod 2^B with c_0 in [-2^(B-1), 2^(B-1)), so
        c_0 = ((p + 2^(B-1)) mod 2^B) - 2^(B-1) and (p - c_0) / 2^B packs the
        rest; c_i is the coefficient of v^(par + 2i).  Each distinct pair
        (value, par) is decoded once.  The recursion reads the low digit with
        one big-integer operation, c_0 = (p mod 2^B) - [p mod 2^B >= 2^(B-1)]
        2^B.  Checks: the odd case's down move p_b / 2^B is exact only when
        the low digit of p_b, the constant term of h_b, is zero, so it first
        tests that digit: a nonzero one, a v^-1 term of the product outside
        Z[v], would be dropped by the shift instead of refused; and the
        coefficient of H_x must come out 1.

        Overflow bound: each C_y carries a bound M_y on |coefficient|.  Every
        coefficient of C_u (H_s + v) is the sum of at most two coefficients
        of C_u, in one digit of the packed sum, and subtracting m C_y moves a
        coefficient by at most |m| M_y, so every coefficient of the
        accumulator stays within 2 M_u + sum |m| M_y over the corrections made
        so far, and that sum becomes M_x.  While it stays below 2^(B-1) no
        digit wraps, so every m, low-digit test and decode is exact.  It only
        grows, so it is checked once, when C_x is complete and before its
        lead is read: if it reached 2^(B-1), a ResourceError names it, and no
        digit that may have wrapped leaves the recursion.

        Measured bound: tracked alone, M_x grows by about 1.3 bits per length,
        while the true coefficients stay below 2^14 up to length 90 in G2.  So
        once a finished M_x reaches 2^(B/2), it is replaced by a measured one,
        the least 2^(k-1), k on a short ladder, that holds every balanced digit
        of C_x (``_measured_bound``: one add and one AND per value).  This is
        sound.  M_x is formed from the bounds of C_u and of each C_y, each of
        them measured or tracked and so a true bound on its coefficients; as
        M_x < 2^(B-1), no digit of C_x wrapped, so its balanced digits are its
        true coefficients, and the measurement bounds those.  Soundness rests
        on every stored bound, so before the measurement replaces M_x, an
        exact test (``_exceeds``: two adds, two xors, an AND and a shift per
        value) confirms that no digit of C_x exceeds M_x; a digit past it
        means that a stored bound of C_u or of some C_y was too small for its
        coefficients, an internal error (AssertionError).  So is a decoded
        coefficient of C_x outside its stored bound.
        """
        check_length(x, "KL recursion")
        g = self.group
        i = g._id(x)
        terms, bound = self._kl_packed(i)
        elts, lens, n = g._elts, g._lens, g._lens[i]
        decoded: tuple[dict[int, LaurentPoly], ...] = ({}, {})  # by parity: each value once
        out = {}
        for z, p in terms.items():
            par = (n ^ lens[z]) & 1
            q = decoded[par].get(p)
            if q is None:
                coeffs = unpack(p, bound, "KL basis coefficient", elts[z]).coeffs
                if any(abs(c) > bound for c in coeffs.values()):
                    raise AssertionError("KL basis coefficient outside its bound")
                q = decoded[par][p] = LaurentPoly({par + 2 * e: c for e, c in coeffs.items()})
            out[elts[z]] = q
        return HeckeElement(out)

    def _kl_packed(self, x: int) -> tuple[dict[int, int], int]:
        """C_x as {id: packed coefficient}, each packed by its parity, and the
        bound M_x on its coefficients, memoized by id: the recursion and the
        packing of ``kl_basis``.  It steps down through a right descent whose
        u = x s_j is memoized, else one whose u has the most right descents,
        as by Kazhdan-Lusztig 1979 (2.3.e) such a u admits the fewest
        corrections (``kl_basis``, Step)."""
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
        gens = range(len(g._nbrs))
        j, most = None, -1
        for k in gens:
            b = step(x, k)
            if b >= 0:
                continue
            if ~b in cache:
                j, u = k, ~b
                break
            d = sum(step(~b, t) < 0 for t in gens)
            if d > most:
                j, u, most = k, ~b, d
        if j is None:
            raise AssertionError("positive-length element with no descent")
        nbr = g._nbrs[j]
        cu, bound_u = self._kl_packed(u)
        bound = 2 * bound_u
        acc: dict[int, int] = {}
        mu: list[tuple[int, int]] = []  # (b, mu(b, u)) at every upper b != x with mu != 0
        get = cu.get
        for a, p in cu.items():
            b = nbr[a]
            if b is None:
                b = step(a, j)
            if b >= 0:  # the orbit {a < b}: p_a = p
                q = get(b)
                even = (n ^ lens[a]) & 1  # len u - len a even: acc[a], acc[b] share digits
                if q is None:  # p_b = 0
                    c = p
                elif even:
                    c = p + q  # b is upper, b != x: its low digit is mu(b, u)
                    m = c & mask
                    if m:
                        mu.append((b, m - full if m >= half else m))
                elif q & mask:
                    raise AssertionError("unexpected correction shape in KL recursion")
                else:
                    c = p + (q >> width)
                acc[b] = c
                acc[a] = c if even else c << width
            elif ~b not in cu:  # the orbit {~b < a} is done at ~b, which supp C_u = [e, u] holds
                raise AssertionError("KL basis element whose support is not closed under going down")
        for y, m in mu:
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
        if bound >= 1 << (width // 2):
            if _exceeds(acc.values(), n, width, bound):
                raise AssertionError("KL memo entry outside its tracked bound")
            bound = _measured_bound(acc.values(), n, width, bound)
        hit = cache[x] = (acc, bound)
        return hit


def _measured_bound(values: Iterable[int], n: int, width: int, bound: int) -> int:
    """The least 2^(k-1), k in (B/8 + 1, B/4 + 1, B/2 + 1), with every
    balanced digit of ``values``, the packed coefficients of a C_x with len x
    = n, in [-2^(k-1), 2^(k-1)); ``bound``, their tracked bound, if no rung
    holds them.

    A value h_z has degree len x - len z <= n and one parity, so D = n // 2 + 1
    digits hold it.  With R = sum_{i<D} 2^(B i), the balanced digits c_i of p
    all lie in [-2^(k-1), 2^(k-1)) iff s = p + 2^(k-1) R is a non-negative
    integer whose digits c_i + 2^(k-1) are all below 2^k, that is iff
    s & ~((2^k - 1) R) = 0 (a negative s has infinitely many high bits set):
    one add and one AND per value.  Balanced digits are unique, so the test
    holds for any integer p.  The rungs are nested, so a value that passes
    one passes every higher rung, and the values are read in one pass.
    """
    ones = ((1 << (width * (n // 2 + 1))) - 1) // ((1 << width) - 1)  # R
    rest = iter(values)
    for k in (width // 8 + 1, width // 4 + 1, width // 2 + 1):
        low = 1 << (k - 1)
        offset, high = low * ones, ~((2 * low - 1) * ones)
        for p in rest:
            if (p + offset) & high:
                rest = chain((p,), rest)  # test it again at the next rung
                break
        else:
            return low
    return bound


def _exceeds(values: Iterable[int], n: int, width: int, bound: int) -> bool:
    """True iff some balanced digit of ``values``, the packed coefficients of
    a C_x with len x = n, lies outside [-bound, bound], for 0 <= bound <
    2^(B-1): an exact test, on no rung.

    With D = n // 2 + 1 digits, R = sum_{i<D} 2^(B i) and T = ``bound``, the
    balanced digits c_i of p all lie in [-T, T] iff s = p + T R is a
    non-negative integer below 2^(B D) whose digits c_i + T are at most 2T,
    that is iff adding c = (2^B - 1 - 2T) R to s carries out of no digit:
    t = s + c < 2^(B D), and t ^ s ^ c, which holds the carry into each bit,
    has no bit at B i for 0 < i <= D.  Then each d_i - T, d_i a digit of s,
    is in [-T, T], inside the balanced range, so by uniqueness it is c_i.  A
    negative s above -2^(B D) reaches t >= 0 only by a carry into bit B D,
    and a lower one leaves t negative, so the test holds for any integer p:
    two adds, two xors, an AND and a shift per value.
    """
    top = width * (n // 2 + 1)
    ones = ((1 << top) - 1) // ((1 << width) - 1)  # R
    offset, carry = bound * ones, ((1 << width) - 1 - 2 * bound) * ones
    edges = ones << width
    for p in values:
        s = p + offset
        t = s + carry
        if t >> top or (t ^ s ^ carry) & edges:
            return True
    return False
