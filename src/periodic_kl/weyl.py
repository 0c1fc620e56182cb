"""Finite, affine and extended affine Weyl groups.

Every element of the extended affine group is kept in the normal form
``x = t(lam) * w`` with ``lam`` a weight (the translation part) and ``w`` in
the finite Weyl group; the group law is

    (t(lam) w)(t(mu) u) = t(lam + w mu)(w u).

The finite group is small for the supported ranks, so :class:`AffineWeyl`
tabulates it completely at construction (matrices on fundamental-weight
coordinates, lengths, reduced words, inverses, and the signs of ``w(beta)``
for every root ``beta``).  An :class:`ExtAffineElement` is then a
translation vector plus an entry of that table.  Elements are interned per
group: :class:`AffineWeyl` alone creates them, from one table keyed by
``key = (translation coordinates, finite index)``, so equality is identity
(elements of two groups never compare equal) and ``key`` is the canonical
sort order.  An element points to its root datum and finite part, never to
its group, so a group and all built on it form an acyclic graph, freed by
reference counting.

Affine simple reflections are indexed ``0, 1, ..., rank`` where index ``0``
is the reflection through the wall of the fundamental alcove not containing
the origin; concretely ``s_0 = t(eta) s_eta`` with ``eta`` the dominant root
whose coroot is the highest coroot.  The length-zero subgroup (isomorphic to
(weight lattice)/(root lattice)) is enumerated once from the minuscule
fundamental weights.

Lengths are computed by the Iwahori-Matsumoto formula

    len(t(lam) w) = sum_{b > 0, w^{-1} b > 0} |<lam, b^>|
                  + sum_{b > 0, w^{-1} b < 0} |<lam, b^> - 1|,

evaluated from an integer form stored on each finite element w: the
coroot coordinates of the positive roots, each with its offset 0 or 1.  The
Bruhat order comes from the standard descent recursion, with comparability
only inside a common coset of the length-zero subgroup.
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterable, Iterator, Optional, Sequence

from .rootdata import RootDatum, Weight, pairing

__all__ = [
    "AffineWeyl",
    "ExtAffineElement",
    "FiniteWeylElement",
]


class FiniteWeylElement:
    """Element of the finite Weyl group: an integer matrix on weight coordinates.

    Instances are owned by an :class:`AffineWeyl` context and deduplicated, so
    identity comparison through the context index is valid.
    """

    __slots__ = ("index", "matrix", "word", "length", "inverse_index", "length_form")

    def __init__(self, index: int, matrix: tuple[tuple[int, ...], ...], word: tuple[int, ...]):
        self.index = index
        self.matrix = matrix
        self.word = word  # reduced word in simple-reflection indices (0-based)
        self.length = len(word)
        self.inverse_index: int = -1  # filled by the context
        # len(t(lam) w) = sum |<lam, row> - offset| over these pairs; filled by the context
        self.length_form: tuple[tuple[tuple[int, ...], int], ...] = ()

    def apply(self, lam: Weight) -> Weight:
        return Weight(sum(map(mul, row, lam)) for row in self.matrix)

    def __repr__(self) -> str:
        return f"w[{' '.join(str(i + 1) for i in self.word)}]"


class ExtAffineElement:
    """Element ``t(lam) w`` of the extended affine Weyl group.

    Built only through its :class:`AffineWeyl`, which interns it: equality is
    identity.  ``key = (trans, w index)`` is the intern key and the canonical
    sort key; ``trans`` is the :class:`Weight` ``key[0]`` itself.  The element
    holds its root datum ``rd`` and finite part ``w`` but not its group, so it
    closes no reference cycle with the group's tables.
    """

    __slots__ = ("rd", "trans", "w", "key", "_length", "_omega")

    def __init__(self, rd: RootDatum, w: FiniteWeylElement, key: tuple[Weight, int]):
        self.rd = rd
        self.trans = key[0]
        self.w = w
        self.key = key
        self._length: Optional[int] = None
        self._omega: Optional[tuple[int, ...]] = None

    @property
    def length(self) -> int:
        if self._length is None:
            lam = self.trans
            self._length = sum(abs(sum(map(mul, row, lam)) - o) for row, o in self.w.length_form)
        return self._length

    @property
    def omega_component(self) -> tuple[int, ...]:
        if self._omega is None:
            self._omega = self.rd.coset_tag(self.trans)
        return self._omega

    def __repr__(self) -> str:
        coords = ",".join(map(str, self.trans))
        word = " ".join(str(i + 1) for i in self.w.word)
        return f"t({coords})*w[{word}]"


class AffineWeyl:
    """Context object: the extended affine Weyl group of a root datum."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self._elements: dict[tuple[Weight, int], ExtAffineElement] = {}
        self._gen_product_cache: dict[tuple[ExtAffineElement, int], ExtAffineElement] = {}
        self._build_finite_group()
        self._build_affine_data()
        self._build_omega()

    # -- finite group table ----------------------------------------------------

    def _build_finite_group(self) -> None:
        rd = self.rd
        rank = rd.rank
        ident = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
        gens = []
        for i in range(rank):
            # s_i(lam) = lam - lam_i * alpha_i.
            col = rd.simple_roots[i]
            gens.append(tuple(tuple((1 if r == c else 0) - (col[r] if c == i else 0) for c in range(rank)) for r in range(rank)))
        elements: list[FiniteWeylElement] = [FiniteWeylElement(0, ident, ())]
        index_of = {ident: 0}
        frontier = [elements[0]]
        while frontier:
            el = frontier.pop(0)
            for i, g in enumerate(gens):
                # right multiplication: (el * s_i) acts by el.matrix @ g
                m = _matmul(el.matrix, g)
                if m not in index_of:
                    new = FiniteWeylElement(len(elements), m, el.word + (i,))
                    index_of[m] = new.index
                    elements.append(new)
                    frontier.append(new)
        self.finite_elements: tuple[FiniteWeylElement, ...] = tuple(elements)
        self._findex = index_of
        self._gen_indices = [index_of[g] for g in gens]

        n = len(elements)
        self._fin_mul = [[0] * n for _ in range(n)]
        for a in elements:
            for b in elements:
                self._fin_mul[a.index][b.index] = index_of[_matmul(a.matrix, b.matrix)]
        for a in elements:
            for b in elements:
                if self._fin_mul[a.index][b.index] == 0:
                    a.inverse_index = b.index
        # Reduced words from BFS are geodesic, so word length is the Coxeter length;
        # cross-check against the inversion count.
        for a in elements:
            inv = sum(1 for beta in rd.positive_roots if rd.root_sign(a.apply(beta)) < 0)
            assert inv == a.length, "BFS word is not reduced"
        self.w0 = max(elements, key=lambda e: e.length)
        assert self.w0.length == len(rd.positive_roots)

        # sign_table[w][k] = sign of w(beta_k) for the k-th positive root.
        self.sign_table = tuple(
            tuple(rd.root_sign(w.apply(beta)) for beta in rd.positive_roots) for w in elements
        )
        # Length forms: len(t(lam) w) = sum_k |<lam, beta_k^> - o_k(w)|, with the
        # coroot coordinates of every positive root and o_k(w) = 1 iff w^{-1} beta_k < 0.
        coroot_rows = tuple(map(rd.coroot, rd.positive_roots))
        for w in elements:
            w.length_form = tuple(
                (row, 0 if s > 0 else 1) for row, s in zip(coroot_rows, self.sign_table[w.inverse_index])
            )
        self._pos_root_index = {beta: k for k, beta in enumerate(rd.positive_roots)}
        self.simple_root_pos = tuple(self._pos_root_index[a] for a in rd.simple_roots)
        # finite reflection s_beta for each positive root, as a group index.
        self.reflection_index = tuple(
            self._findex[self._reflection_matrix(beta)] for beta in rd.positive_roots
        )

    # -- affine data -------------------------------------------------------------

    def _build_affine_data(self) -> None:
        rd = self.rd
        eta = rd.short_dominant_root
        self.s0_root = eta
        self.s0_root_pos = self._pos_root_index[eta]
        refl = self._reflection_matrix(eta)
        self.s0_finite_index = self._findex[refl]
        # affine generator list: index 0 is s_0, index i >= 1 is s_i.
        self.num_affine_gens = rd.rank + 1

    def _reflection_matrix(self, beta: Weight) -> tuple[tuple[int, ...], ...]:
        rd = self.rd
        rank = rd.rank
        cor = rd.coroot(beta)
        # s_beta(lam) = lam - <lam, beta^> beta
        return tuple(
            tuple((1 if r == c else 0) - beta[r] * cor[c] for c in range(rank)) for r in range(rank)
        )

    # -- length-zero subgroup ------------------------------------------------------

    def _build_omega(self) -> None:
        rd = self.rd
        found: dict[tuple[int, ...], ExtAffineElement] = {}
        found[rd.coset_tag(Weight((0,) * rd.rank))] = self.identity()
        for i in range(rd.rank):
            wt = rd.fundamental_weight(i)
            if all(pairing(rd, wt, rd.coroot(b)) <= 1 for b in rd.positive_roots):
                for w in self.finite_elements:
                    cand = self.element(wt, w)
                    if self.length(cand) == 0:
                        found.setdefault(rd.coset_tag(wt), cand)
                        break
        # close under multiplication
        changed = True
        while changed:
            changed = False
            for a in list(found.values()):
                for b in list(found.values()):
                    c = self.multiply(a, b)
                    tag = c.omega_component
                    if tag not in found:
                        found[tag] = c
                        changed = True
        if len(found) != rd.lattice_index_e:
            raise AssertionError("length-zero subgroup has wrong size")
        self.omega_elements = found  # tag -> canonical length-0 element

    # -- element constructors ------------------------------------------------------

    def _intern(self, coords: Sequence[int], w_index: int) -> ExtAffineElement:
        """The element t(coords) w: the one constructor of elements of this group.
        Any coordinate tuple finds an element; only a new one gets a Weight key."""
        x = self._elements.get((coords, w_index))
        if x is None:
            key = (Weight(coords), w_index)
            x = self._elements[key] = ExtAffineElement(self.rd, self.finite_elements[w_index], key)
        return x

    def identity(self) -> ExtAffineElement:
        return self._intern((0,) * self.rd.rank, 0)

    def element(self, trans: Weight, w: FiniteWeylElement | int) -> ExtAffineElement:
        return self._intern(trans, w if isinstance(w, int) else w.index)

    def translation(self, lam: Weight) -> ExtAffineElement:
        return self._intern(lam, 0)

    def simple_reflection(self, i: int) -> ExtAffineElement:
        """The finite simple reflection s_{i+1} (``i`` is 0-based) as an extended affine element."""
        return self._intern((0,) * self.rd.rank, self._gen_indices[i])

    def affine_generator(self, j: int) -> ExtAffineElement:
        """Affine simple reflection: j = 0 is s_0, j >= 1 is the finite s_j."""
        if j == 0:
            return self.element(self.s0_root, self.s0_finite_index)
        return self.simple_reflection(j - 1)

    def affine_generator_indices(self) -> range:
        return range(self.num_affine_gens)

    # -- group operations ------------------------------------------------------------

    def _check(self, *xs: ExtAffineElement) -> None:
        for x in xs:
            if self._elements.get(x.key) is not x:
                raise ValueError("elements belong to different root data")

    def multiply(self, x: ExtAffineElement, y: ExtAffineElement) -> ExtAffineElement:
        self._check(x, y)
        mu = y.trans
        coords = tuple(a + sum(map(mul, row, mu)) for a, row in zip(x.trans, x.w.matrix))
        return self._intern(coords, self._fin_mul[x.w.index][y.w.index])

    def inverse(self, x: ExtAffineElement) -> ExtAffineElement:
        self._check(x)
        winv = self.finite_elements[x.w.inverse_index]
        lam = x.trans
        return self._intern(tuple(-sum(map(mul, row, lam)) for row in winv.matrix), winv.index)

    def right_multiply_gen(self, x: ExtAffineElement, j: int) -> ExtAffineElement:
        """x * s_j for an affine simple reflection, without building s_j.

        Memoized: generator products dominate the basis recursions, so the
        (element, generator) -> element map is kept for the context's lifetime.
        """
        hit = self._gen_product_cache.get((x, j))
        if hit is not None:
            return hit
        if j == 0:
            coords = x.trans + x.w.apply(self.s0_root)
            w = self._fin_mul[x.w.index][self.s0_finite_index]
        else:
            coords = x.trans
            w = self._fin_mul[x.w.index][self._gen_indices[j - 1]]
        hit = self._gen_product_cache[(x, j)] = self._intern(coords, w)
        return hit

    def translate_left(self, nu: Weight, x: ExtAffineElement) -> ExtAffineElement:
        """t(nu) * x; cheap because it only shifts the translation part."""
        return self._intern(tuple(map(add, nu, x.trans)), x.w.index)

    def length(self, x: ExtAffineElement) -> int:
        self._check(x)
        return x.length

    # -- dot action -----------------------------------------------------------------

    def dot_action(self, x: ExtAffineElement, lam: Weight, n: int) -> Weight:
        """The n-dilated rho-shifted action: for x = t(nu) w this is w(lam+rho) + n*nu - rho."""
        self._check(x)
        rd = self.rd
        return x.w.apply(lam + rd.rho) + n * x.trans - rd.rho

    def dot_zero(self, x: ExtAffineElement, n: Optional[int] = None) -> Weight:
        """x dot 0 at dilation n (default: the datum's l)."""
        if n is None:
            n = self.rd.l
        return x.w.apply(self.rd.rho) + n * x.trans - self.rd.rho

    # -- descents, words, Bruhat order -------------------------------------------------

    def right_descent(self, x: ExtAffineElement, j: int) -> bool:
        """True iff len(x s_j) < len(x)."""
        return self.right_multiply_gen(x, j).length < x.length

    def reduced_word(self, x: ExtAffineElement) -> tuple[tuple[int, ...], ExtAffineElement]:
        """A reduced word for the affine part, and the residual length-zero element.

        Returns ``(word, omega)`` with ``x = omega * s_{j1} ... s_{jk}`` and
        ``k = len(x)``.  The word is canonical (lowest descent peeled first
        from the right).
        """
        self._check(x)
        word_rev: list[int] = []
        cur = x
        while cur.length > 0:
            for j in range(self.num_affine_gens):
                nxt = self.right_multiply_gen(cur, j)
                if nxt.length < cur.length:
                    word_rev.append(j)
                    cur = nxt
                    break
            else:
                raise AssertionError("positive-length element with no descent")
        return tuple(reversed(word_rev)), cur

    def from_word(self, word: Iterable[int], omega: Optional[ExtAffineElement] = None) -> ExtAffineElement:
        """Rebuild ``omega * s_{j1} ... s_{jk}`` from a word and optional omega part."""
        cur = self.identity() if omega is None else omega
        for j in word:
            cur = self.right_multiply_gen(cur, j)
        return cur

    def bruhat_leq(self, x: ExtAffineElement, y: ExtAffineElement) -> bool:
        """Bruhat order on the extended group: subword order after splitting off
        the common length-zero part; False across different cosets."""
        self._check(x, y)
        if x.omega_component != y.omega_component:
            return False
        return self._bruhat_af(x, y)

    def _bruhat_af(self, x: ExtAffineElement, y: ExtAffineElement) -> bool:
        # Descent recursion: if ys < y then x <= y iff (xs <= ys if xs < x else x <= ys).
        lx, ly = x.length, y.length
        while True:
            if lx > ly:
                return False
            if ly == 0:
                return x == y
            for j in range(self.num_affine_gens):
                ys = self.right_multiply_gen(y, j)
                if ys.length < ly:
                    xs = self.right_multiply_gen(x, j)
                    if xs.length < lx:
                        x, lx = xs, lx - 1
                    y, ly = ys, ly - 1
                    break
            else:  # pragma: no cover
                raise AssertionError("positive-length element with no descent")

    # -- element text form ---------------------------------------------------------

    def format_element(self, x: ExtAffineElement) -> str:
        return repr(x)

    def parse_element(self, text: str) -> ExtAffineElement:
        """Parse the textual form ``t(a1,...,ar)*w[i1 i2 ...]``.

        The finite word uses 1-based simple-reflection indices; ``w[]`` is the
        identity.  A bare ``t(...)`` is accepted for pure translations.
        """
        s = text.strip()
        if "*" in s:
            tpart, wpart = s.split("*", 1)
        else:
            tpart, wpart = s, "w[]"
        tpart = tpart.strip()
        wpart = wpart.strip()
        if not (tpart.startswith("t(") and tpart.endswith(")")):
            raise ValueError(f"bad element syntax: {text!r}")
        inner = tpart[2:-1].strip()
        coords = [int(c) for c in inner.split(",")] if inner else []
        if len(coords) != self.rd.rank:
            raise ValueError(f"expected {self.rd.rank} translation coordinates in {text!r}")
        if not (wpart.startswith("w[") and wpart.endswith("]")):
            raise ValueError(f"bad element syntax: {text!r}")
        idxs = [int(t) for t in wpart[2:-1].split()] if wpart[2:-1].strip() else []
        w = 0
        for i in idxs:
            if not 1 <= i <= self.rd.rank:
                raise ValueError(f"finite reflection index {i} out of range in {text!r}")
            w = self._fin_mul[w][self._gen_indices[i - 1]]
        return self._intern(tuple(coords), w)

    def elements_of_length_leq(self, bound: int) -> Iterator[ExtAffineElement]:
        """All extended elements of length <= bound (BFS over generators and omega)."""
        seen = set()
        frontier: list[ExtAffineElement] = []
        for om in self.omega_elements.values():
            if om not in seen:
                seen.add(om)
                frontier.append(om)
        yield from frontier
        while frontier:
            nxt: list[ExtAffineElement] = []
            for x in frontier:
                for j in range(self.num_affine_gens):
                    y = self.right_multiply_gen(x, j)
                    if y not in seen and y.length <= bound:
                        seen.add(y)
                        nxt.append(y)
                        yield y
            frontier = nxt


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))
