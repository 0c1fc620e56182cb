"""Finite, affine and extended affine Weyl groups.

Every element of the extended affine group is kept in the normal form
``x = t(lam) * w`` with ``lam`` a weight (the translation part) and ``w`` in
the finite Weyl group; the group law is

    (t(lam) w)(t(mu) u) = t(lam + w mu)(w u).

The finite group is small for the supported ranks, so :class:`AffineWeyl`
tabulates it completely at construction (matrices on fundamental-weight
coordinates, lengths, reduced words, inverses, and the images ``w(beta)``
with their signs for every positive root ``beta``).  An
:class:`ExtAffineElement` is then a translation vector plus an entry of
that table.  Elements are interned per group: :class:`AffineWeyl` alone
creates them, from one table keyed by ``key = (translation coordinates,
finite index)``, so equality is identity (elements of two groups never
compare equal) and ``key`` is the canonical sort order.  An element points
to its root datum and finite part, never to its group, so a group and all
built on it form an acyclic graph, freed by reference counting.

Affine simple reflections are indexed ``0, 1, ..., rank`` where index ``0``
is the reflection through the wall of the fundamental alcove not containing
the origin; concretely ``s_0 = t(eta) s_eta`` with ``eta`` the dominant root
whose coroot is the highest coroot.  The length-zero subgroup (isomorphic to
(weight lattice)/(root lattice)) is enumerated once from the minuscule
fundamental weights.

Right multiplication by an affine simple reflection is written once, as
the table ``right_steps`` built with the finite group: ``right_steps[j][w]
= (offset, w')`` with t(lam) w s_j = t(lam + offset) w' for every lam.
``_gen_step`` applies it to an element; the periodic class solve applies it
to intern keys and builds no element.  The right Cayley graph x -> x s_j
is kept once, on dense ids (``_ids``, ``_elts``, ``_lens``):
``_nbrs[j][a]`` is b when a s_j = b is longer, ~b when it is shorter, None
until ``_step`` fills the slots of a and b through ``_gen_step``.  Products
by s_j, descents, reduced words, the Bruhat walk and the KL recursion of
:mod:`.hecke` all read it.  A new id grows several lists, so a group is
used by one thread at a time.

An element met without a neighbour (parsed input, ``element``,
``multiply``) gets its length from the Iwahori-Matsumoto formula

    len(t(lam) w) = sum_{b > 0, w^{-1} b > 0} |<lam, b^>|
                  + sum_{b > 0, w^{-1} b < 0} |<lam, b^> - 1|,

evaluated from an integer form stored on each finite element w: the
coroot coordinates of the positive roots, each with its offset 0 or 1.
An element first reached by a graph step gets its neighbour's length
plus or minus 1, the sign read from one pairing with the table ``rises``,
built next to ``right_steps``: ``rises[j][w] = (r, o)`` with

    len(t(lam) w s_j) = len(t(lam) w) + 1  iff  <lam, r> >= o,

and len(t(lam) w) - 1 otherwise.  Derivation: x s_j > x iff x(a_j) > 0 for
the affine simple root a_j, which is alpha_j for j >= 1 and delta - eta for
j = 0 (Bjorner-Brenti, Combinatorics of Coxeter Groups, 4.4;
Iwahori-Matsumoto 1965).  The element t(lam) w sends alpha + n delta to
beta + (n - <lam, beta^>) delta with beta = w(alpha), and beta + m delta > 0
iff m > 0, or m = 0 and beta > 0.  So with beta = w(alpha_j), x(alpha_j) > 0
iff <lam, -beta^> >= 0 for beta > 0 and >= 1 for beta < 0; with beta =
w(eta), x(delta - eta) = -beta + (1 + <lam, beta^>) delta > 0 iff
<lam, beta^> >= 0 for beta > 0 and >= -1 for beta < 0.

The Bruhat order is decided a column at a time (all x <= y for one y) by
one walk down a reduced word of y, with comparability only inside a common
coset of the length-zero subgroup.
"""

from __future__ import annotations

from operator import add, mul
from typing import Optional, Sequence

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

    __slots__ = ("index", "matrix", "word", "text", "length", "inverse_index", "length_form")

    def __init__(self, index: int, matrix: tuple[tuple[int, ...], ...], word: tuple[int, ...]):
        self.index = index
        self.matrix = matrix
        self.word = word  # reduced word in simple-reflection indices (0-based)
        self.text = f"w[{' '.join(str(i + 1) for i in word)}]"  # the printed form, 1-based
        self.length = len(word)
        self.inverse_index: int = -1  # filled by the context
        # len(t(lam) w) = sum |<lam, row> - offset| over these pairs; filled by the context
        self.length_form: tuple[tuple[tuple[int, ...], int], ...] = ()

    def apply(self, lam: Weight) -> Weight:
        return Weight(sum(map(mul, row, lam)) for row in self.matrix)

    def __repr__(self) -> str:
        return self.text


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
        return element_text(self.trans, self.w)


def element_text(trans: Sequence[int], w: FiniteWeylElement) -> str:
    """The printed form ``t(a1,...,ar)*w[i1 i2 ...]`` of t(trans) w, also for
    a key that no element was built for."""
    return f"t({','.join(map(str, trans))})*{w.text}"


class AffineWeyl:
    """Context object: the extended affine Weyl group of a root datum."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self._elements: dict[tuple[Weight, int], ExtAffineElement] = {}
        self._build_finite_group()
        self._build_affine_data()
        self._build_omega()
        # the right Cayley graph on dense ids (module docstring)
        self._ids: dict[ExtAffineElement, int] = {}
        self._elts: list[ExtAffineElement] = []
        self._lens: list[int] = []
        self._nbrs: list[list[int | None]] = [[] for _ in self.affine_generator_indices()]

    # -- finite group table ----------------------------------------------------

    def _build_finite_group(self) -> None:
        rd = self.rd
        rank = rd.rank
        ident = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
        elements: list[FiniteWeylElement] = [FiniteWeylElement(0, ident, ())]
        index_of = {ident: 0}
        # right[a][i] = index of a * s_i: the right Cayley table.  As s_i(lam) =
        # lam - lam_i alpha_i, M s_i differs from M only in column i, which
        # becomes M[:, i] - M alpha_i.
        right: list[list[int]] = []
        for el in elements:  # grows while it runs: a breadth-first search
            row = []
            for i, alpha in enumerate(rd.simple_roots):
                m = tuple((*r[:i], r[i] - sum(map(mul, r, alpha)), *r[i + 1:]) for r in el.matrix)
                if m not in index_of:
                    index_of[m] = len(elements)
                    elements.append(FiniteWeylElement(len(elements), m, el.word + (i,)))
                row.append(index_of[m])
            right.append(row)
        self.finite_elements: tuple[FiniteWeylElement, ...] = tuple(elements)
        self._findex = index_of
        self._gen_indices = right[0]

        # a * b follows b's reduced word from a: row[b] = right[row[b s_i]][i] with
        # i the last letter of b's word, whose prefix b s_i precedes b in the search
        parents = [(right[b.index][b.word[-1]], b.word[-1]) for b in elements[1:]]
        self._fin_mul = []
        for a in elements:
            row = [a.index]
            for p, i in parents:
                row.append(right[row[p]][i])
            self._fin_mul.append(row)
            a.inverse_index = row.index(0)

        # root_images[w][k] = w(beta_k) and sign_table[w][k] = its sign, for
        # the k-th positive root.
        self.root_images = tuple(tuple(map(w.apply, rd.positive_roots)) for w in elements)
        self.sign_table = tuple(tuple(map(rd.root_sign, row)) for row in self.root_images)
        # Reduced words from BFS are geodesic, so word length is the Coxeter length;
        # cross-check against the inversion count.
        for a, signs in zip(elements, self.sign_table):
            assert signs.count(-1) == a.length, "BFS word is not reduced"
        self.w0 = max(elements, key=lambda e: e.length)
        assert self.w0.length == len(rd.positive_roots)
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
        # right_steps[j][w] = (offset, w') with t(lam) w s_j = t(lam + offset) w'
        # for every lam: t(lam) w s_0 = t(lam + w(eta)) (w s_eta), with w(eta)
        # from root_images, and t(lam) w s_i = t(lam) (w s_i)
        zero = (0,) * rd.rank
        self.right_steps: tuple[tuple[tuple[tuple[int, ...], int], ...], ...] = (
            tuple((images[self.s0_root_pos], row[self.s0_finite_index])
                  for images, row in zip(self.root_images, self._fin_mul)),
            *(tuple((zero, row[i]) for row in self._fin_mul) for i in self._gen_indices))
        # rises[j][w] = (r, o): len(t(lam) w s_j) = len(t(lam) w) + 1 iff <lam, r> >= o,
        # and len(t(lam) w) - 1 otherwise (module docstring).  With beta = w(eta)
        # for j = 0: r = beta^ and o = 0 or -1 for beta > 0 or < 0; with
        # beta = w(alpha_j) for j >= 1: r = -beta^ and o = 0 or 1.
        self.rises: tuple[tuple[tuple[tuple[int, ...], int], ...], ...] = tuple(
            tuple((tuple(e * c for c in rd.coroot(images[k])), 0 if signs[k] > 0 else -e)
                  for images, signs in zip(self.root_images, self.sign_table))
            for k, e in ((self.s0_root_pos, 1), *((k, -1) for k in self.simple_root_pos)))

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
        Any coordinate tuple finds an element; only a new one gets a Weight key,
        and ``coords`` of another rank raise ValueError."""
        x = self._elements.get((coords, w_index))
        if x is None:
            if len(coords) != self.rd.rank:
                raise ValueError(f"expected {self.rd.rank} translation coordinates, got {len(coords)}")
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
        """x * s_j for an affine simple reflection, read from the Cayley graph."""
        b = self._step(self._id(x), j)
        return self._elts[b if b >= 0 else ~b]

    def _gen_step(self, x: ExtAffineElement, j: int) -> ExtAffineElement:
        """x * s_j, not memoized: the filler of the Cayley graph's slots, read
        from ``right_steps``."""
        offset, ws = self.right_steps[j][x.w.index]
        return self._intern(tuple(map(add, x.trans, offset)) if j == 0 else x.trans, ws)

    def _id(self, x: ExtAffineElement) -> int:
        """The dense id of x, assigned on first sight to an element of this
        group, with its length by the Iwahori-Matsumoto formula."""
        i = self._ids.get(x)
        if i is None:
            self._check(x)
            i = self._new_id(x, x.length)
        return i

    def _new_id(self, x: ExtAffineElement, length: int) -> int:
        i = self._ids[x] = len(self._elts)
        self._elts.append(x)
        self._lens.append(length)
        for nbr in self._nbrs:
            nbr.append(None)
        return i

    def _step(self, a: int, j: int) -> int:
        """The s_j-slot of id a: b when a s_j = b is longer, ~b when shorter.
        On first use it fills the slots of a and b together: the sign is one
        pairing with ``rises``, and a new b, just interned by ``_gen_step``,
        gets the length of a plus or minus 1."""
        nbr = self._nbrs[j]
        if nbr[a] is None:
            x = self._elts[a]
            r, o = self.rises[j][x.w.index]
            up = sum(map(mul, r, x.trans)) >= o
            y = self._gen_step(x, j)
            b = self._ids.get(y)
            if b is None:
                y._length = self._lens[a] + 1 if up else self._lens[a] - 1
                b = self._new_id(y, y._length)
            nbr[a], nbr[b] = (b, ~a) if up else (~b, a)
        return nbr[a]

    def _lowest_descent(self, a: int) -> tuple[int, int]:
        """(j, id of a s_j) for the lowest j with len(a s_j) < len(a), of an id
        a of positive length; one with no descent is an internal error."""
        for j, nbr in enumerate(self._nbrs):
            b = nbr[a]
            if b is None:
                b = self._step(a, j)
            if b < 0:
                return j, ~b
        raise AssertionError("positive-length element with no descent")

    def translate_left(self, nu: Weight, x: ExtAffineElement) -> ExtAffineElement:
        """t(nu) * x; cheap because it only shifts the translation part."""
        return self._intern(tuple(map(add, nu, x.trans)), x.w.index)

    def length(self, x: ExtAffineElement) -> int:
        self._check(x)
        return x.length

    # -- dot action -----------------------------------------------------------------

    def dot_zero(self, x: ExtAffineElement) -> Weight:
        """x dot_l 0 = w(rho) + l lam - rho for x = t(lam) w."""
        return x.w.apply(self.rd.rho) + self.rd.l * x.trans - self.rd.rho

    # -- descents, words, Bruhat order -------------------------------------------------

    def right_descent(self, x: ExtAffineElement, j: int) -> bool:
        """True iff len(x s_j) < len(x): the sign of x's s_j-slot."""
        return self._step(self._id(x), j) < 0

    def reduced_word(self, x: ExtAffineElement) -> tuple[tuple[int, ...], ExtAffineElement]:
        """A reduced word for the affine part, and the residual length-zero element.

        Returns ``(word, omega)`` with ``x = omega * s_{j1} ... s_{jk}`` and
        ``k = len(x)``.  The word is canonical (lowest descent peeled first
        from the right).  The walk takes exactly len(x) steps, each down one
        length; a walk that does not end at length 0 then is an internal
        error (AssertionError), never a loop.
        """
        a = self._id(x)
        n = self._lens[a]
        word_rev: list[int] = []
        for _ in range(n):
            j, a = self._lowest_descent(a)
            word_rev.append(j)
        if self._lens[a] != 0:
            raise AssertionError(f"reduced word of {x!r}: {n} steps down end at length {self._lens[a]}")
        return tuple(reversed(word_rev)), self._elts[a]

    def bruhat_leq(self, x: ExtAffineElement, y: ExtAffineElement) -> bool:
        """Bruhat order on the extended group: subword order after splitting off
        the common length-zero part; False across different cosets.  The
        one-query case of :meth:`bruhat_column`."""
        return self.bruhat_column((x,), y)[0]

    def bruhat_column(self, xs: Sequence[ExtAffineElement], y: ExtAffineElement) -> list[bool]:
        """``[x <= y for x in xs]`` in the Bruhat order, from one walk down y.

        Write x = omega x' and y = omega' y' with omega, omega' of length zero
        and x', y' in the affine Weyl group; then x <= y iff omega = omega' and
        x' <= y' in the Coxeter group, so an x from another coset is False
        without walking.  Right multiplication by s_j keeps the length-zero
        part, so the affine parts walk together.

        The walk follows y's canonical reduced word from the right: at each
        step s is y's lowest right descent, found once for the whole column.
        By the lifting property (Deodhar's property Z; Bjorner-Brenti,
        Combinatorics of Coxeter Groups, Prop. 2.2.7), if ys < y then

            x <= y  iff  min(x, xs) <= ys:

        for xs < x, x <= y iff xs <= ys; for x < xs, x <= ys <= y gives one
        direction, and x <= y with s a descent of y but not of x gives
        x <= ys.  So every live x is replaced by xs when xs < x, and y by ys.
        An x whose length reaches that of y is decided there: x <= y with
        len(x) >= len(y) holds iff x is y.  An x with len(x) < len(y) stays
        live, so y still has a descent while anything is live, and at
        len(y) = 0 nothing is: the walk takes at most len(y) steps, and
        anything live after them is an internal error (AssertionError).
        """
        self._check(y, *xs)
        out = [False] * len(xs)
        ids, lens, step = self._id, self._lens, self._step
        tag, ly = y.omega_component, y.length
        live = []
        for i, x in enumerate(xs):
            if x.omega_component == tag:
                if x.length < ly:
                    live.append((i, ids(x)))
                else:
                    out[i] = x is y
        y = ids(y)
        while live:
            if not ly:
                raise AssertionError(f"Bruhat walk from {self._elts[y]!r} outlives its length")
            j, y = self._lowest_descent(y)
            ly -= 1
            nbr = self._nbrs[j]
            nxt = []
            for i, x in live:
                xj = nbr[x]
                if xj is None:
                    xj = step(x, j)
                if xj < 0:
                    x = ~xj
                if lens[x] < ly:
                    nxt.append((i, x))
                else:
                    out[i] = x == y
            live = nxt
        return out

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
        if not (tpart.startswith("t(") and tpart.endswith(")") and wpart.startswith("w[") and wpart.endswith("]")):
            raise ValueError(f"bad element syntax: {text!r}")
        inner = tpart[2:-1].strip()
        try:
            coords = [int(c) for c in inner.split(",")] if inner else []
            idxs = [int(t) for t in wpart[2:-1].split()]
        except ValueError:
            raise ValueError(f"bad element syntax: {text!r}") from None
        if len(coords) != self.rd.rank:
            raise ValueError(f"expected {self.rd.rank} translation coordinates in {text!r}")
        w = 0
        for i in idxs:
            if not 1 <= i <= self.rd.rank:
                raise ValueError(f"finite reflection index {i} out of range in {text!r}")
            w = self._fin_mul[w][self._gen_indices[i - 1]]
        return self._intern(tuple(coords), w)
