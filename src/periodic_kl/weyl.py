"""Finite, affine and extended affine Weyl groups.

Every element of the extended affine group is kept in the normal form
``x = t(lam) * w`` with ``lam`` a weight (the translation part) and ``w`` in
the finite Weyl group; the group law is

    (t(lam) w)(t(mu) u) = t(lam + w mu)(w u).

The finite group is small for the supported ranks, so it is tabulated
completely (matrices on fundamental-weight coordinates, lengths, reduced
words, inverses, and the images ``w(beta)`` with their signs for every
positive root ``beta``).  An :class:`ExtAffineElement` is then a
translation vector plus an entry of that table.

Per-type tables.  :func:`weyl_tables` builds, once per (type, rank) and
process, from the type's :func:`.rootdata.root_system`, a :class:`WeylTables`:
the finite elements with their length forms, the multiplication table
``fin_mul``, ``root_images`` and ``sign_table``, the reflections
``reflection_index``, ``w0``, the ``s_0`` data (``s0_root``,
``s0_root_pos``, ``s0_finite_index``), ``right_steps``, ``rises`` and the
intern keys (lam, w) of the length-zero elements by coset tag.  None of
them reads ``l``: ``l`` enters the group only through the dot action
x . 0 = w(rho) + l lam - rho (``dot_zero``), while these tables describe
the group law, lengths and descents of t(lam) w, which are the same at
every ``l``.  Every :class:`AffineWeyl` of the type refers to the same
tables, which are tuples of integers and frozen
:class:`FiniteWeylElement` objects, so no group can edit them for another.

A group keeps its own state: the intern table of its elements, its Cayley
graph and its length-zero elements ``omega_elements``, interned from the
shared keys.  Elements are interned per group: :class:`AffineWeyl` alone
creates them, from one table keyed by ``key = (translation coordinates,
finite index)``, so equality is identity (elements of two groups never
compare equal) and ``key`` is the canonical sort order.  An element points
to its root datum and finite part, never to its group, so a group and all
built on it form an acyclic graph, freed by reference counting.

Affine simple reflections are indexed ``0, 1, ..., rank`` where index ``0``
is the reflection through the wall of the fundamental alcove not containing
the origin; concretely ``s_0 = t(eta) s_eta`` with ``eta`` the dominant root
whose coroot is the highest coroot.  The length-zero subgroup (isomorphic to
(weight lattice)/(root lattice)) is enumerated once per type from the
minuscule fundamental weights, on intern keys.

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

from functools import cache
from operator import add, mul
from typing import Optional, Sequence

from .rootdata import Frozen, RootDatum, Weight, coset_tag_of, root_system

__all__ = [
    "AffineWeyl",
    "ExtAffineElement",
    "FiniteWeylElement",
    "WeylTables",
    "weyl_tables",
]

Key = tuple[Sequence[int], int]  # (translation coordinates, finite index) of t(lam) w


class FiniteWeylElement(Frozen):
    """Element of the finite Weyl group: an integer matrix on weight coordinates.

    Instances are built once per type with its tables (:func:`weyl_tables`)
    and shared by every group of the type, so they are frozen.  Identity
    comparison through the table index is valid.
    """

    __slots__ = ("index", "matrix", "word", "text", "length", "inverse_index", "length_form")

    def __init__(self, index: int, matrix: tuple[tuple[int, ...], ...], word: tuple[int, ...],
                 inverse_index: int, length_form: tuple[tuple[tuple[int, ...], int], ...]):
        super().__init__(
            index=index, matrix=matrix,
            word=word,  # reduced word in simple-reflection indices (0-based)
            text=f"w[{' '.join(str(i + 1) for i in word)}]",  # the printed form, 1-based
            length=len(word), inverse_index=inverse_index,
            # len(t(lam) w) = sum |<lam, row> - offset| over these pairs
            length_form=length_form)

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
            self._length = key_length(self.w.length_form, self.trans)
        return self._length

    @property
    def omega_component(self) -> tuple[int, ...]:
        if self._omega is None:
            self._omega = self.rd.coset_tag(self.trans)
        return self._omega

    def __repr__(self) -> str:
        return element_text(self.trans, self.w)


def key_length(length_form: Sequence[tuple[Sequence[int], int]], lam: Sequence[int]) -> int:
    """len(t(lam) w) by the Iwahori-Matsumoto formula, from the length form
    of w (module docstring)."""
    return sum(abs(sum(map(mul, row, lam)) - o) for row, o in length_form)


def key_product(elements: Sequence[FiniteWeylElement], fin_mul: Sequence[Sequence[int]],
                x: Key, y: Key) -> tuple[tuple[int, ...], int]:
    """The key (lam + a(mu), ab) of the product of t(lam) a and t(mu) b, from
    their keys x = (lam, a) and y = (mu, b)."""
    (lam, a), (mu, b) = x, y
    return tuple(c + sum(map(mul, row, mu)) for c, row in zip(lam, elements[a].matrix)), fin_mul[a][b]


def element_text(trans: Sequence[int], w: FiniteWeylElement) -> str:
    """The printed form ``t(a1,...,ar)*w[i1 i2 ...]`` of t(trans) w, also for
    a key that no element was built for."""
    return f"t({','.join(map(str, trans))})*{w.text}"


class WeylTables(Frozen):
    """The tables of one type's finite and extended affine Weyl groups
    (module docstring), built once per process by :func:`weyl_tables`
    and shared by every :class:`AffineWeyl` of the type.  ``omega_keys``
    holds (coset tag, intern key (lam, w)) of every length-zero element."""

    __slots__ = ("finite_elements", "fin_mul", "gen_indices", "root_images", "sign_table", "w0",
                 "simple_root_pos", "reflection_index", "s0_root", "s0_root_pos", "s0_finite_index",
                 "right_steps", "rises", "omega_keys")


@cache
def weyl_tables(cartan_type: str, rank: int) -> WeylTables:
    """The Weyl group tables of ``cartan_type`` and ``rank``, built on the
    first call and shared by every group of the type after it: the cache
    holds at most one entry per supported type.  An unsupported type raises
    ValueError and is not cached."""
    roots = root_system(cartan_type, rank)
    coroots = roots.coroots

    # -- finite group table ----------------------------------------------------

    ident = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    matrices: list[tuple[tuple[int, ...], ...]] = [ident]
    words: list[tuple[int, ...]] = [()]
    index_of = {ident: 0}
    # right[a][i] = index of a * s_i: the right Cayley table.  As s_i(lam) =
    # lam - lam_i alpha_i, M s_i differs from M only in column i, which
    # becomes M[:, i] - M alpha_i.
    right: list[list[int]] = []
    for a, matrix in enumerate(matrices):  # grows while it runs: a breadth-first search
        row = []
        for i, alpha in enumerate(roots.simple_roots):
            m = tuple((*r[:i], r[i] - sum(map(mul, r, alpha)), *r[i + 1:]) for r in matrix)
            if m not in index_of:
                index_of[m] = len(matrices)
                matrices.append(m)
                words.append(words[a] + (i,))
            row.append(index_of[m])
        right.append(row)

    # a * b follows b's reduced word from a: row[b] = right[row[b s_i]][i] with
    # i the last letter of b's word, whose prefix b s_i precedes b in the search
    parents = [(right[b][word[-1]], word[-1]) for b, word in enumerate(words) if word]
    fin_mul = []
    for a in range(len(matrices)):
        row = [a]
        for p, i in parents:
            row.append(right[row[p]][i])
        fin_mul.append(tuple(row))
    inverses = [row.index(0) for row in fin_mul]

    # root_images[w][k] = w(beta_k) and sign_table[w][k] = its sign, for
    # the k-th positive root.
    positive = set(roots.positive_roots)
    root_images = tuple(tuple(Weight(sum(map(mul, r, beta)) for r in m) for beta in roots.positive_roots)
                        for m in matrices)
    sign_table = tuple(tuple(1 if beta in positive else -1 for beta in row) for row in root_images)
    # Reduced words from BFS are geodesic, so word length is the Coxeter length;
    # cross-check against the inversion count.
    for word, signs in zip(words, sign_table):
        assert signs.count(-1) == len(word), "BFS word is not reduced"
    # Length forms: len(t(lam) w) = sum_k |<lam, beta_k^> - o_k(w)|, with the
    # coroot coordinates of every positive root and o_k(w) = 1 iff w^{-1} beta_k < 0.
    coroot_rows = tuple(coroots[beta] for beta in roots.positive_roots)
    elements = tuple(
        FiniteWeylElement(a, m, word, inv,
                          tuple((row, 0 if s > 0 else 1) for row, s in zip(coroot_rows, sign_table[inv])))
        for a, (m, word, inv) in enumerate(zip(matrices, words, inverses)))
    w0 = max(elements, key=lambda el: el.length)
    assert w0.length == len(roots.positive_roots)
    pos_root_index = {beta: k for k, beta in enumerate(roots.positive_roots)}
    simple_root_pos = tuple(pos_root_index[alpha] for alpha in roots.simple_roots)

    def reflection(beta: Weight) -> int:
        # s_beta(lam) = lam - <lam, beta^> beta, as a group index
        cor = coroots[beta]
        return index_of[tuple(
            tuple((1 if r == c else 0) - beta[r] * cor[c] for c in range(rank)) for r in range(rank))]

    # finite reflection s_beta for each positive root, as a group index.
    reflection_index = tuple(map(reflection, roots.positive_roots))

    # -- affine data -------------------------------------------------------------

    eta = roots.short_dominant_root
    s0_root_pos = pos_root_index[eta]
    s0_finite_index = reflection(eta)
    gen_indices = tuple(right[0])
    # right_steps[j][w] = (offset, w') with t(lam) w s_j = t(lam + offset) w'
    # for every lam: t(lam) w s_0 = t(lam + w(eta)) (w s_eta), with w(eta)
    # from root_images, and t(lam) w s_i = t(lam) (w s_i)
    zero = (0,) * rank
    right_steps = (
        tuple((images[s0_root_pos], row[s0_finite_index]) for images, row in zip(root_images, fin_mul)),
        *(tuple((zero, row[i]) for row in fin_mul) for i in gen_indices))
    # rises[j][w] = (r, o): len(t(lam) w s_j) = len(t(lam) w) + 1 iff <lam, r> >= o,
    # and len(t(lam) w) - 1 otherwise (module docstring).  With beta = w(eta)
    # for j = 0: r = beta^ and o = 0 or -1 for beta > 0 or < 0; with
    # beta = w(alpha_j) for j >= 1: r = -beta^ and o = 0 or 1.
    rises = tuple(
        tuple((tuple(e * c for c in coroots[images[k]]), 0 if signs[k] > 0 else -e)
              for images, signs in zip(root_images, sign_table))
        for k, e in ((s0_root_pos, 1), *((k, -1) for k in simple_root_pos)))

    # -- length-zero subgroup ------------------------------------------------------

    # on intern keys (lam, w), tagged by the coset tag E(lam) mod e
    def tag(lam: Sequence[int]) -> tuple[int, ...]:
        return coset_tag_of(roots.scaled_inverse_cartan, roots.lattice_index_e, lam)

    found: dict[tuple[int, ...], Key] = {tag(zero): (zero, 0)}
    for i in range(rank):
        wt = tuple(1 if j == i else 0 for j in range(rank))
        if all(sum(map(mul, wt, coroots[b])) <= 1 for b in roots.positive_roots):
            for w in elements:
                if key_length(w.length_form, wt) == 0:
                    found.setdefault(tag(wt), (wt, w.index))
                    break
    # each nonzero class of the weight lattice mod the root lattice holds
    # exactly one minuscule fundamental weight (Bourbaki, Lie VI 2), so the
    # search above found the whole subgroup
    if len(found) != roots.lattice_index_e:
        raise AssertionError("length-zero subgroup has wrong size")

    return WeylTables(finite_elements=elements, fin_mul=tuple(fin_mul), gen_indices=gen_indices,
                      root_images=root_images, sign_table=sign_table, w0=w0, simple_root_pos=simple_root_pos,
                      reflection_index=reflection_index, s0_root=eta, s0_root_pos=s0_root_pos,
                      s0_finite_index=s0_finite_index, right_steps=right_steps, rises=rises,
                      omega_keys=tuple(found.items()))


class AffineWeyl:
    """Context object: the extended affine Weyl group of a root datum.

    Its tables are the type's shared :class:`WeylTables`, read as attributes;
    the group itself holds only its interned elements, its Cayley graph and
    its length-zero elements (module docstring)."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        tables = weyl_tables(rd.cartan_type, rd.rank)
        self.finite_elements, self._fin_mul, self._gen_indices = (
            tables.finite_elements, tables.fin_mul, tables.gen_indices)
        self.root_images, self.sign_table, self.w0 = tables.root_images, tables.sign_table, tables.w0
        self.simple_root_pos, self.reflection_index = tables.simple_root_pos, tables.reflection_index
        self.s0_root, self.s0_root_pos, self.s0_finite_index = (
            tables.s0_root, tables.s0_root_pos, tables.s0_finite_index)
        self.right_steps, self.rises = tables.right_steps, tables.rises
        # affine generator list: index 0 is s_0, index i >= 1 is s_i.
        self.num_affine_gens = rd.rank + 1
        self._elements: dict[tuple[Weight, int], ExtAffineElement] = {}
        # the right Cayley graph on dense ids (module docstring)
        self._ids: dict[ExtAffineElement, int] = {}
        self._elts: list[ExtAffineElement] = []
        self._lens: list[int] = []
        self._nbrs: list[list[int | None]] = [[] for _ in self.affine_generator_indices()]
        # tag -> canonical length-0 element
        self.omega_elements = {tag: self._intern(*key) for tag, key in tables.omega_keys}

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
        return self._intern(*key_product(self.finite_elements, self._fin_mul, x.key, y.key))

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
        a of positive length; one with no descent is an internal error.  The
        canonical step of ``reduced_word`` and ``bruhat_column``; the KL
        recursion chooses its own."""
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
