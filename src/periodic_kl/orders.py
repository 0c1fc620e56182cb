"""The semi-infinite order on the extended affine Weyl group.

The order is generated by the relations ``x r <= x`` whenever
``x dot_l 0 >= x r dot_l 0`` in dominance order, with ``r`` running over
the *reflections* of the affine Weyl group (all conjugates of the simple
ones, i.e. ``r = t(k b) s_b`` for a positive root ``b`` and an integer
``k``).  Writing ``x = t(lam) w``, the generating comparison is exact and
local:

    x dot 0  -  x t(k b) s_b dot 0  =  (ht(b^) - l k) * w(b),

so the relation holds iff ``sign(ht(b^) - l k) = sign(w(b))``.  Since
``ht(b^) <= h - 1 < l`` the sign of the scalar, hence the whole order, does
not depend on the admissible ``l``, and since it does not read ``lam``,
left translation preserves the order.  For a *simple* reflection the test
specializes to

- finite ``s_i``:            ``x s_i <= x``  iff  ``w(alpha_i) > 0``;
- affine ``s_0 = t(eta)s_eta``: ``x s_0 <= x``  iff  ``w(eta) < 0``,

with ``eta`` the dominant root whose coroot is highest.  These simple
covers drive the periodic module action.  They do not generate the full
order in rank >= 2 (e.g. in A2 the relation ``s_1 s_2 <= s_2`` needs the
non-simple reflection through the highest root).

Closed form.  For ``x = t(lam) w`` and ``y = t(mu) v``,

    x <= y  iff  mu - lam - d(w, v) lies in Q+,

Q+ the nonnegative integer combinations of the simple roots, with one apex
``d(w, v)`` in the root lattice per pair of finite parts: the weight
d(w, v) = wt(v^-1 => w^-1) of a shortest path from v^-1 to w^-1 in the
quantum Bruhat graph (Brenti-Fomin-Postnikov) of the dual root system.
Its vertices are the finite Weyl group; for a vertex u and a positive
root b it has

- a Bruhat edge u -> u s_b when len(u s_b) = len(u) + 1, of weight 0;
- a quantum edge u -> u s_b when len(u s_b) = len(u) + 1 - 2 ht(b), of
  weight b,

with ht(b) the sum of the simple-root coordinates of b.  All shortest
paths between two vertices have one weight (Postnikov, Proc. AMS 133,
2005).  :func:`_apex_table` records one shortest path's weight per pair,
by one breadth-first search per source; the checks below prove the table
per type.  Ishii-Naito-Sagaki (Adv. Math. 290, 2016) relate the graph to
the semi-infinite Bruhat order, in other conventions:

- translations act here on the left, ``t(lam) w = w t(w^-1 lam)``, and the
  order is generated by right multiplications ``x r``; the literature
  writes ``w t_xi`` and multiplies reflections on the left.  Inverting
  (``x^-1 = t(-w^-1 lam) w^-1``) exchanges the two sides and inverts the
  finite parts, which is where the inverses in d come from;
- translations run here over the weight lattice, where the literature has
  the coroot lattice.  So the graph is that of the dual root system: its
  quantum edges are read at root heights and weighted by roots.  On B2,
  C2 and G2 the graph of the root system itself, with coroot heights and
  coroot weights, gives other apexes, which fail check (b) below; a graph
  that mixes root heights with coroot weights, or the converse, has
  shortest paths of different weights there.

Proof per type.  The library does not rest on that translation.  Call
``<=_g`` the order the moves generate and ``<=_c`` the cone order above.
Four finite checks give ``<=_g == <=_c`` for every lam, mu and admissible
l:

(a) d(w, w) = 0 and d(w, v) + d(v, u) - d(w, u) lies in Q+ for all w, v,
    u, so ``<=_c`` is a preorder;
(b) every generating move ``t(lam) w -> t(lam + k w(b)) w s_b`` satisfies
    the cone condition at its least |k|: k = 0 when w(b) > 0, k = 1 when
    w(b) < 0.  Every further k adds a positive multiple of |w(b)|, which
    lies in Q+.  With (a), ``<=_g`` lies in ``<=_c``;
(c) a search along the moves shows t(0) w <=_g t(d(w, v)) v for every
    pair (w, v), and
(d) t(0) v <=_g t(alpha_i) v for every v and every simple root alpha_i.
    By translation, ``t(lam) w <=_c t(mu) v`` is then the chain
    t(lam) w <=_g t(lam + d(w, v)) v <=_g ... <=_g t(mu) v, adding one
    simple root per step, so ``<=_c`` lies in ``<=_g``.

``tests/test_orders.py`` checks (a)-(d) on every type of
``rootdata._CARTAN``; the search lives on in ``tests/oracles.py`` as an
oracle of the order.

:func:`_apex_table` holds E(d(w, v)) = e C^{-1} d(w, v) per type, built on
the first ``leq``, ``build`` or class solve, never by a constructor.
``below`` is one cone test on keys, "t(trans) u <= t(0) w"; ``leq`` calls
it, and so do the class solve of :mod:`.periodic` and the command line's
cache loader, which check each term of a class against its lead.
``build`` reads a window's rows from per-finite-part masks and that table.

An independent characterization via deep dominant translation is provided:
``x <= y`` iff ``t(mu) x <= t(mu) y`` in Bruhat order once both elements
translate the fundamental alcove into the dominant cone.  Each translate is
certified once per ``(z, mu)`` and memoized, and a whole column (all ``x``
against one ``y``) is decided by one Bruhat walk down ``t(mu) y``.
Agreement of the two routes is part of the acceptance suite.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, cached_property
from itertools import product
from operator import add, mul, sub
from typing import NamedTuple, Optional, Sequence

from .laurent import ResourceError
from .rootdata import Weight, pairing, root_system, scaled_coordinates
from .weyl import AffineWeyl, ExtAffineElement, WeylTables, weyl_tables

__all__ = [
    "SemiInfiniteOrder",
    "SemiInfinitePoset",
    "standard_window",
]

# Window size bound: the slow tests build the order on up to 3,000 elements
# (A3, height 2), and the rows of a window take n^2 bits.
MAX_WINDOW = 10_000

Apexes = tuple[tuple[tuple[int, ...], ...], ...]  # apexes[w][v] = E(d(w, v))
Graph = tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]  # graph[u]: (target, E(weight)) per edge


@cache
def _apex_table(cartan_type: str, rank: int) -> Apexes:
    """``[w][v]`` = E(d(w, v)) for the finite indices w, v of the type (module
    docstring), built on the first call per type and process: tuples of
    integers, at most one entry per supported type."""
    roots = root_system(cartan_type, rank)
    labels = []
    for beta in roots.positive_roots:
        ev = scaled_coordinates(roots.scaled_inverse_cartan, beta)
        labels.append((2 * sum(ev) // roots.lattice_index_e, ev))
    tables = weyl_tables(cartan_type, rank)
    return _apexes(tables, _quantum_bruhat_graph(tables, labels))


def _quantum_bruhat_graph(tables: WeylTables, labels: Sequence[tuple[int, tuple[int, ...]]]) -> Graph:
    """The edges (index of u s_b, E(weight)) out of every finite index u, from
    one label (2 ht(b), E(b)) per positive root b (module docstring)."""
    lengths = [w.length for w in tables.finite_elements]
    zero = (0,) * len(labels[0][1])
    graph = []
    for u, row in enumerate(tables.fin_mul):
        edges = []
        for r, (drop, ev) in zip(tables.reflection_index, labels):
            t = row[r]
            if lengths[t] == lengths[u] + 1:
                edges.append((t, zero))
            elif lengths[t] == lengths[u] + 1 - drop:
                edges.append((t, ev))
        graph.append(tuple(edges))
    return tuple(graph)


def _apexes(tables: WeylTables, graph: Graph) -> Apexes:
    """``[w][v]`` = the weight of a shortest path from v^-1 to w^-1 in
    ``graph``, by one breadth-first search per source that keeps the weight
    of the path on which it first reaches a vertex.  A vertex that no path
    reaches raises AssertionError; the per-type certificate (module
    docstring) proves the weights kept."""
    n = len(graph)
    zero = (0,) * len(tables.finite_elements[0].matrix)
    weights = []
    for source in range(n):
        weight = {source: zero}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for t, ev in graph[u]:
                    if t not in weight:
                        weight[t] = tuple(map(add, weight[u], ev))
                        nxt.append(t)
            frontier = nxt
        if len(weight) != n:
            raise AssertionError(f"quantum Bruhat graph: {n - len(weight)} vertices unreachable from {source}")
        weights.append(weight)
    inv = [w.inverse_index for w in tables.finite_elements]
    return tuple(tuple(weights[inv[v]][inv[w]] for v in range(n)) for w in range(n))


class SemiInfiniteOrder:
    """Order oracle bound to one affine Weyl context."""

    def __init__(self, group: AffineWeyl):
        self.group = group
        self.rd = group.rd
        # _descents[w][j]: x s_j <= x for every x with finite part w
        self._descents = tuple(
            (signs[group.s0_root_pos] < 0, *(signs[pos] > 0 for pos in group.simple_root_pos))
            for signs in group.sign_table
        )
        self._translate_cache: dict[tuple[ExtAffineElement, Weight], ExtAffineElement] = {}
        self._neg_scaled: dict[tuple[int, ...], tuple[int, ...]] = {}

    def height(self, x: ExtAffineElement) -> int:
        """<x dot_l 0, 2 rho^>, strictly decreasing along the semi-infinite
        order, from the linear form ``height_form``."""
        base, row = self.height_form
        return base[x.w.index] + sum(map(mul, row, x.trans))

    @cached_property
    def height_form(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(h(t(0) w) per finite w, the row l * 2 rho^): the height is linear in
        the translation, h(t(lam) w) = h(t(0) w) + l <lam, 2 rho^>, since
        t(lam) w dot 0 = (w dot 0) + l lam, and <mu, 2 rho^> = 2 sum(E(mu)) / e."""
        rd = self.rd
        e = rd.lattice_index_e
        return (tuple(2 * sum(rd.scaled_root_coordinates(w.apply(rd.rho) - rd.rho)) // e
                      for w in self.group.finite_elements),
                tuple(rd.l * c for c in rd.two_rho_check))

    # -- generating relations ----------------------------------------------------

    def descends(self, x: ExtAffineElement, j: int) -> bool:
        """True iff x s_j <= x in the semi-infinite order (a local test)."""
        return self._descents[x.w.index][j]

    # -- exact comparison ----------------------------------------------------------

    def leq(self, x: ExtAffineElement, y: ExtAffineElement) -> bool:
        """Exact semi-infinite comparison x <= y: :meth:`below` of
        t(x.trans - y.trans) x.w and t(0) y.w, by translation invariance."""
        return self.below(tuple(map(sub, x.trans, y.trans)), x.w.index, y.w.index)

    def below(self, trans: tuple[int, ...], u: int, w: int) -> bool:
        """t(trans) u <= t(0) w on keys (finite indices u, w): the cone test
        E(-trans) - E(d(u, w)) >= 0 and = 0 mod e in every coordinate (module
        docstring), with E(-trans) memoized per translation."""
        diff = self._neg_scaled.get(trans)
        if diff is None:
            diff = self._neg_scaled[trans] = scaled_coordinates(
                self.rd.scaled_inverse_cartan, tuple(-c for c in trans))
        e = self.rd.lattice_index_e
        for c, a in zip(diff, self._apexes[u][w]):
            if c < a or (c - a) % e:
                return False
        return True

    @cached_property
    def _apexes(self) -> Apexes:
        """The type's :func:`_apex_table`, read on first use."""
        return _apex_table(self.rd.cartan_type, self.rd.rank)

    # -- translation characterization ---------------------------------------------------

    def dominant_alcove_certificate(self, z: ExtAffineElement) -> list[str]:
        """Empty iff z sends the (open) fundamental alcove into the dominant cone.

        Tests the image of the interior point rho/h exactly (scaled by h).
        """
        rd = self.rd
        h = rd.coxeter_number
        p = z.w.apply(rd.rho) + h * z.trans
        violations = []
        for i in range(rd.rank):
            val = pairing(rd, p, rd.simple_coroots[i])
            if val <= 0:
                from fractions import Fraction  # only a failed certificate prints one

                violations.append(f"<{z!r}(rho/h), alpha_{i+1}^> = {Fraction(val, h)} <= 0")
        return violations

    def leq_via_translation(
        self, x: ExtAffineElement, y: ExtAffineElement, mu: Weight
    ) -> bool:
        """Bruhat comparison of t(mu)x and t(mu)y for sufficiently dominant mu:
        the one-query case of :meth:`column_via_translation`."""
        return self.column_via_translation((x,), y, mu)[0]

    def column_via_translation(
        self, xs: Sequence[ExtAffineElement], y: ExtAffineElement, mu: Weight
    ) -> list[bool]:
        """``[t(mu)x <= t(mu)y for x in xs]`` in the Bruhat order, for
        sufficiently dominant mu, from one walk down t(mu)y.

        Raises ``ValueError`` with the violated alcove-dominance certificate
        when ``mu`` is not dominant enough.
        """
        translate = self._certified_translate
        return self.group.bruhat_column([translate(x, mu) for x in xs], translate(y, mu))

    def _certified_translate(self, z: ExtAffineElement, mu: Weight) -> ExtAffineElement:
        """t(mu) z once its alcove certificate passes, memoized per (z, mu)."""
        key = (z, mu)
        tz = self._translate_cache.get(key)
        if tz is None:
            tz = self.group.translate_left(mu, z)
            problems = self.dominant_alcove_certificate(tz)
            if problems:
                raise ValueError("mu is not sufficiently dominant: " + "; ".join(problems))
            self._translate_cache[key] = tz
        return tz

    def sufficient_mu(self, elements: Sequence[ExtAffineElement]) -> Weight:
        """mu = (H + 1) * rho, H the largest |coordinate| of the elements'
        translation parts, with every alcove certificate checked and the
        certified translates memoized for :meth:`column_via_translation`.

        Every certificate passes: for z = t(lam) w it pairs w(rho) + h (mu +
        lam) with each simple coroot alpha_i^.  <w rho, alpha_i^> = <rho,
        w^{-1} alpha_i^> is at least -(h - 1), as h - 1 is the height of the
        highest coroot, and h <mu + lam, alpha_i^> = h (H + 1 + lam_i) >= h,
        so the sum is positive.  A failure is an internal error
        (AssertionError).
        """
        height = max((max(map(abs, z.trans)) for z in elements), default=0)
        mu = (height + 1) * self.rd.rho
        try:
            for z in elements:
                self._certified_translate(z, mu)
        except ValueError as exc:
            raise AssertionError(f"sufficient_mu: {exc}") from None
        return mu


class SemiInfinitePoset(NamedTuple):
    """The semi-infinite order restricted to a finite window, as explicit data."""

    window: tuple[ExtAffineElement, ...]
    rows: tuple[int, ...]  # bit j of rows[i] iff window[i] <= window[j]

    def hasse_edges(self) -> list[tuple[ExtAffineElement, ExtAffineElement]]:
        """Cover relations (a, b) with a covered by b, within the window: the
        strict up-set of a minus its members' strict up-sets."""
        win = self.window
        return [(win[i], win[j]) for i, up, above in self._up_sets() for j in _bits(up & ~above)]

    def check_partial_order(self) -> None:
        """AssertionError unless the rows are a partial order: per element i,
        with U_i its strict up-set and A_i its members' strict up-sets, bit i
        of row i (reflexivity), i not in A_i (antisymmetry: else some j in
        U_i has i in row j), and A_i inside row i (transitivity: each j in
        U_i is in row i, so this is row j inside row i)."""
        rows = self.rows
        for i, up, above in self._up_sets():
            row = rows[i]
            assert row >> i & 1, "reflexivity violated"
            assert not above >> i & 1, "antisymmetry violated"
            assert above & ~row == 0, "transitivity violated"

    def _up_sets(self):
        """(i, U_i, A_i) per element i: U_i its strict up-set, A_i the union
        of its members' strict up-sets."""
        strict = [row & ~(1 << i) for i, row in enumerate(self.rows)]
        for i, up in enumerate(strict):
            above = 0
            for j in _bits(up):
                above |= strict[j]
            yield i, up, above

    @staticmethod
    def build(order: SemiInfiniteOrder, window: Sequence[ExtAffineElement]) -> "SemiInfinitePoset":
        """The order on ``window`` from the closed form (module docstring).

        Each element carries T = E(lam) of its translation lam.  As E(d) = 0
        mod e, x <= y needs T(x) = T(y) mod e, so the window is split by the
        residue of T mod e and then by finite part v.  Each such block keeps,
        per coordinate c, its values T_c sorted, each with the suffix mask
        of the block's elements at or above it.  The row of x = t(lam) w is
        the OR over the blocks of its residue of the AND over c of the
        suffix masks read at T_c(x) + E_c(d(w, v)).
        """
        win = tuple(window)
        rd = order.rd
        e = rd.lattice_index_e
        apexes = order._apexes
        ts = [scaled_coordinates(rd.scaled_inverse_cartan, z.trans) for z in win]
        residues = [tuple(c % e for c in t) for t in ts]
        blocks: dict[tuple[int, ...], dict[int, list[int]]] = {}
        for j, (z, r) in enumerate(zip(win, residues)):
            blocks.setdefault(r, {}).setdefault(z.w.index, []).append(j)
        readers = {}
        for r, parts in blocks.items():
            readers[r] = reader = []
            for v, members in parts.items():
                suffixes = []
                for c in range(rd.rank):
                    by = sorted(members, key=lambda j: ts[j][c])
                    masks = [0] * (len(by) + 1)
                    for k in range(len(by) - 1, -1, -1):
                        masks[k] = masks[k + 1] | 1 << by[k]
                    suffixes.append(([ts[j][c] for j in by], masks))
                reader.append((v, suffixes))
        rows = []
        for z, t, r in zip(win, ts, residues):
            apex = apexes[z.w.index]
            row = 0
            for v, suffixes in readers[r]:
                mask = -1
                for (values, masks), c, a in zip(suffixes, t, apex[v]):
                    mask &= masks[bisect_left(values, c + a)]
                    if not mask:
                        break
                row |= mask
            rows.append(row)
        poset = SemiInfinitePoset(win, tuple(rows))
        poset.check_partial_order()
        return poset


def standard_window(
    group: AffineWeyl, height: int, coset: Optional[tuple[int, ...]] = None
) -> list[ExtAffineElement]:
    """All elements t(lam) w with max |fundamental coordinate of lam| <= height.

    Restricted to one coset of the length-zero subgroup when ``coset`` is
    given, otherwise all cosets.  Ascending translations, each with the finite
    elements in index order, give the canonical ``key`` order.  A window of
    more than ``MAX_WINDOW`` elements is refused before it is enumerated.
    """
    rd = group.rd
    size = len(group.finite_elements) * (2 * height + 1) ** rd.rank
    if size > MAX_WINDOW:
        raise ResourceError(
            f"window of height {height} has {size} elements, above the bound of {MAX_WINDOW}"
        )
    out = []
    for lam in product(range(-height, height + 1), repeat=rd.rank):
        if coset is not None and rd.coset_tag(lam) != coset:
            continue
        for w in group.finite_elements:
            out.append(group.element(lam, w))
    return out


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

