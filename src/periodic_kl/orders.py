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
not depend on the admissible ``l``.  For a *simple* reflection the test
specializes to

- finite ``s_i``:            ``x s_i <= x``  iff  ``w(alpha_i) > 0``;
- affine ``s_0 = t(eta)s_eta``: ``x s_0 <= x``  iff  ``w(eta) < 0``,

with ``eta`` the dominant root whose coroot is highest.  These simple
covers drive the periodic module action.  They do not generate the full
order in rank >= 2 (e.g. in A2 the relation ``s_1 s_2 <= s_2`` needs the
non-simple reflection through the highest root), and only the full
reflection set makes the order agree with its Bruhat characterization
below, so the closure here always uses all reflections.

Two elements are comparable only inside a common coset of the length-zero
subgroup.  Along any descending chain from ``y`` down to ``x`` every
intermediate ``z`` satisfies ``x dot 0 <= z dot 0 <= y dot 0`` in dominance
order, which confines all chains to a finite, enumerable slab.  The exact
comparison is batched: :meth:`SemiInfiniteOrder.below` answers ``x <= y``
for a whole set of queries ``x`` with one down-closure search of ``y``.  The
search never leaves the elements ``z`` whose ``z dot 0`` dominates the meet
(coordinatewise minimum in simple-root coordinates) of the queried
``x dot 0`` and whose height is at least the lowest queried height.  Every
chain to a queried ``x`` lies in ``[x dot 0, y dot 0]``, hence inside that
region, so the pruning loses no answer (no window guesswork), while the
region stays close to the queries instead of spanning the whole ideal of
``y``.  The search runs on ``(translation, finite index)`` keys with
integer root coordinates scaled by the lattice index, and takes its moves
from per-finite-element tables built on first use.  :meth:`leq` is one
such search with a single query, memoized per pair.

The order on a whole window (:meth:`SemiInfinitePoset.build`) is one pass
that decides the window's columns (the ideals of its elements within it) in
ascending height.  Every generating move strictly lowers the height, so a
window element that the search of ``y`` reaches is lower than ``y`` and
already decided: the search ORs in its finished column and does not expand
it.  Any chain from ``y`` to a queried ``x`` either reaches ``x`` directly
or passes a first window element ``z >= x``, whose column holds ``x``; so
the pass is exact for any window.  It and :meth:`SemiInfiniteOrder.below`
run the same search loop.

An independent characterization via deep dominant translation is provided:
``x <= y`` iff ``t(mu) x <= t(mu) y`` in Bruhat order once both elements
translate the fundamental alcove into the dominant cone.  Each translate is
certified once per ``(z, mu)`` and memoized.  Agreement of the two routes
is part of the acceptance suite.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Iterable, Optional, Sequence

from .laurent import ResourceError
from .rootdata import Weight, dominance_leq, pairing
from .weyl import AffineWeyl, ExtAffineElement

__all__ = [
    "SemiInfiniteOrder",
    "SemiInfinitePoset",
    "standard_window",
]

# Window size bound: tests enumerate up to 3,000 elements (A3, height 2) and
# compute on up to 648 (A3, height 1).
MAX_WINDOW = 10_000


class SemiInfiniteOrder:
    """Order oracle bound to one affine Weyl context."""

    def __init__(self, group: AffineWeyl):
        self.group = group
        self.rd = group.rd
        self._desc_cache: dict[tuple[int, int], bool] = {}
        self._leq_cache: dict[tuple[ExtAffineElement, ExtAffineElement], bool] = {}
        self._translate_cache: dict[tuple[ExtAffineElement, Weight], ExtAffineElement] = {}

    def height(self, x: ExtAffineElement) -> int:
        """<x dot_l 0, 2 rho^> = 2 sum(E(x)) / e, strictly decreasing along the
        semi-infinite order."""
        return 2 * sum(self._scaled_rc(x)) // self.rd.lattice_index_e

    # -- generating relations ----------------------------------------------------

    def descends(self, x: ExtAffineElement, j: int) -> bool:
        """True iff x s_j <= x in the semi-infinite order (a local test)."""
        key = (x.w.index, j)
        hit = self._desc_cache.get(key)
        if hit is None:
            g = self.group
            if j == 0:
                hit = g.sign_table[x.w.index][g.s0_root_pos] < 0
            else:
                hit = g.sign_table[x.w.index][g.simple_root_pos[j - 1]] > 0
            self._desc_cache[key] = hit
        return hit

    def generating_relation_holds(self, x: ExtAffineElement, j: int) -> bool:
        """The defining comparison x dot_l 0 >= x s_j dot_l 0, evaluated literally."""
        g = self.group
        xs = g.right_multiply_gen(x, j)
        return dominance_leq(self.rd, g.dot_zero(xs), g.dot_zero(x))

    # -- exact comparison ----------------------------------------------------------

    def leq(self, x: ExtAffineElement, y: ExtAffineElement) -> bool:
        """Exact semi-infinite comparison x <= y."""
        if x is y:
            return True
        key = (x, y)
        hit = self._leq_cache.get(key)
        if hit is None:
            hit = x in self.below(y, (x,))
            self._leq_cache[key] = hit
        return hit

    def below(self, y: ExtAffineElement, xs: Iterable[ExtAffineElement]) -> set[ExtAffineElement]:
        """The elements x of ``xs`` with x <= y, from one down-closure search of y.

        Each element carries E(z) = e * rc(z dot 0): x dot 0 <= z dot 0 in
        dominance order iff E(z) - E(x) is a nonnegative multiple of e in
        every coordinate, and the height is 2 sum(E) / e.  Only the queries
        with x dot 0 <= y dot 0 can be reached, and the search stays where E
        dominates their meet and sum(E) is at least their least sum.
        """
        e = self.rd.lattice_index_e
        ey = self._scaled_rc(y)
        want: dict[tuple, ExtAffineElement] = {}
        rcs = []
        for x in xs:
            ex = self._scaled_rc(x)
            if all(d >= 0 and d % e == 0 for d in (b - a for a, b in zip(ex, ey))):
                want[x.key] = x
                rcs.append(ex)
        if not want:
            return set()
        marks = {key: 1 << i for i, key in enumerate(want)}
        found = self._descend(y.key, ey, rcs, marks, marks.get(y.key, 0), (1 << len(want)) - 1, closed=False)
        return {x for i, x in enumerate(want.values()) if found >> i & 1}

    def _descend(self, start: tuple, ey: tuple[int, ...], rcs: list[tuple[int, ...]],
                 marks: dict[tuple, int], found: int, goal: int, closed: bool) -> int:
        """The down-closure search of the element with key ``start`` and E = ``ey``.

        It descends by generating moves on keys ``(trans coords, w index)``,
        only to elements whose E dominates the meet of the candidates' E
        vectors ``rcs`` and whose sum(E) is at least their least sum.
        Reaching a key of ``marks`` ORs its mask into ``found``; a ``closed``
        search does not expand such a key any further.  The search ends when
        ``found`` equals ``goal`` or nothing is left to expand, and returns
        ``found``.
        """
        meet = tuple(map(min, zip(*rcs)))
        floor = min(map(sum, rcs))
        moves = self._moves
        l = self.rd.l
        seen = {start}
        stack = [(*start, ey)]
        while stack and found != goal:
            trans, w, ev = stack.pop()
            budget = sum(ev) - floor
            slack = [v - m for v, m in zip(ev, meet)]
            for a, k, dk, drop, nonzero, wbeta, rc, w2 in moves[w]:
                amax = budget // drop
                for i, r in nonzero:
                    q = slack[i] // r
                    if q < amax:
                        amax = q
                while a <= amax:
                    nt = tuple(t + k * b for t, b in zip(trans, wbeta))
                    key = (nt, w2)
                    if key not in seen:
                        seen.add(key)
                        if key not in marks:
                            stack.append((nt, w2, tuple(v - a * r for v, r in zip(ev, rc))))
                        else:
                            found |= marks[key]
                            if not closed:
                                stack.append((nt, w2, tuple(v - a * r for v, r in zip(ev, rc))))
                    a += l
                    k += dk
        return found

    def _scaled_rc(self, z: ExtAffineElement) -> tuple[int, ...]:
        """E(z) = e * rc(z dot 0) as integers, with z dot 0 = w rho - rho + l lam."""
        offsets, rows = self._dot_rc
        lam = z.trans
        return tuple(off + sum(map(mul, row, lam)) for off, row in zip(offsets[z.w.index], rows))

    @cached_property
    def _dot_rc(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """E(t(0) w) per finite w, and the rows of l * e * C^{-1}."""
        rd = self.rd
        offsets = tuple(
            rd.scaled_root_coordinates(w.apply(rd.rho) - rd.rho) for w in self.group.finite_elements
        )
        rows = tuple(tuple(rd.l * c for c in row) for row in rd.scaled_inverse_cartan)
        return offsets, rows

    @cached_property
    def _moves(self) -> tuple[tuple[tuple, ...], ...]:
        """The generating moves z -> z r < z, r = t(k b) s_b, per finite part w of z.

        For z = t(lam) w the move gives t(lam + k w(b)) (w s_b), lowers
        z dot 0 by c w(b) with c = ht(b^) - l k, and is a strict descent iff
        c and w(b) have the same sign.  Since 0 < ht(b^) < l, the admissible
        |c| are ht(b^), ht(b^) + l, ... (k = 0, -1, ...) when w(b) > 0 and
        l - ht(b^), 2l - ht(b^), ... (k = 1, 2, ...) when w(b) < 0.  One row
        per positive root b holds: the least |c|, its k, the step of k per
        step l of |c|, the drop of sum(E) per unit of |c|, the nonzero
        entries of |E(w(b))|, w(b), |E(w(b))| and the index of w s_b.
        """
        rd, g = self.rd, self.group
        l = rd.l
        table = []
        for w in g.finite_elements:
            rows = []
            for pos, beta in enumerate(rd.positive_roots):
                wbeta = w.apply(beta)
                rc = tuple(map(abs, rd.scaled_root_coordinates(wbeta)))
                ht = sum(rd.coroot(beta))
                if g.sign_table[w.index][pos] > 0:
                    first = (ht, 0, -1)
                else:
                    first = (l - ht, 1, 1)
                nonzero = tuple((i, r) for i, r in enumerate(rc) if r)
                w2 = g._fin_mul[w.index][g.reflection_index[pos]]
                rows.append(first + (sum(rc), nonzero, wbeta, rc, w2))
            table.append(tuple(rows))
        return tuple(table)

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
                violations.append(f"<{z!r}(rho/h), alpha_{i+1}^> = {Fraction(val, h)} <= 0")
        return violations

    def leq_via_translation(
        self, x: ExtAffineElement, y: ExtAffineElement, mu: Weight
    ) -> bool:
        """Bruhat comparison of t(mu)x and t(mu)y for sufficiently dominant mu.

        Raises ``ValueError`` with the violated alcove-dominance certificate
        when ``mu`` is not dominant enough.
        """
        return self.group.bruhat_leq(self._certified_translate(x, mu), self._certified_translate(y, mu))

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

    def sufficient_mu(self, elements: Sequence[ExtAffineElement], extra: int = 2) -> Weight:
        """A dominant mu certified to work for all given elements.

        Starts from (max translation height + extra) * rho and doubles until
        the alcove certificates pass.
        """
        rd = self.rd
        height = max((max(map(abs, z.trans)) for z in elements), default=0)
        n = height + extra
        for _ in range(64):
            mu = n * rd.rho
            if all(not self.dominant_alcove_certificate(self.group.translate_left(mu, z)) for z in elements):
                return mu
            n *= 2
        raise AssertionError("no sufficiently dominant mu found")  # pragma: no cover


@dataclass(frozen=True)
class SemiInfinitePoset:
    """The semi-infinite order restricted to a finite window, as explicit data."""

    window: tuple[ExtAffineElement, ...]
    rows: tuple[int, ...]  # bit j of rows[i] iff window[i] <= window[j]

    def hasse_edges(self) -> list[tuple[ExtAffineElement, ExtAffineElement]]:
        """Cover relations (a, b) with a covered by b, within the window.

        The strict up-set of a minus the strict up-sets of its members leaves
        exactly the elements covering a.
        """
        strict = [row & ~(1 << i) for i, row in enumerate(self.rows)]
        edges = []
        for i, up in enumerate(strict):
            above = 0
            for j in _bits(up):
                above |= strict[j]
            for j in _bits(up & ~above):
                edges.append((self.window[i], self.window[j]))
        return edges

    def check_partial_order(self) -> None:
        rows = self.rows
        for i, row in enumerate(rows):
            assert row >> i & 1
            for j in _bits(row):
                if j != i:
                    assert not rows[j] >> i & 1, "antisymmetry violated"
                assert rows[j] & ~row == 0, "transitivity violated"

    @staticmethod
    def build(order: SemiInfiniteOrder, window: Sequence[ExtAffineElement]) -> "SemiInfinitePoset":
        """The order on ``window`` from one pass that decides its columns in
        ascending height.

        The column of y is the set of window elements x <= y.  Its
        candidates, the x with E(y) - E(x) >= 0 and = 0 mod e in every
        coordinate, are the bits of one mask per residue class of E mod e
        ANDed with one prefix mask "E_c <= E_c(y)" per coordinate c.  Their
        meet and least sum(E) bound the down-closure search of y exactly as
        in :meth:`SemiInfiniteOrder.below`.  When that search reaches a window
        element z, it ORs in the column of z and does not expand z.

        This is exact for any window.  Every generating move strictly lowers
        the height 2 sum(E) / e, so a window element z reached from y has
        lower height than y and its column is already decided; by induction
        on the height that column is exactly the ideal of z within the
        window, and each of its members lies below y.  Conversely, every
        chain of moves from y down to a candidate x stays in the searched
        region and either reaches x without meeting another window element
        or meets a first window element z with x <= z; either way x lands in
        the column of y.
        """
        win = tuple(window)
        n = len(win)
        e = order.rd.lattice_index_e
        es = [order._scaled_rc(z) for z in win]
        classes: dict[tuple[int, ...], int] = {}
        for i, ev in enumerate(es):
            r = tuple(v % e for v in ev)
            classes[r] = classes.get(r, 0) | 1 << i
        prefixes = []
        for c in range(order.rd.rank):
            by = sorted(range(n), key=lambda i: es[i][c])
            masks = [0]
            for i in by:
                masks.append(masks[-1] | 1 << i)
            prefixes.append(([es[i][c] for i in by], masks))
        decided: dict[tuple, int] = {}
        for j in sorted(range(n), key=lambda j: sum(es[j])):
            ey = es[j]
            cand = classes[tuple(v % e for v in ey)]
            for (values, masks), v in zip(prefixes, ey):
                cand &= masks[bisect_right(values, v)]
            rcs = [es[i] for i in _bits(cand)]
            key = win[j].key
            decided[key] = order._descend(key, ey, rcs, decided, 1 << j, cand, closed=True)
        rows = [0] * n
        for j, z in enumerate(win):
            for i in _bits(decided[z.key]):
                rows[i] |= 1 << j
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

