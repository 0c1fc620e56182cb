"""The periodic module over the extended affine Hecke algebra.

Free Z[v^{+-1}]-module with basis {B_x} indexed by the extended affine Weyl
group, carrying the right action of :class:`.hecke.RightHeckeModule`, whose
docstring states its one rule, the action of H_s + v, with the
semi-infinite order deciding when s descends x (xs < x, the local sign
test from :mod:`.orders`).  For each weight lam the element

    e(lam) = sum_{w in W} v^{len(w)} B_{t(lam) w}

generates (together with its translates) the submodule of interest.  There
is a unique involution of that submodule which is skew-linear over the bar
involution of the Hecke algebra and fixes every e(lam); for each x there is
then a unique self-dual element

    SD_x  in  B_x + sum_{y < x} vZ[v] B_y            (semi-infinite order),

whose coordinates p_{y,x} are the periodic Kazhdan-Lusztig polynomials.

Algorithm.  e(lam) itself is self-dual and triangular (every t(lam)w with
w != e lies strictly below t(lam): descend along any reduced word of w), so
pure translations are base cases, SD_{t(lam)} = e(lam).  Left translation
t(nu) commutes with the right action and fixes the e-family, hence
SD_{t(nu)x} is the nu-shift of SD_x; everything therefore reduces to the
|W| "class" elements SD_w, w in W.  For w != e pick an affine simple s with
ws < w in the semi-infinite order, by a grounded search at construction
(``_choose_down_moves``): from the identity class, each class takes its
first descent, in generator order, onto a class that already has one, so
the class dependencies form a tree.  No fixed preference of generators is
acyclic on every type: preferring s_0 cycles on A2, A3 and G2.  Then

    P := SD_{ws} . (H_s + v)        (the rule of ``act_cs``)

is self-dual with leading term B_w, and SD_w = P - sum_j m_j SD_{z_j} for
the unique bar-symmetric corrections m_j that leave all off-leading
coefficients in vZ[v].  Each m_j is an integer, the constant term of the
coefficient it corrects.

The whole solve runs on intern keys (translation coordinates, finite
index) and packed coefficients (see "Packed sums" below), and builds no
element: a translate of a key is one tuple add, and the group's finite
tables give the rest.  The down moves are read from the per-(s, finite
part) table ``AffineWeyl.right_steps`` and the order's descent table.  The
product is computed on keys: the term c B_x of SD_{ws} = t(nu) SD_sigma
goes to xs, with x s from ``right_steps``, and to x times v, or times
v^{-1} when s descends x (a test on the finite part of x).  The
corrections are found by one top-down sweep of the support in the height
function h(z) = <z dot_l 0, 2 rho^> (every strict semi-infinite relation
strictly drops h), which is linear in the translation, h(t(lam) w) =
h(t(0) w) + l <lam, 2 rho^> (``SemiInfiniteOrder.height_form``).  The
sweep keeps one running coefficient per queued position: P's coefficient
minus every correction so far.  At an offending position z the correction
m SD_z = m t(z.trans) SD_u is subtracted, m c at t(z.trans) src for each
term c B_src of SD_u: in full when registered if u != w; if u = w (SD_w
corrects itself), for the terms finalized so far and then for each as it
is finalized.  Each target but z (the lead's image; val - m normalizes z)
lies strictly below z in height: for u != w, SD_u's support lies below its
lead; for u = w, h(t(z.trans) p) = h(p) - (h(t(0)w) - h(z)) < h(z) for
p != t(0)w.  So no target is swept before the correction reaches it, and
each value read is final: the dependency of whole elements is cyclic
through translation, but positionwise it is triangular.

Exactness.  Every value of the solve lies in Z[v].  Write SD_{ws} = B_{ws}
+ sum_{y < ws} p_y B_y with p_y in vZ[v].  The lead ws does not descend at
s (ws s = w lies above it), so its 1 goes to w and, times v, to ws; every
other p_y goes to ys unchanged and to y times v or v^{-1}, which keeps it
in Z[v].  So P lies in the sum of the Z[v] B_x, and subtracting integer
multiples of vectors there keeps every later value there.  On packed
integers v^{-1} p is a right shift, exact only if p has no constant term,
so each down move of the product first tests that the low digit of p is
zero, and a nonzero one (which this proof excludes) raises
CertificationError.  The bar-symmetric m with c - m in vZ[v] of a c in
Z[v] is its constant term: the balanced low digit of the packed c, and
c - m is one integer subtraction.  Every queued position carries a bound
on the l1 norm of its value: the l1 norms of the product terms that reach
it, and bound += |m| l1(c) for each correction term m c (its own l1 for a
stored class, the exact l1 of the finalized coefficient for SD_w itself).
l1 is subadditive and |c_e| <= l1, so while the bound is below 2^(B-1)
every digit of the value is its coefficient.  A position is read only
when the sweep reaches it, after its last correction; if its bound reached
2^(B-1) by then, a ResourceError names the class, the position and the
bound's size (``laurent.bound_error``) before any digit is read.  A
nonzero value that remains is decoded once, through the guarded
``laurent.unpack``, and stored with its exact l1 norm.

Each computed element is certified, on keys and packed integers, before
it is stored: leading coefficient 1, all other coefficients in vZ[v] (low
digit zero), support inside the semi-infinite ideal of the leading term,
and the product relation P = SD_w + sum_j m_j SD_{z_j} re-verified on
complete vectors.  Both sides of that relation have every coefficient
below 2^(B-1) at every position (P's by the product's bounds, the other
side's by the sweep's), and a packed integer with balanced digits
determines its polynomial, so comparing the integers compares the
polynomials.  The module keeps each class once, as its terms by key, each
packed with its exact l1 norm and decoded.  The tables below read the
terms by key; a class read from the command line's cache is packed into
the same store by ``preload_class``.  Elements are built only where the
API returns them: ``selfdual`` and ``class_elements``.  The support
check is the order's cone test on keys, ``SemiInfiniteOrder.below``: the
sweep tests each position against the lead t(0)w when it pops it, before
the position is counted against the step bound or can seed a correction,
so a stray term stops the solve where the sweep reaches it, and every key
of the result has been tested.  Together with uniqueness of the
self-dual element these checks pin the result; a failure raises
:class:`CertificationError` and indicates a bug, never bad input.

The generic polynomials are coordinates of the positive-root geometric
series applied to SD_x:

    (prod_{a > 0} (1 + v^2 <-a> + v^4 <-2a> + ...)) SD_x = sum_y q_{y,x} B_y,
    (prod_{a > 0} (1 +     <-a> +     <-2a> + ...)) SD_x = sum_y q'_{y,x} B_y,

computed per target by exact enumeration of vector partitions (no series
truncation; the unweighted series is the number of partitions), and the
finite Koszul-type operator prod_{a>0}(1 - v^2 <-a>) inverts the first
series.  The signed inversion identity

    sum_x (-1)^{len(x)+len(y)} q_{x,y} p_{w0 x, w0 z} = delta_{y,z}

is exposed as a checkable report and exercised by the acceptance suite.

Evaluation on integer keys and translation orbits.  SD_x lies in the
coset of x (each class term t(lam) u has lam in the root lattice) and the
series and the Koszul operator shift by roots, so q, q', the Koszul sum and
the inversion sum vanish on a pair in two cosets: the per-pair entry points
return zero for one, and the tables and ``inversion_report`` walk only
same-coset pairs (``_coset_blocks``).  Otherwise q_{y,x} reads a table
built once per (x.w, y.w); it is looked up by (rel = y.trans - x.trans,
y.w, x.w), and on a miss evaluated from the table's rows, the terms
t(lam) y.w of SD_{t(0) x.w}, each with its scaled root coordinates E(lam)
= e rc(lam) (e the lattice index; rc(lam) is integral) packed into one
integer (see "Packed vectors" below).  The rows of a finite part are built
when the part is first read, so a point query encodes only its own part;
each translation is encoded once per module.  A term
contributes iff sigma = E(lam) - E(rel) >= 0, one AND on the packed
sigma, which needs sum E(lam) >= sum E(rel), so the rows are scanned by
descending sum until that fails, and q_{y,x} is zero outright when sum
E(rel) exceeds the table's largest sum E, its top.  The partition series
at sigma is memoized per module keyed by the packed sigma, and only a
miss decodes sigma into the tuple rc(sigma) of the partition recursion.
The Koszul and inversion sums memoize q per table keyed by the packed
E(rel), which is additive: a term's key is the orbit's key plus a packed
offset, one integer add, and the terms are scanned by ascending offset
sum, so each sum stops at the first term whose key sum exceeds that
largest sum: its q and every later one are zero.

The inversion and Koszul checks depend only on the orbit of a pair under
simultaneous left translation: q, p and the Koszul sum are
translation-equivariant, and (-1)^{len} is a character of the extended
group (its value on a length-zero element is +1 and conjugation by one
permutes the simple reflections), so len(t(nu) x) + len(t(nu) y) has the
parity of len(x) + len(y).  The inversion sum at (y, z) therefore depends
only on (d = z.trans - y.trans, y.w, z.w); it is evaluated at y = t(0) y.w,
z = t(d) z.w from a per-class table of the rows x0 = w0 pos, pos in SD_{w0
t(0) z.w}, with x = t(d) x0.  Here len(t(d)) = <d, 2 rho^> mod 2 is even,
and so is <w0 lam, 2 rho^> for each x0 = t(w0 lam) w0 u: both vectors lie
in the root lattice, and for mu = sum_j c_j alpha_j there, <mu, 2 rho^> =
sum_j c_j <alpha_j, 2 rho^> = 2 sum_j c_j, since <alpha_j, rho^> = 1 for
every simple root (rho^ is the sum of the fundamental coweights).  So a
row's sign is (-1)^len(x0.w) and the sum's sign (-1)^len(y.w).  The rows
come in groups by the finite part of x0, each reading one generic table,
and a group adds nothing once sum E(d) exceeds its threshold, the table's
top minus the group's least row sum; the groups are kept by descending
threshold, so each sum stops at the first group below sum E(d).  The
Koszul sum at (y, x) depends only on (y.trans - x.trans, y.w, x.w) and
still expands the operator over all subsets of the positive roots
(grouped by subset sum), so the round trip is not a tautology.

The per-pair entry points ``inversion_sum`` and ``koszul_of_series``
evaluate and decode their pair's orbit on every call.  The two reports
behind ``selfcheck`` evaluate each distinct orbit of their window once and
compare on packed integers.  ``inversion_report`` runs on the tables'
block walk: each (d, y.w, z.w) that a same-coset pair uses is evaluated
once and compared with delta.  ``koszul_report`` covers x in the
window and y in supp SD_x, which is t(x.trans) times the terms (t, u) of
class x.w: it evaluates each term of each class of the window once, at
E(t), and compares with the term's packed p.  Both decode, and build
elements, only for a deviation, which they report at every window pair of
its orbit.

Packed sums.  Every polynomial these sums touch lies in Z[v]: p is in
{1} + vZ[v], and the partition series and the Koszul factors have only
exponents >= 0.  So they run on the packed integers of :mod:`.laurent`,
f -> f(2^B) with B = ``laurent._WIDTH`` = 64, as the class solve does and
from the same stored terms: a generic value is the integer sum of p * series
over its rows, a Koszul or inversion sum the integer sum of q * factor or
q * (+-p), each term one integer multiply-add.  v -> 2^B is a ring
homomorphism Z[v] -> Z, so every packed sum and product is exact, whatever
the digit sizes.  Each value carries a bound on its l1 norm sum |c_e|,
accumulated alongside it (bound += l1(q) * l1(p)): l1 is subadditive and
submultiplicative, the l1 norm of a partition series is its number of
partitions (every coefficient is positive), and |c_e| <= l1.  A summand
whose bound is 0 is the zero polynomial and is skipped.  A generic value
is decoded once per ``_generic_entry`` call (point queries and tables),
and a Koszul or inversion sum once per call of its per-pair
entry point, through the guarded ``laurent.unpack``: the decode is exact when the bound is below
2^(B-1), and otherwise a ResourceError names the value, its key and the
bound's size before any digit that may have wrapped is read.  The reports
compare without decoding, under the same guard: a polynomial whose
coefficients all lie in [-2^(B-1), 2^(B-1)) is determined by its packed
integer, because its coefficients are the balanced base-2^B digits of
that integer and balanced digits are unique.  So once a sum's bound is
below 2^(B-1) (else the same ResourceError), it equals its expected value
exactly when the integers are equal.  The expected values are in range
too: delta is 0 or 1, and a Koszul sum's bound counts the term's own p
(the empty subset, and the row of the term itself with the empty
partition), so it is at least l1(p).

Packed vectors.  Each root-lattice vector of these sums (E(lam) of each
class term, each Koszul subset sum, each inversion-row offset E(x0.trans),
and each target E(rel) or E(d)) is one integer P(E) = sum_i E_i 2^(F i),
F = ``_FIELD`` = 32 bits per coordinate, a constant of its own (not
``laurent._WIDTH``).  P is additive for any integers, so a vector add is
one integer add, and E(lam) = sum_j lam_j E(omega_j) makes the encoding of
a translation one dot product with the packed columns of e C^{-1}.
Balanced base-2^F digits are unique, so P is injective on the vectors with
every |E_i| < 2^(F-1), whose digits are their coordinates.  Exactness:
every encoded vector is checked once, when it is encoded, to have every
|E_i| < 2^(F-2), decided on E itself (the weight coordinates bound it;
where they do not, E is computed), never on a packed value, which may have
wrapped: rc(rel) = (-2^F, 1) on A2 packs to 0.  Let R = sum_{i < rank}
2^(F i) and M = ~((2^(F-1) - 1) R), the mask of ``hecke._measured_bound``.
A vector s with every |s_i| < 2^(F-1) has every s_i >= 0 iff P(s) & M = 0
(then P(s) >= 0 has digits below 2^(F-1), so they are its balanced digits
and its coordinates), and every s_i in [-2^(F-2), 2^(F-2)) iff (P(s) +
2^(F-2) R) & M = 0 (the same test on s + 2^(F-2)).  A key of a Koszul or
inversion sum is the sum of two encoded vectors, so its coordinates lie
below 2^(F-1): the memo key is exact.  ``_generic_sum`` tests its key once
with one add and one AND; a key in [-2^(F-2), 2^(F-2)) leaves every sigma
= E(lam) - E(rel) below 2^(F-1), so each row's test is one AND, exact, and
never a per-row range check.  Beyond the field (a target that cannot be
encoded, or a key past the edge), the exact zero is kept: if some
coordinate of E(rel) exceeds that coordinate's maximum over the table's
rows, no sigma is >= 0 and q is zero (a Koszul sum reads q only at E(rel)
plus subset sums >= 0, an inversion group at E(d) plus its offsets, at
least E(d) plus their least coordinates, so the same test decides them).
Otherwise a ResourceError names the bound: some coordinate of E(rel) is at
or below -2^(F-2), and a row that contributes there needs a partition
series with a coordinate near 2^(F-2) / e, far past
``MAX_PARTITION_STATES``.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from operator import add, gt, itemgetter, mul, sub
from typing import Callable, Iterable, KeysView, Literal, Mapping, Optional, Sequence, get_args

from . import laurent
from .hecke import RightHeckeModule
from .laurent import ONE, ZERO, Combination, LaurentPoly, ResourceError, bound_error, pack, unpack
from .orders import SemiInfiniteOrder
from .rootdata import Weight
from .weyl import AffineWeyl, ExtAffineElement, element_text

__all__ = [
    "PeriodicElement",
    "PeriodicModule",
    "CertificationError",
]

# Positions one class solve may sweep before it raises ResourceError.
MAX_SWEEP_STEPS = 500_000

# Memo entries of ``_partitions`` one module may hold before it raises
# ResourceError.
MAX_PARTITION_STATES = 20_000

# Bits per coordinate of a packed root-lattice vector (module docstring,
# "Packed vectors").  Every encoded vector has its coordinates below
# 2^(_FIELD - 2) in absolute value.
_FIELD = 32

# What a refused Koszul or inversion sum names, with its orbit key.
_KOSZUL = "Koszul sum (y.trans - x.trans, y.w, x.w)"
_INVERSION = "inversion sum (z.trans - y.trans, y.w, z.w)"


class CertificationError(AssertionError):
    """Internal consistency failure in the self-dual basis computation."""


class PeriodicElement(Combination):
    """Finite linear combination of periodic basis elements B_x."""

    __slots__ = ()

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[x]})*B[{x!r}]" for x in sorted(self.terms, key=lambda x: x.key))


KindName = Literal["periodic_p", "generic_q", "generic_qprime"]
GenericKind = Literal["q", "qprime"]


# An element's intern key (translation coordinates, finite index), and one
# class term: its packed coefficient, the coefficient's exact l1 norm and the
# coefficient decoded.
Key = tuple[tuple[int, ...], int]
Term = tuple[int, int, LaurentPoly]
# A row of the generic, Koszul and inversion sums: (sum E, E packed, a packed
# polynomial, its l1 norm), E a root-lattice vector in scaled root
# coordinates; and an encoded target: (E packed, or None beyond the field,
# sum E).
Row = tuple[int, int, int, int]
Target = tuple[Optional[int], int]


class PeriodicModule(RightHeckeModule):
    """The periodic module: B_x . H_s descends exactly when xs < x in the
    semi-infinite order."""

    element = PeriodicElement

    def __init__(self, group: AffineWeyl):
        self.order = SemiInfiniteOrder(group)
        super().__init__(group, self.order.descends)
        self._classes: dict[int, dict[Key, Term]] = {}
        self._in_progress: set[int] = set()
        self._partition_memo: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
        self._series: dict[int, tuple[int, int]] = {}
        self._encoded: dict[tuple[int, ...], tuple[int, int]] = {}
        self._class_parts: dict[int, dict[int, list[tuple[tuple[int, ...], int, int]]]] = {}
        self._generic_tables: dict[tuple[int, int], tuple[dict, list, Optional[int]]] = {}
        self._inversion_rows: dict[int, dict[int, list[Row]]] = {}
        self._inversion_plans: dict[tuple[int, int], list[tuple[int, tuple[dict, dict, int], list]]] = {}
        self._down_policy = self._choose_down_moves()

    # -- basic constructions -----------------------------------------------------

    def shift(self, m: PeriodicElement, nu: Weight) -> PeriodicElement:
        """The translation operator <nu>: B_x -> B_{t(nu) x}."""
        g = self.group
        return PeriodicElement({g.translate_left(nu, x): p for x, p in m.terms.items()})

    # -- right module action ---------------------------------------------------------

    # Bound here rather than inherited, so that it is found in this class's
    # own __dict__ (the per-layer tracing of bench/tracing.py wraps it there).
    act_gen = RightHeckeModule.act_gen

    # -- self-dual basis ------------------------------------------------------------------

    def selfdual(self, x: ExtAffineElement) -> PeriodicElement:
        """The self-dual basis element with leading term B_x (certified): the
        terms of x's class, translated by x.trans."""
        self.group._check(x)
        return self._element(x.w.index, x.trans)

    def _element(self, w_index: int, nu: tuple[int, ...]) -> PeriodicElement:
        """t(nu) SD_{t(0)w} as an element, built from the class's stored terms."""
        intern = self.group._intern
        return PeriodicElement({intern(tuple(map(add, nu, t)), u): p
                                for (t, u), (_, _, p) in self._class(w_index).items()})

    def p_polynomial(self, y: ExtAffineElement, x: ExtAffineElement) -> LaurentPoly:
        """Periodic polynomial p_{y,x}: coefficient of B_y in the self-dual element at x."""
        self.group._check(y, x)
        hit = self._class(x.w.index).get((tuple(map(sub, y.trans, x.trans)), y.w.index))
        return ZERO if hit is None else hit[2]

    def _choose_down_moves(self) -> dict[int, tuple[int, tuple[int, ...], int]]:
        """For each non-identity finite class w: (generator j, shift nu, class sigma)
        with  t(0)w . s_j = t(nu) sigma  a strict semi-infinite descent, read
        from ``right_steps`` and the order's descent table.

        The assignment is grounded by breadth-first search from the identity
        class, so the chain of class dependencies is a forest rooted at the
        base case and each class's product ingredient is fully computed
        before it is needed.  (No single fixed generator preference works:
        preferring finite moves cycles in B2, preferring the affine one
        cycles in A2.)
        """
        g = self.group
        steps = g.right_steps
        candidates: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}
        for w in g.finite_elements[1:]:
            cands = [(j, *steps[j][w.index]) for j, down in enumerate(self.order._descents[w.index]) if down]
            if not cands:  # pragma: no cover
                raise AssertionError("non-translation element with no semi-infinite descent")
            candidates[w.index] = cands
        policy: dict[int, tuple[int, tuple[int, ...], int]] = {}
        grounded = {0}
        progress = True
        while progress:
            progress = False
            for idx in sorted(candidates):
                if idx in grounded:
                    continue
                for cand in candidates[idx]:
                    if cand[2] in grounded:
                        policy[idx] = cand
                        grounded.add(idx)
                        progress = True
                        break
        if len(grounded) != len(g.finite_elements):  # pragma: no cover
            raise AssertionError("no acyclic down-move assignment exists for this datum")
        return policy

    def _class(self, w_index: int) -> dict[Key, Term]:
        """The terms of the class element SD_{t(0)w} by key, from the store or
        solved into it."""
        hit = self._classes.get(w_index)
        if hit is not None:
            return hit
        if w_index in self._in_progress:
            raise CertificationError(
                "cross-class correction cycle; the down-move policy cannot handle this datum"
            )
        self._in_progress.add(w_index)
        try:
            if self.group.finite_elements[w_index].length == 0:
                # e(0) = sum_w v^{len(w)} B_{t(0)w}
                zero = (0,) * self.rd.rank
                terms = {(zero, w.index): _term(LaurentPoly({w.length: 1})) for w in self.group.finite_elements}
            else:
                terms = self._solve_class(w_index)
            self._classes[w_index] = terms
            return terms
        finally:
            self._in_progress.discard(w_index)

    def preload_class(self, w_index: int, element: PeriodicElement) -> None:
        """Enter a class element read from outside the solve (the command
        line's class cache) into the store, packed.  The caller has checked
        that its lead t(0)w has coefficient 1, every other coefficient lies
        in vZ[v] and every term lies below the lead, as in a solved class."""
        self._classes[w_index] = {x.key: _term(p) for x, p in element.terms.items()}

    def class_indices(self) -> KeysView[int]:
        """The finite index of every class the store holds, solved or preloaded."""
        return self._classes.keys()

    def class_elements(self) -> dict[int, PeriodicElement]:
        """Every class element the store holds, solved or preloaded, by finite index."""
        zero = (0,) * self.rd.rank
        return {w: self._element(w, zero) for w in self._classes}

    def _product(self, w_index: int) -> dict[Key, list[int]]:
        """P = SD_{ws} . (H_s + v) on keys, with ws = t(nu) sigma the class's down
        move: per position, [packed coefficient, a bound on its l1 norm].

        The rule of ``RightHeckeModule.act_cs``: the term c B_x of SD_{ws}
        gives c B_{xs}, and v^{-1} c B_x when s descends x, v c B_x
        otherwise.  x s comes from ``right_steps`` and the descent from the
        finite part of x.  v^{-1} c is a right shift of the packed c, exact
        only when c lies in vZ[v], so each down move first tests that the
        low digit of c is zero.
        """
        j, nu, sigma = self._down_policy[w_index]
        width = laurent._WIDTH
        mask = (1 << width) - 1
        steps = self.group.right_steps[j]
        down = [row[j] for row in self.order._descents]
        moved = any(nu)
        acc: dict[Key, list[int]] = {}
        get = acc.get
        for (t, u), (c, lc, _) in self._class(sigma).items():
            if moved:
                t = tuple(map(add, t, nu))
            offset, us = steps[u]
            xs = (tuple(map(add, t, offset)) if j == 0 else t, us)
            entry = get(xs)
            if entry is None:
                acc[xs] = [c, lc]
            else:
                entry[0] += c
                entry[1] += lc
            if down[u]:
                if c & mask:
                    fins = self.group.finite_elements
                    raise CertificationError(
                        f"coefficient at {element_text(t, fins[u])} of class "
                        f"{element_text((0,) * self.rd.rank, fins[w_index])} outside Z[v]")
                c >>= width
            else:
                c <<= width
            x = (t, u)
            entry = get(x)
            if entry is None:
                acc[x] = [c, lc]
            else:
                entry[0] += c
                entry[1] += lc
        return acc

    def _solve_class(self, w_index: int) -> dict[Key, Term]:
        """The terms of SD_{t(0)w} by key, certified (module docstring)."""
        width = laurent._WIDTH
        half = 1 << (width - 1)
        mask = (1 << width) - 1
        lead = ((0,) * self.rd.rank, w_index)
        name = element_text(lead[0], self.group.finite_elements[w_index])
        what = f"self-dual class {name} (trans, w)"
        acc = self._product(w_index)
        product = {pos: entry[0] for pos, entry in acc.items()}
        hbase, hrow = self.order.height_form

        # Top-down sweep in height.  acc holds, at each queued position, the
        # product's coefficient minus every correction (z, m) registered so
        # far, m the integer constant term at z, with an l1 bound of it; fin
        # the finalized terms of the element under construction; and selfs
        # the corrections by SD_w itself, which reach each position of fin
        # as it is finalized (module docstring).
        fin: dict[Key, Term] = {}
        corrections: list[tuple[Key, int]] = []
        selfs: list[tuple[Key, int]] = []
        # The queued positions by height, with a heap of the heights queued.
        buckets: dict[int, list[Key]] = {}
        for t, u in acc:
            buckets.setdefault(hbase[u] + sum(map(mul, hrow, t)), []).append((t, u))
        heights = [-h for h in buckets]
        heapq.heapify(heights)
        get = acc.get

        def subtract(z: Key, m: int, terms) -> None:
            # m c at t(z.trans) src for each term (src, c), bar z itself (val - m)
            zt = z[0]
            moved = any(zt)
            dz = sum(map(mul, hrow, zt))
            am = abs(m)
            for src, (c, lc, _) in terms:
                at = (tuple(map(add, zt, src[0])), src[1]) if moved else src
                entry = get(at)
                if entry is not None:
                    entry[0] -= m * c
                    entry[1] += am * lc
                elif at != z:
                    acc[at] = [-m * c, am * lc]
                    h = hbase[at[1]] + sum(map(mul, hrow, src[0])) + dz
                    bucket = buckets.get(h)
                    if bucket is None:
                        buckets[h] = [at]
                        heapq.heappush(heights, -h)
                    else:
                        bucket.append(at)

        below = self.order.below
        steps = 0
        while heights:
            for pos in buckets.pop(-heapq.heappop(heights)):
                if not below(pos[0], pos[1], w_index):
                    raise CertificationError("support escapes the semi-infinite ideal of the lead")
                if steps >= MAX_SWEEP_STEPS:
                    raise ResourceError(
                        f"self-dual basis sweep of class {name} exceeded "
                        f"MAX_SWEEP_STEPS={MAX_SWEEP_STEPS} with {len(acc)} positions queued"
                    )
                steps += 1
                val, bound = acc.pop(pos)
                if bound >= half:  # a digit may have wrapped: read none
                    raise bound_error(bound, what, pos)
                if pos == lead:
                    if val != 1:
                        raise CertificationError("leading coefficient is not 1")
                    fin[pos] = (1, 1, ONE)
                    continue
                m = val & mask  # the low digit, made balanced below
                if m:
                    if m >= half:
                        m -= mask + 1
                    corrections.append((pos, m))
                    val -= m
                    if pos[1] == w_index:
                        selfs.append((pos, m))
                        subtract(pos, m, fin.items())
                    else:
                        subtract(pos, m, self._class(pos[1]).items())
                if not val:
                    continue
                poly = unpack(val, bound, what, pos)
                term = fin[pos] = (val, sum(map(abs, poly.coeffs.values())), poly)
                for z, m in selfs:
                    subtract(z, m, ((pos, term),))

        self._certify(w_index, fin, product, corrections)
        return fin

    def _certify(self, w_index: int, result: Mapping[Key, Term], product: Mapping[Key, int],
                 corrections: Sequence[tuple[Key, int]]) -> None:
        mask = (1 << laurent._WIDTH) - 1
        lead = ((0,) * self.rd.rank, w_index)
        if result.get(lead, (0,))[0] != 1:
            raise CertificationError("certification: leading coefficient")
        if any(term[0] & mask for pos, term in result.items() if pos != lead):
            raise CertificationError("certification: coefficient not in vZ[v]")
        # product relation on complete vectors
        acc = {pos: term[0] for pos, term in result.items()}
        get = acc.get
        for (zt, cls), m in corrections:
            moved = any(zt)
            for src, term in (result if cls == w_index else self._classes[cls]).items():
                at = (tuple(map(add, zt, src[0])), src[1]) if moved else src
                acc[at] = get(at, 0) + m * term[0]
        if {x: p for x, p in acc.items() if p} != {x: p for x, p in product.items() if p}:
            raise CertificationError("certification: product relation fails on complete vectors")

    # -- generic polynomials and the Koszul-type inverse -------------------------------------

    def _partitions(self, idx: int, rem: tuple[int, ...]) -> tuple[int, int]:
        """The partition series of ``rem`` over the positive roots from ``idx`` on, in
        root coordinates: sum over (k_a) with sum k_a a = rem of v^{2 sum k_a},
        packed, with the number of partitions, which is its l1 norm (every
        coefficient is positive) and the unweighted series of q'.  Memoized on
        (idx, rem); a module holds at most ``MAX_PARTITION_STATES`` of them."""
        key = (idx, rem)
        memo = self._partition_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) >= MAX_PARTITION_STATES:
            raise ResourceError(
                f"partition series at {key} exceeded MAX_PARTITION_STATES={MAX_PARTITION_STATES} "
                "memoized states of this module"
            )
        roots = self._roots_rc
        if not any(rem):
            hit = (1, 1)
        elif idx == len(roots):
            hit = (0, 0)
        else:
            rc = roots[idx]
            step = 2 * laurent._WIDTH
            series = count = 0
            for k in range(min(r // c for r, c in zip(rem, rc) if c > 0) + 1):
                tail, n = self._partitions(idx + 1, tuple(r - k * c for r, c in zip(rem, rc)))
                if n:
                    series += tail << (k * step)
                    count += n
            hit = (series, count)
        memo[key] = hit
        return hit

    @cached_property
    def _roots_rc(self) -> list[tuple[int, ...]]:
        """The positive roots in root coordinates (all nonnegative)."""
        rd = self.rd
        e = rd.lattice_index_e
        return [tuple(c // e for c in rd.scaled_root_coordinates(b)) for b in rd.positive_roots]

    @cached_property
    def _vector_masks(self) -> tuple[int, int]:
        """(M, 2^(F-2) R), R = sum_{i < rank} 2^(F i): for a packed vector whose
        coordinates lie below 2^(F-1) in absolute value, P(s) & M = 0 iff every
        s_i >= 0, and (P(a) + 2^(F-2) R) & M = 0 iff every a_i lies in
        [-2^(F-2), 2^(F-2)) (module docstring).  M has every bit set but the
        low F - 1 of each field: the mask of ``hecke._measured_bound`` at
        k = F - 1."""
        ones = _pack_vector((1,) * self.rd.rank)
        return ~(((1 << (_FIELD - 1)) - 1) * ones), ones << (_FIELD - 2)

    @cached_property
    def _encoder(self) -> tuple[list[int], list[int], int]:
        """The columns E(omega_j) of e C^{-1}, packed, their coordinate sums, and
        the largest max |lam_j| at which every |E_i(lam)| is surely below
        2^(F-2)."""
        scaled = self.rd.scaled_inverse_cartan
        columns = list(zip(*scaled))
        spread = max(sum(map(abs, row)) for row in scaled)
        return [_pack_vector(col) for col in columns], [sum(col) for col in columns], ((1 << (_FIELD - 2)) - 1) // spread

    def _encode(self, trans: Sequence[int]) -> Target:
        """(P(E(trans)), sum E(trans)) of a translation in the root lattice, one
        dot product each; P(E) is None when some |E_i| reaches 2^(F-2), which
        is decided on E itself, never on a packed value that may have wrapped."""
        packed, sums, plain = self._encoder
        total = sum(map(mul, sums, trans))
        if max(map(abs, trans)) > plain and max(map(abs, self.rd.scaled_root_coordinates(trans))) >> (_FIELD - 2):
            return None, total
        return sum(map(mul, packed, trans)), total

    def _encode_term(self, trans: tuple[int, ...]) -> tuple[int, int]:
        """``_encode`` of a translation read from a class or the root datum,
        into the memo ``_encoded`` that the class rows and ``koszul_report``
        read first; a coordinate beyond the field raises ResourceError."""
        packed, total = self._encode(trans)
        if packed is None:
            raise _field_error("root-lattice vector of the generic sums", trans)
        hit = self._encoded[trans] = (packed, total)
        return hit

    def generic_polynomial(self, y: ExtAffineElement, x: ExtAffineElement,
                           kind: GenericKind = "q") -> LaurentPoly:
        """q_{y,x} (weighted) or q'_{y,x} (unweighted), exactly.

        Coefficient of B_y in the positive-root geometric series applied to
        the self-dual element at x; only finitely many vector partitions
        contribute, enumerated exactly: zero for y and x in two cosets, and
        by translation equivariance keyed by their relative position.  Any
        ``kind`` but "q" or "qprime" raises ValueError.
        """
        if kind != "q" and kind != "qprime":
            raise ValueError(f"unknown generic polynomial kind {kind!r}; expected one of "
                             f"{', '.join(get_args(GenericKind))}")
        self.group._check(y, x)
        if y.omega_component != x.omega_component:
            return ZERO
        rel = tuple(map(sub, y.trans, x.trans))
        return self._generic_entry(rel, y.w.index, x.w.index, kind == "q", self._encode(rel))

    def _generic_entry(self, rel: tuple[int, ...], u: int, c: int, weighted: bool,
                       target: Target) -> LaurentPoly:
        """q (``weighted``) or q' at y = t(rel) u, x = t(0) c, given ``target``,
        E(rel) encoded: the one evaluator of point queries and tables.  Zero
        outright when the table of (u, c) has no term or sum E(rel) exceeds
        its top, or when E(rel) lies beyond the field and
        ``_check_beyond_field`` finds it zero; otherwise evaluated and
        decoded.  A table asks once per (rel, u, c), and so does a query."""
        _, rows, top = self._generic_table(u, c)
        if top is None or target[1] > top:
            return ZERO
        what = ("generic q (y.trans - x.trans, y.w, x.w)" if weighted else
                "generic qprime (y.trans - x.trans, y.w, x.w)")
        if target[0] is None:
            self._check_beyond_field(rows, self.rd.scaled_root_coordinates(rel), what, (rel, u, c))
            return ZERO
        return unpack(*self._generic_sum(*target, rows, weighted), what, (rel, u, c))

    def _generic_table(self, u: int, c: int) -> tuple[dict, list[Row], Optional[int]]:
        """(memo, rows, top) of the generic polynomials at y = t(rel) u, x = t(0) c.

        ``rows`` are the terms t(lam) u of SD_{t(0)c} (``_part_rows``), and
        ``top`` the largest sum E(lam) over them, or None if there is none:
        a term contributes at rel only if E(lam) - E(rel) >= 0, so q and q'
        are zero unless sum E(rel) <= top.  ``memo`` maps P(E(rel)) (additive,
        so callers add packed offsets) to q packed, with a bound on its l1
        norm, filled by ``_generic_sum`` for the Koszul and inversion sums.
        """
        key = (u, c)
        hit = self._generic_tables.get(key)
        if hit is None:
            rows = self._part_rows(u, c)
            hit = self._generic_tables[key] = ({}, rows, rows[0][0] if rows else None)
        return hit

    def _part_rows(self, u: int, c: int) -> list[Row]:
        """The terms t(lam) u of SD_{t(0)c} as rows (sum E(lam), P(E(lam)),
        packed coefficient, its l1 norm) by descending sum E(lam).

        Built on the first read of the finite part u, so a point query
        encodes only the part it reads: the class is split by finite part
        once (``_class_parts``, nothing encoded), and each translation is
        encoded once per module through the memo ``_encoded``.  The split is
        stored only once whole, so a class solve that refuses leaves none
        behind, and a translation beyond the field raises before the part
        keeps a row."""
        parts = self._class_parts.get(c)
        if parts is None:
            parts = {}
            for (t, v), (p, lp, _) in self._class(c).items():
                part = parts.get(v)
                if part is None:
                    part = parts[v] = []
                part.append((t, p, lp))
            self._class_parts[c] = parts
        encoded, encode = self._encoded.get, self._encode_term
        rows = []
        for t, p, lp in parts.get(u, ()):
            key = encoded(t) or encode(t)
            rows.append((key[1], key[0], p, lp))
        rows.sort(key=itemgetter(0), reverse=True)
        return rows

    def _generic_sum(self, at: int, need: int, rows: list[Row], weighted: bool) -> tuple[int, int]:
        """The generic polynomial at P(E(rel)) = ``at``, sum E(rel) = ``need``,
        over ``rows``, packed, with a bound on its l1 norm.

        A row contributes iff sigma = E(lam) - E(rel) >= 0, which needs sum
        E(lam) >= need, so the rows are scanned by descending sum until that
        fails.  Once one add and one AND have placed E(rel) in [-2^(F-2),
        2^(F-2)), each sigma lies below 2^(F-1) and its test is one AND.  A
        key beyond that (a target near the field's edge plus an offset) is
        decoded and left to ``_check_beyond_field``.
        """
        mask, offset = self._vector_masks
        if (at + offset) & mask:
            scaled = _unpack_vector(at, self.rd.rank)
            self._check_beyond_field(rows, scaled, "generic q", f"E(y.trans - x.trans) = {scaled}")
            return 0, 0
        get = self._series.get
        total = bound = 0
        for row_sum, row, p, lp in rows:
            if row_sum < need:
                break  # every later row has a sigma with a negative sum
            sigma = row - at
            if sigma & mask:
                continue  # a coordinate of sigma is negative
            series, n = get(sigma) or self._series_at(sigma)
            if n:
                total += p * (series if weighted else n)
                bound += lp * n
        return total, bound

    def _series_at(self, sigma: int) -> tuple[int, int]:
        """The partition series at the packed sigma >= 0, into the series memo:
        its digits are E(sigma), divided by e into the tuple state
        rc(sigma) of ``_partitions``."""
        rd, field = self.rd, _FIELD
        e, digit = rd.lattice_index_e, (1 << field) - 1
        hit = self._series[sigma] = self._partitions(
            0, tuple((sigma >> (field * i) & digit) // e for i in range(rd.rank)))
        return hit

    def _check_beyond_field(self, rows: list[Row], scaled: Sequence[int], what: str, key: object) -> None:
        """Return if the generic polynomial over ``rows`` is zero at E(rel) =
        ``scaled``, which lies beyond the field: some coordinate exceeds that
        coordinate's maximum over the rows, so no sigma = E(lam) - E(rel) is
        >= 0.  Otherwise raise ``_field_error``."""
        rank = self.rd.rank
        tops = map(max, zip(*(_unpack_vector(row[1], rank) for row in rows)))
        if not any(map(gt, scaled, tops)):
            raise _field_error(what, key)

    @cached_property
    def _koszul_packed(self) -> list[Row]:
        """prod_{a > 0} (1 - v^2 <-a>) expanded over the subsets S of the positive
        roots, one factor at a time: per subset sum sigma, the sum of the
        monomials (-1)^|S| v^{2|S|}, as a row (sum E(sigma), P(E(sigma)), that
        polynomial packed, its l1 norm), by ascending sum E(sigma).  The
        subsets of one size share a sign, so no two monomials cancel and the
        l1 norm is the number of subsets.  Built on first use, so that
        constructing a module stays cheap."""
        step = 2 * laurent._WIDTH
        koszul: dict[tuple[int, ...], tuple[int, int]] = {(0,) * self.rd.rank: (1, 1)}
        for b in self.rd.positive_roots:
            for at, (f, n) in list(koszul.items()):
                with_b = tuple(map(add, at, b))
                g, k = koszul.get(with_b, (0, 0))
                koszul[with_b] = (g - (f << step), k + n)
        rows = []
        for at, (f, n) in koszul.items():
            packed, total = self._encode_term(at)
            rows.append((total, packed, f, n))
        rows.sort(key=lambda row: row[0])
        return rows

    def koszul_of_series(self, y: ExtAffineElement, x: ExtAffineElement) -> LaurentPoly:
        """Coefficient at y of the Koszul operator applied to the full (untruncated)
        geometric-series expansion of the self-dual element at x.

        Evaluating positionwise keeps everything exact: the operator pulls the
        series coefficient at t(sigma) y for each subset sum sigma.  By the
        inverse relation between the two operators this equals p_{y,x}: zero
        for y and x in two cosets, and otherwise evaluated at its orbit
        (y.trans - x.trans, y.w, x.w).  At an E(rel) beyond the field every q
        it reads is at some E(rel) + E(S) >= E(rel), S a subset sum, so
        ``_check_beyond_field`` at E(rel) decides it.
        """
        self.group._check(y, x)
        if y.omega_component != x.omega_component:
            return ZERO
        rel = tuple(map(sub, y.trans, x.trans))
        key = (rel, y.w.index, x.w.index)
        target = self._encode(rel)
        if target[0] is None:
            _, rows, top = self._generic_table(key[1], key[2])
            if top is not None and target[1] <= top:
                self._check_beyond_field(rows, self.rd.scaled_root_coordinates(rel), _KOSZUL, key)
            return ZERO
        return unpack(*self._koszul_sum(key[1], key[2], target), _KOSZUL, key)

    def _koszul_sum(self, u: int, c: int, target: Target) -> tuple[int, int]:
        """The Koszul sum at y = t(rel) u, x = t(0) c with E(rel) encoded in
        ``target``, packed, with a bound on its l1 norm."""
        return self._q_sum(self._generic_table(u, c), target, self._koszul_packed)

    def koszul_report(self, window: Sequence[ExtAffineElement]) -> list[tuple[ExtAffineElement, ExtAffineElement, LaurentPoly]]:
        """Every deviation (y, x, K - p_{y,x}) of the Koszul round trip, K =
        ``koszul_of_series(y, x)``, over x in the window and y in supp SD_x.

        supp SD_x is t(x.trans) times the terms (t, u) of class x.w, and K
        at y = t(x.trans + t) u depends only on (t, u, x.w), so each term of
        each class of the window is evaluated once and compared, packed,
        with its stored p (module docstring); a deviating term is reported
        at every x of its class in the window.
        """
        g = self.group
        g._check(*window)
        by_class: dict[int, list[ExtAffineElement]] = {}
        for x in window:
            by_class.setdefault(x.w.index, []).append(x)
        half = 1 << (laurent._WIDTH - 1)
        encoded, encode = self._encoded.get, self._encode_term
        bad = []
        for c, xs in by_class.items():
            for (t, u), (p, _, poly) in self._class(c).items():
                total, bound = self._koszul_sum(u, c, encoded(t) or encode(t))
                if bound >= half:
                    raise bound_error(bound, _KOSZUL, (t, u, c))
                if total != p:
                    diff = unpack(total, bound, _KOSZUL, (t, u, c)) - poly
                    bad += [(g._intern(tuple(map(add, x.trans, t)), u), x, diff) for x in xs]
        return bad

    def _q_sum(self, table: tuple[dict, list[Row], Optional[int]], target: Target,
               terms: Iterable[Row]) -> tuple[int, int]:
        """sum of q * f over the rows (reach, offset, f, l1 norm of f), packed,
        with a bound on its l1 norm.  q is the weighted generic polynomial of
        ``table`` = (memo, rows, top) at P(E(rel)) = target + offset, one
        integer add, read from the memo or filled by ``_generic_sum``.  The
        terms come by ascending reach (the sum of the offset), so the sum
        stops at the first whose reach exceeds top - sum(target): its q and
        every later one are zero.  The target is in the field."""
        memo, rows, top = table
        total = bound = 0
        if top is None:
            return total, bound
        key, need = target
        limit = top - need
        for reach, offset, f, lf in terms:
            if reach > limit:
                break
            at = key + offset
            q = memo.get(at)
            if q is None:
                q = memo[at] = self._generic_sum(at, need + reach, rows, True)
            if q[1]:
                total += q[0] * f
                bound += q[1] * lf
        return total, bound

    # -- inversion identity -----------------------------------------------------------------

    def inversion_sum(self, y: ExtAffineElement, z: ExtAffineElement) -> LaurentPoly:
        """sum_x (-1)^{len(x)+len(y)} q_{x,y} p_{w0 x, w0 z}; equals delta_{y,z}.

        Zero for y and z in two cosets; otherwise evaluated at the orbit's
        representative y = t(0) y.w, z = t(d) z.w, d = z.trans - y.trans.
        """
        self.group._check(y, z)
        if y.omega_component != z.omega_component:
            return ZERO
        d = tuple(map(sub, z.trans, y.trans))
        return unpack(*self._inversion_packed(d, self._encode(d), y.w.index, z.w.index),
                      _INVERSION, (d, y.w.index, z.w.index))

    def _inversion_packed(self, d: tuple[int, ...], target: Target, yw: int, zw: int) -> tuple[int, int]:
        """The inversion sum at y = t(0) yw, z = t(d) zw with E(d) encoded in
        ``target``, packed, with a bound on its l1 norm.  At an E(d) beyond the
        field, a group's q are read at E(d) + E(x0.trans), each at or above
        E(d) plus the group's least offsets, where ``_check_beyond_field``
        decides them."""
        key, need = target
        total = bound = 0
        for threshold, table, group in self._inversion_plan(yw, zw):
            if threshold < need:
                break  # this group's q are all zero, and so are every later group's
            if key is None:
                rank = self.rd.rank
                lows = map(min, zip(*(_unpack_vector(row[1], rank) for row in group)))
                self._check_beyond_field(table[1], tuple(map(add, self.rd.scaled_root_coordinates(d), lows)),
                                         _INVERSION, (d, yw, zw))
                continue
            part, part_bound = self._q_sum(table, target, group)
            total += part
            bound += part_bound
        # x = t(d) x0 and length parity is a character, so len(x) = len(t(d)) +
        # len(x0) mod 2, where len(t(d)) = <d, 2 rho^> mod 2 is even (module
        # docstring); the rows carry (-1)^len(x0)
        if self.group.finite_elements[yw].length % 2:
            total = -total
        return total, bound

    def _inversion_plan(self, yw: int, zw: int) -> list[tuple[int, tuple[dict, list[Row], int], list[Row]]]:
        """The groups of inversion rows of zw (``_build_inversion_rows``), each
        with the generic table (u, yw) it reads and its threshold, the
        table's top minus the group's least reach, by descending threshold.
        ``_q_sum`` stops a group before its first row when sum E(d) exceeds
        that threshold, so at such d the group and every later one add
        nothing.  A group whose table has no term reads only zeros and is
        left out."""
        plan = self._inversion_plans.get((yw, zw))
        if plan is None:
            groups = self._inversion_rows.get(zw)
            if groups is None:
                groups = self._inversion_rows[zw] = self._build_inversion_rows(zw)
            plan = []
            for u, group in groups.items():
                table = self._generic_table(u, yw)
                if table[2] is not None:
                    plan.append((table[2] - group[0][0], table, group))
            plan.sort(key=lambda entry: -entry[0])
            self._inversion_plans[(yw, zw)] = plan
        return plan

    def _build_inversion_rows(self, zw: int) -> dict[int, list[Row]]:
        """The rows x0 = w0 pos over pos in SD_{w0 t(0) zw}, grouped by the finite
        index of x0, as (sum E(x0.trans), P(E(x0.trans)), (-1)^len(x0) p
        packed, l1 norm of p), by ascending sum E(x0.trans)."""
        g = self.group
        w0, fins = g.w0, g.finite_elements
        w0_mul = g._fin_mul[w0.index]
        groups: dict[int, list[Row]] = {}
        encoded: dict[tuple[int, ...], tuple[int, int]] = {}  # E(w0 lam) by lam
        # SD_{w0 t(0) zw} is the class of w0 zw; its term at pos = t(lam) u
        # gives x0 = t(w0 lam) (w0 u), whose length has the parity of
        # len(w0 u), as <w0 lam, 2 rho^> is even (w0 lam lies in the root lattice)
        for (lam, u), (p, lp, _) in self._class(w0_mul[zw]).items():
            key = encoded.get(lam)
            if key is None:
                key = encoded[lam] = self._encode_term(w0.apply(lam))
            x0w = w0_mul[u]
            groups.setdefault(x0w, []).append((key[1], key[0], -p if fins[x0w].length % 2 else p, lp))
        for group in groups.values():
            group.sort(key=lambda row: row[0])
        return groups

    def inversion_report(self, window: Sequence[ExtAffineElement]) -> list[tuple[ExtAffineElement, ExtAffineElement, LaurentPoly]]:
        """Every deviation (y, z, S - delta_{y,z}) of the inversion identity, S =
        ``inversion_sum(y, z)``, over the same-coset pairs of the window.

        Evaluated by ``_coset_blocks``, as the tables are: each (z.trans -
        y.trans, y.w, z.w) that a pair uses once, compared with delta packed
        (module docstring), and a deviation reported at every pair with it.
        """
        self.group._check(*window)
        half = 1 << (laurent._WIDTH - 1)

        def deviation(d: tuple[int, ...], target: Target, zw: int, yw: int) -> LaurentPoly:
            total, bound = self._inversion_packed(d, target, yw, zw)
            if bound >= half:
                raise bound_error(bound, _INVERSION, (d, yw, zw))
            delta = 0 if any(d) or yw != zw else 1
            return ZERO if total == delta else (
                unpack(total, bound, _INVERSION, (d, yw, zw)) - (ONE if delta else ZERO))

        return [(y, z, diff) for (z, y), diff in self._coset_blocks(window, window, deviation).items()]

    # -- tables -------------------------------------------------------------------------------

    def polynomial_table(self, kind: KindName, window: Sequence[ExtAffineElement]
                         ) -> dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly]:
        """The nonzero entries {(y, x): polynomial} of one kind over the
        window; any other ``kind`` raises ValueError.

        p is read from each x's class by key.  q and q' vanish on a pair in
        two cosets (module docstring), so ``_coset_blocks`` evaluates them
        over the window's same-coset pairs only.  This is exact by
        translation invariance: t(nu) commutes with the right action and
        fixes every e(lam), so SD_{t(nu) x} is the nu-shift of SD_x, and the
        series operators commute with the shift; hence q_{y,x} and q'_{y,x}
        depend only on (y.trans - x.trans, y.w, x.w), the arguments of the
        point queries' evaluator ``_generic_entry``, which the blocks call
        once per such triple.  The window may be any set of elements (a
        ragged one holds only part of some translation fibers): a table
        evaluates no (difference, u, c) that the point queries of its pairs
        would not.
        """
        if kind not in get_args(KindName):
            raise ValueError(f"unknown table kind {kind!r}; expected one of {', '.join(get_args(KindName))}")
        win = tuple(window)
        self.group._check(*win)
        return self._table_entries(kind, win, win)

    def _table_entries(self, kind: KindName, ys: Sequence[ExtAffineElement],
                       xs: Sequence[ExtAffineElement]) -> dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly]:
        """The nonzero entries (y, x) of one kind over y in ``ys`` and x in ``xs``
        (see ``polynomial_table``)."""
        if kind == "periodic_p":
            # the terms t(x.trans) src of SD_x, read by key from x's class
            entries: dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly] = {}
            by_key = {y.key: y for y in ys}
            for x in xs:
                for (t, u), (_, _, p) in self._class(x.w.index).items():
                    y = by_key.get((tuple(map(add, x.trans, t)), u))
                    if y is not None:
                        entries[(y, x)] = p
            return entries
        weighted = kind == "generic_q"
        entry = self._generic_entry
        return self._coset_blocks(ys, xs, lambda rel, target, u, c: entry(rel, u, c, weighted, target))

    def _coset_blocks(self, ys: Sequence[ExtAffineElement], xs: Sequence[ExtAffineElement],
                      evaluate: Callable[[tuple[int, ...], Target, int, int], LaurentPoly]
                      ) -> dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly]:
        """The nonzero values evaluate(d, target, y.w, x.w), d = y.trans -
        x.trans and target its encoded E(d), over the same-coset pairs (y, x)
        of ``ys`` and ``xs``: the translation fibers of the two are paired
        once per pair in one coset (the coset reads only the translation),
        the pairs grouped by d, each d encoded once, and each (d, y.w, x.w)
        that a pair uses evaluated once."""
        y_fibers: dict[tuple[int, ...], list[ExtAffineElement]] = {}
        x_fibers: dict[tuple[int, ...], list[ExtAffineElement]] = {}
        for fibers, elements in ((y_fibers, ys), (x_fibers, xs)):
            for z in elements:
                fibers.setdefault(z.trans, []).append(z)
        x_cosets: dict[tuple[int, ...], list[list[ExtAffineElement]]] = {}
        for x_fiber in x_fibers.values():
            x_cosets.setdefault(x_fiber[0].omega_component, []).append(x_fiber)
        by_d: dict[tuple[int, ...], list[tuple[list, list]]] = {}
        for ty, y_fiber in y_fibers.items():
            for x_fiber in x_cosets.get(y_fiber[0].omega_component, ()):
                by_d.setdefault(tuple(map(sub, ty, x_fiber[0].trans)), []).append((y_fiber, x_fiber))
        values: dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly] = {}
        for d, pairs in by_d.items():
            target = self._encode(d)
            block: dict[int, dict[int, LaurentPoly]] = {}  # y.w -> x.w -> value
            for y_fiber, x_fiber in pairs:
                for y in y_fiber:
                    u = y.w.index
                    row = block.get(u)
                    if row is None:
                        row = block[u] = {}
                    for x in x_fiber:
                        c = x.w.index
                        value = row.get(c)
                        if value is None:
                            value = row[c] = evaluate(d, target, u, c)
                        if value.coeffs:
                            values[(y, x)] = value
        return values


def _term(p: LaurentPoly) -> Term:
    """A coefficient in Z[v] as a class term: packed, its l1 norm, itself."""
    return pack(p), sum(map(abs, p.coeffs.values())), p


def _pack_vector(v: Iterable[int]) -> int:
    """P(v) = sum v_i 2^(F i), F = ``_FIELD``: additive for any integers, and
    decoded by ``_unpack_vector`` while every |v_i| < 2^(F-1)."""
    field = _FIELD
    return sum(c << (field * i) for i, c in enumerate(v))


def _unpack_vector(packed: int, rank: int) -> tuple[int, ...]:
    """The v with P(v) = ``packed``, given every |v_i| < 2^(F-1): its
    balanced base-2^F digits, as ``laurent.unpack`` reads them."""
    field = _FIELD
    half, digit = 1 << (field - 1), (1 << field) - 1
    out = []
    for _ in range(rank):
        c = ((packed + half) & digit) - half
        out.append(c)
        packed = (packed - c) >> field
    return tuple(out)


def _field_error(what: str, key: object) -> ResourceError:
    """The refusal of ``what`` at ``key``, some scaled root coordinate of
    whose vector reaches the bound 2^(_FIELD - 2) of a packed vector."""
    return ResourceError(f"{what} at {key}: a scaled root coordinate reaches the packed vector bound "
                         f"2^{_FIELD - 2} (periodic._FIELD = {_FIELD} bits)")
