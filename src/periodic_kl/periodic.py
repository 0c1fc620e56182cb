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
ws < w in the semi-infinite order (preferring s_0, which keeps the chain of
class dependencies acyclic for the supported types; this is asserted at
construction).  Then

    P := SD_{ws} . (H_s + v)        (``act_cs``)

is self-dual with leading term B_w, and SD_w = P - sum_j m_j SD_{z_j} for
the unique bar-symmetric corrections m_j that leave all off-leading
coefficients in vZ[v].  Each m_j is an integer, the constant term of the
coefficient it corrects.  Write SD_{ws} = B_{ws} + sum_{y < ws} p_y B_y with
p_y in vZ[v]; the action gives B_x (H_s + v) = B_{xs} + v^{-1} B_x when s
descends x and B_{xs} + v B_x otherwise.  The lead ws does not descend at
s (ws s = w lies above it), so its 1 goes to w and, times v, to ws; every
other p_y goes to ys unchanged and to y times v or v^{-1}, which keeps it
in Z[v].  So P lies in the sum of the Z[v] B_x, and subtracting integer
multiples of vectors there keeps every later value there.  The
bar-symmetric m with c - m in vZ[v] of a c in Z[v] is its constant term.
The sweep therefore reads m off each swept value, and a negative exponent
(which this proof excludes) raises CertificationError.  The corrections
are found by one top-down sweep of the support in the height function
h(z) = <z dot_l 0, 2 rho^> (every strict semi-infinite relation strictly
drops h), keeping one running coefficient per queued position: P's
coefficient minus every correction so far.  At an offending position z the
correction m SD_z = m t(z.trans) SD_u is subtracted, m c at t(z.trans) src
for each term c B_src of SD_u: in full when registered if u != w; if u = w
(SD_w corrects itself), for the terms finalized so far and then for each as
it is finalized.  Each target but z (the lead's image; val - m normalizes
z) lies strictly below z in height, as h(t(nu) x) = h(x) + l <nu, 2 rho^>:
for u != w, SD_u's support lies below its lead; for u = w, h(t(z.trans) p)
= h(p) - (h(t(0)w) - h(z)) < h(z) for p != t(0)w.  So no target is swept
before the correction reaches it, and each value read is final: the
dependency of whole elements is cyclic through translation, but
positionwise it is triangular.

Each computed element is certified before it is cached: leading
coefficient 1, all other coefficients in vZ[v], support inside the
semi-infinite ideal of the leading term, and the product relation
P = SD_w + sum_j m_j SD_{z_j} re-verified on complete vectors.  The support
check needs no order search.  Two facts carry it.  The order is invariant
under left translation, and x <= y iff t(mu)x <= t(mu)y in the Bruhat order
for deep dominant mu; right multiplication by s commutes with t(mu), so
the order inherits Deodhar's lifting property (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Prop. 2.2.7): if ws < w and x <= ws, then
x <= w and xs <= w.  Before the sweep, once per class, ws < w is the local
descent test and ws = t(nu) sigma is the lead of SD_{ws}, whose support
lies below it (class sigma is certified; translation invariance); and
every term of P must lie in supp(SD_{ws}) or in supp(SD_{ws}) s, hence
below w by lifting.  These checks read no other position, so a stray term
stops the solve before it can seed a sweep.  The sweep records one witness
per position when it is first queued, and after the sweep the witnesses of
the remaining positions are checked in sweep order, i.e. by induction in
decreasing height.  A position pushed by the correction at z is
t(z.trans) src with z already checked and src in the support of the
certified class z.w (or, for a correction by SD_w itself, already
checked), hence below z and so below w.  Each witness costs a few
lookups.  The checked set serves the support check of the final
certification.  Together with uniqueness of the self-dual element these
checks pin the result; a failure raises :class:`CertificationError` and
indicates a bug, never bad input.

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

Evaluation on integer keys and translation orbits.  A generic polynomial
q_{y,x} is looked up by (y.trans - x.trans, y.w, x.w) in translation
coordinates.  On a miss it reads a table built once per (x.w, y.w): the
terms t(lam) y.w of SD_{t(0) x.w} as E = e * rc(lam) (integer, e the
lattice index), grouped by E mod e; a term contributes iff E - E(y.trans -
x.trans) is nonnegative and divisible by e, and the residue grouping
settles the divisibility.  Nonnegativity needs sum E >= sum E(y.trans -
x.trans), so each residue group is scanned by descending sum E until that
fails, and q_{y,x} is zero outright when sum E(y.trans - x.trans) exceeds
the table's largest sum E.  The Koszul and inversion sums memoize q per
table keyed by E(y.trans - x.trans), which is additive: a term's key is
the orbit's E plus a precomputed offset, and the terms are scanned by
ascending offset sum, so each sum stops at the first term whose key sum
exceeds that largest sum: its q and every later one are zero.

The inversion and Koszul checks are evaluated once per orbit of
simultaneous left translation and memoized: q, p and the Koszul sum are
translation-equivariant, and (-1)^{len} is a character of
the extended group (its value on a length-zero element is +1 and
conjugation by one permutes the simple reflections), so len(t(nu) x) +
len(t(nu) y) has the parity of len(x) + len(y).  The inversion sum at (y,
z) therefore depends only on (z.trans - y.trans, y.w, z.w); it is
evaluated at y = t(0) y.w, z = t(d) z.w from a per-class table of the rows
x0 = w0 pos, pos in SD_{w0 t(0) z.w}, with x = t(d) x0 and len(t(d)) = <d,
2 rho^> mod 2.  The Koszul sum at (y, x) depends only on (y.trans -
x.trans, y.w, x.w) and still expands the operator over all subsets of the
positive roots (grouped by subset sum), so the round trip is not a
tautology.

Packed sums.  Every polynomial these sums touch lies in Z[v]: p is in
{1} + vZ[v], and the partition series and the Koszul factors have only
exponents >= 0.  So they run on the packed integers of :mod:`.laurent`,
f -> f(2^B) with B = ``laurent._WIDTH``: a generic value is the integer
sum of p * series over its rows, a Koszul or inversion sum the integer sum
of q * factor or q * (+-p), each term one integer multiply-add.  v -> 2^B
is a ring homomorphism Z[v] -> Z, so every packed sum and product is
exact, whatever the digit sizes.  Each value carries a bound on its l1
norm sum |c_e|, accumulated alongside it (bound += l1(q) * l1(p)): l1 is
subadditive and submultiplicative, the l1 norm of a partition series is
its number of partitions (every coefficient is positive), and |c_e| <= l1.
A summand whose bound is 0 is the zero polynomial and is skipped.  A value
is decoded once per memo entry (the Koszul and inversion memos, and the
decoded memo behind ``generic_polynomial``), through the guarded
``laurent.unpack``: the decode is exact when the bound is below 2^(B-1),
and otherwise a ResourceError names the value, its key and the bound's
size before any digit that may have wrapped is read.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from operator import add, mul, sub
from typing import Iterable, Literal, Mapping, NamedTuple, Optional, Sequence

from . import laurent
from .hecke import RightHeckeModule
from .laurent import ONE, ZERO, Combination, LaurentPoly, ResourceError, pack, unpack
from .orders import SemiInfiniteOrder
from .rootdata import Weight
from .weyl import AffineWeyl, ExtAffineElement

__all__ = [
    "PeriodicElement",
    "PeriodicModule",
    "PolynomialTable",
    "CertificationError",
]

# Positions one class solve may sweep before it raises ResourceError.
MAX_SWEEP_STEPS = 500_000

# Memo entries of ``_partitions`` one module may hold before it raises
# ResourceError.
MAX_PARTITION_STATES = 20_000


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


class PolynomialTable(NamedTuple):
    """A windowed table of polynomials p_{y,x}, q_{y,x} or q'_{y,x}."""

    kind: KindName
    window: tuple[ExtAffineElement, ...]
    entries: dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly]


class PeriodicModule(RightHeckeModule):
    """The periodic module: B_x . H_s descends exactly when xs < x in the
    semi-infinite order."""

    element = PeriodicElement

    def __init__(self, group: AffineWeyl):
        self.order = SemiInfiniteOrder(group)
        super().__init__(group, self.order.descends)
        self._class_cache: dict[int, PeriodicElement] = {}
        self._in_progress: set[int] = set()
        self._partition_memo: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
        self._generic_tables: dict[tuple[int, int], tuple[dict, dict, Optional[int]]] = {}
        self._generic_decoded: dict[tuple[tuple[int, ...], int, int, bool], LaurentPoly] = {}
        self._inversion_rows: dict[int, dict[int, list[tuple[int, tuple[int, ...], int, int]]]] = {}
        self._inversion_plans: dict[tuple[int, int], list[tuple[tuple[dict, dict, int], list]]] = {}
        self._inversion_memo: dict = {}
        self._koszul_memo: dict = {}
        self._down_policy = self._choose_down_moves()

    # -- basic constructions -----------------------------------------------------

    def e_element(self, lam: Weight) -> PeriodicElement:
        g = self.group
        terms = {
            g.element(lam, w): LaurentPoly({w.length: 1})
            for w in g.finite_elements
        }
        return PeriodicElement(terms)

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
        """The self-dual basis element with leading term B_x (certified)."""
        cls = self._class_element(x.w.index)
        return self.shift(cls, x.trans)

    def p_polynomial(self, y: ExtAffineElement, x: ExtAffineElement) -> LaurentPoly:
        """Periodic polynomial p_{y,x}: coefficient of B_y in the self-dual element at x."""
        cls = self._class_element(x.w.index)
        return cls.coefficient(self.group.translate_left(-x.trans, y))

    def _choose_down_moves(self) -> dict[int, tuple[int, Weight, int]]:
        """For each non-identity finite class w: (generator j, shift nu, class sigma)
        with  t(0)w . s_j = t(nu) sigma  a strict semi-infinite descent.

        The assignment is grounded by breadth-first search from the identity
        class, so the chain of class dependencies is a forest rooted at the
        base case and each class's product ingredient is fully computed
        before it is needed.  (No single fixed generator preference works:
        preferring finite moves cycles in B2, preferring the affine one
        cycles in A2.)
        """
        g = self.group
        zero = Weight((0,) * self.rd.rank)
        candidates: dict[int, list[tuple[int, Weight, int]]] = {}
        for w in g.finite_elements:
            if w.length == 0:
                continue
            x = g.element(zero, w)
            cands = []
            for j in g.affine_generator_indices():
                if self.order.descends(x, j):
                    u = g.right_multiply_gen(x, j)
                    cands.append((j, u.trans, u.w.index))
            if not cands:  # pragma: no cover
                raise AssertionError("non-translation element with no semi-infinite descent")
            candidates[w.index] = cands
        policy: dict[int, tuple[int, Weight, int]] = {}
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

    def _class_element(self, w_index: int) -> PeriodicElement:
        hit = self._class_cache.get(w_index)
        if hit is not None:
            return hit
        if w_index in self._in_progress:
            raise CertificationError(
                "cross-class correction cycle; the down-move policy cannot handle this datum"
            )
        self._in_progress.add(w_index)
        try:
            if self.group.finite_elements[w_index].length == 0:
                result = self.e_element(Weight((0,) * self.rd.rank))
            else:
                result = self._solve_class(w_index)
            self._class_cache[w_index] = result
            return result
        finally:
            self._in_progress.discard(w_index)

    def _solve_class(self, w_index: int) -> PeriodicElement:
        g = self.group
        j, nu, sigma = self._down_policy[w_index]
        base = self.shift(self._class_element(sigma), nu)
        product = self.act_cs(base, j)
        lead = g.element(Weight((0,) * self.rd.rank), w_index)

        # Top-down sweep in height.  acc holds, at each queued position, the
        # product's coefficient minus every correction (z, m, class, shift)
        # registered so far, m the integer constant term at z; fin the
        # finalized coefficients of the element under construction; and
        # selfs the corrections by SD_w itself, which reach each position of
        # fin as it is finalized (module docstring).
        acc = dict(product.terms)
        fin: dict[ExtAffineElement, LaurentPoly] = {}
        corrections: list[tuple[ExtAffineElement, int, int, Weight]] = []
        selfs: list[tuple[ExtAffineElement, int]] = []
        # Heap entries (-height, key, element): keys are unique, so the
        # element itself is never compared.
        heap: list[tuple[int, tuple, ExtAffineElement]] = []
        # The witness of each queued position, recorded when it is first
        # pushed: None for a term of the product, (z, src) for a position
        # t(z.trans) src pushed by the correction at z.
        witness: dict[ExtAffineElement, Optional[tuple[ExtAffineElement, ExtAffineElement]]] = {}

        def push(pos: ExtAffineElement, via=None) -> None:
            if pos in witness:
                return
            witness[pos] = via
            heapq.heappush(heap, (-self.order.height(pos), pos.key, pos))

        def subtract(z: ExtAffineElement, m: int, terms) -> None:
            # m c at t(z.trans) src for each (src, c), bar z itself (val - m)
            for src, c in terms:
                at = g.translate_left(z.trans, src)
                if at is not z:
                    acc[at] = acc.get(at, ZERO) - c.scale(m)
                    push(at, (z, src))

        self._check_product_terms(w_index, base, product.terms)
        for pos in product.terms:
            push(pos)

        swept: list[ExtAffineElement] = []
        while heap:
            if len(swept) >= MAX_SWEEP_STEPS:
                raise ResourceError(
                    f"self-dual basis sweep of class {g.format_element(lead)} exceeded "
                    f"MAX_SWEEP_STEPS={MAX_SWEEP_STEPS} with {len(heap)} positions queued"
                )
            pos = heapq.heappop(heap)[2]
            swept.append(pos)
            val = acc.pop(pos, ZERO)
            if pos == lead:
                if val != ONE:
                    raise CertificationError("leading coefficient is not 1")
            else:
                coeffs = val.coeffs
                if coeffs and min(coeffs) < 0:
                    raise CertificationError(
                        f"coefficient at {g.format_element(pos)} of class {g.format_element(lead)} "
                        "outside Z[v]")
                m = coeffs.get(0)
                if m:
                    cls = pos.w.index
                    corrections.append((pos, m, cls, pos.trans))
                    if cls == w_index:
                        selfs.append((pos, m))
                        subtract(pos, m, fin.items())
                    else:
                        subtract(pos, m, self._class_element(cls).terms.items())
                    val = LaurentPoly({e: c for e, c in coeffs.items() if e})
                if val.is_zero():
                    continue
            fin[pos] = val
            for z, m in selfs:
                subtract(z, m, ((pos, val),))

        ideal = self._check_witnesses(w_index, swept, witness)
        result = PeriodicElement(fin)
        self._certify(result, lead, product, corrections, w_index, ideal)
        return result

    def _check_product_terms(self, w_index: int, base: PeriodicElement,
                             terms: Iterable[ExtAffineElement]) -> None:
        """Check, before the sweep, that every term of the product P lies below
        the lead t(0)w (see the module docstring).

        ``base`` is SD_{ws} for the class's down move (j, nu, sigma): ws < w
        must be the local descent onto its lead, and each term must lie in
        supp(base) or in supp(base) . s_j.  No term's check reads another
        position, so a stray term stops the solve before its sweep starts.
        """
        g = self.group
        j, nu, sigma = self._down_policy[w_index]
        lead = g.element(Weight((0,) * self.rd.rank), w_index)
        if not (self.order.descends(lead, j) and g.right_multiply_gen(lead, j) is g.element(nu, sigma)):
            raise CertificationError("support escapes the semi-infinite ideal of the lead")
        lifted = set(base.terms)
        lifted.update([g.right_multiply_gen(x, j) for x in base.terms])
        if not lifted.issuperset(terms):
            raise CertificationError("support escapes the semi-infinite ideal of the lead")

    def _check_witnesses(self, w_index: int, swept: Sequence[ExtAffineElement],
                         witness: Mapping[ExtAffineElement, Optional[tuple[ExtAffineElement, ExtAffineElement]]],
                         ) -> set[ExtAffineElement]:
        """The swept positions of class ``w_index``, each checked to lie below the
        lead t(0)w by its witness, in sweep order (see the module docstring).

        A witness ``None`` marks a term of the product, which
        ``_check_product_terms`` checked before the sweep.  A position
        pushed by the correction at z must equal t(z.trans) src, with z
        already checked and src either already checked (z in class w) or in
        the support of the certified class z.w.
        """
        g = self.group
        ideal: set[ExtAffineElement] = set()
        for pos in swept:
            via = witness[pos]
            if via is not None:
                z, src = via
                if not (z in ideal and g.translate_left(z.trans, src) is pos and src in (
                        ideal if z.w.index == w_index else self._class_cache[z.w.index].terms)):
                    raise CertificationError("support escapes the semi-infinite ideal of the lead")
            ideal.add(pos)
        return ideal

    def _certify(self, result: PeriodicElement, lead: ExtAffineElement,
                 product: PeriodicElement, corrections, w_index: int,
                 ideal: set[ExtAffineElement]) -> None:
        if result.coefficient(lead) != ONE:
            raise CertificationError("certification: leading coefficient")
        for pos, p in result.terms.items():
            if pos == lead:
                continue
            if not p.in_v_times_Zv():
                raise CertificationError("certification: coefficient not in vZ[v]")
            if pos not in ideal:
                raise CertificationError("certification: support outside the ideal")
        # product relation on complete vectors
        acc = result
        for (z, m, cls, shift_nu) in corrections:
            base = result if cls == w_index else self._class_cache[cls]
            acc = acc + self.shift(base, shift_nu).scale(m)
        if acc != product:
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

    def generic_polynomial(self, y: ExtAffineElement, x: ExtAffineElement,
                           kind: Literal["q", "qprime"] = "q") -> LaurentPoly:
        """q_{y,x} (weighted) or q'_{y,x} (unweighted), exactly.

        Coefficient of B_y in the positive-root geometric series applied to
        the self-dual element at x; only finitely many vector partitions
        contribute, enumerated exactly.  By translation equivariance only the
        relative position of y and x matters, which keys the memo.
        """
        key = (tuple(map(sub, y.trans, x.trans)), y.w.index, x.w.index, kind == "q")
        hit = self._generic_decoded.get(key)
        if hit is None:
            rel, u, c, weighted = key
            _, rows, top = self._generic_table(u, c)
            target = self.rd.scaled_root_coordinates(rel)
            if top is None or sum(target) > top:
                hit = ZERO
            else:
                hit = unpack(*self._generic_sum(target, rows, weighted),
                             "generic q (y.trans - x.trans, y.w, x.w)" if weighted else
                             "generic qprime (y.trans - x.trans, y.w, x.w)", key[:3])
            self._generic_decoded[key] = hit
        return hit

    def _generic_table(self, u: int, c: int) -> tuple[dict, dict, Optional[int]]:
        """(memo, rows, top) of the generic polynomials at y = t(rel) u, x = t(0) c.

        ``memo`` maps E(rel) = e * rc(rel) (injective in rel, and additive,
        so callers add precomputed offsets) to q packed, with a bound on its
        l1 norm, filled by ``_generic_sum`` from ``rows``, the terms t(lam) u
        of SD_{t(0)c} (see ``_build_generic_rows``), for the Koszul and
        inversion sums.  ``top`` is the largest sum E(lam) over these terms,
        or None if there is none: a term contributes at rel only if
        E(lam) - E(rel) >= 0, so q and q' are zero unless sum E(rel) <= top.
        """
        key = (u, c)
        hit = self._generic_tables.get(key)
        if hit is None:
            hit = self._generic_tables[key] = ({}, *self._build_generic_rows(c, u))
        return hit

    def _generic_sum(self, target: tuple[int, ...], rows: dict, weighted: bool) -> tuple[int, int]:
        """The generic polynomial with E(rel) = target over ``rows``, packed, with
        a bound on its l1 norm."""
        e = self.rd.lattice_index_e
        floor = tuple(t // e for t in target)
        need = sum(floor)
        memo = self._partition_memo
        total = bound = 0
        for row_sum, row_floor, p, lp in rows.get(tuple(t % e for t in target), ()):
            if row_sum < need:
                break  # every later row has a sigma with a negative sum
            sigma = tuple(map(sub, row_floor, floor))
            if min(sigma) >= 0:
                series, n = memo.get((0, sigma)) or self._partitions(0, sigma)
                if n:
                    total += p * (series if weighted else n)
                    bound += lp * n
        return total, bound

    def _build_generic_rows(self, c: int, u: int) -> tuple[dict, Optional[int]]:
        """The terms t(lam) u of SD_{t(0)c} as (sum F, F = floor(E / e), packed
        coefficient, its l1 norm) with E = e * rc(lam), grouped by E mod e and
        sorted by descending sum F: sigma = (E - E(rel)) / e is integral
        exactly when the residues agree, and then it is F - F(rel), which
        can only be >= 0 while sum F >= sum F(rel).  With the largest sum E,
        or None if there is no such term."""
        e = self.rd.lattice_index_e
        rows: dict[tuple[int, ...], list[tuple[int, tuple[int, ...], int, int]]] = {}
        top = None
        for z, p in self._class_element(c).terms.items():
            if z.w.index == u:
                scaled = self.rd.scaled_root_coordinates(z.trans)
                floor = tuple(s // e for s in scaled)
                rows.setdefault(tuple(s % e for s in scaled), []).append((sum(floor), floor, *_packed(p)))
                top = sum(scaled) if top is None else max(top, sum(scaled))
        for group in rows.values():
            group.sort(key=lambda row: -row[0])
        return rows, top

    @cached_property
    def _koszul_packed(self) -> list[tuple[int, tuple[int, ...], int, int]]:
        """prod_{a > 0} (1 - v^2 <-a>) expanded over the subsets S of the positive
        roots, one factor at a time: per subset sum sigma, the sum of the
        monomials (-1)^|S| v^{2|S|}, as (sum E(sigma), E(sigma), that polynomial
        packed, its l1 norm), by ascending sum E(sigma).  The subsets of one
        size share a sign, so no two monomials cancel and the l1 norm is the
        number of subsets.  Built on first use, so that constructing a module
        stays cheap."""
        step = 2 * laurent._WIDTH
        koszul: dict[tuple[int, ...], tuple[int, int]] = {(0,) * self.rd.rank: (1, 1)}
        for b in self.rd.positive_roots:
            eb = self.rd.scaled_root_coordinates(b)
            for at, (f, n) in list(koszul.items()):
                with_b = tuple(map(add, at, eb))
                g, k = koszul.get(with_b, (0, 0))
                koszul[with_b] = (g - (f << step), k + n)
        return sorted(((sum(at), at, f, n) for at, (f, n) in koszul.items()), key=lambda term: term[0])

    def koszul_of_series(self, y: ExtAffineElement, x: ExtAffineElement) -> LaurentPoly:
        """Coefficient at y of the Koszul operator applied to the full (untruncated)
        geometric-series expansion of the self-dual element at x.

        Evaluating positionwise keeps everything exact: the operator pulls the
        series coefficient at t(sigma) y for each subset sum sigma.  By the
        inverse relation between the two operators this equals p_{y,x}.  The
        value depends only on the orbit (y.trans - x.trans, y.w, x.w) and is
        memoized by it.
        """
        rel = tuple(map(sub, y.trans, x.trans))
        key = (rel, y.w.index, x.w.index)
        hit = self._koszul_memo.get(key)
        if hit is None:
            total, bound = self._q_sum(self._generic_table(key[1], key[2]),
                                       self.rd.scaled_root_coordinates(rel), self._koszul_packed)
            hit = self._koszul_memo[key] = unpack(total, bound, "Koszul sum (y.trans - x.trans, y.w, x.w)", key)
        return hit

    def _q_sum(self, table: tuple[dict, dict, Optional[int]], target: tuple[int, ...],
               terms: Iterable[tuple[int, tuple[int, ...], int, int]]) -> tuple[int, int]:
        """sum of q * f over the terms (reach, offset, f, l1 norm of f), packed, with
        a bound on its l1 norm.  q is the weighted generic polynomial of
        ``table`` = (memo, rows, top) at E(rel) = target + offset, read from the
        memo or filled by ``_generic_sum``.  The terms come by ascending reach
        (the sum of the offset), so the sum stops at the first whose reach
        exceeds top - sum(target): its q and every later one are zero."""
        memo, rows, top = table
        total = bound = 0
        if top is None:
            return total, bound
        limit = top - sum(target)
        for reach, offset, f, lf in terms:
            if reach > limit:
                break
            at = tuple(map(add, target, offset))
            q = memo.get(at)
            if q is None:
                q = memo[at] = self._generic_sum(at, rows, True)
            if q[1]:
                total += q[0] * f
                bound += q[1] * lf
        return total, bound

    # -- inversion identity -----------------------------------------------------------------

    def inversion_sum(self, y: ExtAffineElement, z: ExtAffineElement) -> LaurentPoly:
        """sum_x (-1)^{len(x)+len(y)} q_{x,y} p_{w0 x, w0 z}; equals delta_{y,z}.

        Memoized by the orbit (z.trans - y.trans, y.w, z.w) under simultaneous
        left translation and evaluated at y = t(0) y.w, z = t(d) z.w.
        """
        d = tuple(map(sub, z.trans, y.trans))
        key = (d, y.w.index, z.w.index)
        hit = self._inversion_memo.get(key)
        if hit is None:
            hit = self._inversion_memo[key] = self._inversion_orbit(*key)
        return hit

    def _inversion_orbit(self, d: tuple[int, ...], yw: int, zw: int) -> LaurentPoly:
        """The inversion sum at y = t(0) yw, z = t(d) zw."""
        plan = self._inversion_plans.get((yw, zw))
        if plan is None:
            groups = self._inversion_rows.get(zw)
            if groups is None:
                groups = self._inversion_rows[zw] = self._build_inversion_rows(zw)
            # each group of rows with the generic table it reads
            plan = []
            for u, group in groups.items():
                table = self._generic_table(u, yw)
                if table[2] is not None:  # otherwise every q of the group is zero
                    plan.append((table, group))
            self._inversion_plans[(yw, zw)] = plan
        target = self.rd.scaled_root_coordinates(d)
        total = bound = 0
        for table, group in plan:
            part, part_bound = self._q_sum(table, target, group)
            total += part
            bound += part_bound
        # x = t(d) x0 and length parity is a character, so len(x) = len(t(d)) + len(x0)
        # mod 2, with len(t(d)) = <d, 2 rho^> mod 2; the rows carry (-1)^len(x0).
        if (sum(map(mul, self.rd.two_rho_check, d)) + self.group.finite_elements[yw].length) % 2:
            total = -total
        return unpack(total, bound, "inversion sum (z.trans - y.trans, y.w, z.w)", (d, yw, zw))

    def _build_inversion_rows(self, zw: int) -> dict[int, list[tuple[int, tuple[int, ...], int, int]]]:
        """The rows x0 = w0 pos over pos in SD_{w0 t(0) zw}, grouped by the finite
        index of x0, as (sum E(x0.trans), E(x0.trans), (-1)^len(x0) p packed, l1
        norm of p), by ascending sum E(x0.trans)."""
        g = self.group
        w0 = g.element(Weight((0,) * self.rd.rank), g.w0.index)
        sd = self.selfdual(g.multiply(w0, g.element(Weight((0,) * self.rd.rank), zw)))
        groups: dict[int, list[tuple[int, tuple[int, ...], int, int]]] = {}
        for pos, p in sd.terms.items():
            x0 = g.multiply(w0, pos)
            offset = self.rd.scaled_root_coordinates(x0.trans)
            packed, lp = _packed(p)
            groups.setdefault(x0.w.index, []).append(
                (sum(offset), offset, -packed if x0.length % 2 else packed, lp))
        for group in groups.values():
            group.sort(key=lambda row: row[0])
        return groups

    def inversion_report(self, window: Sequence[ExtAffineElement]) -> list[tuple[ExtAffineElement, ExtAffineElement, LaurentPoly]]:
        """All deviations of the inversion identity from delta on the window."""
        cosets: dict[tuple, list[ExtAffineElement]] = {}
        for z in window:
            cosets.setdefault(z.omega_component, []).append(z)
        bad = []
        for y in window:
            for z in cosets[y.omega_component]:
                val = self.inversion_sum(y, z)
                expected = ONE if y == z else ZERO
                if val != expected:
                    bad.append((y, z, val - expected))
        return bad

    # -- tables -------------------------------------------------------------------------------

    def polynomial_table(self, kind: KindName, window: Sequence[ExtAffineElement]) -> PolynomialTable:
        entries: dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly] = {}
        win = tuple(window)
        for x in win:
            if kind == "periodic_p":
                sd = self.selfdual(x)
                for y in win:
                    p = sd.coefficient(y)
                    if not p.is_zero():
                        entries[(y, x)] = p
            else:
                k: Literal["q", "qprime"] = "q" if kind == "generic_q" else "qprime"
                for y in win:
                    p = self.generic_polynomial(y, x, k)
                    if not p.is_zero():
                        entries[(y, x)] = p
        return PolynomialTable(kind, win, entries)


def _packed(p: LaurentPoly) -> tuple[int, int]:
    """A polynomial in Z[v] packed, with its l1 norm."""
    return pack(p), sum(map(abs, p.coeffs.values()))
