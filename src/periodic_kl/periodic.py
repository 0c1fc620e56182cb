"""The periodic module over the extended affine Hecke algebra.

Free Z[v^{+-1}]-module with basis {B_x} indexed by the extended affine Weyl
group, carrying the right action

    B_x . H_s = B_{xs}                          if x < xs  (semi-infinite),
    B_x . H_s = B_{xs} + (v^{-1} - v) B_x       if xs < x,

for affine simple reflections s; the comparison is the local sign test from
:mod:`.orders`.  For each weight lam the element

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

    P := SD_{ws} . (H_s + v)

is self-dual with leading term B_w, and SD_w = P - sum_j m_j SD_{z_j} for
the unique bar-symmetric corrections m_j that leave all off-leading
coefficients in vZ[v].  The corrections are found by one top-down sweep of
the support in the height function h(z) = <z dot_l 0, 2 rho^> (every strict
semi-infinite relation strictly drops h): when the sweep reaches an
offending position z, the correction SD_z is a translate of some class
element - possibly of SD_w itself at a strictly lower height, in which case
its coefficients at the required (strictly higher) positions have already
been finalized by the same sweep.  This lazy self-reference is what makes
the computation terminate: the dependency at the level of whole elements is
genuinely cyclic through translation, but positionwise it is triangular.

Each computed element is certified before it is cached: leading
coefficient 1, all other coefficients in vZ[v], support inside the
semi-infinite ideal of the leading term, and the product relation
P = SD_w + sum_j m_j SD_{z_j} re-verified on complete vectors.  The sweep
records every nonzero position it meets, and after the sweep one batched
down-closure search of the lead (:meth:`.SemiInfiniteOrder.below`) decides
all of them at once.  That search is exact although it is pruned to the
dominance meet of the recorded positions: every chain from the lead down to
a position z stays between z dot 0 and the lead's dot 0.  The same set
serves the support check of the final certification.  Together with
uniqueness of the self-dual element these checks pin the result; a failure
raises :class:`CertificationError` and indicates a bug, never bad input.

The generic polynomials are coordinates of the positive-root geometric
series applied to SD_x:

    (prod_{a > 0} (1 + v^2 <-a> + v^4 <-2a> + ...)) SD_x = sum_y q_{y,x} B_y,
    (prod_{a > 0} (1 +     <-a> +     <-2a> + ...)) SD_x = sum_y q'_{y,x} B_y,

computed per target by exact enumeration of vector partitions (no series
truncation), and the finite Koszul-type operator prod_{a>0}(1 - v^2 <-a>)
inverts the first series.  The signed inversion identity

    sum_x (-1)^{len(x)+len(y)} q_{x,y} p_{w0 x, w0 z} = delta_{y,z}

is exposed as a checkable report and exercised by the acceptance suite.

Evaluation on integer keys and translation orbits.  A generic polynomial
q_{y,x} is looked up by (y.trans - x.trans, y.w, x.w) in translation
coordinates.  On a miss it reads a table built once per (x.w, y.w): the
terms t(lam) y.w of SD_{t(0) x.w} as E = e * rc(lam) (integer, e the
lattice index), grouped by E mod e; a term contributes iff E - E(y.trans -
x.trans) is nonnegative and divisible by e, and the residue grouping
settles the divisibility.  The inversion and Koszul checks are evaluated
once per orbit of simultaneous left translation and memoized: q, p and the
Koszul sum are translation-equivariant, and (-1)^{len} is a character of
the extended group (its value on a length-zero element is +1 and
conjugation by one permutes the simple reflections), so len(t(nu) x) +
len(t(nu) y) has the parity of len(x) + len(y).  The inversion sum at (y,
z) therefore depends only on (z.trans - y.trans, y.w, z.w); it is
evaluated at y = t(0) y.w, z = t(d) z.w from a per-class table of the rows
x0 = w0 pos, pos in SD_{w0 t(0) z.w}, with x = t(d) x0 and len(t(d)) = <d,
2 rho^> mod 2.  The Koszul sum at (y, x) depends only on (y.trans -
x.trans, y.w, x.w) and still expands the operator over all subsets of the
positive roots (grouped by subset sum), so the round trip is not a
tautology.  Every value stays an exact Laurent polynomial; the memos only
avoid recomputing it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub
from typing import Literal, Mapping, Optional, Sequence

from .hecke import HeckeElement, ResourceError
from .laurent import ONE, V, VINV, ZERO, Combination, LaurentPoly
from .orders import SemiInfiniteOrder
from .rootdata import Weight
from .weyl import AffineWeyl, ExtAffineElement

__all__ = [
    "PeriodicElement",
    "PeriodicModule",
    "PolynomialTable",
    "CertificationError",
]

_VINV_MINUS_V = VINV - V


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


@dataclass
class PolynomialTable:
    """A windowed table of polynomials p_{y,x}, q_{y,x} or q'_{y,x}."""

    kind: KindName
    window: tuple[ExtAffineElement, ...]
    entries: dict[tuple[ExtAffineElement, ExtAffineElement], LaurentPoly]


class PeriodicModule:
    def __init__(self, group: AffineWeyl, order: Optional[SemiInfiniteOrder] = None,
                 max_sweep_steps: int = 500_000):
        self.group = group
        self.rd = group.rd
        self.order = order or SemiInfiniteOrder(group)
        self.max_sweep_steps = max_sweep_steps
        self._class_cache: dict[int, PeriodicElement] = {}
        self._in_progress: set[int] = set()
        self._repgen_cache: dict[tuple[tuple[int, ...], bool], LaurentPoly] = {}
        self._generic_cache: dict = {}
        self._generic_rows: dict[tuple[int, int], dict[tuple[int, ...], list]] = {}
        self._inversion_rows: dict[int, list[tuple[tuple[int, ...], int, int, LaurentPoly]]] = {}
        self._inversion_memo: dict = {}
        self._koszul_memo: dict = {}
        self._down_policy = self._choose_down_moves()

    # Tables built on first use, so that constructing a module stays cheap.

    @cached_property
    def _koszul_terms(self) -> list[tuple[Weight, LaurentPoly]]:
        """prod_{a > 0} (1 - v^2 <-a>) expanded over the subsets S of the positive
        roots, one factor at a time: the sum of the monomials (-1)^|S| v^{2|S|}
        per subset sum sigma, as (sigma, polynomial)."""
        koszul: dict[Weight, LaurentPoly] = {Weight((0,) * self.rd.rank): ONE}
        for b in self.rd.positive_roots:
            for sigma, poly in list(koszul.items()):
                with_b = sigma + b
                koszul[with_b] = koszul.get(with_b, ZERO) - poly.shift(2)
        return [(sigma, poly) for sigma, poly in koszul.items() if poly]

    # -- basic constructions -----------------------------------------------------

    def zero(self) -> PeriodicElement:
        return PeriodicElement({})

    def basis(self, x: ExtAffineElement) -> PeriodicElement:
        return PeriodicElement({x: ONE})

    def from_terms(self, terms: Mapping[ExtAffineElement, LaurentPoly]) -> PeriodicElement:
        return PeriodicElement(terms)

    def height(self, x: ExtAffineElement) -> int:
        """<x dot_l 0, 2 rho^>; strictly decreasing along the semi-infinite order."""
        return self.order.height(x)

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

    def act_gen(self, m: PeriodicElement, j: int) -> PeriodicElement:
        """m . H_{s_j} for an affine simple reflection."""
        g = self.group
        out: dict[ExtAffineElement, LaurentPoly] = {}
        for x, p in m.terms.items():
            xs = g.right_multiply_gen(x, j)
            q = out.get(xs)
            out[xs] = p if q is None else q + p
            if self.order.descends(x, j):
                extra = p * _VINV_MINUS_V
                q = out.get(x)
                out[x] = extra if q is None else q + extra
        return PeriodicElement(out)

    def act_cs(self, m: PeriodicElement, j: int) -> PeriodicElement:
        """m . (H_{s_j} + v)."""
        return self.act_gen(m, j) + m.scale(V)

    def act_omega(self, m: PeriodicElement, omega: ExtAffineElement) -> PeriodicElement:
        if omega.length != 0:
            raise ValueError("expected a length-zero element")
        g = self.group
        return PeriodicElement({g.multiply(x, omega): p for x, p in m.terms.items()})

    def act_hecke(self, m: PeriodicElement, h: HeckeElement) -> PeriodicElement:
        out = self.zero()
        for y, p in h.terms.items():
            word, omega = self.group.reduced_word(y)
            cur = self.act_omega(m.scale(p), omega)
            for j in word:
                cur = self.act_gen(cur, j)
            out = out + cur
        return out

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

        # Top-down sweep in height.  fin holds finalized coefficients of the
        # element under construction; corrections (z, m, class, shift) are
        # registered as offenders appear and contribute lazily below z.
        fin: dict[ExtAffineElement, LaurentPoly] = {}
        corrections: list[tuple[ExtAffineElement, LaurentPoly, int, Weight]] = []
        # Heap entries (-height, key, element): keys are unique, so the
        # element itself is never compared.
        heap: list[tuple[int, tuple, ExtAffineElement]] = []
        queued: set[ExtAffineElement] = set()

        def push(pos: ExtAffineElement) -> None:
            if pos in queued:
                return
            queued.add(pos)
            heapq.heappush(heap, (-self.height(pos), pos.key, pos))

        for pos in product.terms:
            push(pos)

        # Positions whose order check against the lead waits for one batched
        # search after the sweep.
        checked: list[ExtAffineElement] = []
        steps = 0
        while heap:
            steps += 1
            if steps > self.max_sweep_steps:
                raise ResourceError("self-dual basis sweep exceeded the configured step bound")
            pos = heapq.heappop(heap)[2]
            val = product.coefficient(pos)
            for (z, m, cls, shift_nu) in corrections:
                src = g.translate_left(-shift_nu, pos)
                if cls == w_index:
                    contrib = fin.get(src)
                else:
                    contrib = self._class_cache[cls].terms.get(src)
                if contrib is not None:
                    val = val - m * contrib
            if pos == lead:
                if val != ONE:
                    raise CertificationError("leading coefficient is not 1")
                fin[pos] = val
                self._push_self_shifts(pos, corrections, push, w_index)
                continue
            if val.is_zero():
                continue
            checked.append(pos)
            low = val.lower_symmetrization()
            if not low.is_zero():
                cls = pos.w.index
                shift_nu = pos.trans
                if cls != w_index and cls not in self._class_cache:
                    self._class_element(cls)
                corrections.append((pos, low, cls, shift_nu))
                if cls == w_index:
                    # contributions of this correction appear at shifts of the
                    # element being built; seed with what is finalized so far.
                    for done in list(fin):
                        if not fin[done].is_zero():
                            push(g.translate_left(shift_nu, done))
                else:
                    for src in self._class_cache[cls].terms:
                        push(g.translate_left(shift_nu, src))
                val = val - low
                if not val.in_v_times_Zv():
                    raise CertificationError("correction did not normalize the coefficient")
            if not val.is_zero():
                fin[pos] = val
                self._push_self_shifts(pos, corrections, push, w_index)

        ideal = self.order.below(lead, checked)
        if not ideal.issuperset(checked):
            raise CertificationError("support escapes the semi-infinite ideal of the lead")
        result = PeriodicElement(fin)
        self._certify(result, lead, product, corrections, w_index, ideal)
        return result

    def _push_self_shifts(self, pos: ExtAffineElement, corrections, push, w_index: int) -> None:
        g = self.group
        for (_, _, cls, shift_nu) in corrections:
            if cls == w_index:
                push(g.translate_left(shift_nu, pos))

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
            if not m.is_bar_symmetric():
                raise CertificationError("certification: correction not bar-symmetric")
            base = result if cls == w_index else self._class_cache[cls]
            acc = acc + self.shift(base, shift_nu).scale(m)
        if acc != product:
            raise CertificationError("certification: product relation fails on complete vectors")

    # -- generic polynomials and the Koszul-type inverse -------------------------------------

    def _partition_series(self, sigma_rc: tuple[int, ...], weighted: bool) -> LaurentPoly:
        """sum over (k_a) with sum k_a a = sigma of v^{2 sum k_a} (or 1 if unweighted)."""
        key = (sigma_rc, weighted)
        hit = self._repgen_cache.get(key)
        if hit is not None:
            return hit
        rd = self.rd
        e = rd.lattice_index_e
        roots_rc = [tuple(c // e for c in rd.scaled_root_coordinates(b)) for b in rd.positive_roots]
        result = _vector_partitions(roots_rc, 0, sigma_rc, weighted) if min(sigma_rc) >= 0 else ZERO
        self._repgen_cache[key] = result
        return result

    def generic_polynomial(self, y: ExtAffineElement, x: ExtAffineElement,
                           kind: Literal["q", "qprime"] = "q") -> LaurentPoly:
        """q_{y,x} (weighted) or q'_{y,x} (unweighted), exactly.

        Coefficient of B_y in the positive-root geometric series applied to
        the self-dual element at x; only finitely many vector partitions
        contribute, enumerated exactly.  By translation equivariance only the
        relative position of y and x matters, which keys the memo.
        """
        return self._generic(tuple(map(sub, y.trans, x.trans)), y.w.index, x.w.index, kind == "q")

    def _generic(self, rel: tuple[int, ...], u: int, c: int, weighted: bool) -> LaurentPoly:
        """The generic polynomial at y = t(rel) u, x = t(0) c (translation coordinates)."""
        key = (rel, u, c, weighted)
        hit = self._generic_cache.get(key)
        if hit is not None:
            return hit
        rows = self._generic_rows.get((c, u))
        if rows is None:
            rows = self._generic_rows[(c, u)] = self._build_generic_rows(c, u)
        e = self.rd.lattice_index_e
        target = self.rd.scaled_root_coordinates(rel)
        total = ZERO
        for scaled, p in rows.get(tuple(t % e for t in target), ()):
            sigma = tuple(map(sub, scaled, target))
            if min(sigma) >= 0:
                series = self._partition_series(tuple(s // e for s in sigma), weighted)
                if series:
                    total = total + p * series
        self._generic_cache[key] = total
        return total

    def _build_generic_rows(self, c: int, u: int) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], LaurentPoly]]]:
        """The terms t(lam) u of SD_{t(0)c} as (E, coefficient) with E = e * rc(lam),
        grouped by E mod e: sigma = (E - E(rel)) / e is integral exactly when
        the residues agree."""
        e = self.rd.lattice_index_e
        rows: dict[tuple[int, ...], list[tuple[tuple[int, ...], LaurentPoly]]] = {}
        for z, p in self._class_element(c).terms.items():
            if z.w.index == u:
                scaled = self.rd.scaled_root_coordinates(z.trans)
                rows.setdefault(tuple(s % e for s in scaled), []).append((scaled, p))
        return rows

    def koszul_apply(self, m: PeriodicElement) -> PeriodicElement:
        """Apply prod_{a > 0} (1 - v^2 <-a>), the finite inverse of the q-series."""
        out = self.zero()
        for sigma, poly in self._koszul_terms:
            out = out + self.shift(m, -sigma).scale(poly)
        return out

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
            hit = ZERO
            for sigma, poly in self._koszul_terms:
                q = self._generic(tuple(map(add, rel, sigma)), key[1], key[2], True)
                if q:
                    hit = hit + q * poly
            self._koszul_memo[key] = hit
        return hit

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
        rows = self._inversion_rows.get(zw)
        if rows is None:
            rows = self._inversion_rows[zw] = self._build_inversion_rows(zw)
        # x = t(d) x0 and length parity is a character, so len(x) = len(t(d)) + len(x0)
        # mod 2, with len(t(d)) = <d, 2 rho^> mod 2.
        parity = (sum(c * t for c, t in zip(self.rd.two_rho_check, d))
                  + self.group.finite_elements[yw].length) % 2
        acc: dict[int, int] = {}
        for trans, u, x_parity, p in rows:
            q = self._generic(tuple(map(add, d, trans)), u, yw, True)
            if not q:
                continue
            sign = -1 if (x_parity + parity) % 2 else 1
            for e1, c1 in q.coeffs.items():
                for e2, c2 in p.coeffs.items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + sign * c1 * c2
        return LaurentPoly(acc)

    def _build_inversion_rows(self, zw: int) -> list[tuple[tuple[int, ...], int, int, LaurentPoly]]:
        """(trans, finite index, length parity, p) of x0 = w0 pos over pos in SD_{w0 t(0) zw}."""
        g = self.group
        w0 = g.element(Weight((0,) * self.rd.rank), g.w0.index)
        sd = self.selfdual(g.multiply(w0, g.element(Weight((0,) * self.rd.rank), zw)))
        rows = []
        for pos, p in sd.terms.items():
            x0 = g.multiply(w0, pos)
            rows.append((*x0.key, x0.length % 2, p))
        return rows

    def inversion_report(self, window: Sequence[ExtAffineElement]) -> list[tuple[ExtAffineElement, ExtAffineElement, LaurentPoly]]:
        """All deviations of the inversion identity from delta on the window."""
        bad = []
        for y in window:
            for z in window:
                if y.omega_component != z.omega_component:
                    continue
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


def _vector_partitions(roots_rc: Sequence[tuple[int, ...]], idx: int, rem: tuple[int, ...],
                       weighted: bool) -> LaurentPoly:
    """The partition series of ``rem`` over the roots from ``idx`` on, in root coordinates."""
    if all(c == 0 for c in rem):
        return ONE
    if idx == len(roots_rc):
        return ZERO
    rc = roots_rc[idx]
    cap = min((rem[i] // rc[i] for i in range(len(rem)) if rc[i] > 0), default=0)
    total = ZERO
    for k in range(cap + 1):
        nxt = tuple(rem[i] - k * rc[i] for i in range(len(rem)))
        if any(c < 0 for c in nxt):
            continue
        tail = _vector_partitions(roots_rc, idx + 1, nxt, weighted)
        if tail.is_zero():
            continue
        total = total + (tail.shift(2 * k) if weighted else tail)
    return total
