"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: breadth-first word search for
lengths, exhaustive subword enumeration for the Bruhat order, a dense
linear solve for self-dual basis elements, orbit enumeration for block
combinatorics, and the per-pair element formulas of the inversion sum and
the Koszul round trip (the module memoizes both per translation orbit).
Apart from the last two, which read q and p from the module, none of it
shares code paths with the production implementations it checks.  The
classical KL recursion on {exponent: coefficient} dicts is kept here too,
as the formula the packed-integer recursion of ``HeckeAlgebra`` replaced,
and so is the semi-infinite poset as one independent ``below`` search per
column, which the ascending-height window pass of ``SemiInfinitePoset.build``
replaced.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Mapping

from periodic_kl.hecke import HeckeAlgebra, HeckeElement
from periodic_kl.laurent import LaurentPoly, ONE, ZERO
from periodic_kl.orders import SemiInfiniteOrder
from periodic_kl.periodic import PeriodicModule
from periodic_kl.rootdata import Weight
from periodic_kl.weyl import AffineWeyl, ExtAffineElement


def bfs_lengths(group: AffineWeyl, start: ExtAffineElement, radius: int) -> dict:
    """{start * w: length of w} over the affine Coxeter words w of length <= radius.

    Breadth-first search over right multiplication by the affine simple
    reflections.  For a length-zero start these are the lengths of the
    elements of its coset, by shortest words.
    """
    dist = {start: 0}
    frontier = [start]
    for depth in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for j in group.affine_generator_indices():
                y = group.right_multiply_gen(x, j)
                if y not in dist:
                    dist[y] = depth
                    nxt.append(y)
        frontier = nxt
    return dist


def subword_bruhat(group: AffineWeyl, x: ExtAffineElement, y: ExtAffineElement) -> bool:
    """x <= y by exhaustive subword enumeration on a reduced word of y."""
    wx, omx = group.reduced_word(x)
    wy, omy = group.reduced_word(y)
    if omx != omy:
        return False
    k = len(wx)
    if k > len(wy):
        return False
    for idxs in combinations(range(len(wy)), k):
        cur = omy
        for i in idxs:
            cur = group.right_multiply_gen(cur, wy[i])
        if cur == x:
            return True
    return False


def kl_by_linear_solve(algebra: HeckeAlgebra, x: ExtAffineElement):
    """Self-dual basis element at x by solving the bar-invariance system.

    Ansatz: H_x + sum over y < x (Bruhat) of p_y H_y with p_y in vZ[v] of
    degree <= len(x) - len(y); bar-invariance gives an exact linear system
    over the integers, solved here with Fractions.  Asserts that the
    solution exists and is unique.
    """
    group = algebra.group
    below = [
        y
        for y in group.elements_of_length_leq(max(x.length - 1, 0))
        if y != x and group.bruhat_leq(y, x)
    ]
    below.sort(key=lambda z: (z.length, z.key))
    unknowns = [(y, k) for y in below for k in range(1, x.length - y.length + 1)]

    # residual(a) = bar(candidate) - candidate must vanish; it is affine-linear
    # in the unknowns: residual = bar(H_x) - H_x + sum a_{y,k} (v^{-k} bar(H_y) - v^k H_y).
    const = algebra.bar_basis(x) - algebra.basis(x)
    columns = []
    for y, k in unknowns:
        col = algebra.bar_basis(y).scale(LaurentPoly({-k: 1})) - algebra.basis(y).scale(
            LaurentPoly({k: 1})
        )
        columns.append(col)

    # Collect all (support element, exponent) coordinates.
    coords = set()
    for h in [const, *columns]:
        for z, p in h.terms.items():
            for e in p.coeffs:
                coords.add((z, e))
    coords = sorted(coords, key=lambda c: (c[0].length, c[0].key, c[1]))

    rows = []
    rhs = []
    for z, e in coords:
        rows.append([Fraction(col.coefficient(z).coefficient(e)) for col in columns])
        rhs.append(Fraction(-const.coefficient(z).coefficient(e)))
    solution = _solve_unique(rows, rhs)

    terms = {x: ONE}
    for (y, k), a in zip(unknowns, solution):
        assert a.denominator == 1, "non-integral KL coefficient"
        if a:
            cur = terms.get(y, ZERO)
            terms[y] = cur + LaurentPoly({k: int(a)})
    return algebra.from_terms(terms)


def kl_basis_by_dicts(algebra: HeckeAlgebra, x: ExtAffineElement, memo: dict) -> HeckeElement:
    """The self-dual basis element C_x by the classical recursion on dicts.

    With s_j the lowest right descent of x and u = x s_j, the product
    C_u (H_s + v) is built in one mutable {element: {exponent: coefficient}}
    dict by exponent shifts alone:

        H_y (H_s + v) = H_{ys} + v^{-1} H_y   if ys < y,
                        H_{ys} + v H_y        otherwise.

    One pass over the lengths len(x) - 1, ..., 0 then subtracts m C_y at
    every y whose coefficient is not in vZ[v], where m is its bar-symmetric
    lower part, one shifted and scaled copy of C_y per monomial of m.
    ``memo`` maps elements to their computed C_y and may be shared between
    calls on the same algebra.
    """
    hit = memo.get(x)
    if hit is not None:
        return hit
    n = x.length
    if n == 0:
        result = algebra.basis(x)
    else:
        g = algebra.group
        j = next(k for k in g.affine_generator_indices() if g.right_descent(x, k))
        acc: dict[ExtAffineElement, dict[int, int]] = {}
        by_length: list[list[ExtAffineElement]] = [[] for _ in range(n + 1)]

        def add(terms: Mapping[ExtAffineElement, LaurentPoly], shift: int, factor: int) -> None:
            # acc += factor * v^shift * terms, dropping zero coefficients.
            for z, q in terms.items():
                d = acc.get(z)
                if d is None:
                    acc[z] = {e + shift: factor * c for e, c in q.coeffs.items()}
                    by_length[z.length].append(z)
                    continue
                for e, c in q.coeffs.items():
                    e += shift
                    k = d.get(e, 0) + factor * c
                    if k:
                        d[e] = k
                    else:
                        del d[e]

        cu = kl_basis_by_dicts(algebra, g.right_multiply_gen(x, j), memo).terms
        moved, down, up = {}, {}, {}
        for y, p in cu.items():
            ys = g.right_multiply_gen(y, j)
            moved[ys] = p
            (down if ys.length < y.length else up)[y] = p
        add(moved, 0, 1)
        add(down, -1, 1)
        add(up, 1, 1)
        for level in range(n - 1, -1, -1):
            for y in by_length[level]:
                d = acc[y]
                if not d or min(d) >= 1:
                    continue
                p = LaurentPoly(d)
                m = p.lower_symmetrization()
                if not m.is_bar_symmetric() or m.coefficient(0) != p.coefficient(0):
                    raise AssertionError("unexpected correction shape in KL recursion")
                cy = kl_basis_by_dicts(algebra, y, memo).terms
                for shift, c in m.coeffs.items():
                    add(cy, shift, -c)
        result = HeckeElement({z: LaurentPoly(d) for z, d in acc.items()})
    if result.coefficient(x) != ONE:
        raise AssertionError("KL basis element has wrong leading coefficient")
    memo[x] = result
    return result


def _solve_unique(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve an overdetermined consistent system with a unique solution."""
    n = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    assert len(pivots) == n, "bar-invariance system is underdetermined"
    for i in range(r, len(aug)):
        assert all(v == 0 for v in aug[i]), "bar-invariance system is inconsistent"
    solution = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        solution[c] = aug[row_idx][n]
    return solution


def dot_orbit(group: AffineWeyl, lam: Weight, box: int, n: int) -> frozenset:
    """Orbit of lam under the n-dilated dot action of the affine Weyl group,
    restricted to weights with coordinates bounded by box."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        mu = frontier.pop()
        for j in group.affine_generator_indices():
            g = group.affine_generator(j)
            nu = group.dot_action(g, mu, n)
            if max(abs(c) for c in nu) > box:
                continue
            if nu not in seen:
                seen.add(nu)
                frontier.append(nu)
    return frozenset(seen)


def dot_stabilizer(group: AffineWeyl, lam: Weight, n: int, max_len: int = 4) -> list[ExtAffineElement]:
    """All affine-group elements of length <= max_len fixing lam under dot_n."""
    out = []
    for g in group.elements_of_length_leq(max_len):
        if g.omega_component != group.rd.coset_tag(Weight((0,) * group.rd.rank)):
            continue
        if group.dot_action(g, lam, n) == lam:
            out.append(g)
    return out


def inversion_sum_per_pair(module: PeriodicModule, y: ExtAffineElement, z: ExtAffineElement) -> LaurentPoly:
    """sum_x (-1)^{len(x)+len(y)} q_{x,y} p_{w0 x, w0 z}, summed over the support
    of the self-dual element at w0 z for this one pair."""
    g = module.group
    w0 = g.element(Weight((0,) * g.rd.rank), g.w0.index)
    total = ZERO
    for pos, p in module.selfdual(g.multiply(w0, z)).terms.items():
        x = g.multiply(w0, pos)  # pos = w0 x
        q = module.generic_polynomial(x, y, "q")
        sign = -1 if (x.length + y.length) % 2 else 1
        total = total + (q * p).scale(sign)
    return total


def koszul_of_series_per_pair(module: PeriodicModule, y: ExtAffineElement, x: ExtAffineElement) -> LaurentPoly:
    """sum over subsets S of the positive roots of (-1)^|S| v^{2|S|} q_{t(sum S) y, x}."""
    g = module.group
    roots = g.rd.positive_roots
    total = ZERO
    for subset in product((0, 1), repeat=len(roots)):
        sigma = Weight((0,) * g.rd.rank)
        for k, b in zip(subset, roots):
            if k:
                sigma = sigma + b
        size = sum(subset)
        q = module.generic_polynomial(g.translate_left(sigma, y), x, "q")
        total = total + q.shift(2 * size).scale(-1 if size % 2 else 1)
    return total


def poset_rows_per_column(order: SemiInfiniteOrder, window) -> tuple[int, ...]:
    """The rows of ``SemiInfinitePoset`` (bit j of row i iff window[i] <= window[j])
    from one ``below`` search per column, sharing nothing between columns."""
    win = tuple(window)
    index = {z: i for i, z in enumerate(win)}
    rows = [0] * len(win)
    for j, b in enumerate(win):
        for a in order.below(b, win):
            rows[index[a]] |= 1 << j
    return tuple(rows)
