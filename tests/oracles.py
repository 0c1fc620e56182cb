"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: breadth-first word search for
lengths, exhaustive subword enumeration for the Bruhat order, a dense
linear solve for self-dual basis elements, orbit enumeration for block
combinatorics, and the per-pair element formulas of the inversion sum and
the Koszul round trip (the module evaluates both at the pair's
translation orbit).
Apart from the last two, which read q and p from the module, and the
per-pair loops of the two selfcheck reports, which call the module's
per-pair entry points, none of it shares code paths with the production
implementations it checks.  The
classical KL recursion on {exponent: coefficient} dicts is kept here too,
as the formula the packed-integer recursion of ``HeckeAlgebra`` replaced,
and so is the Bruhat order as one descent recursion per pair, which the
column walk of ``AffineWeyl.bruhat_column`` replaced, and the generic
polynomial as a sum of LaurentPoly products over an unmemoized vector
partition enumeration, which the packed-integer sums replaced, and every
table kind by one point query per pair, which the tables' evaluation per
translation difference replaced; like the inversion and Koszul oracles it
reads q and p from the module, on modules that no table has filled.  The
semi-infinite order of a window, and the support of each class below its
lead, are decided here two more ways, neither sharing code with the closed
form of ``SemiInfinitePoset.build`` or with the class solve's checked
witnesses: by the translation characterization (Bruhat order after a
certified deep dominant translation), and by a search along the moves that
generate the order, the window pass that decided it before the closed
form.  The search also decides the finite certificate that proves the
closed form per type (``apex_certificate``).  The covers of a window are
read from its columns (``covers_by_columns``), where the library reads
rows.  Lusztig's q-analogue of weight multiplicity, from
Kostant's q-partition function over the positive roots and a signed sum
over the finite Weyl group, gives the spherical coefficients of the
Kazhdan-Lusztig basis without any KL recursion.

The first section holds the small helpers the tests read as references
but the library itself never calls: enumeration by length, words, the dot
action, the literal generating relation of the semi-infinite order, the
bar involution and the shift by v^k, the lower symmetrization, and the
periodic module's generators e(lam).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, product
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, get_args

from periodic_kl.hecke import HeckeAlgebra, HeckeElement
from periodic_kl.laurent import LaurentPoly, ONE, ZERO
from periodic_kl.multiplicity import MultiplicityTables, TableKind
from periodic_kl.orders import SemiInfiniteOrder
from periodic_kl.periodic import KindName, PeriodicElement, PeriodicModule
from periodic_kl.rootdata import RootDatum, Weight, dominance_leq
from periodic_kl.weyl import AffineWeyl, ExtAffineElement


# -- reference helpers ----------------------------------------------------------------------


def elements_of_length_leq(group: AffineWeyl, bound: int) -> Iterator[ExtAffineElement]:
    """All extended elements of length <= bound (BFS over generators and omega).

    The BFS depth from the length-zero elements is the length, so the search
    stops at depth ``bound`` without reading the group's own lengths.
    """
    seen = set()
    frontier: list[ExtAffineElement] = []
    for om in group.omega_elements.values():
        if om not in seen:
            seen.add(om)
            frontier.append(om)
    yield from frontier
    for _ in range(bound):
        nxt: list[ExtAffineElement] = []
        for x in frontier:
            for j in group.affine_generator_indices():
                y = group.right_multiply_gen(x, j)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    yield y
        frontier = nxt


def from_word(group: AffineWeyl, word: Iterable[int], omega: Optional[ExtAffineElement] = None) -> ExtAffineElement:
    """Rebuild ``omega * s_{j1} ... s_{jk}`` from a word and optional omega part."""
    cur = group.identity() if omega is None else omega
    for j in word:
        cur = group.right_multiply_gen(cur, j)
    return cur


def dot_action(group: AffineWeyl, x: ExtAffineElement, lam: Weight, n: int) -> Weight:
    """The n-dilated rho-shifted action: for x = t(nu) w this is w(lam+rho) + n*nu - rho."""
    rho = group.rd.rho
    return x.w.apply(lam + rho) + n * x.trans - rho


def every_table(module: PeriodicModule, window: Sequence[ExtAffineElement], nu: Weight) -> dict[str, dict]:
    """Every table kind of ``module`` over ``window``, as the library builds it:
    p, q and q' keyed (y, x), and the multiplicity views keyed (x, y), the
    truncated one at ``nu``."""
    views = MultiplicityTables(module)
    tables = {kind: module.polynomial_table(kind, window) for kind in get_args(KindName)}
    for kind in get_args(TableKind):
        tables[kind] = views.table(kind, window, nu=nu if kind == "verma_in_projective_truncated" else None)
    return tables


def generating_relation_holds(order: SemiInfiniteOrder, x: ExtAffineElement, j: int) -> bool:
    """The defining comparison x dot_l 0 >= x s_j dot_l 0, evaluated literally."""
    g = order.group
    xs = g.right_multiply_gen(x, j)
    return dominance_leq(order.rd, g.dot_zero(xs), g.dot_zero(x))


def poly_bar(p: LaurentPoly) -> LaurentPoly:
    """The involution v -> v^{-1}."""
    return LaurentPoly({-e: c for e, c in p.coeffs.items()})


def poly_shift(p: LaurentPoly, k: int) -> LaurentPoly:
    """p times v^k."""
    return LaurentPoly({e + k: c for e, c in p.coeffs.items()})


def is_bar_symmetric(p: LaurentPoly) -> bool:
    return all(p.coeffs.get(-e, 0) == c for e, c in p.coeffs.items())


def lower_symmetrization(p: LaurentPoly) -> LaurentPoly:
    """The unique bar-symmetric q with p - q in vZ[v]:
    c_0 + sum_{k>0} c_{-k} (v^k + v^{-k})."""
    d: dict[int, int] = {0: p.coeffs.get(0, 0)}
    for e, c in p.coeffs.items():
        if e < 0:
            d[e] = d.get(e, 0) + c
            d[-e] = d.get(-e, 0) + c
    return LaurentPoly(d)


def hecke_bar(algebra: HeckeAlgebra, h: HeckeElement) -> HeckeElement:
    """bar(h): v -> v^{-1} on the coefficients and H_x -> bar(H_x)."""
    out = algebra.element({})
    for x, p in h.terms.items():
        out = out + algebra.bar_basis(x).scale(poly_bar(p))
    return out


def e_element(module: PeriodicModule, lam: Weight) -> PeriodicElement:
    """e(lam) = sum_{w in W} v^{len(w)} B_{t(lam) w}, the self-dual element at t(lam)."""
    g = module.group
    return PeriodicElement({g.element(lam, w): LaurentPoly({w.length: 1}) for w in g.finite_elements})


def class_element(module: PeriodicModule, w_index: int) -> PeriodicElement:
    """The class element SD_{t(0)w} as a PeriodicElement, built from the terms
    the module stores by key."""
    return module._element(w_index, (0,) * module.rd.rank)


# -- brute-force oracles ----------------------------------------------------------------------


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


def bruhat_leq_by_descent(group: AffineWeyl, x: ExtAffineElement, y: ExtAffineElement) -> bool:
    """x <= y by the per-pair descent recursion: False across cosets, and
    if ys < y then x <= y iff (xs <= ys if xs < x else x <= ys)."""
    if x.omega_component != y.omega_component:
        return False
    lx, ly = x.length, y.length
    while True:
        if lx > ly:
            return False
        if ly == 0:
            return x == y
        for j in group.affine_generator_indices():
            ys = group.right_multiply_gen(y, j)
            if ys.length < ly:
                xs = group.right_multiply_gen(x, j)
                if xs.length < lx:
                    x, lx = xs, lx - 1
                y, ly = ys, ly - 1
                break
        else:
            raise AssertionError("positive-length element with no descent")


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
        for y in elements_of_length_leq(group, max(x.length - 1, 0))
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
        rows.append([Fraction(col.coefficient(z).coeffs.get(e, 0)) for col in columns])
        rhs.append(Fraction(-const.coefficient(z).coeffs.get(e, 0)))
    solution = _solve_unique(rows, rhs)

    terms = {x: ONE}
    for (y, k), a in zip(unknowns, solution):
        assert a.denominator == 1, "non-integral KL coefficient"
        if a:
            cur = terms.get(y, ZERO)
            terms[y] = cur + LaurentPoly({k: int(a)})
    return algebra.element(terms)


def kl_basis_by_dicts(algebra: HeckeAlgebra, x: ExtAffineElement, memo: dict) -> HeckeElement:
    """The self-dual basis element C_x by the classical recursion on dicts.

    With s_j the lowest right descent of x and u = x s_j, the product
    C_u (H_s + v) is built in one mutable {element: {exponent: coefficient}}
    dict by exponent shifts alone:

        H_y (H_s + v) = H_{ys} + v^{-1} H_y   if ys < y,
                        H_{ys} + v H_y        otherwise.

    One pass over the lengths len(x) - 1, ..., 0 then subtracts m C_y at
    every y whose coefficient is not in vZ[v], where m is its bar-symmetric
    lower part, one shifted and scaled copy of C_y per monomial of m.  Each
    m is read from the accumulator after every correction above it, with no
    use of mu(y, u); ``HeckeAlgebra.kl_basis`` reads every m off the product
    as mu(y, u) and needs no order, so the two do not share the step that
    finds the corrections.  The oracle keeps the lowest descent on purpose:
    ``HeckeAlgebra.kl_basis`` steps through a memoized u, else the u with
    the most right descents, so the two reach each element by different
    paths, and their agreement checks the library's step as well.
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
                m = lower_symmetrization(p)
                if not is_bar_symmetric(m) or m.coeffs.get(0, 0) != p.coeffs.get(0, 0):
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
            nu = dot_action(group, g, mu, n)
            if max(abs(c) for c in nu) > box:
                continue
            if nu not in seen:
                seen.add(nu)
                frontier.append(nu)
    return frozenset(seen)


def dot_stabilizer(group: AffineWeyl, lam: Weight, n: int, max_len: int = 4) -> list[ExtAffineElement]:
    """All affine-group elements of length <= max_len fixing lam under dot_n."""
    out = []
    for g in elements_of_length_leq(group, max_len):
        if g.omega_component != group.rd.coset_tag(Weight((0,) * group.rd.rank)):
            continue
        if dot_action(group, g, lam, n) == lam:
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
        total = total + poly_shift(q, 2 * size).scale(-1 if size % 2 else 1)
    return total


def inversion_report_per_pair(module: PeriodicModule, window: Sequence[ExtAffineElement]) -> list:
    """The deviations (y, z, S - delta) of the inversion identity by one
    ``inversion_sum`` call per same-coset window pair, which the report's
    evaluation per translation-difference block replaced."""
    cosets: dict[tuple, list[ExtAffineElement]] = {}
    for z in window:
        cosets.setdefault(z.omega_component, []).append(z)
    bad = []
    for y in window:
        for z in cosets[y.omega_component]:
            value = module.inversion_sum(y, z)
            expected = ONE if y == z else ZERO
            if value != expected:
                bad.append((y, z, value - expected))
    return bad


def koszul_report_per_pair(module: PeriodicModule, window: Sequence[ExtAffineElement]) -> list:
    """The deviations (y, x, K - p) of the Koszul round trip by one
    ``koszul_of_series`` call per x in the window and y in the support of
    the self-dual element at x, which the report's evaluation per class
    term replaced."""
    bad = []
    for x in window:
        for y, p in module.selfdual(x).terms.items():
            value = module.koszul_of_series(y, x)
            if value != p:
                bad.append((y, x, value - p))
    return bad


def poset_rows_per_column(order: SemiInfiniteOrder, window) -> tuple[int, ...]:
    """The rows of ``SemiInfinitePoset`` (bit j of row i iff window[i] <= window[j])
    from the translation characterization, one Bruhat column walk per window
    element, sharing no code with the closed form or the move search."""
    win = tuple(window)
    mu = order.sufficient_mu(win)
    rows = [0] * len(win)
    for j, b in enumerate(win):
        for i, below in enumerate(order.column_via_translation(win, b, mu)):
            if below:
                rows[i] |= 1 << j
    return tuple(rows)


def poset_rows_by_search(order: SemiInfiniteOrder, window) -> tuple[int, ...]:
    """The rows of ``SemiInfinitePoset`` from the order the generating moves
    generate: the window pass that decided the library's order before its
    closed form, sharing no code with it or with the Bruhat oracle.

    Every element z carries E(z) = e * rc(z dot 0) as integers, so x dot 0
    <= z dot 0 in dominance order iff E(z) - E(x) is a nonnegative multiple
    of e in every coordinate, and sum(E) strictly drops along every move.
    The columns (all window x <= y) are decided in ascending height, each by
    one down-closure search of y along the moves.  Its candidates, the x
    with x dot 0 <= y dot 0, are the bits of one mask per residue class of E
    mod e ANDed with one prefix mask per coordinate.  Every chain from y down
    to a candidate x stays in [x dot 0, y dot 0], so the search never leaves
    the elements whose E dominates the meet (coordinatewise minimum) of the
    candidates' E and whose sum(E) is at least their least sum.  A window
    element z that the search reaches is lower, so its column is already
    decided and, by induction on the height, below y: the search ORs it in
    and does not expand z.  A chain from y to a candidate x either reaches x
    without meeting another window element or meets a first one z >= x;
    either way x lands in the column of y, so the pass is exact for any
    window.
    """
    rd, group = order.rd, order.group
    win = tuple(window)
    n = len(win)
    e = rd.lattice_index_e
    es = [rd.scaled_root_coordinates(group.dot_zero(z)) for z in win]
    classes: dict[tuple[int, ...], int] = {}
    for i, ev in enumerate(es):
        r = tuple(v % e for v in ev)
        classes[r] = classes.get(r, 0) | 1 << i
    prefixes = []
    for c in range(rd.rank):
        by = sorted(range(n), key=lambda i: es[i][c])
        masks = [0]
        for i in by:
            masks.append(masks[-1] | 1 << i)
        prefixes.append(([es[i][c] for i in by], masks))
    moves = _generating_moves(order)
    decided: dict[tuple, int] = {}
    for j in sorted(range(n), key=lambda j: sum(es[j])):
        ey = es[j]
        cand = classes[tuple(v % e for v in ey)]
        for (values, masks), v in zip(prefixes, ey):
            cand &= masks[bisect_right(values, v)]
        rcs = [es[i] for i in _bits(cand)]
        key = win[j].key
        decided[key] = _descend(moves, rd.l, key, ey, rcs, decided, 1 << j, cand)
    rows = [0] * n
    for j, z in enumerate(win):
        for i in _bits(decided[z.key]):
            rows[i] |= 1 << j
    return tuple(rows)


def covers_by_columns(rows: Sequence[int]) -> set[tuple[int, int]]:
    """The cover pairs (i, j), i covered by j, of a partial order given by
    ``rows`` (bit j of rows[i] iff i <= j), read off the columns: i < j is a
    cover iff no k has i < k < j, that is iff the strict up-set of i (row i)
    and the strict down-set of j (column j) do not meet.  Shares nothing
    with ``SemiInfinitePoset.hasse_edges``, which reads rows only."""
    columns = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            columns[j] |= 1 << i
    covers = set()
    for i, row in enumerate(rows):
        up = row & ~(1 << i)
        for j in _bits(up):
            if not up & columns[j] & ~(1 << j):
                covers.add((i, j))
    return covers


def generated_leq(order: SemiInfiniteOrder, x: ExtAffineElement, y: ExtAffineElement) -> bool:
    """x <= y in the order the generating moves generate: the search of
    ``poset_rows_by_search`` on the window (x, y)."""
    return x is y or bool(poset_rows_by_search(order, (x, y))[0] >> 1 & 1)


def apex_certificate(order: SemiInfiniteOrder, apexes) -> list[str]:
    """The failures of the first of the checks (a)-(d) of the ``orders``
    module docstring that fails for the apex table ``apexes`` (``[w][v]`` =
    E(d(w, v)) = e C^{-1} d(w, v)), or [] when all four pass and the table
    proves x <= y iff mu - lam - d(w, v) in Q+ for the order's type.  (c)
    and (d) are decided by ``generated_leq``."""
    rd, g = order.rd, order.group
    e = rd.lattice_index_e
    n = len(g.finite_elements)
    zero = Weight((0,) * rd.rank)

    def in_cone(ev) -> bool:
        return all(c >= 0 and c % e == 0 for c in ev)

    def weight(ev) -> Weight:
        return sum(((c // e) * alpha for c, alpha in zip(ev, rd.simple_roots)), zero)

    # (a) <=_c is a preorder
    fails = [f"(a) d({w}, {w}) = {apexes[w][w]}" for w in range(n) if any(apexes[w][w])]
    fails += [f"(a) d({w}, {v}) + d({v}, {u}) - d({w}, {u}) not in Q+" for w, v, u in product(range(n), repeat=3)
              if not in_cone(map(sub, map(add, apexes[w][v], apexes[v][u]), apexes[w][u]))]
    if fails:
        return fails
    # (b) the move t(0) w -> t(k w(b)) w s_b at its least |k| lies in <=_c
    for w in range(n):
        for pos, wbeta in enumerate(g.root_images[w]):
            k = 0 if g.sign_table[w][pos] > 0 else 1
            ws = g._fin_mul[w][g.reflection_index[pos]]
            gap = map(sub, rd.scaled_root_coordinates(-k * wbeta), apexes[ws][w])
            if not in_cone(gap):
                fails.append(f"(b) the move of root {pos} from t(0) w[{w}] (k = {k}) leaves the cone")
    if fails:
        return fails
    # (c) t(0) w <=_g t(d(w, v)) v
    for w, v in product(range(n), repeat=2):
        if not generated_leq(order, g.element(zero, w), g.element(weight(apexes[w][v]), v)):
            fails.append(f"(c) t(0) w[{w}] is not below t(d) w[{v}] in the generated order")
    if fails:
        return fails
    # (d) t(0) v <=_g t(alpha_i) v
    return [f"(d) t(0) w[{v}] is not below t(alpha_{i + 1}) w[{v}] in the generated order"
            for v in range(n) for i, alpha in enumerate(rd.simple_roots)
            if not generated_leq(order, g.element(zero, v), g.element(alpha, v))]


def _generating_moves(order: SemiInfiniteOrder) -> tuple[tuple[tuple, ...], ...]:
    """The generating moves z -> z r < z, r = t(k b) s_b, per finite part w of z.

    For z = t(lam) w the move gives t(lam + k w(b)) (w s_b), lowers z dot 0
    by c w(b) with c = ht(b^) - l k, and is a strict descent iff c and w(b)
    have the same sign.  Since 0 < ht(b^) < l, the admissible |c| are
    ht(b^), ht(b^) + l, ... (k = 0, -1, ...) when w(b) > 0 and l - ht(b^),
    2l - ht(b^), ... (k = 1, 2, ...) when w(b) < 0.  One row per positive
    root b holds: the least |c|, its k, the step of k per step l of |c|, the
    drop of sum(E) per unit of |c|, the nonzero entries of |E(w(b))|, w(b),
    |E(w(b))| and the index of w s_b.
    """
    rd, g = order.rd, order.group
    l = rd.l
    table = []
    for w in g.finite_elements:
        rows = []
        for pos, beta in enumerate(rd.positive_roots):
            wbeta = g.root_images[w.index][pos]
            rc = tuple(map(abs, rd.scaled_root_coordinates(wbeta)))
            ht = sum(rd.coroot(beta))
            first = (ht, 0, -1) if g.sign_table[w.index][pos] > 0 else (l - ht, 1, 1)
            nonzero = tuple((i, r) for i, r in enumerate(rc) if r)
            w2 = g._fin_mul[w.index][g.reflection_index[pos]]
            rows.append(first + (sum(rc), nonzero, wbeta, rc, w2))
        table.append(tuple(rows))
    return tuple(table)


def _descend(moves, l: int, start: tuple, ey: tuple[int, ...], rcs: list[tuple[int, ...]],
             decided: dict[tuple, int], found: int, goal: int) -> int:
    """The down-closure search of the element with key ``start`` and E = ``ey``.

    It descends by generating moves on keys ``(trans coords, w index)``, only
    to elements whose E dominates the meet of the candidates' E vectors
    ``rcs`` and whose sum(E) is at least their least sum.  Reaching a key of
    ``decided`` ORs its column into ``found`` and does not expand that key.
    The search ends when ``found`` equals ``goal`` or nothing is left to
    expand, and returns ``found``.
    """
    meet = tuple(map(min, zip(*rcs)))
    floor = min(map(sum, rcs))
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
                    if key in decided:
                        found |= decided[key]
                    else:
                        stack.append((nt, w2, tuple(v - a * r for v, r in zip(ev, rc))))
                a += l
                k += dk
    return found


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def module_with_classes_of(module: PeriodicModule) -> PeriodicModule:
    """A new module over the same group holding every class of ``module``
    (solved there if need be) and no memo: the classes are shared, the
    generic polynomials are evaluated afresh."""
    fresh = PeriodicModule(module.group)
    for w in module.group.finite_elements:
        fresh.preload_class(w.index, class_element(module, w.index))
    return fresh


def point_queries(module: PeriodicModule, nu: Weight) -> dict[str, Callable]:
    """The point query of every table kind on ``module``, by the table's key:
    p, q and q' at (y, x), the multiplicity views at (x, y), the truncated
    one at ``nu``."""
    views = MultiplicityTables(module)
    return {
        "periodic_p": module.p_polynomial,
        "generic_q": lambda y, x: module.generic_polynomial(y, x, "q"),
        "generic_qprime": lambda y, x: module.generic_polynomial(y, x, "qprime"),
        "simple_in_verma": views.simple_in_verma,
        "verma_in_projective_truncated": lambda x, y: views.verma_in_projective(x, y, nu),
        "babyverma_in_projective": views.baby_verma_in_projective,
    }


def tables_by_point_queries(module: PeriodicModule, window: Sequence[ExtAffineElement],
                            nu: Weight) -> dict[str, dict]:
    """Every table kind over ``window`` by one point query per pair, zeros
    omitted, keyed as ``every_table``: the per-pair loops that the tables'
    evaluation per translation difference replaced.  Each kind runs on a
    module of its own with the classes of ``module``, whose memos neither a
    table nor another kind has filled."""
    tables = {}
    for kind in (*get_args(KindName), *get_args(TableKind)):
        value = point_queries(module_with_classes_of(module), nu)[kind]
        tables[kind] = {(a, b): p for a in window for b in window if not (p := value(a, b)).is_zero()}
    return tables


def class_support_below_lead(module: PeriodicModule, w_index: int) -> bool:
    """Every position of the class element SD_{t(0)w} lies below its lead
    t(0)w, decided by the translation characterization in one Bruhat column
    walk down the translated lead."""
    order = module.order
    lead = module.group.element(Weight((0,) * module.rd.rank), w_index)
    support = list(class_element(module, w_index).terms)
    return all(order.column_via_translation(support, lead, order.sufficient_mu([lead, *support])))


def generic_polynomial_by_dicts(module: PeriodicModule, y: ExtAffineElement, x: ExtAffineElement,
                                kind: str = "q") -> LaurentPoly:
    """q_{y,x} (or q'_{y,x} for ``kind="qprime"``) on LaurentPoly dicts: the sum
    of p times series over ``generic_terms_by_dicts``."""
    total = ZERO
    for p, series in generic_terms_by_dicts(module, y, x, kind):
        total = total + p * series
    return total


def generic_terms_by_dicts(module: PeriodicModule, y: ExtAffineElement, x: ExtAffineElement,
                           kind: str = "q") -> list[tuple[LaurentPoly, LaurentPoly]]:
    """The pairs (p, series) whose products sum to q_{y,x} (or q'_{y,x}): for
    every term p B_{t(lam) y.w} of the class element SD_{t(0) x.w} with
    sigma = rc(lam - (y.trans - x.trans)) integral and >= 0, the partition
    series of sigma, enumerated afresh, with no memo, for each term."""
    rd = module.rd
    e = rd.lattice_index_e
    roots_rc = [tuple(c // e for c in rd.scaled_root_coordinates(b)) for b in rd.positive_roots]
    target = rd.scaled_root_coordinates(tuple(map(sub, y.trans, x.trans)))
    terms = []
    for z, p in class_element(module, x.w.index).terms.items():
        if z.w.index != y.w.index:
            continue
        diff = tuple(map(sub, rd.scaled_root_coordinates(z.trans), target))
        if any(d < 0 or d % e for d in diff):
            continue
        series = _vector_partitions(roots_rc, 0, tuple(d // e for d in diff), kind == "q")
        if series:
            terms.append((p, series))
    return terms


def _vector_partitions(roots_rc, idx: int, rem: tuple[int, ...], weighted: bool) -> LaurentPoly:
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
        total = total + (poly_shift(tail, 2 * k) if weighted else tail)
    return total


def kostant_q_partition(rd: RootDatum, gamma: Sequence[int]) -> LaurentPoly:
    """Kostant's q-partition function P_q(gamma): the sum of q^k over the ways
    of writing the weight gamma as a sum of k positive roots, with repetition,
    as a polynomial in q; zero unless gamma is a nonnegative integer
    combination of the simple roots.  The weighted partition series of
    ``_vector_partitions`` at q = v^2."""
    e = rd.lattice_index_e
    scaled = rd.scaled_root_coordinates(gamma)
    if any(c < 0 or c % e for c in scaled):
        return ZERO
    roots_rc = [tuple(c // e for c in rd.scaled_root_coordinates(b)) for b in rd.positive_roots]
    series = _vector_partitions(roots_rc, 0, tuple(c // e for c in scaled), True)
    return LaurentPoly({k // 2: c for k, c in series.coeffs.items()})


def q_weight_multiplicity(group: AffineWeyl, lam: Weight, mu: Weight) -> LaurentPoly:
    """Lusztig's q-analogue of the multiplicity of the weight mu in the simple
    module of highest weight lam, as a polynomial in q:

        m^mu_lam(q) = sum_{w in W} (-1)^len(w) P_q(w(lam + rho) - (mu + rho)).

    At q = 1 this is Kostant's multiplicity formula."""
    rho = group.rd.rho
    total = ZERO
    for w in group.finite_elements:
        term = kostant_q_partition(group.rd, w.apply(lam + rho) - (mu + rho))
        total = total - term if w.length % 2 else total + term
    return total
