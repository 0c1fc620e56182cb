import importlib.util
import random
import re
import sys
from pathlib import Path

import pytest

from periodic_kl import hecke, laurent
from periodic_kl.cli import main
from periodic_kl.hecke import HeckeAlgebra, ResourceError
from periodic_kl.laurent import LaurentPoly, ONE, V, VINV
from periodic_kl.orders import standard_window
from periodic_kl.rootdata import _CARTAN, Weight
from periodic_kl.weyl import AffineWeyl
from oracles import elements_of_length_leq, hecke_bar, kl_basis_by_dicts, kl_by_linear_solve

_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _kl_orbits() -> dict:
    """``KL_ORBITS`` of the benchmark: (type, rank, l) -> base elements of length 20-26."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.KL_ORBITS


def random_ascent(group, start, length, rng):
    """start * s_j1 * ... * s_jk of the given length, each factor a random ascent."""
    x = start
    while x.length < length:
        ups = [y for y in (group.right_multiply_gen(x, j) for j in group.affine_generator_indices())
               if y.length > x.length]
        x = rng.choice(ups)
    return x


def rand_element(ctx, rng, size=3, max_len=3):
    elts = list(elements_of_length_leq(ctx.group, max_len))
    terms = {}
    for x in rng.sample(elts, size):
        terms[x] = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(2)})
    return ctx.hecke.element(terms)


def test_generator_multiplication_examples(a1):
    H, W = a1.hecke, a1.group
    e, s = W.identity(), W.simple_reflection(0)
    assert H.right_mul_gen(H.basis(e), 1) == H.basis(s)
    sq = H.multiply(H.basis(s), H.basis(s))
    assert sq.coefficient(e) == ONE
    assert sq.coefficient(s) == VINV - V
    # (H_s + v) H_s = v^{-1} (H_s + v)
    cs = H.basis(s) + H.basis(e).scale(V)
    lhs = H.right_mul_gen(cs, 1)
    assert lhs == cs.scale(VINV)


def test_length_additive_products(a2):
    H, W = a2.hecke, a2.group
    rng = random.Random(0)
    elts = list(elements_of_length_leq(W, 4))
    checked = 0
    while checked < 50:
        x, y = rng.choice(elts), rng.choice(elts)
        z = W.multiply(x, y)
        if z.length != x.length + y.length:
            continue
        assert H.multiply(H.basis(x), H.basis(y)) == H.basis(z)
        checked += 1


def test_translation_products_are_additive(a1):
    H, W = a1.hecke, a1.group
    alpha = a1.rd.simple_roots[0]
    t1 = W.translation(alpha)
    t2 = W.translation(2 * alpha)
    assert W.multiply(t1, t1) == t2
    assert t2.length == 2 * t1.length
    assert H.multiply(H.basis(t1), H.basis(t1)) == H.basis(t2)


def test_unit_and_identity(a2):
    H = a2.hecke
    rng = random.Random(1)
    h = rand_element(a2, rng)
    one = H.basis(a2.group.identity())
    assert H.multiply(h, one) == h
    assert H.multiply(one, h) == h


def test_associativity_random(a2):
    H = a2.hecke
    rng = random.Random(2)
    for _ in range(8):
        h1 = rand_element(a2, rng, size=2, max_len=3)
        h2 = rand_element(a2, rng, size=2, max_len=3)
        h3 = rand_element(a2, rng, size=2, max_len=3)
        assert H.multiply(H.multiply(h1, h2), h3) == H.multiply(h1, H.multiply(h2, h3))


def test_bar_examples(a1):
    H, W = a1.hecke, a1.group
    e, s = W.identity(), W.simple_reflection(0)
    assert hecke_bar(H, H.basis(e)) == H.basis(e)
    bs = H.bar_basis(s)
    assert bs.coefficient(s) == ONE and bs.coefficient(e) == V - VINV
    cs = H.basis(s) + H.basis(e).scale(V)
    assert hecke_bar(H, cs) == cs


def test_bar_involution_and_homomorphism(a1, a2):
    rng = random.Random(3)
    for ctx in (a1, a2):
        H = ctx.hecke
        for _ in range(6):
            h1 = rand_element(ctx, rng, size=2)
            h2 = rand_element(ctx, rng, size=2)
            assert hecke_bar(H, hecke_bar(H, h1)) == h1
            assert hecke_bar(H, H.multiply(h1, h2)) == H.multiply(hecke_bar(H, h1), hecke_bar(H, h2))


@pytest.mark.parametrize("fixture", ["a1", "a2", "b2", "c2", "g2", "a3"])
def test_bar_of_the_inverse_inverts(fixture, request):
    # bar(H_{x^{-1}}) = (H_x)^{-1}; H_x is a unit, so a left inverse is the inverse
    ctx = request.getfixturevalue(fixture)
    H, W = ctx.hecke, ctx.group
    one = H.basis(W.identity())
    for x in standard_window(W, 1):
        assert H.multiply(H.bar_basis(W.inverse(x)), H.basis(x)) == one


def test_braid_relations_all_types(a1, a2, b2, g2):
    # finite braid orders read off from the realized group
    for ctx in (a1, a2, b2, g2):
        W, H = ctx.group, ctx.hecke
        for i in W.affine_generator_indices():
            for j in W.affine_generator_indices():
                if i == j:
                    continue
                m = _braid_order(W, i, j)
                if m is None:
                    continue
                assert _alternating(H, i, j, m) == _alternating(H, j, i, m)


def _braid_order(W, i, j, cap=8):
    si, sj = W.affine_generator(i), W.affine_generator(j)
    prod = W.multiply(si, sj)
    cur = prod
    for m in range(1, cap + 1):
        if cur == W.identity():
            return m
        cur = W.multiply(cur, prod)
    return None  # infinite (e.g. the two generators of affine A1)


def _alternating(H, i, j, m):
    out = H.basis(H.group.identity())
    gens = [i, j]
    for k in range(m):
        out = H.right_mul_gen(out, gens[k % 2])
    return out


def test_kl_basis_examples(a1):
    H, W = a1.hecke, a1.group
    e, s = W.identity(), W.simple_reflection(0)
    assert H.kl_basis(e) == H.basis(e)
    kl = H.kl_basis(s)
    assert kl.coefficient(s) == ONE and kl.coefficient(e) == V and len(kl.terms) == 2


def test_kl_basis_w0_in_a2(a2):
    H, W = a2.hecke, a2.group
    w0 = W.element(Weight((0, 0)), W.w0.index)
    kl = H.kl_basis(w0)
    assert len(kl.terms) == 6
    for y, p in kl.terms.items():
        assert p == LaurentPoly({W.w0.length - y.length: 1})
    assert hecke_bar(H, kl) == kl


def test_kl_basis_properties(a2):
    H, W = a2.hecke, a2.group
    for x in elements_of_length_leq(W, 3):
        kl = H.kl_basis(x)
        assert kl.coefficient(x) == ONE
        for y, p in kl.terms.items():
            if y != x:
                assert p.in_v_times_Zv()
                assert W.bruhat_leq(y, x)
        assert hecke_bar(H, kl) == kl


def test_kl_basis_against_linear_solve_finite_a2(a2):
    H, W = a2.hecke, a2.group
    for w in W.finite_elements:
        x = W.element(Weight((0, 0)), w.index)
        assert H.kl_basis(x) == kl_by_linear_solve(H, x)


@pytest.mark.parametrize("fixture", ["a2", "b2", "g2", "a3"])
def test_kl_basis_against_linear_solve_affine(fixture, request):
    # the first elements of length 4 with a non-zero translation part, in
    # every length-zero coset (three non-identity ones in A3)
    ctx = request.getfixturevalue(fixture)
    H, W = ctx.hecke, ctx.group
    by_coset: dict = {}
    for x in elements_of_length_leq(W, 4):
        if x.length == 4 and any(x.trans):
            by_coset.setdefault(x.omega_component, []).append(x)
    assert len(by_coset) == len(W.omega_elements)
    for xs in by_coset.values():
        for x in sorted(xs, key=lambda z: z.key)[:3]:
            assert H.kl_basis(x) == kl_by_linear_solve(H, x), W.format_element(x)


# Seeded element lengths per datum: 8-30, capped on A3, whose intervals grow fastest.
_DICT_ORACLE_LENGTHS = {"a1": (8, 30), "a2": (8, 30), "b2": (8, 30), "c2": (8, 30), "g2": (8, 30), "a3": (8, 16)}


@pytest.mark.parametrize("fixture", sorted(_DICT_ORACLE_LENGTHS))
def test_kl_basis_against_dict_recursion(fixture, request):
    # seeded elements in every length-zero coset, plus every KL_ORBITS base
    # element of the datum, against the {exponent: coefficient} dict recursion
    ctx = request.getfixturevalue(fixture)
    W = ctx.group
    H = HeckeAlgebra(W)
    memo: dict = {}
    rng = random.Random(f"kl-dicts:{fixture}")
    lo, hi = _DICT_ORACLE_LENGTHS[fixture]
    xs = [random_ascent(W, om, rng.randint(lo, hi), rng) for om in W.omega_elements.values() for _ in range(2)]
    datum = (ctx.rd.cartan_type, ctx.rd.rank, ctx.rd.l)
    xs += [W.parse_element(text) for text in _kl_orbits().get(datum, ())]
    for x in xs:
        assert H.kl_basis(x).terms == kl_basis_by_dicts(H, x, memo).terms, W.format_element(x)


@pytest.mark.parametrize("fixture", ["a2", "b2", "g2", "a3"])
def test_kl_basis_is_equivariant_under_length_zero_elements(fixture, request):
    # left multiplication by a length-zero omega is a length-preserving
    # automorphism of the Bruhat order, so C_{omega x} is C_x with every H_y
    # relabelled H_{omega y}: the premise on which the benchmark seeds its
    # ``hecke kl`` queries from one base element per datum
    ctx = request.getfixturevalue(fixture)
    W = ctx.group
    H = HeckeAlgebra(W)
    datum = (ctx.rd.cartan_type, ctx.rd.rank, ctx.rd.l)
    for text in _kl_orbits()[datum]:
        x = W.parse_element(text)
        kl = H.kl_basis(x)
        for omega in W.omega_elements.values():
            moved = {W.multiply(omega, y): p for y, p in kl.terms.items()}
            assert H.kl_basis(W.multiply(omega, x)).terms == moved, (text, repr(omega))


@pytest.mark.parametrize("fixture", ["a1", "a2", "b2", "c2", "g2", "a3"])
def test_every_kl_memo_entry_is_its_bruhat_interval_with_no_zero(fixture, request):
    # by positivity (Kazhdan-Lusztig 1980) supp C_y = [e, y] and no coefficient
    # on it vanishes, so the memo keeps the accumulator with no filter.  The
    # keys lie in [e, y] by the Bruhat column, and fill it: every z in [e, y]
    # steps down inside [e, y] to its length-zero bottom, which is a key, so a
    # missing z leaves some k s_j (k a key) below y that is not a key
    ctx = request.getfixturevalue(fixture)
    W = ctx.group
    H = HeckeAlgebra(W)
    rng = random.Random(f"kl-interval:{fixture}")
    xs = [random_ascent(W, om, rng.randint(10, 16), rng) for om in W.omega_elements.values()]
    # and the first KL_ORBITS base element of the datum, a benchmark query
    xs += [W.parse_element(text) for text in _kl_orbits().get((ctx.rd.cartan_type, ctx.rd.rank, ctx.rd.l), ())[:1]]
    for x in xs:
        H.kl_basis(x)
    gens = W.affine_generator_indices()
    assert len(H._kl_cache) > 3
    for i, (cy, _) in H._kl_cache.items():
        y = W._elts[i]
        assert all(cy.values()), repr(y)
        assert W._id(W.reduced_word(y)[1]) in cy
        keys = sorted(cy)
        edge = sorted({b if b >= 0 else ~b for a in keys for b in (W._step(a, j) for j in gens)} - cy.keys())
        column = W.bruhat_column([W._elts[z] for z in keys + edge], y)
        assert all(column[:len(keys)]) and not any(column[len(keys):]), repr(y)


def memo_reads(monkeypatch, H):
    """The ids, in order, that H's KL recursion asks its memo for, recorded
    around ``H._kl_packed``: after ``kl_basis(x)``, x's id, then the u = x s_j
    that the recursion at x steps down to."""
    reads = []
    packed = H._kl_packed

    def recorded(i):
        reads.append(i)
        return packed(i)

    monkeypatch.setattr(H, "_kl_packed", recorded)
    return reads


def test_kl_correction_outside_the_product_support_is_an_internal_error(a2):
    # C_u (H_s + v) = C_{w0} + C_{s_1} for w0 = s_1 s_2 s_1 and u = w0 s_1, so
    # the recursion at w0 corrects by a memoized C_y; a stray term planted in
    # every memoized C_y except C_u lies outside [e, w0], the product's support
    W = a2.group
    H = HeckeAlgebra(W)
    w0 = W.element(Weight((0, 0)), W.w0.index)
    u = W.right_multiply_gen(w0, 1)
    assert u.length == 2
    for y in elements_of_length_leq(W, 2):
        if y.omega_component == w0.omega_component:
            H.kl_basis(y)
    stray = W._id(W.translation(Weight((3, 3))))
    for i, (cy, bound) in list(H._kl_cache.items()):
        if i != W._id(u):
            H._kl_cache[i] = ({**cy, stray: 1}, bound)
    with pytest.raises(AssertionError, match="outside the support of the product"):
        H.kl_basis(w0)


def test_kl_memo_entry_not_closed_under_going_down_is_an_internal_error(monkeypatch, a2):
    # the recursion at w0 steps down to u = w0 s_1, the one memoized u, and
    # visits each s_1-orbit of supp C_u at its lower element; a stray upper
    # element planted in C_u, whose lower element is not a key, has no visit
    # and must not be dropped silently
    W = a2.group
    H = HeckeAlgebra(W)
    w0 = W.element(Weight((0, 0)), W.w0.index)
    u = W.right_multiply_gen(w0, 1)
    z = W.translation(Weight((3, 3)))
    stray = z if W.right_descent(z, 1) else W.right_multiply_gen(z, 1)
    assert W.right_descent(stray, 1)
    cu, bound = H._kl_packed(W._id(u))
    H._kl_cache[W._id(u)] = ({**cu, W._id(stray): 1}, bound)
    reads = memo_reads(monkeypatch, H)
    with pytest.raises(AssertionError, match="not closed under going down"):
        H.kl_basis(w0)
    assert reads[:2] == [W._id(w0), W._id(u)]


def test_kl_down_move_with_a_constant_term_is_an_internal_error(monkeypatch, a2):
    # x = t(1,1) has right descent s_1, and the recursion steps down to the
    # memoized u = x s_1 (asserted below); y = s_1 < u with ys < y and
    # len u - len y even, so the product reads v^{-1} h_{y,u}, the right
    # shift of p_y, exact only on a p_y with no low digit (constant
    # term).  A constant term planted in C_u at y must be refused, not
    # shifted away
    W = a2.group
    x = W.parse_element("t(1,1)*w[]")
    u, y = W.right_multiply_gen(x, 1), W.simple_reflection(0)
    assert not W.right_descent(x, 0) and u.length == x.length - 1
    assert W.right_descent(y, 1) and (u.length - y.length) % 2 == 0
    H = HeckeAlgebra(W)
    cu, bound = H._kl_packed(W._id(u))
    H._kl_cache[W._id(u)] = ({**cu, W._id(y): cu[W._id(y)] + 1}, bound + 1)
    reads = memo_reads(monkeypatch, H)
    with pytest.raises(AssertionError, match="unexpected correction shape"):
        H.kl_basis(x)
    assert reads[:2] == [W._id(x), W._id(u)]


def test_kl_wrong_lead_is_an_internal_error(monkeypatch, a2):
    # the coefficient of H_x in C_u (H_s + v) is the lead of C_u, and no
    # correction m C_y, y < x, moves it: a memoized C_u with lead 2, which
    # the recursion at x steps down to, must be refused, not returned as a
    # C_x with lead 2
    W = a2.group
    x = W.parse_element("t(1,1)*w[]")
    u = W.right_multiply_gen(x, 1)
    assert not W.right_descent(x, 0) and u.length == x.length - 1
    H = HeckeAlgebra(W)
    cu, bound = H._kl_packed(W._id(u))
    H._kl_cache[W._id(u)] = ({**cu, W._id(u): 2}, bound + 1)
    reads = memo_reads(monkeypatch, H)
    with pytest.raises(AssertionError, match="wrong leading coefficient"):
        H.kl_basis(x)
    assert reads[:2] == [W._id(x), W._id(u)]


def test_kl_correction_by_a_negative_low_digit(monkeypatch, a2):
    # x = t(-2,1)*w[1] has right descent s_1, and the recursion steps down to
    # the memoized u = x s_1 (asserted below); y = s_1 < u with ys < y, and
    # h_{y,u} = v^3 has no v term.  Planting C_u - v H_y
    # makes the planted mu(y, u), the v term of h_{y,u}, equal -1: the
    # product's constant term at the upper element y is h_{ys,u}(0) +
    # [v] h_{y,u} = -1, so the recursion reads m = -1 there, the balanced low
    # digit's negative branch.  As len u - len y is odd, p_y's digit i is the
    # coefficient of v^(1 + 2i): the plant subtracts 1 from its low digit
    W = a2.group
    x = W.parse_element("t(-2,1)*w[1]")
    u, y = W.right_multiply_gen(x, 1), W.simple_reflection(0)
    assert not W.right_descent(x, 0) and u.length == x.length - 1
    assert W.right_descent(y, 1) and (u.length - y.length) % 2 == 1
    true_u = kl_basis_by_dicts(HeckeAlgebra(W), u, {})
    assert true_u.coefficient(y) == LaurentPoly({3: 1})
    planted = true_u - HeckeAlgebra(W).basis(y).scale(V)

    H = HeckeAlgebra(W)
    cu, bound = H._kl_packed(W._id(u))
    H._kl_cache[W._id(u)] = ({**cu, W._id(y): cu[W._id(y)] - 1}, bound + 1)
    expected = kl_basis_by_dicts(HeckeAlgebra(W), x, {u: planted})
    reads = memo_reads(monkeypatch, H)
    assert H.kl_basis(x).terms == expected.terms
    assert reads[:2] == [W._id(x), W._id(u)]
    # the planted -v H_y (H_s + v) = -v H_{ys} - H_y is exactly what the
    # correction by m C_y = -(H_y + v H_{ys}) takes back: C_x comes out true
    assert expected == kl_basis_by_dicts(HeckeAlgebra(W), x, {})


@pytest.mark.parametrize("fixture", ["a1", "a2", "b2", "c2", "g2", "a3"])
def test_kl_product_is_c_x_plus_mu_corrections(fixture, request):
    # C_u (H_s + v) = C_x + sum_{ys < y} mu(y, u) C_y (Kazhdan-Lusztig 1979),
    # mu(y, u) the v term of C_u at y: the identity the recursion reads its
    # corrections from, checked at every memo entry x of seeded elements and
    # of the first KL_ORBITS base element, the product by the dict rule
    ctx = request.getfixturevalue(fixture)
    W = ctx.group
    H = HeckeAlgebra(W)
    rng = random.Random(f"kl-mu:{fixture}")
    xs = [random_ascent(W, om, rng.randint(8, 14), rng) for om in W.omega_elements.values()]
    xs += [W.parse_element(text) for text in _kl_orbits().get((ctx.rd.cartan_type, ctx.rd.rank, ctx.rd.l), ())[:1]]
    for x in xs:
        H.kl_basis(x)
    corrected = 0
    for x in [W._elts[i] for i in H._kl_cache]:
        if x.length == 0:
            continue
        j = next(k for k in W.affine_generator_indices() if W.right_descent(x, k))
        cu = H.kl_basis(W.right_multiply_gen(x, j))
        corrections = H.element({})
        for y, p in cu.terms.items():
            mu = p.coeffs.get(1, 0)
            if mu and W.right_descent(y, j):
                corrections = corrections + H.kl_basis(y).scale(mu)
                corrected += 1
        assert H.act_cs(cu, j) - H.kl_basis(x) == corrections, repr(x)
    assert corrected > 0


def test_kl_basis_at_a_narrow_digit_width(monkeypatch, a2):
    # 8 bits per exponent hold the tracked bound of every A2 element up to
    # length 6, so the balanced-digit decode must agree with the dicts there
    monkeypatch.setattr(laurent, "_WIDTH", 8)
    H = HeckeAlgebra(a2.group)
    memo: dict = {}
    for x in elements_of_length_leq(a2.group, 6):
        assert H.kl_basis(x).terms == kl_basis_by_dicts(H, x, memo).terms


@pytest.mark.parametrize("width", [4, laurent._WIDTH])
def test_unpack_reads_balanced_digits(monkeypatch, width):
    # every digit with |c| < 2^(B-1), the extremes and negative ones included,
    # decodes under its bound; a bound of 2^(B-1) is refused
    monkeypatch.setattr(laurent, "_WIDTH", width)
    half = 1 << (width - 1)
    rng = random.Random(width)
    for _ in range(200):
        coeffs = {e: rng.choice([1 - half, half - 1, -1, 1, rng.randrange(1 - half, half)]) for e in range(rng.randint(0, 6))}
        packed = sum(c << (width * e) for e, c in coeffs.items())
        bound = max(map(abs, coeffs.values()), default=0)
        assert laurent.unpack(packed, bound, "value", "key") == LaurentPoly(coeffs)
        with pytest.raises(ResourceError, match=f"^value at key: the coefficient bound \\({width} bits\\)"):
            laurent.unpack(packed, half, "value", "key")


def test_kl_overflow_guard(monkeypatch, capsys, b2):
    # C_x at this benchmark element has a coefficient 8, which a 4-bit balanced
    # digit in [-8, 8) cannot hold: without the guard the decode comes out wrong
    W = b2.group
    x = W.parse_element("t(4,-10)*w[1 2]")
    assert x.length >= 12
    true = kl_basis_by_dicts(HeckeAlgebra(W), x, {})
    assert max(c for p in true.terms.values() for c in p.coeffs.values()) == 8
    monkeypatch.setattr(laurent, "_WIDTH", 4)
    # the recursion refuses first, at the memo entry whose tracked bound
    # reaches the width, before the decode of C_x could
    refusal = r"KL recursion at an element of length \d+: the coefficient bound"
    with pytest.raises(ResourceError, match=f"^{refusal}"):
        HeckeAlgebra(W).kl_basis(x)
    code = main(["hecke", "kl", "--type", "B", "--rank", "2", "--l", "5", "--x", "t(4,-10)*w[1 2]"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and re.match(f"resource bound exceeded: {refusal}", lines[0]), lines
    assert "4 bits" in lines[0]



def test_kl_measured_bound_admits_what_the_tracked_bound_refuses(monkeypatch, b2):
    # at 8 bits the tracked bound of this benchmark element reaches 2^7 by
    # length 7, while its coefficients stay at most 8: with each bound of at
    # least 2^4 measured, the recursion completes, and every memo entry
    # decodes to the dict oracle's element within its stored bound.  The
    # oracle steps down through the lowest descent, the recursion through
    # another, so the oracle computes each entry its own walk did not reach
    W = b2.group
    x = W.parse_element("t(4,-10)*w[1 2]")
    memo: dict = {}
    oracle = HeckeAlgebra(W)
    kl_basis_by_dicts(oracle, x, memo)
    monkeypatch.setattr(laurent, "_WIDTH", 8)
    H = HeckeAlgebra(W)
    assert H.kl_basis(x) == memo[x]
    for i in list(H._kl_cache):
        assert H.kl_basis(W._elts[i]) == kl_basis_by_dicts(oracle, W._elts[i], memo)
    monkeypatch.setattr(hecke, "_measured_bound", lambda values, n, width, bound: bound)
    with pytest.raises(ResourceError, match=r"^KL recursion at an element of length 7: the coefficient bound"):
        HeckeAlgebra(W).kl_basis(x)


@pytest.mark.parametrize("width", [8, 16, laurent._WIDTH])
def test_measured_bound_is_the_least_rung_holding_every_digit(width):
    # random packed values of at most n // 2 + 1 balanced digits, negative
    # and extreme digits included: the measurement is the least rung 2^(k-1),
    # k in (B/8 + 1, B/4 + 1, B/2 + 1), with every digit in [-2^(k-1),
    # 2^(k-1)), and the tracked bound when no rung holds them
    rungs = [1 << (k - 1) for k in (width // 8 + 1, width // 4 + 1, width // 2 + 1)]
    half = 1 << (width - 1)
    rng = random.Random(width)
    for _ in range(300):
        n = rng.randrange(12)
        top = rng.choice(rungs + [rungs[-1] + 1, half])
        rows = [[rng.choice([-top, top - 1, 0, rng.randrange(-top, top)]) for _ in range(rng.randint(0, n // 2 + 1))]
                for _ in range(rng.randint(1, 4))]
        packed = [sum(c << (width * i) for i, c in enumerate(row)) for row in rows]
        digits = [c for row in rows for c in row]
        expected = next((m for m in rungs if all(-m <= c < m for c in digits)), half - 1)
        assert hecke._measured_bound(packed, n, width, half - 1) == expected


def test_kl_memo_entry_outside_its_measured_bound_is_an_internal_error(monkeypatch, g2):
    # at 8 bits this benchmark element's bound is measured at the rung 16
    # (k = 5 of the rungs k in (2, 3, 5)), which holds its coefficients (at
    # most 13); a memo entry with a coefficient past its stored bound must be
    # refused, not returned
    monkeypatch.setattr(laurent, "_WIDTH", 8)
    W = g2.group
    x = W.parse_element("t(2,2)*w[1 2 1 2 1 2]")
    H = HeckeAlgebra(W)
    H.kl_basis(x)
    cx, bound = H._kl_cache[W._id(x)]
    assert bound == 16
    z = next(z for z in cx if z != W._id(x))
    H._kl_cache[W._id(x)] = ({**cx, z: cx[z] + bound}, bound)
    with pytest.raises(AssertionError, match="KL basis coefficient outside its bound"):
        H.kl_basis(x)


def test_kl_measurement_of_too_small_a_rung_is_an_internal_error(monkeypatch, g2):
    # a measurement of that element at 8 bits forced from k = 5 down to
    # k = 4 stores the bound 8, below its coefficient 13: the decode must
    # refuse it
    monkeypatch.setattr(laurent, "_WIDTH", 8)
    W = g2.group
    x = W.parse_element("t(2,2)*w[1 2 1 2 1 2]")
    measured = hecke._measured_bound
    forced = []

    def too_small(values, n, width, bound):
        m = measured(values, n, width, bound)
        if n != x.length:
            return m
        forced.append(m)
        return m // 2

    monkeypatch.setattr(hecke, "_measured_bound", too_small)
    with pytest.raises(AssertionError, match="KL basis coefficient outside its bound"):
        HeckeAlgebra(W).kl_basis(x)
    assert forced == [16]


def test_every_kl_memo_entry_lies_within_its_stored_bound(monkeypatch, g2):
    # the recursion trusts the stored bound of every C_u and C_y it reads,
    # and only the decode of the element returned compares digits with a
    # bound: so every memo entry, measured or tracked, is checked here, at
    # 8 bits, where dozens of this benchmark element's bounds are measured
    monkeypatch.setattr(laurent, "_WIDTH", 8)
    W = g2.group
    measured = hecke._measured_bound
    calls = []

    def counted(values, n, width, bound):
        calls.append(n)
        return measured(values, n, width, bound)

    monkeypatch.setattr(hecke, "_measured_bound", counted)
    H = HeckeAlgebra(W)
    H.kl_basis(W.parse_element("t(2,2)*w[1 2 1 2 1 2]"))
    assert len(calls) > 30
    for i, (cx, bound) in H._kl_cache.items():
        digits = [c for p in cx.values() for c in laurent.unpack(p, (1 << 7) - 1, "memo entry", i).coeffs.values()]
        assert all(abs(c) <= bound for c in digits), W._elts[i]

@pytest.mark.parametrize("width", [8, 16, laurent._WIDTH])
def test_exceeds_is_exact_at_every_bound(width):
    # random packed values of at most n // 2 + 1 balanced digits, with digits
    # at, just inside and just past the bound, negative ones and the
    # extremes of the width included: the test refuses exactly the values
    # with a digit past the bound
    half = 1 << (width - 1)
    rng = random.Random(f"exceeds:{width}")
    for _ in range(300):
        n = rng.randrange(12)
        bound = rng.choice([0, 1, rng.randrange(half), half // 2, half - 2, half - 1])
        near = [c for c in (-bound - 1, -bound, bound, bound + 1, -half, half - 1) if -half <= c < half]
        rows = [[rng.choice(near + [0, rng.randrange(-half, half)]) for _ in range(rng.randint(0, n // 2 + 1))]
                for _ in range(rng.randint(1, 4))]
        packed = [sum(c << (width * i) for i, c in enumerate(row)) for row in rows]
        expected = any(abs(c) > bound for row in rows for c in row)
        assert hecke._exceeds(packed, n, width, bound) == expected, (n, bound, rows)
    # a value past the n // 2 + 1 digits of a length-n element exceeds any bound
    assert hecke._exceeds([1 << (width * 3)], 4, width, half - 1)


@pytest.mark.parametrize("width,text,refusal", [
    (16, "t(2,2)*w[1 2 1 2 1 2]", "KL basis coefficient outside its bound"),
    (12, "t(-9,2)*w[2]", "KL memo entry outside its tracked bound"),
    (12, "t(12,-5)*w[2 1 2 1]", "KL memo entry outside its tracked bound"),
    (8, "t(-7,2)*w[]", "KL memo entry outside its tracked bound"),
])
def test_a_halved_measurement_is_refused(monkeypatch, g2, width, text, refusal):
    # every measured bound halved makes some stored bounds too small for
    # their entries.  Each measurement first confirms that no digit of C_x
    # exceeds the tracked bound it replaces, which a too-small bound of C_u
    # or of a C_y makes too small in turn, and the decode compares the
    # element returned with its stored bound.  Unplanted, the first two
    # complete and the last two reach the width's coefficient bound (a
    # ResourceError); planted, the last two complete without the first
    # check, their digits no longer proven exact
    monkeypatch.setattr(laurent, "_WIDTH", width)
    W = g2.group
    x = W.parse_element(text)
    measured = hecke._measured_bound
    monkeypatch.setattr(hecke, "_measured_bound", lambda values, n, width, bound: measured(values, n, width, bound) // 2)
    with pytest.raises(AssertionError, match=f"^{refusal}$"):
        HeckeAlgebra(W).kl_basis(x)


@pytest.mark.parametrize("key", sorted(_CARTAN), ids=lambda key: f"{key[0]}{key[1]}")
def test_kl_basis_does_not_depend_on_what_the_memo_holds(request, key):
    # the recursion at x steps down through a memoized u = x s_j when there
    # is one, so its path depends on what was computed before; C_x is
    # unique, so an algebra that first computed other elements, in a seeded
    # order, and a fresh algebra give equal terms at every element
    rd = request.getfixturevalue(f"{key[0].lower()}{key[1]}").rd
    W = AffineWeyl(rd)
    rng = random.Random(f"kl-history:{key}")
    hi = 14 if key == ("A", 3) else 24
    xs = []
    for omega in W.omega_elements.values():
        top = random_ascent(W, omega, hi, rng)
        xs += [top, *(W.parse_element(repr(z)) for z in rng.sample(list(HeckeAlgebra(W).kl_basis(top).terms), 4))]
    rng.shuffle(xs)
    warm = HeckeAlgebra(W)
    for x in xs:
        warm.kl_basis(x)
    for x in xs:
        assert warm.kl_basis(x).terms == HeckeAlgebra(W).kl_basis(x).terms, W.format_element(x)


# Memo entries and terms of a fresh algebra after kl_basis at each benchmark
# element; stepping always through the lowest descent they were A2 128 and
# 10,303, B2 89 and 9,611, G2 156 and 16,805, A3 303 and 44,775.
_KL_MEMO_COUNTS = {
    "a2": ("t(-11,6)*w[2]", 96, 7_843),
    "b2": ("t(4,-10)*w[1 2]", 89, 9_395),
    "g2": ("t(2,2)*w[1 2 1 2 1 2]", 68, 7_913),
    "a3": ("t(2,3,-7)*w[1 2 1]", 176, 25_585),
}


@pytest.mark.parametrize("fixture", sorted(_KL_MEMO_COUNTS))
def test_kl_memo_of_a_benchmark_element_stays_within_its_count(request, fixture):
    rd = request.getfixturevalue(fixture).rd
    text, entries, terms = _KL_MEMO_COUNTS[fixture]
    assert text in _kl_orbits()[(rd.cartan_type, rd.rank, rd.l)]
    W = AffineWeyl(rd)
    H = HeckeAlgebra(W)
    H.kl_basis(W.parse_element(text))
    assert len(H._kl_cache) <= entries
    assert sum(len(cy) for cy, _ in H._kl_cache.values()) <= terms


def test_json_encoding(a1):
    H, W = a1.hecke, a1.group
    h = H.kl_basis(W.simple_reflection(0))
    assert [(repr(x), h.terms[x].to_json()) for x in h.sorted_support()] == [
        ("t(0)*w[]", {"1": 1}),
        ("t(0)*w[1]", {"0": 1}),
    ]


def test_one_cayley_graph_serves_kl_bruhat_and_words(a3):
    # the group's signed slots are the one record of x s_j: after kl_basis(x),
    # the reduced word of x and the Bruhat column of supp C_x walk only ids
    # the recursion already made (they step down through the lowest descent,
    # the recursion through another, so they may fill slots it left empty,
    # but each such slot joins two elements of [e, x]), and every filled
    # slot agrees with _gen_step and with lengths computed without the graph
    text = _kl_orbits()[("A", 3, 5)][0]
    W = AffineWeyl(a3.rd)
    H = HeckeAlgebra(W)
    x = W.parse_element(text)
    kl = H.kl_basis(x)
    support = kl.sorted_support()

    def filled():
        return sum(b is not None for nbr in W._nbrs for b in nbr)

    ids, slots = len(W._elts), filled()
    W.reduced_word(x)
    assert all(W.bruhat_column(support, x))
    assert len(W._elts) == ids
    assert filled() >= slots > 1000
    # the graph gives each id met through a slot its neighbour's length +-1;
    # a group with no graph computes them by the Iwahori-Matsumoto formula
    fresh = AffineWeyl(a3.rd)
    lengths = [fresh.element(z.trans, z.w.index).length for z in W._elts]
    assert not fresh._elts
    assert W._lens == lengths and [z.length for z in W._elts] == lengths
    for j, nbr in enumerate(W._nbrs):
        for a, b in enumerate(nbr):
            if b is None:
                continue
            longer = b >= 0
            b = b if longer else ~b
            assert W._gen_step(W._elts[a], j) is W._elts[b]
            assert (lengths[b] > lengths[a]) == longer
    # the order in which slots are filled cannot matter: on a fresh group, the
    # Bruhat column of a window around x first, then kl_basis(x); the window
    # adds translates of the longest terms, some shorter than x and not below it
    window = support + [W.translate_left(-nu, z) for z in support[-8:] for nu in a3.rd.simple_roots]
    column = W.bruhat_column(window, x)
    assert any(z.length < x.length and not leq for z, leq in zip(window, column))
    W2 = AffineWeyl(a3.rd)
    x2 = W2.parse_element(text)
    assert W2.bruhat_column([W2.parse_element(repr(z)) for z in window], x2) == column
    kl2 = HeckeAlgebra(W2).kl_basis(x2)  # elements of another group: compare by text
    assert {repr(z): p for z, p in kl2.terms.items()} == {repr(z): p for z, p in kl.terms.items()}


def test_foreign_elements_are_refused_by_the_graph(a2):
    # x comes from another group of the same datum, whose twin of x already
    # has an id here: no reader of the Cayley graph takes x, and none of them
    # gives it an id
    W = AffineWeyl(a2.rd)
    H = HeckeAlgebra(W)
    text = "t(1,0)*w[2]"
    H.kl_basis(W.parse_element(text))
    ids = len(W._elts)
    x = a2.group.parse_element(text)
    for call in (lambda: H.kl_basis(x), lambda: W.right_multiply_gen(x, 0),
                 lambda: W.right_descent(x, 1), lambda: W.reduced_word(x),
                 lambda: W.bruhat_column([x], x)):
        with pytest.raises(ValueError, match="^elements belong to different root data$"):
            call()
    assert len(W._elts) == ids
