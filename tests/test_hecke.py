import importlib.util
import random
import sys
from pathlib import Path

import pytest

from periodic_kl import hecke
from periodic_kl.cli import main
from periodic_kl.hecke import HeckeAlgebra, ResourceError
from periodic_kl.laurent import LaurentPoly, ONE, V, VINV
from periodic_kl.rootdata import Weight
from oracles import kl_basis_by_dicts, kl_by_linear_solve

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
    elts = list(ctx.group.elements_of_length_leq(max_len))
    terms = {}
    for x in rng.sample(elts, size):
        terms[x] = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(2)})
    return ctx.hecke.from_terms(terms)


def test_generator_multiplication_examples(a1):
    H, W = a1.hecke, a1.group
    e, s = W.identity(), W.simple_reflection(0)
    assert H.right_mul_gen(H.unit(), 1) == H.basis(s)
    sq = H.multiply(H.basis(s), H.basis(s))
    assert sq.coefficient(e) == ONE
    assert sq.coefficient(s) == VINV - V
    # (H_s + v) H_s = v^{-1} (H_s + v)
    cs = H.basis(s) + H.unit().scale(V)
    lhs = H.right_mul_gen(cs, 1)
    assert lhs == cs.scale(VINV)


def test_length_additive_products(a2):
    H, W = a2.hecke, a2.group
    rng = random.Random(0)
    elts = list(W.elements_of_length_leq(4))
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
    assert H.multiply(h, H.unit()) == h
    assert H.multiply(H.unit(), h) == h


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
    assert H.bar(H.unit()) == H.unit()
    bs = H.bar_basis(s)
    assert bs.coefficient(s) == ONE and bs.coefficient(e) == V - VINV
    cs = H.basis(s) + H.unit().scale(V)
    assert H.bar(cs) == cs


def test_bar_involution_and_homomorphism(a1, a2):
    rng = random.Random(3)
    for ctx in (a1, a2):
        H = ctx.hecke
        for _ in range(6):
            h1 = rand_element(ctx, rng, size=2)
            h2 = rand_element(ctx, rng, size=2)
            assert H.bar(H.bar(h1)) == h1
            assert H.bar(H.multiply(h1, h2)) == H.multiply(H.bar(h1), H.bar(h2))


def test_inverse_basis(a2):
    H, W = a2.hecke, a2.group
    for x in W.elements_of_length_leq(3):
        assert H.multiply(H.basis(x), H.inverse_basis(x)) == H.unit()


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
    out = H.unit()
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
    assert H.bar(kl) == kl


def test_kl_basis_properties(a2):
    H, W = a2.hecke, a2.group
    for x in W.elements_of_length_leq(3):
        kl = H.kl_basis(x)
        assert kl.coefficient(x) == ONE
        for y, p in kl.terms.items():
            if y != x:
                assert p.in_v_times_Zv()
                assert W.bruhat_leq(y, x)
        assert H.bar(kl) == kl


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
    for x in W.elements_of_length_leq(4):
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
        assert H.kl_basis(x).to_json() == kl_basis_by_dicts(H, x, memo).to_json(), W.format_element(x)


def test_kl_basis_at_a_narrow_digit_width(monkeypatch, a2):
    # 8 bits per exponent hold the tracked bound of every A2 element up to
    # length 6, so the balanced-digit decode must agree with the dicts there
    monkeypatch.setattr(hecke, "_WIDTH", 8)
    H = HeckeAlgebra(a2.group)
    memo: dict = {}
    for x in a2.group.elements_of_length_leq(6):
        assert H.kl_basis(x).to_json() == kl_basis_by_dicts(H, x, memo).to_json()


@pytest.mark.parametrize("width", [4, 128])
def test_unpack_reads_balanced_digits(monkeypatch, width):
    # every digit in [-2^(B-1), 2^(B-1)), the extremes and negative ones included
    monkeypatch.setattr(hecke, "_WIDTH", width)
    half = 1 << (width - 1)
    rng = random.Random(width)
    for _ in range(200):
        coeffs = {e: rng.choice([-half, half - 1, -1, 1, rng.randrange(-half, half)]) for e in range(rng.randint(0, 6))}
        packed = sum(c << (width * e) for e, c in coeffs.items())
        assert hecke._unpack(packed) == LaurentPoly(coeffs)


def test_kl_overflow_guard(monkeypatch, capsys, b2):
    # C_x at this benchmark element has a coefficient 8, which a 4-bit balanced
    # digit in [-8, 8) cannot hold: without the guard the decode comes out wrong
    W = b2.group
    x = W.parse_element("t(4,-10)*w[1 2]")
    assert x.length >= 12
    true = kl_basis_by_dicts(HeckeAlgebra(W), x, {})
    assert max(c for p in true.terms.values() for c in p.coeffs.values()) == 8
    monkeypatch.setattr(hecke, "_WIDTH", 4)
    with pytest.raises(ResourceError, match="coefficient bound"):
        HeckeAlgebra(W).kl_basis(x)
    code = main(["hecke", "kl", "--type", "B", "--rank", "2", "--l", "5", "--x", "t(4,-10)*w[1 2]"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource bound exceeded:"), lines
    assert "4 bits" in lines[0]


def test_bernstein_examples(a1):
    H, W = a1.hecke, a1.group
    alpha = a1.rd.simple_roots[0]
    assert H.bernstein(Weight((0,))) == H.unit()
    assert H.bernstein(alpha) == H.basis(W.translation(alpha))
    tha = H.bernstein(alpha)
    thma = H.bernstein(-alpha)
    assert thma == H.inverse_basis(W.translation(alpha))
    assert H.multiply(tha, thma) == H.unit()


def test_bernstein_additivity_and_splitting_independence(a2):
    H = a2.hecke
    rng = random.Random(4)
    for _ in range(10):
        lam = Weight((rng.randint(-2, 2), rng.randint(-2, 2)))
        mu = Weight((rng.randint(-2, 2), rng.randint(-2, 2)))
        assert H.multiply(H.bernstein(lam), H.bernstein(mu)) == H.bernstein(lam + mu)
    # independence of the dominant splitting: cancel a common dominant part
    for _ in range(6):
        lam = Weight((rng.randint(-2, 2), rng.randint(-2, 2)))
        extra = Weight((rng.randint(0, 2), rng.randint(0, 2)))
        w = a2.group
        plus = Weight(tuple(max(c, 0) for c in lam)) + extra
        minus = Weight(tuple(max(-c, 0) for c in lam)) + extra
        alt = H.multiply(H.basis(w.translation(plus)), H.inverse_basis(w.translation(minus)))
        assert alt == H.bernstein(lam)


def test_json_encoding(a1):
    H, W = a1.hecke, a1.group
    h = H.kl_basis(W.simple_reflection(0))
    data = h.to_json()
    assert data == [
        {"element": "t(0)*w[]", "polynomial": {"1": 1}},
        {"element": "t(0)*w[1]", "polynomial": {"0": 1}},
    ]
