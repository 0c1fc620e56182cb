import random
from itertools import product
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from periodic_kl.laurent import ONE, ZERO
from periodic_kl.multiplicity import MultiplicityTables, enumerate_blocks
from periodic_kl.orders import standard_window
from periodic_kl.periodic import PeriodicModule
from periodic_kl.rootdata import _CARTAN, Weight, dominance_leq, pairing, root_datum, validate_l
from periodic_kl.weyl import AffineWeyl
from oracles import (dot_action, dot_orbit, dot_stabilizer, every_table, module_with_classes_of, point_queries,
                     tables_by_point_queries)


def test_blocks_a1(a1):
    W = a1.group
    labels = enumerate_blocks(W)
    reps = [b.representative for b in labels]
    assert reps == [(-1,), (0,), (1,), (2,)]
    by_rep = {b.representative: b for b in labels}
    assert by_rep[(-1,)].walls == ("s1",) and not by_rep[(-1,)].regular
    assert by_rep[(2,)].walls == ("s0",) and not by_rep[(2,)].regular
    assert by_rep[(0,)].regular and by_rep[(1,)].regular
    # stabilizer of the singular points: the wall reflections fix them
    for b in labels:
        for g in b.stabilizer_generators:
            assert dot_action(W, g, b.representative, a1.rd.l) == b.representative


def test_blocks_against_orbit_oracle(a1):
    # brute-force dot-orbit enumeration on a bounded box: the labels are
    # pairwise in different orbits and their stabilizer patterns match
    W = a1.group
    labels = enumerate_blocks(W)
    orbits = [dot_orbit(W, b.representative, box=12, n=3) for b in labels]
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            assert not (orbits[i] & orbits[j])
    for b in labels:
        stab = dot_stabilizer(W, b.representative, n=3, max_len=2)
        nontrivial = [g for g in stab if g.length > 0]
        if b.regular:
            assert not nontrivial
        else:
            assert nontrivial
            gens = set(b.stabilizer_generators)
            assert gens <= set(stab)


def test_blocks_a2_structure(a2):
    W = a2.group
    labels = enumerate_blocks(W)
    # closed alcove lattice points for l=5 in rank 2: all m with m_i >= -1
    # and the highest-coroot pairing at most l
    for b in labels:
        shifted = b.representative + a2.rd.rho
        for beta in a2.rd.positive_roots:
            from periodic_kl.rootdata import pairing

            val = pairing(a2.rd, shifted, a2.rd.coroot(beta))
            assert 0 <= val <= a2.rd.l
    regular = [b for b in labels if b.regular]
    assert regular, "l > h guarantees a regular point"
    for b in labels:
        assert b.regular == (not b.stabilizer_generators)


@pytest.mark.parametrize("key", sorted(_CARTAN), ids=[f"{t}{r}" for t, r in sorted(_CARTAN)])
def test_blocks_match_the_all_coroot_alcove(key):
    # the closed alcove by its definition, 0 <= <lam + rho, beta^> <= l for
    # every positive root beta, over a box wider than the walk's, at the two
    # least admissible l: the same representatives in ascending order, walls,
    # regularity and wall reflections
    cartan_type, rank = key
    ls = [l for l in range(2, 20) if not validate_l(root_datum(cartan_type, rank, l))][:2]
    assert len(ls) == 2
    for l in ls:
        rd = root_datum(cartan_type, rank, l)
        W = AffineWeyl(rd)
        eta_check = rd.coroot(rd.short_dominant_root)
        expected = []
        for lam in sorted(map(Weight, product(range(-2, l + 1), repeat=rank))):
            shifted = lam + rd.rho
            if all(0 <= pairing(rd, shifted, rd.coroot(b)) <= l for b in rd.positive_roots):
                walls = [f"s{i + 1}" for i in range(rank) if pairing(rd, shifted, rd.simple_coroots[i]) == 0]
                if pairing(rd, shifted, eta_check) == l:
                    walls.append("s0")
                expected.append((lam, tuple(walls), not walls))
        labels = enumerate_blocks(W)
        assert [(b.representative, b.walls, b.regular) for b in labels] == expected
        for b in labels:
            assert b.stabilizer_generators == tuple(W.affine_generator(int(wall[1:])) for wall in b.walls)


def test_simple_in_verma(a1):
    T = MultiplicityTables(a1.module)
    W = a1.group
    e, s = W.identity(), W.simple_reflection(0)
    assert T.simple_in_verma(e, e) == ONE
    assert T.simple_in_verma(s, s) == ONE
    # matches the generic table through the w0 twist
    w0 = W.element(Weight((0,)), W.w0.index)
    for x in standard_window(W, 1):
        for y in standard_window(W, 1):
            assert T.simple_in_verma(x, y) == a1.module.generic_polynomial(
                W.multiply(w0, x), W.multiply(w0, y), "q"
            )
    # pair out of reach of the series cone gives zero
    alpha = a1.rd.simple_roots[0]
    assert T.simple_in_verma(W.translation(-alpha), W.translation(alpha)) == ZERO


def test_verma_in_projective_truncation(a1):
    T = MultiplicityTables(a1.module)
    W = a1.group
    rd = a1.rd
    e = W.identity()
    nu_big = Weight((2,))  # l*nu must land in the coset of y dot 0 to compare
    nu_small = Weight((-4,))
    assert dominance_leq(rd, W.dot_zero(e), rd.l * nu_big)
    assert T.verma_in_projective(e, e, nu_big) == ONE
    # the truncation test is exactly dominance against l*nu
    y = W.translation(rd.simple_roots[0])
    assert not dominance_leq(rd, W.dot_zero(y), rd.l * nu_small)
    assert T.verma_in_projective(e, y, nu_small) == ZERO
    # incomparable coset: truncation kills everything
    assert T.verma_in_projective(e, e, Weight((3,))) == ZERO


def test_truncation_monotonicity(a1):
    T = MultiplicityTables(a1.module)
    W = a1.group
    win = standard_window(W, 2)
    nu1 = Weight((0,))
    nu2 = Weight((2,))
    for x in win[:6]:
        for y in win[:6]:
            v1 = T.verma_in_projective(x, y, nu1)
            v2 = T.verma_in_projective(x, y, nu2)
            if not v1.is_zero():
                assert v2 == v1  # enlarging nu never zeroes an entry


def test_baby_translation_invariance(a2):
    T = MultiplicityTables(a2.module)
    W = a2.group
    rng = random.Random(0)
    win = standard_window(W, 1)
    for _ in range(20):
        x, y = rng.choice(win), rng.choice(win)
        lhs = T.baby_verma_in_projective(x, y)
        nu = Weight((rng.randint(-2, 2), rng.randint(-2, 2)))
        assert lhs == T.baby_verma_in_projective(W.translate_left(nu, x), W.translate_left(nu, y))


def test_diagonal_normalization(a2):
    T = MultiplicityTables(a2.module)
    for x in standard_window(a2.group, 1):
        assert T.baby_verma_in_projective(x, x) == ONE
        assert T.simple_in_verma(x, x) == ONE


def test_inversion_consistency_through_multiplicities(a1):
    # composing the simple-in-Verma matrix with the signed baby-Verma matrix
    # returns the identity on a window
    M, W = a1.module, a1.group
    T = MultiplicityTables(M)
    w0 = W.element(Weight((0,)), W.w0.index)
    win = standard_window(W, 1, coset=(0,))
    for y in win:
        for z in win:
            total = ZERO
            sd = M.selfdual(W.multiply(w0, z))
            for pos in sd.terms:
                u = W.multiply(w0, pos)
                q = T.simple_in_verma(W.multiply(w0, u), W.multiply(w0, y))
                p = T.baby_verma_in_projective(u, z)
                sign = -1 if (u.length + y.length) % 2 else 1
                total = total + (q * p).scale(sign)
            assert total == (ONE if y == z else ZERO)


def test_table_builder(a1):
    T = MultiplicityTables(a1.module)
    W = a1.group
    win = standard_window(W, 1, coset=(0,))
    t1 = T.table("simple_in_verma", win)
    assert all(t1.get((x, x)) == ONE for x in win)
    nu = Weight((2,))
    t2 = T.table("verma_in_projective_truncated", win, nu=nu)
    assert t2 and all(dominance_leq(a1.rd, W.dot_zero(y), a1.rd.l * nu) for _, y in t2)
    with pytest.raises(ValueError):
        T.table("verma_in_projective_truncated", win)
    t3 = T.table("babyverma_in_projective", win)
    assert all(t3.get((x, x)) == ONE for x in win)


@pytest.mark.parametrize("fixture", ["a1", "a2", "a3", "b2", "c2", "g2"])
def test_twist_is_the_product_by_w0(fixture, request):
    # w0 t(lam) w = t(w0 lam)(w0 w), against the group law, on a window
    ctx = request.getfixturevalue(fixture)
    W = ctx.group
    T = MultiplicityTables(ctx.module)
    w0 = W.element(Weight((0,) * ctx.rd.rank), W.w0)
    for x in standard_window(W, 1):
        assert T._twist(x) is W.multiply(w0, x)
    with pytest.raises(ValueError, match="different root data"):
        T._twist(AffineWeyl(ctx.rd).identity())


def test_table_checks_its_arguments_before_the_window(a1):
    T = MultiplicityTables(a1.module)
    with pytest.raises(ValueError, match="truncation weight"):
        T.table("verma_in_projective_truncated", [])
    with pytest.raises(ValueError, match=r"^unknown table kind 'no_such_kind'; expected one of simple_in_verma, "
                                         r"verma_in_projective_truncated, babyverma_in_projective$"):
        T.table("no_such_kind", [])


@pytest.mark.parametrize("kind", ["simple_in_verma", "babyverma_in_projective"])
def test_table_refuses_a_truncation_it_would_ignore(a1, kind):
    # only the truncated kind reads nu; the others refuse it before the window
    def window():
        raise AssertionError("the window was read")
        yield

    with pytest.raises(ValueError, match=rf"^a truncation weight nu applies only to "
                                         rf"verma_in_projective_truncated, not {kind}$"):
        MultiplicityTables(a1.module).table(kind, window(), nu=Weight((0,)))


# (datum, height of the full window, coset of the height-1 coset window, a
# truncation weight that cuts some rows of the coset window but not all).
# G2 has one coset; A3 h1 is in the slow tier.
ORACLE_CASES = [
    ("a1", 1, (1,), (-1,)),
    ("a2", 1, (1, 2), (1, -1)),
    ("b2", 1, (1, 0), (0, 1)),
    ("c2", 1, (0, 1), (-1, 1)),
    ("g2", 0, (0, 0), (-1, 0)),
    ("a3", 0, (1, 2, 3), (0, 0, 1)),
]


@pytest.mark.parametrize("name,height,coset,nu", ORACLE_CASES, ids=[case[0] for case in ORACLE_CASES])
def test_tables_match_point_queries(request, name, height, coset, nu):
    # every kind, every pair, on a full window, a coset window and a
    # truncation that cuts some rows but not all; each kind's point queries
    # run on a module of their own, whose memo no table has filled
    ctx = request.getfixturevalue(name)
    W, rd = ctx.group, ctx.rd
    nu = Weight(nu)
    full = standard_window(W, height)
    cosets = standard_window(W, 1, coset=coset)
    kept = [y for y in cosets if dominance_leq(rd, W.dot_zero(y), rd.l * nu)]
    assert 0 < len(kept) < len(cosets)
    for window, truncation in ((full, Weight((0,) * rd.rank)), (cosets, nu)):
        tables = every_table(module_with_classes_of(ctx.module), window, truncation)
        assert tables == tables_by_point_queries(ctx.module, window, truncation)
        assert all(tables[kind] for kind in ("periodic_p", "generic_q", "generic_qprime"))


def test_point_queries_after_a_table_agree_with_it(b2):
    M = module_with_classes_of(b2.module)
    window = standard_window(b2.group, 1)
    nu = Weight((0, 0))
    tables = every_table(M, window, nu)
    for kind, value in point_queries(M, nu).items():
        for a in window:
            for b in window:
                assert tables[kind].get((a, b), ZERO) == value(a, b)


@pytest.mark.parametrize("name", ["a2", "b2"])
def test_tables_evaluate_only_same_coset_blocks(monkeypatch, request, name):
    # q and q' vanish at a pair in two cosets: the q, q' and truncated tables
    # over every coset evaluate each (rel, u, c) of their same-coset pairs
    # once, and no other
    ctx = request.getfixturevalue(name)
    W, rd = ctx.group, ctx.rd
    window = standard_window(W, 1)
    assert len({x.omega_component for x in window}) > 1
    same = [(y, x) for y in window for x in window if y.omega_component == x.omega_component]
    orbits = {(tuple(map(sub, y.trans, x.trans)), y.w.index, x.w.index) for y, x in same}
    seen = []
    real = PeriodicModule._generic_entry

    def recording(self, rel, u, c, weighted, target):
        seen.append((rel, u, c))
        return real(self, rel, u, c, weighted, target)

    monkeypatch.setattr(PeriodicModule, "_generic_entry", recording)
    M = module_with_classes_of(ctx.module)
    for kind in ("generic_q", "generic_qprime"):
        seen.clear()
        M.polynomial_table(kind, window)
        assert len(seen) == len(orbits) and set(seen) == orbits
    seen.clear()
    MultiplicityTables(M).table("verma_in_projective_truncated", window, nu=Weight((2,) * rd.rank))
    e = rd.lattice_index_e  # the truncated table reads the w0-twisted window
    assert seen and len(set(seen)) == len(seen)
    assert not any(E % e for rel, _, _ in seen for E in rd.scaled_root_coordinates(rel))


@settings(derandomize=True, database=None, max_examples=25)
@given(data=st.data())
def test_tables_match_point_queries_on_ragged_windows(a2, b2, g2, data):
    # a random subset of a window holds only part of some translation
    # fibers, and a random truncation cuts a random set of rows
    ctx = data.draw(st.sampled_from([a2, b2, g2]), label="datum")
    window = standard_window(ctx.group, 1)
    picked = data.draw(st.sets(st.integers(0, len(window) - 1), min_size=1, max_size=24), label="window")
    ragged = [window[i] for i in sorted(picked)]
    nu = Weight(data.draw(st.tuples(*[st.integers(-1, 1)] * ctx.rd.rank), label="nu"))
    tables = every_table(module_with_classes_of(ctx.module), ragged, nu)
    assert tables == tables_by_point_queries(ctx.module, ragged, nu)
