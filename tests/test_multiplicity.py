import random

import pytest

from periodic_kl.laurent import ONE, ZERO
from periodic_kl.multiplicity import MultiplicityTables, enumerate_blocks, select_omega_s
from periodic_kl.orders import standard_window
from periodic_kl.rootdata import Weight, dominance_leq
from oracles import dot_orbit, dot_stabilizer


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
            assert W.dot_action(g, b.representative, a1.rd.l) == b.representative


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


def test_select_omega_s(a1, a2):
    for ctx in (a1, a2):
        W = ctx.group
        for j in W.affine_generator_indices():
            label = select_omega_s(W, j)
            assert len(label.stabilizer_generators) == 1
            g = label.stabilizer_generators[0]
            assert W.dot_action(g, label.representative, ctx.rd.l) == label.representative
            expected = W.affine_generator(j)
            assert g == expected


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


def test_baby_reciprocity_and_shift(a2):
    T = MultiplicityTables(a2.module)
    W = a2.group
    rng = random.Random(0)
    win = standard_window(W, 1)
    for _ in range(20):
        x, y = rng.choice(win), rng.choice(win)
        lhs = T.baby_verma_in_projective(x, y)
        rhs = T.simple_in_baby_verma(x, y)
        assert lhs == rhs
        nu = Weight((rng.randint(-2, 2), rng.randint(-2, 2)))
        assert lhs == T.baby_verma_in_projective(W.translate_left(nu, x), W.translate_left(nu, y))


def test_diagonal_normalization(a2):
    T = MultiplicityTables(a2.module)
    for x in standard_window(a2.group, 1):
        assert T.simple_in_baby_verma(x, x) == ONE
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
    assert all(t1.entries.get((x, x)) == ONE for x in win)
    t2 = T.table("verma_in_projective_truncated", win, nu=Weight((2,)))
    assert t2.truncation == Weight((2,))
    with pytest.raises(ValueError):
        T.table("verma_in_projective_truncated", win)
    t3 = T.table("babyverma_in_projective", win)
    t4 = T.table("simple_in_babyverma", win)
    assert t3.entries == t4.entries


def test_table_checks_its_arguments_before_the_window(a1):
    T = MultiplicityTables(a1.module)
    with pytest.raises(ValueError, match="truncation weight"):
        T.table("verma_in_projective_truncated", [])
    with pytest.raises(ValueError, match="unknown table kind"):
        T.table("no_such_kind", [])


def test_tables_match_point_queries(a2):
    T = MultiplicityTables(a2.module)
    W = a2.group
    win = standard_window(W, 1, coset=(0, 0))
    nu = Weight((0, 0))
    truncated_away = [y for y in win if not dominance_leq(a2.rd, W.dot_zero(y), a2.rd.l * nu)]
    assert 0 < len(truncated_away) < len(win)
    point = {
        "simple_in_verma": T.simple_in_verma,
        "verma_in_projective_truncated": lambda x, y: T.verma_in_projective(x, y, nu),
        "babyverma_in_projective": T.baby_verma_in_projective,
        "simple_in_babyverma": T.simple_in_baby_verma,
    }
    for kind, value in point.items():
        table = T.table(kind, win, nu=nu)
        assert table.entries
        for x in win:
            for y in win:
                assert table.entries.get((x, y), ZERO) == value(x, y)
