import random

import pytest

from periodic_kl.rootdata import Weight, root_datum
from periodic_kl.weyl import AffineWeyl, ExtAffineElement
from oracles import bfs_lengths, subword_bruhat


def test_multiply_examples(a1):
    W = a1.group
    alpha = a1.rd.simple_roots[0]
    s = W.simple_reflection(0)
    assert W.multiply(W.translation(alpha), W.translation(-alpha)) == W.identity()
    assert W.multiply(s, s) == W.identity()
    x = W.multiply(W.translation(alpha), s)
    assert x.trans == alpha and x.w.index == s.w.index


def test_multiply_rejects_mixed_contexts(a1, a2):
    with pytest.raises(ValueError):
        a1.group.multiply(a1.group.identity(), a2.group.identity())


def test_semidirect_product_law(a2):
    W = a2.group
    random.seed(7)
    elts = list(W.elements_of_length_leq(3))
    for _ in range(30):
        x, y = random.choice(elts), random.choice(elts)
        z = W.multiply(x, y)
        # translation part: lam + w(mu)
        assert z.trans == x.trans + x.w.apply(y.trans)
        assert W.multiply(z, W.inverse(y)) == x


def test_length_examples(a1):
    W = a1.group
    alpha = a1.rd.simple_roots[0]
    assert W.identity().length == 0
    assert W.simple_reflection(0).length == 1
    assert W.translation(alpha).length == 2
    # oracle: shortest affine word reaching t(alpha)
    lengths = bfs_lengths(W, W.identity(), 3)
    assert lengths[W.translation(alpha)] == 2
    assert lengths[W.multiply(W.translation(-alpha), W.simple_reflection(0))] == 3


@pytest.mark.parametrize("fixture", ["a1", "a2", "b2", "c2", "g2", "a3"])
def test_length_against_bfs(fixture, request):
    ctx = request.getfixturevalue(fixture)
    W = ctx.group
    gens = {W.affine_generator(j) for j in W.affine_generator_indices()}
    by_coset: dict = {}
    for x in W.elements_of_length_leq(5):
        by_coset.setdefault(x.omega_component, {})[x] = x.length
    assert len(by_coset) == len(W.omega_elements)
    for tag, om in W.omega_elements.items():
        # om permutes the affine simple reflections by conjugation, so it has
        # length zero and word length from om is the length in its coset
        assert {W.multiply(W.multiply(om, s), W.inverse(om)) for s in gens} == gens
        assert bfs_lengths(W, om, 5) == by_coset[tag]


def test_length_changes_by_one(a1, a2, b2):
    # exhaustive up to length 6 in every rank <= 2 datum
    for ctx in (a1, a2, b2):
        W = ctx.group
        for x in W.elements_of_length_leq(6):
            for j in W.affine_generator_indices():
                assert abs(W.right_multiply_gen(x, j).length - x.length) == 1


def test_length_subadditive(a2):
    W = a2.group
    random.seed(3)
    elts = list(W.elements_of_length_leq(4))
    for _ in range(60):
        x, y = random.choice(elts), random.choice(elts)
        z = W.multiply(x, y)
        assert z.length <= x.length + y.length


def test_omega_elements(a1, a2, g2):
    assert len(a1.group.omega_elements) == 2
    assert len(a2.group.omega_elements) == 3
    assert len(g2.group.omega_elements) == 1
    for ctx in (a1, a2):
        for om in ctx.group.omega_elements.values():
            assert om.length == 0


def test_reduced_words_reconstruct(a2):
    W = a2.group
    for x in W.elements_of_length_leq(4):
        word, omega = W.reduced_word(x)
        assert len(word) == x.length
        assert omega.length == 0
        assert W.from_word(word, omega) == x


def test_bruhat_examples(a1):
    W = a1.group
    alpha = a1.rd.simple_roots[0]
    s = W.simple_reflection(0)
    t_alpha = W.translation(alpha)
    assert W.bruhat_leq(s, s)
    assert W.bruhat_leq(W.identity(), t_alpha)
    assert W.bruhat_leq(s, t_alpha)
    assert not W.bruhat_leq(t_alpha, s)
    # different length-zero cosets are incomparable
    omega = next(om for om in W.omega_elements.values() if om.length == 0 and om != W.identity())
    assert not W.bruhat_leq(W.identity(), W.multiply(omega, t_alpha))


@pytest.mark.parametrize("fixture", ["a1", "a2"])
def test_bruhat_against_subword_oracle(fixture, request):
    ctx = request.getfixturevalue(fixture)
    W = ctx.group
    elts = [x for x in W.elements_of_length_leq(5 if fixture == "a1" else 3)]
    for x in elts:
        for y in elts:
            assert W.bruhat_leq(x, y) == subword_bruhat(W, x, y)


def test_dot_action_examples(a1):
    W = a1.group
    rd = a1.rd
    alpha = rd.simple_roots[0]
    zero = Weight((0,))
    assert W.dot_action(W.identity(), zero, rd.l) == zero
    assert W.dot_action(W.translation(alpha), zero, 3) == 3 * alpha
    assert W.dot_action(W.simple_reflection(0), zero, 5) == -alpha


def test_dot_action_is_group_action(a2):
    W = a2.group
    rd = a2.rd
    random.seed(11)
    elts = list(W.elements_of_length_leq(3))
    for _ in range(40):
        x, y = random.choice(elts), random.choice(elts)
        lam = Weight((random.randint(-4, 4), random.randint(-4, 4)))
        lhs = W.dot_action(W.multiply(x, y), lam, rd.l)
        rhs = W.dot_action(x, W.dot_action(y, lam, rd.l), rd.l)
        assert lhs == rhs


def test_longest_element(a1, a2, b2):
    assert a1.group.w0.length == 1
    assert a2.group.w0.length == 3
    assert a2.group.w0.word in ((0, 1, 0), (1, 0, 1))
    assert b2.group.w0.length == 4


def test_element_text_round_trip(a2):
    W = a2.group
    for x in W.elements_of_length_leq(4):
        assert W.parse_element(W.format_element(x)) == x
    assert W.parse_element("t(1,0)*w[1 2]") == W.multiply(
        W.translation(Weight((1, 0))), W.multiply(W.simple_reflection(0), W.simple_reflection(1))
    )
    assert W.parse_element("t(0,0)") == W.identity()
    with pytest.raises(ValueError):
        W.parse_element("t(1)*w[1]")
    with pytest.raises(ValueError):
        W.parse_element("t(1,0)*w[7]")


def test_equal_results_are_the_same_object(a2):
    W = a2.group
    x = W.parse_element("t(1,-2)*w[1 2]")
    assert W.parse_element("t(1,-2)*w[1 2]") is x
    assert W.parse_element(W.format_element(x)) is x
    assert W.multiply(W.translation(x.trans), W.element(Weight((0, 0)), x.w)) is x
    assert W.right_multiply_gen(W.right_multiply_gen(x, 0), 0) is x
    assert W.translate_left(Weight((-1, 2)), W.translate_left(Weight((1, -2)), x)) is x
    assert W.inverse(W.inverse(x)) is x
    assert W.multiply(x, W.inverse(x)) is W.identity()
    word, omega = W.reduced_word(x)
    assert W.from_word(word, omega) is x
    assert x.key == (tuple(x.trans), x.w.index)


def test_elements_of_two_groups_never_meet():
    rd = root_datum("A", 2, 5)
    W1, W2 = AffineWeyl(rd), AffineWeyl(rd)
    x1, x2 = W1.parse_element("t(1,0)*w[2]"), W2.parse_element("t(1,0)*w[2]")
    assert x1.key == x2.key
    assert x1 != x2
    assert len({x1, x2}) == 2
    with pytest.raises(ValueError):
        W1.multiply(x1, x2)


def test_equality_is_identity_not_a_method():
    assert "__eq__" not in ExtAffineElement.__dict__
    assert "__hash__" not in ExtAffineElement.__dict__


def test_weights_are_their_coordinate_tuples(a2):
    W, rd = a2.group, a2.rd
    a, b = Weight((1, -2)), Weight((3, 0))
    x = W.parse_element("t(1,-2)*w[1 2]")
    for value in (a + b, a - b, -a, 3 * a, a * 3, x.trans, W.dot_zero(x), x.w.apply(a), rd.rho):
        assert type(value) is Weight
    assert a * 3 == 3 * a == Weight((3, -6))
    assert (a + b, a - b, -a) == ((4, -2), (-2, -2), (-1, 2))
    t = (1, -2)
    assert Weight(t) == t and hash(Weight(t)) == hash(t)
    assert Weight((0, 0)).is_zero() and not a.is_zero()
    assert type(rd.coroot(rd.positive_roots[0])) is tuple
    for y in W.elements_of_length_leq(3):
        assert y.trans is y.key[0]
