import contextlib
import json
import os
import random
import signal
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path
from types import MappingProxyType

import pytest

import periodic_kl
from periodic_kl.cli import main
from periodic_kl.rootdata import _CARTAN, Frozen, RootSystem, Weight, pairing, root_datum, root_system
from periodic_kl.weyl import AffineWeyl, ExtAffineElement, FiniteWeylElement, WeylTables, weyl_tables
from oracles import bfs_lengths, dot_action, elements_of_length_leq, from_word, subword_bruhat


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
    elts = list(elements_of_length_leq(W, 3))
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
    for x in elements_of_length_leq(W, 5):
        by_coset.setdefault(x.omega_component, {})[x] = x.length
    assert len(by_coset) == len(W.omega_elements)
    for tag, om in W.omega_elements.items():
        # om permutes the affine simple reflections by conjugation, so it has
        # length zero and word length from om is the length in its coset
        assert {W.multiply(W.multiply(om, s), W.inverse(om)) for s in gens} == gens
        assert bfs_lengths(W, om, 5) == by_coset[tag]


@pytest.mark.parametrize("fixture,bound", [
    ("a1", 6), ("a2", 6), ("b2", 6), ("c2", 6), ("g2", 6), ("a3", 4),
])
def test_length_changes_by_one(fixture, bound, request):
    # exhaustive up to the bound; the product by a built generator checks the
    # Cayley graph's slot, and the slot's sign is the descent
    W = request.getfixturevalue(fixture).group
    gens = [W.affine_generator(j) for j in W.affine_generator_indices()]
    for x in elements_of_length_leq(W, bound):
        for j, s in enumerate(gens):
            xs = W.multiply(x, s)
            assert W.right_multiply_gen(x, j) is xs
            assert abs(xs.length - x.length) == 1
            assert W.right_descent(x, j) == (xs.length < x.length)


@pytest.mark.parametrize("fixture", ["a1", "a2", "a3", "b2", "c2", "g2"])
def test_right_steps_is_the_group_law(fixture, request):
    # every row of the x s_j table, at lam = 0 and +-rho, against the product
    # by the built generator; this also reaches the A3 rows of length above 4
    ctx = request.getfixturevalue(fixture)
    W, rho = ctx.group, ctx.rd.rho
    for j in W.affine_generator_indices():
        s = W.affine_generator(j)
        for w in W.finite_elements:
            offset, ws = W.right_steps[j][w.index]
            for lam in (0 * rho, rho, -rho):
                assert W.multiply(W.element(lam, w), s) is W.element(lam + offset, ws), (j, w, lam)


@pytest.mark.parametrize("fixture", ["a1", "a2", "a3", "b2", "c2", "g2"])
def test_rises_are_the_length_change(fixture, request):
    # every row of the rise table, over a box of lam, against the lengths of
    # both ends by the Iwahori-Matsumoto formula: a group whose Cayley graph
    # stays empty computes every length by the formula
    rd = request.getfixturevalue(fixture).rd
    W = AffineWeyl(rd)
    for lam in map(Weight, product(range(-2, 3), repeat=rd.rank)):
        for w in W.finite_elements:
            x = W.element(lam, w)
            for j in W.affine_generator_indices():
                r, o = W.rises[j][w.index]
                rise = 1 if pairing(rd, lam, r) >= o else -1
                assert W._gen_step(x, j).length - x.length == rise, (j, w, lam)
    assert not W._elts


def test_a_key_of_another_rank_is_refused():
    # a translation with the wrong number of coordinates interns nothing
    W = AffineWeyl(root_datum("A", 2, 5))
    e = W.identity()
    before = dict(W._elements)
    for build in (lambda: W.element(Weight((1,)), 0), lambda: W.translate_left(Weight((1,)), e),
                  lambda: W.translation(Weight((1, 2, 3)))):
        with pytest.raises(ValueError, match=r"^expected 2 translation coordinates, got [13]$"):
            build()
    assert W._elements == before


def test_length_subadditive(a2):
    W = a2.group
    random.seed(3)
    elts = list(elements_of_length_leq(W, 4))
    for _ in range(60):
        x, y = random.choice(elts), random.choice(elts)
        z = W.multiply(x, y)
        assert z.length <= x.length + y.length


def test_omega_elements(a1, a2, g2, b2, c2, a3):
    assert len(a1.group.omega_elements) == 2
    assert len(a2.group.omega_elements) == 3
    assert len(g2.group.omega_elements) == 1
    # the minuscule search alone finds the whole length-zero subgroup: one
    # element per coset tag, each of length 0, and they are every length-zero
    # t(lam) w with lam in {-1, 0, 1}^rank
    for ctx in (a1, a2, g2, b2, c2, a3):
        W = ctx.group
        omegas = W.omega_elements
        assert len(omegas) == ctx.rd.lattice_index_e
        for tag, om in omegas.items():
            assert om.omega_component == tag and om.length == 0
        box = (W.element(lam, w) for lam in product((-1, 0, 1), repeat=ctx.rd.rank) for w in W.finite_elements)
        assert {x for x in box if x.length == 0} == set(omegas.values())


@pytest.mark.parametrize("fixture,bound", [
    ("a1", 6), ("a2", 6), ("b2", 6), ("c2", 6), ("g2", 4), ("a3", 4),
])
def test_reduced_words_reconstruct(fixture, bound, request):
    W = request.getfixturevalue(fixture).group
    for x in elements_of_length_leq(W, bound):
        word, omega = W.reduced_word(x)
        assert len(word) == x.length
        assert omega.length == 0
        assert from_word(W, word, omega) == x


@contextlib.contextmanager
def _within(seconds: float):
    """Raise TimeoutError in the body once it has run ``seconds``: a walk that
    loops fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _walked_a2():
    """A fresh A2 group, an element x of length 3 whose reduced word has
    filled the graph's slots along it, and x's lowest right descent xs."""
    W = AffineWeyl(root_datum("A", 2, 5))
    x = W.parse_element("t(1,-1)*w[1 2 1]")
    assert x.length == 3
    word, _ = W.reduced_word(x)
    return W, x, W.right_multiply_gen(x, word[-1])


@pytest.mark.parametrize("shift", [-5, -1, 1, 3])
def test_a_corrupted_length_entry_fails_the_reduced_word(shift):
    # the walk takes exactly the recorded length in steps: a record too long
    # runs out of descents, one too short stops above length 0
    W, x, _ = _walked_a2()
    W._lens[W._id(x)] += shift
    with _within(1.0), pytest.raises(AssertionError):
        W.reduced_word(x)


def test_a_slot_cycle_fails_the_walks_instead_of_looping():
    # x and xs each recorded as the other's descent: a walk down them never
    # reaches length 0.  With a corrupted length entry at the bottom of the
    # coset, the Bruhat walk from x would keep it live for a billion steps.
    W, x, xs = _walked_a2()
    a, b = W._id(x), W._id(xs)
    W._nbrs[0][b] = ~a
    with _within(1.0), pytest.raises(AssertionError):
        W.reduced_word(x)
    bottom = next(om for om in W.omega_elements.values() if om.omega_component == x.omega_component)
    W._lens[W._id(bottom)] = -10 ** 9
    with _within(1.0), pytest.raises(AssertionError):
        W.bruhat_column([bottom], x)


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
    elts = [x for x in elements_of_length_leq(W, 5 if fixture == "a1" else 3)]
    for x in elts:
        for y in elts:
            assert W.bruhat_leq(x, y) == subword_bruhat(W, x, y)


def test_dot_action_examples(a1):
    W = a1.group
    rd = a1.rd
    alpha = rd.simple_roots[0]
    zero = Weight((0,))
    assert dot_action(W, W.identity(), zero, rd.l) == zero
    assert dot_action(W, W.translation(alpha), zero, 3) == 3 * alpha
    assert dot_action(W, W.simple_reflection(0), zero, 5) == -alpha


def test_dot_action_is_group_action(a2):
    W = a2.group
    rd = a2.rd
    random.seed(11)
    elts = list(elements_of_length_leq(W, 3))
    for _ in range(40):
        x, y = random.choice(elts), random.choice(elts)
        lam = Weight((random.randint(-4, 4), random.randint(-4, 4)))
        lhs = dot_action(W, W.multiply(x, y), lam, rd.l)
        rhs = dot_action(W, x, dot_action(W, y, lam, rd.l), rd.l)
        assert lhs == rhs


def test_longest_element(a1, a2, b2):
    assert a1.group.w0.length == 1
    assert a2.group.w0.length == 3
    assert a2.group.w0.word in ((0, 1, 0), (1, 0, 1))
    assert b2.group.w0.length == 4


def test_element_text_round_trip(a2):
    W = a2.group
    for x in elements_of_length_leq(W, 4):
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
    assert from_word(W, word, omega) is x
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
    assert type(rd.coroot(rd.positive_roots[0])) is tuple
    for y in elements_of_length_leq(W, 3):
        assert y.trans is y.key[0]


# -- the per-type tables --------------------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"
SHARED = ("finite_elements", "_fin_mul", "_gen_indices", "root_images", "sign_table", "w0",
          "simple_root_pos", "reflection_index", "s0_root", "right_steps", "rises")


def test_groups_of_one_type_share_its_tables_and_keep_their_own_state():
    W5, W7 = AffineWeyl(root_datum("A", 2, 5)), AffineWeyl(root_datum("A", 2, 7))
    assert W5.rd.positive_roots is W7.rd.positive_roots is root_system("A", 2).positive_roots
    assert W5.finite_elements is weyl_tables("A", 2).finite_elements
    for name in SHARED:
        assert getattr(W5, name) is getattr(W7, name), name
    # a group's elements, Cayley graph and length-zero elements are its own
    for name in ("_elements", "_ids", "_elts", "_lens", "_nbrs", "omega_elements"):
        assert getattr(W5, name) is not getattr(W7, name), name
    assert W5.omega_elements.keys() == W7.omega_elements.keys()
    for tag, omega in W5.omega_elements.items():
        assert omega is not W7.omega_elements[tag] and omega.key == W7.omega_elements[tag].key
        assert omega.rd is W5.rd
    x = W5.parse_element("t(1,-2)*w[1 2]")
    W5.reduced_word(x)
    assert W5._elts and not W7._elts and x.key not in W7._elements
    assert W5.dot_zero(x) != W7.dot_zero(W7.parse_element("t(1,-2)*w[1 2]"))


def test_a_type_is_built_once_per_process():
    # the A2 and B2 table and mult invocations of the benchmark, replayed in
    # one fresh process, build each type's tables on the first call only
    probe = textwrap.dedent(f"""
        import contextlib, io, json, sys
        sys.path.insert(0, {str(BENCH)!r})
        import workloads
        from periodic_kl.cli import main
        from periodic_kl.rootdata import root_system
        from periodic_kl.weyl import weyl_tables

        def datum(argv):
            return argv[argv.index("--type") + 1] + argv[argv.index("--rank") + 1]

        argvs = [inv.argv for inv in workloads.build("tables_cold", 0).invocations
                 if inv.argv[0] in ("table", "mult") and datum(inv.argv) in ("A2", "B2")]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv
        built = [(cache.cache_info().misses, cache.cache_info().currsize) for cache in (root_system, weyl_tables)]
        print(json.dumps([len(argvs), sorted(set(map(datum, argvs))), built]))
    """)
    src = str(Path(periodic_kl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    n, data, built = json.loads(result.stdout)
    assert data == ["A2", "B2"] and n > 20
    assert built == [[2, 2], [2, 2]]


def _reachable(obj):
    """Every object reachable from ``obj`` through tuples, read-only mappings
    and the fields of frozen records."""
    seen, stack = {}, [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen[id(o)] = o
        if isinstance(o, tuple):
            stack.extend(o)
        elif isinstance(o, MappingProxyType):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, Frozen):
            stack.extend(getattr(o, name) for name in type(o).__slots__)
    return seen.values()


@pytest.mark.parametrize("key", sorted(_CARTAN), ids=lambda key: f"{key[0]}{key[1]}")
def test_the_shared_tables_are_immutable(key):
    roots, weyl = root_system(*key), weyl_tables(*key)
    kinds = {type(o) for o in _reachable((roots, weyl))}
    assert kinds <= {int, str, tuple, Weight, MappingProxyType, FiniteWeylElement, RootSystem, WeylTables}, kinds
    w = weyl.finite_elements[-1]
    for container, index, value in ((weyl.right_steps[0], 0, ((0,) * key[1], 0)), (weyl.fin_mul[0], 0, 1),
                                    (roots.positive_roots, 0, roots.rho), (roots.coroots, roots.rho, roots.rho),
                                    (w.length_form, 0, ((0,) * key[1], 0))):
        with pytest.raises(TypeError):
            container[index] = value
    for record in (roots, weyl, w):
        for name in type(record).__slots__:
            with pytest.raises(AttributeError, match="frozen"):
                setattr(record, name, 0)
            with pytest.raises(AttributeError, match="frozen"):
                delattr(record, name)
    assert root_system(*key) is roots and weyl_tables(*key) is weyl


def test_a_refused_edit_leaves_later_invocations_unchanged(capsys):
    argv = ["table", "q", "--type", "A", "--rank", "2", "--l", "5", "--height", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    weyl = weyl_tables("A", 2)
    with pytest.raises(TypeError):
        weyl.rises[0][0] = ((0, 0), 0)
    with pytest.raises(AttributeError):
        weyl.w0.inverse_index = 0
    assert main(argv) == 0
    assert capsys.readouterr().out == first
