import random

from hypothesis import given, settings, strategies as st

from oracles import is_bar_symmetric, lower_symmetrization, poly_bar, poly_shift
from periodic_kl.laurent import LaurentPoly, ONE, V, VINV, ZERO, pack, unpack

# Fixed example sequence and no example database: the property tests below
# draw the same examples on every run.
_settings = settings(derandomize=True, database=None)
_coeffs = st.integers(-50, 50)
laurent_polys = st.dictionaries(st.integers(-6, 6), _coeffs, max_size=5).map(LaurentPoly)
zv_polys = st.dictionaries(st.integers(0, 8), _coeffs, max_size=6).map(LaurentPoly)


def rand_poly(rng, span=4, size=3):
    return LaurentPoly({rng.randint(-span, span): rng.randint(-5, 5) for _ in range(size)})


def test_ring_examples():
    assert (V + VINV) + (-VINV) == V
    assert (VINV - V) * V == ONE - LaurentPoly({2: 1})
    p = LaurentPoly({3: 2, -1: 1})
    assert p * ZERO == ZERO
    assert p - p == ZERO
    assert p + ZERO == p


def test_ring_axioms_randomized():
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_bar_examples():
    assert poly_bar(V) == VINV
    assert poly_bar(ONE + LaurentPoly({2: 1})) == ONE + LaurentPoly({-2: 1})
    rng = random.Random(1)
    for _ in range(30):
        p, q = rand_poly(rng), rand_poly(rng)
        assert poly_bar(poly_bar(p)) == p
        assert poly_bar(p * q) == poly_bar(p) * poly_bar(q)


def test_in_v_times_Zv():
    assert (V + LaurentPoly({2: 3})).in_v_times_Zv()
    assert not ONE.in_v_times_Zv()
    assert ZERO.in_v_times_Zv()
    assert not (V + VINV).in_v_times_Zv()


def test_lower_symmetrization():
    p = LaurentPoly({-2: 3, 0: 1, 1: 7})
    m = lower_symmetrization(p)
    assert m == LaurentPoly({-2: 3, 0: 1, 2: 3})
    assert is_bar_symmetric(m)
    assert (p - m).in_v_times_Zv()
    rng = random.Random(2)
    for _ in range(30):
        p = rand_poly(rng)
        m = lower_symmetrization(p)
        assert is_bar_symmetric(m)
        assert (p - m).in_v_times_Zv()


def test_canonical_string():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(V + VINV) == "v^-1 + v"
    assert str(LaurentPoly({0: 1, 2: -2})) == "1 - 2*v^2"
    assert str(LaurentPoly({-1: -1})) == "-v^-1"


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_poly(rng)
        assert LaurentPoly.from_json(p.to_json()) == p


@_settings
@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a - a == ZERO and a + (-b) == a - b
    assert (a * V) * VINV == a == poly_shift(poly_shift(a, 3), -3)
    assert poly_shift(a, 2) == a * V * V and poly_shift(a, -1) == a * VINV


@_settings
@given(laurent_polys, laurent_polys)
def test_bar_is_an_involutive_ring_homomorphism(a, b):
    assert poly_bar(poly_bar(a)) == a
    assert poly_bar(a + b) == poly_bar(a) + poly_bar(b)
    assert poly_bar(a * b) == poly_bar(a) * poly_bar(b)
    assert poly_bar(a * V) == poly_bar(a) * VINV


@_settings
@given(zv_polys)
def test_unpack_inverts_pack(p):
    bound = max(map(abs, p.coeffs.values()), default=0)
    assert unpack(pack(p), bound, "value", "key") == p


@_settings
@given(laurent_polys, laurent_polys)
def test_equal_values_hash_equal_also_after_one_was_hashed(a, b):
    # Each operand order fills its dict in its own order; the hash is kept
    # per object from its first use on.
    s, t = a + b, b + a
    assert s is not t
    first = hash(s)
    assert hash(t) == first == hash(s) == hash(LaurentPoly(dict(reversed(s.coeffs.items()))))
    assert {s: 1}[t] == 1
    assert hash(V) != hash(VINV) and hash(V) == hash(LaurentPoly({1: 1})) != hash(V + V)


@_settings
@given(zv_polys)
def test_an_unpacked_value_hashes_as_its_equal(p):
    hash(p)
    bound = max(map(abs, p.coeffs.values()), default=0)
    assert hash(unpack(pack(p), bound, "value", "key")) == hash(p)
