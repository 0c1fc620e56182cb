import importlib
from fractions import Fraction
from itertools import product

import pytest

from periodic_kl.rootdata import Weight, dominance_leq, pairing, root_datum, validate_l

ALL_TYPES = [("A", 1, 3), ("A", 2, 5), ("A", 3, 5), ("B", 2, 5), ("C", 2, 5), ("G", 2, 7)]


@pytest.mark.parametrize("typ,rank,l", ALL_TYPES)
def test_structural_invariants(typ, rank, l):
    rd = root_datum(typ, rank, l)
    # sum of positive roots is 2 rho
    total = Weight((0,) * rank)
    for b in rd.positive_roots:
        total = total + b
    assert total == rd.rho + rd.rho
    # rho pairs to 1 with every simple coroot
    assert all(pairing(rd, rd.rho, i) == 1 for i in range(rank))
    # symmetrized pairing matrix is symmetric positive definite (Sylvester minors)
    sym = [list(row) for row in rd.sym]
    for k in range(1, rank + 1):
        minor = [row[:k] for row in sym[:k]]
        assert _det(minor) > 0
    # d_s relatively prime
    from math import gcd
    g = 0
    for d in rd.d:
        g = gcd(g, d)
    assert g == 1


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([[m[i][k] for k in range(n) if k != j] for i in range(1, n)]) for j in range(n))


def test_pairing_examples():
    a1 = root_datum("A", 1, 3)
    w = a1.fundamental_weight(0)
    assert pairing(a1, w, 0) == 1
    assert pairing(a1, a1.rho, 0) == 1
    a2 = root_datum("A", 2, 5)
    assert pairing(a2, a2.simple_roots[0], 0) == 2


def test_pairing_dimension_mismatch():
    a1 = root_datum("A", 1, 3)
    a2 = root_datum("A", 2, 5)
    with pytest.raises(ValueError):
        pairing(a1, a2.rho, a2.simple_coroots[0])


def test_dominance_examples():
    a1 = root_datum("A", 1, 3)
    zero = Weight((0,))
    alpha = a1.simple_roots[0]
    w = a1.fundamental_weight(0)
    assert dominance_leq(a1, zero, alpha)
    assert not dominance_leq(a1, w, zero)
    a2 = root_datum("A", 2, 5)
    assert dominance_leq(a2, a2.simple_roots[0], a2.simple_roots[0] + a2.simple_roots[1])


def test_root_coordinates_and_coset_tags():
    a2 = root_datum("A", 2, 5)
    assert a2.root_coordinates(a2.simple_roots[0]) == (Fraction(1), Fraction(0))
    assert a2.in_root_lattice(a2.simple_roots[0] + a2.simple_roots[1])
    assert not a2.in_root_lattice(a2.fundamental_weight(0))
    # tags are additive and e-periodic
    t1 = a2.coset_tag(a2.fundamental_weight(0))
    t3 = a2.coset_tag(3 * a2.fundamental_weight(0))
    assert t3 == (0, 0)
    assert t1 != (0, 0)


def test_validate_l():
    ok, warn = validate_l(root_datum("A", 1, 3))
    assert ok == [] and warn == []

    viol, _ = validate_l(root_datum("A", 2, 3))
    assert any("Coxeter" in v for v in viol)
    assert any("coprime to the lattice index" in v for v in viol)

    viol, warn = validate_l(root_datum("A", 2, 5))
    assert viol == [] and warn == []

    # even l
    viol, _ = validate_l(root_datum("A", 1, 4))
    assert any("odd" in v for v in viol)

    # G2: multiples of 3 rejected
    viol, _ = validate_l(root_datum("G", 2, 9))
    assert any("coprime to 3" in v for v in viol)

    # non prime power: warning only
    viol, warn = validate_l(root_datum("A", 1, 15))
    assert viol == []
    assert any("prime power" in w for w in warn)


def test_coxeter_numbers_and_lattice_index():
    expected = {("A", 1): (2, 2), ("A", 2): (3, 3), ("A", 3): (4, 4), ("B", 2): (4, 2), ("G", 2): (6, 1)}
    for (typ, rank), (h, e) in expected.items():
        rd = root_datum(typ, rank, 7 if typ != "A" else 5)
        assert rd.coxeter_number == h
        assert rd.lattice_index_e == e


def test_unsupported_type_rejected():
    with pytest.raises(ValueError):
        root_datum("E", 6, 13)


@pytest.mark.parametrize("typ,rank,l", ALL_TYPES)
def test_scaled_inverse_cartan_is_e_times_the_inverse(typ, rank, l):
    rd = root_datum(typ, rank, l)
    C, M, e = rd.cartan, rd.scaled_inverse_cartan, rd.lattice_index_e
    product_cm = [[sum(C[i][k] * M[k][j] for k in range(rank)) for j in range(rank)] for i in range(rank)]
    assert product_cm == [[e if i == j else 0 for j in range(rank)] for i in range(rank)]


@pytest.mark.parametrize("typ,rank,l", ALL_TYPES)
def test_integer_forms_match_their_fraction_definitions(typ, rank, l):
    # Root coordinates c of lam are the rational solution of C c = lam.
    rd = root_datum(typ, rank, l)
    e, zero = rd.lattice_index_e, Weight((0,) * rank)
    for lam in map(Weight, product(range(-3, 4), repeat=rank)):
        rc = rd.root_coordinates(lam)
        assert all(type(c) is Fraction for c in rc)
        assert all(sum(rd.cartan[s][t] * rc[t] for t in range(rank)) == lam[s] for s in range(rank))
        integral = all(c.denominator == 1 for c in rc)
        assert rd.in_root_lattice(lam) == integral
        assert rd.coset_tag(lam) == tuple(int(c * e) % e for c in rc)
        assert dominance_leq(rd, zero, lam) == (integral and all(c >= 0 for c in rc))
        assert dominance_leq(rd, lam, zero) == (integral and all(c <= 0 for c in rc))
        assert dominance_leq(rd, rd.rho, lam + rd.rho) == dominance_leq(rd, zero, lam)


@pytest.mark.parametrize("module", ["periodic_kl", *(f"periodic_kl.{m}" for m in (
    "cli", "hecke", "laurent", "multiplicity", "orders", "periodic", "rootdata", "weyl"))])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
