"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line with its runtime and asserts the
stated time limit.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete.
"""

import json
import random
import time

from periodic_kl.cli import main
from periodic_kl.hecke import HeckeAlgebra
from periodic_kl.laurent import LaurentPoly, ONE, V, VINV, ZERO
from periodic_kl.multiplicity import MultiplicityTables, enumerate_blocks
from periodic_kl.orders import SemiInfiniteOrder, standard_window
from periodic_kl.periodic import PeriodicModule
from periodic_kl.rootdata import Weight, dominance_leq, root_datum
from periodic_kl.weyl import AffineWeyl
from oracles import dot_action, dot_orbit, dot_stabilizer, elements_of_length_leq, kl_by_linear_solve


class _Gate:
    def __init__(self, number: int, description: str, limit: float):
        self.number = number
        self.description = description
        self.limit = limit
        self.t0 = time.time()

    def done(self, ok: bool = True) -> None:
        elapsed = time.time() - self.t0
        status = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(f"{status} criterion {self.number}: {self.description} "
              f"({elapsed:.2f}s, limit {self.limit:.0f}s)")
        assert ok, f"criterion {self.number} failed"
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


def _fresh(typ, rank, l):
    rd = root_datum(typ, rank, l)
    return rd, AffineWeyl(rd)


def test_criterion_1_hecke_relations():
    gate = _Gate(1, "quadratic and braid relations (A1, A2, B2, G2; affine A1)", 10.0)
    rng = random.Random(0)
    for typ, rank, l in [("A", 1, 3), ("A", 2, 5), ("B", 2, 5), ("G", 2, 7)]:
        rd, W = _fresh(typ, rank, l)
        H = HeckeAlgebra(W)
        # quadratic relation for every affine simple reflection
        for j in W.affine_generator_indices():
            s = H.basis(W.affine_generator(j))
            one = H.basis(W.identity())
            lhs = H.multiply(s + one.scale(V), s - one.scale(VINV))
            assert lhs.is_zero()
        # braid relations, exhaustively over generator pairs of finite order
        for i in W.affine_generator_indices():
            for j in W.affine_generator_indices():
                if i == j:
                    continue
                m = _braid_order(W, i, j)
                if m is None:
                    continue  # infinite order: no braid relation (affine A1 pair)
                a = b = H.basis(W.identity())
                for k in range(m):
                    a = H.right_mul_gen(a, (i, j)[k % 2])
                    b = H.right_mul_gen(b, (j, i)[k % 2])
                assert a == b
        # 100 random elements of length <= 4: defining relation on additive
        # pairs and associativity of the expansion-based product
        elts = list(elements_of_length_leq(W, 4))
        for _ in range(100):
            x, y = rng.choice(elts), rng.choice(elts)
            z = W.multiply(x, y)
            if z.length == x.length + y.length:
                assert H.multiply(H.basis(x), H.basis(y)) == H.basis(z)
            w = rng.choice(elts)
            lhs = H.multiply(H.multiply(H.basis(x), H.basis(y)), H.basis(w))
            rhs = H.multiply(H.basis(x), H.multiply(H.basis(y), H.basis(w)))
            assert lhs == rhs
    gate.done()


def _braid_order(W, i, j, cap=8):
    prod = W.multiply(W.affine_generator(i), W.affine_generator(j))
    cur = prod
    for m in range(1, cap + 1):
        if cur == W.identity():
            return m
        cur = W.multiply(cur, prod)
    return None


def test_criterion_2_classical_kl_oracle():
    gate = _Gate(2, "classical KL basis matches the bar-invariance linear solve (finite A2)", 10.0)
    rd, W = _fresh("A", 2, 5)
    H = HeckeAlgebra(W)
    for w in W.finite_elements:
        x = W.element(Weight((0, 0)), w.index)
        recursive = H.kl_basis(x)
        solved = kl_by_linear_solve(H, x)
        assert recursive == solved
    gate.done()


def test_criterion_3_periodic_basis_certification():
    gate = _Gate(3, "self-dual basis certification, A1 l=3, height <= 3, all cosets", 60.0)
    rd, W = _fresh("A", 1, 3)
    M = PeriodicModule(W)
    order = M.order
    window = standard_window(W, 3)
    assert len(window) == 14  # 7 translations x 2 finite parts, both cosets included
    for x in window:
        sd = M.selfdual(x)
        assert sd.coefficient(x) == ONE
        for y, p in sd.terms.items():
            if y != x:
                assert p.in_v_times_Zv()
                assert order.leq(y, x)
    gate.done()


def test_criterion_4_inversion_identity():
    gate = _Gate(4, "signed inversion identity q*p = delta "
                    "(A1 h<=3; A2, B2, C2 h<=2, l=5; A3 h0, l=5; G2 h<=1, l=7)", 300.0)
    for typ, rank, l, height in [("A", 1, 3, 3), ("A", 2, 5, 2), ("B", 2, 5, 2),
                                 ("C", 2, 5, 2), ("A", 3, 5, 0), ("G", 2, 7, 1)]:
        rd, W = _fresh(typ, rank, l)
        M = PeriodicModule(W)
        assert M.inversion_report(standard_window(W, height)) == []
    gate.done()


def test_criterion_5_koszul_inverse():
    gate = _Gate(5, "Koszul operator inverts the geometric series on test windows", 60.0)
    for typ, rank, l, height in [("A", 1, 3, 3), ("A", 2, 5, 2), ("B", 2, 5, 2),
                                 ("C", 2, 5, 2), ("A", 3, 5, 0)]:
        rd, W = _fresh(typ, rank, l)
        M = PeriodicModule(W)
        window = standard_window(W, height)
        for x in window:
            sd = M.selfdual(x)
            targets = set(sd.terms) | set(window)
            for y in targets:
                assert M.koszul_of_series(y, x) == sd.coefficient(y)
    gate.done()


def test_criterion_6_order_equivalence():
    gate = _Gate(6, "generated order == translation characterization; l-independence", 60.0)
    for typ, rank, l, height in [("A", 1, 3, 3), ("A", 2, 5, 1)]:
        rd, W = _fresh(typ, rank, l)
        order = SemiInfiniteOrder(W)
        window = standard_window(W, height)
        mu = order.sufficient_mu(window)
        for a in window:
            for b in window:
                if a.omega_component != b.omega_component:
                    continue
                assert order.leq(a, b) == order.leq_via_translation(a, b, mu)
    # identical relation for l = 3 and l = 5 in A1
    rd3, W3 = _fresh("A", 1, 3)
    rd5, W5 = _fresh("A", 1, 5)
    O3, O5 = SemiInfiniteOrder(W3), SemiInfiniteOrder(W5)
    window = standard_window(W3, 3)
    for a in window:
        for b in window:
            a5 = W5.element(a.trans, a.w.index)
            b5 = W5.element(b.trans, b.w.index)
            assert O3.leq(a, b) == O5.leq(a5, b5)
    gate.done()


def test_criterion_7_block_combinatorics():
    gate = _Gate(7, "A1 l=3 block labels: 4 points, 2 regular, one of each singular type", 10.0)
    rd, W = _fresh("A", 1, 3)
    labels = enumerate_blocks(W)
    assert [b.representative for b in labels] == [(-1,), (0,), (1,), (2,)]
    assert sum(b.regular for b in labels) == 2
    singular_walls = sorted(b.walls for b in labels if not b.regular)
    assert singular_walls == [("s0",), ("s1",)]
    # brute-force dot-orbit verification on a bounded box
    orbits = [dot_orbit(W, b.representative, box=12, n=3) for b in labels]
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            assert not (orbits[i] & orbits[j])
    for b in labels:
        nontrivial = [g for g in dot_stabilizer(W, b.representative, n=3, max_len=2) if g.length > 0]
        assert bool(nontrivial) == (not b.regular)
        for g in b.stabilizer_generators:
            assert dot_action(W, g, b.representative, 3) == b.representative
    gate.done()


def test_criterion_8_multiplicity_plumbing():
    gate = _Gate(8, "multiplicity formulas: diagonals, truncation, translation invariance", 30.0)
    rd, W = _fresh("A", 1, 3)
    M = PeriodicModule(W)
    T = MultiplicityTables(M)
    window = standard_window(W, 2)
    rng = random.Random(1)
    for x in window:
        assert T.simple_in_verma(x, x) == ONE
    # truncation zeroing per the dominance test
    nu = Weight((-4,))
    for x in window[:4]:
        for y in window:
            val = T.verma_in_projective(x, y, nu)
            if not dominance_leq(rd, W.dot_zero(y), rd.l * nu):
                assert val == ZERO
    # translation invariance of all tables
    for _ in range(30):
        x, y = rng.choice(window), rng.choice(window)
        nu_shift = Weight((rng.randint(-2, 2),))
        xs, ys = W.translate_left(nu_shift, x), W.translate_left(nu_shift, y)
        assert T.simple_in_verma(x, y) == T.simple_in_verma(xs, ys)
        assert T.baby_verma_in_projective(x, y) == T.baby_verma_in_projective(xs, ys)
        assert M.p_polynomial(y, x) == M.p_polynomial(ys, xs)
    gate.done()


def test_criterion_9_determinism_and_round_trip(tmp_path):
    gate = _Gate(9, "byte-identical reruns and JSON round trip", 10.0)
    base = ["--type", "A", "--rank", "1", "--l", "3"]
    outputs = []
    for name in ("one", "two"):
        path = tmp_path / f"{name}.json"
        assert main(["table", "p", *base, "--height", "2", "-o", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    for name in ("b1", "b2"):
        path = tmp_path / f"{name}.json"
        assert main(["blocks", *base, "-o", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[2] == outputs[3]
    # round trip: parsed tables equal the in-memory ones
    payload = json.loads(outputs[0])
    rd, W = _fresh("A", 1, 3)
    M = PeriodicModule(W)
    for entry in payload["entries"]:
        y = W.parse_element(entry["y"])
        x = W.parse_element(entry["x"])
        assert LaurentPoly.from_json(entry["polynomial"]) == M.p_polynomial(y, x)
    listed = {(e["y"], e["x"]) for e in payload["entries"]}
    for xs in payload["elements"]:
        for ys in payload["elements"]:
            if (ys, xs) not in listed:
                assert M.p_polynomial(W.parse_element(ys), W.parse_element(xs)).is_zero()
    gate.done()
