"""The packed Z[v] sums of the periodic layer against LaurentPoly oracles,
at the shared digit width and at narrow ones, and the packed root-lattice
vectors they read against tuples, at the real field width and at narrow
ones."""

import random
from itertools import product
from operator import add, sub

import pytest

from periodic_kl import laurent, periodic
from periodic_kl.cli import main
from periodic_kl.hecke import ResourceError
from periodic_kl.laurent import ONE, ZERO, LaurentPoly
from periodic_kl.orders import standard_window
from periodic_kl.periodic import PeriodicModule, _pack_vector, _unpack_vector
from periodic_kl.rootdata import Weight
from oracles import class_element, generic_polynomial_by_dicts, generic_terms_by_dicts, module_with_classes_of


def _same_coset_pairs(window):
    return [(y, x) for x in window for y in window if y.omega_component == x.omega_component]


@pytest.mark.parametrize("name,height", [
    ("a1", 2), ("a2", 1), ("b2", 1), ("c2", 1), ("g2", 0), ("a3", 0),
])
def test_generic_polynomials_match_the_dict_oracle(request, name, height):
    ctx = request.getfixturevalue(name)
    M = ctx.module
    for y, x in _same_coset_pairs(standard_window(ctx.group, height)):
        for kind in ("q", "qprime"):
            assert M.generic_polynomial(y, x, kind) == generic_polynomial_by_dicts(M, y, x, kind), (y, x, kind)


def test_narrow_width_matches_the_oracles_a2_h1(monkeypatch, a2):
    # 8 bits per exponent hold every l1 bound of the A2 l5 h1 checks, so
    # every decode must still give the exact values
    monkeypatch.setattr(laurent, "_WIDTH", 8)
    M = PeriodicModule(a2.group)
    window = standard_window(a2.group, 1)
    for y, x in _same_coset_pairs(window):
        for kind in ("q", "qprime"):
            assert M.generic_polynomial(y, x, kind) == generic_polynomial_by_dicts(M, y, x, kind), (y, x, kind)
    assert M.inversion_report(window) == []
    for x in window:
        sd = M.selfdual(x)
        for y in set(sd.terms) | set(window):
            assert M.koszul_of_series(y, x) == sd.coefficient(y)


def test_guard_refuses_a_digit_that_would_wrap(monkeypatch, a2):
    # q = 2v^3 + v^5 here, and a 2-bit balanced digit in [-2, 2) cannot hold the 2
    W = a2.group
    y, x = W.parse_element("t(0,0)*w[2 1]"), W.parse_element("t(1,1)*w[1]")
    # the classes this test preloads, solved at the full width before it is patched
    classes = {w.index: class_element(a2.module, w.index) for w in W.finite_elements}
    monkeypatch.setattr(laurent, "_WIDTH", 2)
    # the class solve runs on the same digits, and its bounds (up to 4 on
    # A2) do not fit in 2 bits either: it refuses before reading one
    with pytest.raises(ResourceError, match=r"^self-dual class t\(0,0\)\*w\[[12 ]*\] \(trans, w\) at \(\(-?\d+, -?\d+\), \d+\): "
                                            r"the coefficient bound \(\d+ bits\) reaches the packed digit width of 2 bits$"):
        PeriodicModule(W)._class(x.w.index)
    # so the classes enter the store from the full-width solve, packed at 2 bits
    M = PeriodicModule(W)
    for w_index, element in classes.items():
        M.preload_class(w_index, element)
    true = generic_polynomial_by_dicts(M, y, x)
    assert true == LaurentPoly({3: 2, 5: 1})
    with pytest.raises(ResourceError, match=r"^generic q \(y.trans - x.trans, y.w, x.w\) at \(\(-1, -1\), \d+, \d+\): "
                                            r"the coefficient bound \(\d+ bits\) reaches the packed digit width of 2 bits$"):
        M.generic_polynomial(y, x, "q")
    # what the guard keeps out: the same packed value read without it
    _, rows, _ = M._generic_table(y.w.index, x.w.index)
    packed, bound = M._generic_sum(*M._encode(tuple(map(sub, y.trans, x.trans))), rows, True)
    assert bound >= 2 and laurent.unpack(packed, 0, "", "") != true


def test_selfcheck_exits_3_when_the_guard_fires(monkeypatch, capsys):
    monkeypatch.setattr(laurent, "_WIDTH", 4)
    code = main(["selfcheck", "--type", "A", "--rank", "2", "--l", "5", "--height", "1", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("resource bound exceeded: inversion sum (z.trans - y.trans, y.w, z.w) at ")
    assert lines[0].endswith("reaches the packed digit width of 4 bits")
    assert "the coefficient bound (" in lines[0]


def test_koszul_report_refuses_a_sum_whose_bound_reaches_the_width(monkeypatch, b2):
    # the B2 classes solve at 4 bits, but the bounds of the Koszul sums (up
    # to 35 on the h1 window) do not fit
    monkeypatch.setattr(laurent, "_WIDTH", 4)
    M = PeriodicModule(b2.group)
    with pytest.raises(ResourceError, match=r"^Koszul sum \(y.trans - x.trans, y.w, x.w\) at \(\(-?\d+, -?\d+\), \d+, \d+\): "
                                            r"the coefficient bound \(\d+ bits\) reaches the packed digit width of 4 bits$"):
        M.koszul_report(standard_window(b2.group, 1))


def _l1(p: LaurentPoly) -> int:
    return sum(map(abs, p.coeffs.values()))


@pytest.mark.parametrize("name,height,generic,sample", [("a2", 1, True, None), ("g2", 1, False, 500)])
def test_each_bound_dominates_the_l1_norms_of_its_terms(monkeypatch, request, name, height, generic, sample):
    # every decode's bound is at least sum l1(a) * l1(b) over the products
    # a * b it sums (q from the checked generic values, p and the series
    # from dicts), which bounds every |c_e| of the value; a bound that drops
    # a factor falls below it somewhere here
    ctx = request.getfixturevalue(name)
    seen = {}
    corrections = {}  # the corrections (z, m) of each class solve
    real_unpack, real_certify = periodic.unpack, PeriodicModule._certify

    def recording_unpack(packed, bound, what, key):
        seen[what, key] = bound
        return real_unpack(packed, bound, what, key)

    def recording_certify(self, w_index, result, product, made):
        corrections[w_index] = [(W.element(Weight(z[0]), z[1]), m) for z, m in made]
        return real_certify(self, w_index, result, product, made)

    monkeypatch.setattr(periodic, "unpack", recording_unpack)
    monkeypatch.setattr(PeriodicModule, "_certify", recording_certify)
    M, W, roots = PeriodicModule(ctx.group), ctx.group, ctx.rd.positive_roots
    zero = Weight((0,) * ctx.rd.rank)
    for y, x in _same_coset_pairs(standard_window(W, height)):
        if generic:  # the dict series are too slow for every G2 h1 pair
            M.generic_polynomial(y, x, "q")
            M.generic_polynomial(y, x, "qprime")
        M.inversion_sum(y, x)
        M.koszul_of_series(y, x)
    koszul: dict = {}
    for subset in product((0, 1), repeat=len(roots)):
        sigma = zero
        for k, b in zip(subset, roots):
            if k:
                sigma = sigma + b
        size = sum(subset)
        koszul[sigma] = koszul.get(sigma, ZERO) + LaurentPoly({2 * size: -1 if size % 2 else 1})
    w0 = W.element(zero, W.w0.index)
    kinds = set()
    decoded = list(seen.items())
    for (what, key), bound in decoded if sample is None else random.Random(0).sample(decoded, sample):
        kind = what.split()[0] if what.startswith(("Koszul", "inversion", "self-dual")) else what.split()[1]
        kinds.add(kind)
        if kind == "self-dual":
            # the product's terms l1(c) at x s and at x, plus |m| l1(c) for
            # each term c of SD_z at this position, over the corrections
            # m SD_z of the class solve
            lead = W.parse_element(what[len("self-dual class "):-len(" (trans, w)")])
            pos = W.element(Weight(key[0]), key[1])
            j, nu, sigma = M._down_policy[lead.w.index]
            base = M.shift(class_element(M, sigma), nu)
            need = sum(_l1(c) for x, c in base.terms.items() if pos in (x, W.right_multiply_gen(x, j)))
            for z, m in corrections[lead.w.index]:
                if z is not pos:
                    need += abs(m) * _l1(M.selfdual(z).coefficient(pos))
        elif kind == "inversion":
            d, yw, zw = key
            y, z = W.element(zero, yw), W.element(Weight(d), zw)
            need = sum(_l1(M.generic_polynomial(W.multiply(w0, pos), y)) * _l1(p)
                       for pos, p in M.selfdual(W.multiply(w0, z)).terms.items())
        else:
            rel, u, c = key
            y, x = W.element(Weight(rel), u), W.element(zero, c)
            if kind == "Koszul":
                need = sum(_l1(M.generic_polynomial(W.translate_left(sigma, y), x)) * _l1(k)
                           for sigma, k in koszul.items())
            else:
                need = sum(_l1(p) * _l1(series) for p, series in generic_terms_by_dicts(M, y, x, kind))
        assert bound >= need, (what, key, bound, need)
    assert kinds == ({"q", "qprime"} if generic else set()) | {"Koszul", "inversion", "self-dual"}


@pytest.mark.parametrize("field", [periodic._FIELD, 6])
def test_packed_vectors_agree_with_tuples_at_the_field_edges(monkeypatch, a1, a2, a3, field):
    # every encoded coordinate lies within 2^(F-2) - 1 of zero; the sum of
    # two such vectors must decode to the tuple sum, and the two AND tests
    # must read the signs and the range of the tuples
    monkeypatch.setattr(periodic, "_FIELD", field)
    edge = (1 << (field - 2)) - 1
    for ctx in (a1, a2, a3):
        rank = ctx.rd.rank
        mask, offset = PeriodicModule(ctx.group)._vector_masks
        vectors = list(product((-edge, -edge + 1, -1, 0, 1, edge), repeat=rank))
        packed = {v: _pack_vector(v) for v in vectors}
        for a in vectors:
            assert _unpack_vector(packed[a], rank) == a
            for b in vectors:
                total = tuple(map(add, a, b))
                at = packed[a] + packed[b]
                assert at == _pack_vector(total) and _unpack_vector(at, rank) == total
                assert ((at + offset) & mask == 0) == all(-edge - 1 <= c <= edge for c in total), (a, b)
                assert ((packed[a] - packed[b]) & mask == 0) == all(map(int.__ge__, a, b)), (a, b)


def test_a_query_that_would_alias_in_the_field_is_zero(a2):
    # rc(rel) = (-2^F, 1): packed without the range check, E(rel) = (-3 2^F,
    # 3) reads as the zero vector, where q = 1; its second coordinate exceeds
    # every row's, so q is zero exactly
    W, rd, field = a2.group, a2.rd, periodic._FIELD
    alpha1, alpha2 = rd.simple_roots
    rel = Weight(-(1 << field) * a + b for a, b in zip(alpha1, alpha2))
    assert rd.root_coordinates(rel) == (-(1 << field), 1)
    assert sum(c << (field * i) for i, c in enumerate(rd.scaled_root_coordinates(rel))) == 0
    M = PeriodicModule(W)
    e, y = W.element(Weight((0, 0)), 0), W.element(rel, 0)
    assert M.generic_polynomial(e, e, "q") == ONE
    for kind in ("q", "qprime"):
        assert M.generic_polynomial(y, e, kind) == ZERO
    assert M.koszul_of_series(y, e) == ZERO == M.inversion_sum(e, y)


def test_keys_past_the_field_edge_are_zero_or_refused(a2):
    # a Koszul or inversion key is a target plus an offset, each within
    # 2^(F-2) - 1 of zero, so it may lie past the edge though each part is
    # encoded; such a key is decoded, and its q is zero when a coordinate
    # exceeds the rows' maxima (here the one row of e(0) at t(0)e, E = 0),
    # and refused otherwise
    edge = (1 << (periodic._FIELD - 2)) - 1
    M = PeriodicModule(a2.group)
    _, rows, top = M._generic_table(0, 0)
    assert [row[:2] for row in rows] == [(0, 0)] and top == 0
    assert M._generic_sum(_pack_vector((edge, -edge)), 0, rows, True) == (0, 0)
    assert M._generic_sum(_pack_vector((edge + 1, -edge - 1)), 0, rows, True) == (0, 0)
    with pytest.raises(ResourceError, match=r"^generic q at E\(y.trans - x.trans\) = \(-\d+, 0\): "
                                            r"a scaled root coordinate reaches the packed vector bound 2\^30 "):
        M._generic_sum(_pack_vector((-edge - 2, 0)), -edge - 2, rows, True)
    assert not M._series  # no key reached the partition series


def _per_pair_values(M, pairs):
    values = {}
    for y, x in pairs:
        for name, query in (("q", lambda: M.generic_polynomial(y, x, "q")),
                            ("qprime", lambda: M.generic_polynomial(y, x, "qprime")),
                            ("inversion", lambda: M.inversion_sum(y, x)),
                            ("koszul", lambda: M.koszul_of_series(y, x))):
            try:
                values[name, y, x] = query()
            except ResourceError as err:
                values[name, y, x] = str(err)
    return values


@pytest.mark.parametrize("name,field,refused", [("a2", 6, False), ("a2", 4, True), ("b2", 5, True)])
def test_narrow_fields_give_the_full_field_values_or_refuse(monkeypatch, request, name, field, refused):
    # on the h1 window at a narrow field, every per-pair value is the one at
    # the real field, or a refusal that names the field's bound: never a
    # wrapped value, and no partial table left behind by a refusal
    ctx = request.getfixturevalue(name)
    pairs = _same_coset_pairs(standard_window(ctx.group, 1))
    expected = _per_pair_values(module_with_classes_of(ctx.module), pairs)
    monkeypatch.setattr(periodic, "_FIELD", field)
    got = _per_pair_values(module_with_classes_of(ctx.module), pairs)
    bound = f"reaches the packed vector bound 2^{field - 2} (periodic._FIELD = {field} bits)"
    refusals = [key for key, value in got.items() if isinstance(value, str)]
    assert all(bound in got[key] for key in refusals)
    assert bool(refusals) == refused
    assert all(got[key] == value for key, value in expected.items() if key not in refusals)
