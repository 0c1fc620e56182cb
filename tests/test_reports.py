"""The selfcheck reports of the periodic module, evaluated per translation-
difference block (inversion) and per class term (Koszul), against the
per-pair loops they replaced; the planted defects of each report are in
test_cli.py, next to the selfcheck lines they fail."""

from operator import sub

import pytest

from periodic_kl.laurent import unpack
from periodic_kl.orders import standard_window
from periodic_kl.periodic import PeriodicModule
from periodic_kl.rootdata import Weight
from oracles import inversion_report_per_pair, koszul_report_per_pair


def _by_keys(bad):
    return sorted(bad, key=lambda entry: (entry[0].key, entry[1].key))


WINDOWS = [
    ("a1", 3, None),
    ("a2", 1, None), ("a2", 1, (0, 0)), ("a2", 1, (1, 2)), ("a2", 1, (2, 1)),
    ("b2", 1, None), ("c2", 1, None), ("g2", 0, None), ("g2", 1, None), ("a3", 0, None),
]


@pytest.mark.parametrize("name,height,coset", WINDOWS)
def test_reports_match_the_per_pair_loops(monkeypatch, request, name, height, coset):
    # each report evaluates every orbit (inversion) and class term (Koszul)
    # of the window exactly once, and each packed value is the per-pair
    # entry point's on a module that no report has filled
    ctx = request.getfixturevalue(name)
    W, rd = ctx.group, ctx.rd
    window = standard_window(W, height, coset)
    inversion, koszul = {}, {}
    real_inversion, real_koszul = PeriodicModule._inversion_packed, PeriodicModule._koszul_sum

    def recording_inversion(self, d, target, yw, zw):
        assert (d, yw, zw) not in inversion and target == self._encode(d)
        out = inversion[d, yw, zw] = real_inversion(self, d, target, yw, zw)
        return out

    def recording_koszul(self, u, c, target):
        assert (target, u, c) not in koszul
        out = koszul[target, u, c] = real_koszul(self, u, c, target)
        return out

    monkeypatch.setattr(PeriodicModule, "_inversion_packed", recording_inversion)
    monkeypatch.setattr(PeriodicModule, "_koszul_sum", recording_koszul)
    M = PeriodicModule(W)
    bad_inversion, bad_koszul = M.inversion_report(window), M.koszul_report(window)
    monkeypatch.undo()

    N = PeriodicModule(W)
    assert _by_keys(bad_inversion) == _by_keys(inversion_report_per_pair(N, window))
    assert _by_keys(bad_koszul) == _by_keys(koszul_report_per_pair(N, window))
    zero = Weight((0,) * rd.rank)
    orbits = {(tuple(map(sub, z.trans, y.trans)), y.w.index, z.w.index)
              for y in window for z in window if y.omega_component == z.omega_component}
    assert inversion.keys() == orbits
    for (d, yw, zw), packed in inversion.items():
        assert unpack(*packed, "", "") == N.inversion_sum(W.element(zero, yw), W.element(Weight(d), zw))
    terms = {(M._encode(t), u, c): t
             for c in {x.w.index for x in window} for t, u in M._class(c)}
    assert koszul.keys() == terms.keys()
    for (target, u, c), packed in koszul.items():
        value = unpack(*packed, "", "")
        assert value == N.koszul_of_series(W.element(Weight(terms[target, u, c]), u), W.element(zero, c))
        assert value == M._class(c)[terms[target, u, c], u][2]


def test_a_ragged_window_reports_like_the_per_pair_loops(a2):
    # a window holding part of some translation fibers: the blocks pair
    # only the elements present
    window = standard_window(a2.group, 1)[1::3]
    M, N = PeriodicModule(a2.group), PeriodicModule(a2.group)
    assert M.inversion_report(window) == [] == inversion_report_per_pair(N, window)
    assert M.koszul_report(window) == [] == koszul_report_per_pair(N, window)
