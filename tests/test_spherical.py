"""Spherical coefficients of the Kazhdan-Lusztig basis against Lusztig's
q-analogue of weight multiplicity, an oracle that shares no recursion with
``HeckeAlgebra.kl_basis``.

For dominant lam, n_lam = w0 t(lam) = t(w0 lam) w0 is the longest element of
the double coset W t(lam) W, of length len(w0) + <lam, 2 rho^>.  In Soergel's
normalization

    h_{n_mu, n_lam}(v) = m^mu_lam(v^2)        (mu, lam dominant)

(G. Lusztig, "Singularities, character formulas, and a q-analog of weight
multiplicities", Asterisque 101-102, 1983; S. Kato, "Spherical functions and
a q-analogue of Kostant's weight multiplicity formula", Invent. Math. 66,
1982).
"""

from itertools import product
from operator import mul

import pytest

from oracles import q_weight_multiplicity
from periodic_kl import hecke
from periodic_kl.hecke import HeckeAlgebra
from periodic_kl.laurent import LaurentPoly
from periodic_kl.rootdata import Weight

# The exponents m_i of W: the zero weight of the adjoint module, whose
# highest weight is the highest root, has q-multiplicity sum_i q^{m_i}
# (Kostant), a check of the oracle on its own.
_EXPONENTS = {"a1": (1,), "a2": (1, 2), "a3": (1, 2, 3), "b2": (1, 3), "c2": (1, 3), "g2": (1, 5)}


@pytest.mark.parametrize("name", sorted(_EXPONENTS))
def test_q_multiplicity_of_zero_in_the_adjoint_module(request, name):
    ctx = request.getfixturevalue(name)
    zero = Weight((0,) * ctx.rd.rank)
    m = q_weight_multiplicity(ctx.group, ctx.rd.highest_root, zero)
    assert m == LaurentPoly({k: 1 for k in _EXPONENTS[name]})


def _check_spherical(ctx, lams, box: int) -> int:
    """Compare h_{n_mu, n_lam} with m^mu_lam(v^2) for every lam in ``lams`` and
    every dominant mu with coordinates <= ``box`` or with n_mu in the support
    of C_{n_lam}; return the number of nonzero coefficients compared."""
    W, rd = ctx.group, ctx.rd
    H = HeckeAlgebra(W)
    w0 = W.element(Weight((0,) * rd.rank), W.w0.index)
    boxed = {Weight(c) for c in product(range(box + 1), repeat=rd.rank)}
    nonzero = 0
    for lam in lams:
        n_lam = W.multiply(w0, W.translation(lam))
        assert n_lam is W.element(W.w0.apply(lam), W.w0.index)
        assert n_lam.length == W.w0.length + sum(map(mul, lam, rd.two_rho_check))
        kl = H.kl_basis(n_lam)
        mus = boxed | {mu for mu in (W.w0.apply(y.trans) for y in kl.terms if y.w.index == W.w0.index)
                       if min(mu) >= 0}
        for mu in mus:
            m = q_weight_multiplicity(W, lam, mu)
            h = kl.coefficient(W.multiply(w0, W.translation(mu)))
            assert h == LaurentPoly({2 * k: c for k, c in m.coeffs.items()}), (lam, mu)
            nonzero += not h.is_zero()
    return nonzero


@pytest.mark.parametrize("name,box", [("a1", 8), ("a2", 3), ("b2", 3), ("c2", 3), ("g2", 2), ("a3", 1)])
def test_spherical_kl_coefficients_are_q_weight_multiplicities(request, name, box):
    # every pair of dominant weights in the box, and every spherical term
    ctx = request.getfixturevalue(name)
    lams = [Weight(c) for c in product(range(box + 1), repeat=ctx.rd.rank)]
    assert _check_spherical(ctx, lams, box) > len(lams)


@pytest.mark.slow
def test_spherical_kl_coefficients_g2_up_to_5rho(g2, monkeypatch):
    # n_{5 rho} has length 86, above the default length bound
    monkeypatch.setattr(hecke, "MAX_LENGTH", 86)
    lams = [k * g2.rd.rho for k in (3, 4, 5)]
    assert _check_spherical(g2, lams, 5) > len(lams)
