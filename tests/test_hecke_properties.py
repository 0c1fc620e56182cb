"""Property tests of the Hecke layer on A2, B2 and G2: the self-dual basis
element of a drawn element of length at most 8 against the classical
recursion on dicts, and its bar invariance."""

import pytest
from hypothesis import given, settings, strategies as st

from periodic_kl.hecke import HeckeAlgebra
from oracles import hecke_bar, kl_basis_by_dicts

_settings = settings(derandomize=True, database=None, max_examples=60)


@pytest.fixture(scope="module")
def algebras(a2, b2, g2):
    """An algebra per datum of its own, with a memo for the dict recursion, so
    that the drawn elements leave the session's shared memos alone."""
    return [(HeckeAlgebra(ctx.group), {}) for ctx in (a2, b2, g2)]


def _element(data, algebras):
    """An algebra, its dict memo, and omega s_j1 ... s_jk with every factor an
    ascent, for a drawn length-zero omega and length k <= 8."""
    H, memo = data.draw(st.sampled_from(algebras), label="datum")
    W = H.group
    x = data.draw(st.sampled_from(sorted(W.omega_elements.values(), key=lambda z: z.key)), label="omega")
    for _ in range(data.draw(st.integers(0, 8), label="length")):
        ups = [y for y in (W.right_multiply_gen(x, j) for j in W.affine_generator_indices()) if y.length > x.length]
        x = data.draw(st.sampled_from(ups))
    return H, memo, x


@_settings
@given(data=st.data())
def test_kl_basis_is_the_dict_recursion(algebras, data):
    H, memo, x = _element(data, algebras)
    assert H.kl_basis(x).terms == kl_basis_by_dicts(H, x, memo).terms


@_settings
@given(data=st.data())
def test_kl_basis_is_bar_invariant(algebras, data):
    H, _, x = _element(data, algebras)
    kl = H.kl_basis(x)
    assert hecke_bar(H, kl) == kl
