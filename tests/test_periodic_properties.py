"""Property tests of the periodic layer on all six data: p read by key
against the coefficient of the self-dual element, and the invariance of p,
q and q' under a common left translation."""

import pytest
from hypothesis import given, settings, strategies as st

from periodic_kl.periodic import PeriodicModule
from periodic_kl.rootdata import Weight

_settings = settings(derandomize=True, database=None, max_examples=60)
_DATA = ("a1", "a2", "a3", "b2", "c2", "g2")


@pytest.fixture(scope="module")
def modules(a1, a2, a3, b2, c2, g2):
    """A module per datum of its own, so that the drawn pairs leave the
    session's shared memos alone."""
    return [PeriodicModule(ctx.group) for ctx in (a1, a2, a3, b2, c2, g2)]


def _weight(data, rank, radius):
    return Weight(data.draw(st.tuples(*[st.integers(-radius, radius)] * rank)))


def _pair(data, modules):
    """A module, and x with y in the support of its self-dual element or
    anywhere near it."""
    M = modules[data.draw(st.sampled_from(range(len(_DATA))), label="datum")]
    W, rank = M.group, M.rd.rank
    x = W.element(_weight(data, rank, 2), data.draw(st.integers(0, len(W.finite_elements) - 1)))
    if data.draw(st.booleans()):
        y = data.draw(st.sampled_from(sorted(M.selfdual(x).terms, key=lambda z: z.key)))
    else:
        y = W.element(_weight(data, rank, 2), data.draw(st.integers(0, len(W.finite_elements) - 1)))
    return M, x, y


@_settings
@given(data=st.data())
def test_p_is_the_coefficient_of_the_selfdual_element(modules, data):
    M, x, y = _pair(data, modules)
    assert M.p_polynomial(y, x) == M.selfdual(x).coefficient(y)


@_settings
@given(data=st.data())
def test_p_and_q_are_invariant_under_a_common_left_translation(modules, data):
    M, x, y = _pair(data, modules)
    nu = _weight(data, M.rd.rank, 3)
    tx, ty = M.group.translate_left(nu, x), M.group.translate_left(nu, y)
    assert M.p_polynomial(ty, tx) == M.p_polynomial(y, x)
    assert M.selfdual(tx).coefficient(ty) == M.selfdual(x).coefficient(y)
    for kind in ("q", "qprime"):
        assert M.generic_polynomial(ty, tx, kind) == M.generic_polynomial(y, x, kind)
