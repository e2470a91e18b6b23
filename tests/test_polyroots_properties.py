"""Property tests of polynomial reduction; skipped when hypothesis is not
installed.  `mod` builds no quotient, so it is checked against the
remainder of `divmod_poly`, which does, over a table-mode field of odd
characteristic and both storage modes of characteristic 2."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from maxcurves.gf import build_field  # noqa: E402
from maxcurves.polyroots import _square, divmod_poly, mod, mul  # noqa: E402

FIELDS = {"3^2": (3, 2), "2^6": (2, 6), "2^54": (2, 54)}


def _polys(F, max_len):
    return st.lists(st.integers(0, F.order - 1), max_size=max_len)


@st.composite
def _field_and_operands(draw):
    F = build_field(*FIELDS[draw(st.sampled_from(sorted(FIELDS)))])
    a = draw(_polys(F, 14))
    b = draw(_polys(F, 7))
    b.append(draw(st.integers(1, F.order - 1)))  # a nonzero leading term
    return F, a, b


@given(_field_and_operands())
def test_mod_is_the_divmod_poly_remainder(case):
    F, a, b = case
    assert mod(F, a, b) == divmod_poly(F, a, b)[1]
    assert mod(F, mul(F, a, b), b) == ()


@given(_field_and_operands())
def test_square_is_the_product_with_itself(case):
    F, a, _ = case
    assert _square(F, a) == mul(F, a, a)
