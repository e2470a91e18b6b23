"""Property tests of field arithmetic; skipped when hypothesis is not
installed.  Each law is checked on list-backed tables (F_{2^10}, F_{3^4}),
on array-backed tables (F_{2^16}, F_{7^6}) and under an imprimitive
override modulus, whose tables follow a generator other than X.  The
reference product is the polynomial one (`_mul_novtable`)."""

from functools import cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from maxcurves.gf import (COMPACT_LIMIT, build_field,  # noqa: E402
                          clear_modulus_overrides, set_modulus_override)

# x^15 + x^6 + x^5 + x^3 + x^2 + x + 1: irreducible, generator X + 1
IMPRIMITIVE_F2_15 = (1, 1, 1, 1, 0, 1, 1) + (0,) * 8 + (1,)
FIELDS = ["2^10", "3^4", "2^16", "7^6", "override 2^15"]


@cache
def _field(name):
    if name.startswith("override"):
        try:
            set_modulus_override(2, 15, IMPRIMITIVE_F2_15)
            return build_field(2, 15)
        finally:
            clear_modulus_overrides()
    p, k = (int(v) for v in name.split("^"))
    return build_field(p, k)


def test_fields_cover_both_storage_kinds():
    big = [_field(name).order > COMPACT_LIMIT for name in FIELDS]
    assert big == [False, False, True, True, True]
    assert _field("override 2^15").generator != 2


def _elements(data, F, count, nonzero=False):
    lo = 1 if nonzero else 0
    return [data.draw(st.integers(lo, F.order - 1)) for _ in range(count)]


@pytest.mark.parametrize("name", FIELDS)
@given(data=st.data())
def test_field_axioms(name, data):
    F = _field(name)
    a, b, c = _elements(data, F, 3)
    assert F.add(a, b) == F.add(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.add(a, 0) == a and F.add(a, F.neg(a)) == 0
    assert F.sub(F.add(a, b), b) == a
    assert F.mul(a, b) == F.mul(b, a) == F._mul_novtable(a, b)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, 1) == a and F.mul(a, 0) == 0
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("name", FIELDS)
@given(data=st.data())
def test_frobenius_is_additive_and_multiplicative(name, data):
    F = _field(name)
    a, b = _elements(data, F, 2)
    assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
    assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    assert F.frobenius(a, F.k) == a


@pytest.mark.parametrize("name", FIELDS)
@given(data=st.data())
def test_inverse(name, data):
    F = _field(name)
    a, b = _elements(data, F, 2, nonzero=True)
    inv = F.inv(a)
    assert F.mul(a, inv) == 1 and F.inv(inv) == a
    assert inv == F._pow_novtable(a, F.units - 1)
    assert F.div(b, a) == F._mul_novtable(b, inv)
    assert F.inv(F.mul(a, b)) == F.mul(inv, F.inv(b))
