import random

import pytest

from maxcurves.gf import build_field
from maxcurves.polyroots import divmod_poly, mul, one_root, roots

FIELDS = [(2, 8), (2, 12), (3, 4)]


def _product(F, rts):
    g = (1,)
    for r in rts:
        g = mul(F, g, (F.neg(r), 1))
    return g


def _subfield(F, s):
    """The elements of the degree-s subfield of F (brute force)."""
    q = F.p**s
    return [x for x in F.elements() if F.pow(x, q) == x]


def _orbit(F, x, t):
    """x, x^(p^t), x^(p^2t), ... until it repeats."""
    out = [x]
    while True:
        y = F.frobenius(out[-1], t)
        if y == x:
            return out
        out.append(y)


@pytest.mark.parametrize("p,k", FIELDS)
def test_one_root_orbit_is_the_root_set(p, k):
    # g: the orbit of a random x under x -> x^(p^t), a split polynomial over
    # F irreducible over F_(p^t); its roots lie in F_(p^(t*len(orbit)))
    F = build_field(p, k)
    rng = random.Random(10 * p + k)
    for t in (t for t in range(1, k) if k % t == 0):
        for _ in range(6):
            orbit = _orbit(F, rng.randrange(F.order), t)
            g = _product(F, orbit)
            expected = roots(F, g)
            assert sorted(orbit) == expected
            for s in {t * len(orbit), k}:
                r = one_root(F, g, s)
                assert sorted(_orbit(F, r, t)) == expected


@pytest.mark.parametrize("p,k", FIELDS)
def test_one_root_of_split_polynomials_in_a_subfield(p, k):
    F = build_field(p, k)
    rng = random.Random(p * k)
    for s in (s for s in range(1, k + 1) if k % s == 0):
        sub = _subfield(F, s)
        for _ in range(6):
            rts = rng.sample(sub, rng.randint(1, min(len(sub), 9)))
            g = _product(F, rts)
            assert one_root(F, g, s) in rts
            assert divmod_poly(F, g, (F.neg(one_root(F, g, s)), 1))[1] == ()


@pytest.mark.parametrize("p,k", FIELDS)
def test_one_root_outside_the_subfield_raises(p, k):
    # an irreducible quadratic over F_p has its roots in F_(p^2), not F_p:
    # the shifts of F_p never split it, and the walk ends instead of looping
    F = build_field(p, k)
    x = next(x for x in F.elements() if F.pow(x, p) != x and F.pow(x, p * p) == x)
    g = _product(F, _orbit(F, x, 1))
    with pytest.raises(RuntimeError, match="unreachable"):
        one_root(F, g, 1)
