import random

import pytest

from maxcurves import polyroots
from maxcurves.gf import _smallest_root_in, build_field
from maxcurves.polyroots import (_frobenius, _frobenius_table, _shifts, add,
                                 divmod_poly, gcd_poly, mod, mul,
                                 one_root, pow_mod, roots, sub)

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


def _random_poly(F, rng, deg, monic_=False):
    cs = [rng.randrange(F.order) for _ in range(deg)]
    return tuple(cs) + (1 if monic_ else rng.randrange(1, F.order),)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (2, 54), (3, 2), (5, 2)])
def test_frobenius_table_matches_pow_mod(p, k):
    F = build_field(p, k)
    rng = random.Random(1000 * p + k)
    for deg in (1, 2, 3, 5, 8):
        g = _random_poly(F, rng, deg, monic_=True)
        table = _frobenius_table(F, g)
        assert len(table) == deg
        for _ in range(8):
            h = mod(F, _random_poly(F, rng, rng.randrange(deg + 3)), g)
            assert _frobenius(F, h, table) == pow_mod(F, h, p, g)


def _splitting_part_by_pow_mod(F, f):
    """Reference: X^|F| by square-and-multiply modulo f."""
    xq = pow_mod(F, (0, 1), F.order, f)
    return gcd_poly(F, sub(F, xq, (0, 1)), f)


def _split_by_squaring(F, g, s):
    """Reference: the characteristic-2 trace by repeated squaring mod g."""
    deg = len(g) - 1
    for c in _shifts(F, s):
        if F.p == 2:
            h = (0, c)
            acc = h
            for _ in range(s - 1):
                h = mod(F, mul(F, h, h), g)
                acc = add(F, acc, h)
            d = gcd_poly(F, acc, g)
        else:
            h = pow_mod(F, (c, 1), (F.p**s - 1) // 2, g)
            d = gcd_poly(F, sub(F, h, (1,)), g)
        if 0 < len(d) - 1 < deg:
            return d
    raise RuntimeError("splitting shifts exhausted (unreachable)")


def _results(F, split, mixed, s, embeddings):
    return ([roots(F, f) for f in split + mixed],
            [one_root(F, g, s) for g in split],
            [_smallest_root_in(src, dst) for src, dst in embeddings])


@pytest.mark.parametrize("p,k,s", [(2, 8, 4), (2, 12, 6), (2, 30, 10), (3, 4, 2)])
def test_frobenius_table_leaves_every_root_unchanged(p, k, s, monkeypatch):
    # split polynomials over the degree-s subfield (so one_root applies),
    # their products with random factors (so roots strips a non-split part),
    # and the embeddings of the subfields of F into F
    F = build_field(p, k)
    rng = random.Random(31 * k + s)
    w = F.pow(F.generator, F.units // (p**s - 1))  # generates F_(p^s)*
    split, mixed = [], []
    for _ in range(6):
        rts = sorted({F.pow(w, rng.randrange(p**s - 1))
                      for _ in range(rng.randint(2, 5))})
        g = _product(F, rts)
        split.append(g)
        mixed.append(mul(F, g, _random_poly(F, rng, 3, monic_=True)))
    embeddings = [(build_field(p, m), F) for m in range(2, k + 1)
                  if k % m == 0]
    got = _results(F, split, mixed, s, embeddings)
    monkeypatch.setattr(polyroots, "_split", _split_by_squaring)
    monkeypatch.setattr(polyroots, "_splitting_part", _splitting_part_by_pow_mod)
    assert got == _results(F, split, mixed, s, embeddings)
