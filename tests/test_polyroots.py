import random

import pytest

from maxcurves import polyroots
from maxcurves.action import fixed_points
from maxcurves.checks import _triangolo_construction
from maxcurves.curves import FermatHermitian
from maxcurves.gf import _smallest_root_in, build_field, embed
from maxcurves.pgu3 import make_alpha, make_three_cycle
from maxcurves.polyroots import (_frobenius, _frobenius_table, _shifts,
                                 _square, add, divmod_poly, gcd_poly, mod,
                                 mul, one_root, pow_mod, roots, sub)

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


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2)])
def test_pow_mod_matches_repeated_products(p, k):
    # every exponent to 40, including 0, against e - 1 products and reductions
    F = build_field(p, k)
    rng = random.Random(7 * p + k)
    for deg in (1, 2, 3, 5):
        g = _random_poly(F, rng, deg, monic_=rng.random() < 0.5)
        for _ in range(4):
            base = _random_poly(F, rng, rng.randrange(deg + 3))
            expected = (1,)
            for e in range(41):
                assert pow_mod(F, base, e, g) == expected, (g, base, e)
                expected = mod(F, mul(F, expected, base), g)


def _divisor(F, rng, deg, kind):
    """A seeded divisor of degree `deg`: 'monic', 'non-monic', or 'gaps'
    (non-monic, most lower terms zero)."""
    b = list(_random_poly(F, rng, deg, monic_=kind == "monic"))
    if kind == "gaps":
        b[:deg] = [c if rng.random() < 0.25 else 0 for c in b[:deg]]
    return tuple(b)


MOD_FIELDS = [(3, 2), (2, 6), (2, 54)]


@pytest.mark.parametrize("p,k", MOD_FIELDS)
def test_mod_matches_divmod_poly(p, k):
    F = build_field(p, k)
    assert F.table_mode == (k != 54)
    rng = random.Random(1500 + 100 * p + k)
    for kind in ("monic", "non-monic", "gaps"):
        for _ in range(60):
            b = _divisor(F, rng, rng.randrange(7), kind)
            # a as long as b or shorter half of the time
            a = [rng.randrange(F.order) for _ in range(rng.randrange(14))]
            assert mod(F, a, b) == divmod_poly(F, a, b)[1], (a, b)
            assert mod(F, mul(F, a, b), b) == ()
    # shorter than the divisor: a itself, trimmed
    b = (1, 0, 0, 3 % F.order)
    assert mod(F, (2 % F.order, 1, 0), b) == (2 % F.order, 1)
    assert mod(F, (), b) == ()
    # a constant divisor leaves nothing
    assert mod(F, (1, 2 % F.order, 1), (3 % F.order or 1,)) == ()
    with pytest.raises(ZeroDivisionError):
        mod(F, (1, 1), ())


@pytest.mark.parametrize("p,k", [(2, 6), (2, 54), (3, 2), (5, 2), (7, 1)])
def test_square_matches_mul(p, k):
    F = build_field(p, k)
    rng = random.Random(1600 + 100 * p + k)
    assert _square(F, ()) == ()
    for _ in range(100):
        a = [rng.randrange(F.order) for _ in range(rng.randrange(9))]
        if rng.random() < 0.5:
            a = [c if rng.random() < 0.3 else 0 for c in a]
        assert _square(F, a) == mul(F, a, a), a


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


def _inputs(p, k, s):
    """Split polynomials over the degree-s subfield of F = F_(p^k) (so
    one_root applies), their products with random factors (so roots strips
    a non-split part), and the embeddings of the subfields of F into F."""
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
    return F, split, mixed, embeddings


@pytest.mark.parametrize("p,k,s", [(2, 8, 4), (2, 12, 6), (2, 30, 10), (3, 4, 2)])
def test_frobenius_table_leaves_every_root_unchanged(p, k, s, monkeypatch):
    F, split, mixed, embeddings = _inputs(p, k, s)
    got = _results(F, split, mixed, s, embeddings)
    monkeypatch.setattr(polyroots, "_split", _split_by_squaring)
    monkeypatch.setattr(polyroots, "_splitting_part", _splitting_part_by_pow_mod)
    assert got == _results(F, split, mixed, s, embeddings)


def _shifts_from_one(F, s):
    """Reference: the former shift order 1, w, ..., w^(s-1) for p = 2, whose
    first shift never splits a g irreducible over a proper subfield that
    holds its coefficients."""
    q = F.p**s
    w = F.pow(F.generator, F.units // (q - 1))
    c = 1
    for _ in range(s if F.p == 2 else q - 1):
        yield c
        c = F.mul(c, w)
    if F.p != 2:
        yield 0


def _gf2_rank(vectors):
    """Rank over F_2 of field elements of characteristic 2 (bit vectors)."""
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


@pytest.mark.parametrize("k", [1, 6, 12, 54])
def test_characteristic_2_shifts_are_a_basis_without_1(k):
    F = build_field(2, k)
    for s in (s for s in range(1, k + 1) if k % s == 0):
        shifts = list(_shifts(F, s))
        assert len(shifts) == s and _gf2_rank(shifts) == s
        assert all(F.pow(c, 2**s) == c for c in shifts)  # in F_(2^s)
        assert (1 in shifts) == (s == 1)


def _trace_x(F, g, s):
    """Sum X^(2^i) mod g for i < s, by repeated squaring."""
    h = acc = (0, 1)
    for _ in range(s - 1):
        h = mod(F, mul(F, h, h), g)
        acc = add(F, acc, h)
    return acc


def test_shift_1_never_splits_a_polynomial_over_a_subfield():
    # the subfield trace is constant on a Frobenius orbit, so gcd(Tr(X), g)
    # is 1 or g for g irreducible over a proper subfield holding its
    # coefficients: X^3 - a (a a non-cube of F_(2^18)) with roots in
    # F_(2^54), and the F_(2^18) modulus with roots in F_(2^18)
    E, S = build_field(2, 54), build_field(2, 18)
    tm = embed(S, E)
    assert not S.is_dth_power(S.generator, 3)
    cubic = (tm(S.generator), 0, 0, 1)
    modulus = tuple(E.const(c) for c in S.modulus)
    for g, s in ((cubic, 54), (modulus, 18)):
        d = gcd_poly(E, _trace_x(E, g, s), g)
        assert len(d) - 1 in (0, len(g) - 1)


@pytest.mark.parametrize("p,k,s", [(2, 8, 4), (2, 12, 6), (2, 30, 10),
                                   (2, 54, 18), (3, 4, 2)])
def test_shift_order_leaves_roots_and_embeddings_unchanged(p, k, s, monkeypatch):
    # one_root may return another conjugate; roots sorts its roots and
    # _smallest_root_in takes the least conjugate, so neither moves
    F, split, mixed, embeddings = _inputs(p, k, s)

    def results():
        return ([roots(F, f) for f in split + mixed],
                [_smallest_root_in(src, dst) for src, dst in embeddings])

    got = results()
    monkeypatch.setattr(polyroots, "_shifts", _shifts_from_one)
    assert got == results()


def _fixed_point_key(fps):
    return (fps.kind, [(P.field.k, P.coords, on) for P, on in fps.points],
            None if fps.axis is None else fps.axis.coords)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_shift_order_leaves_eigen_fixed_points_unchanged(n, monkeypatch):
    # the eigen-fixed-points 3-cycle: eigenvalues in F_(2^(6n)), found by
    # one_root, and the embedding of F_(2^(2n)) into it
    q = 2**n
    F, E = build_field(2, 2 * n), build_field(2, 6 * n)
    model = FermatHermitian(q)
    sigma = (make_alpha(F, F.root_of_unity((q + 1) // 3), 2)
             * make_three_cycle(F, F.root_of_unity(q + 1), 1, q=q))

    def results():
        return _smallest_root_in(F, E), _fixed_point_key(fixed_points(sigma, model))

    got = results()
    monkeypatch.setattr(polyroots, "_shifts", _shifts_from_one)
    assert got == results()


@pytest.mark.slow
def test_shift_order_leaves_the_n9_census_unchanged(monkeypatch):
    _, _, model, family, _ = _triangolo_construction(9)

    def results():
        return [_fixed_point_key(fixed_points(sigma, model)) for sigma in family]

    got = results()
    monkeypatch.setattr(polyroots, "_shifts", _shifts_from_one)
    assert got == results()
