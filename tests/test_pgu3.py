import random

import pytest

from maxcurves import pgu3
from maxcurves.curves import FermatHermitian, NormTraceHermitian
from maxcurves.gf import build_field, embed
from maxcurves.numbertheory import factorize
from maxcurves.pgu3 import (GroupError, Projectivity, generate, in_psu,
                            make_alpha, make_alpha_a, make_beta,
                            make_three_cycle, unitarity_scalar)
from oracles import leibniz_det

random.seed(902)


def pgu3_order(q):
    """|PGU(3, q)| = q^3 (q^2 - 1)(q^3 + 1)."""
    return q**3 * (q * q - 1) * (q**3 + 1)


def test_identity_and_canonical_form():
    F = build_field(2, 4)
    ident = Projectivity.identity(F)
    assert ident.is_identity() and ident.order() == 1
    # scalar multiples collapse
    for s in range(2, 16):
        m = Projectivity(F, tuple(F.mul(s, e) for e in ident.m))
        assert m == ident


def test_singular_matrix_rejected():
    F = build_field(2, 2)
    with pytest.raises(GroupError):
        Projectivity(F, (1, 1, 0, 1, 1, 0, 0, 0, 1))


def test_canonical_form_stability_under_products():
    F = build_field(2, 4)
    mats = []
    for _ in range(20):
        while True:
            entries = tuple(random.randrange(16) for _ in range(9))
            try:
                mats.append(Projectivity(F, entries))
                break
            except GroupError:
                continue
    for _ in range(100):
        a, b = random.choice(mats), random.choice(mats)
        s = random.randrange(1, 16)
        scaled = Projectivity(F, tuple(F.mul(s, e) for e in a.m))
        assert scaled * b == a * b


def test_inverse_and_order():
    F = build_field(2, 10)
    theta = F.root_of_unity(11)
    a = make_alpha(F, theta, 2)
    assert (a * a.inverse()).is_identity()
    assert a.order() == 11
    h = make_three_cycle(F, 1, 1, q=32)
    assert h.order() == 3  # h^3 is scalar


def _rows(m):
    return [list(m[0:3]), list(m[3:6]), list(m[6:9])]


def _sum(F, terms):
    acc = 0
    for t in terms:
        acc = F.add(acc, t)
    return acc


def _product(F, a, b):
    """The row-major product of two 9-tuples, by the definition."""
    return tuple(_sum(F, [F.mul(a[3 * i + t], b[3 * t + j]) for t in range(3)])
                 for i in range(3) for j in range(3))


def _cofactor_adjugate(F, m):
    """adj M by cofactors: entry (i, j) is (-1)^(i+j) det M_ji, for M_ji
    the minor without row j and column i (Leibniz determinants)."""
    rows = _rows(m)
    out = []
    for i in range(3):
        for j in range(3):
            minor = [[r[c] for c in range(3) if c != i]
                     for k, r in enumerate(rows) if k != j]
            d = leibniz_det(F, minor)
            out.append(F.neg(d) if (i + j) % 2 else d)
    return tuple(out)


def _random_entries(F, rng):
    while True:
        m = tuple(rng.randrange(F.order) for _ in range(9))
        if any(m):
            return m


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2)])
def test_det_inverse_and_char_poly_match_leibniz(p, k):
    F = build_field(p, k)
    rng = random.Random(100 * p + k)
    singular = 0
    for _ in range(300):
        entries = _random_entries(F, rng)
        if leibniz_det(F, _rows(entries)) == 0:
            with pytest.raises(GroupError):
                Projectivity(F, entries)
            singular += 1
            continue
        g = Projectivity(F, entries)
        m = g.m  # normalised: det, adjugate and char_poly are of this matrix
        det = leibniz_det(F, _rows(m))
        assert g.det() == det
        adj = _cofactor_adjugate(F, m)
        assert _product(F, m, adj) == (det, 0, 0, 0, det, 0, 0, 0, det)
        assert g.inverse() == Projectivity(F, adj)
        cp = g.char_poly()
        for t in F.elements():
            shifted = [[F.sub(t if i == j else 0, m[3 * i + j])
                        for j in range(3)] for i in range(3)]
            value = _sum(F, [F.mul(c, F.pow(t, e)) for e, c in enumerate(cp)])
            assert value == leibniz_det(F, shifted), (m, t)
    assert 0 < singular < 300


def _unitarity_by_definition(m, model):
    """The lambda in F* with conj(M)^T H M = lambda H, found by trying every
    one, or None."""
    F, a = m.field, m.m
    H = [F.const(e) for row in model.hermitian_gram() for e in row]
    conj_t = [F.pow(a[3 * j + i], model.q) for i in range(3) for j in range(3)]
    B = _product(F, _product(F, conj_t, H), a)
    found = [lam for lam in range(1, F.order)
             if B == tuple(F.mul(lam, h) for h in H)]
    assert len(found) <= 1
    return found[0] if found else None


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("model_cls", [FermatHermitian, NormTraceHermitian])
def test_unitarity_scalar_matches_the_definition(q, model_cls):
    # the norm-trace gram has H[0][0] = 0, so lambda is not read off there
    model = model_cls(q)
    F = model.field
    rng = random.Random(q)
    # random matrices, monomial ones (the Fermat group's diagonals and
    # permutations) and unitriangular ones (the norm-trace point stabiliser)
    candidates = [_random_entries(F, rng) for _ in range(100)]
    units = range(1, F.order)
    candidates += [tuple((d if i == 0 else 1) if j == (i + s) % 3 else 0
                         for i in range(3) for j in range(3))
                   for s in range(3) for d in units]
    candidates += [(1, b, c, 0, 1, b2, 0, 0, 1) for b in range(F.order)
                   for c in range(F.order) for b2 in (0, b)]
    candidates += [(d1, 0, 0, 0, d2, 0, 0, 0, 1) for d1 in units for d2 in units]
    outcomes = set()
    for entries in candidates:
        try:
            g = Projectivity(F, entries)
        except GroupError:
            continue
        lam = unitarity_scalar(g, model)
        assert lam == _unitarity_by_definition(g, model), g
        outcomes.add(lam is None)
    assert outcomes == {False, True}


def test_negative_power_raises_before_any_product(monkeypatch):
    F = build_field(2, 4)
    a = make_alpha(F, F.generator, 1)
    assert (a ** 0).is_identity() and a ** 1 == a and a ** 3 == a * a * a
    # no product may run: the former loop never ended for e < 0
    monkeypatch.setattr(Projectivity, "__mul__", None)
    for e in (-1, -2, -15):
        with pytest.raises(GroupError, match="negative exponent"):
            a ** e


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2)])
def test_order_is_least_scalar_power(p, k):
    F = build_field(p, k)
    rng = random.Random(904)
    checked = 0
    while checked < 40:
        try:
            m = Projectivity(F, [rng.randrange(F.order) for _ in range(9)])
        except GroupError:
            continue  # singular
        n, power = 1, m
        while not power.is_identity():
            power = power * m
            n += 1
        assert m.order() == n, m
        checked += 1


def _order_by_group_order(m):
    """The former order(): r-parts one prime at a time from |PGL(3, Q)|."""
    Q = m.field.order
    n = Q**3 * (Q**3 - 1) * (Q**2 - 1)
    order = 1
    for r, e in factorize(n):
        a = m ** (n // r**e)
        while not a.is_identity():
            a = a ** r
            order *= r
    return order


def _naive_order(m):
    n, power = 1, m
    while not power.is_identity():
        power = power * m
        n += 1
    return n


SMALL_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_order_matches_group_order_reference(p, k):
    F = build_field(p, k)
    rng = random.Random(1000 * p + k)
    checked = 0
    while checked < 30:
        try:
            m = Projectivity(F, [rng.randrange(F.order) for _ in range(9)])
        except GroupError:
            continue  # singular
        assert m.order() == _order_by_group_order(m), m
        checked += 1


@pytest.mark.parametrize("p,k,n", [(2, 1, 4), (2, 2, 4), (3, 1, 3),
                                   (3, 2, 3), (5, 1, 5), (5, 2, 5)])
def test_order_of_unipotent_jordan_block(p, k, n):
    # (J - 1)^2 != 0, so the order is the least power of p that is >= 3
    J = Projectivity(build_field(p, k), (1, 1, 0, 0, 1, 1, 0, 0, 1))
    assert J.order() == n == _order_by_group_order(J)


def _subfield_coefficients(F, roots):
    """Coefficients, low degree first, of the monic prod (X - r) over F,
    from roots in an extension of F (the product's coefficients lie in F)."""
    big = build_field(F.p, F.k * len(roots))
    into = embed(F, big)
    back = {into(u): u for u in range(F.order)}
    poly = [1]
    for r in roots:
        shifted = [0] + poly  # X * poly
        for i, c in enumerate(poly):
            shifted[i] = big.sub(shifted[i], big.mul(r, c))
        poly = shifted
    return [back[c] for c in poly[:-1]]


def _conjugates_of_generator(F, degree):
    big = build_field(F.p, F.k * degree)
    g = big.generator
    return [big.pow(g, F.order**i) for i in range(degree)]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_order_of_singer_cycle(p, k):
    # companion matrix of a primitive cubic: X generates F_{Q^3}*, and
    # X^n lies in F_Q* iff (Q^3 - 1) / (Q - 1) divides n
    F = build_field(p, k)
    c0, c1, c2 = _subfield_coefficients(F, _conjugates_of_generator(F, 3))
    C = Projectivity(F, (0, 0, F.neg(c0), 1, 0, F.neg(c1), 0, 1, F.neg(c2)))
    Q = F.order
    assert C.order() == Q * Q + Q + 1 == _naive_order(C)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_order_of_primitive_quadratic_companion_plus_one(p, k):
    # the 1 block forces a scalar power to be the identity, so the order
    # is the multiplicative order of a generator of F_{Q^2}
    F = build_field(p, k)
    c0, c1 = _subfield_coefficients(F, _conjugates_of_generator(F, 2))
    C = Projectivity(F, (0, F.neg(c0), 0, 1, F.neg(c1), 0, 0, 0, 1))
    Q = F.order
    assert C.order() == Q * Q - 1 == _naive_order(C)


def test_three_cycle_permutes_fundamental_points():
    F = build_field(2, 4)
    h = make_three_cycle(F, 1, 1, q=4)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    from maxcurves.proj3 import ProjPoint
    p = ProjPoint(F, e1)
    seen = [p]
    for _ in range(2):
        p = h.apply_point(p)
        seen.append(p)
    assert {tuple(s.coords) for s in seen} == {e1, e2, e3}


def test_make_alpha_order_matches_theta_order_when_coprime():
    F = build_field(2, 10)
    theta = F.root_of_unity(33)
    for i in range(1, 33):
        from math import gcd
        a = make_alpha(F, theta, i)
        if gcd(i, 33) == 1:
            assert a.order() == 33
        else:
            assert a.order() in (33, 33 // gcd(i, 33))


def test_make_alpha_rejects_zero():
    F = build_field(2, 4)
    with pytest.raises(GroupError):
        make_alpha(F, 0, 1)


def test_make_beta_additivity():
    F = build_field(2, 12)
    kernel = [c for c in F.elements() if F.add(F.pow(c, 64), c) == 0]
    c1, c2 = kernel[1], kernel[2]
    b1, b2 = make_beta(F, c1, 64), make_beta(F, c2, 64)
    assert b1 * b2 == make_beta(F, F.add(c1, c2), 64)
    assert make_beta(F, 0, 64).is_identity()
    assert (b1 * b1).is_identity()  # c + c = 0 in characteristic 2
    with pytest.raises(GroupError):
        make_beta(F, F.generator, 64)  # fails the trace-zero condition


def test_diagonal_unitarity_full_scan_f16():
    # diag(d1, d2, d3) commutes with the Fermat polarity iff the three
    # (q+1)-th powers coincide; scan every nonzero triple over F_16
    model = FermatHermitian(4)
    F = model.field
    for d1 in range(1, 16):
        for d2 in range(1, 16):
            for d3 in range(1, 16):
                m = Projectivity(F, (d1, 0, 0, 0, d2, 0, 0, 0, d3))
                manual = F.pow(d1, 5) == F.pow(d2, 5) == F.pow(d3, 5)
                assert (unitarity_scalar(m, model) is not None) == manual


def test_transvection_usually_not_unitary_f16():
    model = FermatHermitian(4)
    F = model.field
    failures = 0
    for c in range(1, 16):
        m = Projectivity(F, (1, 0, c, 0, 1, 0, 0, 0, 1))
        if unitarity_scalar(m, model) is None:
            failures += 1
    assert failures == 15  # Fermat form admits no such transvection


def test_in_psu_identity_and_errors():
    model = FermatHermitian(4)
    F = model.field
    assert in_psu(Projectivity.identity(F), model)
    nonunitary = Projectivity(F, (1, 0, 1, 0, 1, 0, 0, 0, 1))
    with pytest.raises(GroupError):
        in_psu(nonunitary, model)


@pytest.mark.parametrize("q,k2", [(8, 6), (32, 10)])
def test_in_psu_index_three_on_generated_group(q, k2):
    F = build_field(2, k2)
    model = FermatHermitian(q)
    zeta = F.root_of_unity(q + 1)
    G = generate([make_alpha(F, zeta, 1)])
    inside = [g for g in G.elements if in_psu(g, model)]
    assert len(inside) * 3 == G.order  # index gcd(3, q+1) = 3 subgroup
    sub = generate([make_alpha(F, F.pow(zeta, 3), 1)])
    assert {g.m for g in sub.elements} <= {g.m for g in inside}


def test_when_three_does_not_divide_every_unitary_is_psu():
    # gcd(3, q+1) = 1 for q = 4
    model = FermatHermitian(4)
    F = model.field
    zeta = F.root_of_unity(5)
    G = generate([make_alpha(F, zeta, 2), make_three_cycle(F, 1, 1, q=4)])
    assert all(in_psu(g, model) for g in G.elements)


def test_generate_cyclic():
    F = build_field(2, 10)
    theta = F.root_of_unity(11)
    assert generate([make_alpha(F, theta, 2)]).order == 11


def test_generate_alpha_with_three_cycle_at_q32():
    # no weighted 3-cycle normalizes a cyclic diagonal group of order 11
    # (i^2 - i + 1 = 0 has no solution mod 11), so the closure is the full
    # monomial group over the 11th roots: order 3 * 11^2 = 363
    F = build_field(2, 10)
    theta = F.root_of_unity(11)
    G = generate([make_alpha(F, theta, 2), make_three_cycle(F, 1, 1, q=32)])
    assert G.order == 363


def test_generate_semidirect_closures_where_normalization_holds():
    # ord(theta) = 3 with i = 2: i^2 - i + 1 = 3 = 0 mod 3
    F64 = build_field(2, 6)
    t3 = F64.root_of_unity(3)
    G = generate([make_alpha(F64, t3, 2), make_three_cycle(F64, 1, 1, q=8)])
    assert G.order == 9
    # ord(xi) = 57 with i = 8: i^2 - i + 1 = 57 = 0 mod 57
    F218 = build_field(2, 18)
    xi = F218.root_of_unity(57)
    zeta = F218.root_of_unity(513)
    G2 = generate([make_alpha(F218, xi, 8), make_three_cycle(F218, zeta, 1, q=512)])
    assert G2.order == 171
    assert G2.order == 3 * 57  # |<alpha, h>| = 3 ord(theta) when h normalizes


def test_generate_cap(monkeypatch):
    F = build_field(2, 10)
    monkeypatch.setattr(pgu3, "CLOSURE_CAP", 10)
    with pytest.raises(GroupError, match="cap 10"):
        generate([make_alpha(F, F.root_of_unity(33), 1)])


def test_subgroup_order_divides_pgu_order():
    F = build_field(2, 10)
    q = 32
    theta = F.root_of_unity(11)
    for gens in ([make_alpha(F, theta, 2)],
                 [make_alpha(F, theta, 2), make_three_cycle(F, 1, 1, q=q)],
                 [make_three_cycle(F, F.root_of_unity(33), 1, q=q)]):
        G = generate(gens)
        assert pgu3_order(q) % G.order == 0


def test_sylow_d_diagonal_group():
    # D = {diag(lam, mu, 1)} over the d^h-th roots is a Sylow d-subgroup:
    # order d^{2h} equals the full d-part of |PGU(3, q)| at q = 32, d = 11
    F = build_field(2, 10)
    theta = F.root_of_unity(11)
    D = generate([make_alpha(F, theta, 1), make_alpha(F, theta, 0)])
    assert D.order == 121
    assert all(g.order() in (1, 11) for g in D.elements)
    n = pgu3_order(32)
    d_part = 1
    while n % 11 == 0:
        n //= 11
        d_part *= 11
    assert D.order == d_part


def test_alpha_a_shape():
    F = build_field(2, 12)
    a = F.root_of_unity(5)
    m = make_alpha_a(F, a, 64)
    assert m.m == (1, 0, 0, 0, a, 0, 0, 0, 1)  # a^(q^3+1) = a^65 = 1 here
    assert m.order() == 5
    assert unitarity_scalar(m, NormTraceHermitian(64)) is not None
