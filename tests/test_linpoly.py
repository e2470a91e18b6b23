import random

import pytest

from maxcurves.gf import build_field
from maxcurves.linpoly import (AssociatePoly, LinPolyError, LinearizedPoly,
                               compose, decompose, from_kernel,
                               inverse_associate, left_quotient, p_associate,
                               quotient_family_scan, symbolic_divides)

random.seed(904)


def lp(field, coeffs):
    return LinearizedPoly(field, coeffs)


def test_from_kernel_trivial():
    F = build_field(2, 4)
    assert from_kernel(F, [0]) == lp(F, {0: 1})  # X itself


def test_from_kernel_two_elements():
    F2 = build_field(2, 1)
    assert from_kernel(F2, [0, 1]) == lp(F2, {1: 1, 0: 1})  # X^2 + X


def test_from_kernel_order_four_subgroup_of_f4096():
    F = build_field(2, 12)
    kernel64 = [c for c in F.elements() if F.add(F.pow(c, 64), c) == 0]
    u = min(c for c in kernel64 if c not in (0, 1))
    roots = [0, 1, u, F.add(1, u)]
    L = from_kernel(F, roots)
    assert L.degree() == 4
    assert all(L.evaluate(c) == 0 for c in roots)
    assert sorted(L.kernel()) == sorted(roots)
    # L divides X^64 + X on the right: the kernel construction of the
    # unipotent quotient map
    target = lp(F, {6: 1, 0: 1})
    assert symbolic_divides(L, target, "right")


def test_from_kernel_rejects_non_subgroups():
    F = build_field(2, 4)
    with pytest.raises(LinPolyError):
        from_kernel(F, [0, 1, 2])  # not additively closed
    with pytest.raises(LinPolyError):
        from_kernel(F, [1, 2, 3])  # missing 0


def test_evaluation_is_additive():
    F = build_field(2, 6)
    L = lp(F, {2: F.generator, 1: 3, 0: 7})
    for _ in range(200):
        a, b = random.randrange(64), random.randrange(64)
        assert L.evaluate(F.add(a, b)) == F.add(L.evaluate(a), L.evaluate(b))


def test_compose_noncommutative_twist():
    F = build_field(2, 4)
    c = F.generator
    scalar = lp(F, {0: c})
    frob = lp(F, {1: 1})
    assert compose(scalar, frob) == lp(F, {1: c})
    assert compose(frob, scalar) == lp(F, {1: F.pow(c, 2)})
    assert compose(scalar, frob) != compose(frob, scalar)


def test_decompose_toy():
    F2 = build_field(2, 1)
    target = lp(F2, {3: 1, 0: 1})        # X^8 + X
    inner = lp(F2, {1: 1, 0: 1})         # X^2 + X
    outer = decompose(target, inner)
    assert outer == lp(F2, {2: 1, 1: 1, 0: 1})   # X^4 + X^2 + X
    assert compose(outer, inner) == target


def test_decompose_failure():
    F2 = build_field(2, 1)
    target = lp(F2, {3: 1, 0: 1})        # X^8 + X
    bad_inner = lp(F2, {2: 1, 0: 1})     # X^4 + X: kernel F_4 not inside F_8
    assert decompose(target, bad_inner) is None


def test_decompose_compose_round_trip_random():
    F = build_field(2, 6)
    for _ in range(50):
        outer = lp(F, {i: random.randrange(64) for i in range(3)})
        inner = lp(F, {i: random.randrange(64) for i in range(2)})
        if not outer or not inner:
            continue
        target = compose(outer, inner)
        got = decompose(target, inner)
        assert got == outer


def test_left_quotient_round_trip_random():
    F = build_field(3, 4)
    for _ in range(50):
        outer = lp(F, {i: random.randrange(81) for i in range(2)})
        inner = lp(F, {i: random.randrange(81) for i in range(2)})
        if not outer or not inner:
            continue
        target = compose(outer, inner)
        got = left_quotient(outer, target)
        assert got is not None and compose(outer, got) == target


def test_symbolic_divides_right():
    F2 = build_field(2, 1)
    small = lp(F2, {1: 1, 0: 1})   # X^2 + X
    big = lp(F2, {3: 1, 0: 1})     # X^8 + X
    assert symbolic_divides(small, big, "right")
    assert not symbolic_divides(lp(F2, {2: 1, 0: 1}), big, "left")
    with pytest.raises(LinPolyError):
        symbolic_divides(small, big, "sideways")


def test_associate_round_trip_and_factorization():
    F2 = build_field(2, 1)
    target = lp(F2, {3: 1, 0: 1})
    a = p_associate(target)
    assert a.coeffs == (1, 0, 0, 1)       # t^3 + 1
    assert inverse_associate(a) == target
    lin = AssociatePoly(F2, (1, 1))       # t + 1
    quad = AssociatePoly(F2, (1, 1, 1))   # t^2 + t + 1
    assert (lin * quad).coeffs == (1, 0, 0, 1)
    assert lin.divides(a)
    assert p_associate(lp(F2, {0: 1})).coeffs == (1,)  # X maps to the unit


def test_twisted_associate_mirrors_composition():
    for (p, k) in ((2, 4), (3, 2)):
        F = build_field(p, k)
        n = F.order
        for _ in range(100):
            f = lp(F, {i: random.randrange(n) for i in range(3)})
            g = lp(F, {i: random.randrange(n) for i in range(3)})
            if not f or not g:
                continue
            lhs = p_associate(compose(f, g), "twisted")
            rhs = p_associate(f, "twisted") * p_associate(g, "twisted")
            assert lhs.coeffs == rhs.coeffs


def test_conventional_and_twisted_divisibility_agree_over_prime_fields():
    for p in (2, 3):
        F = build_field(p, 1)
        for _ in range(100):
            f = lp(F, {i: random.randrange(p) for i in range(3)})
            g = lp(F, {i: random.randrange(p) for i in range(2)})
            if not f or not g or not compose(f, g):
                continue
            target = compose(f, g)
            assert symbolic_divides(g, target, "right")
            assert p_associate(g).divides(p_associate(target))


def test_kernel_degree_duality():
    F = build_field(2, 6)
    # separable linearized polynomials: |kernel inside a splitting field|
    # equals the degree; check within F for kernels that split here
    L = from_kernel(F, [0, 1])
    assert len(L.kernel()) == L.degree() == 2
    sub = [c for c in F.elements() if F.add(F.pow(c, 4), c) == 0]
    L4 = from_kernel(F, sub)
    assert L4.degree() == 4 and len(L4.kernel()) == 4


def test_quotient_family_scan_q4():
    F = build_field(2, 12)
    tested, divisible, disagreements = quotient_family_scan(F, 4)
    assert tested == 273 * 315  # (q^2-1)-power classes times k-subgroup size
    assert divisible == 0
    assert disagreements == 0


@pytest.mark.parametrize("q", [3, 6])
def test_quotient_family_scan_rejects_q_not_a_power_of_p(q):
    with pytest.raises(LinPolyError, match="not a power"):
        quotient_family_scan(build_field(2, 12), q)
