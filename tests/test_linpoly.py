import random
from math import gcd

import pytest

from maxcurves import polyroots
from maxcurves.gf import build_field, clear_modulus_overrides, \
    set_modulus_override
from maxcurves.linpoly import (AssociatePoly, LinPolyError, LinearizedPoly,
                               _family_verdicts, _remainder, _twisted_quotient,
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


# -- the division cores against independent references ---------------------------


def _reference_left_quotient(outer, target):
    """Top-down twisted division on LinearizedPoly objects, subtracting
    every term of `outer` (the leading one included) at every step."""
    F = target.field
    s = outer.top_index
    a_s = outer.coeffs[s]
    work = dict(target.coeffs)
    out = {}
    while work:
        t = max(work)
        if t < s:
            return None
        d = t - s
        # a_s * q_d^(p^s) = work[t]  ->  q_d = (work[t]/a_s)^(p^-s)
        rhs = F.div(work[t], a_s)
        q_d = F.frobenius(rhs, (F.k - s % F.k) % F.k) if s % F.k else rhs
        out[d] = q_d
        for i, a in outer.coeffs.items():
            k = i + d
            work[k] = F.sub(work.get(k, 0), F.mul(a, F.pow(q_d, F.p**i)))
            if work[k] == 0:
                del work[k]
    return LinearizedPoly(F, out)


def _reference_decompose(target, inner):
    """Top-down right division on LinearizedPoly objects, subtracting every
    term of `inner` (the leading one included) at every step."""
    F = target.field
    s = inner.top_index
    b_s = inner.coeffs[s]
    work = dict(target.coeffs)
    out = {}
    while work:
        t = max(work)
        if t < s:
            return None
        d = t - s
        # a_d * b_s^(p^d) = work[t]
        a_d = F.div(work[t], F.pow(b_s, F.p**d))
        out[d] = a_d
        pd = F.p**d
        for j, b in inner.coeffs.items():
            k = d + j
            work[k] = F.sub(work.get(k, 0), F.mul(a_d, F.pow(b, pd)))
            if work[k] == 0:
                del work[k]
    return LinearizedPoly(F, out)


def _sparse_lp(F, top, rng):
    """A seeded linearized polynomial of top index `top`, with gaps."""
    coeffs = {i: rng.randrange(F.order) for i in range(top)
              if rng.random() < 0.5}
    coeffs[top] = rng.randrange(1, F.order)
    return lp(F, coeffs)


@pytest.mark.parametrize("p,k", [(2, 6), (2, 12), (3, 4)])
def test_twisted_core_recovers_the_right_factor(p, k):
    F = build_field(p, k)
    rng = random.Random(1100 + k)
    for _ in range(150):
        outer = _sparse_lp(F, rng.randrange(6), rng)
        inner = _sparse_lp(F, rng.randrange(6), rng)
        target = compose(outer, inner)
        assert _twisted_quotient(F, outer.coeffs, target.coeffs) == inner.coeffs
        assert left_quotient(outer, target) == inner
        # a nonzero term below outer's top index leaves no quotient
        s = outer.top_index
        if s:
            low = rng.randrange(s)
            bumped = target.add(lp(F, {low: rng.randrange(1, F.order)}))
            assert _twisted_quotient(F, outer.coeffs, bumped.coeffs) is None
            assert _reference_left_quotient(outer, bumped) is None


@pytest.mark.parametrize("p,k", [(2, 6), (2, 12), (3, 4)])
def test_twisted_core_matches_the_reference(p, k):
    F = build_field(p, k)
    rng = random.Random(1200 + k)
    for _ in range(200):
        outer = _sparse_lp(F, rng.randrange(5), rng)
        target = _sparse_lp(F, rng.randrange(8), rng)
        assert left_quotient(outer, target) == \
            _reference_left_quotient(outer, target)


@pytest.mark.parametrize("p,k", [(2, 6), (2, 12), (3, 4)])
def test_decompose_matches_the_reference(p, k):
    F = build_field(p, k)
    rng = random.Random(1300 + k)
    nones = 0
    for _ in range(150):
        outer = _sparse_lp(F, rng.randrange(6), rng)
        inner = _sparse_lp(F, rng.randrange(6), rng)
        target = compose(outer, inner)
        assert decompose(target, inner) == outer == \
            _reference_decompose(target, inner)
        # a nonzero term below inner's top index leaves no outer factor
        s = inner.top_index
        if s:
            low = rng.randrange(s)
            bumped = target.add(lp(F, {low: rng.randrange(1, F.order)}))
            assert decompose(bumped, inner) is None
            assert _reference_decompose(bumped, inner) is None
        # an arbitrary target: mostly no outer factor, sometimes one
        other = _sparse_lp(F, rng.randrange(8), rng)
        got = decompose(other, inner)
        assert got == _reference_decompose(other, inner)
        nones += got is None
    assert nones > 0


def _dense(F, deg, rng, sparse):
    cs = [rng.randrange(F.order) if not sparse or rng.random() < 0.3 else 0
          for _ in range(deg)]
    return cs + [rng.randrange(1, F.order)]


def _dict(cs):
    return {i: c for i, c in enumerate(cs) if c}


@pytest.mark.parametrize("p,k", [(2, 6), (2, 12), (3, 4)])
@pytest.mark.parametrize("sparse", [False, True])
def test_conventional_core_remainder_matches_divmod_poly(p, k, sparse):
    F = build_field(p, k)
    rng = random.Random(1300 + 10 * k + sparse)
    for _ in range(150):
        b = _dense(F, rng.randrange(6), rng, sparse)
        a = _dense(F, rng.randrange(12), rng, sparse)
        _, rem = polyroots.divmod_poly(F, a, b)
        assert _remainder(F, _dict(b), _dict(a)) == _dict(rem)
        # a multiple of b leaves no remainder
        prod = polyroots.mul(F, a, b)
        assert _remainder(F, _dict(b), _dict(prod)) == {}
        assert AssociatePoly(F, b).divides(AssociatePoly(F, prod))
        assert AssociatePoly(F, b).divides(AssociatePoly(F, a)) == (not rem)


# -- the family scan against the object-building reference ---------------------


def _reference_family(F, q, only=None):
    """(member, by_composition, by_conventional) in scan order, deciding each
    member with LinearizedPoly / AssociatePoly objects, the reference twisted
    division and dense `polyroots.divmod_poly`.  With `only`, a set of
    positions, the verdicts of every other member are None."""
    p, e = F.p, 0
    while p**e < q:
        e += 1
    target = LinearizedPoly(F, {3 * e: 1, 0: 1})
    target_assoc = p_associate(target)
    n = F.units
    m13 = q * q - q + 1
    gk = F.pow(F.generator, gcd(m13, n))
    seen_r = set()
    a = 1
    reps = []
    for _ in range(n):
        r = F.pow(a, q * q - 1)
        if r not in seen_r:
            seen_r.add(r)
            reps.append(a)
        a = F.mul(a, F.generator)
    pos = 0
    for a in reps:
        a_q2 = F.pow(a, q * q)
        kinv = 1
        for _ in range(n // gcd(m13, n)):
            kinv = F.mul(kinv, gk)
            A = F.mul(kinv, a_q2)
            B = F.neg(F.mul(kinv, a))
            member = {2 * e: A, 0: B}
            by_composition = by_conventional = None
            if only is None or pos in only:
                cand = LinearizedPoly(F, member)
                by_composition = (
                    _reference_left_quotient(cand, target) is not None)
                _, rem = polyroots.divmod_poly(F, target_assoc.coeffs,
                                               p_associate(cand).coeffs)
                by_conventional = not rem
            yield member, by_composition, by_conventional
            pos += 1


def _totals(verdicts):
    verdicts = list(verdicts)
    return (len(verdicts), sum(c for c, _ in verdicts),
            sum(c != d for c, d in verdicts))


def _compare_with_reference(F, q, only=None):
    """The new scan's members and verdicts, checked against the reference at
    every position, or at the positions in `only`."""
    new = list(_family_verdicts(F, q))
    ref = list(_reference_family(F, q, only))
    assert [m for m, _, _ in new] == [m for m, _, _ in ref]
    for i in (range(len(ref)) if only is None else sorted(only)):
        assert new[i] == ref[i], i
    return new


def test_family_scan_matches_the_reference_at_q2():
    F = build_field(2, 6)
    new = _compare_with_reference(F, 2)
    assert len(new) == 441
    assert quotient_family_scan(F, 2) == _totals((c, d) for _, c, d in new)


def test_family_scan_counts_both_kinds_of_disagreement(monkeypatch):
    # the family has no divisible member, so feed the count every pattern
    import maxcurves.linpoly as linpoly
    pattern = [(True, True), (True, False), (False, True), (False, False)]
    monkeypatch.setattr(linpoly, "_family_verdicts",
                        lambda F, q: (({}, c, d) for c, d in pattern * 3))
    assert quotient_family_scan(None, 4) == (12, 6, 6)


def test_family_scan_matches_the_reference_on_a_q4_slice():
    rng = random.Random(1104)
    only = set(rng.sample(range(85995), 600))
    assert len(_compare_with_reference(build_field(2, 12), 4, only)) == 85995


# x^12 + x^10 + x^9 + x^7 + x^6 + x^4 + 1, irreducible and not primitive
IMPRIMITIVE_F2_12 = (1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1)


def test_family_scan_matches_the_reference_under_an_imprimitive_override():
    try:
        set_modulus_override(2, 12, IMPRIMITIVE_F2_12)
        F = build_field(2, 12)
        assert F.generator != 2  # X is not a generator of F*
        rng = random.Random(1112)
        only = set(rng.sample(range(85995), 300))
        new = _compare_with_reference(F, 4, only)
        assert _totals((c, d) for _, c, d in new) == (85995, 0, 0)
    finally:
        clear_modulus_overrides()


@pytest.mark.slow
def test_family_scan_matches_the_reference_at_q4_in_full():
    for modulus in (None, IMPRIMITIVE_F2_12):
        try:
            if modulus:
                set_modulus_override(2, 12, modulus)
            F = build_field(2, 12)
            new = _compare_with_reference(F, 4)
            assert quotient_family_scan(F, 4) == _totals(
                (c, d) for _, c, d in new) == (85995, 0, 0)
        finally:
            clear_modulus_overrides()
