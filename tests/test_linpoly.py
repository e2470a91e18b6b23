import random
from math import gcd

import pytest

from maxcurves import polyroots
from maxcurves.gf import build_field, clear_modulus_overrides, \
    set_modulus_override
from maxcurves.linpoly import (LinPolyError, _right_quotient, _twisted_quotient,
                               compose, decompose, quotient_family_scan)
from oracles import (family_counts, family_reps, family_verdicts, from_kernel,
                     roots_in, span)

random.seed(904)


def lp(coeffs):
    """The dense, trimmed tuple of a {p-power index: coefficient} map."""
    out = [0] * (max(coeffs, default=-1) + 1)
    for i, c in coeffs.items():
        out[i] = c
    return polyroots.trim(out)


def _left(F, outer, target):
    """The twisted core for a binomial outer (a_0, 0, ..., 0, a_s), s >= 1,
    given as its coefficient tuple."""
    assert len(outer) > 1 and not any(outer[1:-1])
    return _twisted_quotient(F, outer[0], outer[-1], len(outer) - 1, target)


def _binomial(F, rng):
    """A seeded binomial a_s X^(p^s) + a_0 X, s in 1..5, a_s nonzero."""
    return lp({0: rng.randrange(F.order), rng.randrange(1, 6):
               rng.randrange(1, F.order)})


def test_from_kernel_trivial():
    F = build_field(2, 4)
    assert from_kernel(F, [0]) == (1,)  # X itself


def test_from_kernel_two_elements():
    F2 = build_field(2, 1)
    assert from_kernel(F2, [0, 1]) == (1, 1)  # X^2 + X


def test_from_kernel_order_four_subgroup_of_f4096():
    F = build_field(2, 12)
    kernel64 = [c for c in F.elements() if F.add(F.pow(c, 64), c) == 0]
    u = min(c for c in kernel64 if c not in (0, 1))
    roots = [0, 1, u, F.add(1, u)]
    L = from_kernel(F, roots)
    assert len(L) == 3  # degree 4
    assert roots_in(F, L) == set(roots)
    # L divides X^64 + X on the right: the kernel construction of the
    # unipotent quotient map
    assert decompose(F, lp({6: 1, 0: 1}), L) is not None


def test_compose_noncommutative_twist():
    F = build_field(2, 4)
    c = F.generator
    scalar, frob = (c,), (0, 1)
    assert compose(F, scalar, frob) == (0, c)
    assert compose(F, frob, scalar) == (0, F.pow(c, 2))


def test_decompose_toy():
    F2 = build_field(2, 1)
    target = (1, 0, 0, 1)                # X^8 + X
    inner = (1, 1)                       # X^2 + X
    outer = decompose(F2, target, inner)
    assert outer == (1, 1, 1)            # X^4 + X^2 + X
    assert compose(F2, outer, inner) == target
    # untrimmed inputs are trimmed; the zero divisor is refused
    assert decompose(F2, target + (0,), inner + (0, 0)) == outer
    with pytest.raises(LinPolyError, match="zero polynomial"):
        decompose(F2, target, (0, 0))


def test_decompose_failure():
    F2 = build_field(2, 1)
    target = (1, 0, 0, 1)                # X^8 + X
    bad_inner = (1, 0, 1)                # X^4 + X: kernel F_4 not inside F_8
    assert decompose(F2, target, bad_inner) is None
    # nor is X^8 + X = bad_inner(Q(X)) for any Q
    assert _left(F2, bad_inner, target) is None


def test_decompose_compose_round_trip_random():
    F = build_field(2, 6)
    for _ in range(50):
        outer = lp({i: random.randrange(64) for i in range(3)})
        inner = lp({i: random.randrange(64) for i in range(2)})
        if not outer or not inner:
            continue
        target = compose(F, outer, inner)
        got = decompose(F, target, inner)
        assert got == outer


def test_left_quotient_round_trip_random():
    F = build_field(3, 4)
    for _ in range(50):
        outer = _binomial(F, random)
        inner = lp({i: random.randrange(81) for i in range(2)})
        if not inner:
            continue
        target = compose(F, outer, inner)
        got = _left(F, outer, target)
        assert got is not None and compose(F, outer, tuple(got)) == target


def test_associate_round_trip_and_factorization():
    F2 = build_field(2, 1)
    a = (1, 0, 0, 1)                      # X^8 + X, and t^3 + 1
    lin, quad = (1, 1), (1, 1, 1)         # t + 1, t^2 + t + 1
    assert polyroots.mul(F2, lin, quad) == a
    assert not polyroots.mod(F2, a, lin)
    # over the prime field the associate factors compose back to a
    assert compose(F2, quad, lin) == compose(F2, lin, quad) == a


def test_conventional_and_twisted_divisibility_agree_over_prime_fields():
    for p in (2, 3):
        F = build_field(p, 1)
        for _ in range(100):
            f = lp({i: random.randrange(p) for i in range(3)})
            g = lp({i: random.randrange(p) for i in range(2)})
            if not f or not g or not compose(F, f, g):
                continue
            target = compose(F, f, g)
            assert decompose(F, target, g) == f
            assert not polyroots.mod(F, target, g)


@pytest.mark.parametrize("p,k", [(2, 6), (2, 12), (3, 4)])
def test_decompose_agrees_with_kernel_containment(p, k):
    """For l = Prod_{s in S} (X - s), S an additive subgroup of F, and m split
    in F (roots by evaluation), some O has O(l(X)) = m exactly when S lies
    in the roots of m: m's remainder on the right by l vanishes on S."""
    F = build_field(p, k)
    rng = random.Random(1600 + 10 * p + k)
    whole = lp({k: 1, 0: F.neg(1)})  # X^|F| - X, whose roots are F
    verdicts = set()
    for _ in range(5):
        basis = [rng.randrange(1, F.order) for _ in range(rng.randrange(1, 3))]
        kernel = span(F, basis)
        l = from_kernel(F, kernel)
        assert roots_in(F, l) == kernel
        wider = basis + [rng.randrange(1, F.order)]
        other = [rng.randrange(1, F.order) for _ in wider]
        outer = lp({i: rng.randrange(F.order) for i in range(3)})
        for m in (whole, from_kernel(F, span(F, wider)),
                  from_kernel(F, span(F, other)), compose(F, outer, l)):
            ker_m = roots_in(F, m)
            if not m or len(ker_m) != F.p ** (len(m) - 1):
                continue  # m does not split in F
            verdict = decompose(F, m, l) is not None
            assert verdict == (kernel <= ker_m)
            verdicts.add(verdict)
    assert verdicts == {True, False}


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


def _reference_left_quotient(F, outer, target):
    """Top-down twisted division on {index: coefficient} dicts, subtracting
    every term of `outer`, the leading one too, at each step."""
    s = max(outer)
    a_s = outer[s]
    work = dict(target)
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
        for i, a in outer.items():
            k = i + d
            work[k] = F.sub(work.get(k, 0), F.mul(a, F.pow(q_d, F.p**i)))
            if work[k] == 0:
                del work[k]
    return out


def _reference_decompose(F, target, inner):
    """Top-down right division on {index: coefficient} dicts, subtracting
    every term of `inner`, the leading one too, at each step."""
    s = max(inner)
    b_s = inner[s]
    work = dict(target)
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
        for j, b in inner.items():
            k = d + j
            work[k] = F.sub(work.get(k, 0), F.mul(a_d, F.pow(b, pd)))
            if work[k] == 0:
                del work[k]
    return out


def _terms(l):
    """The {index: coefficient} dict of a coefficient tuple."""
    return {i: c for i, c in enumerate(l) if c}


def _coeffs(terms):
    """A reference's dict as a tuple; None stays None."""
    return None if terms is None else lp(terms)


def _core(got):
    """A core's quotient as a tuple, to compare with `_coeffs`."""
    return None if got is None else tuple(got)


def _sparse_lp(F, top, rng):
    """A seeded linearized polynomial of top index `top`, with gaps."""
    coeffs = {i: rng.randrange(F.order) for i in range(top)
              if rng.random() < 0.5}
    coeffs[top] = rng.randrange(1, F.order)
    return lp(coeffs)


def _bumped(F, l, top, rng):
    """l with a nonzero amount added at a seeded index below `top`."""
    out = list(l)
    low = rng.randrange(top)
    out[low] = F.add(out[low], rng.randrange(1, F.order))
    return tuple(out)


@pytest.mark.parametrize("p,k", [(2, 6), (2, 12), (3, 4)])
def test_twisted_core_recovers_the_right_factor(p, k):
    F = build_field(p, k)
    rng = random.Random(1100 + k)
    for _ in range(150):
        outer = _binomial(F, rng)
        inner = _sparse_lp(F, rng.randrange(6), rng)
        target = compose(F, outer, inner)
        assert _core(_left(F, outer, target)) == inner
        # a nonzero term below outer's top index leaves no quotient
        bumped = _bumped(F, target, len(outer) - 1, rng)
        assert _left(F, outer, bumped) is None
        assert _reference_left_quotient(
            F, _terms(outer), _terms(bumped)) is None


@pytest.mark.parametrize("p,k", [(2, 6), (2, 12), (3, 4)])
def test_twisted_core_matches_the_reference(p, k):
    F = build_field(p, k)
    rng = random.Random(1200 + k)
    for _ in range(200):
        outer = _binomial(F, rng)
        target = _sparse_lp(F, rng.randrange(8), rng)
        got = _left(F, outer, target)
        assert _core(got) == _coeffs(
            _reference_left_quotient(F, _terms(outer), _terms(target)))


def _sparse_divisor(F, rng):
    return _sparse_lp(F, rng.randrange(6), rng)


def _core_cases(F, rng, divisor):
    """(divisor, target) tuple pairs with gaps, the divisor from
    divisor(F, rng): arbitrary, a zero target, a target shorter than the
    divisor, and exact multiples."""
    for _ in range(120):
        div = divisor(F, rng)
        yield div, _sparse_lp(F, rng.randrange(9), rng)
        yield div, ()
        if len(div) > 1:
            yield div, _sparse_lp(F, rng.randrange(len(div) - 1), rng)
        yield div, compose(F, div, _sparse_lp(F, rng.randrange(4), rng))
        yield div, compose(F, _sparse_lp(F, rng.randrange(4), rng), div)


@pytest.mark.parametrize("p,k", [(2, 6), (2, 12), (3, 2), (3, 4)])
def test_dense_cores_match_the_dict_cores(p, k):
    F = build_field(p, k)
    rng = random.Random(1250 + 10 * p + k)
    nones = exact = 0
    for div, target in _core_cases(F, rng, _binomial):
        got = _left(F, div, target)
        assert _core(got) == _coeffs(
            _reference_left_quotient(F, _terms(div), _terms(target)))
        nones += got is None
        exact += got is not None and bool(target)
    assert nones and exact
    nones = exact = 0
    for div, target in _core_cases(F, rng, _sparse_divisor):
        right = _right_quotient(F, div, target)
        assert _core(right) == _coeffs(
            _reference_decompose(F, _terms(target), _terms(div)))
        nones += right is None
        exact += right is not None and bool(target)
    assert nones and exact


@pytest.mark.parametrize("p,k", [(2, 6), (2, 12), (3, 4)])
def test_decompose_matches_the_reference(p, k):
    F = build_field(p, k)
    rng = random.Random(1300 + k)
    nones = 0
    for _ in range(150):
        outer = _sparse_lp(F, rng.randrange(6), rng)
        inner = _sparse_lp(F, rng.randrange(6), rng)
        target = compose(F, outer, inner)
        assert decompose(F, target, inner) == outer == _coeffs(
            _reference_decompose(F, _terms(target), _terms(inner)))
        # a nonzero term below inner's top index leaves no outer factor
        s = len(inner) - 1
        if s:
            bumped = _bumped(F, target, s, rng)
            assert decompose(F, bumped, inner) is None
            assert _reference_decompose(
                F, _terms(bumped), _terms(inner)) is None
        # an arbitrary target: mostly no outer factor, sometimes one
        other = _sparse_lp(F, rng.randrange(8), rng)
        got = decompose(F, other, inner)
        assert got == _coeffs(
            _reference_decompose(F, _terms(other), _terms(inner)))
        nones += got is None
    assert nones > 0


# -- the family scan against the dict-based reference -------------------------


def _reference_family(F, q, only=None):
    """(member, by_composition, by_conventional) in scan order, deciding each
    member, a {index: coefficient} dict, with the reference twisted
    division and dense `polyroots.divmod_poly`.  With `only`, a set of
    positions, the verdicts of every other member are None."""
    p, e = F.p, 0
    while p**e < q:
        e += 1
    target = {3 * e: 1, 0: 1}
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
                by_composition = (
                    _reference_left_quotient(F, member, target) is not None)
                _, rem = polyroots.divmod_poly(F, lp(target), lp(member))
                by_conventional = not rem
            yield member, by_composition, by_conventional
            pos += 1


def _compare_with_reference(F, q, only=None):
    """The oracle's members and verdicts, checked against the reference at
    every position, or at the positions in `only`."""
    # the oracle's members are the dense (B, 0, ..., 0, A); the reference's
    # are {2e: A, 0: B}
    new = [(_terms(m), c, d)
           for m, c, d in family_verdicts(F, q, family_reps(F, q))]
    ref = list(_reference_family(F, q, only))
    assert [m for m, _, _ in new] == [m for m, _, _ in ref]
    for i in (range(len(ref)) if only is None else sorted(only)):
        assert new[i] == ref[i], i
    return new


def test_family_scan_matches_the_reference_at_q2():
    F = build_field(2, 6)
    new = _compare_with_reference(F, 2)
    assert len(new) == 441
    assert quotient_family_scan(F, 2) == family_counts(new)


def test_family_members_factor_through_k_and_a():
    # A X^(q^2) + B X = k^-1 P(aX) with P = X^(q^2) - X, and the monic
    # associate's constant B/A = -a^(1-q^2): the identities that let the
    # scan decide composition once per k and the associate once per a
    rng = random.Random(2604)
    for p, k, q, e in ((2, 6, 2, 1), (2, 12, 4, 2), (3, 4, 3, 1)):
        F = build_field(p, k)
        reps = family_reps(F, q)
        members = list(family_verdicts(F, q, reps))
        n_k = len(members) // len(reps)
        gk = F.pow(F.generator, gcd(q * q - q + 1, F.units))
        for pos in rng.sample(range(len(members)), 40):
            a, kinv = reps[pos // n_k], F.pow(gk, pos % n_k + 1)
            member = members[pos][0]
            P = (F.neg(kinv),) + (0,) * (2 * e - 1) + (kinv,)
            assert compose(F, P, (a,)) == member
            B, A = member[0], member[-1]
            assert F.div(B, A) == F.neg(F.pow(a, 1 - q * q))


def test_family_scan_counts_both_kinds_of_disagreement(monkeypatch):
    # the real family has no k that composes and no a that divides
    # (C = D = 0), so the count is fed patterns through the two cores: the
    # twisted core composes for 7 of the 315 k, read from k T =
    # (k, 0, ..., 0, k), and `polyroots.mod` divides for 11 of the 273
    # ratios B/A, read from the monic associate (B/A, 0, 0, 0, 1)
    import maxcurves.linpoly as linpoly
    F = build_field(2, 12)
    target = (1,) + (0,) * 5 + (1,)
    some_k = {F.pow(F.generator, 13 * j) for j in range(1, 8)}
    some_ratios = {F.neg(F.pow(F.generator, 15 * j)) for j in range(100, 111)}
    k_seen, ratios_seen = [], []

    def twisted(G, a0, a_s, s, kt):
        assert (G, a0, a_s, s) == (F, F.neg(1), 1, 4)
        assert kt[1:-1] == target[1:-1] and kt[0] == kt[-1]
        k_seen.append(kt[0])
        return [1] if kt[0] in some_k else None

    def mod(G, a, b):
        assert (G, a) == (F, target) and b[1:] == (0, 0, 0, 1)
        ratios_seen.append(b[0])
        return () if b[0] in some_ratios else (1,)

    monkeypatch.setattr(linpoly, "_twisted_quotient", twisted)
    monkeypatch.setattr(linpoly.polyroots, "mod", mod)
    R, K, C, D = 273, 315, 7, 11
    assert quotient_family_scan(F, 4) == (
        R * K, R * C, C * (R - D) + (K - C) * D) == (85995, 1911, 5222)
    assert len(k_seen) == K and len(ratios_seen) == R


@pytest.mark.parametrize("p, k, q", [(2, 6, 2), (2, 12, 4), (3, 2, 3),
                                     (3, 4, 3)])
def test_family_scan_hands_the_cores_each_k_and_each_ratio_once(
        monkeypatch, p, k, q):
    # the k of k T and the constants B/A of the monic associates are read
    # off the oracle's members; over F_9, -1 is not a (q^2-1)-th power, so
    # a ratio taken without its sign is caught there
    import maxcurves.linpoly as linpoly
    F = build_field(p, k)
    reps = family_reps(F, q)
    members = [m for m, _, _ in family_verdicts(F, q, reps)]
    n_k = len(members) // len(reps)
    ks = {F.div(F.pow(reps[i // n_k], q * q), m[-1])
          for i, m in enumerate(members)}
    ratios = {F.div(m[0], m[-1]) for m in members}
    k_seen, ratios_seen = [], []

    def twisted(G, a0, a_s, s, kt):
        k_seen.append(kt[0])
        return None

    def mod(G, a, b):
        ratios_seen.append(b[0])
        return (1,)

    monkeypatch.setattr(linpoly, "_twisted_quotient", twisted)
    monkeypatch.setattr(linpoly.polyroots, "mod", mod)
    assert quotient_family_scan(F, q) == (len(members), 0, 0)
    assert sorted(k_seen) == sorted(ks) and len(ks) == n_k
    assert sorted(ratios_seen) == sorted(ratios) and len(ratios) == len(reps)


def test_family_scan_matches_the_reference_on_a_q4_slice():
    rng = random.Random(1104)
    only = set(rng.sample(range(85995), 600))
    F = build_field(2, 12)
    new = _compare_with_reference(F, 4, only)
    assert len(new) == 85995
    assert quotient_family_scan(F, 4) == family_counts(new)


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
        assert quotient_family_scan(F, 4) == family_counts(new) == (
            85995, 0, 0)
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
            assert quotient_family_scan(F, 4) == family_counts(new) == (
                85995, 0, 0)
        finally:
            clear_modulus_overrides()
