import errno
import json
import operator
import os
import random
from array import array
from math import gcd
from pathlib import Path

import pytest

from maxcurves import gf
from maxcurves.gf import (COMPACT_LIMIT, GF, FieldError,
                          _canonical_modulus,
                          _gf2_clmul, _gf2_gcd, _gf2_powers, _gf2_rem,
                          _gf2_square,
                          _is_irreducible, _is_primitive_root_x, build_field,
                          clear_modulus_overrides, embed, load_field_config,
                          set_modulus_override)
from maxcurves.numbertheory import divisors, factorize, prime_divisors
from oracles import smallest_root_by_splitting

random.seed(901)

# canonical moduli computed by the unpruned search (read only)
GOLDEN_MODULI = (Path(__file__).resolve().parents[1] / "perfbench" / "golden"
                 / "moduli.json")


def test_prime_field_convention():
    F2 = build_field(2, 1)
    assert F2.order == 2
    assert F2.modulus == (1, 1)  # X + 1 for degree 1
    assert F2.add(1, 1) == 0 and F2.mul(1, 1) == 1


def test_build_is_idempotent_and_deterministic():
    a = build_field(2, 10)
    b = build_field(2, 10)
    assert a is b
    assert a.modulus == b.modulus


def test_generator_order_f1024():
    F = build_field(2, 10)
    g = F.generator
    assert F.pow(g, 1023) == 1
    for r in (3, 11, 31):
        assert F.pow(g, 1023 // r) != 1


def test_subfield_copy_inside_f2_18():
    F = build_field(2, 18)
    fixed = sum(1 for x in F.elements() if F.pow(x, 64) == x)
    assert fixed == 64  # the F_64 copy is the fixed field of Frobenius^6


def test_build_field_rejects_bad_input():
    with pytest.raises(FieldError):
        build_field(6, 2)
    with pytest.raises(FieldError):
        build_field(2, 0)
    with pytest.raises(FieldError):
        build_field(2, 80)  # beyond the size cap


@pytest.mark.parametrize("p,k", [(3, 12), (5, 8), (7, 7)])
def test_odd_fields_up_to_the_table_limit_have_tables(p, k):
    F = build_field(p, k)
    assert F.table_mode and len(F.log) == F.order
    del gf._FIELDS[(p, k)]  # about 10 MB of tables no other test reads


@pytest.mark.parametrize("p,k", [(3, 13), (5, 9), (7, 8)])
def test_odd_fields_past_the_table_limit_are_refused(p, k, monkeypatch):
    def no_search(*args):
        raise AssertionError("refused only after a modulus search")
    # refused before any modulus search or irreducibility test
    monkeypatch.setattr(gf, "_canonical_modulus", no_search)
    monkeypatch.setattr(gf, "_is_irreducible", no_search)
    modulus = (1,) * k + (1,)
    with pytest.raises(FieldError, match="table-only"):
        build_field(p, k)
    with pytest.raises(FieldError, match="table-only"):
        set_modulus_override(p, k, modulus)
    with pytest.raises(FieldError, match="table-only"):
        GF(p, k, modulus)
    assert (p, k) not in gf._FIELDS and (p, k) not in gf._MODULUS_OVERRIDES


def _unpruned_canonical_modulus(p, k):
    """Every monic candidate in canonical order through both full tests."""
    for t in range(p ** (k - 1), p**k):  # c_0 = 0 is never primitive
        coeffs = tuple((t // p ** (k - 1 - i)) % p for i in range(k)) + (1,)
        if _is_irreducible(coeffs, p) and _is_primitive_root_x(coeffs, p):
            return coeffs
    raise AssertionError("no primitive irreducible")


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7, 11, 13)
                                 for k in range(1, 17) if p**k <= 1 << 16])
def test_pruned_modulus_search_matches_unpruned_scan(p, k):
    assert _canonical_modulus(p, k) == _unpruned_canonical_modulus(p, k)


def test_canonical_moduli_match_golden():
    golden = json.loads(GOLDEN_MODULI.read_text())
    assert {"3,6", "5,6", "7,6"} <= set(golden)
    for key, modulus in golden.items():
        p, k = (int(v) for v in key.split(","))
        assert _canonical_modulus(p, k) == tuple(modulus), key


# Digit-tuple arithmetic over F_p, independent of `polyroots`: a polynomial
# is a tuple of digits in [0, p), low degree first, with no trailing zeros.


def _poly_trim(t):
    i = len(t)
    while i and t[i - 1] == 0:
        i -= 1
    return tuple(t[:i])


def _poly_mulmod(a, b, mod, p):
    # a, b reduced mod `mod` (monic, degree k); coefficients are reduced
    # mod p once each, when the top-down reduction reads them and at the end
    k = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d] % p
        if c:
            for j in range(k):
                prod[d - k + j] -= c * mod[j]
    return _poly_trim([c % p for c in prod[:k]])


def _poly_powmod(base, e, mod, p):
    r = (1,)
    for bit in bin(e)[2:]:
        r = _poly_mulmod(r, r, mod, p)
        if bit == "1":
            r = _poly_mulmod(r, base, mod, p)
    return r


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        # a mod b
        a = list(a)
        db, lb = len(b) - 1, b[-1]
        inv_lb = pow(lb, p - 2, p)
        for d in range(len(a) - 1, db - 1, -1):
            c = a[d]
            if c:
                f = c * inv_lb % p
                for j in range(db + 1):
                    a[d - db + j] = (a[d - db + j] - f * b[j]) % p
        a, b = b, _poly_trim(a)
    return a


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    for i, bi in enumerate(b):
        a[i] = (a[i] - bi) % p
    return _poly_trim(a)


def _bit_loop_gcd(a, b):
    """gcd over F_2 of bitmask polynomials, one leading bit at a time."""
    while b:
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def test_gf2_gcd_matches_the_bit_loop():
    rng = random.Random(157)
    pairs = [(0, 0), (0, 1), (1, 0), (5, 0), (0, 5), (6, 3), (3, 6)]
    for _ in range(3000):
        a, b = (rng.getrandbits(rng.randrange(1, 40)) for _ in range(2))
        c = rng.getrandbits(rng.randrange(1, 12))  # a common factor
        pairs += [(a, b), (_gf2_clmul(a, c), _gf2_clmul(b, c))]
    for a, b in pairs:
        assert _gf2_gcd(a, b) == _bit_loop_gcd(a, b), (a, b)


def _reference_is_irreducible(coeffs, p):
    """Rabin's test: X^(p^k) = X mod f, and gcd(X^(p^(k/r)) - X, f) = 1 for
    every prime r dividing k, from all k Frobenius powers of X."""
    k = len(coeffs) - 1
    if k == 1:
        return True
    if coeffs[0] == 0:
        return False
    if p == 2:
        mod = sum(c << i for i, c in enumerate(coeffs))
        frob, powers = 2, {}
        for i in range(1, k + 1):
            frob = _gf2_rem(_gf2_square(frob), mod, k)
            powers[i] = frob
        return powers[k] == 2 and all(
            _bit_loop_gcd(powers[k // r] ^ 2, mod) == 1
            for r in prime_divisors(k))
    x = frob = (0, 1)
    powers = {}
    for i in range(1, k + 1):
        frob = _poly_powmod(frob, p, coeffs, p)
        powers[i] = frob
    return powers[k] == x and all(
        len(_poly_gcd(_poly_sub(powers[k // r], x, p), coeffs, p)) == 1
        for r in prime_divisors(k))


def _monic_candidates(p, k):
    """Every monic polynomial of degree k over F_p with c_0 != 0."""
    for t in range((p - 1) * p ** (k - 1)):
        c0, rest = divmod(t, p ** (k - 1))
        yield ((c0 + 1,) + tuple(rest // p**i % p for i in range(k - 1))
               + (1,))


@pytest.mark.parametrize("p,k", [(2, k) for k in range(1, 15)]
                         + [(3, k) for k in range(1, 8)]
                         + [(5, k) for k in range(1, 5)]
                         + [(7, k) for k in range(1, 4)])
def test_ben_or_matches_rabin_on_every_candidate(p, k):
    for f in _monic_candidates(p, k):
        assert _is_irreducible(f, p) == _reference_is_irreducible(f, p), f


def _poly_mul(a, b, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return tuple(prod)


def _first_irreducibles(p, d, count):
    found = (f for f in _monic_candidates(p, d)
             if _reference_is_irreducible(f, p))
    return [next(found) for _ in range(count)]


@pytest.mark.parametrize("p,k", [(2, 6), (2, 7), (2, 16), (2, 17), (2, 20),
                                 (3, 6), (3, 7), (3, 10), (5, 4), (5, 5),
                                 (7, 4), (7, 5)])
def test_ben_or_refuses_factors_of_degree_half_k(p, k):
    # Ben-Or's last step, i = k // 2, is the first to see these factors
    if k % 2:
        g = _first_irreducibles(p, k // 2, 1)[0]
        h = _first_irreducibles(p, k // 2 + 1, 1)[0]
        products = [_poly_mul(g, h, p)]
    else:
        g, h = _first_irreducibles(p, k // 2, 2)
        products = [_poly_mul(g, h, p), _poly_mul(g, g, p)]
    for f in products:
        assert len(f) == k + 1 and not _reference_is_irreducible(f, p)
        assert not _is_irreducible(f, p), f
        try:
            with pytest.raises(FieldError, match="not irreducible"):
                set_modulus_override(p, k, f)
        finally:
            clear_modulus_overrides()


# override moduli set in test_gf_properties.py, test_checks_cli.py and
# test_linpoly.py; each is irreducible
OTHER_TEST_OVERRIDES = [
    (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1), (1,) * 13,
    (1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1),
    (1, 1, 1, 1, 0, 1, 1) + (0,) * 8 + (1,),
    (1,) + (0,) * 8 + (1,) + (0,) * 8 + (1,),
]


def test_ben_or_on_the_test_overrides():
    overrides = [(2, f) for f in OTHER_TEST_OVERRIDES]
    overrides += [(3, (1, 0, 1)), (2, (1, 1, 1, 1, 1)), (2, (1, 1, 0, 0, 1)),
                  (2, IMPRIMITIVE_F16), (2, IMPRIMITIVE_F2_15),
                  (2, IMPRIMITIVE_F2_21)]
    for p, f in overrides:
        assert _is_irreducible(f, p) and _reference_is_irreducible(f, p), f
    reducible = (1, 0, 0, 0, 1)  # (x + 1)^4, refused in these tests
    assert not _is_irreducible(reducible, 2)
    assert not _reference_is_irreducible(reducible, 2)


def _reference_p2_tables(F):
    """The serial shift register: exp and log of a p = 2 field whose
    generator is X, one element at a time."""
    n, k, mod = F.units, F.k, F._mod_mask
    zero = array("I", [0]) if F.order > COMPACT_LIMIT else [0]
    exp, log = zero * n, zero * F.order
    x = 1
    for i in range(n):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x >> k:
            x ^= mod
    assert x == 1
    return exp * 2, log


@pytest.mark.parametrize("k", range(2, 21))
def test_p2_lane_tables_match_the_shift_register(k):
    F = build_field(2, k)
    assert F.generator == 2  # the element X: the lane fill
    exp, log = _reference_p2_tables(F)
    assert type(F.exp) is type(exp) and type(F.log) is type(log)
    assert F.exp == exp  # both periods
    assert F.log == log


# Each way os.fork can go: it sets the way up and returns the list of the
# fork calls a build makes. The log is filled in one process, so every way
# must leave that list empty.
def _forks_once(monkeypatch):
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    return []


def _fork_raises(monkeypatch):
    calls = []

    def fork():
        calls.append(1)
        raise OSError(errno.EAGAIN, "no process left")

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _child_exits_3(monkeypatch):
    # a fork whose child fails at once
    calls = []
    fork = os.fork

    def fork_then_fail():
        calls.append(1)
        pid = fork()
        if pid == 0:
            os._exit(3)
        os.waitpid(pid, 0)
        return pid

    monkeypatch.setattr(os, "fork", fork_then_fail)
    return calls


SPLIT_CASES = [_forks_once, _no_fork, _fork_raises, _child_exits_3]


@pytest.mark.parametrize("k", [18, pytest.param(19, marks=pytest.mark.slow),
                               pytest.param(20, marks=pytest.mark.slow)])
@pytest.mark.parametrize("case", SPLIT_CASES, ids=lambda c: c.__name__[1:])
def test_two_process_log_matches_the_shift_register(k, case, monkeypatch):
    # a fresh field (not the cached one); its log, once filled in two
    # processes, is now filled in this one however os.fork behaves
    modulus = build_field(2, k).modulus
    calls = case(monkeypatch)
    F = GF(2, k, modulus, primitive=True)
    assert calls == []
    exp, log = _reference_p2_tables(F)
    assert type(F.log) is array
    assert F.exp == exp and F.log == log


def test_log_fill_forks_only_above_the_split_limit(refused_fork_and_mmap):
    # the split limit, 2^17, is gone: on neither side of it does a fresh
    # p = 2 field fork or map memory
    for k in (17, 18):
        F = GF(2, k, build_field(2, k).modulus, primitive=True)
        assert type(F.log) is array and F.log[F.exp[5]] == 5
    assert refused_fork_and_mmap == []


def test_odd_p_tables_above_the_split_limit_stay_one_process(
        refused_fork_and_mmap):
    F = GF(3, 12, build_field(3, 12).modulus, primitive=True)
    assert F.order > 1 << 17
    assert type(F.log) is array and F.log[F.exp[5]] == 5
    assert refused_fork_and_mmap == []


# x^18 + x^3 + 1: irreducible, and X is not a generator
IMPRIMITIVE_F2_18 = (1, 0, 0, 1) + (0,) * 14 + (1,)


def test_log_under_an_imprimitive_override():
    # the lanes of a generator other than X, then the log pass, against the
    # lane fill and a serial log
    k, f = 18, IMPRIMITIVE_F2_18
    assert _is_irreducible(f, 2) and not _is_primitive_root_x(f, 2)
    F = GF(2, k, f)
    assert F.generator != 2 and type(F.log) is array
    n = F.units
    exp = array("I", [0]) * (n + 1)
    _gf2_powers(exp, F.generator, F._mod_mask, k)
    assert exp.pop() == 1
    log = array("I", [0]) * F.order
    for i, v in enumerate(exp):
        log[v] = i
    assert F.exp == exp * 2 and F.log == log
    assert sorted(exp) == list(range(1, F.order))


def _assert_tables_follow_generator(F):
    n = F.units
    assert len(F.exp) == 2 * n
    x = 1
    for i, e in enumerate(F.exp[:n]):
        assert e == x and F.log[e] == i
        x = F._mul_novtable(x, F.generator)
    assert x == 1
    assert F.exp[n:] == F.exp[:n]  # the doubled antilog
    assert sorted(F.exp[:n]) == list(range(1, F.order))


@pytest.mark.parametrize("p,k", [(3, 6), (5, 4), (7, 3), (11, 2)])
def test_odd_tables_follow_the_generator(p, k):
    F = build_field(p, k)
    assert F.generator == p  # the element X: the shift-register path
    _assert_tables_follow_generator(F)


def test_odd_tables_under_an_imprimitive_override():
    # X^2 + 1 over F_3: X has order 4 of 8, so the tables take the
    # multiply-by-generator path
    try:
        set_modulus_override(3, 2, (1, 0, 1))
        F = build_field(3, 2)
        assert F.generator != 3
        _assert_tables_follow_generator(F)
    finally:
        clear_modulus_overrides()


# x^15 + x^6 + x^5 + x^3 + x^2 + x + 1: irreducible, X is not a generator
# (the generator is X + 1), and F_{2^15} is past COMPACT_LIMIT
IMPRIMITIVE_F2_15 = (1, 1, 1, 1, 0, 1, 1) + (0,) * 8 + (1,)


def test_p2_tables_under_an_imprimitive_override():
    # the multiply-by-generator path of p = 2, into array tables
    try:
        set_modulus_override(2, 15, IMPRIMITIVE_F2_15)
        F = build_field(2, 15)
        assert F.generator == 3 and isinstance(F.exp, array)
        _assert_tables_follow_generator(F)
    finally:
        clear_modulus_overrides()


def _serial_p2_powers(g, mod, k, count):
    """g^i mod `mod` for i < count, one product at a time, each by shift
    and add with the modulus folded in at every shift."""
    out, x = [], 1
    for _ in range(count):
        out.append(x)
        y, h = 0, x
        for j in range(g.bit_length()):
            if g >> j & 1:
                y ^= h
            h <<= 1
            if h >> k:
                h ^= mod
        x = y
    return out


def _imprimitive_irreducibles(k):
    for low in range(1, 1 << k, 2):
        f = tuple(low >> i & 1 for i in range(k)) + (1,)
        if _reference_is_irreducible(f, 2) and not _is_primitive_root_x(f, 2):
            yield f


@pytest.mark.parametrize("k", range(2, 11))
def test_p2_lanes_match_a_serial_fill_for_every_imprimitive_modulus(k):
    # lanes of powers of X, which does not generate here, and of the
    # generator the field finds
    moduli = list(_imprimitive_irreducibles(k))
    assert moduli or k in (2, 3, 5, 7)  # 2^k - 1 prime: every one primitive
    for f in moduli:
        mod = sum(c << i for i, c in enumerate(f))
        F = GF(2, k, f)
        assert F.generator != 2
        for g in (2, F.generator):
            exp = array("I", [0]) * (1 << k)
            _gf2_powers(exp, g, mod, k)
            assert list(exp) == _serial_p2_powers(g, mod, k, 1 << k), (f, g)
        _assert_tables_follow_generator(F)


@pytest.mark.parametrize("f", OTHER_TEST_OVERRIDES)
def test_p2_lanes_match_a_serial_fill_for_the_test_overrides(f):
    k = len(f) - 1
    F = GF(2, k, f)
    n = F.units
    assert list(F.exp[:n]) == _serial_p2_powers(F.generator, F._mod_mask, k, n)
    assert F.exp[n:] == F.exp[:n]
    assert all(F.log[v] == i for i, v in enumerate(F.exp[:n]))


def _reference_mul(F, a, b):
    """a b in F by the digit-tuple products of the Rabin reference."""
    prod = _poly_mulmod(_poly_trim(F.digits(a)), _poly_trim(F.digits(b)),
                        F.modulus, F.p)
    return F.from_digits(prod)


@pytest.mark.parametrize("p,f,pairs", [(3, (1, 0, 1), None),
                                       (3, (1, 0, 1, 1, 1), 400),
                                       (5, (2, 0, 1), 400)])
def test_odd_override_products_match_the_digit_tuple_reference(p, f, pairs):
    # X^2 + 1 over F_3 on every pair; imprimitive overrides of F_(3^4) and
    # F_(5^2), whose tables come from `polyroots` products, on seeded pairs
    k = len(f) - 1
    try:
        set_modulus_override(p, k, f)
        F = build_field(p, k)
    finally:
        clear_modulus_overrides()
    assert F.modulus == f and F.generator != p
    assert not _is_primitive_root_x(f, p)
    if pairs is None:
        todo = [(a, b) for a in F.elements() for b in F.elements()]
    else:
        rng = random.Random(p * 100 + k)
        todo = [(rng.randrange(F.order), rng.randrange(F.order))
                for _ in range(pairs)]
    for a, b in todo:
        expected = _reference_mul(F, a, b)
        assert F.mul(a, b) == F._mul_novtable(a, b) == expected, (a, b)
        if b:
            assert _reference_mul(F, b, F.inv(b)) == 1, b


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_degree_1_overrides(p):
    # F_p under X + c_0 for every c_0: X = -c_0 is the generator when it
    # is a primitive root mod p, else the least one is; every product,
    # inverse and power is the integer one mod p
    canonical = build_field(p, 1)
    modulus2 = _canonical_modulus(p, 2)  # searched over the canonical F_p
    primes = prime_divisors(p - 1)
    roots = [a for a in range(1, p)
             if all(pow(a, (p - 1) // r, p) != 1 for r in primes)]
    for c0 in range(p):
        try:
            set_modulus_override(p, 1, (c0, 1))
            F = build_field(p, 1)
            # the search for F_(p^2) now runs over this F_p
            assert _canonical_modulus(p, 2) == modulus2
        finally:
            clear_modulus_overrides()
        x = -c0 % p
        assert F.generator == (x if x in roots else roots[0]), (p, c0)
        assert (F.exp[:p - 1] == canonical.exp[:p - 1]) == (
            F.generator == canonical.generator)
        for a in range(p):
            assert F.neg(a) == -a % p
            for b in range(p):
                assert F.mul(a, b) == a * b % p, (c0, a, b)
                assert F.add(a, b) == (a + b) % p
                assert F.sub(a, b) == (a - b) % p
            if a:
                assert F.inv(a) * a % p == 1, (c0, a)
                assert F.pow(a, 3) == pow(a, 3, p) and F.pow(a, -1) == F.inv(a)


@pytest.mark.parametrize("p,k", [(2, 14), (2, 15), (7, 6)])
def test_table_storage_kind_follows_the_field_size(p, k):
    F = build_field(p, k)
    kind = array if F.order > COMPACT_LIMIT else list
    assert type(F.exp) is kind and type(F.log) is kind


@pytest.mark.parametrize("p,k", [(2, 14), (2, 15), (7, 6)])
def test_table_arithmetic_matches_polynomial_arithmetic(p, k):
    # F_{2^14} has list tables, F_{2^15} and F_{7^6} array tables
    F = build_field(p, k)
    n = F.units
    rng = random.Random(p * 100 + k)
    top = F.exp[n - 1]  # g^(n-1): its square reads exp[2n - 2]
    pairs = [(top, top), (top, 1), (1, 1), (F.generator, top), (0, top)]
    pairs += [(rng.randrange(1, F.order), rng.randrange(1, F.order))
              for _ in range(300)]
    for a, b in pairs:
        assert F.mul(a, b) == F._mul_novtable(a, b), (a, b)
        if b:
            inv_b = F._pow_novtable(b, n - 1)
            assert F.inv(b) == inv_b
            assert F.div(a, b) == F._mul_novtable(a, inv_b)
        e = rng.randrange(-2 * n, 2 * n)
        if a:
            assert F.pow(a, e) == F._pow_novtable(a, e % n), (a, e)
    assert F.mul(top, top) == F.exp[2 * n - 2] == F.exp[n - 2]
    assert F.inv(1) == F.exp[n] == 1


def test_power_solutions_is_a_list_on_array_tables():
    F = build_field(2, 15)
    assert isinstance(F.exp, array)
    sols = F.power_solutions(7, 1)  # 7 divides 2^15 - 1
    assert type(sols) is list and len(sols) == 7
    assert sols == [F.exp[i * (F.units // 7)] for i in range(7)]
    assert all(F.pow(y, 7) == 1 for y in sols)


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (2, 10)])
def test_field_axioms_random_sample(p, k):
    F = build_field(p, k)
    n = F.order
    for _ in range(400):
        a, b, c = (random.randrange(n) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in range(1, min(n, 200)):
        assert F.mul(a, F.inv(a)) == 1


def test_p2_addition_is_xor_bound_at_construction():
    rng = random.Random(218)
    try:
        set_modulus_override(2, 21, IMPRIMITIVE_F2_21)
        fields = [build_field(2, 18), build_field(2, 54), build_field(2, 21)]
        assert fields[2].generator != 2
    finally:
        clear_modulus_overrides()
    for F in fields:
        assert F.add is F.sub is operator.xor and F.neg is operator.pos
        top = F.order - 1
        pairs = [(0, 0), (0, top), (top, top), (1, top)] + [
            (rng.randrange(F.order), rng.randrange(F.order)) for _ in range(300)]
        for a, b in pairs:
            assert F.add(a, b) == F.sub(a, b) == a ^ b, (F, a, b)
            assert F.neg(a) == a


def _digitwise(F, a, b, op):
    """op on the base-p digits of a and b, each result reduced mod p."""
    p, out, w = F.p, 0, 1
    for _ in range(F.k):
        out += op(a % p, b % p) % p * w
        a, b, w = a // p, b // p, w * p
    return out


def test_odd_addition_is_digitwise_on_every_pair():
    try:
        set_modulus_override(3, 2, (1, 0, 1))  # X^2 + 1, imprimitive
        fields = [build_field(3, 2)]
        assert fields[0].generator != 3
    finally:
        clear_modulus_overrides()
    fields += [build_field(3, 2), build_field(5, 2)]
    for F in fields:
        assert "add" not in vars(F)  # the class's digit-wise methods
        for a in F.elements():
            assert F.neg(a) == _digitwise(F, 0, a, operator.sub), (F, a)
            for b in F.elements():
                assert F.add(a, b) == _digitwise(F, a, b, operator.add)
                assert F.sub(a, b) == _digitwise(F, a, b, operator.sub)


def _clmul_by_shift_and_add(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def test_clmul_and_square_match_shift_and_add():
    rng = random.Random(62)
    for k in range(2, 63):
        # coefficient k - 1 of ones * ones is a sum of k ones: 62 in one
        # byte at k = 62, the most the size cap allows
        ones = (1 << k) - 1
        pairs = [(ones, ones), (ones, 1), (1 << (k - 1), ones), (0, ones),
                 (ones, 0)]
        pairs += [(rng.randrange(1 << k), rng.randrange(1 << k))
                  for _ in range(40)]
        for a, b in pairs:
            assert _gf2_clmul(a, b) == _clmul_by_shift_and_add(a, b), (k, a, b)
            assert _gf2_square(a) == _gf2_clmul(a, a)


# x^21 + x^7 + 1: irreducible (a factor of x^49 - 1), its root X has order 49
IMPRIMITIVE_F2_21 = (1,) + (0,) * 6 + (1,) + (0,) * 13 + (1,)


def _assert_table_reduction_matches_bit_loop(F, rng):
    k, mod = F.k, F._mod_mask
    assert len(F._red_tables) == -(-(k - 1) // 8)
    ones = F.units
    # every product and square of reduced elements, up to degree 2k - 2
    samples = [0, ones, (1 << (2 * k - 1)) - 1, _gf2_clmul(ones, ones),
               _gf2_square(ones), 1 << (2 * k - 2)]
    for _ in range(200):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        samples += [_gf2_clmul(a, b), _gf2_square(a)]
    for r in samples:
        assert F._reduce(r) == _gf2_rem(r, mod, k), (k, r)


def test_table_reduction_matches_bit_loop():
    rng = random.Random(54)
    for k in range(21, 55):
        _assert_table_reduction_matches_bit_loop(build_field(2, k), rng)
    try:
        set_modulus_override(2, 21, IMPRIMITIVE_F2_21)
        F = build_field(2, 21)
        assert F.generator != 2 and not F.table_mode
        _assert_table_reduction_matches_bit_loop(F, rng)
        assert F.pow(2, 49) == 1 and F.pow(2, 7) != 1
    finally:
        clear_modulus_overrides()


@pytest.mark.parametrize("k", [21, 30, 42, 54])
def test_vector_inverse_matches_fermat(k):
    F = build_field(2, k)
    assert not F.table_mode
    rng = random.Random(k)
    sample = [1, 2, 1 << (k - 1)] + [rng.randrange(1, F.order)
                                     for _ in range(200)]
    for a in sample:
        inv = F.inv(a)
        assert inv == F.pow(a, F.units - 1)
        assert F.mul(a, inv) == 1


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4)])
def test_frobenius_is_field_automorphism(p, k):
    F = build_field(p, k)
    for _ in range(300):
        a, b = random.randrange(F.order), random.randrange(F.order)
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    x = random.randrange(F.order)
    assert F.frobenius(x, k) == x  # k-fold iterate is the identity


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_const_matches_repeated_addition(p):
    for F in (build_field(p, 1), build_field(p, 2)):
        for c in range(-2 * p, 2 * p):
            acc = 0
            for _ in range(abs(c)):
                acc = F.add(acc, 1)
            assert F.const(c) == (F.neg(acc) if c < 0 else acc), (F, c)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_power_solutions_match_brute_force(p, k):
    F = build_field(p, k)
    n = F.units
    for d in divisors(n) + [n + 1, 2 * n + 1, 3 * n - 1, 2 * n + 4]:
        for c in F.elements():
            brute = sorted(y for y in F.elements() if F.pow(y, d) == c)
            assert sorted(F.power_solutions(d, c)) == brute, (F, d, c)


def test_power_solutions_need_tables():
    with pytest.raises(FieldError):
        build_field(2, 30).power_solutions(3, 1)


def test_embed_prime_subfield():
    F2, F4 = build_field(2, 1), build_field(2, 2)
    tm = embed(F2, F4)
    assert tm(0) == 0 and tm(1) == 1


def test_embed_degree_obstruction():
    with pytest.raises(FieldError):
        embed(build_field(2, 2), build_field(2, 3))
    with pytest.raises(FieldError):
        embed(build_field(2, 2), build_field(3, 2))


@pytest.mark.parametrize("src_k,dst_k", [(2, 4), (3, 6), (6, 18), (2, 10)])
def test_embed_is_ring_homomorphism(src_k, dst_k):
    src, dst = build_field(2, src_k), build_field(2, dst_k)
    tm = embed(src, dst)
    for _ in range(300):
        a, b = random.randrange(src.order), random.randrange(src.order)
        assert tm(src.add(a, b)) == dst.add(tm(a), tm(b))
        assert tm(src.mul(a, b)) == dst.mul(tm(a), tm(b))
    # image lands in the right fixed field
    x = tm(random.randrange(1, src.order))
    assert dst.pow(x, src.order) == x


def _embedding_pairs():
    # (6, 18) in table mode, the next three into vector-mode fields, and
    # F_3 under the degree-1 override X (whose generator 2 is not its root
    # X = 0) into F_9
    for src_k, dst_k in ((6, 18), (10, 30), (14, 42), (18, 54)):
        yield build_field(2, src_k), build_field(2, dst_k)
    try:
        set_modulus_override(3, 1, (0, 1))
        yield build_field(3, 1), build_field(3, 2)
    finally:
        clear_modulus_overrides()


def test_embed_image_is_root_of_source_modulus():
    for src, dst in _embedding_pairs():
        tm = embed(src, dst)
        acc = 0
        for i, c in enumerate(src.modulus):
            if c:
                acc = dst.add(acc, dst.mul(dst.const(c),
                                           dst.pow(tm.gen_image, i)))
        assert acc == 0
        # smallest root: the roots are the m conjugates of the chosen one
        conj = tm.gen_image
        for _ in range(src.k - 1):
            conj = dst.frobenius(conj)
            assert conj > tm.gen_image
        assert dst.frobenius(conj) == tm.gen_image


def _smallest_root(src, dst):
    """Brute force over dst; p = 2, so every modulus coefficient is 0 or 1."""
    def value(y):
        acc = 0
        for i, c in enumerate(src.modulus):
            if c:
                acc = dst.add(acc, dst.pow(y, i))
        return acc
    return min(y for y in dst.elements() if value(y) == 0)


# x^4 + x^3 + x^2 + x + 1: irreducible, but its root X has order 5, not 15
IMPRIMITIVE_F16 = (1, 1, 1, 1, 1)


def test_embed_identity_and_norm_under_imprimitive_override():
    try:
        set_modulus_override(2, 4, IMPRIMITIVE_F16)
        F = build_field(2, 4)
        tm = embed(F, F)
        assert [tm(x) for x in F.elements()] == list(F.elements())
        assert [tm.coordinates(x) for x in F.elements()] == \
            [[x] for x in F.elements()]
    finally:
        clear_modulus_overrides()


def test_canonical_fields_have_generator_x():
    golden = json.loads(GOLDEN_MODULI.read_text())
    for key in golden:
        p, k = (int(v) for v in key.split(","))
        F = build_field(p, k)
        if k > 1:
            assert F.generator == p, key
            assert _is_primitive_root_x(F.modulus, p), key
    try:
        set_modulus_override(2, 4, IMPRIMITIVE_F16)
        assert build_field(2, 4).generator == 3  # X + 1: the first of order 15
    finally:
        clear_modulus_overrides()


@pytest.mark.parametrize("ratio", [2, 3])
def test_embed_out_of_imprimitive_override(ratio):
    try:
        set_modulus_override(2, 4, IMPRIMITIVE_F16)
        src, dst = build_field(2, 4), build_field(2, 4 * ratio)
        tm = embed(src, dst)
        assert tm.gen_image == _smallest_root(src, dst)
        for a in src.elements():
            for b in src.elements():
                assert tm(src.add(a, b)) == dst.add(tm(a), tm(b))
                assert tm(src.mul(a, b)) == dst.mul(tm(a), tm(b))
    finally:
        clear_modulus_overrides()


def _assert_embeddings_match_the_oracle(dst, degrees):
    for m in degrees:
        src = build_field(dst.p, m)
        assert embed(src, dst).gen_image == smallest_root_by_splitting(
            src, dst), (src, dst)


def _oracle_degrees():
    """(p, k): every m <= 20 dividing k <= 54 for p = 2, and every m
    dividing k with p^k <= 2^20 for p = 3, 5, 7, 11, 13; odd-p fields
    above 2^16 elements take up to half a second each to build, so slow."""
    for k in range(1, 55):
        yield pytest.param(2, k, id=f"2^{k}")
    for p in (3, 5, 7, 11, 13):
        k = 1
        while p**k <= 1 << 20:
            marks = [pytest.mark.slow] if p**k > 1 << 16 else []
            yield pytest.param(p, k, marks=marks, id=f"{p}^{k}")
            k += 1


@pytest.mark.parametrize("p,k", _oracle_degrees())
def test_embed_matches_the_splitting_oracle(p, k):
    # the oracle splits the source modulus in dst; embed finds the root in
    # the source through the minimal polynomial of a generator of the
    # subfield
    _assert_embeddings_match_the_oracle(
        build_field(p, k), [m for m in divisors(k) if m <= 20])


@pytest.mark.parametrize("m,k", [(21, 42), (27, 54)])
def test_embed_from_a_vector_mode_source_matches_the_oracle(m, k):
    # no tables in the source: X is written in the F_2-basis of powers of z
    src = build_field(2, m)
    assert not src.table_mode
    _assert_embeddings_match_the_oracle(build_field(2, k), [m])


def test_embed_under_imprimitive_overrides_matches_the_oracle():
    try:
        # F_3 under the modulus X, whose root is 0, into F_9
        set_modulus_override(3, 1, (0, 1))
        _assert_embeddings_match_the_oracle(build_field(3, 2), [1])
        # an imprimitive source into table-mode and vector-mode fields
        set_modulus_override(2, 4, IMPRIMITIVE_F16)
        for k in (4, 8, 12, 20, 24):
            _assert_embeddings_match_the_oracle(build_field(2, k), [4])
        # a vector-mode destination whose generator is not X: x^30 + x + 1
        # is irreducible, and the order of X divides (2^30 - 1) / 3
        set_modulus_override(2, 30, (1, 1) + (0,) * 28 + (1,))
        dst = build_field(2, 30)
        assert dst.generator == 19 and dst.pow(2, dst.units // 3) == 1
        _assert_embeddings_match_the_oracle(dst, [2, 3, 5, 6, 10, 15])
    finally:
        clear_modulus_overrides()


@pytest.mark.parametrize("m,k", [(16, 48), (18, 54)])
def test_embed_makes_few_vector_mode_products(m, k, monkeypatch):
    # the splitting is in the source's tables: about m^2/2 products in the
    # destination for mu, and one power each for w and the root (splitting
    # in the destination made 2,128 and 1,617)
    src = GF(2, m, build_field(2, m).modulus, primitive=True)
    dst = GF(2, k, build_field(2, k).modulus, primitive=True)
    calls, mul = [], GF._mul_novtable

    def counted(self, a, b):
        if self is dst:
            calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(GF, "_mul_novtable", counted)
    embed(src, dst)
    assert 0 < len(calls) <= 500


def _norm_trace(tm, x):
    """x x^Q and x + x^Q in F_Q = tm.src, for x in F_{Q^2} = tm.dst: each
    lies in the image of tm, so its coordinates past c_0 are 0."""
    E, conj = tm.dst, tm.dst.frobenius(x, tm.src.k)
    (n, *n_rest), (t, *t_rest) = map(tm.coordinates,
                                     (E.mul(x, conj), E.add(x, conj)))
    assert not any(n_rest + t_rest)
    return n, t


def test_pullback_round_trip():
    src, dst = build_field(2, 4), build_field(2, 8)
    tm = embed(src, dst)
    for x in src.elements():
        assert tm.coordinates(tm(x)) == [x, 0]
    # a generator of F_256 is theta itself, outside F_16
    assert tm.coordinates(dst.generator) == [0, 1]


# F_{2^21} is beyond the enumeration limit, which coordinates never needs
@pytest.mark.parametrize("src_pk,dst_pk", [((2, 2), (2, 6)), ((2, 18), (2, 54)),
                                           ((2, 21), (2, 42))])
def test_coordinates_round_trip(src_pk, dst_pk):
    src, dst = build_field(*src_pk), build_field(*dst_pk)
    tm = embed(src, dst)
    r = dst.k // src.k
    rng = random.Random(src.order + dst.k)
    for z in [0, 1, dst.generator] + [rng.randrange(dst.order)
                                      for _ in range(60)]:
        c = tm.coordinates(z)
        assert len(c) == r and all(0 <= ci < src.order for ci in c)
        acc, t = 0, 1
        for ci in c:
            acc = dst.add(acc, dst.mul(tm(ci), t))
            t = dst.mul(t, dst.generator)
        assert acc == z
    for _ in range(30):
        x = rng.randrange(src.order)
        assert tm.coordinates(tm(x)) == [x] + [0] * (r - 1)
    # dst.generator is theta itself, so its coordinates are (0, 1, 0, ...)
    assert tm.coordinates(dst.generator) == [0, 1] + [0] * (r - 2)


@pytest.mark.parametrize("src_pk,dst_pk", [((3, 2), (3, 6)), ((5, 1), (5, 3))])
def test_coordinates_refuses_odd_p(src_pk, dst_pk):
    tm = embed(build_field(*src_pk), build_field(*dst_pk))
    with pytest.raises(FieldError, match="characteristic 2 only"):
        tm.coordinates(1)


def test_norm_trace_vector_mode_f2_21_in_f2_42():
    sub, big = build_field(2, 21), build_field(2, 42)
    tm = embed(sub, big)
    rng = random.Random(2142)
    for _ in range(20):
        x, y = rng.randrange(1, big.order), rng.randrange(1, big.order)
        (nx, tx), (ny, ty) = _norm_trace(tm, x), _norm_trace(tm, y)
        conj = big.frobenius(x, sub.k)
        assert 0 < nx < sub.order and 0 <= tx < sub.order
        assert tm(nx) == big.mul(x, conj) and tm(tx) == big.add(x, conj)
        assert _norm_trace(tm, big.mul(x, y))[0] == sub.mul(nx, ny)
        assert _norm_trace(tm, big.add(x, y))[1] == sub.add(tx, ty)
        a = rng.randrange(sub.order)
        # a + a = 0 in characteristic 2
        assert _norm_trace(tm, tm(a)) == (sub.mul(a, a), 0)


def test_norm_trace_f4_over_f2():
    F2, F4 = build_field(2, 1), build_field(2, 2)
    # w * w^2 = w^3 = 1 and w + w^2 = 1
    assert _norm_trace(embed(F2, F4), F4.generator) == (1, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_norm_kernel_size(q):
    from maxcurves.numbertheory import is_prime_power
    p, k = is_prime_power(q)
    sub = build_field(p, k)
    big = build_field(p, 2 * k)
    ones = sum(1 for x in range(1, big.order) if big.pow(x, q + 1) == 1)
    assert ones == q + 1  # the norm maps exactly q+1 elements to 1
    tm = embed(sub, big)
    image = {tm(a) for a in sub.elements()}
    for _ in range(50):
        x = random.randrange(1, big.order)
        n = big.mul(x, big.frobenius(x, k))  # x x^q, in the image of F_q
        assert n in image
        assert big.pow(x, (big.order - 1) // (sub.order - 1)) == n


def test_root_of_unity_f1024():
    F = build_field(2, 10)
    e = F.root_of_unity(33)
    assert F.pow(e, 33) == 1 and F.pow(e, 11) != 1 and F.pow(e, 3) != 1
    with pytest.raises(FieldError):
        F.root_of_unity(9)  # 1023 = 3 * 11 * 31
    assert F.root_of_unity(1) == 1


def multiplicative_order(F, a):
    """The order of the unit a: |F*| divided down one prime at a time."""
    o = F.units
    for r, e in factorize(F.units):
        for _ in range(e):
            if F.pow(a, o // r) != 1:
                break
            o //= r
    return o


def test_root_of_unity_has_exact_order():
    F = build_field(2, 12)
    for m in (3, 5, 7, 9, 13, 35, 45):
        e = F.root_of_unity(m)
        assert multiplicative_order(F, e) == m


def test_is_dth_power():
    F = build_field(2, 10)  # 3 | q + 1 for q = 32
    assert F.is_dth_power(1, 12345)
    assert not F.is_dth_power(F.generator, 3)
    cubes = sum(1 for x in range(1, F.order) if F.is_dth_power(x, 3))
    assert cubes == (F.order - 1) // 3
    with pytest.raises(FieldError):
        F.is_dth_power(0, 3)


def _reference_prime_root(F, a, r):
    """The former r-th root solver: y0 = a^(r^-1 mod u) for |F*| = r^s u,
    corrected by a search of the Sylow-r subgroup."""
    n = F.units
    if n % r != 0:
        return F.pow(a, pow(r, -1, n))
    s, u = 0, n
    while u % r == 0:
        u //= r
        s += 1
    y0 = F.pow(a, pow(r, -1, u))
    w = F.div(F.pow(y0, r), a)
    if w == 1:
        return y0
    z = F.pow(F.generator, u)  # order r^s
    w_inv = F.inv(w)
    c = 1
    for _ in range(r**s):
        if F.pow(c, r) == w_inv:
            return F.mul(y0, c)
        c = F.mul(c, z)
    raise AssertionError("not an r-th power")


def _reference_nth_root(F, a, d):
    y = a
    for r, e in factorize(d):
        for _ in range(e):
            y = _reference_prime_root(F, y, r)
    return y


@pytest.mark.parametrize("p,k,ds", [(2, 12, (2, 3, 5, 9, 13, 15, 45)),
                                    (3, 6, (2, 3, 4, 7, 8, 13, 14))])
def test_nth_root_is_the_root_of_least_log(p, k, ds):
    F = build_field(p, k)
    rng = random.Random(p * 1000 + k)
    for _ in range(60):
        x = rng.randrange(1, F.order)
        for d in ds:
            a = F.pow(x, d)
            y = F.nth_root(a, d)
            assert F.pow(y, d) == a and y == F.power_solutions(d, a)[0]
            # every root is the reference's times a gcd(d, n)-th root of 1
            ref = _reference_nth_root(F, a, d)
            assert F.pow(ref, d) == a
            g = F.root_of_unity(gcd(d, F.units))
            roots = [F.mul(ref, F.pow(g, i)) for i in range(gcd(d, F.units))]
            assert y == min(roots, key=F.log.__getitem__)
    assert F.nth_root(0, 3) == 0


def test_nth_root_raises_for_non_powers_and_without_tables():
    F = build_field(2, 12)
    for a in range(1, F.order):
        if not F.is_dth_power(a, 9):
            with pytest.raises(FieldError):
                F.nth_root(a, 9)
    with pytest.raises(FieldError):
        F.nth_root(1, 0)
    big = build_field(2, 54)
    with pytest.raises(FieldError):
        big.nth_root(1, 3)  # a cube, but F_{2^54} has no log tables


def test_nth_root_inverts_powers():
    F = build_field(2, 12)
    for _ in range(100):
        x = random.randrange(1, F.order)
        for d in (3, 5, 13):
            y = F.nth_root(F.pow(x, d), d)
            assert F.pow(y, d) == F.pow(x, d)
    with pytest.raises(FieldError):
        F.nth_root(F.generator, 3)  # a generator is never a cube here


def test_modulus_override_and_config(tmp_path):
    try:
        # x^4 + x^3 + x^2 + x + 1 is irreducible but not primitive (order 5)
        set_modulus_override(2, 4, (1, 1, 1, 1, 1))
        F = build_field(2, 4)
        assert F.modulus == (1, 1, 1, 1, 1)
        assert multiplicative_order(F, F.generator) == 15
        assert multiplicative_order(F, 2) == 5  # the root X itself
        # reducible override is refused
        with pytest.raises(FieldError):
            set_modulus_override(2, 4, (1, 0, 0, 0, 1))  # (x+1)^4
    finally:
        clear_modulus_overrides()
    cfg = tmp_path / "fields.cfg"
    cfg.write_text("# override for F_16\n2 4 : 1 1 0 0 1\n")
    try:
        load_field_config(cfg)
        assert build_field(2, 4).modulus == (1, 1, 0, 0, 1)
    finally:
        clear_modulus_overrides()
    bad = tmp_path / "bad.cfg"
    bad.write_text("2 4 : 1 0 0 0 1\n")
    with pytest.raises(FieldError):
        load_field_config(bad)
