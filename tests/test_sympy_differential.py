"""Differential tests against sympy; skipped when sympy is not installed."""

import json
import random
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import (gf_factor, gf_gcdex,  # noqa: E402
                                     gf_irreducible_p, gf_mul, gf_pow_mod,
                                     gf_rem)

from maxcurves.gf import (_canonical_modulus, _is_irreducible,  # noqa: E402
                          build_field)
from maxcurves.numbertheory import factorize, prime_divisors  # noqa: E402
from maxcurves.polyroots import roots  # noqa: E402


GOLDEN_MODULI = (Path(__file__).resolve().parents[1] / "perfbench" / "golden"
                 / "moduli.json")


def _high_first(low_first):
    return [int(c) for c in reversed(low_first)]


def _mask_to_list(m):
    return [(m >> i) & 1 for i in reversed(range(m.bit_length()))]


def _list_to_mask(cs):
    return sum(c << i for i, c in enumerate(reversed(cs)))


def _sympy_primitive(f, p):
    """X has order p^k - 1 modulo f."""
    n = p ** (len(f) - 1) - 1
    return all(gf_pow_mod([1, 0], n // r, f, p, ZZ) != [1]
               for r in prime_divisors(n))


@pytest.mark.parametrize("p,k", [(2, k) for k in range(1, 9)]
                         + [(3, k) for k in range(1, 5)]
                         + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]
                         + [(3, 6), (5, 4), (11, 2), (13, 2)])
def test_canonical_modulus_is_first_primitive_irreducible(p, k):
    # candidates in canonical order: (c_0, ..., c_{k-1}) low degree first,
    # compared lexicographically, so c_0 is the most significant digit
    for t in range(p**k):
        digits = [(t // p**(k - 1 - i)) % p for i in range(k)]
        f = [1] + digits[::-1]  # high degree first
        # a primitive polynomial has a nonzero constant term (X itself is
        # irreducible, but its root 0 generates nothing)
        if f[-1] and gf_irreducible_p(f, p, ZZ) and _sympy_primitive(f, p):
            break
    assert _high_first(_canonical_modulus(p, k)) == f


def _golden_p2_moduli():
    golden = json.loads(GOLDEN_MODULI.read_text())
    return {int(key.split(",")[1]): tuple(m) for key, m in golden.items()
            if key.startswith("2,")}


def test_golden_p2_moduli_are_irreducible_for_sympy():
    moduli = _golden_p2_moduli()
    assert max(moduli) == 54
    for k, modulus in moduli.items():
        assert gf_irreducible_p(_high_first(modulus), 2, ZZ), k


def test_is_irreducible_matches_gf_irreducible_p_at_golden_degrees():
    # per degree: the golden modulus, its reciprocal (also irreducible) and
    # seeded monic candidates with constant term 1
    rng = random.Random(13)
    for k, modulus in sorted(_golden_p2_moduli().items()):
        cands = [modulus, modulus[::-1]]
        cands += [(1,) + tuple(rng.randrange(2) for _ in range(k - 1)) + (1,)
                  for _ in range(8)]
        for f in cands:
            assert _is_irreducible(f, 2) == gf_irreducible_p(
                _high_first(f), 2, ZZ), f


def test_factorize_matches_factorint():
    rng = random.Random(62)
    samples = [rng.randrange(2, 1 << 62) for _ in range(60)]
    # products of two ~31-bit factors: the slowest case for Pollard rho
    samples += [rng.randrange(1 << 30, 1 << 31)
                * rng.randrange(1 << 30, 1 << 31) for _ in range(5)]
    samples += [2**61 - 1, 3**39, (2**31 - 1) ** 2]
    for n in samples:
        assert dict(factorize(n)) == sympy.factorint(n), n


@pytest.mark.parametrize("k", [21, 54])
def test_vector_inverse_matches_gf_gcdex(k):
    F = build_field(2, k)
    mod = _high_first(F.modulus)
    rng = random.Random(k)
    sample = [1, 2, 1 << (k - 1)] + [rng.randrange(1, F.order)
                                     for _ in range(100)]
    for a in sample:
        s, _, h = gf_gcdex(_mask_to_list(a), mod, 2, ZZ)
        assert h == [1]
        assert F.inv(a) == _list_to_mask(s)


@pytest.mark.parametrize("k", [21, 37, 54])
def test_vector_mul_and_pow_match_gf_mul_and_gf_rem(k):
    F = build_field(2, k)
    mod = _high_first(F.modulus)
    rng = random.Random(k)
    top = 1 << (k - 1)
    pairs = [(F.units, F.units), (top, top), (1, top)]
    pairs += [(rng.randrange(1, F.order), rng.randrange(1, F.order))
              for _ in range(40)]
    for a, b in pairs:
        prod = gf_mul(_mask_to_list(a), _mask_to_list(b), 2, ZZ)
        assert F.mul(a, b) == _list_to_mask(gf_rem(prod, mod, 2, ZZ))
    for a, _ in pairs[:20]:
        e = rng.randrange(F.order)
        assert F.pow(a, e) == _list_to_mask(
            gf_pow_mod(_mask_to_list(a), e % F.units, mod, 2, ZZ))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_prime_field_roots_match_gf_factor(p):
    F = build_field(p, 1)
    rng = random.Random(p)
    for _ in range(60):
        deg = rng.randint(1, 9)
        f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        _, factors = gf_factor(_high_first(f), p, ZZ)
        expected = sorted((-g[1]) % p for g, _ in factors if len(g) == 2)
        assert roots(F, f) == expected, f
