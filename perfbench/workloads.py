"""Workload plans, golden data and output oracles for the maxcurves benchmark.

A plan is the list of operations one pass performs.  The seed only orders
the operations and picks the imprimitive override moduli; it never changes
which checks or fields run, because run time swings by orders of magnitude
with (p, k).
"""

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_REPORTS = HERE / "golden" / "all.jsonl"
GOLDEN_MODULI = HERE / "golden" / "moduli.json"

# the only checks that enter vector-mode fields (F_{2^30} .. F_{2^54})
VECTOR_CHECKS = ("triangolo-census", "eigen-fixed-points")
# every other registered check: fields of at most 2^20 elements, or none
TABLE_CHECKS = (
    "hermitian-count", "gk-congruence", "gs-congruence", "alpha-semiregular",
    "phi-homomorphism", "primovalore", "lemmino", "quattordici",
    "secondovalore-catalog", "delta-ledger", "rh-quotient-genus",
    "linpoly-decompose", "prop1sylow-nondiv", "sylow-census",
)
WORKLOADS = ("vector", "table", "fields")

# fields workload: canonical p = 2 fields, the odd fields the documented
# check parameters reach (F_{q^2}, F_{q^6}), subfield pairs with a small
# source, and imprimitive overrides embedded into their 2x and 3x extensions
P2_DEGREES = range(1, 55)
ODD_FIELDS = tuple((q, e) for q in (3, 5, 7) for e in (2, 6))
MAX_EMBED_SOURCE = 16
OVERRIDE_DEGREES = (4, 6, 8, 10, 12)


def plan(workload, seed):
    """The operations of one pass, as tuples whose first item is the kind."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "vector":
        names = list(VECTOR_CHECKS)
        rng.shuffle(names)
        return [("check", n) for n in names]
    if workload == "table":
        names = list(TABLE_CHECKS)
        rng.shuffle(names)
        return [("check", n) for n in names]
    if workload != "fields":
        raise ValueError(f"unknown workload {workload!r}")
    builds = [("build", 2, k) for k in P2_DEGREES]
    builds += [("build", q, e) for q, e in ODD_FIELDS]
    rng.shuffle(builds)
    embeds = [("embed", m, k) for m in range(1, MAX_EMBED_SOURCE + 1)
              for k in range(2 * m, P2_DEGREES[-1] + 1, m)]
    rng.shuffle(embeds)
    overrides = []
    for m in OVERRIDE_DEGREES:
        coeffs = imprimitive_irreducible(m, rng)
        overrides.append(("override", m, coeffs))
        overrides += [("override-embed", m, r * m) for r in (2, 3)]
    return builds + embeds + overrides


# ---------------------------------------------------------------------------
# F_2[X] arithmetic of the benchmark's own, independent of maxcurves.gf.
# A polynomial is an int bitmask, bit i the coefficient of X^i.


def gf2_mulmod(a, b, mod, k):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> k & 1:
            a ^= mod
    return r


def gf2_powmod(a, e, mod, k):
    r = 1
    while e:
        if e & 1:
            r = gf2_mulmod(r, a, mod, k)
        a = gf2_mulmod(a, a, mod, k)
        e >>= 1
    return r


def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _gf2_gcd(a, b):
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def gf2_is_irreducible(mod):
    """Rabin's test for a bitmask polynomial of degree k >= 1."""
    k = mod.bit_length() - 1
    x = 2 if k > 1 else mod & 1

    def frob(times):
        y = x
        for _ in range(times):
            y = gf2_mulmod(y, y, mod, k)
        return y

    if frob(k) != x:
        return False
    return all(_gf2_gcd(mod, frob(k // r) ^ x) == 1 for r in prime_factors(k))


def imprimitive_irreducible(m, rng):
    """A seeded irreducible of degree m over F_2 whose root X is not primitive."""
    units = (1 << m) - 1
    cands = list(range(1, 1 << m, 2))  # constant term 1
    rng.shuffle(cands)
    for low in cands:
        mod = (1 << m) | low
        if not gf2_is_irreducible(mod):
            continue
        if any(gf2_powmod(2, units // r, mod, m) == 1
               for r in prime_factors(units)):
            return tuple((mod >> i) & 1 for i in range(m + 1))
    raise ValueError(f"no imprimitive irreducible of degree {m}")


def coeff_mask(coeffs):
    return sum(int(c) << i for i, c in enumerate(coeffs))


def embedding_oracle(src_modulus, dst_modulus, image):
    """True iff `image` is the canonical image of X under F_2[X]/(src) ->
    F_2[X]/(dst): a root of the source modulus in the destination that is
    the smallest of its m Frobenius conjugates (canonical element order)."""
    k = len(dst_modulus) - 1
    m = len(src_modulus) - 1
    mod = coeff_mask(dst_modulus)
    if not 0 <= image < 1 << k:
        return False
    acc = 0
    for c in reversed(src_modulus):
        acc = gf2_mulmod(acc, image, mod, k) ^ c
    if acc:
        return False
    x = image
    for _ in range(m - 1):
        x = gf2_mulmod(x, x, mod, k)
        if x < image:
            return False
    return True


# ---------------------------------------------------------------------------
# golden data recorded from the unmodified package


def load_golden_reports(path=GOLDEN_REPORTS):
    """Check name -> its `maxcurves --all` JSON line (timing off)."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line:
                out[json.loads(line)["name"]] = line
    return out


def load_golden_moduli(path=GOLDEN_MODULI):
    """(p, k) -> canonical modulus coefficients, low degree first."""
    with open(path) as fh:
        raw = json.load(fh)
    return {tuple(int(t) for t in key.split(",")): tuple(v)
            for key, v in raw.items()}


def report_matches(name, line, golden):
    """True iff the report line equals the recorded line for `name`."""
    return golden.get(name) == line
