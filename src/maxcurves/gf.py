"""Finite fields F_{p^k} with deterministic construction and subfield embeddings.

Elements are plain Python ints in [0, p^k): the value Sum c_i * p^i encodes
the coefficient vector (c_0, ..., c_{k-1}) of the residue class modulo the
field's defining polynomial, low degree first.  This integer value is also
the canonical element ordering used wherever a "smallest" element or root
is required.

The defining modulus is the lexicographically smallest monic primitive
irreducible polynomial of degree k over F_p, comparing coefficient vectors
low degree first.  The search skips candidates that fail one of two
necessary conditions before the full irreducibility (Ben-Or) and
primitivity tests: the constant term c_0 must make (-1)^k c_0 a primitive
root mod p, and the candidate must have no root in F_p.  Every primitive
irreducible meets both, so the modulus is the one the unpruned scan
finds.  Construction is deterministic and cached: build_field(p, k) always
returns the same object with the same modulus.  A configuration file may
override the modulus for a given (p, k); non-irreducible overrides are
refused.  For odd p the tests run on `polyroots` polynomials over
F_p = build_field(p, 1), whose own modulus is X + c_0 for the first c_0
with -c_0 a primitive root, so building F_p needs no F_p.

Two representations are used internally, each with one arithmetic:
  * log/antilog tables when p^k <= TABLE_LIMIT (2^20), for any p -
    supports fast multiplication, d-th roots and full enumeration.  The
    antilog table of p = 2 is filled in lanes of one integer, each lane a
    run of powers of the generator stepped in parallel (`_gf2_powers`),
    and its log table is one pass over it with no bytecode loop.  The
    tables of odd p with generator X are filled by a shift register
    (multiply by X, fold the top digit back through the modulus), and
    otherwise (an imprimitive override, or a degree-1 field) by
    products.  Odd p is table-only: a field or override with p odd and
    p^k above the limit is refused;
  * carry-less coefficient masks in characteristic 2 above the limit -
    supports arithmetic in fields like F_{2^54} where enumeration is
    never needed.  A product is one integer product of the operands with
    each bit spread into its own byte, read back by byte parity
    (`_gf2_clmul`); a square is the bit spread alone (`_gf2_square`).
    Either is reduced a byte at a time through tables built once per
    field (`_gf2_reduction_tables`); the inverse is the extended
    Euclidean algorithm.
In characteristic 2, + and - are XOR, bound as the field's `add` and
`sub` when it is constructed (`neg` is the identity); F_p binds integer
arithmetic mod p the same way; other odd-p fields add digit-wise mod p.

The embedding of src = F_{p^m} into dst maps X to the smallest root of
src's modulus in dst, found in src, which has tables whenever m <= 20
(`_smallest_root_in` proves each step): (1) w = a power of dst.generator
generates the degree-m subfield K of dst; (2) its minimal polynomial mu,
the product of Y - w^(p^i) for i < m, has F_p coefficients; (3) a root z
of mu in src (`polyroots.one_root`) gives an isomorphism K -> src,
w -> z; (4) X = z^e in src, so w^e is a root in dst; (5) the image is
the least of its m conjugates.
"""

import operator
import sys
from array import array
from collections import deque
from functools import cached_property
from itertools import repeat
from math import gcd

from . import polyroots
from .numbertheory import is_prime, prime_divisors

TABLE_LIMIT = 1 << 20
# Tables of a field with more elements than this are array('I'), below it
# lists: a random-pair exp[log a + log b] lookup is faster from lists up to
# 2^14 elements and from arrays (fewer cache misses) from 2^15 on.
COMPACT_LIMIT = 1 << 14
SIZE_CAP = 1 << 62


class FieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomials over the prime field F_p
#
# For p = 2 a polynomial is an int bitmask (bit i = coefficient of X^i).
# For odd p it is a `polyroots` polynomial over F_p: a tuple of digits in
# [0, p), low degree first, with no trailing zeros.


# A carry-less product as one integer product: spread each bit of an operand
# into its own byte, multiply the spread operands, and read each byte's
# parity back.  Coefficient i of the product is a sum of at most
# min(bit lengths) <= 62 ones (the size cap), below 256, so no byte carries
# into the next.  The "0b" prefix of bin() spreads to two zero bytes.
_SPREAD = bytes.maketrans(b"01b", b"\x00\x01\x00")
_PARITY = bytes(0x30 | (v & 1) for v in range(256))  # b"0" or b"1"


def _gf2_clmul(a, b):
    sa = bin(a).encode().translate(_SPREAD)
    sb = bin(b).encode().translate(_SPREAD)
    prod = int.from_bytes(sa, "big") * int.from_bytes(sb, "big")
    return int(prod.to_bytes(len(sa) + len(sb), "big").translate(_PARITY), 2)


def _gf2_square(a):
    # the square of a carry-less polynomial spreads its bits: bit i -> bit 2i
    return int(format(a, "b"), 4)


def _gf2_rem(r, mod, k):
    # r mod `mod` (degree k), clearing the top degree one step at a time
    while True:
        d = r.bit_length() - 1
        if d < k:
            return r
        r ^= mod << (d - k)


def _gf2_powmod_x(e, mod, k):
    # X^e mod `mod`, left to right over the bits of e: square, then
    # multiply by X (a shift) on a 1 bit
    r = 1
    for bit in bin(e)[2:]:
        r = _gf2_rem(_gf2_square(r), mod, k)
        if bit == "1":
            r <<= 1
            if r >> k:
                r ^= mod
    return r


def _gf2_reduction_tables(mod, k):
    """Byte tables T_j[v] = v X^(k+8j) mod `mod` for j < ceil((k-1)/8).

    A product of two reduced elements has degree at most 2k - 2, so its
    part h above X^k has at most k - 1 bits, and it reduces to
    (r mod X^k) + T_0[byte 0 of h] + T_1[byte 1 of h] + ...  Each table is
    filled by doubling: for each bit i, t[v + 2^i] = t[v] + X^(k+8j+i) mod
    `mod` for v < 2^i.
    """
    tables = []
    x = mod ^ (1 << k)  # X^k mod `mod`
    for _ in range(-(-(k - 1) // 8)):
        t = [0]
        for _ in range(8):
            t += [v ^ x for v in t]
            x <<= 1
            if x >> k:
                x ^= mod
        tables.append(array("Q", t))
    return tables


def _gf2_invmod(a, mod):
    """The inverse of a nonzero `a` modulo the irreducible `mod`, by the
    extended Euclidean algorithm on F_2[X] bitmasks.

    Invariant: u = g * a and v = h * a modulo `mod`; each step cancels the
    leading term of the higher-degree remainder, and deg g stays below
    deg `mod`.
    """
    u, v, g, h = a, mod, 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g, h = v, u, h, g
            j = -j
        u ^= v << j
        g ^= h << j
    return g


def _gf2_gcd(a, b):
    while b:
        a, b = b, _gf2_rem(a, b, b.bit_length() - 1)
    return a


def _gf2_unit_tags(basis, n):
    """For a basis of the n-bit masks over F_2: the tag of each unit bit
    2^b, b < n, whose bit i says if basis[i] is in the sum that gives 2^b."""
    # Gauss-Jordan on (image, tag) bitmask rows: no other row keeps the
    # pivot bit of a row, so at the end each image is its pivot alone
    rows = {}
    for idx, v in enumerate(basis):
        tag = 1 << idx
        for b, (w, wt) in rows.items():
            if v >> b & 1:
                v, tag = v ^ w, tag ^ wt
        piv = v.bit_length() - 1
        for b, (w, wt) in rows.items():
            if w >> piv & 1:
                rows[b] = (w ^ v, wt ^ tag)
        rows[piv] = (v, tag)
    return [rows[b][1] for b in range(n)]


def _lanes_to_int(lanes):
    # one array('I') item per lane, in the native layout, so that
    # int.to_bytes(len(lanes) * itemsize, sys.byteorder) gives the array back
    return int.from_bytes(lanes.tobytes(), sys.byteorder)


def _gf2_powers(exp, g, mod, k):
    """exp[i] = g^i mod `mod` (degree k <= 20) for i < len(exp) = 2^k, g a
    nonzero element.

    Lane j of one integer, an array('I') item wide, starts at g^(j S) for
    S = 2^(k // 2), and each of the S steps writes every lane to
    exp[s::S] in one slice assignment, then multiplies every lane by g.
    Multiplying the lanes by an element c is Horner's rule over the bits
    of c: multiply by X (all lanes shift left by one, and the modulus folds
    into the lanes whose bit k is set), adding the lanes back on a 1 bit.
    A lane holds at most k + 1 <= 21 bits, so none spills into the next.
    The starts come from one lane, [1], by doubling: the new lanes are the
    old ones times g^(m S), and g^S is g squared k // 2 times.
    """
    size = array("I").itemsize
    stride = 1 << k // 2
    count = len(exp) // stride
    ones = _lanes_to_int(array("I", [1]) * count)

    def times(v, c):
        w = v  # the leading bit of c
        for bit in bin(c)[3:]:
            w <<= 1
            w ^= (w >> k & ones) * mod
            if bit == "1":
                w ^= v
        return w

    starts = array("I", [1])
    c = g
    for _ in range(k // 2):
        c = _gf2_rem(_gf2_square(c), mod, k)
    while len(starts) < count:  # c = g^(m S) for m = len(starts)
        v = times(_lanes_to_int(starts), c)
        starts += array("I", v.to_bytes(len(starts) * size, sys.byteorder))
        c = _gf2_rem(_gf2_square(c), mod, k)
    v = _lanes_to_int(starts)
    for s in range(stride):
        exp[s::stride] = array("I", v.to_bytes(count * size, sys.byteorder))
        v = times(v, g)


def _is_irreducible(coeffs, p):
    """Ben-Or's test.  coeffs: monic polynomial over F_p, digit tuple
    low-first, degree k >= 1.  For odd p the polynomials are `polyroots`
    ones over F_p.

    X^(p^i) - X is the product of the monic irreducibles of degree dividing
    i, and a reducible f of degree k has an irreducible factor of degree at
    most k/2, so f is irreducible iff gcd(X^(p^i) - X, f) = 1 for every
    i <= k/2.  The test stops at the first i that fails.
    """
    k = len(coeffs) - 1
    if k == 1:
        return True
    if p == 2:
        mod = sum(c << i for i, c in enumerate(coeffs))
        frob = 2  # X
        for _ in range(k // 2):
            frob = _gf2_rem(_gf2_square(frob), mod, k)
            if _gf2_gcd(frob ^ 2, mod) != 1:
                return False
        return True
    fp = build_field(p, 1)
    x = frob = (0, 1)
    for _ in range(k // 2):
        frob = polyroots.pow_mod(fp, frob, p, coeffs)
        if len(polyroots.gcd_poly(fp, polyroots.sub(fp, frob, x), coeffs)) > 1:
            return False  # f has a factor of degree dividing i
    return True


def _is_primitive_root_x(coeffs, p):
    """True if X generates the multiplicative group modulo `coeffs`.  For
    odd p the powers of X are `polyroots` ones over F_p."""
    k = len(coeffs) - 1
    n = p**k - 1
    if p == 2:
        mod = sum(c << i for i, c in enumerate(coeffs))
        for r in prime_divisors(n):
            if _gf2_powmod_x(n // r, mod, k) == 1:
                return False
        return True
    fp = build_field(p, 1)
    for r in prime_divisors(n):
        if polyroots.pow_mod(fp, (0, 1), n // r, coeffs) == (1,):
            return False  # the order of X divides n / r
    return True


def _canonical_modulus(p, k):
    """Lexicographically smallest monic primitive irreducible of degree k.

    Coefficient vectors (c_0, ..., c_{k-1}) are compared low degree first,
    so candidates are enumerated with c_0 as the most significant digit.
    Two necessary conditions skip candidates before the irreducibility
    (Ben-Or, `_is_irreducible`) and primitivity tests; every candidate left
    still goes through both:
      * the norm (-1)^k c_0 of the root X generates F_p^* (Lidl-
        Niederreiter, Thm 3.18), so only those c_0 are tried, in order;
      * a candidate of degree k > 1 has no root in F_p (for p = 2: it has
        an odd number of nonzero terms, else 1 is a root).
    Both hold for every primitive irreducible, so the result is the same
    as the unpruned scan's.  At k = 1 the norm condition is primitivity
    itself, so the first c_0 that meets it is the modulus, and building
    F_p needs no F_p.
    """
    sign = (-1) ** k
    primes = prime_divisors(p - 1)
    for c0 in range(1, p):
        if any(pow(sign * c0, (p - 1) // r, p) == 1 for r in primes):
            continue
        if k == 1:
            return (c0, 1)
        # t encodes (c_1, ..., c_{k-1}) with c_1 as the most significant
        # digit, so increasing t keeps the canonical lex order
        for t in range(p ** (k - 1)):
            digits = []
            v = t
            for _ in range(k - 1):
                digits.append(v % p)
                v //= p
            coeffs = (c0,) + tuple(reversed(digits)) + (1,)
            if _has_root_in_prime_field(coeffs, p):
                continue
            if (_is_irreducible(coeffs, p)
                    and _is_primitive_root_x(coeffs, p)):
                return coeffs
    raise FieldError("no primitive irreducible found (unreachable)")


def _has_root_in_prime_field(coeffs, p):
    # Horner at every nonzero a (the constant term of a candidate is nonzero)
    for a in range(1, p):
        v = 0
        for c in reversed(coeffs):
            v = (v * a + c) % p
        if v == 0:
            return True
    return False


def _add_row(p, row, scale):
    """Entry y, a base-p number of len(row) digits: the digit-wise sum
    (mod p) of y and `row` (low digit first), times `scale`."""
    table = [0]
    w = scale
    for r in row:
        table = [v + (d + r) % p * w for d in range(p) for v in table]
        w *= p
    return table


def _require_table_mode(p, k):
    # odd p has no vector arithmetic: refuse before any modulus search
    if p != 2 and p**k > TABLE_LIMIT:
        raise FieldError(f"{p}^{k} > 2^20: odd p is table-only")


# ---------------------------------------------------------------------------


class GF:
    """The finite field F_{p^k}.  Elements are ints in [0, p^k)."""

    def __init__(self, p, k, modulus, primitive=False):
        """`primitive`: the caller has proved X a generator modulo `modulus`
        (the canonical search does), so it is not tested again."""
        _require_table_mode(p, k)
        self.p = p
        self.k = k
        self.order = p**k
        self.units = self.order - 1
        self.modulus = modulus  # digit tuple, low degree first, length k+1
        self.table_mode = self.order <= TABLE_LIMIT
        self._mod_mask = sum(c << i for i, c in enumerate(modulus)) if p == 2 else None
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = operator.pos  # the identity on ints
        elif k == 1:  # F_p: integers mod p
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
        # vector mode (p = 2) reduces products through byte tables
        self._red_tables = (None if self.table_mode
                            else _gf2_reduction_tables(self._mod_mask, k))
        self._pow_cache = [p**i for i in range(k)]  # digit place values
        self.exp = None
        self.log = None
        self.generator = self._find_generator(primitive)
        if self.table_mode:
            self._build_tables()
        self._embed_cache = {}  # destination field -> TowerMap
        self._roots_cache = {}  # eigenvalues, kept by `action._eigenvalues`

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    # -- construction internals ------------------------------------------

    def _find_generator(self, primitive):
        # X itself when it generates (the canonical search has proved it
        # does); otherwise the first generator in canonical order
        x = -self.modulus[0] % self.p if self.k == 1 else self.p  # X
        n = self.units
        primes = prime_divisors(n)

        def generates(a):
            return a != 0 and all(self._pow_novtable(a, n // r) != 1
                                  for r in primes)

        if primitive or generates(x):
            return x
        return next(filter(generates, range(1, self.order)))

    @cached_property
    def _fp(self):
        """F_p, whose polynomials give the odd-p products of
        `_mul_novtable` when k > 1; resolved once per field."""
        return build_field(self.p, 1)

    def _build_tables(self):
        n = self.units
        # above COMPACT_LIMIT, 4-byte entries allocated at full size (never a
        # list converted)
        zero = array("I", [0]) if self.order > COMPACT_LIMIT else [0]
        g = self.generator
        p, k = self.p, self.k
        x = 1
        # the p = 2 lane fill writes n + 1 entries: allocated once at that size
        exp = zero * (n + (p == 2))
        log = zero * self.order
        if p == 2:
            _gf2_powers(exp, g, self._mod_mask, k)
            x = exp.pop()  # g^n, for the check below
            # log[exp[i]] = i in C: setitem mapped over the powers and their
            # indices, drained by a zero-length deque
            deque(map(operator.setitem, repeat(log), exp, range(n)), 0)
        elif g == p:
            # x -> x * X as a shift register: with x = t p^(k-1) + low, the
            # digits of low move up one place and the top digit t folds back
            # as the row -t * modulus.  The digit-wise sum (mod p) with that
            # row is read from two tables per t: result digits 0..a from the
            # low a digits of low, digits a+1..k-1 from the rest.
            a = (k - 1) // 2
            pa, top = p**a, p ** (k - 1)
            lo, hi = [], []
            for t in range(p):
                row = [(-t * c) % p for c in self.modulus[:k]]
                lo.append([row[0] + v for v in _add_row(p, row[1:a + 1], p)])
                hi.append(_add_row(p, row[a + 1:], p * pa))
            for i in range(n):
                exp[i] = x
                log[x] = i
                t, low = divmod(x, top)
                b, c = divmod(low, pa)
                x = lo[t][c] + hi[t][b]
        else:
            # odd p, a generator other than X: an imprimitive override, or
            # k = 1
            for i in range(n):
                exp[i] = x
                log[x] = i
                x = self._mul_novtable(x, g)
        if x != 1:
            raise FieldError("generator order mismatch while building tables")
        # doubled antilog: exp[i] = g^(i mod n) for i < 2n, so `mul` and `inv`
        # index it without reducing mod n
        exp *= 2
        self.exp = exp
        self.log = log

    # -- digit conversions -----------------------------------------------

    def digits(self, e):
        return [e // w % self.p for w in self._pow_cache]

    def from_digits(self, ds):
        # any integers: each is reduced mod p here
        v = 0
        for c, w in zip(ds, self._pow_cache):
            v += (c % self.p) * w
        return v

    # -- arithmetic --------------------------------------------------------

    def const(self, c):
        """The prime-field constant c (any integer), as an element."""
        return c % self.p

    # odd p, digit-wise; characteristic 2 binds operator.xor and
    # operator.pos over these three in __init__
    def add(self, a, b):
        return self.from_digits([x + y for x, y in
                                 zip(self.digits(a), self.digits(b))])

    def sub(self, a, b):
        return self.from_digits([x - y for x, y in
                                 zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.from_digits([-x for x in self.digits(a)])

    def _reduce(self, r):
        """r mod the modulus, for p = 2 and r of degree at most 2k - 2."""
        tables = self._red_tables
        if tables is None:
            return _gf2_rem(r, self._mod_mask, self.k)
        h = r >> self.k
        r &= self.units  # the low k bits
        for t in tables:
            r ^= t[h & 255]
            h >>= 8
        return r

    def _mul_novtable(self, a, b):
        if a == 1 or b == 1:
            # normalised points and matrices: nearly half the vector-mode
            # products of the fixed-point census have a factor 1
            return b if a == 1 else a
        if self.p == 2:
            return self._reduce(_gf2_clmul(a, b))
        if self.k == 1:
            return a * b % self.p
        # odd p: polynomials over F_p, which fill an imprimitive override's
        # tables
        fp = self._fp
        prod = polyroots.mul(fp, self.digits(a), self.digits(b))
        return self.from_digits(polyroots.mod(fp, prod, self.modulus))

    def _pow_novtable(self, a, e):
        # left to right over the bits of e: no square after the last one
        if e == 0:
            return 1
        two = self.p == 2
        r = a
        for bit in bin(e)[3:]:
            r = self._reduce(_gf2_square(r)) if two else self._mul_novtable(r, r)
            if bit == "1":
                r = self._mul_novtable(r, a)
        return r

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self.table_mode:
            log = self.log
            return self.exp[log[a] + log[b]]
        return self._mul_novtable(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.table_mode:
            return self.exp[self.units - self.log[a]]
        return _gf2_invmod(a, self._mod_mask)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("0 to a negative power")
        e %= self.units
        if self.table_mode:
            return self.exp[self.log[a] * e % self.units]
        return self._pow_novtable(a, e)

    def frobenius(self, a, times=1):
        """a^(p^times)."""
        if a == 0:
            return 0
        if self._red_tables is not None:
            # p = 2 vector mode: `times` squarings, each a bit spread and a
            # byte reduction with no product
            for _ in range(times % self.k):
                a = self._reduce(_gf2_square(a))
            return a
        return self.pow(a, pow(self.p, times, self.units))

    def elements(self):
        """Iterate all elements in canonical order.  Requires table mode."""
        if not self.table_mode:
            raise FieldError(f"{self} is beyond the enumeration limit")
        return range(self.order)

    # -- multiplicative structure -----------------------------------------

    def root_of_unity(self, m):
        """A primitive m-th root of unity (generator^((p^k-1)/m)); m must divide p^k - 1."""
        if m < 1:
            raise FieldError("m must be positive")
        if self.units % m != 0:
            raise FieldError(f"{m} does not divide {self.units}")
        return self.pow(self.generator, self.units // m)

    def is_dth_power(self, e, d):
        """True iff nonzero e is a d-th power, via e^((p^k-1)/gcd(d, p^k-1)) = 1."""
        if e == 0:
            raise FieldError("is_dth_power is undefined at 0")
        g = gcd(d, self.units)
        return self.pow(e, self.units // g) == 1

    def nth_root(self, a, d):
        """The y with y^d = a of least log: `power_solutions(d, a)[0]`.
        Requires table mode; raises if a is not a d-th power."""
        if d < 1:
            raise FieldError("d must be positive")
        sols = self.power_solutions(d, a)
        if not sols:
            raise FieldError("element is not a d-th power")
        return sols[0]

    def power_solutions(self, d, c):
        """All y with y^d = c, in increasing order of log y.  Requires table mode."""
        if not self.table_mode:
            raise FieldError(f"{self} has no log tables")
        if c == 0:
            return [0]
        n = self.units
        g = gcd(d, n)
        lc = self.log[c]
        if lc % g:
            return []
        step = n // g
        # log y = t0 + i * step for i < g, with t0 < step
        t0 = (lc // g) * pow(d // g, -1, step) % step
        return list(self.exp[t0:n:step])


class TowerMap:
    """The canonical embedding of one field into an extension.

    Determined by the image of the root X of the source modulus: the
    smallest root (in canonical element order) of that modulus inside the
    destination.

    The destination is a vector space over the source with basis
    1, theta, ..., theta^(r-1), for theta = dst.generator and r the
    degree [dst : src] (theta generates dst* and hence dst over any
    subfield).  `coordinates` reads an element in that basis.
    """

    def __init__(self, src, dst, gen_image):
        self.src = src
        self.dst = dst
        self.gen_image = gen_image
        self.degree = dst.k // src.k
        self._gen_powers = [1]
        for _ in range(src.k - 1):
            self._gen_powers.append(dst.mul(self._gen_powers[-1], gen_image))
        self._units = None

    def apply(self, e):
        dst = self.dst
        acc = 0
        for c, w in zip(self.src.digits(e), self._gen_powers):
            if c:
                acc = dst.add(acc, dst.mul(dst.const(c), w))
        return acc

    def __call__(self, e):
        return self.apply(e)

    def _unit_coordinates(self):
        """The tag of each unit bit 2^b of dst, b < dst.k: the columns of
        the inverse of the matrix whose columns are the bits of the
        F_2-basis tm(X^j) theta^i of dst (tag bit i * src.k + j).
        Characteristic 2 only (the census fields)."""
        dst, n = self.dst, self.dst.k
        if dst.p != 2:
            raise FieldError("coordinates are read in characteristic 2 only")
        basis, t = [], 1
        for _ in range(self.degree):
            basis += [dst.mul(w, t) for w in self._gen_powers]
            t = dst.mul(t, dst.generator)
        return _gf2_unit_tags(basis, n)

    def coordinates(self, e):
        """The r = [dst : src] elements c_i of src with
        e = Sum tm(c_i) theta^i, read through `_unit_coordinates`, so
        characteristic 2 only."""
        units = self._units
        if units is None:
            units = self._units = self._unit_coordinates()
        tag = b = 0
        while e:
            if e & 1:
                tag ^= units[b]
            e >>= 1
            b += 1
        m = self.src.k
        return [tag >> (i * m) & self.src.units for i in range(self.degree)]


# ---------------------------------------------------------------------------

_FIELDS = {}
_MODULUS_OVERRIDES = {}


def set_modulus_override(p, k, coeffs):
    """Override the modulus used for (p, k).  Refuses non-irreducible input."""
    _require_table_mode(p, k)
    coeffs = tuple(int(c) % p for c in coeffs)
    if len(coeffs) != k + 1 or coeffs[-1] != 1:
        raise FieldError("override must be monic of degree k")
    if not _is_irreducible(coeffs, p):
        raise FieldError(f"override for ({p},{k}) is not irreducible")
    _MODULUS_OVERRIDES[(p, k)] = coeffs
    _FIELDS.pop((p, k), None)


def clear_modulus_overrides():
    _MODULUS_OVERRIDES.clear()
    _FIELDS.clear()


def load_field_config(path):
    """Read modulus overrides from a config file.

    Each non-comment line has the form  ``p k : c0 c1 ... ck``  giving the
    coefficients of the modulus for F_{p^k}, low degree first.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                head, tail = line.split(":")
                p, k = (int(t) for t in head.split())
                coeffs = [int(t) for t in tail.split()]
            except ValueError:
                raise FieldError(f"bad field-config line {lineno}: {line!r}") from None
            set_modulus_override(p, k, coeffs)


def build_field(p, k):
    """The canonical field F_{p^k}.  Idempotent: repeated calls share one object."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if k < 1:
        raise FieldError("k must be >= 1")
    if p**k > SIZE_CAP:
        raise FieldError(f"p^k exceeds the size cap 2^62")
    _require_table_mode(p, k)
    key = (p, k)
    fld = _FIELDS.get(key)
    if fld is None:
        override = _MODULUS_OVERRIDES.get(key)
        if override:
            fld = GF(p, k, override)
        else:
            fld = GF(p, k, _canonical_modulus(p, k), primitive=True)
        _FIELDS[key] = fld
    return fld


def embed(src: GF, dst: GF) -> TowerMap:
    """Canonical embedding: source generator maps to the smallest root of the
    source modulus in the destination."""
    if src.p != dst.p:
        raise FieldError("characteristic mismatch")
    if dst.k % src.k != 0:
        raise FieldError(f"degree {src.k} does not divide {dst.k}")
    # keyed by the field object, not its id: a field dropped by a modulus
    # override stays alive here, so its id cannot be reused by a new field
    cached = src._embed_cache.get(dst)
    if cached is not None:
        return cached
    tm = TowerMap(src, dst, _smallest_root_in(src, dst))
    src._embed_cache[dst] = tm
    return tm


def _smallest_root_in(src, dst):
    """Smallest root of src's modulus f inside dst, in canonical element
    order, found in src.

    Let m = src.k, n_m = p^m - 1 and K the degree-m subfield of dst.  f is
    irreducible of degree m over F_p, so its roots are distinct, lie in K
    and form one Frobenius orbit (Lidl-Niederreiter, Thm 2.14).
      1. w = dst.generator^((|dst| - 1) / n_m) has order n_m, since
         dst.generator is primitive (`_find_generator`); so w generates K.
      2. mu = Prod_{i<m} (Y - w^(p^i)) is the minimal polynomial of w over
         F_p: w^(p^i) = w only if n_m divides p^i - 1, that is m divides
         i, so the factors are distinct, and Frobenius permutes them, so
         it fixes every coefficient.  An F_p element is the same int in
         every field of characteristic p, so mu is a polynomial over src.
      3. z = `polyroots.one_root`(src, mu, m).  w and z are roots of the
         irreducible mu, so psi: K -> src, w -> z, is a field isomorphism
         (both fields are F_p[Y]/(mu)); it fixes F_p.
      4. f has F_p coefficients, so psi^-1(X) is a root of f in K.  z has
         the order n_m of w, so X = z^e for e = log X (log z)^-1 mod n_m,
         and psi^-1(X) = w^e.  A source without tables writes X in the
         F_2-basis z^0, ..., z^(m-1) (`_gf2_unit_tags`); psi^-1(X) is the
         same sum of powers of w.
      5. Every root is a conjugate of that one: the least of its m
         conjugates is the smallest root.
    At m = 1 the root is -c_0 (0 under the override X of F_3, which has no
    logarithm).  The splitting costs table lookups in src; dst makes about
    m^2/2 products for mu, not the O(m^3) of splitting f there.
    """
    m = src.k
    if m == 1:
        return dst.neg(dst.const(src.modulus[0]))
    n = src.units
    w = dst.pow(dst.generator, dst.units // n)
    mu, c = [1], w
    for _ in range(m):  # mu *= Y - c for the conjugates c of w
        mu = [dst.sub(a, dst.mul(c, b)) for a, b in zip([0] + mu, mu + [0])]
        c = dst.frobenius(c)
    z = polyroots.one_root(src, mu, m)
    if src.table_mode:
        root = dst.pow(w, src.log[src.p] * pow(src.log[z], -1, n) % n)
    else:
        zs, ws = [1], [1]
        for _ in range(m - 1):
            zs.append(src.mul(zs[-1], z))
            ws.append(dst.mul(ws[-1], w))
        tag = _gf2_unit_tags(zs, m)[1]  # X is the unit bit 2^1
        root = 0
        for j, wj in enumerate(ws):
            if tag >> j & 1:
                root ^= wj
    conjugates = [root]
    for _ in range(m - 1):
        conjugates.append(dst.frobenius(conjugates[-1]))
    return min(conjugates)
