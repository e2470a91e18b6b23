"""Order catalogs for the case analyses: maximal subgroups of PSU(3, q) and
the pure-integer divisibility scans.

Catalog entries are data, not derivations: a case label, an order formula
evaluated at the given q and a structure note, listed only where the
case's applicability condition holds at q.  The scans use
arbitrary-precision integers throughout (q^9 (q^9 + 1)(q^6 - 1) overflows
fixed-width arithmetic long before the scan bound of 10^6).
"""

from math import gcd

from .numbertheory import _in_two, divisors, is_prime, is_prime_power


class CatalogError(ValueError):
    pass


class CatalogEntry:
    """One subgroup class: case label, concrete order, structure note."""

    def __init__(self, label, order, structure):
        self.label = label
        self.order = order
        self.structure = structure

    def __repr__(self):
        return f"CatalogEntry({self.label}: {self.structure}, order {self.order})"


def psu3_order(q: int) -> int:
    return q**3 * (q * q - 1) * (q**3 + 1) // gcd(3, q + 1)


def pgl2_order(q: int) -> int:
    return q * (q * q - 1)


def _is_square_in_fq(c: int, p: int, k: int) -> bool:
    """Is the integer c a square in F_{p^k} (p odd)?"""
    c %= p
    if c == 0:
        return True
    return pow(c, (p**k - 1) // 2, p) == 1


def mh_orders(q: int):
    """The applicable maximal-subgroup classes of PSU(3, q) with their orders.

    Parametrized classes (subfield-unitary groups and their index-3
    extensions) expand into one entry per admissible subfield parameter m.
    """
    pk = is_prime_power(q)
    if pk is None:
        raise CatalogError(f"{q} is not a prime power")
    p, k = pk
    d = gcd(q + 1, 3)
    entries = [
        CatalogEntry("i", q**3 * (q * q - 1) // d,
                     "stabilizer of a rational curve point"),
        CatalogEntry("ii", q * (q - 1) * (q + 1) ** 2 // d,
                     "stabilizer of a point off the curve and its polar line"),
        CatalogEntry("iii", 6 * (q + 1) ** 2 // d,
                     "stabilizer of a self-polar triangle"),
        CatalogEntry("iv", 3 * (q * q - q + 1) // d,
                     "normalizer of a cyclic Singer group"),
    ]
    if p > 2:
        entries.append(CatalogEntry("v", pgl2_order(q),
                                    "PGL(2,q) preserving a conic"))
        for m in divisors(k):
            if m < k and (k // m) % 2 == 1:
                entries.append(CatalogEntry(
                    "vi", psu3_order(p**m),
                    f"subfield unitary group, subfield degree {m}"))
                if (k // m) % 3 == 0 and (q + 1) % 3 == 0:
                    entries.append(CatalogEntry(
                        "vii", 3 * psu3_order(p**m),
                        f"index-3 extension of a subfield unitary group, degree {m}"))
        if (q + 1) % 9 == 0:
            entries.append(CatalogEntry("viii", 216, "Hessian group"))
        if (q + 1) % 3 == 0:
            entries.append(CatalogEntry("viii", 72, "Hessian group"))
            entries.append(CatalogEntry("viii", 36, "Hessian group"))
        if p == 7 or not _is_square_in_fq(-7, p, k):
            entries.append(CatalogEntry("ix", 168, "PSL(2,7)"))
        if (p == 3 and k % 2 == 0) or (
                _is_square_in_fq(5, p, k) and (q - 1) % 3 != 0):
            entries.append(CatalogEntry("x", 360, "alternating group A6"))
        if p == 5 and k % 2 == 1:
            entries.append(CatalogEntry("xi", 720, "symmetric group S6"))
            entries.append(CatalogEntry("xii", 2520, "alternating group A7"))
    else:
        for m in divisors(k):
            if m < k and is_prime(k // m) and (k // m) % 2 == 1:
                entries.append(CatalogEntry(
                    "xiii", psu3_order(2**m),
                    f"subfield unitary group, subfield degree {m}"))
        if k % 3 == 0 and (k // 3) % 2 == 1:
            m = k // 3
            entries.append(CatalogEntry(
                "xiv", 3 * psu3_order(2**m),
                f"index-3 extension of a subfield unitary group, degree {m}"))
        if k == 1:
            entries.append(CatalogEntry("xv", 36, "a group of order 36"))
    return entries


def order_excluded(m: int, q: int, multiplier: int = 1):
    """The catalog cases whose order times the multiplier is divisible by m
    (the survivors of a Lagrange exclusion; an empty list is a full exclusion)."""
    if m < 1:
        raise CatalogError("m must be positive")
    return [e for e in mh_orders(q) if (e.order * multiplier) % m == 0]


# -- integer scans ----------------------------------------------------------


def alternating_power_sum(pprime: int, m: int) -> int:
    """Sum of (-1)^i 2^(im) for i < pprime, i.e. (2^(pprime m)+1)/(2^m+1)."""
    return sum((-1) ** i * 2 ** (i * m) for i in range(pprime))


def lemmino_scan(m_max: int):
    """Verify the three impossibility facts behind the subfield-case
    exclusion, for all odd primes p' and odd m up to the bound with
    p' >= 5, or p' = 3 and m >= 5.  Returns the list of violations."""
    if m_max < 3:
        raise CatalogError("m_max must be at least 3")
    violations = []
    odd_primes = [r for r in range(3, m_max + 1) if is_prime(r) and r % 2 == 1]
    for pprime in odd_primes:
        for m in range(1, m_max + 1, 2):
            if not (pprime >= 5 or m >= 5):
                continue
            s = alternating_power_sum(pprime, m)
            if (2 ** (2 * m) - 1) % s == 0:
                violations.append((pprime, m, "alternating sum divides 2^(2m)-1"))
            if not s > 3 * (2**m + 1):
                violations.append((pprime, m, "alternating sum bound fails"))
            if not (2 ** (pprime * m) + 1) // 3 > 2 ** (2 * m) - 2**m + 1:
                violations.append((pprime, m, "Singer-normalizer bound fails"))
    return violations


def quattordici_scan(m_max: int):
    """For odd m with 3 <= m <= m_max: which subfield-catalog cases survive
    the Lagrange test  (2^(3m)+1)/3  divides  3 * (case order at 2^m)?

    Returns {m: [surviving case labels]}.  The unique survivor overall is
    case iv at m = 3, where (2^m + 1) | 9.
    """
    out = {}
    for m in range(3, m_max + 1, 2):
        g_order = (2 ** (3 * m) + 1) // 3
        survivors = [e.label for e in mh_orders(2**m)
                     if (3 * e.order) % g_order == 0]
        out[m] = survivors
    return out


# (a, b): q^9 (q^9 + 1)(q^6 - 1) = (a q + b) modulo q^2 + q + 2 in Z[q]
PRIMOVALORE_REMAINDER = (2128, -1568)


def primovalore_scan(q_max: int):
    """{q <= q_max : (q^2+q+2) divides q^9 (q^9+1)(q^6-1)}, computed both by
    direct big-integer divisibility and by the linear remainder 2128 q - 1568
    (PRIMOVALORE_REMAINDER) of the polynomial division.  The two methods
    must agree everywhere.

    The scan runs in two halves, the upper one in a forked child
    (`numbertheory._in_two`); the hits and any error are the serial ones."""
    if q_max < 10:
        raise CatalogError("q_max must be at least 10")
    lower, upper = _in_two(_primovalore_range, range(1, q_max + 1))
    return lower + upper


def _primovalore_range(qs: range):
    """The hits of `primovalore_scan` with q in qs.  The direct test
    takes q^3, q^6 and q^9 mod m by one product each and reduces
    q^9 (q^9 + 1)(q^6 - 1) with a single % m."""
    a, b = PRIMOVALORE_REMAINDER
    hits = []
    for q in qs:
        qq = q * q
        m = qq + q + 2
        q3 = qq * q % m
        q6 = q3 * q3 % m
        q9 = q6 * q3 % m
        direct = q9 * (q9 + 1) * (q6 - 1) % m
        linear = (a * q + b) % m
        if direct and linear:  # neither divisible: the common case
            continue
        if direct or linear:
            raise CatalogError(
                f"divisibility methods disagree at q = {q}: the linear "
                f"remainder reduction is wrong")
        hits.append(q)
    return hits
