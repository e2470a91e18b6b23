"""Linearized (additive) polynomials and their p-associates.

A linearized polynomial over F_{p^m} is  Sum c_i X^(p^i),  stored as a
sparse map index -> coefficient.  Composition corresponds to the twisted
multiplication  (a t^i) (b t^j) = a b^(p^i) t^(i+j)  of associates.  The
conventional associate  Sum c_i t^i  is the dense, trimmed tuple
`p_associate` returns, a `polyroots` polynomial; ordinary multiplication
of associates mirrors composition only when the coefficients stay in the
prime field, which is why divisibility questions here are always decided
by explicit twisted division, with the conventional-associate verdict
computed alongside.

The division cores work on those dense coefficient lists, indexed by
p-power index; `decompose` converts at its boundary.  The conventional
criterion is ordinary polynomial division, `polyroots.mod`.
"""

from math import gcd

from . import polyroots
from .numbertheory import is_prime_power


class LinPolyError(ValueError):
    pass


class LinearizedPoly:
    """Sum c_i X^(p^i) over a fixed field; keys with zero values are dropped."""

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = {int(i): c for i, c in dict(coeffs).items() if c}

    def __eq__(self, other):
        return (isinstance(other, LinearizedPoly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), tuple(sorted(self.coeffs.items()))))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "LinearizedPoly(0)"
        terms = [f"{c}*X^{self.field.p}^{i}" for i, c in sorted(self.coeffs.items())]
        return "LinearizedPoly(" + " + ".join(terms) + ")"

    @property
    def top_index(self):
        return max(self.coeffs) if self.coeffs else None


def compose(outer: LinearizedPoly, inner: LinearizedPoly) -> LinearizedPoly:
    """outer(inner(X)): twisted product of the coefficient maps."""
    F = outer.field
    if F is not inner.field:
        raise LinPolyError("operands over different fields")
    out = {}
    for i, a in outer.coeffs.items():
        pi = F.p**i
        for j, b in inner.coeffs.items():
            k = i + j
            out[k] = F.add(out.get(k, 0), F.mul(a, F.pow(b, pi)))
    return LinearizedPoly(F, out)


def decompose(target: LinearizedPoly, inner: LinearizedPoly):
    """The outer F with F(inner(X)) = target, or None (see `_right_quotient`)."""
    F = target.field
    if F is not inner.field:
        raise LinPolyError("operands over different fields")
    if not inner:
        raise LinPolyError("cannot decompose by the zero polynomial")
    out = _right_quotient(F, p_associate(inner), p_associate(target))
    return None if out is None else LinearizedPoly(F, enumerate(out))


# -- division cores -------------------------------------------------------------
# Both take dense, trimmed coefficient lists indexed by p-power index, so
# X^(q^3) + X is (1, 0, 0, 0, 0, 0, 1) at q = 4, and return the quotient in
# the same shape.  The quotient index d walks down from the top; the term
# it cancels is never read again, so only the divisor's nonzero lower terms
# are subtracted, and any nonzero term left below the divisor's top index s
# means there is no quotient.


def _twisted_quotient(F, outer, target):
    """The Q with outer(Q(X)) = target, or None.  The term c t^(s+d) left
    fixes q_d = (c / a_s)^(p^-s), p^-s = p^(-s mod k), and subtracts
    a_i q_d^(p^i) t^(i+d) for each nonzero a_i, i < s."""
    mul, sub, pw, p = F.mul, F.sub, F.pow, F.p
    s = len(outer) - 1
    inv_lead = F.inv(outer[s])
    unfrob = p ** (-s % F.k)
    a0 = outer[0] if s else 0
    work = list(target)
    n = len(work) - s
    out = [0] * n if n > 0 else []
    for d in range(n - 1, -1, -1):
        c = work[s + d]
        if c:
            q_d = out[d] = pw(mul(c, inv_lead), unfrob)
            if a0:
                work[d] = sub(work[d], mul(a0, q_d))
            for i in range(1, s):
                a = outer[i]
                if a:
                    work[i + d] = sub(work[i + d], mul(a, pw(q_d, p**i)))
    return None if any(work[:s]) else out


def _right_quotient(F, inner, target):
    """The outer O with O(inner(X)) = target, or None.  The term
    c t^(s+d) left fixes o_d = c / b_s^(p^d) and subtracts
    o_d b_j^(p^d) t^(d+j) for each nonzero b_j, j < s."""
    mul, sub, pw, p = F.mul, F.sub, F.pow, F.p
    s = len(inner) - 1
    inv_lead = F.inv(inner[s])
    work = list(target)
    n = len(work) - s
    out = [0] * n if n > 0 else []
    for d in range(n - 1, -1, -1):
        c = work[s + d]
        if c:
            pd = p**d
            o_d = out[d] = mul(c, pw(inv_lead, pd))
            for j in range(s):
                b = inner[j]
                if b:
                    work[d + j] = sub(work[d + j], mul(o_d, pw(b, pd)))
    return None if any(work[:s]) else out


# -- p-associates ---------------------------------------------------------------


def p_associate(l: LinearizedPoly):
    """The conventional associate Sum c_i t^i of l, as the dense, trimmed
    coefficient tuple the division cores and `polyroots` take."""
    coeffs = [0] * (l.top_index + 1 if l else 0)
    for i, c in l.coeffs.items():
        coeffs[i] = c
    return tuple(coeffs)


# -- the quotient-equation family scan ------------------------------------------


def quotient_family_scan(field, q):
    """Scan the family A X^(q^2) + B X with A = k^-1 a^(q^2), B = -k^-1 a
    (a nonzero, k a (q^2-q+1)-th power) for left-divisibility into
    X^(q^3) + X, under both the composition criterion and the conventional
    p-associate criterion.  Returns (families_tested, divisible_count,
    criteria_disagreements)."""
    tested = divisible = disagreements = 0
    for _, composes, divides in _family_verdicts(field, q):
        tested += 1
        divisible += composes
        disagreements += (composes and not divides) or (divides and not composes)
    return tested, divisible, disagreements


def _family_verdicts(F, q):
    """(member, composes, divides) in scan order: each member, the dense
    (B, 0, ..., 0, A) of A X^(q^2) + B X, goes through the twisted core and
    `polyroots.mod`."""
    pe = is_prime_power(q)
    if pe is None or pe[0] != F.p:
        raise LinPolyError("q is not a power of the field characteristic")
    gap = (0,) * (2 * pe[1] - 1)
    target = (1,) + (0,) * (3 * pe[1] - 1) + (1,)
    mul, neg, pw, mod = F.mul, F.neg, F.pow, polyroots.mod
    h = gcd(q * q - q + 1, F.units)
    gk = pw(F.generator, h)  # generates the (q^2-q+1)-th powers
    # the first a per value of a^(q^2-1): scaling a by a (q^2-1)-th root of
    # unity rescales (A, B) by a unit that the k-subgroup already covers
    reps = {}
    for j in range(F.units):
        a = pw(F.generator, j)
        reps.setdefault(pw(a, q * q - 1), a)
    for a in reps.values():
        a_q2 = pw(a, q * q)
        kinv = 1
        for _ in range(F.units // h):
            kinv = mul(kinv, gk)
            cand = (neg(mul(kinv, a)), *gap, mul(kinv, a_q2))
            yield (cand, _twisted_quotient(F, cand, target) is not None,
                   not mod(F, target, cand))
