"""Linearized (additive) polynomials as dense coefficient tuples.

A linearized polynomial over F_{p^m} is  Sum c_i X^(p^i),  stored as the
dense, trimmed tuple (c_0, c_1, ...) indexed by p-power index, so X^8 + X
over F_2 is (1, 0, 0, 1).  The same tuple read as  Sum c_i t^i  is its
conventional p-associate, a `polyroots` polynomial (Lidl-Niederreiter,
Finite Fields, 3.4).  Composition corresponds to the twisted
multiplication  (a t^i) (b t^j) = a b^(p^i) t^(i+j)  of those tuples;
ordinary multiplication of associates mirrors composition only when the
coefficients stay in the prime field, which is why divisibility questions
here are always decided by explicit twisted division, with the
conventional verdict, `polyroots.mod`, computed alongside.
"""

from math import gcd

from . import polyroots
from .numbertheory import _in_two, is_prime_power


class LinPolyError(ValueError):
    pass


def compose(F, outer, inner):
    """outer(inner(X)): the twisted product of the coefficient tuples."""
    out = [0] * (len(outer) + len(inner) - 1 if outer and inner else 0)
    for i, a in enumerate(outer):
        if a:
            pi = F.p**i
            for j, b in enumerate(inner):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, F.pow(b, pi)))
    return polyroots.trim(out)


def decompose(F, target, inner):
    """The outer O with O(inner(X)) = target, or None (see `_right_quotient`)."""
    inner = polyroots.trim(inner)
    if not inner:
        raise LinPolyError("cannot decompose by the zero polynomial")
    out = _right_quotient(F, inner, polyroots.trim(target))
    return None if out is None else tuple(out)


# -- division cores -------------------------------------------------------------
# Both take dense, trimmed coefficient lists indexed by p-power index, so
# X^(q^3) + X is (1, 0, 0, 0, 0, 0, 1) at q = 4, and return the quotient in
# the same shape; the left core takes its divisor as the binomial that the
# family scan divides by.  The quotient index d walks down from the top;
# the term it cancels is never read again, so only the divisor's nonzero
# lower terms are subtracted, and any nonzero term left below the divisor's
# top index s means there is no quotient.


def _twisted_quotient(F, a0, a_s, s, target):
    """The Q with L(Q(X)) = target for the binomial
    L = a_s X^(p^s) + a0 X (s >= 1, a_s nonzero), or None.  The term
    c t^(s+d) left fixes q_d = (c / a_s)^(p^-s), p^-s = p^(-s mod k), and
    subtracts a0 q_d t^d."""
    mul, sub, pw = F.mul, F.sub, F.pow
    inv_lead = F.inv(a_s)
    unfrob = F.p ** (-s % F.k)
    work = list(target)
    n = len(work) - s
    out = [0] * n if n > 0 else []
    for d in range(n - 1, -1, -1):
        c = work[s + d]
        if c:
            q_d = out[d] = pw(mul(c, inv_lead), unfrob)
            if a0:
                work[d] = sub(work[d], mul(a0, q_d))
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


# -- the quotient-equation family scan ------------------------------------------


def quotient_family_scan(field, q):
    """Scan the family A X^(q^2) + B X with A = k^-1 a^(q^2), B = -k^-1 a
    (a nonzero, k a (q^2-q+1)-th power) for left-divisibility into
    X^(q^3) + X, under both the composition criterion and the conventional
    p-associate criterion.  Returns (families_tested, divisible_count,
    criteria_disagreements).

    The representatives a are split in two and the upper half is scanned
    in a forked child (`numbertheory._in_two`); the counts and any error
    are the serial ones."""
    lower, upper = _in_two(_family_counts, _family_reps(field, q), field, q)
    return tuple(x + y for x, y in zip(lower, upper))


def _family_counts(reps, F, q):
    """(tested, divisible, disagreements) over the members of these a."""
    tested = divisible = disagreements = 0
    for _, composes, divides in _family_verdicts(F, q, reps):
        tested += 1
        divisible += composes
        disagreements += (composes and not divides) or (divides and not composes)
    return tested, divisible, disagreements


def _family_reps(F, q):
    """The a of the scan, in scan order: the first a per value of
    a^(q^2-1).  Scaling a by a (q^2-1)-th root of unity rescales (A, B) by
    a unit that the k-subgroup already covers."""
    pe = is_prime_power(q)
    if pe is None or pe[0] != F.p:
        raise LinPolyError("q is not a power of the field characteristic")
    pw = F.pow
    reps = {}
    for j in range(F.units):
        a = pw(F.generator, j)
        reps.setdefault(pw(a, q * q - 1), a)
    return list(reps.values())


def _family_verdicts(F, q, reps):
    """(member, composes, divides) in scan order over the given a: each
    member, the dense (B, 0, ..., 0, A) of A X^(q^2) + B X, goes through
    the twisted core and `polyroots.mod`."""
    e = is_prime_power(q)[1]
    gap = (0,) * (2 * e - 1)
    target = (1,) + (0,) * (3 * e - 1) + (1,)
    mul, neg, pw, mod = F.mul, F.neg, F.pow, polyroots.mod
    h = gcd(q * q - q + 1, F.units)
    gk = pw(F.generator, h)  # generates the (q^2-q+1)-th powers
    for a in reps:
        a_q2 = pw(a, q * q)
        kinv = 1
        for _ in range(F.units // h):
            kinv = mul(kinv, gk)
            B, A = neg(mul(kinv, a)), mul(kinv, a_q2)
            cand = (B, *gap, A)
            yield (cand, _twisted_quotient(F, B, A, 2 * e, target) is not None,
                   not mod(F, target, cand))
