"""Linearized (additive) polynomials and their p-associates.

A linearized polynomial over F_{p^m} is  Sum c_i X^(p^i),  stored as a
sparse map index -> coefficient.  Composition corresponds to the twisted
multiplication  (a t^i) (b t^j) = a b^(p^i) t^(i+j)  of associates; the
conventional associate  Sum c_i t^i  with ordinary multiplication mirrors
composition only when the coefficients stay in the prime field, which is
why divisibility questions here are always decided by explicit twisted
division, with the conventional-associate verdict computed alongside.
"""

from math import gcd

from .gf import build_field, nullspace
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

    def degree(self):
        return self.field.p ** self.top_index if self.coeffs else 0

    def evaluate(self, x):
        F = self.field
        acc = 0
        for i, c in self.coeffs.items():
            acc = F.add(acc, F.mul(c, F.pow(x, F.p**i)))
        return acc

    def add(self, other):
        F = self.field
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = F.add(out.get(i, 0), c)
        return LinearizedPoly(F, out)

    def scale(self, c):
        F = self.field
        return LinearizedPoly(F, {i: F.mul(c, v) for i, v in self.coeffs.items()})

    def kernel(self):
        """All roots inside the owning field, via F_p-linear algebra on a basis."""
        F = self.field
        p, k = F.p, F.k
        basis = [F.pow(F.generator, j) if j else 1 for j in range(k)]
        cols = [F.digits(self.evaluate(b)) for b in basis]
        # solve sum_j x_j * cols[j] = 0 over F_p
        rows = [[cols[j][i] for j in range(k)] for i in range(k)]
        sols = nullspace(build_field(p, 1), rows)
        out = set()
        for vec in _span_fp(sols, p):
            e = 0
            for xj, b in zip(vec, basis):
                if xj:
                    e = F.add(e, F.mul(F.const(xj), b))
            out.add(e)
        return sorted(out)


def _span_fp(basis, p):
    out = [[0] * (len(basis[0]) if basis else 0)]
    for b in basis:
        out = [[(x + t * y) % p for x, y in zip(v, b)] for v in out for t in range(p)]
    return out


def from_kernel(field, roots) -> LinearizedPoly:
    """The monic linearized polynomial whose root set is the given additive
    subgroup, built by expanding the product of the linear factors."""
    roots = sorted(set(roots))
    rs = set(roots)
    if 0 not in rs:
        raise LinPolyError("an additive subgroup must contain 0")
    for a in roots:
        for b in roots:
            if field.add(a, b) not in rs:
                raise LinPolyError("root set is not closed under addition")
    n = len(roots)
    p = field.p
    size = n
    while size % p == 0:
        size //= p
    if size != 1:
        raise LinPolyError("an additive subgroup must have p-power order")
    # expand prod (X - c)
    poly = [1]
    for c in roots:
        nc = field.neg(c)
        nxt = [0] * (len(poly) + 1)
        for i, a in enumerate(poly):
            nxt[i] = field.add(nxt[i], field.mul(a, nc))
            nxt[i + 1] = field.add(nxt[i + 1], a)
        poly = nxt
    coeffs = {}
    for d, c in enumerate(poly):
        if not c:
            continue
        i = 0
        dd = d
        while dd > 1 and dd % p == 0:
            dd //= p
            i += 1
        if dd != 1:
            raise LinPolyError("product is not linearized (kernel not additive?)")
        coeffs[i] = c
    lp = LinearizedPoly(field, coeffs)
    for c in roots:
        if lp.evaluate(c) != 0:
            raise LinPolyError("kernel round-trip failed")
    return lp


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
    """The outer F with F(inner(X)) = target, or None if none exists.  The
    top term c t^(s+d) left fixes a_d = c / b_s^(p^d); as in the division
    cores below, it is popped and only inner's lower terms are subtracted."""
    F = target.field
    if F is not inner.field:
        raise LinPolyError("operands over different fields")
    if not inner:
        raise LinPolyError("cannot decompose by the zero polynomial")
    mul, sub, pw = F.mul, F.sub, F.pow
    s = inner.top_index
    inv_lead = F.inv(inner.coeffs[s])
    rest = [(j, b) for j, b in inner.coeffs.items() if j != s]
    work = dict(target.coeffs)
    out = {}
    while work:
        t = max(work)
        c = work.pop(t)
        if not c:
            continue
        if t < s:
            return None
        d = t - s
        pd = F.p**d
        a_d = out[d] = mul(c, pw(inv_lead, pd))
        for j, b in rest:
            k = d + j
            work[k] = sub(work.get(k, 0), mul(a_d, pw(b, pd)))
    return LinearizedPoly(F, out)


def left_quotient(outer: LinearizedPoly, target: LinearizedPoly):
    """The Q with outer(Q(X)) = target, or None (see `_twisted_quotient`)."""
    F = target.field
    if F is not outer.field:
        raise LinPolyError("operands over different fields")
    if not outer:
        raise LinPolyError("cannot divide by the zero polynomial")
    out = _twisted_quotient(F, outer.coeffs, target.coeffs)
    return None if out is None else LinearizedPoly(F, out)


# -- division cores -------------------------------------------------------------
# Both take {index: coeff} dicts with no zero terms.  Each quotient term
# cancels the top term left, which is popped, so only the divisor's lower
# terms are subtracted; a zero they leave is popped when it reaches the top.


def _twisted_quotient(F, outer, target):
    """The {d: q_d} with outer(Q(X)) = target, or None.  The top term
    c t^(s+d) left fixes q_d = (c / a_s)^(p^-s), p^-s = p^(-s mod k)."""
    mul, sub, pw = F.mul, F.sub, F.pow
    s = max(outer)
    inv_lead = F.inv(outer[s])
    unfrob = F.p ** (-s % F.k)
    rest = [(i, a, F.p**i) for i, a in outer.items() if i != s]
    work = dict(target)
    out = {}
    while work:
        t = max(work)
        c = work.pop(t)
        if not c:
            continue
        if t < s:
            return None
        q_d = out[t - s] = pw(mul(c, inv_lead), unfrob)
        for i, a, pi in rest:
            j = i + t - s
            work[j] = sub(work.get(j, 0), mul(a, pw(q_d, pi)))
    return out


def _remainder(F, divisor, dividend):
    """dividend mod divisor as ordinary polynomials Sum c_i t^i."""
    mul, sub = F.mul, F.sub
    s = max(divisor)
    inv_lead = F.inv(divisor[s])
    rest = [(i, b) for i, b in divisor.items() if i != s]
    work = dict(dividend)
    while work:
        t = max(work)
        if t < s:
            break
        c = work.pop(t)
        if c:
            f = mul(c, inv_lead)
            for i, b in rest:
                j = i + t - s
                work[j] = sub(work.get(j, 0), mul(f, b))
    return {j: c for j, c in work.items() if c}


def symbolic_divides(l: LinearizedPoly, m: LinearizedPoly, side: str) -> bool:
    """side 'right': some Q has Q(l(X)) = m (l is the inner factor);
    side 'left':  some Q has l(Q(X)) = m (l is the outer factor).

    Right-divisibility is cross-checked against kernel containment whenever
    both kernels split inside the owning field."""
    if side == "right":
        verdict = decompose(m, l) is not None
        kl, km = l.kernel(), m.kernel()
        if len(kl) == l.degree() and len(km) == m.degree():
            contained = set(kl) <= set(km)
            if contained != verdict:
                raise LinPolyError(
                    "kernel-containment and twisted division disagree")
        return verdict
    if side == "left":
        return left_quotient(l, m) is not None
    raise LinPolyError("side must be 'left' or 'right'")


# -- p-associates ---------------------------------------------------------------


class AssociatePoly:
    """Ordinary polynomial Sum c_i t^i attached to a linearized polynomial.

    convention 'conventional': ordinary commutative multiplication;
    convention 'twisted': t a = a^p t, so multiplication mirrors composition.
    """

    def __init__(self, field, coeffs, convention="conventional"):
        if convention not in ("conventional", "twisted"):
            raise LinPolyError("unknown associate convention")
        self.field = field
        self.coeffs = tuple(coeffs)
        while self.coeffs and self.coeffs[-1] == 0:
            self.coeffs = self.coeffs[:-1]
        self.convention = convention

    def __eq__(self, other):
        return (isinstance(other, AssociatePoly) and self.field is other.field
                and self.coeffs == other.coeffs
                and self.convention == other.convention)

    def __repr__(self):
        return f"AssociatePoly({self.coeffs}, {self.convention})"

    def degree(self):
        return len(self.coeffs) - 1

    def __mul__(self, other):
        F = self.field
        if self.convention != other.convention:
            raise LinPolyError("mixed associate conventions")
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            pi = F.p**i
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                bb = F.pow(b, pi) if self.convention == "twisted" else b
                out[i + j] = F.add(out[i + j], F.mul(a, bb))
        return AssociatePoly(F, out, self.convention)

    def divides(self, other) -> bool:
        """Ordinary polynomial divisibility; conventional associates only."""
        if self.convention != "conventional":
            raise LinPolyError("divides() is for the conventional associate")
        if not self.coeffs:
            return not other.coeffs
        return not _remainder(self.field, _nonzero(self.coeffs),
                              _nonzero(other.coeffs))


def _nonzero(coeffs):
    return {i: c for i, c in enumerate(coeffs) if c}


def p_associate(l: LinearizedPoly, convention="conventional") -> AssociatePoly:
    n = (l.top_index or 0) + 1 if l else 0
    coeffs = [0] * n
    for i, c in l.coeffs.items():
        coeffs[i] = c
    return AssociatePoly(l.field, coeffs, convention)


def inverse_associate(a: AssociatePoly) -> LinearizedPoly:
    return LinearizedPoly(a.field, _nonzero(a.coeffs))


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
    """(member, composes, divides) in scan order: each member {2e: A, 0: B}
    (q = p^e) goes through both division cores."""
    pe = is_prime_power(q)
    if pe is None or pe[0] != F.p:
        raise LinPolyError("q is not a power of the field characteristic")
    e2 = 2 * pe[1]
    target = {3 * pe[1]: 1, 0: 1}
    mul, neg, pw = F.mul, F.neg, F.pow
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
            cand = {e2: mul(kinv, a_q2), 0: neg(mul(kinv, a))}
            yield (cand, _twisted_quotient(F, cand, target) is not None,
                   not _remainder(F, cand, target))
