"""Brute-force references that tests compare the package against: they
enumerate or expand directly, and check nothing of their own."""

from heapq import merge
from itertools import permutations, repeat
from math import gcd

from maxcurves import polyroots
from maxcurves.action import ActionError, _fixing_pairs
from maxcurves.curves import FermatHermitian
from maxcurves.gf import embed
from maxcurves.linpoly import _twisted_quotient
from maxcurves.proj3 import ProjPoint, normalize


def all_points(field):
    """Every point of PG(2, F), affine chart first.  Requires table mode."""
    for x in field.elements():
        for y in field.elements():
            yield ProjPoint(field, (x, y, 1))
    for x in field.elements():
        yield ProjPoint(field, (x, 1, 0))
    yield ProjPoint(field, (1, 0, 0))


def leibniz_det(F, rows):
    """The determinant of a square matrix over F (a list of rows) by the
    Leibniz expansion: the signed sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = F.mul(term, rows[i][j])
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total = F.sub(total, term) if inversions % 2 else F.add(total, term)
    return total


def incident(point, line):
    """Does the point lie on the line (a coordinate triple)?"""
    F = point.field
    acc = 0
    for a, b in zip(point.coords, line):
        acc = F.add(acc, F.mul(a, b))
    return acc == 0


def polar(point, model):
    """Polar line of a point under the unitary polarity of a Hermitian
    model, as its normalised coordinate triple."""
    F, gram = point.field, model.hermitian_gram()
    conj = [F.pow(c, model.q) for c in point.coords]
    line = [0, 0, 0]
    for i in range(3):
        for j in range(3):
            line[i] = F.add(line[i], F.mul(F.const(gram[j][i]), conj[j]))
    return normalize(F, line)


def roots_in(F, l):
    """The x in F with Sum c_i x^(p^i) = 0 for the coefficient tuple l, by
    evaluation."""
    roots = set()
    for x in F.elements():
        acc = 0
        for i, c in enumerate(l):
            acc = F.add(acc, F.mul(c, F.pow(x, F.p**i)))
        if not acc:
            roots.add(x)
    return roots


def span(F, basis):
    """The additive subgroup of F that the basis elements generate."""
    out = {0}
    for b in basis:
        multiples = [0]
        for _ in range(F.p - 1):
            multiples.append(F.add(multiples[-1], b))
        out = {F.add(s, m) for s in out for m in multiples}
    return out


def from_kernel(F, roots):
    """Prod (X - c) over an additive subgroup of F, read as Sum c_i X^(p^i):
    the tuple of its coefficients at X, X^p, X^(p^2), ..."""
    poly = (1,)
    for c in roots:
        poly = polyroots.mul(F, poly, (F.neg(c), 1))
    n = len(poly)
    return tuple(poly[F.p**i] for i in range(n.bit_length()) if F.p**i < n)


def primovalore_hits(q_max, remainder):
    """The q <= q_max with q^2 + q + 2 dividing q^9 (q^9 + 1)(q^6 - 1), at
    every q by two methods: (direct hits, hits of the linear remainder
    a q + b for remainder = (a, b)).  The direct test takes q^3, q^6 and
    q^9 mod m by one product each."""
    a, b = remainder
    direct, linear = [], []
    for q in range(1, q_max + 1):
        qq = q * q
        m = qq + q + 2
        q3 = qq * q % m
        q6 = q3 * q3 % m
        q9 = q6 * q3 % m
        if not q9 * (q9 + 1) * (q6 - 1) % m:
            direct.append(q)
        if not (a * q + b) % m:
            linear.append(q)
    return direct, linear


def family_reps(F, q):
    """The a of the member-by-member family scan: the first a per value of
    a^(q^2-1), in the order of the generator's powers."""
    reps = {}
    for j in range(F.units):
        a = F.pow(F.generator, j)
        reps.setdefault(F.pow(a, q * q - 1), a)
    return list(reps.values())


def family_verdicts(F, q, reps):
    """(member, composes, divides) for each member A X^(q^2) + B X of the
    quotient-equation family, A = k^-1 a^(q^2) and B = -k^-1 a, over a in
    reps and k^-1 = g^h, g^(2h), ... (h = gcd(q^2-q+1, |F*|)): each member,
    the dense (B, 0, ..., 0, A), goes through the twisted core and
    `polyroots.mod` with X^(q^3) + X as target."""
    e = 0
    while F.p**e < q:
        e += 1
    gap = (0,) * (2 * e - 1)
    target = (1,) + (0,) * (3 * e - 1) + (1,)
    mul, neg, pw = F.mul, F.neg, F.pow
    h = gcd(q * q - q + 1, F.units)
    gk = pw(F.generator, h)
    for a in reps:
        a_q2 = pw(a, q * q)
        kinv = 1
        for _ in range(F.units // h):
            kinv = mul(kinv, gk)
            B, A = neg(mul(kinv, a)), mul(kinv, a_q2)
            cand = (B, *gap, A)
            yield (cand, _twisted_quotient(F, B, A, 2 * e, target) is not None,
                   not polyroots.mod(F, target, cand))


def family_counts(verdicts):
    """(tested, divisible, disagreements), member by member, over
    (member, composes, divides) triples."""
    tested = divisible = disagreements = 0
    for _, composes, divides in verdicts:
        tested += 1
        divisible += composes
        disagreements += composes != divides
    return tested, divisible, disagreements


def full_recount(census, elements):
    """|I| recounted over every census point and every element, with the
    pair test of `action` (`_fixing_pairs`) and no weighting."""
    by_field = {}
    for g in elements:
        by_field.setdefault(g.field, []).append(g.m)
    return _fixing_pairs(census.points, by_field)


def row_products(F, m, coords):
    """The image of a coordinate triple under the 3x3 matrix m (a
    row-major 9-tuple over F), as the raw row products, unnormalised."""
    return tuple(F.add(F.add(F.mul(m[i], coords[0]), F.mul(m[i + 1], coords[1])),
                       F.mul(m[i + 2], coords[2])) for i in (0, 3, 6))


def seed_merge_orbits(group, points):
    """The former one-pass orbit partition: every field's coordinates
    sorted once and merged by field rank (fields by order, ties by first
    appearance) into one seed stream, each orbit grown from the least
    seed not yet taken, with images normalised from the raw row products."""
    by_field = {}
    for P in points:
        by_field.setdefault(P.field, {})[P.coords] = P
    fields = sorted(by_field, key=lambda K: K.order)
    seeds = merge(*(zip(sorted(by_field[K]), repeat(n))
                    for n, K in enumerate(fields)))
    out = []
    for seed, n in seeds:
        K = fields[n]
        remaining = by_field[K]
        if seed not in remaining:
            continue
        ms = [g.m if g.field is K else g.transport(embed(g.field, K)).m
              for g in group.generators]
        members = {seed: remaining.pop(seed)}
        orbit = [seed]
        for x in orbit:
            for m in ms:
                y = normalize(K, row_products(K, m, x))
                if y in members:
                    continue
                Q = remaining.pop(y, None)
                if Q is None:
                    raise ActionError("points are not closed under the action")
                members[y] = Q
                orbit.append(y)
        out.append([members[x] for x in sorted(orbit)])
    return out


def hermitian_points_one_by_one(model):
    """The rational points of a Hermitian model, each chart T = 1 point
    built as ProjPoint(F, (x, y, 1)) and normalised on its own: the x in
    element order, the y in `power_solutions` order, then the chart T = 0
    (the points (1, y, 0) of the Fermat model, the ideal point (1, 0, 0)
    of the norm-trace one)."""
    F, q = model.field, model.q
    fermat = isinstance(model, FermatHermitian)
    pts = []
    for x in F.elements():
        if fermat:
            c = F.sub(F.neg(1), F.pow(x, q + 1))
        else:
            c = F.add(F.pow(x, q), x)
        pts.extend(ProjPoint(F, (x, y, 1)) for y in F.power_solutions(q + 1, c))
    if fermat:
        pts.extend(ProjPoint(F, (1, y, 0))
                   for y in F.power_solutions(q + 1, F.neg(1)))
    else:
        pts.append(ProjPoint(F, (1, 0, 0)))
    return pts
