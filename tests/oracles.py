"""Brute-force references that tests compare the package against: they
enumerate or expand directly, and check nothing of their own."""

from itertools import permutations

from maxcurves import polyroots
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
