"""The four curve families: membership, genus, rational point counts.

Plane Hermitian models take projective points; the generalized GK system
lives in affine 3-space plus a single distinguished point at infinity, and
the Garcia-Stichtenoth plane model is singular at infinity, so its count
is the affine count plus one (the unique place above the ideal point).

Point counting iterates one coordinate over the base field and solves the
remaining power equation y^d = c through the cyclic group structure
(GF.power_solutions), which keeps every enumeration here O(|F|) field
operations.  The Hermitian models list their points, and count them as the
length of that list.
"""

from functools import cached_property
from math import isqrt

from .gf import build_field
from .numbertheory import is_prime_power
from .proj3 import ProjPoint

INFINITY = "infinity"


class CurveError(ValueError):
    pass


class CurveModel:
    """Common surface: genus(), contains() and count_rational_points(), the
    count over the model's own `field`."""

    def maximality_check(self):
        """True iff the count over the model's field, of square order,
        attains the Hasse-Weil upper bound m^2 + 1 + 2 g m, m = sqrt(|F|)."""
        m = isqrt(self.field.order)
        return self.count_rational_points() == m * m + 1 + 2 * self.genus() * m

    def _check_char(self, F):
        if F.p != self.p:
            raise CurveError("coordinate field has the wrong characteristic")


class HermitianModel(CurveModel):
    def __init__(self, q):
        pk = is_prime_power(q)
        if pk is None:
            raise CurveError(f"{q} is not a prime power")
        self.p, self._k = pk
        self.q = q

    @cached_property
    def field(self):
        """F_{q^2}, built on first use: a model read only for q, p or its
        genus builds no field."""
        return build_field(self.p, 2 * self._k)

    def genus(self):
        return self.q * (self.q - 1) // 2

    def count_rational_points(self):
        return len(self.rational_points())


class FermatHermitian(HermitianModel):
    """X^(q+1) + Y^(q+1) + T^(q+1) = 0 over F_{q^2}."""

    def __repr__(self):
        return f"FermatHermitian(q={self.q})"

    def hermitian_gram(self):
        return ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def contains(self, point):
        if not isinstance(point, ProjPoint):
            raise CurveError("plane models take projective points")
        F = point.field
        self._check_char(F)
        x, y, t = point.coords
        e = self.q + 1
        acc = F.add(F.add(F.pow(x, e), F.pow(y, e)), F.pow(t, e))
        return acc == 0

    def rational_points(self):
        F = self.field
        e = self.q + 1
        minus_one = F.neg(1)
        pts = []
        for x in F.elements():
            c = F.sub(minus_one, F.pow(x, e))
            pts.extend(ProjPoint(F, (x, y, 1)) for y in F.power_solutions(e, c))
        # chart T = 0, X = 1
        pts.extend(ProjPoint(F, (1, y, 0)) for y in F.power_solutions(e, minus_one))
        return pts


class NormTraceHermitian(HermitianModel):
    """Y^(q+1) = X^q T + X T^q over F_{q^2}; the ideal point is (1,0,0)."""

    def __repr__(self):
        return f"NormTraceHermitian(q={self.q})"

    def hermitian_gram(self):
        return ((0, 0, 1), (0, -1, 0), (1, 0, 0))

    def contains(self, point):
        if not isinstance(point, ProjPoint):
            raise CurveError("plane models take projective points")
        F = point.field
        self._check_char(F)
        x, y, t = point.coords
        q = self.q
        lhs = F.pow(y, q + 1)
        rhs = F.add(F.mul(F.pow(x, q), t), F.mul(x, F.pow(t, q)))
        return lhs == rhs

    def rational_points(self):
        F = self.field
        q = self.q
        pts = []
        for x in F.elements():
            c = F.add(F.pow(x, q), x)
            pts.extend(ProjPoint(F, (x, y, 1)) for y in F.power_solutions(q + 1, c))
        pts.append(ProjPoint(F, (1, 0, 0)))  # the ideal point
        return pts


class GeneralizedGK(CurveModel):
    """The system  X^l + X = Y^(l+1),  Z^((l^n+1)/(l+1)) = Y^(l^2) - Y
    over F_{l^(2n)}, n >= 3 odd, plus one point at infinity."""

    def __init__(self, l, n):
        pk = is_prime_power(l)
        if pk is None:
            raise CurveError(f"{l} is not a prime power")
        if n < 3 or n % 2 == 0:
            raise CurveError("n must be an odd integer >= 3")
        self.p, k = pk
        self.l = l
        self.n = n
        self.q = l**n
        self.z_exp = (self.q + 1) // (l + 1)
        self.field = build_field(self.p, 2 * n * k)

    def __repr__(self):
        return f"GeneralizedGK(l={self.l}, n={self.n})"

    def genus(self):
        l, n = self.l, self.n
        return (l - 1) * (l ** (n + 1) + l**n - l * l) // 2

    def contains(self, point):
        """point: INFINITY, or a (field, x, y, z) tuple of affine coordinates."""
        if point == INFINITY:
            return True
        if not (isinstance(point, tuple) and len(point) == 4):
            raise CurveError("expected a (field, x, y, z) tuple or INFINITY")
        return self.contains_affine(*point)

    def contains_affine(self, F, x, y, z):
        self._check_char(F)
        l = self.l
        eq1 = F.add(F.pow(x, l), x) == F.pow(y, l + 1)
        eq2 = F.pow(z, self.z_exp) == F.sub(F.pow(y, l * l), y)
        return eq1 and eq2

    def count_rational_points(self):
        F = self.field
        l = self.l
        image_count = {}
        for x in F.elements():
            c = F.add(F.pow(x, l), x)
            image_count[c] = image_count.get(c, 0) + 1
        cnt = 0
        for y in F.elements():
            nx = image_count.get(F.pow(y, l + 1), 0)
            if nx:
                c = F.sub(F.pow(y, l * l), y)
                cnt += nx * len(F.power_solutions(self.z_exp, c))
        return cnt + 1  # unique point at infinity


class GarciaStichtenoth(CurveModel):
    """Plane model Y^(l^2-l+1) = X^(l^2) - X over F_{l^6}.

    The plane curve is singular at its ideal point; the nonsingular model
    has exactly one place there, so counts are affine solutions plus one.
    """

    def __init__(self, l):
        pk = is_prime_power(l)
        if pk is None:
            raise CurveError(f"{l} is not a prime power")
        self.p, k = pk
        self.l = l
        self.y_exp = l * l - l + 1
        self.field = build_field(self.p, 6 * k)

    def __repr__(self):
        return f"GarciaStichtenoth(l={self.l})"

    def genus(self):
        l = self.l
        return (l - 1) * (l**3 - l) // 2

    def contains(self, point):
        if point == INFINITY:
            return True
        if not isinstance(point, ProjPoint):
            raise CurveError("expected a projective point or INFINITY")
        F = point.field
        self._check_char(F)
        x, y, t = point.coords
        if t == 0:
            # the singular ideal point (0, 1, 0) carries the one place at infinity
            return x == 0
        return F.pow(y, self.y_exp) == F.sub(F.pow(x, self.l**2), x)

    def count_rational_points(self):
        F = self.field
        e = self.l**2
        cnt = 0
        for x in F.elements():
            c = F.sub(F.pow(x, e), x)
            cnt += len(F.power_solutions(self.y_exp, c))
        return cnt + 1  # one place above the ideal point
