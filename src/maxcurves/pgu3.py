"""Projectivities of PG(2, F_{q^2}) modulo scalars, and small subgroups.

A Projectivity stores a 3x3 invertible matrix as a 9-tuple (row-major) in
canonical form: scaled so the first nonzero entry is 1.  All equality and
hashing goes through that form, so scalar multiples collapse to one object.
Element orders are computed from the exponent p^c lcm(Q^2 - 1, Q^3 - 1) of
PGL(3, Q), all prime parts from one product tree, rather than by naive
iteration.

Subgroup generation is breadth-first product saturation from the identity,
which is exact and deterministic for the group sizes this package handles
(a few hundred elements; the closure stops at CLOSURE_CAP = 2 * 10^6).
"""

from math import lcm, prod

from .numbertheory import factorize
from .proj3 import ProjPoint, _cross, normalize


class GroupError(ValueError):
    pass


def _matmul(F, a, b):
    """The row-major product of two 3x3 matrices given as 9-tuples."""
    add, mul = F.add, F.mul
    return tuple(add(add(mul(a[i], b[j]), mul(a[i + 1], b[j + 3])),
                     mul(a[i + 2], b[j + 6]))
                 for i in (0, 3, 6) for j in (0, 1, 2))


class Projectivity:
    __slots__ = ("field", "m", "_order", "_det")

    def __init__(self, field, entries):
        m = tuple(entries)
        if len(m) != 9:
            raise GroupError("expected nine matrix entries")
        if not any(m):
            raise GroupError("zero matrix")
        self.field = field
        self.m = normalize(field, m)
        self._order = None
        self._det = None
        if self.det() == 0:
            raise GroupError("singular matrix is not a projectivity")

    # -- basics -------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Projectivity) and self.field is other.field
                and self.m == other.m)

    def __hash__(self):
        return hash((id(self.field), self.m))

    def __repr__(self):
        r = self.m
        return f"Projectivity[{r[0:3]}, {r[3:6]}, {r[6:9]}]"

    @classmethod
    def identity(cls, field):
        return cls(field, (1, 0, 0, 0, 1, 0, 0, 0, 1))

    def is_identity(self):
        return self.m == (1, 0, 0, 0, 1, 0, 0, 0, 1)

    def det(self):
        """r0 . (r1 x r2) for the rows r0, r1, r2."""
        if self._det is None:
            F, m = self.field, self.m
            a0, a1, a2 = _cross(F, m[3:6], m[6:9])
            self._det = F.add(F.add(F.mul(m[0], a0), F.mul(m[1], a1)),
                              F.mul(m[2], a2))
        return self._det

    def __mul__(self, other):
        if self.field is not other.field:
            raise GroupError("projectivities over different fields")
        return Projectivity(self.field, _matmul(self.field, self.m, other.m))

    def inverse(self):
        """The adjugate, a scalar multiple of the inverse matrix: its columns
        are r1 x r2, r2 x r0 and r0 x r1 for the rows r0, r1, r2."""
        F, m = self.field, self.m
        r0, r1, r2 = m[0:3], m[3:6], m[6:9]
        columns = _cross(F, r1, r2), _cross(F, r2, r0), _cross(F, r0, r1)
        return Projectivity(F, (e for row in zip(*columns) for e in row))

    def __pow__(self, e):
        """self^e for an integer e >= 0, by square and multiply."""
        if e < 0:
            raise GroupError(f"negative exponent {e}: only e >= 0 is supported")
        r = Projectivity.identity(self.field)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def apply(self, coords):
        """Image of a homogeneous coordinate triple (raw tuple in, raw out)."""
        add, mul = self.field.add, self.field.mul
        m0, m1, m2, m3, m4, m5, m6, m7, m8 = self.m
        x, y, t = coords
        return (
            add(add(mul(m0, x), mul(m1, y)), mul(m2, t)),
            add(add(mul(m3, x), mul(m4, y)), mul(m5, t)),
            add(add(mul(m6, x), mul(m7, y)), mul(m8, t)),
        )

    def apply_point(self, point):
        return ProjPoint(point.field, self.apply(point.coords))

    def char_poly(self):
        """Coefficients (c0, c1, c2, 1) of det(tI - M), low degree first: c1
        is the sum of the three principal 2x2 minors."""
        F, m = self.field, self.m
        add, sub, mul = F.add, F.sub, F.mul
        tr = add(add(m[0], m[4]), m[8])
        c1 = add(add(sub(mul(m[4], m[8]), mul(m[5], m[7])),
                     sub(mul(m[0], m[8]), mul(m[2], m[6]))),
                 sub(mul(m[0], m[4]), mul(m[1], m[3])))
        return (F.neg(self.det()), c1, F.neg(tr), 1)

    def transport(self, tower_map):
        """The same projectivity with entries embedded into an extension."""
        return Projectivity(tower_map.dst, tuple(tower_map(e) for e in self.m))

    def order(self):
        """Least n >= 1 with self^n scalar, from the exponent of PGL(3, Q).

        The order divides E = p^c lcm(Q^2 - 1, Q^3 - 1), with p^c the least
        power of p that is at least 3.  Proof: a matrix g of the class has
        the Jordan-Chevalley decomposition g = su with s semisimple, u
        unipotent and su = us.  The eigenvalues of s are the roots of the
        characteristic cubic of g, so each lies in F_{Q^j} for some j <= 3
        and its multiplicative order divides Q^j - 1, which divides
        lcm(Q^2 - 1, Q^3 - 1); s is diagonalisable, so s^lcm = 1.  The 3x3
        nilpotent u - 1 has (u - 1)^3 = 0, so in characteristic p
        u^(p^c) = 1 + (u - 1)^(p^c) = 1.  Hence g^E = 1 already in GL(3, Q).

        The r-part of the order, for r^e exactly dividing E, is the order of
        self^(E / r^e), found by raising it to the r-th power until it is
        the identity.  All r-parts come from one product tree over the
        primes of E: a node holding a = self^(E / (its primes' parts))
        gives each half of its primes a raised to the other half's part, so
        the cost is O(log E log #primes) products, not O(log E #primes).
        """
        if self._order is None:
            F = self.field
            Q = F.order
            pc = F.p
            while pc < 3:
                pc *= F.p
            E = pc * lcm(Q**2 - 1, Q**3 - 1)
            self._order = _order_from_tree(self, factorize(E))
        return self._order


def _order_from_tree(a, factors):
    """Order of a, given that a^(prod r^e over `factors`) is the identity."""
    if a.is_identity():
        return 1
    if len(factors) == 1:
        (r, _), = factors
        order = 1
        while not a.is_identity():
            a = a ** r
            order *= r
        return order
    half = len(factors) // 2
    left, right = factors[:half], factors[half:]
    return (_order_from_tree(a ** prod(r**e for r, e in right), left)
            * _order_from_tree(a ** prod(r**e for r, e in left), right))


# -- the named generator shapes ---------------------------------------------


def make_alpha(field, theta, i):
    """diag(theta, theta^i, 1): (X, Y, T) -> (theta X, theta^i Y, T)."""
    if theta == 0:
        raise GroupError("theta must be nonzero")
    return Projectivity(field, (theta, 0, 0, 0, field.pow(theta, i), 0, 0, 0, 1))


def make_three_cycle(field, lam, mu, q):
    """The weighted 3-cycle with rows (0 lam 0 / 0 0 mu / 1 0 0) on the
    fundamental points.  Unitarity of the Fermat model demands
    lam^(q+1) = mu^(q+1) = 1, and violations raise.
    """
    if lam == 0 or mu == 0:
        raise GroupError("weights must be nonzero")
    if field.pow(lam, q + 1) != 1 or field.pow(mu, q + 1) != 1:
        raise GroupError("weights must be (q+1)-th roots of unity")
    return Projectivity(field, (0, lam, 0, 0, 0, mu, 1, 0, 0))


def make_beta(field, c, q3):
    """(X, Y, T) -> (X + cT, Y, T) over F_{q^6}, for c with the trace-zero
    condition c^(q^3) + c = 0 (unitarity for the norm-trace model)."""
    if field.add(field.pow(c, q3), c) != 0:
        raise GroupError("c fails the trace-zero condition")
    return Projectivity(field, (1, 0, c, 0, 1, 0, 0, 0, 1))


def make_alpha_a(field, a, q3):
    """(X, Y, T) -> (a^(q^3+1) X, a Y, T) over F_{q^6}."""
    if a == 0:
        raise GroupError("a must be nonzero")
    return Projectivity(field, (field.pow(a, q3 + 1), 0, 0, 0, a, 0, 0, 0, 1))


# -- unitarity ---------------------------------------------------------------


def unitarity_scalar(m: Projectivity, model):
    """The lambda with conj(M)^T H M = lambda H, or None if M is not unitary."""
    F = m.field
    if F is not model.field:
        raise GroupError("projectivity is not over the model's field")
    q = model.q
    H = tuple(F.const(e) for row in model.hermitian_gram() for e in row)
    a = m.m
    conj_t = tuple(F.pow(a[3 * j + i], q) for i in range(3) for j in range(3))
    B = _matmul(F, _matmul(F, conj_t, H), a)
    # lambda from the first nonzero entry of H; B = lambda H entrywise
    i = next(i for i, h in enumerate(H) if h)
    lam = F.div(B[i], H[i])
    return lam if B == tuple(F.mul(lam, h) for h in H) else None


def in_psu(m: Projectivity, model) -> bool:
    """True iff det(m), rescaled so the unitarity scalar is 1, is a cube."""
    lam = unitarity_scalar(m, model)
    if lam is None:
        raise GroupError("projectivity is not unitary for this model")
    F = m.field
    q = model.q
    # s^(q+1) = lambda^(-1) is solvable because lambda lies in F_q*
    s = F.nth_root(F.inv(lam), q + 1)
    det = F.mul(F.pow(s, 3), m.det())
    return F.is_dth_power(det, 3)


# -- subgroup generation -------------------------------------------------------


class SubgroupSpec:
    """A finite subgroup given by generators, with its full closure cached."""

    def __init__(self, generators, elements):
        self.generators = list(generators)
        self.elements = list(elements)  # BFS order, identity first
        self.element_set = set(elements)
        self.order = len(elements)

    def __len__(self):
        return self.order

    def nontrivial(self):
        return (g for g in self.elements if not g.is_identity())

    def is_subgroup_of(self, other):
        return self.element_set <= other.element_set

    def is_normal_in(self, other):
        """Conjugation test of this subgroup's generators by the other's elements."""
        return self.is_subgroup_of(other) and all(
            g * h * g.inverse() in self.element_set
            for g in other.elements for h in self.generators)


CLOSURE_CAP = 2_000_000


def generate(gens) -> SubgroupSpec:
    """Closure of the generators under products (breadth-first, deterministic)."""
    gens = list(gens)
    if not gens:
        raise GroupError("need at least one generator")
    F = gens[0].field
    for g in gens:
        if g.field is not F:
            raise GroupError("generators over different fields")
    ident = Projectivity.identity(F)
    seen = {ident}
    order_list = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    order_list.append(y)
                    new.append(y)
                    if len(seen) > CLOSURE_CAP:
                        raise GroupError(
                            f"closure exceeded the cap {CLOSURE_CAP}")
        frontier = new
    return SubgroupSpec(gens, order_list)
