"""Group actions on Hermitian curves: fixed points, orbits, censuses, Sylow.

Fixed points come from eigen-analysis, never from curve enumeration: the
roots of the characteristic polynomial (degree 3) are found over the base
field; the irreducible rest has one root found in the quadratic or cubic
extension where its roots live, and the others are its Frobenius
conjugates.  They are found once per distinct characteristic polynomial
and field (`_eigenvalues`): the roots in F and the irreducible rest are
kept on F under the polynomial, and the rest's roots on the extension E
under (F, rest), so a field rebuilt under a modulus override starts with
an empty memo and never serves another field's roots.  Each eigenspace
is read off the rows of M - lam I through cross products
(`proj3._cross`), with no elimination: a one-dimensional one is an
isolated fixed point; a two-dimensional one is a pointwise-fixed line
(homology or elation), kept as its normalised coordinate triple,
whose curve intersection is decided by the tangent/secant classification
(`proj3.pole`: one point, the pole itself, if the pole lies on the curve,
else q + 1, which are enumerated; the oracle tests compare with
enumeration at small q).  The identity, which fixes every point, is
refused.

The restriction behind the homomorphism into PGL(2, q^2) is taken on the
line T = 0 only, the line the diagonal groups stabilise.
"""

from collections import Counter
from heapq import merge
from itertools import repeat

from .gf import build_field, embed
from .numbertheory import _in_two
from .polyroots import divmod_poly, one_root, roots
from .proj3 import ProjPoint, _cross, line_points, normalize, pole
from .pgu3 import Projectivity, SubgroupSpec, _matmul, generate


class ActionError(ValueError):
    pass


class FixedPointSet:
    """Fixed points of one nonidentity projectivity: the isolated fixed
    points, each tagged on-curve, and for a homology or an elation the
    pointwise-fixed axis.  A homology's center is one of the points."""

    def __init__(self, points, axis, model):
        self.points = list(points)  # [(ProjPoint, on_curve)]
        self.axis = axis  # normalised line coordinates over model.field
        self.model = model
        self.pole = None if axis is None else pole(axis, model)
        # |axis intersect curve| by the tangent/secant classification (the
        # oracle tests compare this against enumeration at small q)
        self.axis_curve_count = 0 if axis is None else (
            1 if model.contains(self.pole) else model.q + 1)

    @property
    def kind(self):
        return "points" if self.axis is None else "line"

    def on_curve_count(self):
        return sum(1 for _, on in self.points if on) + self.axis_curve_count

    def curve_points(self):
        """The on-curve fixed points as ProjPoints.  A tangent axis meets
        the curve only at its pole; a secant axis is enumerated."""
        pts = [p for p, on in self.points if on]
        if self.axis_curve_count == 1:
            pts.append(self.pole)
        elif self.axis_curve_count:
            pts.extend(p for p in line_points(self.model.field, self.axis)
                       if self.model.contains(p))
        return pts


def fixed_points(sigma: Projectivity, model) -> FixedPointSet:
    """Fixed points of sigma on PG(2), tagged by membership in the model.

    For each eigenvalue lam, N = M - lam I has rank 2 or 1.  Of rank 2, its
    kernel is spanned by the first nonzero cross product of two rows (a
    column of the adjugate of N), an isolated fixed point; of rank 1, its
    nonzero row holds the line coordinates of the pointwise-fixed axis,
    kept as their normalised triple.  The axis is always over F: rank 1
    needs lam of algebraic multiplicity at least 2, and a cubic over F
    can have such a root only in F."""
    F = sigma.field
    if F is not model.field:
        raise ActionError("element is not over the model's field")
    if sigma.is_identity():
        raise ActionError("the identity fixes every point")
    base, tm, rest = _eigenvalues(F, sigma.char_poly())
    # (field, transported matrix entries, eigenvalue)
    eigendata = [(F, sigma.m, lam) for lam in base]
    if rest:
        m_e = tuple(tm(c) for c in sigma.m)
        eigendata.extend((tm.dst, m_e, lam) for lam in rest)
    points = []
    axis = None
    for E, m, lam in eigendata:
        rows = ((E.sub(m[0], lam), m[1], m[2]), (m[3], E.sub(m[4], lam), m[5]),
                (m[6], m[7], E.sub(m[8], lam)))
        crosses = (_cross(E, rows[i], rows[j])
                   for i, j in ((1, 2), (2, 0), (0, 1)))
        kernel = next((v for v in crosses if any(v)), None)
        if kernel is None:
            axis = normalize(F, next(r for r in rows if any(r)))
        else:
            P = ProjPoint(E, kernel)
            points.append((P, model.contains(P)))
    return FixedPointSet(points, axis, model)


def _eigenvalues(F, cp):
    """The eigenvalues of the characteristic polynomial cp over F, as
    (roots in F, embed(F, E), roots in E): the roots in F in `roots`
    order, and the roots of the rest, ascending, in the extension E where
    they live (None and () when every root is in F).

    The roots in F and the rest are kept in `F._roots_cache` under cp.
    E is looked up afresh on every call, since a modulus override rebuilds
    it, and the rest's roots are kept in `E._roots_cache` under (F, rest),
    so neither field ever serves roots over another.  The values are
    tuples, which no caller can change."""
    memo = F._roots_cache.get(cp)
    if memo is None:
        base = tuple(roots(F, cp))
        rem = cp
        for lam in base:
            while True:  # divide out every factor X - lam
                quo, r = divmod_poly(F, rem, (F.neg(lam), 1))
                if r:
                    break
                rem = quo
        memo = F._roots_cache[cp] = (base, rem)
    base, rem = memo
    d = len(rem) - 1
    if d == 0:
        return base, None, ()
    # rem (monic, degree 2 or 3) has no root in F, so it is irreducible:
    # its roots are one Frobenius orbit in the degree-d extension
    E = build_field(F.p, F.k * d)
    tm = embed(F, E)
    rest = E._roots_cache.get((F, rem))
    if rest is None:
        lams = [one_root(E, tuple(tm(c) for c in rem), E.k)]
        for _ in range(d - 1):
            lams.append(E.frobenius(lams[-1], F.k))
        rest = E._roots_cache[(F, rem)] = tuple(sorted(lams))
    return base, tm, rest


def is_semiregular(group: SubgroupSpec, model) -> bool:
    """True iff no nontrivial element fixes a point of the curve."""
    return all(fixed_points(s, model).on_curve_count() == 0
               for s in group.nontrivial())


def _transported(field, elements, memo):
    """The elements with their entries embedded into `field`, memoised per
    field object in `memo`."""
    if field not in memo:
        memo[field] = [g if g.field is field else g.transport(embed(g.field, field))
                       for g in elements]
    return memo[field]


def orbits(group: SubgroupSpec, points):
    """Partition of the points into group orbits, in one pass.

    The points must be closed under the action (checked on every image).
    Orbits hold the caller's point objects, the last one given for each
    field and coordinates; each orbit is sorted, and orbits are listed by
    their least representative, ties between fields broken by field order,
    then by first appearance.  The search runs on normalised coordinate
    tuples, one map {coords: point} per field, with no point built per
    image.
    """
    by_field = {}
    for P in points:
        by_field.setdefault(P.field, {})[P.coords] = P
    # seeds by least coordinates, ties by field order and then by first
    # appearance: each field's sorted coordinates, merged by field rank
    fields = sorted(by_field, key=lambda K: K.order)
    seeds = merge(*(zip(sorted(by_field[K]), repeat(n))
                    for n, K in enumerate(fields)))
    memo = {}
    out = []
    for seed, n in seeds:
        K = fields[n]
        remaining = by_field[K]
        if seed not in remaining:
            continue
        applies = [g.apply for g in _transported(K, group.generators, memo)]
        members = {seed: remaining.pop(seed)}
        orbit = [seed]
        for x in orbit:  # breadth first: the list grows while it is read
            for apply in applies:
                y = normalize(K, apply(x))
                if y in members:
                    continue
                # a finished orbit is closed, so no generator maps a point
                # outside it into it: an image neither in this orbit nor
                # remaining is not one of the points
                Q = remaining.pop(y, None)
                if Q is None:
                    raise ActionError("points are not closed under the action")
                members[y] = Q
                orbit.append(y)
        out.append([members[x] for x in sorted(orbit)])
    return out


class StabilizerCensus:
    """Incidence data for a family of nontrivial elements acting on a curve,
    with the group whose orbits partition the census points."""

    def __init__(self, incidence, points, per_element, orbit_partition, group):
        self.incidence = incidence            # |I|: sum of on-curve fixed counts
        self.points = points                  # distinct on-curve fixed points
        self.per_element = per_element        # [(element, count)]
        self.orbit_partition = orbit_partition
        self.n_orbits = len(orbit_partition)
        self.group = group

    @property
    def size(self):
        return len(self.points)

    def pointwise_incidence(self, elements):
        """Independent recount of |I|: sum over census points of the number
        of the given elements fixing them.  Each pair is decided in the
        element's own field (`_pivot_forms`), with the entries as they are
        and no product in the point's field, in this process.

        If conjugation by each generator h of the census group permutes
        the elements (`_conjugation_permutes`, decided on every call), so
        does conjugation by every element of the group, and g fixes hP
        exactly when h^-1 g h fixes P: every point of an orbit is fixed by
        as many elements.  Then one point per orbit is recounted, weighted
        by the orbit's size; otherwise every point, with weight 1."""
        by_field = {}
        for g in elements:
            by_field.setdefault(g.field, []).append(g.m)
        if _conjugation_permutes(by_field, self.group.generators):
            weighted = [(o[0], len(o)) for o in self.orbit_partition]
        else:
            weighted = [(P, 1) for P in self.points]
        return sum(w * _fixing_pairs([P], by_field) for P, w in weighted)


def _conjugation_permutes(by_field, generators):
    """Does m -> h m h^-1 permute the element entries of each field
    ({field: [m]}, as a multiset) for every generator h?  The generators
    are embedded into each field, and each one's inverse is taken once
    per field."""
    memo = {}
    for E, ms in by_field.items():
        family = Counter(ms)
        for h in _transported(E, generators, memo):
            hm, h_inv = h.m, h.inverse().m
            if Counter(normalize(E, _matmul(E, _matmul(E, hm, m), h_inv))
                       for m in ms) != family:
                return False
    return True


def _fixing_pairs(points, by_field):
    """The number of (point, element) pairs with the element fixing the
    point, for element entries grouped by field ({field: [m]})."""
    count = 0
    for P in points:
        for E, ms in by_field.items():
            forms = _pivot_forms(P, embed(E, P.field))
            count += sum(1 for m in ms if _fixes(E, m, forms))
    return count


def _pivot_forms(P, tm):
    """The equations over tm.src that say an element g over tm.src fixes P.

    P lies over tm.dst and is normalised, so its first nonzero coordinate
    P_pi is 1, and g(P) is a multiple of P iff for each j != pi
        Sum_a m[3j+a] P_a - P_j Sum_a m[3pi+a] P_a = 0.
    With P_a and P_j P_a written in coordinates over tm.src
    (`TowerMap.coordinates`), the left side has coordinate
        Sum_a m[3j+a] u_a - Sum_a m[3pi+a] w_a
    at each i < tm.degree, for u_a and w_a the i-th coordinates of P_a and
    of P_j P_a, and it vanishes iff all of them do.  Returns (3 pi, rows)
    with one row (3j, u_0, u_1, u_2, w_0, w_1, w_2) per pair (j, i).
    """
    K, x = P.field, P.coords
    piv = 0 if x[0] else 1 if x[1] else 2
    u = [tm.coordinates(c) for c in x]
    rows = []
    for j in range(3):
        if j != piv:
            w = [tm.coordinates(K.mul(x[j], c)) for c in x]
            rows.extend((3 * j, u[0][i], u[1][i], u[2][i],
                         w[0][i], w[1][i], w[2][i])
                        for i in range(tm.degree))
    return 3 * piv, rows


def _fixes(F, m, forms):
    """Does the element with entries m over F fix the point of `forms`
    (`_pivot_forms`)?  Stops at the first nonzero coordinate."""
    p3, rows = forms
    mul, add = F.mul, F.add
    r0, r1, r2 = m[p3], m[p3 + 1], m[p3 + 2]
    for j3, u0, u1, u2, w0, w1, w2 in rows:
        row = add(add(mul(m[j3], u0), mul(m[j3 + 1], u1)), mul(m[j3 + 2], u2))
        piv = add(add(mul(r0, w0), mul(r1, w1)), mul(r2, w2))
        if row != piv:
            return False
    return True


def family_census(elements, group: SubgroupSpec, model) -> StabilizerCensus:
    """Census of the on-curve fixed points of an explicit element family,
    with the census set partitioned into orbits of `group`, which the
    census keeps for its recount (`pointwise_incidence`, which forks no
    child).

    The identity is skipped.  The fixed points of the two halves of the
    rest are found in two processes, the upper half in a forked child
    (`numbertheory._in_two`); this is the only loop of a census that
    forks.  The halves are cut from the elements sorted by characteristic
    polynomial, so that elements with equal polynomials share one process
    and its eigenvalue memo (`_eigenvalues`); the results are put back in
    element order.  The counts, the points (over
    the same field objects), their order, the orbits and any error are
    the serial ones."""
    elements = [s for s in elements if not s.is_identity()]
    order = sorted(range(len(elements)),
                   key=lambda i: elements[i].char_poly())
    lower, upper = _in_two(_curve_points_of, [elements[i] for i in order],
                           model)
    found_by_element = [None] * len(elements)
    for i, found in zip(order, lower + upper):
        found_by_element[i] = found
    # a point lies over the model's field or over an extension of it,
    # which build_field shares; each field is looked up once
    F = model.field
    fields = {F.k: F}
    incidence = 0
    per_element = []
    census = []
    seen = set()
    for s, found in zip(elements, found_by_element):
        incidence += len(found)
        per_element.append((s, len(found)))
        for k, coords in found:
            K = fields.get(k)
            if K is None:
                K = fields[k] = build_field(F.p, k)
            P = ProjPoint(K, coords)
            if P not in seen:
                seen.add(P)
                census.append(P)
    partition = orbits(group, census) if census else []
    return StabilizerCensus(incidence, census, per_element, partition, group)


def _curve_points_of(elements, model):
    """For each element, its on-curve fixed points as (field degree,
    coordinates) pairs, in `curve_points` order."""
    return [[(P.field.k, P.coords) for P in fixed_points(s, model).curve_points()]
            for s in elements]


# -- restriction to the stabilized line T = 0 ---------------------------------


def mul2(F, a, b):
    """The product of two restrictions (normalised 4-tuples, row-major),
    normalised."""
    return normalize(F, (
        F.add(F.mul(a[0], b[0]), F.mul(a[1], b[2])),
        F.add(F.mul(a[0], b[1]), F.mul(a[1], b[3])),
        F.add(F.mul(a[2], b[0]), F.mul(a[3], b[2])),
        F.add(F.mul(a[2], b[1]), F.mul(a[3], b[3])),
    ))


def restrict_to_infinity(sigma: Projectivity):
    """The action induced on the line T = 0, which sigma must stabilise:
    the 2x2 matrix mod scalars, as the normalised row-major 4-tuple.  It is
    invertible, since det sigma = m[8] times its determinant."""
    m = sigma.m
    if m[6] != 0 or m[7] != 0:
        raise ActionError("element does not stabilize the line T = 0")
    return normalize(sigma.field, (m[0], m[1], m[3], m[4]))


# -- Sylow analysis ------------------------------------------------------------


def _p_part(n, p):
    """The largest power of p that divides n."""
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def _p_elements(group: SubgroupSpec, p: int):
    """The elements of p-power order: the g with g^(p^a) the identity,
    for p^a the p-part of |G|, since the order of g divides |G|
    (Lagrange)."""
    part = _p_part(group.order, p)
    return [g for g in group.elements if (g ** part).is_identity()]


def sylow_census(group: SubgroupSpec, p: int):
    """All Sylow p-subgroups, found as maximal p-subgroups by closure over
    the p-elements.  Returns (count, subgroups)."""
    if group.order % p != 0:
        raise ActionError(f"{p} does not divide the group order {group.order}")
    target = _p_part(group.order, p)
    p_elements = _p_elements(group, p)
    sylows = []
    seen = set()
    for x in p_elements:
        if x.is_identity():
            continue
        current = generate([x])
        grown = True
        while grown and current.order < target:
            grown = False
            for y in p_elements:
                if y in current.element_set:
                    continue
                trial = generate(current.generators + [y])
                if _p_part(trial.order, p) == trial.order:
                    current = trial
                    grown = True
                    break
        key = frozenset(g.m for g in current.elements)
        if key not in seen:
            seen.add(key)
            sylows.append(current)
    if not sylows:
        raise ActionError("no nontrivial p-elements found")
    return len(sylows), sylows


def common_fixed_curve_points(subgroup: SubgroupSpec, model):
    """Curve points fixed by every nontrivial element of the subgroup."""
    common = None
    for s in subgroup.nontrivial():
        pts = set(fixed_points(s, model).curve_points())
        common = pts if common is None else (common & pts)
    return sorted(common or [], key=lambda P: P.coords)


def sharply_2_transitive(group: SubgroupSpec, orbit) -> bool:
    """Regularity on ordered pairs: |G| = n(n-1) and trivial 2-point stabilizers.

    One pair is enough: on a closed set of n points with |G| = n(n-1), a
    trivial stabilizer of one ordered pair gives it an orbit of all n(n-1)
    ordered pairs (orbit-stabilizer), so every pair stabilizer is a
    conjugate of it.  A trivial group on a single point is vacuously
    sharply 2-transitive (there are no ordered pairs to move).
    """
    orbit = list(orbit)
    n = len(orbit)
    orbits(group, orbit)  # raises ActionError unless the orbit is closed
    if group.order != n * (n - 1):
        return n == 1 and group.order == 1
    P, Q = orbit[0], orbit[1]
    return sum(1 for g in group.elements
               if g.apply_point(P) == P and g.apply_point(Q) == Q) == 1
