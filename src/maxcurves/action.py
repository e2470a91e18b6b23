"""Group actions on Hermitian curves: fixed points, orbits, censuses, Sylow.

Fixed points come from eigen-analysis, never from curve enumeration: the
roots of the characteristic polynomial (degree 3) are found over the base
field; the irreducible rest has one root found in the quadratic or cubic
extension where its roots live, and the others are its Frobenius
conjugates.  One-dimensional eigenspaces give isolated fixed points;
two-dimensional ones give a pointwise-fixed line (homology or elation),
whose curve intersection is decided by the tangent/secant classification
through the polarity (and by enumeration in oracle tests at small q).
"""

from heapq import merge
from itertools import repeat

from .gf import build_field, embed, nullspace
from .polyroots import divmod_poly, one_root, roots
from .proj3 import ProjLine, ProjPoint, line_points, normalize, pole
from .pgu3 import Projectivity, SubgroupSpec, generate


class ActionError(ValueError):
    pass


class FixedPointSet:
    """Fixed points of one projectivity: kind 'all', 'points', or 'line'.

    kind 'points': up to three isolated fixed points, each tagged on-curve.
    kind 'line': a pointwise-fixed axis plus, for a homology, its center.
    """

    def __init__(self, kind, points=(), axis=None, center=None,
                 axis_curve_count=None, model=None):
        self.kind = kind
        self.points = list(points)  # [(ProjPoint, on_curve)]
        self.axis = axis
        self.center = center        # (ProjPoint, on_curve) or None
        self.axis_curve_count = axis_curve_count
        self.model = model

    def on_curve_count(self):
        if self.kind == "all":
            raise ActionError("the identity fixes the whole curve")
        n = sum(1 for _, on in self.points if on)
        if self.kind == "line":
            n += self.axis_curve_count
            if self.center is not None and self.center[1]:
                n += 1
        return n

    def curve_points(self, enumerate_axis=True):
        """The on-curve fixed points as ProjPoints (axis enumerated if needed)."""
        if self.kind == "all":
            raise ActionError("the identity fixes the whole curve")
        pts = [p for p, on in self.points if on]
        if self.kind == "line":
            if self.center is not None and self.center[1]:
                pts.append(self.center[0])
            if self.axis_curve_count:
                if not enumerate_axis:
                    raise ActionError("axis points requested without enumeration")
                pts.extend(p for p in line_points(self.axis)
                           if self.model.contains(p))
        return pts


def _cross(F, a, b):
    return (
        F.sub(F.mul(a[1], b[2]), F.mul(a[2], b[1])),
        F.sub(F.mul(a[2], b[0]), F.mul(a[0], b[2])),
        F.sub(F.mul(a[0], b[1]), F.mul(a[1], b[0])),
    )


def _axis_curve_count(axis, model):
    """|axis intersect curve| by the tangent/secant classification (the
    oracle tests compare this against enumeration at small q)."""
    P = pole(axis, model)
    return model.tangent_line_size() if model.contains(P) else model.secant_line_size()


def fixed_points(sigma: Projectivity, model) -> FixedPointSet:
    """Fixed points of sigma on PG(2), tagged by membership in the model."""
    F = sigma.field
    if F is not model.field:
        raise ActionError("element is not over the model's field")
    if sigma.is_identity():
        return FixedPointSet("all", model=model)
    cp = sigma.char_poly()
    eigendata = []  # (field, transported matrix entries, eigenvalue)
    rem = cp
    for lam in roots(F, cp):
        eigendata.append((F, sigma.m, lam))
        while True:  # divide out every factor X - lam
            quo, r = divmod_poly(F, rem, (F.neg(lam), 1))
            if r:
                break
            rem = quo
    if len(rem) - 1 > 0:
        # rem (monic, degree 2 or 3) has no root in F, so it is irreducible:
        # its roots are one Frobenius orbit in the degree-d extension
        d = len(rem) - 1
        E = build_field(F.p, F.k * d)
        tm = embed(F, E)
        m_e = tuple(tm(c) for c in sigma.m)
        lam = one_root(E, tuple(tm(c) for c in rem), E.k)
        lams = [lam]
        for _ in range(d - 1):
            lams.append(E.frobenius(lams[-1], F.k))
        eigendata.extend((E, m_e, lam) for lam in sorted(lams))
    isolated = []
    axis = None
    axis_field = None
    for E, m_e, lam in eigendata:
        shifted = list(m_e)
        for di in (0, 4, 8):
            shifted[di] = E.sub(shifted[di], lam)
        basis = nullspace(E, (shifted[0:3], shifted[3:6], shifted[6:9]))
        if len(basis) == 1:
            isolated.append(ProjPoint(E, basis[0]))
        elif len(basis) == 2:
            axis = ProjLine(E, _cross(E, basis[0], basis[1]))
            axis_field = E
    if axis is None:
        pts = [(P, model.contains(P)) for P in isolated]
        fps = FixedPointSet("points", pts, model=model)
    else:
        center = None
        if isolated:
            P = isolated[0]
            center = (P, model.contains(P))
        fps = FixedPointSet("line", axis=axis, center=center,
                            axis_curve_count=_axis_curve_count(axis, model),
                            model=model)
    return fps


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
    """Incidence data for a family of nontrivial elements acting on a curve."""

    def __init__(self, incidence, points, per_element, orbit_partition):
        self.incidence = incidence            # |I|: sum of on-curve fixed counts
        self.points = points                  # distinct on-curve fixed points
        self.per_element = per_element        # [(element, count)]
        self.orbit_partition = orbit_partition
        self.n_orbits = len(orbit_partition)

    @property
    def size(self):
        return len(self.points)

    def pointwise_incidence(self, elements):
        """Independent recount of |I|: sum over census points of the number
        of the given nontrivial elements fixing them.  Each pair is decided
        in the element's own field (`_pivot_forms`), with the entries as
        they are and no product in the point's field."""
        by_field = {}
        for g in elements:
            by_field.setdefault(g.field, []).append(g.m)
        count = 0
        for P in self.points:
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
    with the census set partitioned into orbits of `group`."""
    incidence = 0
    per_element = []
    census = []
    seen = set()
    for s in elements:
        if s.is_identity():
            continue
        fps = fixed_points(s, model)
        pts = fps.curve_points()
        incidence += len(pts)
        per_element.append((s, len(pts)))
        for P in pts:
            if P not in seen:
                seen.add(P)
                census.append(P)
    partition = orbits(group, census) if census else []
    return StabilizerCensus(incidence, census, per_element, partition)


def stabilizer_census(gbar: SubgroupSpec, g_normal: SubgroupSpec, model) -> StabilizerCensus:
    """Census over all nontrivial elements of gbar, with g_normal-orbits.

    g_normal must be normal in gbar (verified by conjugating generators).
    """
    if not g_normal.is_normal_in(gbar):
        raise ActionError("the designated subgroup is not normal")
    return family_census(gbar.nontrivial(), g_normal, model)


# -- restriction to a stabilized line -----------------------------------------


class Mat2:
    """A 2x2 projectivity (matrix mod scalars) over a field."""

    __slots__ = ("field", "m")

    def __init__(self, field, entries):
        m = tuple(entries)
        if not any(m):
            raise ActionError("zero 2x2 matrix")
        m = normalize(field, m)
        if field.sub(field.mul(m[0], m[3]), field.mul(m[1], m[2])) == 0:
            raise ActionError("singular 2x2 matrix")
        self.field = field
        self.m = m

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.field is other.field
                and self.m == other.m)

    def __hash__(self):
        return hash((id(self.field), "mat2", self.m))

    def __mul__(self, other):
        F = self.field
        a, b = self.m, other.m
        return Mat2(F, (
            F.add(F.mul(a[0], b[0]), F.mul(a[1], b[2])),
            F.add(F.mul(a[0], b[1]), F.mul(a[1], b[3])),
            F.add(F.mul(a[2], b[0]), F.mul(a[3], b[2])),
            F.add(F.mul(a[2], b[1]), F.mul(a[3], b[3])),
        ))

    def is_identity(self):
        return self.m == (1, 0, 0, 1)

    def __repr__(self):
        return f"Mat2[{self.m[0:2]}, {self.m[2:4]}]"


def line_image(sigma: Projectivity, line: ProjLine) -> ProjLine:
    """The image line: coordinates transform by the inverse matrix."""
    F = sigma.field
    inv = sigma.inverse().m
    l = line.coords
    out = []
    for i in range(3):
        acc = 0
        for j in range(3):
            acc = F.add(acc, F.mul(l[j], inv[3 * j + i]))
        out.append(acc)
    return ProjLine(F, out)


def _frame_to_infinity(line: ProjLine) -> Projectivity:
    """A change of frame carrying the line to T = 0 (third row = line coords)."""
    F = line.field
    j = next(i for i, c in enumerate(line.coords) if c)
    rows = []
    for i in range(3):
        if i != j:
            e = [0, 0, 0]
            e[i] = 1
            rows.append(tuple(e))
    rows.append(line.coords)
    return Projectivity(F, rows[0] + rows[1] + rows[2])


def restrict_to_line(sigma: Projectivity, line: ProjLine) -> Mat2:
    """The action induced on a stabilized line, as a 2x2 matrix mod scalars."""
    if line_image(sigma, line) != line:
        raise ActionError("element does not stabilize the line")
    F = sigma.field
    g = _frame_to_infinity(line)
    s = g * sigma * g.inverse()
    m = s.m
    if m[6] != 0 or m[7] != 0:
        raise ActionError("conjugated matrix does not fix T = 0 (unreachable)")
    return Mat2(F, (m[0], m[1], m[3], m[4]))


# -- Sylow analysis ------------------------------------------------------------


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def sylow_census(group: SubgroupSpec, p: int):
    """All Sylow p-subgroups, found as maximal p-subgroups by closure over
    the p-elements.  Returns (count, subgroups)."""
    if group.order % p != 0:
        raise ActionError(f"{p} does not divide the group order {group.order}")
    target = 1
    n = group.order
    while n % p == 0:
        n //= p
        target *= p
    p_elements = [g for g in group.elements if _is_p_power(g.order(), p)]
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
                if _is_p_power(trial.order, p):
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
        if not common:
            return []
    return sorted(common or [], key=lambda P: P.coords)


def sharply_2_transitive(group: SubgroupSpec, orbit) -> bool:
    """Regularity on ordered pairs: |G| = n(n-1) and trivial 2-point stabilizers.

    A trivial group on a single point is vacuously sharply 2-transitive
    (there are no ordered pairs to move).
    """
    orbit = list(orbit)
    n = len(orbit)
    orbits(group, orbit)  # raises ActionError unless the orbit is closed
    if n == 1 and group.order == 1:
        return True
    if group.order != n * (n - 1):
        return False
    for P in orbit:
        for Q in orbit:
            if P == Q:
                continue
            fixers = sum(1 for g in group.elements
                         if g.apply_point(P) == P and g.apply_point(Q) == Q)
            if fixers != 1:
                return False
    return True
