import random

import pytest

from maxcurves.action import (ActionError, Mat2, _fixes, _pivot_forms,
                              common_fixed_curve_points, family_census,
                              fixed_points, is_semiregular, line_image,
                              orbits, restrict_to_line, sharply_2_transitive,
                              stabilizer_census, sylow_census)
from maxcurves.curves import FermatHermitian, NormTraceHermitian
from maxcurves.gf import GF, build_field, embed
from maxcurves.pgu3 import (GroupError, Projectivity, generate, make_alpha,
                            make_alpha_a, make_beta, make_three_cycle)
from maxcurves.polyroots import divmod_poly, roots
from maxcurves.proj3 import ProjLine, ProjPoint, all_points

random.seed(903)


def curve_point_list(model):
    return [P for P in all_points(model.field) if model.contains(P)]


def brute_fixed_on_curve(sigma, model):
    """Oracle: scan every rational curve point for sigma(P) = P."""
    return sorted(P.coords for P in curve_point_list(model)
                  if sigma.apply_point(P) == P)


def test_identity_fixes_all():
    model = FermatHermitian(4)
    fps = fixed_points(Projectivity.identity(model.field), model)
    assert fps.kind == "all"
    with pytest.raises(ActionError):
        fps.on_curve_count()


def test_alpha_fixes_fundamental_triangle_off_curve():
    F = build_field(2, 10)
    model = FermatHermitian(32)
    fps = fixed_points(make_alpha(F, F.root_of_unity(11), 2), model)
    assert fps.kind == "points"
    assert sorted(p.coords for p, _ in fps.points) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert fps.on_curve_count() == 0


def _fixes_point(g, P):
    """Reference: g and P over one field.  P is normalised, so its first
    nonzero coordinate is 1 and pivots the proportionality test: g(P) = a
    is a multiple of P iff a equals that pivot coordinate of a times P."""
    F, m = g.field, g.m
    mul, add = F.mul, F.add
    x, y, t = P.coords
    if x:  # P = (1, y, t)
        a0 = add(add(m[0], mul(m[1], y)), mul(m[2], t))
        if add(add(m[3], mul(m[4], y)), mul(m[5], t)) != mul(a0, y):
            return False
        return add(add(m[6], mul(m[7], y)), mul(m[8], t)) == mul(a0, t)
    if y:  # P = (0, 1, t)
        if add(m[1], mul(m[2], t)):
            return False
        return add(m[7], mul(m[8], t)) == mul(add(m[4], mul(m[5], t)), t)
    return m[2] == 0 and m[5] == 0  # P = (0, 0, 1)


def _fixes_by_cross_products(g, P):
    """Oracle: g(P) and P are proportional iff their three 2x2 minors vanish."""
    F = g.field
    a, b = g.apply(P.coords), P.coords
    return (F.mul(a[0], b[1]) == F.mul(a[1], b[0])
            and F.mul(a[0], b[2]) == F.mul(a[2], b[0])
            and F.mul(a[1], b[2]) == F.mul(a[2], b[1]))


def _pivot_test_elements(F, rng):
    gs = []
    while len(gs) < 12:
        try:
            gs.append(Projectivity(F, [rng.randrange(F.order)
                                       for _ in range(9)]))
        except GroupError:  # singular
            pass
    # diagonals (the identity and homologies among them) and elations fix
    # points in every chart of the pivot test
    units = [F.exp[i] for i in range(0, F.units, max(1, F.units // 4))]
    gs += [Projectivity(F, (1, 0, 0, 0, d, 0, 0, 0, e))
           for d in units for e in units]
    c = F.generator
    gs += [Projectivity(F, (1, c, 0, 0, 1, 0, 0, 0, 1)),
           Projectivity(F, (1, 0, 0, 0, 1, c, 0, 0, 1)),
           Projectivity(F, (1, 0, c, 0, 1, 0, 0, 0, 1)),
           Projectivity(F, (1, 0, 0, c, 1, 0, 0, 0, 1))]
    return gs


def _check_pivot_decisions(F, K, gs, points):
    """Elements over F, points over K: the pair decision in F (_pivot_forms,
    _fixes) and the reference in K after transport (_fixes_point) both
    agree with the cross products.  Returns the (chart, fixed, point has
    coordinates in F) triples seen."""
    tm = embed(F, K)
    image = {tm(a) for a in F.elements()}
    seen = set()
    for P in points:
        chart = P.coords.index(1)
        forms = _pivot_forms(P, tm)
        for g in gs:
            g_k = g.transport(tm)
            fixed = _fixes(F, g.m, forms)
            assert fixed == _fixes_by_cross_products(g_k, P), (g, P)
            assert fixed == _fixes_point(g_k, P), (g, P)
            seen.add((chart, fixed, set(P.coords) <= image))
    assert {(chart, fixed) for chart, fixed, _ in seen} == {
        (chart, fixed) for chart in range(3) for fixed in (False, True)}
    return seen


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 2)])
def test_pivot_fixes_point_matches_cross_products(p, k):
    F = build_field(p, k)
    gs = _pivot_test_elements(F, random.Random(p * 100 + k))
    _check_pivot_decisions(F, F, gs, all_points(F))


def test_pivot_forms_over_a_subfield_match_cross_products():
    # elements over F_4, points over F_64: every point of the charts X = 0,
    # those with coordinates in F_4, the fixed points in F_64 of the random
    # elements, and a sample
    F, K = build_field(2, 2), build_field(2, 6)
    rng = random.Random(226)
    gs = _pivot_test_elements(F, rng)
    image = [embed(F, K)(a) for a in F.elements()]
    eigen = [P for g in gs[:12]
             for P, _ in fixed_points(g, FermatHermitian(2)).points
             if P.field is K]
    points = list(all_points(K))
    points = ([P for P in points if P.coords[0] == 0]
              + [ProjPoint(K, (1, y, t)) for y in image for t in image]
              + eigen + rng.sample(points, 300))
    seen = _check_pivot_decisions(F, K, gs, points)
    # some fixed point lies outside the image of F_4
    assert any(fixed and not inside for _, fixed, inside in seen)


@pytest.mark.parametrize("q", [2, 4, 8])
def test_fixed_points_match_brute_force_scan(q):
    """Oracle equivalence at small q: eigen analysis vs full curve scan."""
    model = FermatHermitian(q)
    F = model.field
    elements = [make_alpha(F, F.root_of_unity(q + 1), 1),
                make_alpha(F, F.root_of_unity(q + 1), 2),
                make_three_cycle(F, 1, 1)]
    if (q + 1) % 3 == 0 and (q + 1) // 3 > 1:
        elements.append(make_alpha(F, F.root_of_unity((q + 1) // 3), 2))
    # a homology: repeated unit eigenvalue, secant axis
    elements.append(Projectivity(F, (1, 0, 0, 0, F.root_of_unity(q + 1), 0,
                                     0, 0, 1)))
    for sigma in elements:
        fps = fixed_points(sigma, model)
        rational = sorted(P.coords for P in fps.curve_points()
                          if P.field is F)
        assert rational == brute_fixed_on_curve(sigma, model)


def test_homology_axis_classification_matches_enumeration():
    model = FermatHermitian(4)
    F = model.field
    # diag(1, mu, 1): axis Y = 0, center (0, 1, 0) off the curve
    sigma = Projectivity(F, (1, 0, 0, 0, F.root_of_unity(5), 0, 0, 0, 1))
    fps = fixed_points(sigma, model)
    assert fps.kind == "line"
    assert fps.axis_curve_count == 5  # secant: q + 1
    assert fps.center is not None and not fps.center[1]
    assert len(brute_fixed_on_curve(sigma, model)) == 5


def test_beta_fixes_infinite_line_one_curve_point():
    F = build_field(2, 12)
    model = NormTraceHermitian(64)
    fps = fixed_points(make_beta(F, 1, conj_exp=64), model)
    assert fps.kind == "line"
    assert fps.axis.coords == (0, 0, 1)
    assert fps.axis_curve_count == 1  # tangent at the ideal point
    assert [P.coords for P in fps.curve_points()] == [(1, 0, 0)]


def test_semiregular_examples():
    F = build_field(2, 10)
    model = FermatHermitian(32)
    G = generate([make_alpha(F, F.root_of_unity(11), 2)])
    assert is_semiregular(G, model)
    F12 = build_field(2, 12)
    nt = NormTraceHermitian(64)
    withbeta = generate([make_beta(F12, 1, conj_exp=64)])
    assert not is_semiregular(withbeta, nt)
    trivial = generate([Projectivity.identity(F)])
    assert is_semiregular(trivial, model)


def test_semiregularity_forces_count_divisibility():
    # free action: the rational point count is a multiple of the group order
    F = build_field(2, 10)
    model = FermatHermitian(32)
    G = generate([make_alpha(F, F.root_of_unity(11), 2)])
    assert is_semiregular(G, model)
    assert model.count_rational_points() % G.order == 0
    assert 32**3 + 1 == 11 * 2979


def test_orbits_of_fundamental_triangle_under_three_cycle():
    F = build_field(2, 4)
    h = generate([make_three_cycle(F, 1, 1)])
    tri = [ProjPoint(F, (1, 0, 0)), ProjPoint(F, (0, 1, 0)),
           ProjPoint(F, (0, 0, 1))]
    parts = orbits(h, tri)
    assert len(parts) == 1 and len(parts[0]) == 3


def test_orbits_singleton_group():
    F = build_field(2, 4)
    trivial = generate([Projectivity.identity(F)])
    pts = [ProjPoint(F, (1, 0, 0)), ProjPoint(F, (1, 1, 1))]
    assert [len(o) for o in orbits(trivial, pts)] == [1, 1]


def test_orbits_rejects_unclosed_sets():
    F = build_field(2, 4)
    h = generate([make_three_cycle(F, 1, 1)])
    with pytest.raises(ActionError):
        orbits(h, [ProjPoint(F, (1, 0, 0))])
    with pytest.raises(ActionError):
        sharply_2_transitive(h, [ProjPoint(F, (1, 0, 0)),
                                 ProjPoint(F, (0, 1, 0))])


def reference_orbits(group, points):
    """The former two-pass partition: a closure pass per field, then each
    orbit grown from the least remaining point, orbits sorted at the end."""
    points = list(points)
    by_field = {}
    for P in points:
        by_field.setdefault(id(P.field), (P.field, set()))[1].add(P)
    out = []
    for _, (field, pts) in sorted(by_field.items(),
                                  key=lambda kv: kv[1][0].order):
        if group.field is field:
            gens = list(group.generators)
        else:
            tm = embed(group.field, field)
            gens = [g.transport(tm) for g in group.generators]
        for P in pts:
            for g in gens:
                if g.apply_point(P) not in pts:
                    raise ActionError("points are not closed under the action")
        remaining = set(pts)
        while remaining:
            seed = min(remaining, key=lambda p: p.coords)
            orbit = {seed}
            frontier = [seed]
            while frontier:
                nxt = []
                for P in frontier:
                    for g in gens:
                        Q = g.apply_point(P)
                        if Q not in orbit:
                            orbit.add(Q)
                            nxt.append(Q)
                frontier = nxt
            remaining -= orbit
            out.append(sorted(orbit, key=lambda p: p.coords))
    out.sort(key=lambda orb: orb[0].coords)
    return out


def n3_orbit_cases():
    """(group, points) inputs at n = 3: the curve under Gbar; the census,
    whose F_{2^18} points need transported generators; and a shuffled mix
    of both with the curve over a second F_{2^6} object of another modulus,
    where least representatives such as (0, 1, 1) tie across fields."""
    from maxcurves.checks import _triangolo_construction
    _, F, model, family, stab = _triangolo_construction(3)
    curve = model.rational_points()
    gbar = generate([make_alpha(F, F.root_of_unity(9), 2)])
    census = family_census(family, stab, model).points
    other = GF(2, 6, (1, 0, 0, 1, 0, 0, 1))  # X^6 + X^3 + 1, imprimitive
    mixed = curve + census + model.rational_points(other)
    random.Random(611).shuffle(mixed)
    return [(gbar, curve), (stab, census), (stab, mixed)]


def test_orbits_match_reference_partition():
    for group, pts in n3_orbit_cases():
        parts = orbits(group, pts)
        assert parts == reference_orbits(group, pts)
        ids = {id(P) for P in pts}
        assert all(id(Q) in ids for orbit in parts for Q in orbit)
    mixed = n3_orbit_cases()[2][1]
    assert len({P.field for P in mixed}) == 3


def test_orbits_keep_the_object_given_last_for_a_repeated_point():
    F = build_field(2, 4)
    h = generate([make_three_cycle(F, 1, 1)])
    first = ProjPoint(F, (0, 1, 0))
    tri = [ProjPoint(F, (1, 0, 0)), first, ProjPoint(F, (0, 0, 1))]
    # the same field and coordinates again, as a new object and scaled
    again = ProjPoint(F, (0, 2, 0))
    assert again == first and again is not first
    parts = orbits(h, tri + [again])
    assert len(parts) == 1 and len(parts[0]) == 3
    assert parts[0][1] is again
    assert not any(Q is first for Q in parts[0])
    # with the repeat given first, the original object is the one kept
    parts = orbits(h, [again] + tri)
    assert parts[0][1] is first
    # a mixed input: every repeat maps to its last object, in every orbit
    group, pts = n3_orbit_cases()[2]
    copies = [ProjPoint(P.field, P.coords) for P in pts[::7]]
    parts = orbits(group, pts + copies)
    assert parts == orbits(group, pts)
    kept = {id(Q) for orbit in parts for Q in orbit}
    assert all(id(Q) in kept for Q in copies)
    assert not any(id(P) in kept for P in pts[::7])


def orbit_confirms(group, pts):
    # orbit-stabilizer, as in the alpha-semiregular check
    return all(len(o) == group.order for o in orbits(group, pts))


def pairwise_scan(group, pts):
    return not any(_fixes_point(g, P)
                   for g in group.nontrivial() for P in pts)


def test_orbit_confirmation_matches_pairwise_scan_n3():
    from maxcurves.checks import run_check
    F = build_field(2, 6)
    model = FermatHermitian(8)
    pts = model.rational_points()
    theta = F.root_of_unity(3)
    for group in (generate([make_alpha(F, theta, 2)]),
                  generate([make_alpha(F, F.root_of_unity(9), 2)])):
        assert orbit_confirms(group, pts) and pairwise_scan(group, pts)
    # the homology diag(theta, theta, 1) fixes the q + 1 points on T = 0
    homology = generate([Projectivity(F, (theta, 0, 0, 0, theta, 0,
                                          0, 0, 1))])
    assert not orbit_confirms(homology, pts)
    assert not pairwise_scan(homology, pts)
    fixed = sorted(o[0].coords for o in orbits(homology, pts) if len(o) == 1)
    assert fixed == sorted(P.coords for P in pts if P.coords[2] == 0)
    assert len(fixed) == 9
    report = run_check("alpha-semiregular", {"ns": "3"})
    assert report.verdict == "pass"
    assert report.evidence["n3"]["scanned_points"] == 8**3 + 1
    assert report.evidence["n3"]["exhaustive_scan_confirms"]


@pytest.mark.slow
def test_orbit_confirmation_matches_pairwise_scan_n5():
    F = build_field(2, 10)
    model = FermatHermitian(32)
    pts = model.rational_points()
    for group in (generate([make_alpha(F, F.root_of_unity(11), 2)]),
                  generate([make_alpha(F, F.root_of_unity(33), 2)])):
        assert orbit_confirms(group, pts) and pairwise_scan(group, pts)


def test_orbit_stabilizer_identity():
    model = FermatHermitian(4)
    F = model.field
    G = generate([make_alpha(F, F.root_of_unity(5), 2),
                  make_three_cycle(F, 1, 1)])
    pts = curve_point_list(model)
    for orbit in orbits(G, pts):
        P = orbit[0]
        stab = sum(1 for g in G.elements if g.apply_point(P) == P)
        assert len(orbit) * stab == G.order


def test_stabilizer_census_semiregular_group_is_empty():
    F = build_field(2, 10)
    model = FermatHermitian(32)
    G = generate([make_alpha(F, F.root_of_unity(11), 2)])
    census = stabilizer_census(G, G, model)
    assert census.incidence == 0 and census.size == 0
    assert census.n_orbits == 0


def test_stabilizer_census_degenerate_nesting():
    model = FermatHermitian(4)
    F = model.field
    G = generate([make_alpha(F, F.root_of_unity(5), 2)])
    census = stabilizer_census(G, G, model)
    assert census.incidence == 0  # fundamental points are off the curve


def test_stabilizer_census_requires_normality():
    F = build_field(2, 18)
    model = FermatHermitian(512)
    xi = F.root_of_unity(57)
    zeta = F.root_of_unity(513)
    G = generate([make_alpha(F, xi, 8), make_three_cycle(F, zeta, 1, q=512)])
    H = generate([make_three_cycle(F, zeta, 1, q=512)])  # not normal in G
    with pytest.raises(ActionError):
        stabilizer_census(G, H, model)


def test_mini_census_n3():
    """The n = 3 instance of the weighted 3-cycle census: |I| = 4(q+1)/3,
    half as many points, two orbits of the diagonal stabilizer."""
    q = 8
    F = build_field(2, 6)
    model = FermatHermitian(q)
    theta = F.root_of_unity(3)
    zeta = F.root_of_unity(9)
    h = make_three_cycle(F, zeta, 1, q=q)
    family = []
    for j in (1, 2):
        s = make_alpha(F, F.pow(theta, j), 2) * h
        family.append(s)
        family.append(s * s)
    omega = F.root_of_unity(3)
    stab = generate([Projectivity(F, (omega, 0, 0, 0, F.mul(omega, omega), 0,
                                      0, 0, 1))])
    census = family_census(family, stab, model)
    assert census.incidence == 4 * (q + 1) // 3 == 12
    assert census.size == 2 * (q + 1) // 3 == 6
    assert census.n_orbits == 2
    assert sorted(len(o) for o in census.orbit_partition) == [3, 3]
    assert census.pointwise_incidence(family) == census.incidence
    # all census points lie in the cubic extension and on the curve
    assert {P.field.k for P in census.points} == {18}


def test_mini_census_same_for_other_three_cycle_shape():
    # the two 3-cycle shapes act as the two possible cycles on the
    # fundamental triangle; the census data is identical for either
    q = 8
    F = build_field(2, 6)
    model = FermatHermitian(q)
    theta = F.root_of_unity(3)
    zeta = F.root_of_unity(9)
    results = []
    for shape in (1, 2):
        h = make_three_cycle(F, zeta, 1, q=q, shape=shape)
        family = []
        for j in (1, 2):
            s = make_alpha(F, F.pow(theta, j), 2) * h
            family.extend([s, s * s])
        omega = F.root_of_unity(3)
        stab = generate([Projectivity(F, (omega, 0, 0, 0,
                                          F.mul(omega, omega), 0, 0, 0, 1))])
        census = family_census(family, stab, model)
        results.append((census.incidence, census.size, census.n_orbits))
    assert results[0] == results[1] == (12, 6, 2)


def test_census_double_count_against_brute_force_n3():
    # independent recount on the same family through raw point fixing
    q = 8
    F = build_field(2, 6)
    model = FermatHermitian(q)
    theta = F.root_of_unity(3)
    h = make_three_cycle(F, F.root_of_unity(9), 1, q=q)
    family = []
    for j in (1, 2):
        s = make_alpha(F, F.pow(theta, j), 2) * h
        family.extend([s, s * s])
    stab = generate([Projectivity.identity(F)])
    census = family_census(family, stab, model)
    by_points = census.pointwise_incidence(family)
    by_elements = sum(c for _, c in census.per_element)
    assert by_points == by_elements == census.incidence


def _pair_decisions(points, family):
    """Each (point, element) pair decided both ways: in the element's field
    (_pivot_forms, _fixes) and by _fixes_point after transport."""
    out = []
    for P in points:
        tm = embed(family[0].field, P.field)
        forms = _pivot_forms(P, tm)
        for g in family:
            out.append((_fixes(g.field, g.m, forms),
                        _fixes_point(g.transport(tm), P)))
    return out


def test_recount_matches_fixes_point_on_every_pair_n3():
    # the census points lie in F_{2^18} over the family's F_{2^6}; the
    # rational curve points lie in F_{2^6} itself
    from maxcurves.checks import _triangolo_construction
    _, F, model, family, stab = _triangolo_construction(3)
    census = family_census(family, stab, model)
    decisions = _pair_decisions(census.points, family)
    assert all(new == ref for new, ref in decisions)
    assert census.pointwise_incidence(family) == sum(
        ref for _, ref in decisions) == 12
    rational = _pair_decisions(model.rational_points(), family)
    assert len(rational) == 4 * (8**3 + 1)
    assert all(new == ref for new, ref in rational)
    # the family has no rational fixed point on the curve
    assert not any(ref for _, ref in rational)


@pytest.mark.slow
def test_recount_matches_fixes_point_on_every_pair_n9():
    from maxcurves.checks import _triangolo_construction
    _, F, model, family, stab = _triangolo_construction(9)
    census = family_census(family, stab, model)
    decisions = _pair_decisions(census.points, family)
    assert len(decisions) == 342 * 228 == 77976
    assert all(new == ref for new, ref in decisions)
    assert census.pointwise_incidence(family) == sum(
        ref for _, ref in decisions) == 684


def test_eigenvalues_match_roots_on_the_n3_census_family():
    # fixed_points finds one root of the irreducible char-poly part and takes
    # its Frobenius conjugates; the reference is roots() over both fields,
    # in its order (base-field roots first, each list ascending)
    from maxcurves.checks import _triangolo_construction
    _, F, model, family, _ = _triangolo_construction(3)
    for s in family:
        cp = s.char_poly()
        base = roots(F, cp)
        rem = cp
        for lam in base:
            quo, r = divmod_poly(F, rem, (F.neg(lam), 1))
            while not r:
                rem = quo
                quo, r = divmod_poly(F, rem, (F.neg(lam), 1))
        E = build_field(2, F.k * (len(rem) - 1))
        tm = embed(F, E)
        expected = base + roots(E, tuple(tm(c) for c in rem))
        fps = fixed_points(s, model)
        assert fps.kind == "points"
        got = []
        for P, _ in fps.points:
            G = P.field
            m = [tm(c) for c in s.m] if G is E else s.m
            v = P.coords
            i = next(i for i, c in enumerate(v) if c)
            acc = 0
            for j in range(3):
                acc = G.add(acc, G.mul(m[3 * i + j], v[j]))
            got.append(G.div(acc, v[i]))
        assert got == expected


def test_restrict_to_line_basics():
    F = build_field(2, 10)
    line = ProjLine(F, (0, 0, 1))
    ident = Projectivity.identity(F)
    assert restrict_to_line(ident, line).is_identity()
    theta = F.root_of_unity(11)
    a = make_alpha(F, theta, 2)
    r = restrict_to_line(a, line)
    assert r == Mat2(F, (theta, 0, 0, F.pow(theta, 2)))


def test_restrict_to_line_homomorphism_random_pairs():
    F = build_field(2, 10)
    line = ProjLine(F, (0, 0, 1))
    G = generate([make_alpha(F, F.root_of_unity(33), 2)])
    els = G.elements
    for _ in range(100):
        a, b = random.choice(els), random.choice(els)
        assert restrict_to_line(a * b, line) == \
            restrict_to_line(a, line) * restrict_to_line(b, line)


def test_restrict_to_line_requires_stabilization():
    F = build_field(2, 10)
    h = make_three_cycle(F, 1, 1)
    line = ProjLine(F, (0, 0, 1))
    assert line_image(h, line) != line
    with pytest.raises(ActionError):
        restrict_to_line(h, line)


def test_restrict_to_general_line_via_frame_change():
    F = build_field(2, 4)
    line = ProjLine(F, (1, 0, 0))  # X = 0, stabilized by diagonals
    a = make_alpha(F, F.root_of_unity(5), 2)
    r = restrict_to_line(a, line)
    b = make_alpha(F, F.root_of_unity(5), 3)
    assert restrict_to_line(a * b, line) == r * restrict_to_line(b, line)


def order20_group():
    F = build_field(2, 12)
    kernel = [c for c in F.elements() if F.add(F.pow(c, 64), c) == 0]
    u = min(c for c in kernel if c not in (0, 1))
    return F, generate([make_beta(F, 1, conj_exp=64),
                        make_beta(F, u, conj_exp=64),
                        make_alpha_a(F, F.root_of_unity(5), 64)])


def test_sylow_census_cyclic_group():
    F = build_field(2, 10)
    G = generate([make_alpha(F, F.root_of_unity(11), 2)])
    count, sylows = sylow_census(G, 11)
    assert count == 1 and sylows[0].order == 11


def test_sylow_census_order20_group():
    F, G = order20_group()
    assert G.order == 20
    count, sylows = sylow_census(G, 2)
    assert count == 1 and sylows[0].order == 4
    model = NormTraceHermitian(64)
    fixed = common_fixed_curve_points(sylows[0], model)
    assert [P.coords for P in fixed] == [(1, 0, 0)]
    assert len(orbits(G, fixed)) == 1  # a single orbit
    assert not sharply_2_transitive(G, fixed)  # orbit of length 1


def test_sylow_census_requires_dividing_prime():
    F, G = order20_group()
    with pytest.raises(ActionError):
        sylow_census(G, 3)


def test_sharply_2_transitive_cases():
    F = build_field(2, 4)
    trivial = generate([Projectivity.identity(F)])
    single = [ProjPoint(F, (1, 0, 0))]
    assert sharply_2_transitive(trivial, single)  # vacuous
    G = generate([make_alpha(F, F.root_of_unity(5), 2)])
    tri = [ProjPoint(F, (1, 0, 0)), ProjPoint(F, (0, 1, 0)),
           ProjPoint(F, (0, 0, 1))]
    assert not sharply_2_transitive(G, tri)  # not even transitive
