import os
import random

import pytest

from maxcurves import action, gf, numbertheory

from maxcurves.action import (ActionError, FixedPointSet, StabilizerCensus,
                              _fixes, _p_elements, _pivot_forms,
                              common_fixed_curve_points, family_census,
                              fixed_points, is_semiregular, mul2, orbits,
                              restrict_to_infinity, sharply_2_transitive,
                              sylow_census)
from maxcurves.curves import FermatHermitian, NormTraceHermitian
from maxcurves.gf import (GF, build_field, clear_modulus_overrides, embed,
                          set_modulus_override)
from maxcurves.pgu3 import (GroupError, Projectivity, generate, make_alpha,
                            make_alpha_a, make_beta, make_three_cycle)
from maxcurves.polyroots import divmod_poly, roots
from maxcurves.proj3 import ProjPoint, line_points
from oracles import (all_points, full_recount, leibniz_det,
                     seed_merge_orbits)

random.seed(903)


def curve_point_list(model):
    return [P for P in all_points(model.field) if model.contains(P)]


def brute_fixed_on_curve(sigma, model):
    """Oracle: scan every rational curve point for sigma(P) = P."""
    return sorted(P.coords for P in curve_point_list(model)
                  if sigma.apply_point(P) == P)


def test_identity_fixes_all():
    # every point is fixed, so there is no fixed-point set to return
    model = FermatHermitian(4)
    with pytest.raises(ActionError):
        fixed_points(Projectivity.identity(model.field), model)


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


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4)])
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


def _rank_cases(g, F):
    """For each eigenvalue lam in F of g, the case of N = M - lam I that
    fixed_points meets: ("rank 1", its first nonzero row) or ("rank 2",
    a zero row of it), from the definitions and a scan of F."""
    m = g.m
    cases = set()
    for lam in F.elements():
        rows = [[F.sub(m[3 * i + j], lam if i == j else 0) for j in range(3)]
                for i in range(3)]
        if leibniz_det(F, rows):
            continue
        minors = [leibniz_det(F, [[r[c] for c in cols] for r in pair])
                  for pair in ((rows[0], rows[1]), (rows[0], rows[2]),
                               (rows[1], rows[2]))
                  for cols in ((0, 1), (0, 2), (1, 2))]
        nonzero = [i for i in range(3) if any(rows[i])]
        if not any(minors):
            cases.add(("rank 1", nonzero[0]))
        else:
            cases.update(("rank 2", i) for i in range(3) if i not in nonzero)
    return cases


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 2)])
def test_rational_fixed_points_match_a_scan(p, k):
    """The F-rational fixed points that fixed_points reports (its isolated
    points over F and the points of its axis) are the points of PG(2, F)
    with g(P) = P.  Random elements, homologies diag(d, 1, 1) in all three
    positions and elations in all three rows make N = M - lam I of rank 1
    with its nonzero row, and of rank 2 with a zero row, in every
    position."""
    F = build_field(p, k)
    model = FermatHermitian(p ** (k // 2))
    assert model.field is F
    rng = random.Random(p * 100 + k)
    gs = _pivot_test_elements(F, rng)[:12]
    units = [u for u in F.elements() if u]
    for i in range(3):
        for d in units[1:]:
            gs.append(Projectivity(F, [d if j == 4 * i else 1 if j % 4 == 0
                                       else 0 for j in range(9)]))
        for c in units[:2]:
            gs.append(Projectivity(F, [1 if j % 4 == 0 else c
                                       if j == 3 * i + (i + 1) % 3 else 0
                                       for j in range(9)]))
    points = list(all_points(F))
    cases = set()
    for g in gs:
        fps = fixed_points(g, model)
        got = [P for P, _ in fps.points if P.field is F]
        if fps.axis is not None:
            got += line_points(F, fps.axis)
        assert sorted(P.coords for P in got) == sorted(
            P.coords for P in points if g.apply_point(P) == P), g
        cases |= _rank_cases(g, F)
    assert cases == {(rank, i) for rank in ("rank 1", "rank 2")
                     for i in range(3)}


def _clear_root_memos():
    """Empty the eigenvalue memo (`action._eigenvalues`) of every field."""
    for K in gf._FIELDS.values():
        K._roots_cache.clear()


def _fixed_point_record(sigma, model):
    """fixed_points as plain data: each point's field, coordinates and
    on-curve flag, and the axis."""
    fps = fixed_points(sigma, model)
    return [(P.field, P.coords, on) for P, on in fps.points], fps.axis


@pytest.mark.parametrize("q", [2, 4, 8])
def test_fixed_points_match_brute_force_scan(q):
    """Oracle equivalence at small q: eigen analysis vs full curve scan,
    with the eigenvalue memo cold and then warm."""
    model = FermatHermitian(q)
    F = model.field
    elements = [make_alpha(F, F.root_of_unity(q + 1), 1),
                make_alpha(F, F.root_of_unity(q + 1), 2),
                make_three_cycle(F, 1, 1, q=q)]
    if (q + 1) % 3 == 0 and (q + 1) // 3 > 1:
        elements.append(make_alpha(F, F.root_of_unity((q + 1) // 3), 2))
    # a homology: repeated unit eigenvalue, secant axis
    elements.append(Projectivity(F, (1, 0, 0, 0, F.root_of_unity(q + 1), 0,
                                     0, 0, 1)))
    records = []
    for warm in (False, True):
        if not warm:
            _clear_root_memos()
        for sigma in elements:
            fps = fixed_points(sigma, model)
            rational = sorted(P.coords for P in fps.curve_points()
                              if P.field is F)
            assert rational == brute_fixed_on_curve(sigma, model)
        records.append([_fixed_point_record(s, model) for s in elements])
    assert records[0] == records[1]
    assert records[0][-1][1] is not None  # the homology's axis


@pytest.mark.parametrize("n", [3, pytest.param(9, marks=pytest.mark.slow)])
def test_fixed_points_with_a_warm_memo_equal_a_cold_run(n):
    # cold: every memo emptied before each element; then two passes in
    # family order, the first filling the memo, the second all hits
    from maxcurves.checks import _triangolo_construction
    _, F, model, family, _ = _triangolo_construction(n)
    cold = []
    for s in family:
        _clear_root_memos()
        cold.append(_fixed_point_record(s, model))
    _clear_root_memos()
    filling = [_fixed_point_record(s, model) for s in family]
    warm = [_fixed_point_record(s, model) for s in family]
    assert cold == filling == warm
    E = build_field(2, 6 * n)
    assert {K for points, _ in warm for K, _, _ in points} == {E}
    assert sum(on for points, _ in warm for _, _, on in points) == 3 * len(
        family)
    # one entry per distinct polynomial, on F and on E; each value is a
    # tuple of ints and tuples, so hashable, and no caller can change it
    cps = {s.char_poly() for s in family}
    assert set(F._roots_cache) == cps
    assert {rest for _, rest in E._roots_cache} == {
        F._roots_cache[cp][1] for cp in cps}
    for value in [*F._roots_cache.values(), *E._roots_cache.values()]:
        assert isinstance(value, tuple)
        hash(value)
        with pytest.raises(TypeError):
            value[0] = ()


def test_census_memo_never_serves_a_rebuilt_fields_roots():
    # the n = 3 census finds its points in F_{2^18}; an override rebuilds
    # that field while F_{2^6} and its memo stay, so the memo must not
    # serve the old F_{2^18}'s roots (nor the new one's after the override
    # is cleared)
    from maxcurves.checks import _triangolo_construction

    def census():
        _, F, model, family, stab = _triangolo_construction(3)
        return _census_and_recount(lambda: family, stab, model)

    first = census()
    canonical = build_field(2, 18)
    assert {K for K, _ in first[2]} == {canonical}
    try:
        set_modulus_override(2, 18, canonical.modulus[::-1])
        E = build_field(2, 18)
        assert E is not canonical and E.modulus == canonical.modulus[::-1]
        warm = census()
        assert {K for K, _ in warm[2]} == {E}
        _clear_root_memos()
        assert census() == warm
        assert warm[2] != [(E, coords) for _, coords in first[2]]
        assert warm[0] == first[0] and warm[4] == first[4]
        clear_modulus_overrides()
        E = build_field(2, 18)
        assert E not in (canonical, warm[2][0][0])
        cleared = census()
        assert {K for K, _ in cleared[2]} == {E}
        _clear_root_memos()
        assert census() == cleared
        assert [coords for _, coords in cleared[2]] == [
            coords for _, coords in first[2]]
    finally:
        clear_modulus_overrides()


def test_homology_axis_classification_matches_enumeration():
    model = FermatHermitian(4)
    F = model.field
    # diag(1, mu, 1): axis Y = 0, center (0, 1, 0) off the curve
    sigma = Projectivity(F, (1, 0, 0, 0, F.root_of_unity(5), 0, 0, 0, 1))
    fps = fixed_points(sigma, model)
    assert fps.kind == "line"
    assert fps.axis_curve_count == 5  # secant: q + 1
    assert fps.points == [(ProjPoint(F, (0, 1, 0)), False)]  # the center
    assert len(brute_fixed_on_curve(sigma, model)) == 5


def test_beta_fixes_infinite_line_one_curve_point():
    F = build_field(2, 12)
    model = NormTraceHermitian(64)
    fps = fixed_points(make_beta(F, 1, 64), model)
    assert fps.kind == "line"
    assert fps.axis == (0, 0, 1)
    assert fps.axis_curve_count == 1  # tangent at the ideal point
    assert [P.coords for P in fps.curve_points()] == [(1, 0, 0)]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("model_cls", [FermatHermitian, NormTraceHermitian])
def test_axis_curve_points_match_line_enumeration(q, model_cls, monkeypatch):
    # every line of PG(2, q^2) as an axis: a tangent one gives its pole,
    # with no enumeration, a secant one its q + 1 curve points
    model = model_cls(q)
    F = model.field
    enumerated = []
    enumerate_line = action.line_points

    def counted(F, line):
        enumerated.append(line)
        return enumerate_line(F, line)

    monkeypatch.setattr(action, "line_points", counted)
    tangents = []
    for P in all_points(F):
        line = P.coords
        fps = FixedPointSet([], line, model)
        got = sorted(P.coords for P in fps.curve_points())
        expected = sorted(P.coords for P in line_points(F, line)
                          if model.contains(P))
        assert got == expected, line
        assert len(got) == fps.axis_curve_count
        if fps.axis_curve_count == 1:
            tangents.append(line)
            assert fps.curve_points() == [fps.pole]
    # one tangent at each of the q^3 + 1 curve points; the rest are secants
    assert len(tangents) == q**3 + 1
    secants = [P.coords for P in all_points(F) if P.coords not in tangents]
    assert enumerated == secants


def _order_p_elements(group, p):
    def is_p_power(n):
        while n % p == 0:
            n //= p
        return n == 1

    return [g for g in group.elements if is_p_power(g.order())]


def test_p_elements_match_the_element_orders():
    F, G = order20_group()
    F16 = build_field(2, 4)
    w = F16.root_of_unity(3)
    cyclic15 = generate([make_alpha(F16, F16.generator, 2)])
    # diag(w, 1, 1) and diag(1, w, 1): C_3 x C_3
    square3 = generate([make_alpha(F16, w, 0),
                        Projectivity(F16, (1, 0, 0, 0, w, 0, 0, 0, 1))])
    assert (G.order, cyclic15.order, square3.order) == (20, 15, 9)
    cases = [(G, 2), (G, 5), (cyclic15, 3), (cyclic15, 5), (square3, 3)]
    for group, p in cases:
        got = _p_elements(group, p)
        assert got == _order_p_elements(group, p), (group.order, p)
    assert len(_p_elements(G, 2)) == 4 and len(_p_elements(square3, 3)) == 9


def test_semiregular_examples():
    F = build_field(2, 10)
    model = FermatHermitian(32)
    G = generate([make_alpha(F, F.root_of_unity(11), 2)])
    assert is_semiregular(G, model)
    F12 = build_field(2, 12)
    nt = NormTraceHermitian(64)
    withbeta = generate([make_beta(F12, 1, 64)])
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
    h = generate([make_three_cycle(F, 1, 1, q=4)])
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
    h = generate([make_three_cycle(F, 1, 1, q=4)])
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
        if group.generators[0].field is field:
            gens = list(group.generators)
        else:
            tm = embed(group.generators[0].field, field)
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
    mixed = curve + census + [P for P in all_points(other) if model.contains(P)]
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
    h = generate([make_three_cycle(F, 1, 1, q=4)])
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


def test_orbits_list_as_the_seed_merge_did():
    # the orbits, their listing and the objects kept equal the former
    # partition from one sorted seed stream, on shuffled curves, on the
    # curve over two F_{2^6} objects in both orders of first appearance,
    # on the curve over F_{2^12} given before the one over F_{2^6} (least
    # representatives such as (0, 1, 1) tie across the fields), and on
    # the n = 3 cases
    from maxcurves.checks import _triangolo_construction
    _, F, model, _, _ = _triangolo_construction(3)
    curve = model.rational_points()
    gbar = generate([make_alpha(F, F.root_of_unity(9), 2)])
    other = GF(2, 6, (1, 0, 0, 1, 0, 0, 1))  # X^6 + X^3 + 1, imprimitive
    twin = [P for P in all_points(other) if model.contains(P)]
    tm = embed(F, build_field(2, 12))
    big = [ProjPoint(tm.dst, [tm(c) for c in P.coords]) for P in curve]
    rng = random.Random(2801)
    cases = [(gbar, twin + curve), (gbar, curve + twin), (gbar, big + curve)]
    for pts in (curve, curve, twin + curve):
        pts = pts[:]
        rng.shuffle(pts)
        cases.append((gbar, pts))
    for group, pts in cases + n3_orbit_cases():
        parts = orbits(group, pts)
        assert [[id(Q) for Q in o] for o in parts] == [
            [id(Q) for Q in o] for o in seed_merge_orbits(group, pts)]
    assert len(orbits(gbar, twin + curve)) == 2 * len(orbits(gbar, curve))
    # a shuffled curve less one point is refused by both
    pts = curve[1:]
    rng.shuffle(pts)
    for partition in (orbits, seed_merge_orbits):
        with pytest.raises(ActionError):
            partition(gbar, pts)


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
                  make_three_cycle(F, 1, 1, q=4)])
    pts = curve_point_list(model)
    for orbit in orbits(G, pts):
        P = orbit[0]
        stab = sum(1 for g in G.elements if g.apply_point(P) == P)
        assert len(orbit) * stab == G.order


def test_stabilizer_census_semiregular_group_is_empty():
    F = build_field(2, 10)
    model = FermatHermitian(32)
    G = generate([make_alpha(F, F.root_of_unity(11), 2)])
    census = family_census(G.nontrivial(), G, model)
    assert census.incidence == 0 and census.size == 0
    assert census.n_orbits == 0


def test_stabilizer_census_degenerate_nesting():
    model = FermatHermitian(4)
    F = model.field
    G = generate([make_alpha(F, F.root_of_unity(5), 2)])
    census = family_census(G.nontrivial(), G, model)
    assert census.incidence == 0  # fundamental points are off the curve


def test_stabilizer_census_requires_normality():
    F = build_field(2, 18)
    xi = F.root_of_unity(57)
    zeta = F.root_of_unity(513)
    G = generate([make_alpha(F, xi, 8), make_three_cycle(F, zeta, 1, q=512)])
    H = generate([make_three_cycle(F, zeta, 1, q=512)])  # not normal in G
    assert H.is_subgroup_of(G) and not H.is_normal_in(G)


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
    # make_three_cycle's shape and the other weighted 3-cycle act as the two
    # possible cycles on the fundamental triangle; the census data is
    # identical for either
    q = 8
    F = build_field(2, 6)
    model = FermatHermitian(q)
    theta = F.root_of_unity(3)
    zeta = F.root_of_unity(9)
    results = []
    for h in (make_three_cycle(F, zeta, 1, q=q),
              Projectivity(F, (0, 0, zeta, 1, 0, 0, 0, 1, 0))):
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


def _split_census_cases():
    """{name: (family, group, model)}: census inputs whose halves differ in
    size, that start with the identity, or come as a generator, and
    families whose equal characteristic polynomials are interleaved, with
    the census halves cut between two groups or through one; `family`
    makes the elements anew on each call."""
    from maxcurves.checks import _triangolo_construction
    _, F, model, family, _ = _triangolo_construction(3)
    trivial = generate([Projectivity.identity(F)])
    # the family is s1, s1^2, s2, s2^2 with polynomials a, b, a, b (a < b);
    # s and s^2 fix the same points.  A conjugate by a unitary diagonal
    # element (z^9 = 1 = z^(q+1)) has as many fixed points on the curve;
    # one whose two entries for an element's first nonzero column are
    # equal keeps its normalisation, hence its polynomial
    z = F.root_of_unity(9)
    ts = [Projectivity(F, (z, 0, 0, 0, z, 0, 0, 0, 1)),
          Projectivity(F, (z, 0, 0, 0, 1, 0, 0, 0, z))]
    c1, c2 = (t * s * t ** 8 for t, s in zip(ts, family))
    a, b = family[0].char_poly(), family[1].char_poly()
    assert a < b and [g.char_poly() for g in family + [c1, c2]] == [a, b] * 3
    # both start with s2^2, so the serial census lists the points of s2
    # first, and the sorted halves those of s1
    s1, s1sq, s2, s2sq = family
    # four homologies diag(1, z, 1): their axes' points lie over F_16 itself
    model4 = FermatHermitian(4)
    F4 = model4.field
    homologies = generate([Projectivity(F4, (1, 0, 0, 0, F4.root_of_unity(5),
                                             0, 0, 0, 1))])
    return {
        "odd": (lambda: family[:3], trivial, model),
        "one": (lambda: family[:1], trivial, model),
        "identity": (lambda: [Projectivity.identity(F)] + family,
                     generate(family[:1]), model),
        "generator": (homologies.nontrivial, homologies, model4),
        # b a b a b a, sorted a a a | b b b: each group in one half
        "interleaved": (lambda: [s2sq, s1, s1sq, s2, c2, c1], trivial, model),
        # b a b a a, sorted a a | a b b: the group of a cut by the midpoint
        "cut": (lambda: [s2sq, s1, s1sq, s2, c1], trivial, model),
    }


def _serial_census(family, group, model):
    """(incidence, per-element counts, points, orbits) of the census by a
    plain loop over the elements in order: no split, no grouping and
    nothing shared between elements."""
    per_element = []
    points = []
    for s in family():
        if s.is_identity():
            continue
        found = fixed_points(s, model).curve_points()
        per_element.append((s.m, len(found)))
        points.extend(P for P in found if P not in points)
    partition = orbits(group, points) if points else []
    return (sum(c for _, c in per_element), per_element,
            [(P.field, P.coords) for P in points],
            [[(P.field, P.coords) for P in o] for o in partition])


def _serial_census_and_recount(family, group, model):
    """`_census_and_recount` by `_serial_census`, with a recount by
    `_fixes_point`."""
    census = _serial_census(family, group, model)
    elements = list(family())
    return census + (sum(
        _fixes_point(g.transport(embed(g.field, K)), ProjPoint(K, x))
        for K, x in census[2] for g in elements),)


def _listed(census):
    """What `_serial_census` lists, read off a census."""
    return (census.incidence, [(s.m, c) for s, c in census.per_element],
            [(P.field, P.coords) for P in census.points],
            [[(P.field, P.coords) for P in o] for o in census.orbit_partition])


def _census_and_recount(family, group, model):
    census = family_census(family(), group, model)
    for P in census.points:
        assert P.field is build_field(P.field.p, P.field.k)
    return _listed(census) + (census.pointwise_incidence(list(family())),)


@pytest.mark.parametrize("case", ["odd", "one", "identity", "generator",
                                  "interleaved", "cut"])
def test_split_census_equals_the_census_without_fork(case, monkeypatch):
    # the fixed-point census runs in two halves, the upper one in a forked
    # child, and the recount in this process; without os.fork the census
    # runs here, serially.  Both equal a plain loop in element order
    family, group, model = _split_census_cases()[case]
    forked = _census_and_recount(family, group, model)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    assert _serial_census_and_recount(family, group, model) == forked
    monkeypatch.delattr(numbertheory.os, "fork")
    assert _census_and_recount(family, group, model) == forked
    assert forked[0] == sum(c for _, c in forked[1]) > 0
    # the identity fixes every census point; the census skips it
    assert forked[4] == forked[0] + len(forked[2]) * (case == "identity")


def _inverse_class_cases():
    """`_split_census_cases`, the n = 3 census, and a family with an
    involution (the swap of X and Y, in characteristic 2 an elation of
    axis X = Y) listed twice and with s2 listed twice."""
    from maxcurves.checks import _triangolo_construction
    _, F, model, family, stab = _triangolo_construction(3)
    s1, s1sq, s2, s2sq = family
    swap = Projectivity(F, (0, 1, 0, 1, 0, 0, 0, 0, 1))
    assert (swap * swap).is_identity()
    return {**_split_census_cases(),
            "n3": (lambda: family, stab, model),
            "involution": (lambda: [s2, swap, s1, s2, s1sq, swap, s2sq],
                           generate([Projectivity.identity(F)]), model)}


def _first_of_each_inverse_class(elements):
    """The nonidentity elements listed before neither themselves nor
    their inverses, the inverse taken as g^(order - 1)."""
    seen, firsts = set(), []
    for g in elements:
        if not g.is_identity() and g not in seen:
            seen.update((g, g ** (g.order() - 1)))
            firsts.append(g)
    return firsts


def _census_recording_fixed_points(elements, group, model, monkeypatch):
    """family_census(elements, group, model) with both halves run here
    (`_refusing_fork`), and the elements `fixed_points` was called on."""
    calls = []
    real = action.fixed_points

    def recording(s, m):
        calls.append(s)
        return real(s, m)

    monkeypatch.setattr(action, "fixed_points", recording)
    _refusing_fork(monkeypatch)
    census = family_census(elements, group, model)
    monkeypatch.undo()
    return census, calls


@pytest.mark.parametrize("case", ["odd", "one", "identity", "generator",
                                  "interleaved", "cut", "n3", "involution"])
def test_census_finds_fixed_points_once_per_inverse_class(case, monkeypatch):
    family, group, model = _inverse_class_cases()[case]
    census, calls = _census_recording_fixed_points(family(), group, model,
                                                   monkeypatch)
    assert _listed(census) == _serial_census(family, group, model)
    firsts = _first_of_each_inverse_class(family())
    assert sorted(g.m for g in calls) == sorted(g.m for g in firsts)
    nontrivial = [g for g in family() if not g.is_identity()]
    assert (len(calls), len(nontrivial)) == {
        "odd": (2, 3), "one": (1, 1), "identity": (2, 4), "generator": (2, 4),
        "interleaved": (4, 6), "cut": (3, 5), "n3": (2, 4),
        "involution": (3, 7)}[case]


def test_census_finds_fixed_points_once_per_inverse_class_n9(census_n9,
                                                             monkeypatch):
    # s^3 is scalar, so each member s^2 = s^-1 shares the points of s
    from maxcurves.checks import _triangolo_construction
    family, stab, _ = census_n9
    model = _triangolo_construction(9)[2]
    census, calls = _census_recording_fixed_points(family, stab, model,
                                                   monkeypatch)
    assert len(family) == 228 and len(calls) == 114
    assert calls == sorted(_first_of_each_inverse_class(family),
                           key=Projectivity.char_poly)
    assert _listed(census) == _serial_census(lambda: family, stab, model)
    assert census.incidence == 684


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


def _refusing_fork(monkeypatch):
    """Replace os.fork by one that records the call and fails, so that a
    two-half split runs both halves here; returns the record."""
    forks = []

    def fork():
        forks.append(None)
        raise OSError("fork refused")

    monkeypatch.setattr(numbertheory.os, "fork", fork)
    return forks


def _recorded_recount(census, elements, monkeypatch):
    """pointwise_incidence(elements), which must not call os.fork, and the
    point lists its `_fixing_pairs` calls got and the number of pairs
    decided."""
    calls, pairs = [], []
    fixing_pairs, fixes = action._fixing_pairs, action._fixes

    def recording_pairs(points, by_field):
        calls.append(list(points))
        return fixing_pairs(points, by_field)

    def counting_fixes(F, m, forms):
        pairs.append(None)
        return fixes(F, m, forms)

    monkeypatch.setattr(action, "_fixing_pairs", recording_pairs)
    monkeypatch.setattr(action, "_fixes", counting_fixes)
    forks = _refusing_fork(monkeypatch)
    count = census.pointwise_incidence(elements)
    monkeypatch.undo()
    assert forks == []
    return count, calls, len(pairs)


def _conjugates(h, family):
    h_inv = h.inverse()
    return [h * g * h_inv for g in family]


def _closed_under(h, family):
    return sorted(g.m for g in _conjugates(h, family)) == sorted(
        g.m for g in family)


def test_census_forks_and_its_recount_does_not_n3(monkeypatch):
    # the fork recorder sees the census's split; the recount (here of the
    # family and of a part of it) runs in this process alone
    from maxcurves.checks import _triangolo_construction
    _, F, model, family, stab = _triangolo_construction(3)
    forks = _refusing_fork(monkeypatch)
    census = family_census(family, stab, model)
    assert len(forks) == 1
    monkeypatch.undo()
    for elements in (family, family[1:]):
        assert _recorded_recount(census, elements, monkeypatch)[0] == (
            full_recount(census, elements))


def test_weighted_recount_equals_the_full_recount_n3(monkeypatch):
    from maxcurves.checks import _triangolo_construction
    _, F, model, family, stab = _triangolo_construction(3)
    census = family_census(family, stab, model)
    assert all(_closed_under(h, family) for h in stab.generators)
    count, calls, pairs = _recorded_recount(census, family, monkeypatch)
    assert count == full_recount(census, family) == 12
    assert calls == [[o[0]] for o in census.orbit_partition]
    assert pairs == 2 * len(family)


@pytest.fixture(scope="module")
def census_n9():
    from maxcurves.checks import _triangolo_construction
    _, F, model, family, stab = _triangolo_construction(9)
    return family, stab, family_census(family, stab, model)


def test_weighted_recount_takes_one_point_per_orbit_n9(census_n9,
                                                       monkeypatch):
    family, stab, census = census_n9
    assert len(stab.generators) == 2
    assert all(_closed_under(h, family) for h in stab.generators)
    count, calls, pairs = _recorded_recount(census, family, monkeypatch)
    assert count == census.incidence == 684
    assert calls == [[o[0]] for o in census.orbit_partition]
    assert len(calls) == census.n_orbits == 2
    assert pairs == 2 * 228


def test_recount_of_a_family_not_closed_is_per_point_n9(census_n9,
                                                        monkeypatch):
    family, stab, census = census_n9
    dropped = family[:-1]
    assert not all(_closed_under(h, dropped) for h in stab.generators)
    count, calls, _ = _recorded_recount(census, dropped, monkeypatch)
    assert count == full_recount(census, dropped) == 681
    assert calls == [[P] for P in census.points]


def _class_of(h, g):
    """The conjugates h^i g h^-i of g, i = 0, 1, ..., one each."""
    cls = [g]
    while True:
        c = h * cls[-1] * h.inverse()
        if c == g:
            return cls
        cls.append(c)


def _regrouped(census, generators):
    """The census with its group given by other generators of it."""
    group = generate(generators)
    assert group.element_set == census.group.element_set
    return StabilizerCensus(census.incidence, census.points,
                            census.per_element, census.orbit_partition, group)


@pytest.mark.parametrize("first", [0, 1])
def test_recount_checks_closure_under_every_generator_n9(census_n9, first,
                                                         monkeypatch):
    # the first stabiliser generator commutes with every family element
    # (each is alpha(theta^j) times a 3-cycle, and omega^3 = 1), so every
    # list of them is closed under it; one conjugacy class under the second
    # generator, less one element, is not closed under that one.  With
    # either generator listed first, the recount is per point
    family, stab, census = census_n9
    h1, h2 = stab.generators
    assert all(h1 * g == g * h1 for g in family)
    cls = _class_of(h2, family[0])
    assert len(cls) == 57 and set(cls) <= set(family)
    assert _closed_under(h2, cls)
    sub = cls[:-1]
    assert _closed_under(h1, sub) and not _closed_under(h2, sub)
    census = _regrouped(census, [h1, h2] if first == 0 else [h2, h1])
    count, calls, _ = _recorded_recount(census, sub, monkeypatch)
    assert count == full_recount(census, sub) == 3 * 56
    assert calls == [[P] for P in census.points]


def test_recount_weighs_each_element_as_often_as_it_is_listed(census_n9,
                                                              monkeypatch):
    # one conjugacy class under the second generator with one element
    # listed twice: closed under conjugation as a set, not as a list
    family, stab, census = census_n9
    cls = _class_of(stab.generators[1], family[0])
    doubled = cls + cls[:1]
    assert all(_closed_under(h, cls) for h in stab.generators)
    count, calls, _ = _recorded_recount(census, doubled, monkeypatch)
    assert count == full_recount(census, doubled) == 3 * 58
    assert calls == [[P] for P in census.points]
    # the class itself is closed, and recounted per orbit
    count, calls, _ = _recorded_recount(census, cls, monkeypatch)
    assert count == full_recount(census, cls) == 3 * 57
    assert calls == [[o[0]] for o in census.orbit_partition]


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
    ident = Projectivity.identity(F)
    assert restrict_to_infinity(ident) == (1, 0, 0, 1)
    theta = F.root_of_unity(11)
    a = make_alpha(F, theta, 2)
    # diag(theta, theta^2) mod scalars, normalised
    assert restrict_to_infinity(a) == (1, 0, 0, theta)


def test_restrict_to_line_homomorphism_random_pairs():
    F = build_field(2, 10)
    G = generate([make_alpha(F, F.root_of_unity(33), 2)])
    els = G.elements
    for _ in range(100):
        a, b = random.choice(els), random.choice(els)
        assert restrict_to_infinity(a * b) == mul2(
            F, restrict_to_infinity(a), restrict_to_infinity(b))


def test_restrict_to_line_requires_stabilization():
    F = build_field(2, 10)
    h = make_three_cycle(F, 1, 1, q=32)
    assert h.m[6:8] != (0, 0)  # T = 0 is not stabilised
    with pytest.raises(ActionError):
        restrict_to_infinity(h)


def order20_group():
    F = build_field(2, 12)
    kernel = [c for c in F.elements() if F.add(F.pow(c, 64), c) == 0]
    u = min(c for c in kernel if c not in (0, 1))
    return F, generate([make_beta(F, 1, 64),
                        make_beta(F, u, 64),
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
    # AGL(1, 4) on the points (x : 1 : 0): x -> g x and x -> x + 1
    F4 = build_field(2, 2)
    agl = generate([Projectivity(F4, (F4.generator, 0, 0, 0, 1, 0, 0, 0, 1)),
                    Projectivity(F4, (1, 1, 0, 0, 1, 0, 0, 0, 1))])
    assert sharply_2_transitive(agl, [ProjPoint(F4, (x, 1, 0))
                                      for x in F4.elements()])
    pair = [ProjPoint(F, (1, 0, 0)), ProjPoint(F, (0, 1, 0))]
    # |G| = 2 = n(n - 1), but the translation fixes both points
    fixing = generate([Projectivity(F, (1, 0, 1, 0, 1, 0, 0, 0, 1))])
    assert not sharply_2_transitive(fixing, pair)
    # |G| = 2 and the swap fixes neither point
    swap = generate([Projectivity(F, (0, 1, 0, 1, 0, 0, 0, 0, 1))])
    assert sharply_2_transitive(swap, pair)
