import pytest

from maxcurves import curves
from maxcurves.curves import (INFINITY, CurveError, FermatHermitian,
                              GarciaStichtenoth, GeneralizedGK,
                              NormTraceHermitian)
from maxcurves.gf import build_field, embed
from maxcurves.proj3 import ProjPoint
from oracles import all_points, hermitian_points_one_by_one


def brute_force_plane_count(model, field):
    """Oracle: scan every projective point and evaluate the equation."""
    return sum(1 for P in all_points(field) if model.contains(P))


def brute_force_gk_count(curve, field):
    """Oracle: scan all affine triples, then add the point at infinity."""
    count = 0
    for x in field.elements():
        for y in field.elements():
            for z in field.elements():
                if curve.contains_affine(field, x, y, z):
                    count += 1
    return count + 1


@pytest.mark.parametrize("q,expected", [(2, 9), (3, 28), (4, 65), (8, 513)])
def test_hermitian_counts(q, expected):
    fermat = FermatHermitian(q)
    ntrace = NormTraceHermitian(q)
    assert fermat.count_rational_points() == expected
    assert ntrace.count_rational_points() == expected
    assert fermat.genus() == ntrace.genus() == q * (q - 1) // 2
    assert fermat.maximality_check() and ntrace.maximality_check()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermitian_count_against_full_scan(q):
    fermat = FermatHermitian(q)
    ntrace = NormTraceHermitian(q)
    assert fermat.count_rational_points() == brute_force_plane_count(
        fermat, fermat.field)
    assert ntrace.count_rational_points() == brute_force_plane_count(
        ntrace, ntrace.field)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
@pytest.mark.parametrize("model_cls", [FermatHermitian, NormTraceHermitian])
def test_rational_points_equal_the_points_built_one_by_one(q, model_cls,
                                                           monkeypatch):
    model = model_cls(q)
    F = model.field
    expected = hermitian_points_one_by_one(model)
    inverted = []
    inv = F.inv

    def recording_inv(a):
        inverted.append(a)
        return inv(a)

    monkeypatch.setattr(F, "inv", recording_inv)
    pts = model.rational_points()
    monkeypatch.undo()
    assert pts == expected and len(pts) == q**3 + 1
    assert [P.coords for P in pts] == [P.coords for P in expected]
    assert all(P.field is F for P in pts)
    # (0, y, 1) with y not 0 or 1 is normalised by y, to (0, 1, 1/y);
    # then one inverse per nonzero x, in element order
    ys = [F.inv(P.coords[2]) for P in expected
          if P.coords[:2] == (0, 1) and P.coords[2] != 1]
    assert inverted == ys + list(range(1, F.order))


def test_hermitian_model_builds_its_field_on_first_use(monkeypatch):
    calls = []

    def counting_build_field(p, k):
        calls.append((p, k))
        return build_field(p, k)

    monkeypatch.setattr(curves, "build_field", counting_build_field)
    model = FermatHermitian(4**3)
    assert (model.q, model.p, model.genus()) == (64, 2, 2016)
    assert calls == []
    assert model.field is model.field is build_field(2, 12)
    assert calls == [(2, 12)]


def test_fermat_membership_basics():
    model = FermatHermitian(4)
    F = model.field
    assert not model.contains(ProjPoint(F, (1, 0, 0)))  # evaluates to 1


def test_norm_trace_ideal_point():
    model = NormTraceHermitian(4)
    assert model.contains(ProjPoint(model.field, (1, 0, 0)))


def test_triangle_point_on_hermitian_curve():
    # Q = (z, z^2/A, 1) with z^3 = AB, A and B norm-one, z outside F_{q^2}
    q = 8
    F = build_field(2, 6)
    E = build_field(2, 18)
    tm = embed(F, E)
    A = F.root_of_unity(9)               # norm-one and not a cube in F_64
    B = 1
    assert not F.is_dth_power(A, 3)
    AB = tm(F.mul(A, B))
    z = E.nth_root(AB, 3)
    assert E.pow(z, 3) == AB
    assert all(E.pow(z, 64) != z for _ in (0,))  # z is outside the F_64 copy
    Q = ProjPoint(E, (z, E.div(E.mul(z, z), tm(A)), 1))
    assert FermatHermitian(q).contains(Q)


@pytest.mark.parametrize("n,expected", [(3, 225), (5, 3969)])
def test_gk_counts(n, expected):
    curve = GeneralizedGK(2, n)
    q = 2**n
    assert expected == 4 * q * q - 4 * q + 1
    assert curve.count_rational_points() == expected
    assert curve.maximality_check()


def test_gk_count_against_triple_scan():
    curve = GeneralizedGK(2, 3)
    assert brute_force_gk_count(curve, curve.field) == 225


def test_gk_genus_and_congruence():
    assert GeneralizedGK(2, 5).genus() == 46  # (3q - 4)/2 at q = 32
    for n in (5, 7):
        q = 2**n
        assert (4 * q * q - 4 * q + 1) % 3 == 0
    assert GeneralizedGK(2, 5).count_rational_points() % 3 == 0


def test_gk_parameter_validation():
    with pytest.raises(CurveError):
        GeneralizedGK(2, 4)  # n must be odd
    with pytest.raises(CurveError):
        GeneralizedGK(2, 1)
    with pytest.raises(CurveError):
        GeneralizedGK(6, 3)


def test_gk_infinity_membership():
    curve = GeneralizedGK(2, 3)
    assert curve.contains(INFINITY)
    F = curve.field
    assert curve.contains((F, 0, 0, 0))
    assert not curve.contains((F, 1, 1, 1))  # x^l + x = 0 but y^(l+1) = 1


@pytest.mark.parametrize("l,count,genus", [(2, 113, 3), (3, 2026, 24),
                                           (4, 15617, 90)])
def test_gs_counts(l, count, genus):
    curve = GarciaStichtenoth(l)
    assert curve.genus() == genus
    assert count == l**7 - l**5 + l**4 + 1
    got = curve.count_rational_points()
    assert got == count
    assert got % (l**3 + 1) == (l * l + 1) % (l**3 + 1)
    assert curve.maximality_check()


def test_gs_count_against_pair_scan():
    curve = GarciaStichtenoth(2)
    F = curve.field
    affine = 0
    for x in F.elements():
        for y in F.elements():
            if F.pow(y, 3) == F.sub(F.pow(x, 4), x):
                affine += 1
    assert affine + 1 == 113


def test_wrong_characteristic_rejected():
    curve = FermatHermitian(4)
    with pytest.raises(CurveError):
        curve.contains(ProjPoint(build_field(3, 2), (1, 1, 1)))
