import pytest

from maxcurves.curves import FermatHermitian, NormTraceHermitian
from maxcurves.gf import build_field
from maxcurves.proj3 import (ProjError, ProjLine, ProjPoint, all_points,
                             incident, line_points, normalize, polar, pole)


def test_normalize_over_f5():
    F5 = build_field(5, 1)
    assert normalize(F5, (0, 2, 4)) == (0, 1, 2)  # scale by 3 = 2^-1


def test_normalize_scalar_multiples_collapse():
    F = build_field(2, 4)
    base = (3, 7, 1)
    for s in range(1, 16):
        scaled = tuple(F.mul(s, c) for c in base)
        assert ProjPoint(F, scaled) == ProjPoint(F, base)


class _NoArithmetic:
    def inv(self, a):
        raise AssertionError("normalize scaled a normalised tuple")

    def mul(self, a, b):
        raise AssertionError("normalize scaled a normalised tuple")


def test_normalize_keeps_a_normalised_tuple():
    # a first nonzero entry 1 needs no inverse and no product
    for coords in ((1, 7, 3), (0, 1, 9), (0, 0, 1), (0, 1, 0, 5)):
        assert normalize(_NoArithmetic(), coords) is coords
        assert normalize(_NoArithmetic(), list(coords)) == coords


def test_normalize_rejects_zero():
    F = build_field(2, 2)
    with pytest.raises(ProjError):
        normalize(F, (0, 0, 0))


def test_fundamental_triangle_is_self_polar():
    model = FermatHermitian(4)
    F = model.field
    e = [ProjPoint(F, (1, 0, 0)), ProjPoint(F, (0, 1, 0)), ProjPoint(F, (0, 0, 1))]
    assert polar(e[0], model) == ProjLine(F, (1, 0, 0))
    for i in range(3):
        side = polar(e[i], model)
        for j in range(3):
            assert incident(e[j], side) == (i != j)


def test_polar_of_e1_meets_curve_in_q_plus_1_points():
    model = FermatHermitian(4)
    F = model.field
    line = polar(ProjPoint(F, (1, 0, 0)), model)
    on = sum(1 for P in line_points(line) if model.contains(P))
    assert on == 5  # Y^{q+1} + T^{q+1} = 0 has q + 1 projective solutions


def test_polarity_involution_and_self_conjugacy_full_scan_f16():
    model = FermatHermitian(4)
    F = model.field
    for P in all_points(F):
        L = polar(P, model)
        assert pole(L, model) == P
        assert incident(P, L) == model.contains(P)


def test_norm_trace_polarity_involution_sample():
    model = NormTraceHermitian(4)
    F = model.field
    count = 0
    for P in all_points(F):
        L = polar(P, model)
        assert pole(L, model) == P
        assert incident(P, L) == model.contains(P)
        count += 1
    assert count == 16 * 16 + 16 + 1


def test_line_point_counts():
    F4 = build_field(2, 2)
    assert len(line_points(ProjLine(F4, (1, 1, 1)))) == 5
    F16 = build_field(2, 4)
    for coords in [(0, 0, 1), (1, 0, 0), (1, 2, 3), (0, 1, 5)]:
        pts = line_points(ProjLine(F16, coords))
        assert len(pts) == 17
        assert len(set(pts)) == 17


def test_line_at_infinity_curve_intersections():
    fermat = FermatHermitian(4)
    ntrace = NormTraceHermitian(4)
    F = fermat.field
    inf_line = ProjLine(F, (0, 0, 1))
    pts = line_points(inf_line)
    assert sum(1 for P in pts if fermat.contains(P)) == 5
    assert sum(1 for P in pts if ntrace.contains(P)) == 1  # only (1, 0, 0)


def test_incidence_requires_matching_fields():
    F4, F16 = build_field(2, 2), build_field(2, 4)
    with pytest.raises(ProjError):
        incident(ProjPoint(F4, (1, 0, 0)), ProjLine(F16, (0, 0, 1)))
