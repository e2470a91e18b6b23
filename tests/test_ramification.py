import pytest

from maxcurves.action import fixed_points
from maxcurves.curves import FermatHermitian, GeneralizedGK, NormTraceHermitian
from maxcurves.gf import build_field, embed
from maxcurves.pgu3 import Projectivity, generate, make_alpha, make_beta
from maxcurves.ramification import (UnsupportedRamification, different_degree,
                                    expected_delta, i_sigma, ledger_feasibility)
from oracles import all_points


def test_involution_contribution_on_h64():
    F = build_field(2, 12)
    model = NormTraceHermitian(64)
    beta = make_beta(F, 1, 64)
    assert i_sigma(beta, model) == 66


def test_order_four_contribution():
    # a unitary order-4 unipotent on the norm-trace model over F_4096
    F = build_field(2, 12)
    model = NormTraceHermitian(64)
    b = next(b for b in F.elements() if F.add(F.pow(b, 64), b) == 1)
    m = Projectivity(F, (1, 1, b, 0, 1, 1, 0, 0, 1))
    from maxcurves.pgu3 import unitarity_scalar
    assert unitarity_scalar(m, model) is not None and m.order() == 4
    assert i_sigma(m, model) == 2


def test_tame_contribution_zero_off_curve():
    F = build_field(2, 10)
    model = FermatHermitian(32)
    a = make_alpha(F, F.root_of_unity(11), 2)
    assert i_sigma(a, model) == 0


def test_tame_homology_contribution():
    model = FermatHermitian(4)
    F = model.field
    sigma = Projectivity(F, (1, 0, 0, 0, F.root_of_unity(5), 0, 0, 0, 1))
    assert fixed_points(sigma, model).kind == "line"
    assert i_sigma(sigma, model) == 5  # Q + 1 on a secant


def test_unsupported_wild_orders_error():
    F = build_field(2, 12)
    model = NormTraceHermitian(64)
    # an order-8 unipotent would need ramification data this package refuses
    b = next(b for b in F.elements() if F.add(F.pow(b, 64), b) == 1)
    m = Projectivity(F, (1, 1, b, 0, 1, 1, 0, 0, 1))
    assert m.order() == 4  # sanity: the table covers this one
    F9 = build_field(3, 2)
    model3 = FermatHermitian(3)
    tri = Projectivity(F9, (1, 1, 0, 0, 1, 1, 0, 0, 1))
    assert tri.order() == 3
    with pytest.raises(UnsupportedRamification):
        i_sigma(tri, model3)  # odd-characteristic wild element


def test_i_sigma_rejects_identity():
    F = build_field(2, 4)
    with pytest.raises(UnsupportedRamification):
        i_sigma(Projectivity.identity(F), FermatHermitian(4))


def test_trivial_group_ledger():
    F = build_field(2, 10)
    model = FermatHermitian(32)
    ledger = different_degree(generate([Projectivity.identity(F)]), model)
    assert ledger.delta == 0
    assert ledger.quotient_genus == model.genus() == 496


def test_semiregular_tame_ledger_gives_gk_genus():
    F = build_field(2, 10)
    model = FermatHermitian(32)
    G = generate([make_alpha(F, F.root_of_unity(11), 2)])
    ledger = different_degree(G, model)
    assert ledger.delta == 0
    assert ledger.consistent
    assert ledger.quotient_genus == 46 == GeneralizedGK(2, 5).genus()
    assert 2 * 496 - 2 == 11 * (2 * 46 - 2)


def test_homology_group_quotient_is_rational():
    # the full order-(q+1) homology group: every nontrivial element
    # contributes its secant axis, and the quotient has genus 0
    model = FermatHermitian(4)
    F = model.field
    sigma = Projectivity(F, (1, 0, 0, 0, F.root_of_unity(5), 0, 0, 0, 1))
    G = generate([sigma])
    ledger = different_degree(G, model)
    assert ledger.delta == 4 * 5  # four nontrivial homologies, Q+1 each
    assert ledger.consistent and ledger.quotient_genus == 0


def test_expected_delta_values():
    assert expected_delta(2016, 90, 20) == 470
    assert expected_delta(130816, 1764, 72) == 7758
    assert expected_delta(10, 10, 1) == 0


def test_ledger_feasibility_known_profiles():
    h64 = FermatHermitian(64)
    feasible, why = ledger_feasibility(470, [(2, 15), (5, 4)], h64)
    assert not feasible and "990" in why
    feasible, why = ledger_feasibility(470, [(2, 5), (4, 10), (5, 4)], h64)
    assert not feasible and "350" in why
    h512 = FermatHermitian(512)
    feasible, why = ledger_feasibility(7758, [(2, 18), (4, 36), (3, 8)], h512)
    assert not feasible
    feasible, why = ledger_feasibility(7758, [(2, 9), (4, 54), (3, 8)], h512)
    assert not feasible and "4734" in why


def test_ledger_feasibility_positive_case():
    h64 = FermatHermitian(64)
    # 66 + 2 + 65 + 3 is achievable with one involution, one order-4,
    # one homology and one 3-point tame element
    feasible, _ = ledger_feasibility(136, [(2, 1), (4, 1), (5, 2)], h64)
    assert feasible


def test_ledger_feasibility_rejects_unknown_orders():
    h64 = FermatHermitian(64)
    with pytest.raises(UnsupportedRamification):
        ledger_feasibility(470, [(8, 1)], h64)


def quotient_point_count_by_stable_orbits(model, G, theta, i_exp, m):
    """Oracle: the quotient's rational points are the Frobenius-stable
    G-orbits.  Rational points of the top curve fall into full free orbits;
    a non-rational stable orbit satisfies x^(q^2) = theta^j x and
    y^(q^2) = theta^(i j) y for some j, so its points are found by solving
    two power equations per j in the extension where the orbit lives."""
    F = model.field
    E = build_field(F.p, F.k * m)
    tm = embed(F, E)
    theta_e = tm(theta)
    rational = [P for P in all_points(F) if model.contains(P)]
    n_rational_orbits = len(rational) // G.order
    e = model.q + 1
    minus_one = E.neg(1)
    new_points = 0
    for j in range(1, m):
        xs = power_solutions(E, F.order - 1, E.pow(theta_e, j))
        ys = power_solutions(E, F.order - 1, E.pow(theta_e, i_exp * j))
        for x in xs:
            rhs = E.sub(minus_one, E.pow(x, e))
            for y in ys:
                if E.pow(y, e) != rhs:
                    continue
                if E.pow(x, F.order) == x and E.pow(y, F.order) == y:
                    continue  # rational, already counted
                new_points += 1
    assert new_points % m == 0
    return n_rational_orbits + new_points // m


def power_solutions(E, d, c):
    """All y in E with y^d = c, via the discrete-log tables."""
    from math import gcd
    if c == 0:
        return [0]
    n = E.units
    g = gcd(d, n)
    lc = E.log[c]
    if lc % g:
        return []
    step = n // g
    t0 = (lc // g) * pow(d // g, -1, step) % step
    return [E.exp[(t0 + k * step) % n] for k in range(g)]


@pytest.mark.parametrize("q,m,expected_genus", [(4, 5, 2), (8, 3, 10)])
def test_quotient_genus_against_stable_orbit_oracle(q, m, expected_genus):
    """The ledger genus must match the genus forced by the quotient's own
    rational point count (the quotient of a maximal curve is maximal)."""
    from maxcurves.numbertheory import is_prime_power
    p, k = is_prime_power(q)
    F = build_field(p, 2 * k)
    model = FermatHermitian(q)
    G = generate([make_alpha(F, F.root_of_unity(m), 2)])
    assert G.order == m
    from maxcurves.action import is_semiregular
    assert is_semiregular(G, model)
    ledger = different_degree(G, model)
    assert ledger.consistent and ledger.quotient_genus == expected_genus
    theta = F.root_of_unity(m)
    count = quotient_point_count_by_stable_orbits(model, G, theta, 2, m)
    assert count == q * q + 1 + 2 * expected_genus * q
