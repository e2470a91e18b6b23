"""Named verification checks with machine-readable reports.

Every check reproduces one concrete numeric claim at fixed parameters and
returns a CheckReport whose verdict is decided by exact integer equality -
there are no tolerances anywhere.  Check failure is data (a 'fail' verdict),
never an exception.  A check body raises UnsupportedParameters for
parameters outside its documented limits ('unsupported'); any other
exception it raises is an internal failure ('error').

Reports serialize deterministically: evidence keys are sorted and the
elapsed-time field is zeroed unless timing is requested, so records are
byte-identical across runs.
"""

import json
import time

from . import polyroots
from .action import family_census, fixed_points, is_semiregular, mul2, \
    orbits, restrict_to_infinity, sylow_census, common_fixed_curve_points, \
    sharply_2_transitive
from .catalog import (PRIMOVALORE_REMAINDER, lemmino_scan, order_excluded,
                      primovalore_scan, quattordici_scan)
from .curves import FermatHermitian, GarciaStichtenoth, GeneralizedGK, \
    NormTraceHermitian
from .gf import TABLE_LIMIT, build_field
from .linpoly import compose, decompose, quotient_family_scan
from .numbertheory import is_prime_power
from .pgu3 import CLOSURE_CAP, Projectivity, generate, in_psu, make_alpha, \
    make_alpha_a, make_beta, make_three_cycle
from .ramification import different_degree, expected_delta, ledger_feasibility, \
    wild_contribution

SCHEMA_VERSION = 1


class CheckError(ValueError):
    pass


class UnknownCheck(CheckError):
    pass


class UnsupportedParameters(Exception):
    """Raised by a check body for parameters outside its supported table."""


class CheckReport:
    def __init__(self, name, params, verdict, evidence, claim, millis=0):
        self.name = name
        self.params = params
        self.verdict = verdict  # "pass" | "fail" | "unsupported" | "error"
        self.evidence = evidence
        self.claim = claim
        self.millis = millis

    def to_dict(self, timing=False):
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "params": self.params,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "claim": self.claim,
            "millis": self.millis if timing else 0,
        }

    def to_json(self, timing=False):
        return json.dumps(self.to_dict(timing), sort_keys=True)


def _verdict(conditions):
    return "pass" if all(conditions.values()) else "fail"


def _require(ok, reason):
    """Enforce a documented parameter limit of a check."""
    if not ok:
        raise UnsupportedParameters(reason)


# ---------------------------------------------------------------------------
# check implementations


def _check_hermitian_count(qs):
    for q in qs:
        _require(q * q <= TABLE_LIMIT and is_prime_power(q),
                 f"q = {q}: the counts enumerate F_(q^2), so q must be a "
                 f"prime power with q^2 <= 2^20")
    evidence = {}
    ok = {}
    for q in qs:
        fermat = FermatHermitian(q)
        ntrace = NormTraceHermitian(q)
        cf = fermat.count_rational_points()
        cn = ntrace.count_rational_points()
        evidence[f"q{q}"] = {
            "expected": q**3 + 1, "fermat": cf, "norm_trace": cn,
            "genus": fermat.genus(),
            "maximal": fermat.maximality_check() and ntrace.maximality_check(),
        }
        ok[f"q{q}"] = (cf == q**3 + 1 and cn == q**3 + 1
                       and evidence[f"q{q}"]["maximal"])
    return _verdict(ok), evidence


def _check_gk_congruence(ns):
    for n in ns:
        _require(n >= 3 and n % 2 and 2 * n <= 62,
                 f"n = {n}: the GK curve needs odd n >= 3, and F_(2^(2n)) "
                 f"must fit the 2^62 size cap (n <= 31)")
    evidence = {}
    ok = {}
    for n in ns:
        q = 2**n
        curve = GeneralizedGK(2, n)
        formula = 4 * q * q - 4 * q + 1
        entry = {"formula_count": formula, "mod3": formula % 3,
                 "genus": curve.genus()}
        conds = [formula % 3 == 0,
                 formula == q * q + 1 + 2 * q * curve.genus()]
        if n <= 5:
            enum = curve.count_rational_points()
            entry["enumerated"] = enum
            conds.append(enum == formula)
        evidence[f"n{n}"] = entry
        ok[f"n{n}"] = all(conds)
    return _verdict(ok), evidence


def _check_gs_congruence(qs):
    for q in qs:
        _require(q**6 <= TABLE_LIMIT and is_prime_power(q),
                 f"q = {q}: the count enumerates F_(q^6), so q must be a "
                 f"prime power with q^6 <= 2^20")
    evidence = {}
    ok = {}
    for q in qs:
        curve = GarciaStichtenoth(q)
        formula = q**7 - q**5 + q**4 + 1
        enum = curve.count_rational_points()
        entry = {
            "formula_count": formula,
            "enumerated": enum,
            "modulus": q**3 + 1,
            "count_mod": enum % (q**3 + 1),
            "expected_mod": (q * q + 1) % (q**3 + 1),
            "differs_from_two_fixed_point_residue": (q * q + 1) % (q**3 + 1) != 2,
        }
        evidence[f"q{q}"] = entry
        ok[f"q{q}"] = (enum == formula
                       and enum % (q**3 + 1) == (q * q + 1) % (q**3 + 1)
                       and entry["differs_from_two_fixed_point_residue"])
    return _verdict(ok), evidence


def _check_alpha_semiregular(ns):
    for n in ns:
        _require(n >= 1 and n % 2 and 2 * n <= 62
                 and 2**n + 1 <= CLOSURE_CAP,
                 f"n = {n}: the group orders (q+1)/3 and q+1 need odd n, "
                 f"and q + 1 must fit the closure cap {CLOSURE_CAP}")
    evidence = {}
    ok = {}
    for n in ns:
        q = 2**n
        F = build_field(2, 2 * n)
        model = FermatHermitian(q)
        theta = F.root_of_unity((q + 1) // 3)
        zeta = F.root_of_unity(q + 1)
        G = generate([make_alpha(F, theta, 2)])
        Gbar = generate([make_alpha(F, zeta, 2)])
        conds = {
            "g_order": G.order == (q + 1) // 3,
            "gbar_order": Gbar.order == q + 1,
            "g_inside_gbar": G.is_subgroup_of(Gbar),
            "g_normal": G.is_normal_in(Gbar),
            "g_semiregular": is_semiregular(G, model),
            "gbar_semiregular": is_semiregular(Gbar, model),
        }
        entry = {k: v for k, v in conds.items()}
        entry["index"] = Gbar.order // G.order
        if q * q <= 1 << 20:
            pts = model.rational_points()
            entry["scanned_points"] = len(pts)
            # orbit-stabilizer: every orbit has |Gbar| points iff no
            # nontrivial element fixes a point
            clean = all(len(o) == Gbar.order for o in orbits(Gbar, pts))
            entry["exhaustive_scan_confirms"] = clean
            conds["scan"] = clean and len(pts) == q**3 + 1
        evidence[f"n{n}"] = entry
        ok[f"n{n}"] = all(conds.values())
    return _verdict(ok), evidence


def _triangolo_construction(n):
    """The weighted-3-cycle family and its diagonal conjugation stabilizer.

    The family has 4(q+1)/9 members, which needs 9 | q + 1, that is
    n = 3 (mod 6).  Of those n, only 3 and 9 keep the eigenvalue field
    F_{2^(6n)} within the 2^62 size cap: n = 15 needs F_{2^90}.  The
    acceptance parameter is n = 9.
    """
    _require(n in (3, 9),
             "the census needs 9 | 2^n + 1 (n = 3 mod 6) for its family size "
             "4(q+1)/9, and n >= 15 needs F_{2^(6n)} beyond the 2^62 size cap; "
             "supported: n in {3, 9}")
    q = 2**n
    F = build_field(2, 2 * n)
    model = FermatHermitian(q)
    ord_nbar = (q + 1) // 3
    theta = F.root_of_unity(ord_nbar)
    zeta = F.root_of_unity(q + 1)  # not a cube: its order is 3 * ord_nbar
    i = 8 if n == 9 else 2
    h = make_three_cycle(F, zeta, 1, q)
    family = []
    for j in range(1, ord_nbar):
        if j % 3 == 0:
            continue
        s = make_alpha(F, F.pow(theta, j), i) * h
        family.append(s)
        family.append(s * s)  # the projective inverse: s^3 is scalar
    omega = F.root_of_unity(3)
    gens = [Projectivity(F, (omega, 0, 0, 0, F.mul(omega, omega), 0, 0, 0, 1))]
    if n == 9:
        gens.append(Projectivity(
            F, (F.pow(theta, 9), 0, 0, 0, F.pow(theta, 15), 0, 0, 0, 1)))
    stabilizer = generate(gens)
    return q, F, model, family, stabilizer


def _check_triangolo_census(n):
    q, _, model, family, stab = _triangolo_construction(n)
    census = family_census(family, stab, model)
    expected_incidence = 4 * (q + 1) // 3
    expected_m = 2 * (q + 1) // 3
    per_element_ok = all(c == 3 for _, c in census.per_element)
    point_fields = sorted({P.field.k for P in census.points})
    pointwise = census.pointwise_incidence(family)
    orbit_sizes = sorted({len(o) for o in census.orbit_partition})
    conds = {
        "family_size": len(family) == 4 * (q + 1) // 9,
        "every_element_fixes_exactly_3_on_curve": per_element_ok,
        "incidence": census.incidence == expected_incidence,
        "pointwise_recount": pointwise == expected_incidence,
        "census_size": census.size == expected_m,
        "orbits": census.n_orbits == 2,
        "orbit_sizes_equal": orbit_sizes == [expected_m // 2],
        "coordinates_in_cubic_extension": point_fields == [6 * n],
        "family_outside_psu": all(not in_psu(s, model) for s in family[:4]),
        "quotient_count_congruence_excluded": 0 not in (1, 2),
    }
    evidence = {
        "q": q,
        "family_size": len(family),
        "incidence": census.incidence,
        "expected_incidence": expected_incidence,
        "pointwise_incidence": pointwise,
        "census_size": census.size,
        "expected_census_size": expected_m,
        "n_orbits": census.n_orbits,
        "orbit_sizes": sorted(len(o) for o in census.orbit_partition),
        "stabilizer_order": stab.order,
        "point_field_degrees": point_fields,
        "gk_count_mod3": (4 * q * q - 4 * q + 1) % 3,
        "quotient_fixed_points": census.n_orbits,
    }
    return _verdict(conds), evidence


def _check_eigen_fixed_points(ns):
    for n in ns:
        _require(n >= 1 and n % 2 and 6 * n <= 62,
                 f"n = {n}: the weights need 3 | q + 1 (odd n), and the "
                 f"eigenvalue field F_(2^(6n)) must fit the 2^62 size cap "
                 f"(n <= 9)")
    evidence = {}
    ok = {}
    for n in ns:
        q = 2**n
        F = build_field(2, 2 * n)
        model = FermatHermitian(q)
        theta = F.root_of_unity((q + 1) // 3)
        zeta = F.root_of_unity(q + 1)
        sigma = make_alpha(F, theta, 2) * make_three_cycle(F, zeta, 1, q)
        fps = fixed_points(sigma, model)
        on_curve = fps.on_curve_count()
        fields = sorted({P.field.k for P, _ in fps.points})
        evidence[f"n{n}"] = {
            "kind": fps.kind,
            "n_fixed_points": len(fps.points),
            "on_curve": on_curve,
            "point_field_degrees": fields,
            "det_is_cube": F.is_dth_power(sigma.det(), 3),
        }
        ok[f"n{n}"] = (fps.kind == "points" and len(fps.points) == 3
                       and on_curve == 3 and fields == [6 * n]
                       and not evidence[f"n{n}"]["det_is_cube"])
    return _verdict(ok), evidence


def _check_phi_homomorphism(q):
    import random
    pk = is_prime_power(q)
    _require(pk is not None and pk[0] == 2, f"q = {q} must be a power of 2")
    _require(q + 1 <= CLOSURE_CAP,
             f"q = {q}: the group of order q + 1 must fit the closure cap "
             f"{CLOSURE_CAP}")
    F = build_field(2, 2 * pk[1])
    model = FermatHermitian(q)
    zeta = F.root_of_unity(q + 1)
    G = generate([make_alpha(F, zeta, 2)])
    rng = random.Random(20240)
    els = G.elements
    hom_ok = True
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        if restrict_to_infinity(a * b) != mul2(
                F, restrict_to_infinity(a), restrict_to_infinity(b)):
            hom_ok = False
            break
    kernel = sum(1 for g in els if restrict_to_infinity(g) == (1, 0, 0, 1))
    semi = is_semiregular(G, model)
    conds = {"homomorphism": hom_ok, "injective": kernel == 1,
             "semiregular": semi, "order": G.order == q + 1}
    evidence = {"group_order": G.order, "kernel_size": kernel,
                "homomorphism_on_100_pairs": hom_ok, "semiregular": semi}
    return _verdict(conds), evidence


def _check_primovalore(q_max):
    _require(q_max >= 10, "the scan must reach q = 10: q_max >= 10")
    hits = primovalore_scan(q_max)
    conds = {"result_set": hits == [1, 2, 3, 10]}
    a, b = PRIMOVALORE_REMAINDER
    spot = {"q10_divides": (a * 10 + b) % (10 * 10 + 10 + 2) == 0,
            "q4_excluded": (a * 4 + b) % (4 * 4 + 4 + 2) != 0}
    conds.update(spot)
    return _verdict(conds), {"q_max": q_max, "hits": hits, **spot}


def _check_lemmino(m_max):
    _require(m_max >= 3, "the scan starts at p' = 3: m_max >= 3")
    violations = lemmino_scan(m_max)
    return _verdict({"no_violations": not violations}), {
        "m_max": m_max, "violations": violations,
        "spot_p3_m5": {"sum": 993, "bound": 99, "holds": 993 > 99},
        "spot_p5_m1": {"lhs": 11, "rhs": 3, "holds": 11 > 3},
    }


def _check_quattordici(m_max):
    _require(m_max >= 3, "the scan starts at m = 3: m_max >= 3")
    table = quattordici_scan(m_max)
    survivors = {m: s for m, s in table.items() if s}
    conds = {
        "unique_survivor": survivors == {3: ["iv"]},
        "case_iv_reason": all((9 % (2**m + 1) == 0) == (m == 3)
                              for m in table),
    }
    return _verdict(conds), {
        "m_max": m_max,
        "survivors": {str(m): s for m, s in survivors.items()},
        "scanned_m": sorted(table),
    }


def _check_secondovalore_catalog(qs):
    from math import gcd
    for q in qs:
        _require(is_prime_power(q), f"q = {q} is not a prime power")
    evidence = {}
    ok = {}
    for q in qs:
        m = q * q + q + 1
        expected = {"i", "ii"} if q % 2 == 0 else {"i", "ii", "v"}
        s1 = sorted({e.label for e in order_excluded(m, q**3, 1)})
        s3 = sorted({e.label for e in order_excluded(m, q**3, 3)})
        # a group of order q^2+q+1 lies in the determinant-cube subgroup:
        # either that subgroup is the whole group, or 3 misses the order
        inside = gcd(3, q**3 + 1) == 1 or m % 3 != 0
        evidence[f"q{q}"] = {
            "degree": m,
            "survivors_x1": s1,
            "survivors_x3": s3,
            "expected_survivors": sorted(expected),
            "forced_into_cube_classes": inside,
        }
        ok[f"q{q}"] = set(s1) == expected and set(s3) == expected and inside
    return _verdict(ok), evidence


_DELTA_PROFILES = {
    4: {
        "top_genus": 2016, "quotient_genus": 90, "group_order": 20,
        "delta": 470, "component_sum": 350,
        "profiles": {
            "fifteen_involutions": [(2, 15), (5, 4)],
            "cyclic_four_point_stabilizers": [(2, 5), (4, 10), (5, 4)],
        },
    },
    8: {
        "top_genus": 130816, "quotient_genus": 1764, "group_order": 72,
        "delta": 7758, "component_sum": 4734,
        "profiles": {
            "many_involutions": [(2, 18), (4, 36), (3, 8)],
            "quaternion_point_stabilizers": [(2, 9), (4, 54), (3, 8)],
        },
    },
}


def _check_delta_ledger(qs):
    for q in qs:
        _require(q in _DELTA_PROFILES,
                 f"no ledger data for q = {q}; supported: 4, 8")
    evidence = {}
    ok = {}
    for q in qs:
        data = _DELTA_PROFILES[q]
        model = FermatHermitian(q**3)
        delta = expected_delta(data["top_genus"], data["quotient_genus"],
                               data["group_order"])
        main_profile = data["profiles"][list(data["profiles"])[-1]]
        component = sum(wild_contribution(o, model) * c
                        for o, c in main_profile if o % model.p == 0)
        verdicts = {}
        for name, profile in data["profiles"].items():
            feasible, why = ledger_feasibility(delta, profile, model)
            verdicts[name] = {"feasible": feasible, "explanation": why}
        evidence[f"q{q}"] = {
            "delta": delta, "expected_delta": data["delta"],
            "component_sum": component,
            "expected_component_sum": data["component_sum"],
            "profiles": verdicts,
            "top_genus": model.genus(),
        }
        ok[f"q{q}"] = (delta == data["delta"]
                       and component == data["component_sum"]
                       and model.genus() == data["top_genus"]
                       and not any(v["feasible"] for v in verdicts.values()))
    return _verdict(ok), evidence


def _check_rh_quotient_genus(n):
    _require(n >= 3 and n % 2 and 2 * n <= 62
             and 2**n + 1 <= 3 * CLOSURE_CAP,
             f"n = {n}: the GK curve needs odd n >= 3, and the group of "
             f"order (q+1)/3 must fit the closure cap {CLOSURE_CAP}")
    q = 2**n
    F = build_field(2, 2 * n)
    model = FermatHermitian(q)
    theta = F.root_of_unity((q + 1) // 3)
    G = generate([make_alpha(F, theta, 2)])
    ledger = different_degree(G, model)
    target = GeneralizedGK(2, n).genus()
    conds = {
        "delta_zero": ledger.delta == 0,
        "consistent": ledger.consistent,
        "genus_matches": ledger.quotient_genus == target,
    }
    return _verdict(conds), {
        "group_order": G.order, "delta": ledger.delta,
        "quotient_genus": ledger.quotient_genus, "target_genus": target,
        "top_genus": ledger.top_genus,
    }


def _check_linpoly_decompose():
    F2 = build_field(2, 1)
    target = (1, 0, 0, 1)                     # X^8 + X, and t^3 + 1
    inner = (1, 1)                            # X^2 + X, and t + 1
    outer = decompose(F2, target, inner)
    expected = (1, 1, 1)                      # X^4 + X^2 + X
    roundtrip = outer is not None and compose(F2, outer, inner) == target
    quad = (1, 1, 1)                          # t^2 + t + 1
    factorization = polyroots.mul(F2, inner, quad) == target
    bad = decompose(F2, target, (1, 0, 1))    # by X^4 + X
    conds = {
        "decomposition": outer == expected,
        "roundtrip": roundtrip,
        "associate_factorization": factorization,
        "non_decomposable_detected": bad is None,
    }
    return _verdict(conds), {
        "outer_indices": [i for i, c in enumerate(outer) if c] if outer else None,
        "associate_target": list(target),
        "associate_factors": [list(inner), list(quad)],
        "failure_case_returns_none": bad is None,
    }


def _check_prop1sylow_nondiv(q):
    _require(q == 4, "the family scan is pinned at q = 4")
    F = build_field(2, 12)
    tested, divisible, disagreements = quotient_family_scan(F, q)
    conds = {
        "no_divisible_member": divisible == 0,
        "criteria_agree": disagreements == 0,
        "family_nonempty": tested > 0,
    }
    return _verdict(conds), {
        "families_tested": tested, "divisible": divisible,
        "criteria_disagreements": disagreements,
    }


def _check_sylow_census(q):
    _require(q == 4, "the Sylow construction is pinned at q = 4")
    F = build_field(2, 12)
    model = NormTraceHermitian(64)
    kernel = [c for c in F.elements() if F.add(F.pow(c, 64), c) == 0]
    u = min(c for c in kernel if c not in (0, 1))
    gens = [make_beta(F, 1, 64), make_beta(F, u, 64),
            make_alpha_a(F, F.root_of_unity(5), 64)]
    G = generate(gens)
    count, sylows = sylow_census(G, 2)
    fixed = common_fixed_curve_points(sylows[0], model)
    orbit_count = len(orbits(G, fixed))
    sharply = sharply_2_transitive(G, fixed)
    conds = {
        "group_order": G.order == 20,
        "unique_sylow": count == 1,
        "sylow_order": sylows[0].order == 4,
        "fixed_point_is_ideal_point": [P.coords for P in fixed] == [(1, 0, 0)],
        "single_orbit": orbit_count == 1,
        "not_sharply_2_transitive": not sharply,
    }
    return _verdict(conds), {
        "group_order": G.order, "sylow_count": count,
        "sylow_orders": sorted(s.order for s in sylows),
        "fixed_points": [list(P.coords) for P in fixed],
        "orbit_count": orbit_count,
        "sharply_2_transitive": sharply,
    }


# ---------------------------------------------------------------------------
# registry


class _Check:
    def __init__(self, func, claim, params):
        self.func = func
        self.claim = claim
        self.params = params  # {name: default}


def _int(value):
    """An int (not a bool) or the text of one; else ValueError, so that a
    library caller's 20.9 or True is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _int_list(value):
    """A list or tuple of `_int` values, their comma-separated text, or one."""
    if isinstance(value, str):
        value = value.split(",")
    elif not isinstance(value, (list, tuple)):
        value = [value]
    return tuple(_int(v) for v in value)


REGISTRY = {
    "hermitian-count": _Check(
        _check_hermitian_count,
        "the Hermitian curve has exactly q^3 + 1 rational points over F_{q^2} "
        "and attains the Hasse-Weil bound, for q in {2, 3, 4, 8}",
        {"qs": (2, 3, 4, 8)}),
    "gk-congruence": _Check(
        _check_gk_congruence,
        "the generalized GK curve over F_{2^(2n)} has 4q^2 - 4q + 1 rational "
        "points (q = 2^n), a count divisible by 3",
        {"ns": (5, 7)}),
    "gs-congruence": _Check(
        _check_gs_congruence,
        "the Garcia-Stichtenoth curve over F_{q^6} has q^7 - q^5 + q^4 + 1 "
        "rational points, congruent to q^2 + 1 and not to 2 modulo q^3 + 1",
        {"qs": (2, 3, 4)}),
    "alpha-semiregular": _Check(
        _check_alpha_semiregular,
        "the diagonal group of order (q+1)/3 acts semiregularly on the "
        "Hermitian curve, and so does its index-3 diagonal overgroup",
        {"ns": (5,)}),
    "triangolo-census": _Check(
        _check_triangolo_census,
        "each weighted 3-cycle in the non-cube determinant family has exactly "
        "3 fixed points on the Hermitian curve; the incidence count is "
        "4(q+1)/3 over 2(q+1)/3 points forming 2 orbits of the diagonal "
        "stabilizer, incompatible with a quotient count divisible by 3",
        {"n": 9}),
    "eigen-fixed-points": _Check(
        _check_eigen_fixed_points,
        "a unitary weighted 3-cycle with non-cube determinant has exactly 3 "
        "fixed points, all on the curve, with coordinates in the cubic "
        "extension of F_{q^2}",
        {"ns": (5, 7, 9)}),
    "phi-homomorphism": _Check(
        _check_phi_homomorphism,
        "restriction to a stabilized line is a group homomorphism into "
        "PGL(2, q^2), injective on a semiregular line stabilizer",
        {"q": 32}),
    "primovalore": _Check(
        _check_primovalore,
        "q^2 + q + 2 divides q^9 (q^9 + 1)(q^6 - 1) only for q in "
        "{1, 2, 3, 10}, by direct divisibility and by the linear remainder "
        "2128 q - 1568",
        {"q_max": 10**6}),
    "lemmino": _Check(
        _check_lemmino,
        "the three impossibility facts excluding subfield unitary groups "
        "hold for all odd primes p' and odd m in range",
        {"m_max": 20}),
    "quattordici": _Check(
        _check_quattordici,
        "among the tripled subfield-catalog orders, only the Singer "
        "normalizer case at m = 3 survives the Lagrange test, via "
        "(2^m + 1) | 9",
        {"m_max": 20}),
    "secondovalore-catalog": _Check(
        _check_secondovalore_catalog,
        "a group of order q^2 + q + 1 is excluded from every maximal "
        "subgroup class except the point and line stabilizers (and the "
        "conic case in odd characteristic), under multipliers 1 and 3",
        {"qs": (4, 5)}),
    "delta-ledger": _Check(
        _check_delta_ledger,
        "the different degree equals 470 (q = 4) and 7758 (q = 8); the "
        "forced wild sums are 350 and 4734; no admissible assignment of "
        "tame contributions completes either ledger",
        {"qs": (4, 8)}),
    "rh-quotient-genus": _Check(
        _check_rh_quotient_genus,
        "a semiregular tame diagonal group of order (q+1)/3 on the Hermitian "
        "curve gives different degree 0 and quotient genus (3q-4)/2",
        {"n": 5}),
    "linpoly-decompose": _Check(
        _check_linpoly_decompose,
        "X^8 + X decomposes through X^2 + X with outer factor "
        "X^4 + X^2 + X, and t^3 + 1 = (t + 1)(t^2 + t + 1) over F_2",
        {}),
    "prop1sylow-nondiv": _Check(
        _check_prop1sylow_nondiv,
        "no member of the binomial family A X^(q^2) + B X (A, B from the "
        "quotient-equation constraints) divides X^(q^3) + X, under both the "
        "composition and conventional-associate criteria",
        {"q": 4}),
    "sylow-census": _Check(
        _check_sylow_census,
        "the order-20 group built from trace-zero translations and a "
        "diagonal of order 5 has a unique (normal) Sylow 2-subgroup whose "
        "curve fixed point is the ideal point, a single orbit",
        {"q": 4}),
}


def run_check(name, params=None) -> CheckReport:
    """Execute one named check; failures are verdicts, not exceptions."""
    if name not in REGISTRY:
        raise UnknownCheck(f"unknown check {name!r}; known: {', '.join(sorted(REGISTRY))}")
    spec = REGISTRY[name]
    # the body gets every parameter: the parsed value, else the default
    kwargs = dict(spec.params)
    for key, raw in (params or {}).items():
        if key not in spec.params:
            raise CheckError(f"check {name!r} takes no parameter {key!r}")
        # a tuple default takes a comma-separated list, any other an integer
        parser = _int_list if isinstance(spec.params[key], tuple) else _int
        try:
            kwargs[key] = parser(raw)
        except ValueError:
            raise CheckError(f"bad value {raw!r} for parameter {key!r}") from None
    shown = {k: (list(v) if isinstance(v, tuple) else v) for k, v in kwargs.items()}
    t0 = time.monotonic()
    try:
        verdict, evidence = spec.func(**kwargs)
    except UnsupportedParameters as exc:
        verdict, evidence = "unsupported", {"reason": str(exc)}
    except Exception as exc:
        # an internal failure: the report carries the exception, the log
        # (stderr by default) the traceback, and the remaining checks still
        # run; logging is imported here to keep it out of start-up time
        import logging
        logging.getLogger(__name__).exception("check %r raised", name)
        verdict, evidence = "error", {"error": f"{type(exc).__name__}: {exc}"}
    millis = int((time.monotonic() - t0) * 1000)
    return CheckReport(name, shown, verdict, evidence, spec.claim, millis)


def run_all(filter_prefix=None):
    """Run the registry (optionally filtered by name prefix) in registry order."""
    return [run_check(n) for n in REGISTRY
            if filter_prefix is None or n.startswith(filter_prefix)]


def summarize(reports):
    counts = {"pass": 0, "fail": 0, "unsupported": 0, "error": 0}
    for r in reports:
        counts[r.verdict] += 1
    return counts
