"""Acceptance suite: every criterion verified at exact integer equality.

One line per criterion is printed (run pytest -s to see them); each test
also enforces the stated runtime budget.
"""

import json
import time
from pathlib import Path

from maxcurves.catalog import lemmino_scan, primovalore_scan, quattordici_scan
from maxcurves.checks import run_all, run_check
from maxcurves.curves import (FermatHermitian, GarciaStichtenoth,
                              GeneralizedGK, NormTraceHermitian)
from maxcurves.gf import build_field
from maxcurves.pgu3 import generate, make_alpha
from maxcurves.ramification import expected_delta, ledger_feasibility


def report(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_hermitian_counts():
    expected = {2: 9, 3: 28, 4: 65, 8: 513}
    for q, want in expected.items():
        t0 = time.monotonic()
        fermat = FermatHermitian(q).count_rational_points()
        ntrace = NormTraceHermitian(q).count_rational_points()
        elapsed = time.monotonic() - t0
        ok = fermat == ntrace == want == q**3 + 1 and elapsed < 1.0
        report(1, ok, f"|H_{q}(F_{q*q})| = {fermat} (expected {want}, "
                      f"{elapsed:.3f}s)")


def test_criterion_2_gk_counts():
    t0 = time.monotonic()
    c32 = GeneralizedGK(2, 5).count_rational_points()
    formula32 = 4 * 32 * 32 - 4 * 32 + 1
    formula128 = 4 * 128 * 128 - 4 * 128 + 1
    elapsed = time.monotonic() - t0
    ok = (c32 == formula32 == 3969 and c32 % 3 == 0
          and formula128 == 65025 and formula128 % 3 == 0
          and elapsed < 5.0)
    report(2, ok, f"|C_32| = {c32} = 3969 = 0 mod 3, "
                  f"|C_128| = 65025 by formula = 0 mod 3 ({elapsed:.2f}s)")


def test_criterion_3_gs_counts():
    expected = {2: 113, 3: 2026, 4: 15617}
    t0 = time.monotonic()
    results = {}
    for q, want in expected.items():
        count = GarciaStichtenoth(q).count_rational_points()
        results[q] = count
        assert count == want == q**7 - q**5 + q**4 + 1
        assert count % (q**3 + 1) == q * q + 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    report(3, ok, f"|X_q(F_q6)| = {results}; residues 5 mod 9, 10 mod 28, "
                  f"17 mod 65 ({elapsed:.2f}s)")


def test_criterion_4_primovalore():
    t0 = time.monotonic()
    hits = primovalore_scan(10**6)
    elapsed = time.monotonic() - t0
    ok = hits == [1, 2, 3, 10] and elapsed < 10.0
    report(4, ok, f"degree scan to 10^6 gives {hits}, both methods agree "
                  f"({elapsed:.1f}s)")


def test_criterion_5_delta_ledgers():
    t0 = time.monotonic()
    d4 = expected_delta(2016, 90, 20)
    d8 = expected_delta(130816, 1764, 72)
    s4 = 5 * 66 + 10 * 2
    s8 = 9 * 514 + 54 * 2
    h64, h512 = FermatHermitian(64), FermatHermitian(512)
    f1, _ = ledger_feasibility(d4, [(2, 5), (4, 10), (5, 4)], h64)
    f2, _ = ledger_feasibility(d4, [(2, 15), (5, 4)], h64)
    f3, _ = ledger_feasibility(d8, [(2, 9), (4, 54), (3, 8)], h512)
    f4, _ = ledger_feasibility(d8, [(2, 18), (4, 36), (3, 8)], h512)
    elapsed = time.monotonic() - t0
    ok = (d4 == 470 and d8 == 7758 and s4 == 350 and s8 == 4734
          and not any((f1, f2, f3, f4)) and elapsed < 1.0)
    report(5, ok, f"delta = {d4}/{d8}, wild sums {s4}/{s8}, all four "
                  f"profiles infeasible ({elapsed:.2f}s)")


def test_criterion_6_semiregularity_and_quotient_genus():
    t0 = time.monotonic()
    report6 = run_check("alpha-semiregular", {"ns": "5"})
    entry = report6.evidence["n5"]
    ledger_report = run_check("rh-quotient-genus", {"n": "5"})
    elapsed = time.monotonic() - t0
    ok = (report6.verdict == "pass"
          and entry["scanned_points"] == 32769
          and entry["exhaustive_scan_confirms"]
          and ledger_report.verdict == "pass"
          and ledger_report.evidence["quotient_genus"] == 46
          and 46 == (3 * 32 - 4) // 2
          and elapsed < 30.0)
    report(6, ok, f"order-11 group semiregular (eigen + full scan of "
                  f"{entry.get('scanned_points')} points), quotient genus 46 "
                  f"({elapsed:.1f}s)")


def test_criterion_7_census_at_n9():
    t0 = time.monotonic()
    rep = run_check("triangolo-census", {"n": "9"})
    elapsed = time.monotonic() - t0
    ev = rep.evidence
    ok = (rep.verdict == "pass"
          and ev["incidence"] == 684 == 4 * 513 // 3
          and ev["pointwise_incidence"] == 684
          and ev["census_size"] == 342
          and ev["n_orbits"] == 2
          and ev["orbit_sizes"] == [171, 171]
          and ev["point_field_degrees"] == [54]
          and elapsed < 120.0)
    report(7, ok, f"|I| = {ev['incidence']}, {ev['census_size']} points in "
                  f"{ev['n_orbits']} orbits, membership in F_2^54, no curve "
                  f"enumeration ({elapsed:.1f}s)")


def test_criterion_8_integer_scans():
    t0 = time.monotonic()
    violations = lemmino_scan(20)
    table = quattordici_scan(20)
    survivors = {m: s for m, s in table.items() if s}
    elapsed = time.monotonic() - t0
    ok = violations == [] and survivors == {3: ["iv"]} and elapsed < 1.0
    report(8, ok, f"no counterexamples to the three impossibility facts; "
                  f"unique tripled-order survivor m=3 ({elapsed:.2f}s)")


def test_criterion_9_linearized_algebra():
    t0 = time.monotonic()
    toy = run_check("linpoly-decompose")
    scan = run_check("prop1sylow-nondiv", {"q": "4"})
    elapsed = time.monotonic() - t0
    ok = (toy.verdict == "pass"
          and toy.evidence["outer_indices"] == [0, 1, 2]
          and scan.verdict == "pass"
          and scan.evidence["divisible"] == 0
          and scan.evidence["criteria_disagreements"] == 0
          and elapsed < 60.0)
    report(9, ok, f"X^8+X = (X^4+X^2+X) o (X^2+X); t^3+1 = (t+1)(t^2+t+1); "
                  f"{scan.evidence['families_tested']} family members all "
                  f"non-divisible under both criteria ({elapsed:.1f}s)")


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    import random
    rng = random.Random(905)
    # field axioms on random triples
    F = build_field(2, 10)
    axioms = all(
        F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        and F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        for a, b, c in ((rng.randrange(1024) for _ in range(3))
                        for _ in range(2000)))
    # polarity involution over F_16
    from maxcurves.proj3 import pole
    from oracles import all_points, polar
    h4 = FermatHermitian(4)
    polarity = all(pole(polar(P, h4), h4) == P for P in all_points(h4.field))
    # orbit-stabilizer identity
    from maxcurves.action import family_census, fixed_points, orbits
    from maxcurves.pgu3 import Projectivity, make_three_cycle
    F16 = h4.field
    G = generate([make_alpha(F16, F16.root_of_unity(5), 2),
                  make_three_cycle(F16, 1, 1, q=4)])
    pts = [P for P in all_points(F16) if h4.contains(P)]
    orbit_stab = all(
        len(orbit) * sum(1 for g in G.elements
                         if g.apply_point(orbit[0]) == orbit[0]) == G.order
        for orbit in orbits(G, pts))
    # incidence double count at n = 3
    F64 = build_field(2, 6)
    h8 = FermatHermitian(8)
    theta = F64.root_of_unity(3)
    h3c = make_three_cycle(F64, F64.root_of_unity(9), 1, q=8)
    family = []
    for j in (1, 2):
        s = make_alpha(F64, F64.pow(theta, j), 2) * h3c
        family.extend([s, s * s])
    omega = F64.root_of_unity(3)
    stab = generate([Projectivity(F64, (omega, 0, 0, 0, F64.mul(omega, omega),
                                        0, 0, 0, 1))])
    census = family_census(family, stab, h8)
    double_count = census.pointwise_incidence(family) == census.incidence == 12
    # fixed-point oracle equivalence at q <= 8
    oracle_ok = True
    for q in (4, 8):
        model = FermatHermitian(q)
        Fq = model.field
        curve_pts = [P for P in all_points(Fq) if model.contains(P)]
        for sigma in (make_alpha(Fq, Fq.root_of_unity(q + 1), 2),
                      make_three_cycle(Fq, 1, 1, q=q)):
            eigen = sorted(P.coords for P in
                           fixed_points(sigma, model).curve_points()
                           if P.field is Fq)
            brute = sorted(P.coords for P in curve_pts
                           if sigma.apply_point(P) == P)
            if eigen != brute:
                oracle_ok = False
    # determinism of run_all: two serial runs, each line equal to the golden
    # `maxcurves --all` line of the same check
    golden_path = (Path(__file__).resolve().parents[1]
                   / "perfbench" / "golden" / "all.jsonl")
    golden = {json.loads(line)["name"]: line
              for line in golden_path.read_text().splitlines()}
    deterministic = True
    for prefix in ("g", "l", "q", "s", "d"):
        runs = [[r.to_json() for r in run_all(filter_prefix=prefix)]
                for _ in range(2)]
        if not (runs[0] == runs[1] and runs[0]
                and all(line == golden[json.loads(line)["name"]]
                        for line in runs[0])):
            deterministic = False
    elapsed = time.monotonic() - t0
    ok = (axioms and polarity and orbit_stab and double_count and oracle_ok
          and deterministic)
    report(10, ok, f"axioms={axioms}, polarity={polarity}, "
                   f"orbit-stabilizer={orbit_stab}, double-count={double_count}, "
                   f"eigen-oracle={oracle_ok}, determinism={deterministic} "
                   f"({elapsed:.1f}s)")
