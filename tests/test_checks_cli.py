import json
from pathlib import Path

import pytest

from maxcurves import cli, gf
from maxcurves.checks import (REGISTRY, CheckError, UnknownCheck, run_all,
                              run_check, summarize)
from maxcurves.gf import clear_modulus_overrides, set_modulus_override

# the `maxcurves --all` stream (timing off), one line per check
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "all.jsonl"

FAST_CHECKS = ["hermitian-count", "gk-congruence", "gs-congruence", "lemmino",
               "quattordici", "secondovalore-catalog", "delta-ledger",
               "linpoly-decompose", "sylow-census"]

EXPECTED_NAMES = {
    "hermitian-count", "gk-congruence", "gs-congruence", "alpha-semiregular",
    "triangolo-census", "eigen-fixed-points", "phi-homomorphism",
    "primovalore", "lemmino", "quattordici", "secondovalore-catalog",
    "delta-ledger", "rh-quotient-genus", "linpoly-decompose",
    "prop1sylow-nondiv", "sylow-census",
}


def test_registry_names_and_claims():
    assert set(REGISTRY) == EXPECTED_NAMES
    for name, spec in REGISTRY.items():
        assert spec.claim.strip(), name  # every check documents its claim


@pytest.mark.parametrize("name", FAST_CHECKS)
def test_fast_checks_pass(name):
    report = run_check(name)
    assert report.verdict == "pass", (name, report.evidence)
    assert report.name == name
    d = report.to_dict()
    assert d["schema"] == 1 and d["millis"] == 0
    json.loads(report.to_json())  # serializable


def test_run_check_with_params():
    report = run_check("hermitian-count", {"qs": "2,3"})
    assert report.verdict == "pass"
    assert report.params == {"qs": [2, 3]}
    assert set(report.evidence) == {"q2", "q3"}


def test_gs_congruence_at_odd_q():
    # enumerates F_(5^6) and F_(7^6): odd-p fields built by a shift register
    report = run_check("gs-congruence", {"qs": "5,7"})
    assert report.verdict == "pass", report.evidence
    assert report.evidence["q5"]["enumerated"] == 75626
    assert report.evidence["q7"]["enumerated"] == 809138


def test_run_check_unknown_name():
    with pytest.raises(UnknownCheck):
        run_check("no-such-check")


def test_run_check_unknown_param():
    with pytest.raises(CheckError):
        run_check("lemmino", {"bogus": "1"})


def test_run_check_unsupported_parameters():
    report = run_check("delta-ledger", {"qs": "16"})
    assert report.verdict == "unsupported"
    assert "reason" in report.evidence


@pytest.mark.parametrize("name,params,needle", [
    ("hermitian-count", {"qs": "2048"}, "q^2 <= 2^20"),
    ("gk-congruence", {"ns": "33"}, "size cap"),
    ("gs-congruence", {"qs": "16"}, "q^6 <= 2^20"),
    ("alpha-semiregular", {"ns": "0"}, "odd n"),
    ("eigen-fixed-points", {"ns": "11"}, "size cap"),
    ("phi-homomorphism", {"q": str(2**22)}, "closure cap"),
    ("primovalore", {"q_max": "9"}, "q_max >= 10"),
    ("lemmino", {"m_max": "2"}, "m_max >= 3"),
    ("secondovalore-catalog", {"qs": "6"}, "not a prime power"),
    ("rh-quotient-genus", {"n": "4"}, "odd n >= 3"),
    ("phi-homomorphism", {"q": "9"}, "power of 2"),
])
def test_documented_limits_are_unsupported(name, params, needle):
    report = run_check(name, params)
    assert report.verdict == "unsupported"
    assert needle in report.evidence["reason"]


def test_check_bodies_take_exactly_the_registry_parameters():
    import inspect
    for name, spec in REGISTRY.items():
        sig = inspect.signature(spec.func).parameters
        assert list(sig) == list(spec.params), name
        assert all(p.default is p.empty for p in sig.values()), name


def test_internal_failure_is_error_not_unsupported(monkeypatch, capsys):
    def body(qs=(4, 8)):
        return "pass", {"ratio": 1 // 0}
    monkeypatch.setattr(REGISTRY["delta-ledger"], "func", body)
    report = run_check("delta-ledger")
    assert report.verdict == "error"
    assert list(report.evidence) == ["error"]
    assert report.evidence["error"].startswith("ZeroDivisionError: ")
    assert summarize([report])["error"] == 1
    rc = cli.main(["--check", "delta-ledger", "--format", "table"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("ERROR delta-ledger")
    assert "0 pass, 0 fail, 0 unsupported, 1 error" in out


def test_triangolo_census_at_n3_and_its_limit():
    report = run_check("triangolo-census", {"n": "3"})
    assert report.verdict == "pass", report.evidence
    report = run_check("triangolo-census", {"n": "5"})
    assert report.verdict == "unsupported"
    assert "9 | 2^n + 1" in report.evidence["reason"]


def test_eigen_fixed_points_under_imprimitive_override():
    try:
        # x^10 + x^3 + x^2 + x + 1 is irreducible but not primitive
        set_modulus_override(2, 10, (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1))
        report = run_check("eigen-fixed-points", {"ns": "5"})
        assert report.verdict == "pass", report.evidence
    finally:
        clear_modulus_overrides()


def test_run_all_filter_and_order():
    reports = run_all(filter_prefix="l")
    assert [r.name for r in reports] == ["lemmino", "linpoly-decompose"]
    assert summarize(reports)["pass"] == 2


def test_run_all_matches_golden_stream():
    golden = {json.loads(line)["name"]: line
              for line in GOLDEN.read_text().splitlines()}
    for prefix in ("g", "l", "q", "s"):
        for _ in range(2):
            reports = run_all(filter_prefix=prefix)
            assert reports
            for r in reports:
                assert r.to_json() == golden[r.name], r.name


def test_cli_single_check_json(capsys):
    rc = cli.main(["--check", "lemmino"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and len(out) == 1
    record = json.loads(out[0])
    assert record["name"] == "lemmino" and record["verdict"] == "pass"
    assert record["millis"] == 0  # deterministic by default


def test_cli_param_passing(capsys):
    rc = cli.main(["--check", "quattordici", "--param", "m_max=9",
                   "--format", "table"])
    out = capsys.readouterr().out
    assert rc == 0 and "PASS" in out


def test_cli_usage_errors(capsys):
    assert cli.main([]) == 2
    assert cli.main(["--check", "lemmino", "--all"]) == 2
    assert cli.main(["--check", "nope"]) == 2
    assert cli.main(["--check", "lemmino", "--param", "oops"]) == 2
    assert cli.main(["--check", "lemmino", "--param", "m_max=x"]) == 2


def test_cli_filter_matching_no_check_is_a_usage_error(capsys):
    assert cli.main(["--all", "--filter", "zzz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'zzz'" in captured.err


def test_cli_param_with_all_is_a_usage_error(capsys):
    # would otherwise run lemmino at its default m_max and exit 0
    assert cli.main(["--all", "--filter", "lemm", "--param", "m_max=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--param" in captured.err


def test_cli_repeated_param_key_is_a_usage_error(capsys):
    # would otherwise keep only the last value and report q = 3 alone
    argv = ["--check", "hermitian-count", "--param", "qs=2", "--param", "qs=3"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'qs' given twice" in captured.err
    # keys are compared after stripping, as they are passed on
    assert cli.main(["--check", "lemmino", "--param", "m_max=3",
                     "--param", " m_max = 4"]) == 2


def test_cli_filter_with_check_is_a_usage_error(capsys):
    assert cli.main(["--check", "lemmino", "--filter", "q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--filter" in captured.err


def test_cli_out_file(tmp_path, capsys):
    path = tmp_path / "reports.jsonl"
    rc = cli.main(["--check", "delta-ledger", "--out", str(path)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert path.read_text() == stdout


def test_cli_list(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_NAMES:
        assert name in out


def test_cli_field_config(tmp_path, capsys):
    from maxcurves.gf import build_field, clear_modulus_overrides
    good = tmp_path / "good.cfg"
    good.write_text("2 4 : 1 1 0 0 1\n")
    try:
        rc = cli.main(["--check", "lemmino", "--field-config", str(good)])
        assert rc == 0
        assert build_field(2, 4).modulus == (1, 1, 0, 0, 1)
    finally:
        clear_modulus_overrides()
    bad = tmp_path / "bad.cfg"
    bad.write_text("2 4 : 1 0 0 0 1\n")  # (x+1)^4 is reducible: refused
    try:
        rc = cli.main(["--check", "lemmino", "--field-config", str(bad)])
        assert rc == 2
    finally:
        clear_modulus_overrides()


def test_cli_seeded_failure_gives_nonzero_exit(monkeypatch, capsys):
    # mutation-style test: a check whose arithmetic went wrong must fail
    from maxcurves.checks import _Check
    broken = _Check(lambda: ("fail", {"expected": 470, "computed": 471}),
                    "intentionally broken for the failure path", {})
    monkeypatch.setitem(REGISTRY, "delta-ledger", broken)
    rc = cli.main(["--check", "delta-ledger"])
    out = capsys.readouterr().out
    assert rc == 1
    assert json.loads(out)["verdict"] == "fail"


def test_cli_unsupported_exit_code(monkeypatch, capsys):
    rc = cli.main(["--check", "delta-ledger", "--param", "qs=16"])
    capsys.readouterr()
    assert rc == 3


# one irreducible but imprimitive modulus per degree, low degree first:
# Phi_5, a degree-10 factor of X^1023 + 1 whose root has order 341,
# Phi_13 and Phi_27 = X^18 + X^9 + 1
IMPRIMITIVE = {
    4: (1,) * 5,
    10: (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1),
    12: (1,) * 13,
    18: (1,) + (0,) * 8 + (1,) + (0,) * 8 + (1,),
}

# every registered check that builds F_(2^k) for k in IMPRIMITIVE, with the
# first such degree it builds; delta-ledger reads only q, p and genera of
# models over F_(2^12) and F_(2^18), so it must build neither
OVERRIDE_DEGREE = {
    "hermitian-count": 4, "gk-congruence": 10, "gs-congruence": 12,
    "alpha-semiregular": 10, "triangolo-census": 18,
    "eigen-fixed-points": 10, "phi-homomorphism": 10, "delta-ledger": 12,
    "rh-quotient-genus": 10, "prop1sylow-nondiv": 12, "sylow-census": 12,
}


@pytest.mark.parametrize("name", sorted(OVERRIDE_DEGREE))
def test_every_check_passes_under_an_imprimitive_override(name):
    k = OVERRIDE_DEGREE[name]
    try:
        set_modulus_override(2, k, IMPRIMITIVE[k])
        report = run_check(name)
        assert report.verdict == "pass", report.evidence
        if name == "delta-ledger":
            assert (2, k) not in gf._FIELDS
        else:
            # the check really ran in the overridden field
            assert gf._FIELDS[(2, k)].modulus == IMPRIMITIVE[k]
    finally:
        clear_modulus_overrides()
