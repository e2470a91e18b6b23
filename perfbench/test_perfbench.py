"""Tests for the benchmark's own pieces (not part of the package suite).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] (which holds d [2, 3]) and c [5, 6]
        t = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
        t.enter("a")
        t.enter("b")
        t.enter("d")
        self.assertEqual(t.exit(), ("d", 1, 1))
        self.assertEqual(t.exit(), ("b", 3, 2))
        t.enter("c")
        t.exit()
        self.assertEqual(t.exit(), ("a", 10, 6))
        self.assertEqual(t.stat("a", "self_s"), 6)
        self.assertEqual(t.stat("a", "total_s"), 10)
        self.assertEqual(t.edges, {("a", "b"): 3, ("b", "d"): 1, ("a", "c"): 1})

    def test_repeated_calls_accumulate(self):
        t = tracer.Tracer(clock=FakeClock([0, 1, 3, 7, 8, 9, 12, 20]))
        t.enter("outer")
        for _ in range(3):
            t.enter("inner")
            t.exit()
        t.exit()
        self.assertEqual(t.stat("inner", "calls"), 3)
        self.assertEqual(t.stat("inner", "total_s"), 2 + 1 + 3)
        self.assertEqual(t.stat("outer", "self_s"), 20 - 6)

    def test_span_counts_errors_and_reraises(self):
        t = tracer.Tracer(clock=FakeClock(range(100)))

        def boom():
            raise KeyError("x")

        wrapped = tracer.span(t, "m.boom", boom)
        with self.assertRaises(KeyError):
            wrapped()
        self.assertEqual(t.stat("m.boom", "errors"), 1)
        self.assertEqual(t.stack, [])


class RebindTest(unittest.TestCase):
    def test_from_import_names_are_rebound(self):
        lib = types.ModuleType("pkg.lib")
        user = types.ModuleType("pkg.user")
        exec("def layer():\n    return 1\ndef _helper():\n    return 2\n"
             "def local_only():\n    return 3\n", lib.__dict__)
        for fn in vars(lib).values():
            if callable(fn):
                fn.__module__ = "pkg.lib"
        user.layer = lib.layer          # from .lib import layer
        user._helper = lib._helper      # private names are not layers
        found = tracer.boundary_functions([lib, user])
        self.assertEqual([f.__name__ for f in found], ["layer"])
        t = tracer.Tracer()
        wrapped = tracer.span(t, "lib.layer", lib.layer)
        self.assertEqual(tracer.rebind([lib, user], found[0], wrapped), 2)
        self.assertIs(lib.layer, wrapped)
        self.assertIs(user.layer, wrapped)
        self.assertEqual(user.layer(), 1)
        self.assertEqual(t.stat("lib.layer", "calls"), 1)

    def test_install_on_package(self):
        # installs into a child interpreter: the wrappers are permanent
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import json, maxcurves, tracer\n"
            "from maxcurves import action, checks, ramification\n"
            "t = tracer.Tracer(); collect = tracer.install(t)\n"
            "assert checks.fixed_points is action.fixed_points\n"
            "assert ramification.fixed_points is action.fixed_points\n"
            "assert action.fixed_points.__wrapped__ is not None\n"
            "r = checks.run_check('rh-quotient-genus'); collect()\n"
            "print(json.dumps({'verdict': r.verdict, 'counts': t.counts,\n"
            "                  'edges': [list(k) for k in t.edges]}))\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code, str(HERE)],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True).stdout
        got = json.loads(out.splitlines()[-1])
        self.assertEqual(got["verdict"], "pass")
        self.assertIn(["ramification.i_sigma", "action.fixed_points"],
                      got["edges"])
        self.assertGreater(got["counts"]["gf.table.mul.calls"], 0)
        self.assertEqual(got["counts"]["gf.vec.mul.calls"], 0)
        self.assertGreater(got["counts"]["pgu3.generate.elements"], 0)


class EmbeddingOracleTest(unittest.TestCase):
    F4 = (1, 1, 1)           # X^2 + X + 1
    F16 = (1, 1, 0, 0, 1)    # X^4 + X + 1

    def test_known_embedding(self):
        # the roots of X^2 + X + 1 in F_16 are X^5 = X^2 + X (6) and
        # X^10 = X^2 + X + 1 (7); the canonical image is the smaller one
        self.assertTrue(workloads.embedding_oracle(self.F4, self.F16, 6))

    def test_wrong_images(self):
        self.assertFalse(workloads.embedding_oracle(self.F4, self.F16, 7))
        self.assertFalse(workloads.embedding_oracle(self.F4, self.F16, 5))
        self.assertFalse(workloads.embedding_oracle(self.F4, self.F16, 16))

    def test_package_embeddings(self):
        from maxcurves import gf
        for m, k in ((2, 4), (3, 12), (8, 24), (1, 5)):
            src, dst = gf.build_field(2, m), gf.build_field(2, k)
            tm = gf.embed(src, dst)
            self.assertTrue(workloads.embedding_oracle(
                src.modulus, dst.modulus, tm.gen_image), (m, k))
            self.assertFalse(workloads.embedding_oracle(
                src.modulus, dst.modulus, tm.gen_image ^ 1), (m, k))

    def test_imprimitive_override_polynomials(self):
        import random
        for m in workloads.OVERRIDE_DEGREES:
            coeffs = workloads.imprimitive_irreducible(m, random.Random(m))
            mask = workloads.coeff_mask(coeffs)
            self.assertEqual(len(coeffs), m + 1)
            self.assertTrue(workloads.gf2_is_irreducible(mask))
            order = (1 << m) - 1
            self.assertTrue(any(
                workloads.gf2_powmod(2, order // r, mask, m) == 1
                for r in workloads.prime_factors(order)))


class GoldenTest(unittest.TestCase):
    def test_one_altered_line_is_caught(self):
        golden = workloads.load_golden_reports()
        name = "delta-ledger"
        record = json.loads(golden[name])
        record["evidence"]["q4"]["delta"] += 1
        altered = json.dumps(record, sort_keys=True)
        self.assertFalse(workloads.report_matches(name, altered, golden))
        for other, line in golden.items():
            self.assertTrue(workloads.report_matches(other, line, golden))

    def test_moduli_cover_the_fields_workload(self):
        moduli = workloads.load_golden_moduli()
        builds = {op[1:] for op in workloads.plan("fields", 1)
                  if op[0] == "build"}
        self.assertEqual(builds, set(moduli))


class PlanTest(unittest.TestCase):
    def test_seed_only_reorders_checks(self):
        for w in ("vector", "table"):
            a, b = workloads.plan(w, 1), workloads.plan(w, 2)
            self.assertEqual(sorted(a), sorted(b))
        checks = [op[1] for w in ("vector", "table")
                  for op in workloads.plan(w, 1)]
        self.assertEqual(sorted(checks),
                         sorted(workloads.load_golden_reports()))

    def test_fields_plan_is_seeded(self):
        a, b = workloads.plan("fields", 7), workloads.plan("fields", 7)
        self.assertEqual(a, b)
        shape = [(op[0], op[1]) for op in a if op[0].startswith("override")]
        other = [(op[0], op[1]) for op in workloads.plan("fields", 8)
                 if op[0].startswith("override")]
        self.assertEqual(shape, other)


class SpeedProbeTest(unittest.TestCase):
    def test_probe_checks_its_result(self):
        probe = calib.Probe()
        self.assertGreater(probe(), 0)
        probe.total += 1
        with self.assertRaises(RuntimeError):
            probe()

    def test_factor_is_mean_over_nominal(self):
        sampler = calib.Sampler()
        sampler.samples = [calib.NOMINAL_S, 2 * calib.NOMINAL_S]
        self.assertAlmostEqual(sampler.factor(), 1.5)

    def test_sampler_samples_while_running(self):
        sampler = calib.Sampler()
        sampler.start()
        try:
            deadline = time.monotonic() + 4 * calib.PERIOD_S
            while time.monotonic() < deadline:
                pass
        finally:
            sampler.stop()
        self.assertGreaterEqual(len(sampler.samples), 2)
        self.assertGreater(sampler.factor(), 0)

    def test_probe_error_is_raised_outside_the_handler(self):
        sampler = calib.Sampler()
        sampler.probe.total += 1
        sampler._tick(None, None)
        with self.assertRaises(RuntimeError):
            sampler.factor()


class DeterminismTest(unittest.TestCase):
    def test_count_mismatches(self):
        a = {"gf.embed.calls": 3, "pgu3.generate.elements": 9}
        self.assertEqual(run.count_mismatches(a, dict(a)), [])
        b = dict(a, **{"gf.embed.calls": 4, "gf.embed.errors": 1})
        self.assertEqual(run.count_mismatches(a, b),
                         ["gf.embed.calls", "gf.embed.errors"])


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
