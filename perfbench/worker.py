"""One benchmark pass, run by run.py in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--probes]

The package must be importable (run.py puts the checkout's src/ on
PYTHONPATH).  The pass runs its plan once, checks every result, and prints
one JSON object on its last line of standard output.

run_s runs from `import maxcurves` returning to the last checked result.
With --trace the layer wrappers are installed right after the import,
inside run_s; with --probes the kernel probes run after run_s is taken,
so they never count towards it.  With --speed the host speed sampler
(calib.py) runs during run_s and the pass reports its host factor.
"""

import argparse
import json
import random
import resource
import statistics
import sys
import time

import calib
import workloads


def _embed_ok(gf, src, dst):
    tm = gf.embed(src, dst)
    return (tm.src is src and tm.dst is dst
            and workloads.embedding_oracle(src.modulus, dst.modulus,
                                           tm.gen_image))


def _run_op(op, gf, checks, golden_reports, golden_moduli, fields, overridden):
    """Perform one operation; True iff its result passes the golden or oracle."""
    kind = op[0]
    if kind == "check":
        report = checks.run_check(op[1])
        return report.verdict == "pass" and workloads.report_matches(
            op[1], report.to_json(timing=False), golden_reports)
    _, a, b = op
    if kind == "build":
        F = fields[a, b] = gf.build_field(a, b)
        return (F.p, F.k, tuple(F.modulus)) == (a, b, golden_moduli[a, b])
    if kind == "override":
        gf.set_modulus_override(2, a, b)
        F = overridden[a] = gf.build_field(2, a)
        return (F.p, F.k, tuple(F.modulus)) == (2, a, tuple(b))
    if kind == "embed":
        return _embed_ok(gf, fields[2, a], fields[2, b])
    if kind == "override-embed":
        return _embed_ok(gf, overridden[a], fields[2, b])
    raise ValueError(f"unknown operation {kind!r}")


def run_plan(ops, gf, checks, golden_reports, golden_moduli):
    """Run the operations; returns (attempted, failed, wrong, errors, check_s).

    An operation that raises is failed; one whose result is wrong is failed
    and also wrong, which makes the benchmark's output incorrect.
    """
    fields, overridden = {}, {}
    failed = wrong = 0
    errors = []
    check_s = {}
    for op in ops:
        t0 = time.perf_counter()
        try:
            ok = _run_op(op, gf, checks, golden_reports, golden_moduli,
                         fields, overridden)
        except Exception as exc:  # a failed operation is data, not a crash
            failed += 1
            errors.append(f"{op[:3]!r} raised {type(exc).__name__}: {exc}")
        else:
            if not ok:
                failed += 1
                wrong += 1
                errors.append(f"{op[:3]!r} returned a wrong result")
        if op[0] == "check":
            check_s[op[1]] = time.perf_counter() - t0
    return len(ops), failed, wrong, errors, check_s


def _time_batches(fn, batches=7):
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(gf, seed):
    """Kernel probes on seeded operands; returns (ns per op, wrong count)."""
    rng = random.Random(f"probes:{seed}")
    out, wrong = {}, 0
    for key, k, n, op in (("gf.table.mul_ns", 18, 20000, "mul"),
                          ("gf.vec.mul_ns", 54, 2000, "mul"),
                          ("gf.vec.inv_ns", 54, 40, "inv")):
        F = gf.build_field(2, k)
        mod = workloads.coeff_mask(F.modulus)
        xs = [rng.randrange(1, F.order) for _ in range(n)]
        ys = [rng.randrange(1, F.order) for _ in range(n)]
        if op == "mul":
            mul = F.mul

            def body():
                for a, b in zip(xs, ys):
                    mul(a, b)
            sample = [(a, b, mul(a, b)) for a, b in zip(xs[:50], ys[:50])]
            wrong += sum(workloads.gf2_mulmod(a, b, mod, k) != c
                         for a, b, c in sample)
        else:
            inv = F.inv

            def body():
                for a in xs:
                    inv(a)
            wrong += sum(workloads.gf2_mulmod(a, inv(a), mod, k) != 1
                         for a in xs[:10])
        out[key] = _time_batches(body) / n * 1e9
    return out, wrong


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probes", action="store_true")
    ap.add_argument("--speed", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.plan(args.workload, args.seed)
    golden_reports = workloads.load_golden_reports()
    golden_moduli = workloads.load_golden_moduli()

    import maxcurves  # noqa: F401  (the import a CLI user pays)
    sampler = calib.Sampler() if args.speed else None
    if sampler:
        sampler.start()
    t_ready = time.perf_counter()
    from maxcurves import checks, gf

    tracer = collect = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        collect = tracing.install(tracer)

    attempted, failed, wrong, errors, check_s = run_plan(
        ops, gf, checks, golden_reports, golden_moduli)
    run_s = time.perf_counter() - t_ready
    if sampler:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"run_s": run_s, "peak_rss_mb": peak_rss_mb,
              "attempted": attempted, "failed": failed, "wrong": wrong,
              "errors": errors, "check_s": check_s}
    if sampler:
        result["factor"] = sampler.factor()
        result["speed_samples"] = len(sampler.samples)
    if tracer is not None:
        collect()
        result["counts"] = tracer.deterministic_counts()
        result["stats"] = {name: dict(zip(tracing.STAT_FIELDS, st))
                           for name, st in tracer.stats.items()}
        result["edges"] = [[p, c, s] for (p, c), s in tracer.edges.items()]
    if args.probes:
        result["probes"], probe_wrong = probes(gf, args.seed)
        result["wrong"] += probe_wrong
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
