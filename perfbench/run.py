"""maxcurves benchmark: cold-process passes over three workloads.

    python3 perfbench/run.py --workload {vector,table,fields} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  Every
pass runs in a fresh interpreter, one at a time, as a CLI user pays: field
tables and embeddings are per-process caches, so their cost stays inside
the timed work.  See perfbench/README.md for the workloads and metrics.

--trace 0 prints the end-to-end metrics: set-up time from a batch of
interpreter spawns, then untraced passes for about S seconds (medians).
Each of these times is divided by the host factor measured in the same
process (calib.py), so that the shared machine's drifting speed cancels.
--trace 1 prints the per-layer metrics: one untraced pass with the kernel
probes, then traced passes whose counts must repeat exactly.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it are for people.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TABLE_CHECKS, VECTOR_CHECKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 175        # every run ends inside 180 s
SETUP_SPAWNS = 21
# the speed probe runs after the timed import, on the CPU the import ran on
SETUP_CODE = ("import time\nimport maxcurves\nt = time.monotonic()\n"
              f"import sys\nsys.path.insert(0, {str(HERE)!r})\nimport calib\n"
              "print(repr(t), repr(calib.Probe().factor()))")

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "ratio"))

CHECK_NAMES = VECTOR_CHECKS + TABLE_CHECKS
PER_LAYER = (
    ("gf.build_field.calls", "count"), ("gf.build_field.built", "count"),
    ("gf.build_field.self_s", "s"), ("gf.build_field.oddp.self_s", "s"),
    ("gf.embed.calls", "count"), ("gf.embed.built", "count"),
    ("gf.embed.errors", "count"), ("gf.embed.self_s", "s"),
    ("gf.table.mul.calls", "count"), ("gf.vec.mul.calls", "count"),
    ("gf.vec.inv.calls", "count"), ("gf.vec.pow.calls", "count"),
    ("gf.table.mul_ns", "ns"), ("gf.vec.mul_ns", "ns"),
    ("gf.vec.inv_ns", "ns"),
    ("polyroots.roots.calls", "count"), ("polyroots.roots.self_s", "s"),
    ("pgu3.generate.calls", "count"), ("pgu3.generate.elements", "count"),
    ("pgu3.generate.self_s", "s"), ("pgu3.Projectivity.mul.calls", "count"),
    ("action.fixed_points.calls", "count"),
    ("action.fixed_points.self_s", "s"),
    ("action.fixed_points.total_s", "s"),
    ("action.family_census.self_s", "s"), ("action.orbits.self_s", "s"),
    ("action.sylow_census.self_s", "s"),
    ("action.is_semiregular.self_s", "s"),
    ("curves.count_rational_points.self_s", "s"),
    ("catalog.primovalore_scan.self_s", "s"),
    ("linpoly.quotient_family_scan.self_s", "s"),
    ("ramification.different_degree.self_s", "s"),
) + tuple((f"checks.{n}.s", "s") for n in CHECK_NAMES) + (
    ("trace.overhead_frac", "ratio"),
)
PROBES = ("gf.table.mul_ns", "gf.vec.mul_ns", "gf.vec.inv_ns")
# the seed only reorders checks here, so counts must repeat across seeds
SEED_INDEPENDENT = ("vector", "table")


class BenchError(RuntimeError):
    pass


class Clock:
    """The run's time budget: every child gets what is left of it."""

    def __init__(self, limit_s):
        self.start = time.monotonic()
        self.limit_s = limit_s

    def elapsed(self):
        return time.monotonic() - self.start

    def left(self):
        left = self.limit_s - self.elapsed()
        if left <= 0:
            raise BenchError("the run's time limit is used up")
        return left


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, clock):
    """Run a child to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=clock.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {argv[:3]} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:3]} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_sample(clock):
    """(Seconds from spawning an interpreter until `import maxcurves`
    returns, the host factor the interpreter measured right after)."""
    t0 = time.monotonic()
    ready, factor = spawn(["-c", SETUP_CODE], clock).split()[-2:]
    return float(ready) - t0, float(factor)


def run_pass(workload, seed, clock, trace=False, probes=False, speed=False):
    argv = [str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    argv += ["--trace"] * trace + ["--probes"] * probes + ["--speed"] * speed
    return json.loads(spawn(argv, clock).splitlines()[-1])


def count_mismatches(a, b):
    """Names of the counts that differ between two traced passes."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def end_to_end(workload, seed, seconds, clock):
    spawn(["-c", "import maxcurves"], clock)  # compile bytecode once, untimed
    # set-up samples at both ends of the run see the load its passes see
    setup = [setup_sample(clock) for _ in range(SETUP_SPAWNS // 2)]
    passes = []
    while True:
        passes.append(run_pass(workload, seed, clock, speed=True))
        typical = statistics.median(p["run_s"] for p in passes)
        # start another pass if ending after it is nearer `seconds` than now
        if clock.elapsed() + typical / 2 > seconds:
            break
    setup += [setup_sample(clock) for _ in range(SETUP_SPAWNS - len(setup))]
    for i, (raw, factor) in enumerate(setup):
        print(f"setup {i}: wall {raw:.4f} s  host factor {factor:.3f}")
    for i, p in enumerate(passes):
        print(f"pass {i}: wall {p['run_s']:.4f} s  host factor "
              f"{p['factor']:.3f} ({p['speed_samples']} samples)  run_s "
              f"{p['run_s'] / p['factor']:.4f}  peak_rss_mb "
              f"{p['peak_rss_mb']:.2f}  failed {p['failed']}/{p['attempted']}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": statistics.median(raw / factor for raw, factor in setup),
        "run_s": statistics.median(p["run_s"] / p["factor"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": 1 - failed / attempted,
    }
    return passes, metrics, True


def layer_metric(name, plain, traced):
    if name.startswith("checks."):
        return plain["check_s"].get(name[len("checks."):-len(".s")], 0.0)
    if name in PROBES:
        return plain["probes"][name]
    if name == "trace.overhead_frac":
        return statistics.median(p["run_s"] for p in traced) / plain["run_s"] - 1
    for field in ("self_s", "total_s"):
        if name.endswith("." + field):
            span = name[:-len(field) - 1]
            return statistics.median(p["stats"].get(span, {}).get(field, 0.0)
                                     for p in traced)
    return traced[0]["counts"].get(name, 0)


def per_layer(workload, seed, clock):
    plain = run_pass(workload, seed, clock, probes=True)
    traced = [run_pass(workload, seed, clock, trace=True) for _ in range(2)]
    steady = True
    bad = count_mismatches(traced[0]["counts"], traced[1]["counts"])
    if bad:
        steady = False
        print(f"determinism: counts differ between two passes at seed {seed}: "
              f"{bad}")
    passes = [plain] + traced
    slowest = max(p["run_s"] for p in traced)
    if workload in SEED_INDEPENDENT and clock.left() < 1.5 * slowest + 5:
        # a loaded machine must not push the run past its limit
        print(f"determinism across seeds: skipped, {clock.left():.0f} s "
              f"left for a {slowest:.0f} s pass")
    elif workload in SEED_INDEPENDENT:
        other = run_pass(workload, seed + 1, clock, trace=True)
        passes.append(other)
        bad = count_mismatches(traced[0]["counts"], other["counts"])
        if bad:
            steady = False
            print(f"determinism: counts differ between seeds {seed} and "
                  f"{seed + 1}: {bad}")
    run_s = traced[0]["run_s"]
    for (parent, child, total) in sorted(traced[0]["edges"],
                                         key=lambda e: -e[2])[:12]:
        print(f"span {parent} > {child}: {total:.4f} s "
              f"({total / run_s:.1%} of traced run_s)")
    for name, st in sorted(traced[0]["stats"].items(),
                           key=lambda kv: -kv[1]["self_s"])[:12]:
        print(f"span {name}: calls {st['calls']}  total_s {st['total_s']:.4f}"
              f"  self_s {st['self_s']:.4f}")
    metrics = {name: layer_metric(name, plain, traced[:2])
               for name, _ in PER_LAYER}
    return passes, metrics, steady


def git_sha():
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "maxcurves" / "__init__.py").is_file():
        print(f"error: no maxcurves package under {SRC}", file=sys.stderr)
        return 2
    # turn SIGTERM into an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    clock = Clock(TIME_LIMIT_S)
    print("env " + json.dumps({
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace}))
    try:
        if args.trace:
            passes, values, steady = per_layer(args.workload, args.seed, clock)
            units = PER_LAYER
        else:
            passes, values, steady = end_to_end(args.workload, args.seed,
                                                args.seconds, clock)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    errors = sorted({e for p in passes for e in p["errors"]})
    print(f"failed_frac {failed / attempted:.6f} (failed {failed}, "
          f"attempted {attempted}, wrong results {wrong}, "
          f"passes {len(passes)})")
    for e in errors:
        print(f"failure: {e}")
    print(json.dumps({
        "correct": wrong == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
