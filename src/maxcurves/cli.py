"""Command-line runner for the verification checks.

Output is one JSON object per report line (schema 1), or a table with
--format table.  Exit codes: 0 all pass, 1 any fail or error, 2 usage
error, 3 an explicitly requested check reported 'unsupported', 4 standard
output was closed before all the output (the reports, or the --list
lines) was written to it, as in `maxcurves --all | head -1`.

Reports are byte-identical across runs: the millis field is emitted as 0
unless --timing is given.
"""

import argparse
import os
import sys

from .checks import CheckError, run_all, run_check, summarize
from .gf import FieldError, load_field_config

USAGE_EXIT = 2
UNSUPPORTED_EXIT = 3
CLOSED_STDOUT_EXIT = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maxcurves",
        description="Run exact verification checks for maximal-curve "
                    "covering arithmetic.")
    parser.add_argument("--check", metavar="NAME",
                        help="run a single named check")
    parser.add_argument("--param", metavar="KEY=VALUE", action="append",
                        default=[], help="parameter for --check (repeatable)")
    parser.add_argument("--all", action="store_true",
                        help="run every registered check")
    parser.add_argument("--filter", metavar="PREFIX",
                        help="with --all: only checks whose name starts with PREFIX")
    parser.add_argument("--list", action="store_true",
                        help="list registered checks and exit")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--field-config", metavar="PATH",
                        help="key-value file overriding field moduli")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the report stream to a file")
    parser.add_argument("--timing", action="store_true",
                        help="emit real elapsed milliseconds (non-deterministic)")
    return parser


def _emit(reports, fmt, timing, stream):
    if fmt == "json":
        for r in reports:
            print(r.to_json(timing=timing), file=stream)
        return
    width = max(len(r.name) for r in reports) if reports else 4
    for r in reports:
        mark = {"pass": "PASS", "fail": "FAIL", "unsupported": "UNSUP",
                "error": "ERROR"}[r.verdict]
        extra = f"  {r.millis} ms" if timing else ""
        print(f"{mark:5} {r.name.ljust(width)}  params={r.params}{extra}",
              file=stream)
        if r.verdict != "pass":
            print(f"      evidence: {r.evidence}", file=stream)


def _list_checks(stream):
    from .checks import REGISTRY
    for name, spec in REGISTRY.items():
        defaults = {k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in spec.params.items()}
        print(f"{name}: {spec.claim}  [defaults: {defaults}]", file=stream)


def _run(args):
    """Run the checks that args ask for.  Returns a writer of the reports
    to a stream and the exit code; a usage error raises CheckError."""
    if args.field_config:
        try:
            load_field_config(args.field_config)
        except (OSError, FieldError) as exc:
            raise CheckError(exc)

    if bool(args.check) == bool(args.all):
        raise CheckError("exactly one of --check or --all is required")
    if args.all and args.param:
        raise CheckError("--param applies to --check, not --all")
    if args.check and args.filter is not None:
        raise CheckError("--filter applies to --all, not --check")

    if args.check:
        params = {}
        for item in args.param:
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key in params:
                why = f"{key!r} given twice" if eq else "expected KEY=VALUE"
                raise CheckError(f"bad --param {item!r} ({why})")
            params[key] = value.strip()
        reports = [run_check(args.check, params)]
    else:
        reports = run_all(filter_prefix=args.filter)
        if not reports:
            raise CheckError(f"no check name starts with {args.filter!r}")

    if args.out:
        with open(args.out, "w") as fh:
            _emit(reports, args.format, args.timing, fh)
    counts = summarize(reports)

    def write(stream):
        _emit(reports, args.format, args.timing, stream)
        if args.format == "table":
            print(f"summary: {counts['pass']} pass, {counts['fail']} fail, "
                  f"{counts['unsupported']} unsupported, "
                  f"{counts['error']} error", file=stream)

    code = (UNSUPPORTED_EXIT if args.check and counts["unsupported"]
            else 0 if counts["pass"] == len(reports) else 1)
    return write, code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        write, code = (_list_checks, 0) if args.list else _run(args)
    except CheckError as exc:  # UnknownCheck among them
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to os.devnull, so
        # the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT_EXIT
    return code
