"""Command-line runner for the verification checks.

Output is one JSON object per report line (schema 1), or a table with
--format table.  Exit codes: 0 all pass, 1 any fail or error, 2 usage
error, 3 an explicitly requested check reported 'unsupported'.

Reports are byte-identical across runs: the millis field is emitted as 0
unless --timing is given.
"""

import argparse
import sys

from .checks import CheckError, UnknownCheck, run_all, run_check, summarize
from .gf import FieldError, load_field_config

USAGE_EXIT = 2
UNSUPPORTED_EXIT = 3


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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        from .checks import REGISTRY
        for name, spec in REGISTRY.items():
            defaults = {k: (list(v[1]) if isinstance(v[1], tuple) else v[1])
                        for k, v in spec.params.items()}
            print(f"{name}: {spec.claim}  [defaults: {defaults}]")
        return 0

    if args.field_config:
        try:
            load_field_config(args.field_config)
        except (OSError, FieldError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_EXIT

    if bool(args.check) == bool(args.all):
        print("error: exactly one of --check or --all is required",
              file=sys.stderr)
        return USAGE_EXIT
    if args.all and args.param:
        print("error: --param applies to --check, not --all", file=sys.stderr)
        return USAGE_EXIT
    if args.check and args.filter is not None:
        print("error: --filter applies to --all, not --check",
              file=sys.stderr)
        return USAGE_EXIT

    try:
        if args.check:
            params = {}
            for item in args.param:
                key, eq, value = item.partition("=")
                key = key.strip()
                if not eq or key in params:
                    why = f"{key!r} given twice" if eq else "expected KEY=VALUE"
                    print(f"error: bad --param {item!r} ({why})", file=sys.stderr)
                    return USAGE_EXIT
                params[key] = value.strip()
            reports = [run_check(args.check, params)]
        else:
            reports = run_all(filter_prefix=args.filter)
            if not reports:
                print(f"error: no check name starts with {args.filter!r}",
                      file=sys.stderr)
                return USAGE_EXIT
    except UnknownCheck as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    _emit(reports, args.format, args.timing, sys.stdout)
    if args.out:
        with open(args.out, "w") as fh:
            _emit(reports, args.format, args.timing, fh)

    counts = summarize(reports)
    if args.format == "table":
        print(f"summary: {counts['pass']} pass, {counts['fail']} fail, "
              f"{counts['unsupported']} unsupported, {counts['error']} error")
    if args.check and counts["unsupported"]:
        return UNSUPPORTED_EXIT
    return 0 if counts["pass"] == len(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
