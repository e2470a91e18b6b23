"""Every line of `src/` is run by a command-line run that CI makes, or it
refuses an input, or it is covered by an UNREACHED entry with its reason;
every parameter with a default is set to another value by one of those
runs, or it is in NEVER_SET with its reason.

The runs go through `cli.main` (`--help` through `python -m maxcurves`) in
one fresh interpreter (no field an earlier test built hides a call), with
`os.fork` deleted so that both halves of the census split run there,
under one `sys.settrace` hook.  Its `call` events record the functions
entered (a function, method or nested function is reached when its own
code object is entered) and the parameters bound to an object that is not
their default; its `line` events record the lines run.  The executable
lines of a module are those its compiled code objects name in
`co_lines()`.

A line that is not run is a refusal, decided from the syntax tree, when it
lies in a `raise` statement or in a block (a branch, loop body or handler,
with its `except` line) that ends in `raise`, `return USAGE_EXIT` or
`return UNSUPPORTED_EXIT`.  Any other line that is not run must lie in an
UNREACHED entry: a whole function, which no run may enter, or a snippet of
a named function, its lines compared with indentation stripped, which
must occur exactly once in that function and of which no run may run a
line.  A function that no run enters must be a whole-function entry.  So
neither list can go stale, and code that no run reaches cannot be added
without an entry and a reason.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_REASONS = {
    "debugging representation": [
        "catalog.CatalogEntry.__repr__",
        "curves.FermatHermitian.__repr__", "curves.NormTraceHermitian.__repr__",
        "curves.GeneralizedGK.__repr__", "curves.GarciaStichtenoth.__repr__",
        "gf.GF.__repr__", "pgu3.Projectivity.__repr__",
        "proj3.ProjPoint.__repr__"],
    "curve model interface; no check calls maximality_check on this model": [
        "curves.GarciaStichtenoth.genus"],
    "curve membership predicate of the tests' brute-force point scans": [
        "curves.GeneralizedGK.contains", "curves.GeneralizedGK.contains_affine",
        "curves.GarciaStichtenoth.contains"],
    "imprimitive odd-p modulus overrides of degree > 1 (--field-config; "
    "CI's override has degree 1): their tables are filled by products of "
    "polynomials over F_p": [
        "gf.GF._fp",
        ("gf.GF._mul_novtable", """
            fp = self._fp
            prod = polyroots.mul(fp, self.digits(a), self.digits(b))
            return self.from_digits(polyroots.mod(fp, prod, self.modulus))
            """)],
    "imprimitive p = 2 modulus overrides (--field-config; CI's is over "
    "F_3): the generator search of a table-mode field multiplies without "
    "tables": [("gf.GF._reduce", "return _gf2_rem(r, self._mod_mask, self.k)")],
    "an odd-p candidate modulus that has no root in F_p but is reducible or "
    "imprimitive: every odd-p field the runs build takes the first candidate "
    "left after pruning; the modulus-search tests and a --field-config "
    "override reach these": [
        ("gf._is_irreducible",
         "return False  # f has a factor of degree dividing i"),
        ("gf._is_primitive_root_x",
         "return False  # the order of X divides n / r")],
    "an embedding out of a prime field, or out of a source without tables "
    "(p = 2, degree above 20): every check embeds a table-mode field of "
    "degree > 1; tests/test_gf.py embeds both against the splitting "
    "oracle": [
        ("gf._smallest_root_in",
         "return dst.neg(dst.const(src.modulus[0]))"),
        ("gf._smallest_root_in", """
            zs, ws = [1], [1]
            for _ in range(m - 1):
                zs.append(src.mul(zs[-1], z))
                ws.append(dst.mul(ws[-1], w))
            tag = _gf2_unit_tags(zs, m)[1]  # X is the unit bit 2^1
            root = 0
            for j, wj in enumerate(ws):
                if tag >> j & 1:
                    root ^= wj
            """)],
    "a^e in vector mode for e a multiple of |F*|, which reduces to e = 0": [
        ("gf.GF._pow_novtable", "return 1")],
    "the Frobenius image of 0, which the power path would get wrong over "
    "F_2 (2^t mod 1 = 0)": [("gf.GF.frobenius", "return 0")],
    "a blank or comment line of a --field-config file (CI's has none)": [
        ("gf.load_field_config", "continue")],
    "library reset of --field-config overrides; the CLI loads them once": [
        "gf.clear_modulus_overrides"],
    "the pair test of sharply_2_transitive, off the default parameters": [
        "pgu3.Projectivity.apply_point",
        ("action.sharply_2_transitive", """
            P, Q = orbit[0], orbit[1]
            return sum(1 for g in group.elements
                       if g.apply_point(P) == P and g.apply_point(Q) == Q) == 1
            """)],
    "perfbench/tracer.py counts the elements of each closure with len()": [
        "pgu3.SubgroupSpec.__len__"],
    "the fork path of the census split, which the audit's run without "
    "os.fork skips; tests/test_numbertheory.py runs it": [
        "numbertheory._forked_in_two",
        ("numbertheory._in_two", "return _forked_in_two(fn, first, second)")],
    "a family not closed under conjugation by the census group; no check "
    "builds one; tests/test_action.py does": [
        ("action.StabilizerCensus.pointwise_incidence",
         "weighted = [(P, 1) for P in self.points]"),
        ("action._conjugation_permutes", "return False")],
    "a secant axis's curve points: a tangent axis meets the curve only at "
    "its pole, and no check lists the curve points of a secant axis; the "
    "fixed-point oracle tests enumerate secant axes": [
        "proj3.line_points",
        ("action.FixedPointSet.curve_points", """
            pts.extend(p for p in line_points(self.model.field, self.axis)
                       if self.model.contains(p))
            """)],
    "splitting over odd p: no check finds roots over an odd-p field": [
        ("polyroots._shifts", """
            if F.p != 2:
                yield 0
            """),
        ("polyroots._split", """
            h = pow_mod(F, (c, 1), (F.p**s - 1) // 2, g)
            d = gcd_poly(F, sub(F, h, (1,)), g)
            """)],
    "library edge cases that no run meets: the zero polynomial made monic, "
    "a zeroth power, n < 2, a number that is not a prime power, i(sigma) "
    "of a wild element, a single value for a list parameter from Python, "
    "and the Mitchell-Hartley class xv, which exists only at q = 2": [
        ("polyroots.monic", "return a"),
        ("polyroots.pow_mod", "return (1,)"),
        ("numbertheory.is_prime", "return False  # 0, 1 and negative n"),
        ("numbertheory.is_prime_power", "return None"),
        ("ramification.i_sigma", "return wild_contribution(order, model)"),
        ("checks._int_list", """
            elif not isinstance(value, (list, tuple)):
                value = [value]
            """),
        ("catalog.mh_orders",
         'entries.append(CatalogEntry("xv", 36, "a group of order 36"))')],
    "a check's fail branch: every check passes in every run": [
        ("catalog.lemmino_scan", """
            violations.append((pprime, m, "alternating sum divides 2^(2m)-1"))
            """),
        ("catalog.lemmino_scan", """
            violations.append((pprime, m, "alternating sum bound fails"))
            """),
        ("catalog.lemmino_scan", """
            violations.append((pprime, m, "Singer-normalizer bound fails"))
            """),
        ("checks._check_phi_homomorphism", """
            hom_ok = False
            break
            """),
        ("ramification.ledger_feasibility", """
            return True, (f"achievable with {homologies} homologies "
                          f"among {n_tame} tame elements")
            """),
        ("cli._emit", 'print(f"      evidence: {r.evidence}", file=stream)')],
    "the unsupported and error verdicts: no run passes a documented limit, "
    "and no check raises": [
        ("checks.run_check", """
            except UnsupportedParameters as exc:
                verdict, evidence = "unsupported", {"reason": str(exc)}
            except Exception as exc:
                # an internal failure: the report carries the exception, the log
                # (stderr by default) the traceback, and the remaining checks still
                # run; logging is imported here to keep it out of start-up time
                import logging
                logging.getLogger(__name__).exception("check %r raised", name)
                verdict, evidence = "error", {"error": f"{type(exc).__name__}: {exc}"}
            """)],
    "standard output closed by its reader; "
    "tests/test_checks_cli.py closes it": [
        ("cli.main", """
            except BrokenPipeError:
                # the reader is gone: what is still buffered goes to os.devnull, so
                # the flush at exit cannot raise again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return CLOSED_STDOUT_EXIT
            """)],
}
UNREACHED = {entry: why for why, entries in _REASONS.items()
             for entry in entries}

NEVER_SET = {}

_AUDIT = r"""
import gc, inspect, io, json, os, runpy, sys
del os.fork  # both halves of the census split run in this process
root = sys.argv[2]
# refusal lines by file name: left out of the lines of each code object
# (and so never reported as run), so that one whose other lines have all
# run is traced no further
refusals = {name: set(lines) for name, lines in json.loads(sys.argv[3]).items()}
# id(code) -> (code, its lines not run yet, its line tracer) for each code
# object of the package entered; holding the code keeps its id unique
seen = {}
defaults = {}  # id(code) -> {parameter: default}, filled after the import
changed = set()  # (code object, parameter) bound to a non-default
ours = {}  # file name -> in the package?


def lines(code):
    # all but the refusals and the first line (a def line, which the
    # enclosing code runs, or a module's first)
    return {line for _, _, line in code.co_lines() if line} - refusals.get(
        os.path.basename(code.co_filename), set()) - {code.co_firstlineno}


def entered(code):
    left = lines(code)
    discard = left.discard

    def local(frame, event, arg):
        if event == "line":
            discard(frame.f_lineno)
            if not left:  # every line of this code has run: stop tracing
                frame.f_trace_lines = False
        return local
    seen[id(code)] = code, left, local
    return seen[id(code)]


def hook(frame, event, arg):
    code = frame.f_code
    mine = ours.get(code.co_filename)
    if mine is None:
        mine = ours[code.co_filename] = os.path.abspath(
            code.co_filename).startswith(root)
    if not mine:
        return None
    _, left, local = seen.get(id(code)) or entered(code)
    given = defaults.get(id(code))
    if given:
        args = frame.f_locals
        changed.update((code, name) for name, d in given.items()
                       if args[name] is not d)
    return local if left else None


sys.settrace(hook)
from maxcurves import cli


def note(fn):
    pos = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    given = dict(zip(pos[len(pos) - len(fn.__defaults__ or ()):],
                     fn.__defaults__ or ()), **(fn.__kwdefaults__ or {}))
    if given:
        defaults[id(fn.__code__)] = given


for fn in gc.get_objects():
    if inspect.isfunction(fn) and os.path.abspath(
            fn.__code__.co_filename).startswith(root):
        note(fn)
sys.stdout = sys.stderr = io.StringIO()
for argv in json.loads(sys.argv[1]):
    try:
        if argv == ["--help"]:
            sys.argv = ["maxcurves", *argv]
            runpy.run_module("maxcurves", run_name="__main__", alter_sys=True)
        else:
            cli.main(argv)
    except SystemExit:  # --help
        pass
sys.settrace(None)


def where(c):
    return [os.path.relpath(os.path.abspath(c.co_filename), root),
            c.co_firstlineno]


ran = {}  # file -> line numbers run
for code, left, _ in seen.values():
    ran.setdefault(where(code)[0], set()).update(
        lines(code) - left, [code.co_firstlineno])
json.dump({"entered": [where(c) for c, _, _ in seen.values()],
           "changed": [where(c) + [name] for c, name in changed],
           "ran": {f: sorted(r) for f, r in ran.items()}},
          sys.__stdout__)
"""


def _functions(tree, module):
    """(dotted name, first line, last line, parameters with a default) for
    each function of a module's syntax tree; a decorated function's code
    starts at its first decorator."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, ast.FunctionDef):
                a = child.args
                pos = a.posonlyargs + a.args
                given = pos[len(pos) - len(a.defaults):] + [
                    k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d]
                out.append((name, min([child.lineno] + [
                    d.lineno for d in child.decorator_list]),
                    child.end_lineno, [g.arg for g in given]))
            walk(child, name if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else prefix)

    walk(tree, module)
    return out


def executable_lines(code):
    """The line numbers that a code object and those nested in it name."""
    out = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= executable_lines(const)
    return out


def _ends_in_refusal(block):
    last = block[-1]
    return isinstance(last, ast.Raise) or (
        isinstance(last, ast.Return) and isinstance(last.value, ast.Name)
        and last.value.id in ("USAGE_EXIT", "UNSUPPORTED_EXIT"))


def refusal_lines(tree):
    """The lines of every `raise` statement and of every block of a
    compound statement (not a function body) that ends in `raise`,
    `return USAGE_EXIT` or `return UNSUPPORTED_EXIT`, with the `except`
    line(s) of such a handler."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            out.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block and _ends_in_refusal(block):
                start = (node.lineno if isinstance(node, ast.ExceptHandler)
                         else block[0].lineno)
                out.update(range(start, block[-1].end_lineno + 1))
    return out


def line_audit(source, module, ran, unreached):
    """What is wrong with one module's lines: a line neither run, nor a
    refusal, nor covered by an entry of `unreached` (dotted function name,
    or (function name, snippet)); a snippet that does not occur exactly
    once in its function, of which a line ran, or that covers only
    refusals; an entry naming no function of the module."""
    tree = ast.parse(source)
    lines = source.splitlines()
    stripped = [line.strip() for line in lines]
    spans = {name: (first, last)
             for name, first, last, _ in _functions(tree, module)}
    executable = executable_lines(compile(source, module, "exec"))
    refusals = refusal_lines(tree)
    problems, covered = [], set()
    for entry in unreached:
        name, snippet = entry if isinstance(entry, tuple) else (entry, None)
        if name.split(".")[0] != module:
            continue
        if name not in spans:
            problems.append(f"{entry}: no such function")
            continue
        first, last = spans[name]
        if snippet is None:
            covered.update(range(first, last + 1))
            continue
        want = [line.strip() for line in snippet.strip().splitlines()]
        at = [i for i in range(first - 1, last - len(want) + 1)
              if stripped[i:i + len(want)] == want]
        if len(at) != 1:
            problems.append(f"{entry}: occurs {len(at)} times in {name}")
            continue
        span = set(range(at[0] + 1, at[0] + 1 + len(want)))
        if span & ran:
            problems.append(f"{entry}: lines {sorted(span & ran)} ran")
        elif not (span & executable) - refusals:
            problems.append(f"{entry}: covers no line but refusals")
        covered |= span
    problems += [f"{module}:{n}: {lines[n - 1].strip()}"
                 for n in sorted(executable - ran - refusals - covered)]
    return problems


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reach")
    (config := tmp / "deg1.conf").write_text("3 1 : 0 1\n")
    # the override run comes first, as in a fresh CI process: after a plain
    # --all every field that needs F_3 is cached and no override code runs
    runs = [["--all", "--field-config", str(config)],
            ["--list"], ["--help"], ["--all"],
            ["--check", "alpha-semiregular", "--param", "ns=1,3,5"],
            ["--check", "triangolo-census", "--param", "n=3"],
            ["--check", "phi-homomorphism", "--param", "q=8"],
            ["--all", "--filter", "lem", "--timing", "--out",
             str(tmp / "lem.jsonl")],
            ["--check", "lemmino", "--format", "table"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _AUDIT, json.dumps(runs),
         str(SRC / "maxcurves"), json.dumps({
             path.name: sorted(refusal_lines(ast.parse(path.read_text())))
             for path in _modules()})],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout)


def _modules():
    return sorted((SRC / "maxcurves").glob("*.py"))


@pytest.mark.slow
def test_every_src_function_is_reached_or_listed(audit):
    entered = {tuple(e) for e in audit["entered"]}
    unreached = {name for path in _modules()
                 for name, first, _, _ in _functions(
                     ast.parse(path.read_text()), path.stem)
                 if (path.name, first) not in entered}
    listed = {e for e in UNREACHED if isinstance(e, str)}
    assert sorted(unreached - listed) == [], "unreached, not listed"
    assert sorted(listed - unreached) == [], "listed, now reached"


@pytest.mark.slow
def test_every_src_line_is_run_refused_or_listed(audit):
    problems = []
    for path in _modules():
        problems += line_audit(path.read_text(), path.stem,
                               set(audit["ran"].get(path.name, ())),
                               UNREACHED)
    assert not problems, "\n".join(["", *problems])


@pytest.mark.slow
def test_every_defaulted_parameter_is_set_or_listed(audit):
    changed = {tuple(e) for e in audit["changed"]}
    never_set = {f"{name}({param})" for path in _modules()
                 for name, first, _, given in _functions(
                     ast.parse(path.read_text()), path.stem)
                 for param in given if (path.name, first, param) not in changed}
    assert sorted(never_set - set(NEVER_SET)) == [], "never set, not listed"
    assert sorted(set(NEVER_SET) - never_set) == [], "listed, now set"


# -- the line classifier on a toy module ----------------------------------------

_TOY = '''\
USAGE_EXIT = 2


def f(x):
    if x < 0:
        raise ValueError(
            "negative")
    if x == 0:
        print("zero")
        return USAGE_EXIT
    y = x + 1
    if y > 9:
        y = 9
    return y


def g(x):
    if x:
        x = 1
    if not x:
        x = 1
    return x


def h(x):
    if x > 5:
        return x
    raise ValueError("small")
'''


def _toy_ran():
    """The lines of `_TOY` that run for f(1), g(1) and h(9)."""
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename == "toy":
            ran.add(frame.f_lineno)
        return tracer

    namespace, before = {}, sys.gettrace()
    code = compile(_TOY, "toy", "exec")
    sys.settrace(tracer)
    try:
        exec(code, namespace)
        namespace["f"](1)
        namespace["g"](1)
        namespace["h"](9)
    finally:
        sys.settrace(before)
    return ran


def test_line_classifier_on_a_toy_module():
    ran = _toy_ran()
    # a two-line raise and a block ending in `return USAGE_EXIT` are
    # refusals; a function body that ends in `raise` is not
    assert refusal_lines(ast.parse(_TOY)) == {6, 7, 9, 10, 28}
    # y = 9 (line 13) and the second x = 1 (line 21) do not run
    assert line_audit(_TOY, "toy", ran, {}) == [
        "toy:13: y = 9", "toy:21: x = 1"]
    # a whole-function entry covers its lines (whether a call enters the
    # function is the function audit's part)
    assert line_audit(_TOY, "toy", ran, {("toy.f", "y = 9"): "why",
                                         "toy.g": "why"}) == []
    # a snippet that occurs twice, or not at all, in its function
    assert line_audit(_TOY, "toy", ran, {("toy.g", "x = 1"): "why",
                                         ("toy.f", "y = 8"): "why"}) == [
        "('toy.g', 'x = 1'): occurs 2 times in toy.g",
        "('toy.f', 'y = 8'): occurs 0 times in toy.f",
        "toy:13: y = 9", "toy:21: x = 1"]
    # a snippet of which a line ran, one of refusals only, and an entry
    # that names no function
    assert line_audit(_TOY, "toy", ran, {
        ("toy.f", "y = 9"): "why",
        ("toy.g", "if not x:\n    x = 1"): "why",
        ("toy.f", "raise ValueError(\n\"negative\")"): "why",
        "toy.k": "why"}) == [
        "('toy.g', 'if not x:\\n    x = 1'): lines [20] ran",
        "('toy.f', 'raise ValueError(\\n\"negative\")'): covers no line "
        "but refusals",
        "toy.k: no such function"]
