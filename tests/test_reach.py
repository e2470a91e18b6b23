"""Every function in `src/` is entered by a command-line run that CI makes,
or it is in UNREACHED with its reason; every parameter with a default is
set to another value by one of those runs, or it is in NEVER_SET with its
reason.  The runs go through `cli.main` in one fresh interpreter (no field
an earlier test built hides a call) under a `sys.setprofile` hook; a
function, method or nested function is reached when its own code object
is entered, and a parameter is set when a call binds it to an object that
is not its default.  A listed function that a run enters, or a listed
parameter that a run sets, fails the audit too, so the lists cannot go
stale.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_REASONS = {
    "debugging representation": [
        "catalog.CatalogEntry.__repr__",
        "curves.FermatHermitian.__repr__", "curves.NormTraceHermitian.__repr__",
        "curves.GeneralizedGK.__repr__", "curves.GarciaStichtenoth.__repr__",
        "gf.GF.__repr__", "pgu3.Projectivity.__repr__",
        "proj3.ProjPoint.__repr__", "proj3.ProjLine.__repr__"],
    "value equality of lines, which the tests' polar oracle compares; a check "
    "restricts only to T = 0 and compares no lines": ["proj3.ProjLine.__eq__"],
    "keeps the class hashable beside its __eq__": ["proj3.ProjLine.__hash__"],
    "curve model interface; no check calls maximality_check on this model": [
        "curves.GarciaStichtenoth.genus"],
    "curve membership predicate of the tests' brute-force point scans": [
        "curves.GeneralizedGK.contains", "curves.GeneralizedGK.contains_affine",
        "curves.GarciaStichtenoth.contains"],
    "imprimitive modulus overrides only (--field-config)": ["gf.GF._fp"],
    "library reset of --field-config overrides; the CLI loads them once": [
        "gf.clear_modulus_overrides"],
    "the pair loop of sharply_2_transitive, off the default parameters": [
        "pgu3.Projectivity.apply_point"],
    "perfbench/tracer.py counts the elements of each closure with len()": [
        "pgu3.SubgroupSpec.__len__"],
}
UNREACHED = {name: why for why, names in _REASONS.items() for name in names}

NEVER_SET = {
    "action.FixedPointSet.__init__(center)":
        "only a homology has a center, and no default parameter produces one",
}

_AUDIT = r"""
import gc, inspect, io, json, os, sys
seen = {}
defaults = {}  # code object -> {parameter: default}, filled after the import
changed = set()  # (code object, parameter) bound to a non-default


def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen.setdefault(id(code), code)
        if code in defaults:
            args = frame.f_locals
            changed.update((code, name) for name, d in defaults[code].items()
                           if args[name] is not d)


sys.setprofile(hook)
import maxcurves
from maxcurves import cli
root = os.path.dirname(os.path.abspath(maxcurves.__file__))


def note(fn):
    pos = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    given = dict(zip(pos[len(pos) - len(fn.__defaults__ or ()):],
                     fn.__defaults__ or ()), **(fn.__kwdefaults__ or {}))
    if given:
        defaults[fn.__code__] = given


for fn in gc.get_objects():
    if inspect.isfunction(fn) and os.path.abspath(
            fn.__code__.co_filename).startswith(root):
        note(fn)
sys.stdout = sys.stderr = io.StringIO()
for argv in json.loads(sys.argv[1]):
    try:
        cli.main(argv)
    except SystemExit:  # --help
        pass
sys.setprofile(None)


def where(c):
    return [os.path.relpath(os.path.abspath(c.co_filename), root),
            c.co_firstlineno]


json.dump({"entered": [where(c) for c in seen.values()],
           "changed": [where(c) + [name] for c, name in changed]},
          sys.__stdout__)
"""


def _functions(path):
    """(dotted name, first line of its code, parameters with a default) for
    each function of a module."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, ast.FunctionDef):
                a = child.args
                pos = a.posonlyargs + a.args
                given = pos[len(pos) - len(a.defaults):] + [
                    k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d]
                # a decorated function's code starts at its first decorator
                out.append((name, min([child.lineno] + [
                    d.lineno for d in child.decorator_list]),
                    [g.arg for g in given]))
            walk(child, name if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else prefix)

    walk(ast.parse(path.read_text()), path.stem)
    return out


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
    done = subprocess.run([sys.executable, "-c", _AUDIT, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    found = json.loads(done.stdout)
    entered = {tuple(e) for e in found["entered"]}
    changed = {tuple(e) for e in found["changed"]}
    functions = [(path.name, *f) for path in (SRC / "maxcurves").glob("*.py")
                 for f in _functions(path)]
    return ({name for file, name, first, _ in functions
             if (file, first) not in entered},
            {f"{name}({param})" for file, name, first, given in functions
             for param in given if (file, first, param) not in changed})


@pytest.mark.slow
def test_every_src_function_is_reached_or_listed(audit):
    unreached = audit[0]
    assert sorted(unreached - set(UNREACHED)) == [], "unreached, not listed"
    assert sorted(set(UNREACHED) - unreached) == [], "listed, now reached"


@pytest.mark.slow
def test_every_defaulted_parameter_is_set_or_listed(audit):
    never_set = audit[1]
    assert sorted(never_set - set(NEVER_SET)) == [], "never set, not listed"
    assert sorted(set(NEVER_SET) - never_set) == [], "listed, now set"
