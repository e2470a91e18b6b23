"""Every function in `src/` is entered by a command-line run that CI makes,
or it is in UNREACHED with its reason.  The runs go through `cli.main` in
one fresh interpreter (no field an earlier test built hides a call) under
a `sys.setprofile` hook; a function, method or nested function is reached
when its own code object is entered.  A listed function that a run enters
fails the audit too, so the list cannot go stale.
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
        "action.Mat2.__repr__", "catalog.CatalogEntry.__repr__",
        "curves.FermatHermitian.__repr__", "curves.NormTraceHermitian.__repr__",
        "curves.GeneralizedGK.__repr__", "curves.GarciaStichtenoth.__repr__",
        "gf.GF.__repr__", "linpoly.LinearizedPoly.__repr__",
        "pgu3.Projectivity.__repr__", "proj3.ProjPoint.__repr__",
        "proj3.ProjLine.__repr__"],
    "keeps the class hashable beside its __eq__": [
        "action.Mat2.__hash__", "linpoly.LinearizedPoly.__hash__",
        "proj3.ProjLine.__hash__"],
    "abstract method of the curve model interface": [
        "curves.CurveModel.genus", "curves.CurveModel.maximality_field",
        "curves.CurveModel.count_rational_points", "curves.CurveModel.contains",
        "curves.HermitianModel.hermitian_gram",
        "curves.HermitianModel.rational_points"],
    "curve model interface; no check calls maximality_check on this model": [
        "curves.GeneralizedGK.maximality_field", "curves.GarciaStichtenoth.genus",
        "curves.GarciaStichtenoth.maximality_field"],
    "curve membership predicate of the tests' brute-force point scans": [
        "curves.GeneralizedGK.contains", "curves.GeneralizedGK.contains_affine",
        "curves.GarciaStichtenoth.contains"],
    "lines through points off the curve, which no default reaches": [
        "curves.HermitianModel.secant_line_size"],
    "imprimitive modulus overrides only (--field-config)": [
        "gf.GF._find_generator.generates", "gf.GF._fp"],
    "library reset of --field-config overrides; the CLI loads them once": [
        "gf.clear_modulus_overrides"],
    "the pair loop of sharply_2_transitive, off the default parameters": [
        "pgu3.Projectivity.apply_point"],
    "perfbench/tracer.py counts the elements of each closure with len()": [
        "pgu3.SubgroupSpec.__len__"],
}
UNREACHED = {name: why for why, names in _REASONS.items() for name in names}

_AUDIT = r"""
import io, json, os, sys
seen = {}
sys.setprofile(lambda frame, event, arg: event == "call"
               and seen.setdefault(id(frame.f_code), frame.f_code))
import maxcurves
from maxcurves import cli
sys.stdout = sys.stderr = io.StringIO()
for argv in json.loads(sys.argv[1]):
    try:
        cli.main(argv)
    except SystemExit:  # --help
        pass
sys.setprofile(None)
root = os.path.dirname(os.path.abspath(maxcurves.__file__))
json.dump([[os.path.relpath(os.path.abspath(c.co_filename), root),
            c.co_firstlineno] for c in seen.values()], sys.__stdout__)
"""


def _functions(path):
    """(dotted name, first line of its code) for each function of a module."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, ast.FunctionDef):
                # a decorated function's code starts at its first decorator
                out.append((name, min([child.lineno] + [
                    d.lineno for d in child.decorator_list])))
            walk(child, name if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else prefix)

    walk(ast.parse(path.read_text()), path.stem)
    return out


@pytest.mark.slow
def test_every_src_function_is_reached_or_listed(tmp_path):
    (config := tmp_path / "deg1.conf").write_text("3 1 : 0 1\n")
    runs = [["--list"], ["--help"], ["--all"],
            ["--check", "alpha-semiregular", "--param", "ns=1,3,5"],
            ["--check", "triangolo-census", "--param", "n=3"],
            ["--all", "--field-config", str(config)]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _AUDIT, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    entered = {tuple(e) for e in json.loads(done.stdout)}
    unreached = {name for path in (SRC / "maxcurves").glob("*.py")
                 for name, first in _functions(path)
                 if (path.name, first) not in entered}
    assert sorted(unreached - set(UNREACHED)) == [], "unreached, not listed"
    assert sorted(set(UNREACHED) - unreached) == [], "listed, now reached"
