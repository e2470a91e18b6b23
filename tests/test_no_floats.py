"""The package computes with exact integers only (README: "There are no
floats and no tolerances anywhere").  This walks the syntax tree of every
module and reports each construct that would bring a float in."""

import ast
from pathlib import Path

import maxcurves

SRC = Path(maxcurves.__file__).resolve().parent
FLOAT_CALLS = {"float", "round"}
FLOAT_MATH = ("log", "sqrt", "exp")  # math.log, log2, log10, log1p included


def _is_float_math(name):
    return name.startswith("log") or name in FLOAT_MATH


def _float_constructs(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in FLOAT_CALLS):
            yield node, f"call to {node.func.id}()"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and _is_float_math(node.attr)):
            yield node, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if _is_float_math(alias.name):
                    yield node, f"from math import {alias.name}"


def test_no_float_arithmetic_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}: {what}"
                     for node, what in _float_constructs(tree))
    assert not found, "\n".join(found)


def test_the_scan_sees_each_float_construct():
    src = ("a = b / c\n"
           "a /= 2\n"
           "x = 0.5\n"
           "y = float(3)\n"
           "z = round(w)\n"
           "import math\n"
           "e = math.log(9, 3) + math.log2(8) + math.sqrt(2) + math.exp(1)\n"
           "from math import log10\n"
           "ok = 7 // 2 + math.gcd(4, 6) + math.isqrt(10)\n")
    lines = sorted(node.lineno for node, _ in _float_constructs(ast.parse(src)))
    assert lines == [1, 2, 3, 4, 5, 7, 7, 7, 7, 8]
