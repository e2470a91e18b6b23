"""No function of the package stores a local name that it never reads.
Such a dead store runs, so the line audit of tests/test_reach.py cannot
see it.  Each function, nested ones included, is checked on its own
scope; a read in a function nested in it counts (a closure), and `_`
names a value left unread on purpose."""

import ast
from pathlib import Path

import maxcurves

SRC = Path(maxcurves.__file__).resolve().parent
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """The nodes of a function's body outside the functions, lambdas and
    classes nested in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def dead_stores(tree):
    """(function name, line, local name) for each local name that a
    function stores and that neither it nor a function nested in it
    loads."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_nodes(fn))
        declared = {name for node in own
                    if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        loaded = {node.id for node in ast.walk(fn)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        stored = {}
        for node in own:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        out.extend((fn.name, line, name) for name, line in stored.items()
                   if name not in loaded | declared | {"_"})
    return sorted(out, key=lambda x: x[1])


def test_no_dead_local_store_in_the_package():
    found = [f"{path.name}:{line}: {fn} stores {name!r} and never reads it"
             for path in sorted(SRC.glob("*.py"))
             for fn, line, name in dead_stores(ast.parse(path.read_text()))]
    assert not found, "\n".join(found)


def test_the_scan_sees_each_dead_store():
    src = ("def f(a):\n"
           "    b, _ = a\n"          # b is never read
           "    c = 1\n"
           "    for i in range(2):\n"  # i is never read
           "        c += 1\n"          # c is read by the closure g
           "    def g():\n"
           "        d = c\n"           # d is never read, in g
           "        return [0 for j in ()]\n"  # j is never read
           "    return g\n"
           "def h():\n"
           "    global e\n"
           "    e = 1\n"               # a global, not a local
           "    x = y = 2\n"           # x is never read
           "    return (z := y)\n"     # z is never read
           )
    assert dead_stores(ast.parse(src)) == [
        ("f", 2, "b"), ("f", 4, "i"), ("g", 7, "d"), ("g", 8, "j"),
        ("h", 13, "x"), ("h", 14, "z")]
