"""In-memory span tracing of the maxcurves layers, installed from outside.

The tracer never edits the package.  It replaces layer-boundary functions
with wrappers that open and close spans, and rebinds every module-level name
that refers to the original function: `checks`, `action` and `ramification`
bind layer functions with ``from ... import``, so patching only the defining
module would miss their calls.

A layer-boundary function is a public module-level function of a
``maxcurves`` module that some other ``maxcurves`` module (the package
``__init__`` included) binds by name.  Helpers used only inside their own
module stay unwrapped, so their cost is the self time of the boundary span
that called them.

Field arithmetic (``GF.mul``, ``GF.inv``, ``GF.pow``) and
``Projectivity.__mul__`` are hot; they are wrapped at class level for call
counts only, never as spans.

Self time of a span is its duration minus the durations of its direct child
spans.  Calls are synchronous, so child spans never overlap.
"""

import inspect
import sys
import time

PACKAGE = "maxcurves"

# the fields of a span statistic, in order
STAT_FIELDS = ("calls", "total_s", "self_s", "errors", "built")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []   # open spans: [name, start, child_s, built]
        self.stats = {}   # span name -> [calls, total_s, self_s, errors, built]
        self.edges = {}   # (parent name, child name) -> total_s
        self.counts = {}  # counter name -> int

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0, False])

    def exit(self, failed=False):
        """Close the innermost span; returns (name, duration, self time)."""
        name, start, child_s, built = self.stack.pop()
        dur = self.clock() - start
        own = dur - child_s
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += own
        st[3] += bool(failed)
        st[4] += built
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            key = (parent[0], name)
            self.edges[key] = self.edges.get(key, 0.0) + dur
        return name, dur, own

    def add_self(self, name, own):
        """Credit extra self time to a derived statistic (e.g. a subset of calls)."""
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        st[0] += 1
        st[2] += own

    def mark_built(self, span_name):
        """Record that the innermost span, if it is `span_name`, built an object."""
        if self.stack and self.stack[-1][0] == span_name:
            self.stack[-1][3] = True

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def stat(self, name, field):
        st = self.stats.get(name)
        return st[STAT_FIELDS.index(field)] if st else 0

    def deterministic_counts(self):
        """Every count that must repeat exactly for the same inputs."""
        out = dict(self.counts)
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st[0]
            out[f"{name}.errors"] = st[3]
            out[f"{name}.built"] = st[4]
        return out


def span(tracer, name, fn, on_exit=None):
    """Wrap `fn` so each call is one span named `name`.

    `on_exit(args, kwargs, result, self_s)` runs after a successful call.
    """
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(failed=True)
            raise
        _, _, own = tracer.exit()
        if on_exit is not None:
            on_exit(args, kwargs, result, own)
        return result

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def boundary_functions(modules):
    """Public functions defined in one module and bound by name in another."""
    names = {m.__name__ for m in modules}
    found = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ in names
                    and obj.__module__ != mod.__name__):
                found[id(obj)] = obj
    return sorted(found.values(), key=lambda f: (f.__module__, f.__name__))


def rebind(modules, original, replacement):
    """Point every module-level name bound to `original` at `replacement`."""
    n = 0
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def layer_name(fn):
    return f"{fn.__module__[len(PACKAGE) + 1:]}.{fn.__name__}"


def _build_field_exit(tracer):
    def on_exit(args, kwargs, result, own):
        p = args[0] if args else kwargs.get("p")
        if p != 2:
            tracer.add_self("gf.build_field.oddp", own)
    return on_exit


def _generate_exit(tracer):
    def on_exit(args, kwargs, result, own):
        tracer.count("pgu3.generate.elements", len(result))
    return on_exit


def _count_gf_arith(GF):
    """Class-level call counters for field arithmetic, split by mode."""
    counters = {}
    for op in ("mul", "inv", "pow"):
        cnt = [0, 0]  # index by table_mode: [vector, table]
        counters[op] = cnt
        orig = getattr(GF, op)
        if op == "mul":
            def wrapper(self, a, b, _o=orig, _c=cnt):
                _c[self.table_mode] += 1
                return _o(self, a, b)
        elif op == "inv":
            def wrapper(self, a, _o=orig, _c=cnt):
                _c[self.table_mode] += 1
                return _o(self, a)
        else:
            def wrapper(self, a, e, _o=orig, _c=cnt):
                _c[self.table_mode] += 1
                return _o(self, a, e)
        wrapper.__name__ = op
        setattr(GF, op, wrapper)
    return counters


def _count_method(tracer, cls, attr, counter):
    orig = getattr(cls, attr)

    def wrapper(self, *args, _o=orig):
        tracer.counts[counter] += 1
        return _o(self, *args)

    tracer.counts[counter] = 0
    wrapper.__name__ = attr
    setattr(cls, attr, wrapper)


def _mark_constructor(tracer, cls, span_name):
    orig = cls.__init__

    def __init__(self, *args, _o=orig, **kwargs):
        _o(self, *args, **kwargs)
        tracer.mark_built(span_name)

    cls.__init__ = __init__


def install(tracer):
    """Wrap the imported maxcurves package; returns a function that folds the
    class-level arithmetic counters into `tracer.counts`."""
    from maxcurves import curves, gf, pgu3

    modules = package_modules()
    hooks = {"gf.build_field": _build_field_exit(tracer),
             "pgu3.generate": _generate_exit(tracer)}
    tracer.counts["pgu3.generate.elements"] = 0
    for fn in boundary_functions(modules):
        name = layer_name(fn)
        rebind(modules, fn, span(tracer, name, fn, hooks.get(name)))

    # model methods: one span name across the curve classes
    for cls in vars(curves).values():
        if inspect.isclass(cls) and "count_rational_points" in vars(cls):
            fn = vars(cls)["count_rational_points"]
            setattr(cls, "count_rational_points",
                    span(tracer, "curves.count_rational_points", fn))

    _mark_constructor(tracer, gf.GF, "gf.build_field")
    _mark_constructor(tracer, gf.TowerMap, "gf.embed")
    _count_method(tracer, pgu3.Projectivity, "__mul__",
                  "pgu3.Projectivity.mul.calls")
    arith = _count_gf_arith(gf.GF)

    def collect():
        for op, (vec, table) in arith.items():
            tracer.counts[f"gf.vec.{op}.calls"] = vec
            tracer.counts[f"gf.table.{op}.calls"] = table
    return collect
