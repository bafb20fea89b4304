"""Layer tracing from outside the program: spans around the public functions
of each latslice module, call counters on field and polynomial arithmetic,
and probes that measure how much work the two counters waste.

Nothing in the package is edited.  `Instrumentation` rebinds every name
under which latslice modules and classes look a wrapped function up (a
`from`-import copies the name, so patching the defining module alone would
miss `lattice.det`, `countlab.chain_to_slice` and the like), and puts every
original back on exit.
"""

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# The program's layers, bottom to top; metric names start with these.
LAYERS = (
    "fields",
    "poly",
    "polymatrix",
    "linalg",
    "lattice",
    "slicecorr",
    "countlab",
    "serialize",
    "cli",
)
# Classes whose constructor is timed as a span named after the class.
SPANNED_CLASSES = {"lattice": ("Lattice",)}
# Polynomial arithmetic is counted, not timed: operator -> counter name.
POLY_COUNTERS = {"__mul__": "poly.mul", "__divmod__": "poly.divmod"}


class Tracer:
    """Aggregates nested spans as they close.

    A span's self time is its duration minus the durations of its direct
    children; inclusive time sums only the outermost span of each name, so a
    name that recurses is not counted twice.  The process is single-threaded,
    so a span waits for nothing and no wait time is kept.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self._open = Counter()
        self._stack = []  # [name, start, time covered by children]

    def begin(self, name):
        self.calls[name] += 1
        self._open[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def end(self):
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - children
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def share(self, part, whole):
        """Inclusive time of `part` over that of `whole`; 0.0 when `whole`
        never ran."""
        total = self.inclusive_s.get(whole, 0.0)
        return self.inclusive_s.get(part, 0.0) / total if total else 0.0


class CountProbes:
    """Work counters of the two fibre counters, read at their public calls.

    Chain side: lattices returned by `step_choices` (DFS nodes), how many of
    them are distinct within one count, and how many trivial-end leaves the
    triviality test accepted.  Slice side: matrices enumerated and how many
    have the target characteristic polynomial.
    """

    def __init__(self):
        self.nodes = 0
        self.distinct = 0
        self.leaf_tests = 0
        self.leaves_accepted = 0
        self.charpolys = 0
        self.charpoly_hits = 0
        self._chain = None  # (set of lattices seen, end condition)
        self._target = None  # coefficients of the slice count's target

    def chain_count(self, fn, query, *args, **kwargs):
        outer = self._chain
        seen = set()
        self._chain = (seen, query.end_condition)
        tests_before = self.leaf_tests
        try:
            report = fn(query, *args, **kwargs)
        finally:
            self._chain = outer
        self.distinct += len(seen)
        if query.end_condition == "trivial" and self.leaf_tests > tests_before:
            self.leaves_accepted += report.count
        return report

    def step_choices(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        if self._chain is not None:
            self.nodes += len(out)
            self._chain[0].update(out)
        return out

    def triviality_test(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        if self._chain is not None and self._chain[1] == "trivial":
            self.leaf_tests += 1
        return out

    def slice_count(self, fn, query, *args, **kwargs):
        outer = self._target
        self._target = _target_coeffs(query)
        try:
            return fn(query, *args, **kwargs)
        finally:
            self._target = outer

    def char_poly(self, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        if self._target is not None:
            self.charpolys += 1
            self.charpoly_hits += tuple(out.coeffs) == self._target
        return out


# The probes wrap these public functions, inside their spans.
PROBES = {
    "countlab.count_chain_fiber": "chain_count",
    "countlab.step_choices": "step_choices",
    "lattice.quotient_basis_trivial": "triviality_test",
    "countlab.count_slice_fiber": "slice_count",
    "linalg.char_poly": "char_poly",
}


def _target_coeffs(query):
    """Ascending coefficients of prod (z - x_i)^pi_i over F_p, in plain ints
    so that computing them adds nothing to the arithmetic counters."""
    p = query.field.p
    coeffs = [1]
    for x, j in zip(query.points, query.types.entries):
        for _ in range(j):
            shifted = [0] + coeffs
            for i, c in enumerate(coeffs):
                shifted[i] = (shifted[i] - x * c) % p
            coeffs = shifted
    return tuple(coeffs)


def _mark(wrapper, fn):
    wrapper.__wrapped__ = fn
    wrapper._bench_wrapper = True
    return wrapper


def latslice_modules():
    return {
        name: mod
        for name, mod in sys.modules.items()
        if name == "latslice" or name.startswith("latslice.")
    }


class Instrumentation:
    """Context manager that installs the wrappers on the imported latslice
    modules and removes every one of them on exit."""

    def __init__(self, tracer, probes=None):
        self.tracer = tracer
        self.probes = probes
        self.arith = Counter()
        self.yields = Counter()
        self._patches = []  # (owner, attribute, original)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self):
        modules = latslice_modules()
        replacements = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            mod = modules.get(f"latslice.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = (
                        self._counted(obj, "fields")
                        if layer == "fields"
                        else self._spanned(obj, name)
                    )
                    replacements[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, attr, obj)
        # every binding of a wrapped function, in every latslice module
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _wrap_class(self, layer, cls_name, cls):
        if layer == "fields":
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj):
                    self._patch(cls, attr, self._counted(obj, "fields"))
                elif isinstance(obj, property):
                    self._patch(cls, attr, property(self._counted(obj.fget, "fields")))
                elif isinstance(obj, staticmethod):
                    fn = self._counted(obj.__func__, "fields")
                    self._patch(cls, attr, staticmethod(fn))
        elif layer == "poly" and cls_name == "Poly":
            for attr, name in POLY_COUNTERS.items():
                if attr in vars(cls):
                    self._patch(cls, attr, self._counted(vars(cls)[attr], name))
        elif cls_name in SPANNED_CLASSES.get(layer, ()) and "__init__" in vars(cls):
            init = vars(cls)["__init__"]
            self._patch(cls, "__init__", self._spanned(init, f"{layer}.{cls_name}"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counted(self, fn, name):
        counts = self.arith

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return _mark(wrapper, fn)

    def _spanned(self, fn, name):
        tracer = self.tracer
        if inspect.isgeneratorfunction(fn):
            yields = self.yields

            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                for item in fn(*args, **kwargs):
                    yields[name] += 1
                    yield item

            return _mark(gen_wrapper, fn)
        probe = getattr(self.probes, PROBES.get(name, ""), None)
        call = fn if probe is None else functools.partial(probe, fn)

        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                return call(*args, **kwargs)
            finally:
                tracer.end()

        return _mark(wrapper, fn)


def leftover_wrappers():
    """Every latslice binding that still holds a tracing wrapper; empty after
    `Instrumentation` has exited."""
    left = []
    for mod in latslice_modules().values():
        owners = [mod] + [c for c in vars(mod).values() if inspect.isclass(c)]
        for owner in owners:
            for attr, obj in vars(owner).items():
                if isinstance(obj, property):
                    obj = obj.fget
                elif isinstance(obj, staticmethod):
                    obj = obj.__func__
                if getattr(obj, "_bench_wrapper", False):
                    left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return left


def _layer_metrics():
    table = {}
    for fn in (
        "polymatrix.det",
        "linalg.char_poly",
        "polymatrix.smith_normal_form",
        "lattice.quotient_basis_trivial",
        "polymatrix.hermite_basis",
        "lattice.Lattice",
        "lattice.transition_matrix",
        "lattice.validate_chain",
        "lattice.divisor_of_pair",
        "slicecorr.chain_to_slice",
        "slicecorr.slice_to_chain",
        "slicecorr.validate_point",
        "polymatrix.column_reduce",
        "polymatrix.hermite_with_transform",
        "poly.linear_roots",
    ):
        table[f"{fn}.calls"] = ("count", "lower")
        table[f"{fn}.self_s"] = ("s", "lower")
    for fn in ("lattice.quotient_presentation", "linalg.solve", "linalg.rref"):
        table[f"{fn}.calls"] = ("count", "lower")
    for fn in (
        "lattice.splitting_type",
        "lattice.factorize",
        "lattice.intersect",
        "serialize.parse_lattice",
        "cli.main",
        "countlab.count_chain_fiber",
        "countlab.count_slice_fiber",
        "countlab.step_choices",
    ):
        table[f"{fn}.self_s"] = ("s", "lower")
    table.update(
        {
            "countlab.chain.nodes": ("count", "lower"),
            "countlab.slice.matrices": ("count", "lower"),
            "countlab.chain.distinct_state_ratio": ("ratio", "higher"),
            "countlab.chain.leaf_accept_ratio": ("ratio", "higher"),
            "countlab.slice.charpoly_hit_ratio": ("ratio", "higher"),
            "fields.calls": ("count", "lower"),
            "poly.mul.calls": ("count", "lower"),
            "poly.divmod.calls": ("count", "lower"),
            "trace.overhead_s": ("s", "lower"),
            "share.char_poly_in_count_slice_fiber": ("ratio", "lower"),
            "share.quotient_basis_trivial_in_count_chain_fiber": ("ratio", "lower"),
            "share.validate_chain_in_chain_to_slice": ("ratio", "lower"),
        }
    )
    return table


# Per-layer metrics of the traced run: name -> (unit, better).
LAYER_METRICS = _layer_metrics()


def layer_values(tracer, inst, probes):
    """Every measured per-layer value except the overhead and the shares,
    which depend on what the caller traced."""
    values = {}
    for name in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if kind == "calls" and base in POLY_COUNTERS.values():
            values[name] = inst.arith[base]
        elif kind == "calls" and base == "fields":
            values[name] = inst.arith["fields"]
        elif kind == "calls":
            values[name] = tracer.calls[base]
        elif kind == "self_s":
            values[name] = tracer.self_s.get(base, 0.0)
    values["countlab.chain.nodes"] = probes.nodes
    values["countlab.slice.matrices"] = inst.yields["countlab.enumerate_slice_matrices"]
    values["countlab.chain.distinct_state_ratio"] = _ratio(probes.distinct, probes.nodes)
    values["countlab.chain.leaf_accept_ratio"] = _ratio(
        probes.leaves_accepted, probes.leaf_tests
    )
    values["countlab.slice.charpoly_hit_ratio"] = _ratio(
        probes.charpoly_hits, probes.charpolys
    )
    return values


def _ratio(part, whole):
    return part / whole if whole else 0.0
