"""Outside-in tracer: wraps named functions of the cmfactor package from the
benchmark's side, without editing the package.

Each call to a wrapped function records a span (name, start, end, parent,
op id) in memory.  Copies that other modules hold through ``from ... import``
and class aliases such as ``__rmul__ = __mul__`` are re-bound too, so every
route into a function is seen.  A name that no longer resolves is recorded as
absent, so later renames in the package do not crash the benchmark.
"""

import functools
import importlib
import json
import sys
from time import perf_counter

# The layer boundaries, as "<module>.<function>" or
# "<module>.<class>.<method>" under the cmfactor package.
LAYERS = (
    "numeric.eval_j", "numeric.eval_omega2", "numeric.class_polynomial",
    "numeric.recognize_integer",
    "verify.gz_verify", "verify.yz_verify", "verify.borcherds_verify",
    "arithside.gz_rhs", "arithside.yz_rhs", "arithside.yz_rhs_whittaker",
    "arithside.t_range",
    "quadarith.factor_principal_ideal", "quadarith.factorize", "quadarith.rho",
    "classgroup.reduced_forms", "classgroup.heegner_point",
    "classgroup.odd_norm_representative",
    "series.FracQSeries.__mul__", "series.FracQSeries.__pow__",
    "series.FracQSeries.inverse", "series.j_series", "series.omega2_series",
    "discform.build_weber_f",
    "borcherds.product_expansion_level2", "borcherds.product_expansion_j",
    "borcherds.weyl_vector", "borcherds.bi_difference",
    "borcherds.BiQSeries.compare",
)

PACKAGE = "cmfactor"

# Counters taken from the return value of a wrapped call.
OUTPUT_COUNTS = {
    "arithside.t_range": ("t_values", len),
    "borcherds.product_expansion_level2":
        ("product_terms", lambda out: len(out.coeffs)),
    "borcherds.product_expansion_j":
        ("product_terms", lambda out: len(out.coeffs)),
}


class Tracer:
    """Span recorder.  ``install`` wraps the layers, ``uninstall`` restores
    the original functions."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans = []          # (name, start, end, parent index, op id)
        self.stack = []
        self.op_id = -1
        self.counts = {}
        self.absent = []
        self._bindings = []      # (owner, attribute, original)

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counter = OUTPUT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if counter is not None:
                key, measure = counter
                self.counts[key] = self.counts.get(key, 0) + measure(out)
            return out

        return traced

    def _resolve(self, name):
        mod_name, *path = name.split(".")
        try:
            obj = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            return None
        for attr in path:
            # vars() so that methods come back as plain functions
            obj = vars(obj).get(attr) if hasattr(obj, "__dict__") else None
            if obj is None:
                return None
        return obj if callable(obj) else None

    def install(self):
        for name in self.layers:
            fn = self._resolve(name)
            if fn is None:
                self.absent.append(name)
                continue
            self._rebind(fn, self.wrap(name, fn))

    def _rebind(self, fn, wrapped):
        """Replace fn by wrapped wherever a package module or class holds
        it."""
        mods = [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in mods:
            owners = [mod] + [c for c in vars(mod).values()
                              if isinstance(c, type)
                              and c.__module__ == mod.__name__]
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is fn:
                        setattr(owner, attr, wrapped)
                        self._bindings.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._bindings):
            setattr(owner, attr, fn)
        self._bindings.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, _, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for s, e in sorted(kids):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_stats(spans):
    """Per span name: calls, self time, and total time counted over the
    outermost span of that name only, so recursion is not counted twice."""
    stats = {}
    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
        st = stats.setdefault(name, {"calls": 0, "self_s": 0.0,
                                     "total_s": 0.0})
        st["calls"] += 1
        st["self_s"] += own
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            st["total_s"] += end - start
    return stats


def coverage(spans, op_seconds):
    """Share of op time spent in named spans below each op's entry span."""
    own = self_times(spans)
    below = sum(end - start - own[i]
                for i, (_, start, end, parent, _) in enumerate(spans)
                if parent < 0)
    return below / op_seconds if op_seconds > 0 else 0.0
