"""Per-layer tracing by wrapping the package's public functions.

`install(tracer)` rebinds each traced function under every name the
package looks it up by: a module global bound by `from tdlcw.kernel import
...` is a separate name from `tdlcw.kernel.product_set_equals`, so patching
the defining module alone would miss those callers.  Methods are patched
on their class, the theorem-check batteries in `cli.CHECKS`.

Each call of a traced function records a span (id, name, start, end,
parent id, pass id) in memory.  Work counts come from arguments and
results, never from wrapping the window-group `mul` itself:

- closure muls = |H| * |S u S^-1| for generators S and closure H, which is
  exactly the number of products the breadth-first closure forms;
- product-set pairs = |A| * |B|;
- power steps = sum of |n| over power(g, n) calls.

The few model-arithmetic functions called tens of thousands of times per
command (`QMatrix.mul`, `EPSeq.add`, `ShiftElement.mul`) get a counter and
a timer but no span.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

from workloads import BATTERIES

TIDY = ["u_parts", "is_tidy_above", "is_tidy_below", "tidy_above_procedure",
        "find_tidy", "scale_index", "nub_compute", "tidy_identity_report"]
LIMITS = {
    "conjugator_forward": None,
    "conjugator_two_sided": None,
    "replay": "ConjugatorTrace",
    "two_sided_replay": "TwoSidedTrace",
    "con_transport_check": None,
    "nub_transport_check": None,
    "net_experiment": None,
    "con_closure_approx": None,
    "nub_approx": None,
    "chabauty_distance": None,
}
VERIFY = ["tits_core_image", "quotient_anisotropy_check",
          "normal_closure_witness"]

COUNT, SECONDS, RATIO = "count", "s", "ratio"


def metric_units():
    """Every per-layer metric this module reports, with its unit."""
    out = {}

    def add(prefix, **fields):
        for field, unit in fields.items():
            out[f"{prefix}.{field}"] = unit

    add("kernel.closure", calls=COUNT, s=SECONDS, elements=COUNT, muls=COUNT,
        distinct_ratio=RATIO)
    add("kernel.product_set", calls=COUNT, s=SECONDS, pairs=COUNT)
    add("kernel.product_set_equals", calls=COUNT, s=SECONDS,
        enumerated=COUNT, witness=COUNT)
    out["kernel.cap_errors"] = COUNT
    add("shift.window_image", calls=COUNT, s=SECONDS, elements=COUNT)
    add("shift.power", calls=COUNT, s=SECONDS, steps=COUNT)
    add("shift.mul", calls=COUNT)
    add("epseq.add", calls=COUNT, s=SECONDS)
    add("linear.window_image", calls=COUNT, s=SECONDS, elements=COUNT)
    add("linear.qmatrix_mul", calls=COUNT, s=SECONDS)
    add("linear.power", calls=COUNT, s=SECONDS, steps=COUNT)
    add("linear.eigen_data", calls=COUNT, s=SECONDS, miss_ratio=RATIO)
    for layer, names in (("tidy", TIDY), ("limits", LIMITS), ("verify", VERIFY)):
        for name in names:
            add(f"{layer}.{name}", calls=COUNT, s=SECONDS, self_s=SECONDS)
    out["cli.command.s"] = SECONDS
    for name in BATTERIES:
        out[f"cli.battery.{name}.s"] = SECONDS
    out["cli.emit.s"] = SECONDS
    return out


#: Metric suffixes that count work; they must repeat exactly for a seed.
WORK_COUNTERS = (".calls", ".elements", ".muls", ".pairs", ".steps")


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self, pass_id=0):
        self.pass_id = pass_id
        self.spans = []            # (id, name, start, end, parent id, pass id)
        self.calls = Counter()
        self.seconds = defaultdict(float)       # inclusive, outermost calls
        self.self_seconds = defaultdict(float)  # minus child spans
        self.counts = Counter()
        self.closure_keys = set()
        self._stack = []           # open spans: [id, child seconds]
        self._open = Counter()     # open depth per name
        self._next_id = 0

    def span(self, name, fn, observe=None):
        """Wrap fn in a span; observe(tracer, args, kwargs, result, exc)
        derives work counts from the call."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            tracer._open[name] += 1
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer._open[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                if not tracer._open[name]:
                    tracer.seconds[name] += duration
                tracer.self_seconds[name] += duration - frame[1]
                tracer.spans.append(
                    (frame[0], name, start, end, parent, tracer.pass_id))
                if observe:
                    observe(tracer, args, kwargs, result, exc)

        return wrapper

    def timer(self, name, fn):
        """Count and time fn without recording spans."""
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                calls[name] += 1

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self):
        """Per-layer values of this pass, keyed as in metric_units()."""
        out = {}
        for key in metric_units():
            name, field = key.rsplit(".", 1)
            if field == "calls":
                out[key] = self.calls[name]
            elif field == "s":
                out[key] = self.seconds[name]
            elif field == "self_s":
                out[key] = self.self_seconds[name]
            else:
                out[key] = self.counts[key]
        calls = self.calls
        out["kernel.closure.distinct_ratio"] = (
            len(self.closure_keys) / calls["kernel.closure"]
            if calls["kernel.closure"] else 0.0)
        out["linear.eigen_data.miss_ratio"] = (
            calls["linear.eigen_data.miss"] / calls["linear.eigen_data"]
            if calls["linear.eigen_data"] else 0.0)
        equals_ids = {s[0] for s in self.spans
                      if s[1] == "kernel.product_set_equals"}
        out["kernel.product_set_equals.enumerated"] = len(
            {s[4] for s in self.spans
             if s[1] == "kernel.product_set" and s[4] in equals_ids})
        return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_closure(tracer, args, kwargs, result, exc):
    if type(exc).__name__ == "ResolutionError":
        tracer.counts["kernel.cap_errors"] += 1
    if result is None:
        return
    window = _arg(args, kwargs, 0, "window")
    gens = frozenset(_arg(args, kwargs, 1, "gens"))
    tracer.closure_keys.add((window.desc, gens))
    both = gens | {window.inv(g) for g in gens}
    tracer.counts["kernel.closure.elements"] += result.order
    tracer.counts["kernel.closure.muls"] += result.order * len(both)


def _observe_product_set(tracer, args, kwargs, result, exc):
    a, b = _arg(args, kwargs, 1, "codes_a"), _arg(args, kwargs, 2, "codes_b")
    tracer.counts["kernel.product_set.pairs"] += len(a) * len(b)


def _observe_equals(tracer, args, kwargs, result, exc):
    if result is not None and result[0] is False:
        tracer.counts["kernel.product_set_equals.witness"] += 1


def _observe_elements(key):
    def observe(tracer, args, kwargs, result, exc):
        if result is not None:
            tracer.counts[key] += result.order
    return observe


def _observe_steps(key, param):
    def observe(tracer, args, kwargs, result, exc):
        tracer.counts[key] += abs(_arg(args, kwargs, 2, param))
    return observe


#: (metric name, module, function, observe) for module-level functions.
FUNCTIONS = [
    ("kernel.closure", "tdlcw.kernel", "subgroup_closure", _observe_closure),
    ("kernel.product_set", "tdlcw.backend", "product_set",
     _observe_product_set),
    ("kernel.product_set_equals", "tdlcw.kernel", "product_set_equals",
     _observe_equals),
] + [(f"tidy.{name}", "tdlcw.tidy", name, None) for name in TIDY] + [
    (f"limits.{name}", "tdlcw.limits", name, None)
    for name, cls in LIMITS.items() if not cls
] + [(f"verify.{name}", "tdlcw.verify", name, None) for name in VERIFY] + [
    ("cli.command", "tdlcw.cli", "main", None),
    ("cli.emit", "tdlcw.cli", "emit", None),
]

#: (metric name, module, class, method, wrapper kind, observe).
METHODS = [
    ("shift.window_image", "tdlcw.shift", "ShiftOpen", "window_image", "span",
     _observe_elements("shift.window_image.elements")),
    ("shift.power", "tdlcw.shift", "ShiftModel", "power", "span",
     _observe_steps("shift.power.steps", "n")),
    ("shift.mul", "tdlcw.shift", "ShiftElement", "mul", "counter", None),
    ("epseq.add", "tdlcw.epseq", "EPSeq", "add", "timer", None),
    ("linear.window_image", "tdlcw.linear", "ShapeSubgroup", "window_image",
     "span", _observe_elements("linear.window_image.elements")),
    ("linear.qmatrix_mul", "tdlcw.linear", "QMatrix", "mul", "timer", None),
    ("linear.power", "tdlcw.linear", "LinearModel", "power", "span",
     _observe_steps("linear.power.steps", "k")),
    ("linear.eigen_data", "tdlcw.linear", "LinearModel", "eigen_data", "span",
     None),
    ("linear.eigen_data.miss", "tdlcw.linear", "LinearModel",
     "_eigen_data_uncached", "counter", None),
] + [(f"limits.{name}", "tdlcw.limits", cls, "replay", "span", None)
     for name, cls in LIMITS.items() if cls]


def _lookup(module_name, *attrs):
    """The named object, or None once a change to the package removed it;
    its metrics then read 0 instead of the traced run failing."""
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for attr in attrs:
        obj = vars(obj).get(attr)
        if obj is None:
            return None
    return obj


def replace(fn, wrapper):
    """Rebind every module global in the package that is bound to fn."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "tdlcw" or module_name.startswith("tdlcw."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)


def install(tracer):
    """Wrap every traced function of the package."""
    for name, module, attr, observe in FUNCTIONS:
        fn = _lookup(module, attr)
        if fn is not None:
            replace(fn, tracer.span(name, fn, observe))
    for name, module, cls_name, attr, kind, observe in METHODS:
        cls, fn = _lookup(module, cls_name), _lookup(module, cls_name, attr)
        if fn is None:
            continue
        if kind == "span":
            setattr(cls, attr, tracer.span(name, fn, observe))
        else:
            setattr(cls, attr, getattr(tracer, kind)(name, fn))
    checks = _lookup("tdlcw.cli", "CHECKS") or {}
    for name in BATTERIES:
        if name in checks:
            checks[name] = tracer.span(f"cli.battery.{name}", checks[name])
