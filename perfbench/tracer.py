"""Per-layer tracing of cfdeform from outside the package.

``Tracer.install`` replaces every public function of the package's modules
with a counting, timing wrapper, in every module namespace that binds it:
``from .udeform import f_pair`` copies the binding into ``analysis``,
``cli`` and the package itself, so patching ``udeform.f_pair`` alone would
miss those callers.  ``RingPoly`` multiply/add, ``RationalFunction``
construction (the gcd reduction) and ``StreamingCF`` term pulls are wrapped
on their classes.  Nothing under ``src/`` changes.

Self time of a call is its duration minus the time of the wrapped calls it
made.  Spans (id, parent, name, start, end) are kept in memory for every
wrapped function except the RingPoly arithmetic, which only counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

from reference import cf_terms

MODULES = ("exactnum", "contfrac", "udeform", "qdeform", "analysis", "cli")

# Metric names that differ from "<module>.<function>".
_KEYS = {
    ("analysis", "run_property_sweep"): "analysis.sweep",
    ("analysis", "enumerate_rationals"): "analysis.enumerate",
}

MAX_SPANS = 400_000


def _term_list(x) -> tuple[int, ...]:
    """Continued-fraction terms of an argument in any form f_pair or
    q_deform accepts, computed here so no package code is counted."""
    if hasattr(x, "terms"):
        return tuple(x.terms)
    if isinstance(x, (list, tuple)):
        return tuple(x)
    return cf_terms(Fraction(x))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Counters, self times and spans for one process."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.root_span = 0  # the benchmark operation currently running
        self._stack: list[list] = []
        self._active = defaultdict(int)
        self._next_id = 1
        self._patched: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key, fn, before=None, after=None, span=True, scope=False):
        counts, self_s, stack, spans = self.counts, self.self_s, self._stack, self.spans
        active = self._active
        perf = time.perf_counter
        calls = key + ".calls"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            if before is not None:
                before(args, kwargs)
            if span:
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = stack[-1][1] if stack else tracer.root_span
            else:
                span_id = parent = None
            frame = [0.0, span_id]
            stack.append(frame)
            if scope:
                active[key] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                if scope:
                    active[key] -= 1
                stack.pop()
                dur = t1 - t0
                self_s[key] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent, key, t0, t1))
                    else:
                        tracer.dropped_spans += 1
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, key):
        counts = self.counts
        if key == "udeform.f_pair":
            def before(args, kwargs):
                counts["udeform.f_pair.steps"] += sum(_term_list(_arg(args, kwargs, 1, "x"))) - 1
            return before, None
        if key == "qdeform.q_deform":
            def before(args, kwargs):
                n = len(_term_list(_arg(args, kwargs, 0, "cf")))
                counts["qdeform.q_deform.tower_levels"] += n - (n % 2 == 0)
            return before, None
        if key == "exactnum.series_of_ratfun":
            def before(args, kwargs):
                counts["exactnum.series_of_ratfun.coeffs"] += _arg(args, kwargs, 1, "order") + 1
            return before, None
        if key == "exactnum.poly_gcd":
            def before(args, kwargs):
                deg = max(len(args[0].coeffs), len(args[1].coeffs)) - 1
                if deg > counts["exactnum.poly_gcd.max_deg"]:
                    counts["exactnum.poly_gcd.max_deg"] = deg
            return before, None
        if key == "analysis.sweep":
            def after(report):
                counts["analysis.sweep.inputs"] += report.tested
            return None, after
        return None, None

    def install(self):
        """Wrap the package's public functions and the arithmetic methods."""
        from cfdeform.contfrac import StreamingCF
        from cfdeform.exactnum import RationalFunction, RingPoly

        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"cfdeform.{short}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                key = _KEYS.get((short, name), f"{short}.{name}")
                before, after = self._hooks(key)
                scope = key == "analysis.irrational_series"
                wrappers[id(obj)] = (obj, self._wrap(key, obj, before, after, scope=scope))

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cfdeform" and not mod_name.startswith("cfdeform."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

        counts = self.counts

        def mul_before(args, kwargs):
            a, b = args
            if isinstance(b, RingPoly):
                lb = len(b.coeffs)
            elif isinstance(b, int):
                lb = 1 if b else 0
            else:
                lb = 0
            counts["exactnum.ringpoly_mul.coeff_mults"] += len(a.coeffs) * lb

        for key, names, before in (
            ("exactnum.ringpoly_mul", ("__mul__", "__rmul__"), mul_before),
            ("exactnum.ringpoly_add", ("__add__", "__radd__"), None),
        ):
            for name in names:
                orig = RingPoly.__dict__[name]
                self._patch(RingPoly, name, self._wrap(key, orig, before, span=False))
        self._patch(RationalFunction, "__init__",
                    self._wrap("exactnum.ratfun_reduce", RationalFunction.__dict__["__init__"]))

        active = self._active
        orig_terms, orig_take = StreamingCF.terms, StreamingCF.take

        def pulled(n):
            counts["contfrac.stream_terms"] += n
            if active["analysis.irrational_series"]:
                counts["analysis.irrational_series.terms_pulled"] += n

        def terms(src):
            for t in orig_terms(src):
                pulled(1)
                yield t

        def take(src, m):
            out = orig_take(src, m)
            pulled(len(out))
            return out

        self._patch(StreamingCF, "terms", functools.wraps(orig_terms)(terms))
        self._patch(StreamingCF, "take", functools.wraps(orig_take)(take))
        return self

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patched:
            owner, name, orig = self._patched.pop()
            setattr(owner, name, orig)

    def reset(self):
        self.counts.clear()
        self.self_s.clear()
        self.spans.clear()
        self.dropped_spans = 0

    # -- benchmark operations as root spans -----------------------------------

    def begin_op(self) -> int:
        self.root_span = self._next_id
        self._next_id += 1
        return self.root_span

    def end_op(self, name: str, t0: float, t1: float):
        self.spans.append((self.root_span, 0, name, t0, t1))
        self.root_span = 0

    # -- results -----------------------------------------------------------

    def module_self_s(self, module: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(module + "."))

    def snapshot(self) -> dict:
        return {
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }

    def merge(self, snap: dict, root_span: int):
        """Fold in a child process's snapshot; its top-level spans become
        children of ``root_span`` and its ids are renumbered."""
        for k, v in snap["counts"].items():
            if k.endswith(".max_deg"):
                self.counts[k] = max(self.counts[k], v)
            else:
                self.counts[k] += v
        for k, v in snap["self_s"].items():
            self.self_s[k] += v
        base = self._next_id
        top = 0
        for span_id, parent, name, t0, t1 in snap["spans"]:
            top = max(top, span_id)
            self.spans.append((base + span_id, base + parent if parent else root_span,
                               name, t0, t1))
        self._next_id = base + top + 1
        self.dropped_spans += snap["dropped_spans"]

    def write_spans(self, path):
        """Spans as JSON lines; times are perf_counter seconds of the
        process that recorded them."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def self_check(tracer: Tracer) -> list[str]:
    """Exercise the installed wrappers on tiny fixed inputs and compare the
    counts with values known by hand.  Returns the mismatches."""
    import cfdeform
    from cfdeform.exactnum import RingPoly

    problems = []

    def expect(name, value):
        got = tracer.counts.get(name, 0)
        if got != value:
            problems.append(f"{name} = {got}, expected {value}")

    tracer.reset()
    x = Fraction(17, 31)  # [0, 1, 1, 4, 1, 2]: term sum 9, so 8 steps up
    bindings = [mod for name, mod in sys.modules.items()
                if (name == "cfdeform" or name.startswith("cfdeform."))
                and getattr(mod, "f_pair", None) is not None]
    for mod in bindings:
        mod.f_pair(cfdeform.U_SZERO_POLY, x)
    expect("udeform.f_pair.calls", len(bindings))
    expect("udeform.f_pair.steps", 8 * len(bindings))

    tracer.reset()
    RingPoly((1, 1)) * RingPoly((1, 2, 1))
    2 * RingPoly((1, 1))
    RingPoly((1,)) + 3
    expect("exactnum.ringpoly_mul.calls", 2)
    expect("exactnum.ringpoly_mul.coeff_mults", 6 + 2)
    expect("exactnum.ringpoly_add.calls", 1)

    tracer.reset()
    cfdeform.exactnum.poly_gcd(RingPoly((1, 2, 1)), RingPoly((1, 1)))
    expect("exactnum.poly_gcd.calls", 1)
    expect("exactnum.poly_gcd.max_deg", 2)

    tracer.reset()
    cfdeform.q_deform(Fraction(19, 31))  # [0,1,1,1,1,2,2] -> 8 even terms
    expect("qdeform.q_deform.calls", 1)
    expect("qdeform.q_deform.tower_levels", 7)

    tracer.reset()
    cfdeform.series_of_ratfun((RingPoly((1,)), RingPoly((1, 1))), 14)
    expect("exactnum.series_of_ratfun.calls", 1)
    expect("exactnum.series_of_ratfun.coeffs", 15)

    tracer.reset()
    cfdeform.StreamingCF.golden().take(5)
    it = cfdeform.StreamingCF.e_pattern().terms()
    next(it), next(it), next(it)
    expect("contfrac.stream_terms", 8)

    tracer.reset()
    report = cfdeform.run_property_sweep("involution", cfdeform.U_CON, 3)
    expect("analysis.sweep.calls", 1)
    expect("analysis.sweep.inputs", 7)
    if report.tested != 7:
        problems.append(f"involution sweep at ell 3 tested {report.tested}, expected 7")

    tracer.reset()
    return problems
