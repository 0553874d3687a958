"""Outside-in tracing of the anticodes layers.

``Tracer.install("span")`` wraps, from outside the package, the public
functions and methods of the modules in ``MODULES`` (plus the ``GF`` and
``CosetGraph`` constructors) and rebinds every module-level reference to
them, including ``from .x import y`` copies. Each call records a span:
(id, name, start, end, parent id, job id, thread id, extra). Spans stay in
memory and are written out once, at the end.

The per-element field operations are too hot for a span each, and even a
counter doubles their cost, so they are counted in a round of their own:
``Tracer.install("count")`` wraps only ``GF.add``, ``GF.mul`` and
``GF.pow``, with ``itertools.count`` (atomic under the GIL, so exact under
the catalog's thread pool).

A layer's busy time is the summed duration of its outermost spans (a span
with no ancestor of the same layer); its self time is each span's duration
minus the union of its children's intervals. Pool threads start with an
empty stack, so their spans take the main thread's innermost open span as
parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import random
import statistics
import sys
import threading
import time
from importlib import import_module

MODULES = ("gf", "linear", "constructions", "bounds", "swrg", "report",
           "codefile", "catalog", "cli")
COUNTED = {"add": "gf.add.calls", "mul": "gf.mul.calls", "pow": "gf.pow.calls"}
# per-element GF operations that get no span
UNTRACED_GF = {"neg", "sub", "inv", "div", "check", "elements", "coords",
               "from_coords"}
CONSTRUCTORS = {"GF", "CosetGraph"}

LINALG = {"gf.Matrix.rref", "gf.Matrix.rank", "gf.Matrix.kernel",
          "gf.mat_rank", "gf.mat_kernel"}
ENUM = {"linear.LinearCode.codewords", "linear.LinearCode.weight_distribution",
        "linear.LinearCode.weight_distribution_by_classes"}
BUILDERS = {f"constructions.{b}" for b in (
    "simplex", "rs_code", "complementary_rs", "complementary_mds_trivial",
    "fixed_weight_anticode", "two_subspace_code", "ovoid_code",
    "dual_bch_code", "kasami_code", "concatenate_with_simplex")}

# gf per-op calibration: (metric, (p, e), operation, calls per batch)
CALIBRATION = [
    ("gf.add.ns_per_op.q4", (2, 2), "add", 20000),
    ("gf.add.ns_per_op.q9", (3, 2), "add", 20000),
    ("gf.mul.ns_per_op.q256", (2, 8), "mul", 50000),
    ("gf.mul.ns_per_op.q1024", (2, 10), "mul", 2000),
]
CALIBRATION_BATCHES = 5

def _code_shape(args, kwargs, result, pre):
    code = args[0]
    return {"q": code.field.q, "k": code.k, "n": code.n, "computed": pre}


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


# span name -> (before(args) or None, after(args, kwargs, result, before))
HOOKS = {
    "linear.LinearCode.weight_distribution":
        (lambda args: args[0]._wd is None, _code_shape),
    "linear.LinearCode.codewords": (None, _code_shape),
    "linear.LinearCode.weight_distribution_by_classes": (None, _code_shape),
    "linear.LinearCode.is_minimal_exact":
        (None, lambda a, kw, res, pre: None if res is None else res[0]),
    "constructions.complement":
        (None, lambda a, kw, res, pre: 0 if res is None else res.n),
    "swrg.walk_counts":
        (None, lambda a, kw, res, pre: _arg(a, kw, 1, "l")
         * a[0].vertex_count * a[0].degree),
    "codefile.load_code":
        (None, lambda a, kw, res, pre: _file_size(_arg(a, kw, 0, "path"))),
    "codefile.save_code":
        (None, lambda a, kw, res, pre: _file_size(_arg(a, kw, 1, "path"))),
    "catalog.verify_catalog":
        (None, lambda a, kw, res, pre: _arg(a, kw, 1, "jobs", 4)),
}


class Tracer:
    def __init__(self, out_path):
        self.out_path = out_path
        self.spans = []
        self.job = "setup"
        self.counts = dict.fromkeys(COUNTED.values(), 0)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._counters = {}
        self._main_stack = []

    # ------------------------------------------------------------------
    def install(self, mode):
        """Wrap the layers: mode "span" records spans, "count" counts the
        GF element operations."""
        if mode == "count":
            field = import_module("anticodes.gf").GF
            self._counters = {name: itertools.count()
                              for name in COUNTED.values()}
            for attr, name in COUNTED.items():
                self._set(field, attr, self._count(vars(field)[attr], name))
            return
        self._main_stack = self._stack()
        mods = {m: import_module(f"anticodes.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._patch_class(short, obj)
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []
        for name, counter in self._counters.items():
            self.counts[name] += next(counter)
        self._counters = {}

    def _set(self, target, attr, value):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _patch_class(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if cls.__name__ == "GF" and (attr in COUNTED or
                                         attr in UNTRACED_GF):
                continue
            elif attr.startswith("_") and not (
                    attr == "__init__" and cls.__name__ in CONSTRUCTORS):
                continue
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(name, obj))

    def _count(self, fn, name):
        tick = self._counters[name].__next__

        @functools.wraps(fn)
        def counted(*args):
            tick()
            return fn(*args)
        return counted

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        spans, ids, perf = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # a pool thread: attach to the caller waiting on it
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(ids)
            pre = before(args) if before else None
            result = None
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                extra = after(args, kwargs, result, pre) if after else None
                spans.append((sid, name, t0, t1, parent, self.job,
                              threading.get_ident(), extra))
        return traced

    # ------------------------------------------------------------------
    def write(self):
        keys = ("id", "name", "start", "end", "parent", "job", "thread",
                "extra")
        with open(self.out_path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, rounds, gf, wanted) -> dict:
        """Per-layer metrics, per traced round, plus the gf calibration;
        ``wanted`` is the (name, unit) list to report, in order."""
        traced = [r for r in rounds if r["mode"] == "span"]
        per_round = max(1, len(traced))
        view = SpanView(self.spans)
        jobs = [s for s in self.spans if s[5] != "setup"]
        setup = [s for s in self.spans if s[5] == "setup"]

        def busy(names, spans=jobs, pred=None):
            return sum((s[3] - s[2] for s in view.outermost(spans, names, pred)),
                       0.0)

        def computing(s):
            return s[7] is None or s[7]["computed"] is not False

        enum = view.outermost(jobs, ENUM, computing)
        symbols = sum(s[7]["q"] ** s[7]["k"] * s[7]["n"] for s in enum)
        enum_busy = sum(s[3] - s[2] for s in enum)
        word_bytes = sys.getsizeof(()) + 8  # tuple header + its list slot
        computed_bytes = sum(
            s[7]["q"] ** s[7]["k"] * (word_bytes + 8 * s[7]["n"])
            for s in jobs if s[1] == "linear.LinearCode.codewords")
        minimal = [s for s in jobs
                   if s[1] == "linear.LinearCode.is_minimal_exact"]
        verdicts = [s[7] for s in minimal if s[7] is not None]
        entries = [s for s in jobs if s[1] == "catalog.verify_entry"]
        verifies = [s for s in jobs if s[1] == "catalog.verify_catalog"]
        entry_busy = sum(s[3] - s[2] for s in entries)
        capacity = sum((s[3] - s[2]) * s[7] for s in verifies)
        untraced = [r["cost"] for i, r in enumerate(rounds)
                    if i > 0 and r["mode"] == "untraced" and r["complete"]]
        traced_cost = [r["cost"] for r in traced if r["complete"]]

        totals = {
            "gf.linalg.calls": len(view.outermost(jobs, LINALG)),
            "gf.linalg.busy_s": busy(LINALG),
            "linear.enum.messages": sum(s[7]["q"] ** s[7]["k"] for s in enum),
            "linear.enum.symbols": symbols,
            "linear.enum.busy_s": enum_busy,
            "linear.enum.computed_bytes": computed_bytes,
            "linear.minimal.calls": len(minimal),
            "linear.minimal.busy_s":
                busy({"linear.LinearCode.is_minimal_exact"}),
            "constructions.family.busy_s": busy(BUILDERS),
            "constructions.complement.busy_s":
                busy({"constructions.complement"}),
            "constructions.complement.points": sum(
                s[7] for s in view.outermost(jobs,
                                             {"constructions.complement"})),
            "constructions.transform_wd.busy_s":
                busy({"constructions.transform_wd"}),
            "bounds.busy_s": busy(None, pred=lambda s: s[1].startswith("bounds.")),
            "swrg.graph.busy_s": busy({"swrg.CosetGraph.__init__"}),
            "swrg.walks.busy_s": busy({"swrg.walk_counts"}),
            "swrg.walks.steps": sum(s[7] for s in jobs
                                    if s[1] == "swrg.walk_counts"),
            "report.self_s": sum(view.self_time(s) for s in jobs
                                 if s[1].startswith("report.")),
            "codefile.load.busy_s": busy({"codefile.load_code"}),
            "codefile.save.busy_s": busy({"codefile.save_code"}),
            "codefile.bytes": sum(s[7] for s in jobs if s[1] in (
                "codefile.load_code", "codefile.save_code")),
            "cli.self_s": sum(view.self_time(s) for s in jobs
                              if s[1].startswith("cli.")),
            "catalog.entry.calls": len(entries),
            "catalog.entry.busy_s": entry_busy,
            "catalog.verify.wall_s": sum(s[3] - s[2] for s in verifies),
        }
        metrics = {name: value / per_round if isinstance(value, float)
                   else _per_round(value, per_round)
                   for name, value in totals.items()}
        metrics.update(self.counts)  # from the one counting round
        # set-up builds most fields once; jobs build the rest (code files)
        metrics["gf.setup_s"] = (busy({"gf.GF.__init__"}, setup)
                                 + busy({"gf.GF.__init__"}) / per_round)
        metrics["linear.enum.ns_per_symbol"] = \
            enum_busy / symbols * 1e9 if symbols else 0.0
        metrics["linear.minimal.nonminimal_ratio"] = \
            verdicts.count(False) / len(verdicts) if verdicts else 0.0
        metrics["catalog.parallel_efficiency"] = \
            entry_busy / capacity if capacity else 0.0
        metrics["trace.overhead_ratio"] = (
            statistics.mean(traced_cost) / statistics.mean(untraced)
            if traced_cost and untraced else 0.0)
        metrics.update(calibrate(gf))
        bases = {
            "linear.minimal.nonminimal_ratio":
                f"{verdicts.count(False)}/{len(verdicts)} verdicts",
            "catalog.parallel_efficiency":
                f"entry busy {entry_busy:.4f} s / (jobs x verify wall) "
                f"{capacity:.4f} s",
            "trace.overhead_ratio":
                f"{len(traced_cost)} traced / {len(untraced)} untraced "
                f"rounds, job time in reference loops",
        }
        return {"per_round_of": per_round, "bases": bases,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in wanted}}


def _per_round(value, rounds):
    return value // rounds if value % rounds == 0 else value / rounds


class SpanView:
    """Parent/child index over spans (tuples as recorded by Tracer)."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s[4], []).append(s)

    def ancestors(self, span):
        parent = self.by_id.get(span[4])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent[4])

    def outermost(self, spans, names, pred=None):
        def member(s):
            return (names is None or s[1] in names) and (pred is None or pred(s))
        return [s for s in spans
                if member(s) and not any(member(a) for a in self.ancestors(s))]

    def self_time(self, span):
        """Duration minus the union of the children's intervals."""
        covered, end = 0.0, span[2]
        for c in sorted(self.children.get(span[0], ()), key=lambda c: c[2]):
            lo, hi = max(c[2], end), min(c[3], span[3])
            if hi > lo:
                covered += hi - lo
                end = hi
        return span[3] - span[2] - covered


def calibrate(gf) -> dict:
    """ns per public GF.add / GF.mul call, median of timed batches over
    fixed pseudo-random operands (loop overhead included)."""
    out = {}
    for name, (p, e), op, calls in CALIBRATION:
        field = gf.field_make(p, e)
        fn = getattr(field, op)
        rng = random.Random(p * 1000 + e)
        pairs = [(rng.randrange(field.q), rng.randrange(field.q))
                 for _ in range(calls)]
        times = []
        for _ in range(CALIBRATION_BATCHES):
            t0 = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times) / calls * 1e9
    return out
