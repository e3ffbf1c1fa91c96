"""Per-layer spans and counters, added around the package from outside.

`install` wraps each traced entry point where its callers look it up: a
function is replaced in every loaded module that holds it (so
`engine.run_prisoner` is wrapped inside `engine`, `cli.random_plan` inside
`cli`), and a method or property is replaced on the class that defines it
(`CyclePlan.cycle_containing`, `term` on each `PriceModel` subclass).
`uninstall` puts every original back.  The package source is not touched.

A span covers one call of a wrapped name while an op runs.  Its self time
is its duration minus the time its wrapped children cover, so the self times
of all spans add up to the time covered by top-level spans; the rest of the
ops' wall time is reported as `trace.untraced_s`.
"""
from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
import weakref
from collections import defaultdict

# Spans kept in memory for the JSON span file; beyond this many only the
# aggregates grow, and the file records how many were dropped.
SPAN_LOG_CAP = 100_000

PROBE_BITS = (("64b", 64), ("1kb", 1024), ("8kb", 8192), ("64kb", 65536))


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        c = todo.pop()
        found.append(c)
        todo.extend(c.__subclasses__())
    return found


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)   # modules whose attributes get patched
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.pairs = defaultdict(int)  # (parent name id, name id) -> calls
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.stack: list[list] = []    # [name id, span index, child seconds]
        self.top_s = 0.0
        self.op = None                 # id of the running op, None between ops
        self.spans: list[tuple] = []   # (name id, start, end, parent, op)
        self.dropped = 0
        self._next_span = 0
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def wrap(self, name: str, fn, after=None):
        """fn inside a span called name; after(args, kwargs, result) runs
        once the span has closed."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, spans = self.stack, self.spans
        self_s, calls, pairs = self.self_s, self.calls, self.pairs
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = tracer._next_span
            tracer._next_span = index + 1
            frame = [nid, index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self_s[nid] += took - frame[2]
                calls[nid] += 1
                if stack:
                    parent = stack[-1]
                    parent[2] += took
                    pairs[parent[0], nid] += 1
                    parent_index = parent[1]
                else:
                    tracer.top_s += took
                    parent_index = -1
                if len(spans) < SPAN_LOG_CAP:
                    spans.append((nid, start, end, parent_index, tracer.op))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        traced = self.wrap(name, original, after)
        for mod in self.modules:
            if getattr(mod, attr, None) is original:
                self._set(mod, attr, traced)

    def method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            self._set(cls, attr, property(self.wrap(name, original.fget,
                                                    after)))
        else:
            self._set(cls, attr, self.wrap(name, original, after))

    def counted(self, cls, attr: str, counter: str) -> None:
        """Count calls without a span, for names too hot to time."""
        original = cls.__dict__[attr]
        counts = self.counts
        tracer = self

        def counting(*args, **kwargs):
            if tracer.op is not None:
                counts[counter] += 1
            return original(*args, **kwargs)

        self._set(cls, attr, counting)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self, path) -> None:
        spans = [{"name": self.names[n], "start": s, "end": e,
                  "parent": p, "op": op}
                 for n, s, e, p, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "dropped": self.dropped}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the package's public entry points, layer by layer."""
    from prisoners import (
        adversaries, analyzer, cli, engine, numeric, permutations,
        sequences, strategies,
    )
    counts, maxima = tracer.counts, tracer.maxima

    def den_bits(key):
        def after(args, kwargs, result):
            maxima[key] = max(maxima[key], result.denominator.bit_length())
        return after

    def walked(args, kwargs, outcome):
        counts["engine.walks"] += 1
        counts["engine.walk_successes"] += outcome.success
        counts["engine.boxes_opened"] += len(outcome.opened)
        maxima["engine.spent_den_bits_max"] = max(
            maxima["engine.spent_den_bits_max"],
            outcome.spent.denominator.bit_length())

    pulled = weakref.WeakKeyDictionary()   # lazy plan -> cycles counted

    def streamed(args, kwargs, cycles):
        plan = args[0]
        if plan.is_lazy and len(cycles) > pulled.get(plan, 0):
            counts["adversaries.stream_cycles"] += (len(cycles)
                                                    - pulled.get(plan, 0))
            pulled[plan] = len(cycles)

    def built_guard(args, kwargs, plan):
        blocks = getattr(plan, "certified_blocks", None)
        if blocks is not None:
            plan.certified_blocks = tracer.wrap(
                "adversaries.certified_blocks", blocks)

    def arrangements(measure):
        def after(args, kwargs, result):
            counts["analyzer.arrangements"] += measure(args, kwargs, result)
        return after

    tracer.function(numeric, "power_sum", "numeric.power_sum",
                    den_bits("numeric.power_sum.den_bits_max"))
    tracer.function(numeric, "ln_bounds", "numeric.ln_bounds")

    for cls in _subclasses(sequences.PriceModel):
        if "term" in cls.__dict__:
            tracer.method(cls, "term", "sequences.term")
        if "range_sum" in cls.__dict__:
            tracer.method(cls, "range_sum", "sequences.range_sum")
    for cls in _subclasses(sequences.AllocationPlan):
        if "amount" in cls.__dict__:
            tracer.method(cls, "amount", "sequences.amount")
        if "max_in_range" in cls.__dict__:
            tracer.method(cls, "max_in_range", "sequences.max_in_range")
    tracer.function(sequences, "weighted_partial_sum",
                    "sequences.weighted_partial_sum")
    tracer.counted(sequences.Relabeling, "__call__", "sequences.relabel")

    plan_cls = permutations.CyclePlan
    tracer.method(plan_cls, "cycle_containing",
                  "permutations.cycle_containing")
    tracer.method(plan_cls, "materialize", "permutations.materialize",
                  streamed)
    tracer.method(plan_cls, "pulled_bound", "permutations.pulled_bound")
    for attr in ("random_plan", "random_bounded_diameter_plan"):
        tracer.function(permutations, attr, "permutations.plan_build")

    for attr in ("good_index_adversary", "two_cycle_adversary",
                 "v1b_ceiling_adversary", "v1d_cycle_chooser",
                 "v2a_block_adversary", "v2b_block_adversary"):
        tracer.function(adversaries, attr, "adversaries.build", built_guard)

    for attr in ("build_baseline_geometric", "build_tail_sum_strategy",
                 "build_bounded_length_strategy",
                 "build_bounded_diameter_strategy",
                 "build_cycle_informed_strategy", "build_v2_strategy"):
        tracer.function(strategies, attr, "strategies.build")

    tracer.function(analyzer, "brute_force_min", "analyzer.brute_force_min",
                    arrangements(lambda a, k, r: math.factorial(
                        a[1] if len(a) > 1 else k["m"])))
    tracer.function(analyzer, "descending_partial_dominance",
                    "analyzer.descending_partial_dominance",
                    arrangements(lambda a, k, r: r.checked))
    tracer.function(analyzer, "check_zero_omission",
                    "analyzer.check_zero_omission",
                    arrangements(lambda a, k, r: r.permutations))

    tracer.function(engine, "simulate", "engine.simulate")
    tracer.function(engine, "run_prisoner", "engine.run_prisoner", walked)
    tracer.function(engine, "evaluate_release", "engine.evaluate_release")
    tracer.method(engine.SimulationReport, "to_json", "engine.to_json")

    tracer.function(cli, "main", "cli.main")


def modules_to_patch(extra=()) -> list:
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "prisoners"
                                  or name.startswith("prisoners."))]
    return mods + list(extra)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    def s(name):
        nid = tracer.ids.get(name)
        return tracer.self_s[nid] if nid is not None else 0.0

    def calls(name):
        nid = tracer.ids.get(name)
        return tracer.calls[nid] if nid is not None else 0

    counts, maxima = tracer.counts, tracer.maxima
    walks = counts["engine.walks"]
    walk_terms = tracer.pairs[tracer.ids["engine.run_prisoner"],
                              tracer.ids["sequences.term"]]
    got = {
        "engine.simulate.calls": (calls("engine.simulate"), "count"),
        "engine.simulate.self_s": (s("engine.simulate"), "s"),
        "engine.run_prisoner.calls": (calls("engine.run_prisoner"), "count"),
        "engine.run_prisoner.self_s": (s("engine.run_prisoner"), "s"),
        "engine.boxes_opened": (counts["engine.boxes_opened"], "count"),
        "engine.walk_success_ratio": (
            counts["engine.walk_successes"] / walks if walks else 0.0,
            "ratio"),
        "engine.evaluate_release.s": (s("engine.evaluate_release"), "s"),
        "engine.to_json.s": (s("engine.to_json"), "s"),
        "engine.spent_den_bits_max": (maxima["engine.spent_den_bits_max"],
                                      "bits"),
        "sequences.term.calls": (calls("sequences.term"), "count"),
        "sequences.term.s": (s("sequences.term"), "s"),
        "sequences.term_calls_per_prisoner": (
            walk_terms / walks if walks else 0.0, "call/prisoner"),
        "sequences.amount.calls": (calls("sequences.amount"), "count"),
        "sequences.amount.s": (s("sequences.amount"), "s"),
        "sequences.max_in_range.s": (s("sequences.max_in_range"), "s"),
        "sequences.range_sum.calls": (calls("sequences.range_sum"), "count"),
        "sequences.range_sum.s": (s("sequences.range_sum"), "s"),
        "sequences.weighted_partial_sum.calls": (
            calls("sequences.weighted_partial_sum"), "count"),
        "sequences.weighted_partial_sum.s": (
            s("sequences.weighted_partial_sum"), "s"),
        "sequences.relabel.calls": (counts["sequences.relabel"], "count"),
        "numeric.power_sum.calls": (calls("numeric.power_sum"), "count"),
        "numeric.power_sum.s": (s("numeric.power_sum"), "s"),
        "numeric.power_sum.den_bits_max": (
            maxima["numeric.power_sum.den_bits_max"], "bits"),
        "numeric.ln_bounds.calls": (calls("numeric.ln_bounds"), "count"),
        "numeric.ln_bounds.s": (s("numeric.ln_bounds"), "s"),
        "permutations.cycle_containing.calls": (
            calls("permutations.cycle_containing"), "count"),
        "permutations.cycle_containing.s": (
            s("permutations.cycle_containing"), "s"),
        "permutations.materialize.calls": (
            calls("permutations.materialize"), "count"),
        "permutations.materialize.self_s": (
            s("permutations.materialize"), "s"),
        "permutations.pulled_bound.calls": (
            calls("permutations.pulled_bound"), "count"),
        "permutations.pulled_bound.s": (s("permutations.pulled_bound"), "s"),
        "permutations.plan_build.s": (s("permutations.plan_build"), "s"),
        "adversaries.build.calls": (calls("adversaries.build"), "count"),
        "adversaries.build.s": (s("adversaries.build"), "s"),
        "adversaries.stream_cycles": (counts["adversaries.stream_cycles"],
                                      "count"),
        "adversaries.certified_blocks.calls": (
            calls("adversaries.certified_blocks"), "count"),
        "adversaries.certified_blocks.s": (
            s("adversaries.certified_blocks"), "s"),
        "strategies.build.calls": (calls("strategies.build"), "count"),
        "strategies.build.s": (s("strategies.build"), "s"),
        "analyzer.brute_force_min.s": (s("analyzer.brute_force_min"), "s"),
        "analyzer.descending_partial_dominance.s": (
            s("analyzer.descending_partial_dominance"), "s"),
        "analyzer.check_zero_omission.s": (
            s("analyzer.check_zero_omission"), "s"),
        "analyzer.arrangements": (counts["analyzer.arrangements"], "count"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "trace.untraced_s": (wall_s - tracer.top_s, "s"),
        "trace.wall_s": (wall_s, "s"),
    }
    # every span name must land in exactly one self-time metric above, or
    # the layer times would not add up to the traced wall time
    timed = {n for n in tracer.names}
    reported = {k.rsplit(".", 1)[0] for k, (_, unit) in got.items()
                if unit == "s" and not k.startswith("trace.")}
    missing = timed - reported
    if missing:
        raise RuntimeError(f"spans without a self-time metric: {missing}")
    return got


def probe_rat(rat_type, seed: int, budget_s: float = 0.05,
              repeats: int = 3) -> dict:
    """ns per add and per compare of random operands at fixed bit sizes."""
    rng = random.Random(seed)
    clock = time.perf_counter
    got = {}
    for label, bits in PROBE_BITS:
        top = 1 << (bits - 1)
        xs = [rat_type(rng.getrandbits(bits) | top,
                       rng.getrandbits(bits) | top) for _ in range(16)]
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        for op, fn in (("add", lambda x, y: x + y),
                       ("cmp", lambda x, y: x < y)):
            rates = []
            for _ in range(repeats):
                n = 0
                start = clock()
                while True:
                    for x, y in pairs:
                        fn(x, y)
                    n += len(pairs)
                    took = clock() - start
                    if took >= budget_s:
                        break
                rates.append(took / n * 1e9)
            got[f"numeric.{op}_ns.{label}"] = (statistics.median(rates), "ns")
    return got
