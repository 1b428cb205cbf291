"""Tracing of apckit from outside: wraps module functions and a few methods.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, in every apckit module namespace that refers to it, so calls made
through imported names are seen too.  Most wrappers open a span: they record
the call's duration, the time its traced children took and the distance
evaluations made while it was the innermost span.  Hot leaf functions only
count calls.  Spans are aggregated in memory by name and by (parent, name)
edge; nothing is written until the run ends.  ``uninstall`` restores every
original.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("exact", "metric", "covers", "combinators", "trees", "freeprod", "groups", "io", "cli")

# Called millions of times per pass; a span each would swamp the trace.
COUNT_ONLY = {"metric.point_key", "metric.sorted_points"}

# Spans whose total time is summed as one group.
GROUPS = {
    "io.load": ("io.load_space", "io.load_witness", "io.load_tree", "io.load_group_window"),
    "io.save": ("io.save_space", "io.save_witness", "io.save_tree", "io.write_file"),
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "evals")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.evals = 0


class Tracer:
    def __init__(self):
        self._restore = []
        self.stack = []
        self.stats = defaultdict(Stat)
        self.counts = Counter()
        self.edges = Counter()
        self.active = Counter()
        self.dist_depth = [0]
        self.group_of = {name: g for g, names in GROUPS.items() for name in names}

    def reset(self):
        """Forget everything recorded; the installed wrappers keep recording."""
        for box in (self.stack, self.stats, self.counts, self.edges, self.active):
            box.clear()
        self.dist_depth[0] = 0

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, after=None):
        stack, stats, active, edges = self.stack, self.stats, self.active, self.edges
        group = self.group_of.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0, 0, name]  # start, children's time, evals, name
            stack.append(frame)
            active[name] += 1
            if group:
                active[group] += 1
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.self_s += dur - frame[1]
                st.evals += frame[2]
                active[name] -= 1
                if not active[name]:
                    st.total_s += dur
                if group:
                    active[group] -= 1
                    if not active[group]:
                        stats[group].total_s += dur
                if stack:
                    stack[-1][1] += dur
                edges[(stack[-1][3] if stack else None, name)] += 1

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dist_counter(self, fn):
        """Counts distance evaluations; those made inside another one (the
        factor distances of a product space) are part of it and not counted."""
        counts, stack, depth = self.counts, self.stack, self.dist_depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            counts["metric.dist_evals"] += 1
            if stack:
                stack[-1][2] += 1
            depth[0] = 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] = 0

        return wrapper

    # -- hooks on results and arguments -------------------------------------

    def _cross_pairs(self, args, kwargs, result):
        family = args[1] if len(args) > 1 else kwargs["family"]
        sizes = [len(s) for s in getattr(family, "sets", family)]
        total = sum(sizes)
        self.counts["metric.family_is_R_disjoint.cross_pairs"] += (
            total * total - sum(k * k for k in sizes)) // 2

    def _solver_nodes(self, args, kwargs, result):
        self.counts["covers.solver.nodes"] += result.nodes

    def _bytes_written(self, args, kwargs, result):
        self.counts["io.bytes_written"] += os.path.getsize(args[0])

    # -- install ------------------------------------------------------------

    def install(self, ak):
        """Wrap apckit's layer modules; ``ak`` maps layer names to modules."""
        hooks = {
            "metric.family_is_R_disjoint": self._cross_pairs,
            "covers.min_families_at_scale": self._solver_nodes,
            "covers.greedy_families_at_scale": self._solver_nodes,
            "io.write_file": self._bytes_written,
        }
        replace = {}
        for layer in LAYERS:
            mod = getattr(ak, layer)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if layer == "exact" or name in COUNT_ONLY:
                    replace[obj] = self.counter(name + ".calls", obj)
                else:
                    replace[obj] = self.span(name, obj, hooks.get(name))
        for mod in [m for n, m in sys.modules.items() if n == "apckit" or n.startswith("apckit.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._patch(mod, attr, replace[obj])

        m, c, t, f, g = ak.metric, ak.covers, ak.trees, ak.freeprod, ak.groups
        for cls, attr, wrap in (
            (m.FiniteMetricSpace, "dist", self.dist_counter),
            (m.FiniteMetricSpace, "dist_sq", self.dist_counter),
            (t.RootedTree, "meet", lambda fn: self.span("trees.meet", fn)),
            (c.ApcOracle, "__call__", lambda fn: self.span("covers.oracle", fn)),
            (c.ApcOracle, "checked", lambda fn: self.span("covers.oracle", fn)),
            (f.FreeProductWindow, "__init__", lambda fn: self.span("freeprod.window.init", fn)),
            (g.CayleyWindow, "__init__", lambda fn: self.span("groups.cayley_window.init", fn)),
            (g.CayleyWindow, "norm_of", lambda fn: self.counter("groups.norm_of.calls", fn)),
        ):
            self._patch(cls, attr, wrap(vars(cls)[attr]))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def snapshot(self):
        """Plain per-name figures of everything recorded since the last reset."""
        spans = {
            name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s,
                   "dist_evals": st.evals}
            for name, st in self.stats.items()
        }
        return {"spans": spans, "counts": dict(self.counts),
                "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()}}
