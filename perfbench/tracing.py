"""Span tracing of the splitquad layers from outside the package.

The tracer replaces public callables at their module (or class) attributes
with timing wrappers and puts the originals back afterwards; nothing under
``src/`` changes.  Every call becomes a span with its name, start, end,
parent span, op id and thread id.  Spans are kept in memory and written out
once, when the run ends.

A span's self time is its duration minus the part of that interval its
child spans cover.  Children normally run on the parent's thread and never
overlap; a span opened on a thread with no open span of its own (a worker of
``verify``'s thread pool) is parented to the op's root span, and the union
of the children's intervals is subtracted, so a parent that only waits for
its workers shows almost no self time.
"""

from __future__ import annotations

import csv
import functools
import math
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "counter", "weights", "sing_integral", "exp_sums", "delta_kernel")


class Span:
    __slots__ = ("name", "parent", "op", "tid", "start", "end", "work", "tag", "cpu")

    def __init__(self, name, parent, op, tid):
        self.name, self.parent, self.op, self.tid = name, parent, op, tid
        self.start = self.end = 0.0
        self.work, self.tag, self.cpu = 0, None, 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the callables it patches, per op and per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None          # id of the op in progress
        self.root = None        # root span of that op, parent of worker-thread spans
        self._local = threading.local()
        self._patched = []      # (owner, attr, original)

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name) -> Span:
        stack = self._stack()
        s = Span(name, stack[-1] if stack else self.root, self.op, threading.get_ident())
        stack.append(s)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span):
        s.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(s)

    def run_op(self, op_id, root_name, fn):
        """Run fn() as op op_id, under a root span when root_name is given."""
        self.op = op_id
        try:
            if root_name is None:
                return fn()
            cpu0 = time.process_time()
            s = self._open(root_name)
            self.root = s
            try:
                return fn()
            finally:
                self._close(s)
                s.cpu = time.process_time() - cpu0
        finally:
            self.op = self.root = None

    def patch(self, owner, attr: str, name: str, info=None):
        """Wrap owner.attr; info(args, kwargs, result) -> (work, tag) annotates the span."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(s)
            if info is not None:
                s.work, s.tag = info(args, kwargs, res)
            return res

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "parent", "op", "thread", "start", "end", "work"])
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else index.get(id(s.parent), "")
                out.writerow([i, s.name, parent, s.op, s.tid,
                              repr(s.start), repr(s.end), s.work])


def instrument(tracer: Tracer):
    """Patch the public entry points of every traced layer."""
    from splitquad import counter, delta_kernel, exp_sums, sing_integral, weights

    def count_info(args, kwargs, res):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        tail_rel = res.tail_estimate / abs(res.value) if res.value else 0.0
        return res.lattice_points_visited, (float(spec.L), tail_rel)

    def quad_path(args, kwargs, res):
        w = args[0] if args else kwargs["w"]
        return 0, "biradial" if w.is_biradial else "generic"

    def primes(args, kwargs, res):
        return len(res.per_prime), None

    def q_terms(args, kwargs, res):
        return res.cutoff + res.cutoff // 2, None   # sums over q <= X and q <= X/2

    def points(args, kwargs, res):
        return int(np.size(res)), None

    tracer.patch(counter, "enumerate_N_L", "counter.enumerate_N_L", count_info)
    tracer.patch(counter, "solve_hyperplane_lattice", "counter.solve_hyperplane_lattice")
    tracer.patch(sing_integral, "sigma_infty", "sing_integral.sigma_infty")
    for attr in ("i_x_projection", "i_y_projection"):
        tracer.patch(sing_integral, attr, f"sing_integral.{attr}", quad_path)
    tracer.patch(exp_sums, "sigma_p", "exp_sums.sigma_p")
    tracer.patch(exp_sums, "sigma_euler", "exp_sums.sigma_euler", primes)
    tracer.patch(exp_sums, "sigma_remark5_product", "exp_sums.sigma_remark5_product", primes)
    tracer.patch(exp_sums, "sigma_dirichlet", "exp_sums.sigma_dirichlet", q_terms)
    tracer.patch(exp_sums, "ramanujan", "exp_sums.ramanujan")
    # delta_kernel holds its own binding of ramanujan; calls through it count
    # as delta_kernel work
    tracer.patch(delta_kernel, "ramanujan", "delta_kernel.ramanujan")
    tracer.patch(delta_kernel, "delta_sum", "delta_kernel.delta_sum")
    tracer.patch(delta_kernel, "h", "delta_kernel.h")
    for cls in (weights.GaussianWeight, weights.ProductBump, weights.AppendixExample):
        for attr in ("eval_array", "eval_biradial"):
            if attr in cls.__dict__:
                tracer.patch(cls, attr, f"weights.{cls.__name__}.{attr}", points)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """id(span) -> self time in seconds."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append((s.start, s.end))
    return {id(s): s.duration - _covered(kids.get(id(s), ()), s.start, s.end)
            for s in spans}


def _has_ancestor_in(s: Span, layer: str) -> bool:
    p = s.parent
    while p is not None:
        if p.layer == layer:
            return True
        p = p.parent
    return False


def layer_metrics(spans, count_levels, growth_levels) -> dict:
    """Per-layer metric values for one traced round.

    count_levels are the L of counter.self_s.L<k>; counter.growth_exp is
    fitted over growth_levels, levels at which one weight is counted.
    """
    selfs = self_times(spans)
    by_layer, named = defaultdict(list), defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)
        named[s.name].append(s)

    def self_s(group):
        return math.fsum(selfs[id(s)] for s in group)

    m = {f"{layer}.self_s": self_s(by_layer[layer]) for layer in LAYERS}
    m.update({f"{layer}.calls": len(by_layer[layer]) for layer in LAYERS if layer != "cli"})

    cli = by_layer["cli"]
    threads = defaultdict(set)
    for s in spans:
        threads[s.op].add(s.tid)
    m["cli.cpu_s"] = math.fsum(s.cpu for s in cli)
    m["cli.threads"] = max((len(threads[s.op]) for s in cli), default=0)

    counts = named["counter.enumerate_N_L"]
    fibres = named["counter.solve_hyperplane_lattice"]
    per_level = defaultdict(float)      # L -> counter self time under enumerate_N_L at L
    for s in by_layer["counter"]:
        top = s if s.name == "counter.enumerate_N_L" else s.parent
        if top is not None and top.name == "counter.enumerate_N_L" and top.tag:
            per_level[top.tag[0]] += selfs[id(s)]
    for L in count_levels:
        m[f"counter.self_s.L{L:g}"] = per_level.get(float(L), 0.0)
    n_points = sum(s.work for s in counts)
    busy = math.fsum(s.duration for s in counts)
    m["counter.points"] = n_points
    m["counter.fibres"] = len(fibres)
    m["counter.points_per_fibre"] = n_points / len(fibres) if fibres else 0.0
    m["counter.points_per_s"] = n_points / busy if busy else 0.0
    levels = [float(L) for L in growth_levels if per_level.get(float(L), 0.0) > 0]
    m["counter.growth_exp"] = float(np.polyfit(
        np.log(levels), np.log([per_level[L] for L in levels]), 1)[0]) \
        if len(levels) >= 2 else 0.0
    m["counter.tail_rel_max"] = max((s.tag[1] for s in counts if s.tag), default=0.0)

    w = by_layer["weights"]
    n_w = sum(s.work for s in w)
    m["weights.points"] = n_w
    m["weights.points_per_call"] = n_w / len(w) if w else 0.0
    m["weights.ns_per_point"] = 1e9 * m["weights.self_s"] / n_w if n_w else 0.0

    for path in ("generic", "biradial"):
        m[f"sing_integral.{path}.self_s"] = self_s(
            s for s in by_layer["sing_integral"] if s.tag == path)
    m["sing_integral.nodes"] = sum(s.work for s in w if _has_ancestor_in(s, "sing_integral"))

    m["exp_sums.primes"] = sum(s.work for s in named["exp_sums.sigma_euler"]
                               + named["exp_sums.sigma_remark5_product"])
    m["exp_sums.q_terms"] = sum(s.work for s in named["exp_sums.sigma_dirichlet"])
    m["exp_sums.ramanujan_calls"] = len(named["exp_sums.ramanujan"])
    m["delta_kernel.h_evals"] = len(named["delta_kernel.h"])
    m["delta_kernel.ramanujan_calls"] = len(named["delta_kernel.ramanujan"])
    return m
