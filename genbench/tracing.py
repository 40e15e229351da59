"""Span tracer that wraps genbound's public functions from the outside.

Every wrapped call is one span with a start, an end and a parent (the span
that was open when it started). Self time is the span's duration minus the
time covered by its direct children. Calls, total time and self time are
summed per span name. Full span records (id, parent, name, start, end) are
kept in memory only for names registered with ``keep=True``: the hot inner
calls (``eval_exact``, the field sums, ``alpha``/``beta``, ``compose``)
run up to about a million times per run, so they are aggregated, while the spans
that structure a case (the case itself, field construction, solvers, class
group, generation check) are all recorded and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.spans = []  # (id, parent_id, name, start_s, end_s)
        self._stack = []  # open frames: [child_s, span_id or None]
        self._patched = []
        self._next_id = 0

    # ------------------------------------------------------------------
    def _open(self, keep):
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][0] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        if frame[1] is not None:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans.append((frame[1], parent, name, t0, t1))

    @contextmanager
    def span(self, name):
        frame = self._open(keep=True)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, t0, time.perf_counter())

    def _wrap(self, name, fn, keep):
        # the body of span() inlined: a generator-based context manager per
        # call would add to the overhead of the hot wrappers
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(keep)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, t0, time.perf_counter())

        return traced

    def patch(self, owner, attr, name, keep=False):
        """Replace owner.attr (a module function or a class method) by a traced wrapper."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, keep))

    def unpatch(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def write(self, path, extra):
        doc = dict(extra)
        doc["stats"] = {
            name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(self.stats.items())
        }
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(tracer, ce, nf, qc):
    """Wrap the layer boundaries of genbound; the hot inner calls are aggregated only."""
    tracer.patch(nf.NumberField, "__init__", "number_field.construct", keep=True)
    tracer.patch(nf.NumberField, "split_prime", "number_field.split_prime")
    tracer.patch(nf.NumberField, "prime_ideal_weighted_sum", "number_field.window_sum")
    tracer.patch(nf.NumberField, "short_ideal_sum", "number_field.short_sum")
    tracer.patch(ce, "eval_exact", "criteria_engine.eval_exact")
    tracer.patch(ce, "eval_generic", "criteria_engine.eval_generic")
    # criteria_engine imported alpha and beta by name; wrap them at its call sites
    tracer.patch(ce, "alpha", "analytic_kernel.alpha")
    tracer.patch(ce, "beta", "analytic_kernel.beta")
    tracer.patch(ce, "minimal_T_exact", "criteria_engine.minimal_T_exact", keep=True)
    tracer.patch(ce, "minimal_T_generic", "criteria_engine.minimal_T_generic", keep=True)
    tracer.patch(ce, "loglog_disc_threshold", "criteria_engine.threshold", keep=True)
    tracer.patch(qc, "class_group", "quadratic_classgroup.class_group", keep=True)
    tracer.patch(qc.ClassGroupDescription, "compose", "quadratic_classgroup.compose")
    tracer.patch(qc, "generated_by_primes_up_to", "quadratic_classgroup.generation_check", keep=True)
