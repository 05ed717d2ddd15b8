"""Spans and counters installed from outside the program.

A ``Tracer`` replaces functions at the names their callers look up (module
globals such as ``kahlerqe.verify.ricci`` and class attributes such as
``Jet.__mul__``) with wrappers that record a span or bump a counter, and
puts every original back when it is uninstalled.  Spans keep name, start,
end and parent per thread, so the sweep's worker threads trace cleanly.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager


PACKAGE = "kahlerqe"


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Per-thread span and counter recorder with reversible patches."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []  # (owner, attribute, original), in install order

    # -- recording -------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"spans": [], "stack": [], "counts": Counter()}
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def count(self, name, k=1):
        self._state()["counts"][name] += k

    def record_max(self, name, value):
        peaks = self._state().setdefault("peaks", {})
        peaks[name] = max(peaks.get(name, value), value)

    def note(self, name, value):
        """Keep ``value`` under ``name``; ``notes(name)`` returns them all."""
        self._state().setdefault("notes", {}).setdefault(name, []).append(value)

    def span_wrapper(self, name, fn, on_result=None):
        """``fn`` wrapped to record a span.

        ``on_result(tracer, args, out, seconds)`` runs after a successful
        call, outside the span; ``seconds`` is the span's duration."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st["stack"]
            rec = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(st["spans"]))
            st["spans"].append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, out, rec[2] - rec[1])
            return out

        return wrapper

    def count_wrapper(self, name, fn):
        """``fn`` wrapped to count calls only (for hot paths)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._state()["counts"][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr, name, on_result=None, count_only=False):
        """Wrap ``module.attr`` at every package-module global bound to it."""
        original = getattr(sys.modules[module], attr)
        wrapper = (self.count_wrapper(name, original) if count_only
                   else self.span_wrapper(name, original, on_result))
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapper)

    def wrap_method(self, cls, attr, name, on_result=None, count_only=False):
        """Wrap a method (plain or classmethod) and every alias of it in the class."""
        raw = cls.__dict__[attr]
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        wrapper = (self.count_wrapper(name, fn) if count_only
                   else self.span_wrapper(name, fn, on_result))
        new = classmethod(wrapper) if is_cm else wrapper
        for key, val in list(cls.__dict__.items()):
            if val is raw:
                self._set(cls, key, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install):
        """Run ``install(self)``, yield, and always restore every original."""
        try:
            install(self)
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------

    def counts(self):
        total = Counter()
        for st in self._threads:
            total.update(st["counts"])
        return total

    def peak(self, name, default=0.0):
        return max([st["peaks"][name] for st in self._threads
                    if name in st.get("peaks", {})] + [default])

    def notes(self, name):
        return [v for st in self._threads for v in st.get("notes", {}).get(name, ())]

    def span_table(self, cell_span):
        """Aggregate spans by name.

        Returns ``(by_name, cell_time, root_time_main)``: per name the call
        count, inclusive seconds, and self seconds (a span minus its
        children); the summed duration of ``cell_span`` spans; and the
        summed duration of root spans on the thread that traced first.
        Only spans inside a ``cell_span`` span (or that span itself) count
        towards self time, so waiting in the sweep's main thread is left out.
        """
        by_name = {}
        cell_time = 0.0
        root_main = 0.0
        for ti, st in enumerate(self._threads):
            spans = st["spans"]
            child_time = [0.0] * len(spans)
            in_cell = [False] * len(spans)
            for i, (name, t0, t1, parent) in enumerate(spans):
                if t1 is None:
                    continue
                if parent >= 0:
                    child_time[parent] += t1 - t0
                    in_cell[i] = in_cell[parent]
                if name == cell_span:
                    in_cell[i] = True
                    cell_time += t1 - t0
                if ti == 0 and parent < 0:
                    root_main += t1 - t0
            for i, (name, t0, t1, parent) in enumerate(spans):
                if t1 is None:
                    continue
                row = by_name.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["incl_s"] += t1 - t0
                if in_cell[i]:
                    row["self_s"] += (t1 - t0) - child_time[i]
        return by_name, cell_time, root_main
