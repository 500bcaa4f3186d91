"""Spans around calls into mathsynth's layers, installed from the benchmark.

A span records name, start, end, parent span and the benchmark operation
that was running.  Spans are kept in flat arrays in memory and written out
once, when the run ends.  Nothing here is imported by an untraced run.

A wrapped function that re-enters itself (``render`` rendering the entries
of a list, a mined operator evaluating its inner operators) records only the
outermost call, so counts are calls into the layer, not recursion depth.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULE_PREFIX = "mathsynth"


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}  # span name -> id, in order of first use
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.enabled = True
        self.current_op = -1  # -1 while setting up
        self.counts: dict[str, float] = {}

    # -- recording ----------------------------------------------------------

    def count(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not layer work."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, span_name: str, fn, on_result=None):
        nid = self._ids.setdefault(span_name, len(self._ids))
        clock = time.perf_counter
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack,
        )
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0] or not self.enabled:
                return fn(*args, **kwargs)
            active[0] = True
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                active[0] = False
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def patch_function(self, module, attr: str, span_name: str, on_result=None):
        """Rebind every mathsynth module global that names the function, so
        callers that imported it by name go through the wrapper too."""
        original = getattr(module, attr)
        wrapper = self.wrap(span_name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != MODULE_PREFIX and not mod_name.startswith(MODULE_PREFIX + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, span_name: str, on_result=None):
        setattr(cls, attr, self.wrap(span_name, cls.__dict__[attr], on_result))

    # -- results ------------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        dur = np.frombuffer(self.end, dtype=np.float64, count=n) - start
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        op = np.frombuffer(self.op, dtype=np.int32, count=n)
        children = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        return name, op, dur, dur - children

    def per_name(self):
        """{span name: (calls, calls inside operations, inclusive s, self s)}"""
        name, op, dur, self_time = self.arrays()
        k = len(self._ids)
        calls = np.bincount(name, minlength=k)
        op_calls = np.bincount(name[op >= 0], minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {
            n: (int(calls[i]), int(op_calls[i]), float(incl[i]), float(own[i]))
            for n, i in self._ids.items()
        }

    def write(self, path):
        name, op, dur, self_time = self.arrays()
        n = len(self.start)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(list(self._ids))),
            name=name,
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            op=op,
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
            self_time=self_time,
        )
