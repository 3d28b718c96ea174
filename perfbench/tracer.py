"""In-memory span tracer that wraps gfkit's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and the
benchmark operation it belongs to; the first MAX_SPANS spans are kept.
Self time (duration minus the time covered by child spans) and call counts
are aggregated over every call as spans close.
Nothing inside gfkit is edited: wrappers replace module and class
attributes for the lifetime of the traced run and are removed afterwards.
"""
from __future__ import annotations

import json
from array import array
from time import perf_counter


class Tracer:
    MAX_SPANS = 200_000

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("I")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dropped = 0
        self.self_s = {}
        self.calls = {}
        self.current_op = -1
        self._stack = []        # [span index, child time]
        self._undo = []

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = 0.0
            self.calls[name] = 0
        return nid

    def wrap(self, name, fn):
        nid = self._nid(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if len(self.start) < self.MAX_SPANS:
                idx = len(self.start)
                self.name_id.append(nid)
                self.parent.append(stack[-1][0] if stack else -1)
                self.op_id.append(self.current_op)
                self.start.append(0.0)
                self.end.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    self.start[idx] = t0
                    self.end[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name):
        """Replace owner.attr (a module or class attribute) by a traced
        wrapper named `name`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self.wrap(name, original.__func__))
        else:
            wrapped = self.wrap(name, original)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def unpatch(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write every recorded span as column arrays (times in microseconds
        from the first span)."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name_id": list(self.name_id),
                "parent": list(self.parent),
                "op": list(self.op_id),
                "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
                "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
                "dropped": self.dropped,
            }, fh, separators=(",", ":"))
