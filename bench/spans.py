"""Outside-in tracing of tollsim.

The tracer replaces public functions at the names through which their
callers look them up (`tollsim.equilibrium.load_network`, `Path.validate`,
...) with timing wrappers, and puts the originals back afterwards. Nothing
under `src/` knows about it.

Two kinds of wrapper:

* a *span* records (name, start, end, parent) for every call; it is used
  for the coarse calls (solves, loadings, skim builds);
* a *leaf* is a call that wraps no other traced call; its calls are
  aggregated per (parent span, name) as a count and a total time, because
  functions such as `Path.validate` run millions of times per trace.

A name is `<layer>.<what>`, the layer being the tollsim module whose code
runs there. A layer's self time is the time of its spans minus the part
covered by their child spans and leaf calls, plus the time of its leaves.
Layer `bench` holds the benchmark's own per-call bookkeeping.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

class NestedLeafError(RuntimeError):
    """A traced leaf called another traced function."""


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans, leaves) -> dict:
    """Self seconds per span/leaf name.

    `spans` is a sequence of (name, start, end, parent) with parent the index
    of the enclosing span or -1; `leaves` maps (parent, name) to
    (count, total seconds).
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (parent, _name), (_count, total) in leaves.items():
        if parent >= 0:
            covered[parent] += total
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    for (_parent, name), (_count, total) in leaves.items():
        out[name] += total
    return dict(out)


def layer_self_times(spans, leaves) -> dict:
    out: dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans, leaves).items():
        out[layer_of(name)] += seconds
    return dict(out)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []          # [name, start, end, parent]
        self.leaves: dict[tuple, list] = {}  # (parent, name) -> [count, total]
        self._stack: list[int] = []
        self._in_leaf = False
        self._patched: list[tuple] = []      # (owner, attr, original)

    def add_leaf(self, name: str, seconds: float) -> None:
        key = (self._stack[-1] if self._stack else -1, name)
        rec = self.leaves.get(key)
        if rec is None:
            self.leaves[key] = [1, seconds]
        else:
            rec[0] += 1
            rec[1] += seconds

    def span(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(args, kwargs, result)` runs after the
        span closes and is charged to `bench.check`."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:
                after(args, kwargs, result)
                self.add_leaf("bench.check", clock() - t1)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        clock = self.clock

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                raise NestedLeafError(f"{name} called inside another traced leaf")
            self._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_leaf = False
                self.add_leaf(name, dt)

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace `owner.attr` by `make(original)`; classmethods stay classmethods."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span and per aggregated leaf."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            for (parent, name), (count, total) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent,
                                     "count": count, "total_s": total}) + "\n")
