"""In-memory spans around the public functions of each equibox layer.

The tracer patches module attributes and class methods from outside the
package (nothing under src/ knows it exists). Every patched call becomes a
span (id, parent id, name, start, end); spans stay in a list until the run
ends and are then written out in one file. Calls too frequent for a span
each (the grid CDF's bisection steps) are only counted.
"""

import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end)
        self.counts = Counter()
        self.maxima = {}
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def note_max(self, key, value):
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    # -- patching --------------------------------------------------------

    def wrap(self, targets, name, before=None, after=None):
        """Replace each (owner, attribute) in targets by one traced wrapper.

        before(*args) runs ahead of the call and after(result) on its
        result; both are for counters and are not part of the span.
        """
        original = getattr(*targets[0])
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            sid = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(sid)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = original
        for owner, attr in targets:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, traced)

    def count_calls(self, owner, attr, key):
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, counted)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------

    def total(self, name):
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s[2] == name)

    def child_time(self, parent_name, child_name):
        """Time of child_name spans directly under parent_name spans."""
        parents = {s[0] for s in self.spans if s[2] == parent_name}
        return sum(s[4] - s[3] for s in self.spans
                   if s[2] == child_name and s[1] in parents)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans,
                       "counts": dict(self.counts),
                       "maxima": self.maxima}, fh)
