"""Spans around calls into pairmask's public functions, recorded from outside.

``Tracer.wrap(owner, attr, name)`` replaces ``owner.attr`` (a module
function or a class method) with a wrapper that records one span per
call: name, start, end, the index of the enclosing span, and an optional
amount of work taken from the call's arguments or result. Spans stay in
memory until ``dump`` writes them out; ``close`` restores every wrapped
attribute. Nothing inside ``src/`` is edited: pairmask resolves module
globals and class attributes at call time, so the wrappers are seen by
its internal calls too.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index, amount)
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, amount: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            # a tuple of str and numbers, which the garbage collector stops tracking
            spans[index] = (name, start, end, parent, 1 if amount is None else amount(args, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- aggregation ----

    def totals(self) -> dict:
        """name -> [calls, seconds, amount, self seconds]; self excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0, 0.0])
        for i, (name, start, end, _, amount) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += amount
            row[3] += end - start - child[i]
        return dict(out)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "amount"], "spans": self.spans}, fh)
