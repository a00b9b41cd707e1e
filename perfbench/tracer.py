"""In-memory span recorder for the traced benchmark run.

The traced run replaces a layer's public entry points -- class-level
methods or module-level functions -- with wrappers that record one span
per call: ``(id, parent id, name, start, end)``.  Spans stay in memory
and are written out once, when the run ends.  A span's *self time* is its
duration minus the time its child spans cover, so a route phase that calls
the adapter's ``decide`` is charged only for its own work.

No ``HookBus`` hook is ever subscribed: any per-event hook makes the SoA
kernel hand the run to the scalar driver, which would change what is
measured.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Sequence, Tuple


class Tracer:
    """Collects spans and per-name self time while installed."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # one entry per open span: [span id, child time so far]
        self._stack: List[list] = []
        self._next_id = 1
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, name, t0, t1))

        return traced

    def install(self, targets: Sequence[Tuple[object, str, str]]) -> None:
        """Patch each ``(owner, attribute, span name)`` in place."""
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> Dict[str, float]:
        """Self time per span name so far (copy)."""
        return dict(self.self_s)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for sid, parent, name, t0, t1 in self.spans:
                f.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start": t0, "end": t1},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
