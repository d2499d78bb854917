"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public function; nothing inside the program is
instrumented. Each span has a name, start, end and parent; spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self, roots: set[int] | None = None) -> dict[str, float]:
        """name → summed self time (duration minus the time its direct
        children cover), over the spans under ``roots`` (all if None)."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        out: dict[str, float] = {}
        for s in self.spans:
            if roots is not None and self._root_of(s) not in roots:
                continue
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def total(self, name: str, roots: set[int] | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name
                   and (roots is None or self._root_of(s) in roots))

    def _root_of(self, s: dict) -> int:
        while s["parent"] is not None:
            s = self.spans[s["parent"]]
        return s["id"]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
