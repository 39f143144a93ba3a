"""In-memory span recorder for the traced run.

A span is one timed call into a layer's public function: name, start,
end, the span that caused it, and the trace (one pipeline run) it belongs
to.  Spans stay in memory until `dump` writes them out at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace = 0

    def new_trace(self) -> None:
        self._trace += 1

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "trace": self._trace, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span run one after another, never overlapping, so
        the covered time is the sum of their durations.
        """
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def median(self, name: str) -> float:
        """Median duration of the spans with this name."""
        vals = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        if not vals:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(vals)

    def dump(self, path) -> None:
        selfs = self.self_times()
        rows = [dict(s, self=selfs[s["id"]]) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh, indent=0)
