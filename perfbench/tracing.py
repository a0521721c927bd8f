"""In-memory spans around the benchmark's own calls into pgcodes.

A span records the called public function's name, the run phase, the
codeword it belongs to, its parent span, and perf_counter start and end
times.  A disabled tracer calls straight through and records nothing, so the
untraced run pays one branch per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


def layer_of(name: str) -> str:
    """`minimality.decompose` -> `minimality`; the benchmark's own spans -> `bench`."""
    head, sep, _ = name.partition(".")
    return head if sep else "bench"


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.phase = "setup"
        self.codeword = None
        self.last: dict = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        rec = {"id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "name": name, "phase": self.phase, "codeword": self.codeword,
               "start": time.perf_counter()}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            self.last = rec

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Per layer, the summed span durations minus the time child spans cover.

        Children run strictly inside their parent and one after another, so
        the time they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            layer = layer_of(s["name"])
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
