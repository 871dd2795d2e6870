"""In-memory spans around the benchmark's calls into each ntangle layer.

A span records its name, start, end, the span open around it (its parent),
the request it belongs to, the phase of the run, whether the call raised,
and optional numeric attributes. Spans stay in memory until the worker
writes them out; per-layer numbers are derived from the written file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._open = []
        self.phase = "setup"

    @contextmanager
    def span(self, name: str, request: int = -1):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "request": request,
            "phase": self.phase,
            "failed": False,
            "attrs": {},
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        except BaseException:
            record["failed"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


class NullTracer:
    """Tracing off: spans cost one no-op context manager and record nothing."""

    enabled = False
    phase = "setup"

    def span(self, name: str, request: int = -1):
        return nullcontext({})


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_totals(spans) -> dict:
    """Per span name over set-up and the traced pass: self time, calls, failures."""
    selfs = self_times(spans)
    totals = {}
    for s in spans:
        if s["phase"] not in ("setup", "pass"):
            continue
        t = totals.setdefault(s["name"], {"s": 0.0, "calls": 0, "failed": 0, "spans": []})
        t["s"] += selfs[s["id"]]
        t["calls"] += 1
        t["failed"] += int(s["failed"])
        t["spans"].append(s)
    return totals
