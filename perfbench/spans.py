"""In-memory span recorder for the traced run.

Spans are opened by the benchmark's own code around calls into the
library's public functions; nothing inside the library is
instrumented.  Each span records a name, start, end, its parent span
and the run id shared by every span of one run.  They stay in memory
until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
import uuid
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects nested spans; one instance per run."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children
        (children of one span never overlap: the run is sequential)."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def _root_of(self, i: int) -> int:
        while self.spans[i]["parent"] is not None:
            i = self.spans[i]["parent"]
        return i

    def median_self(self, name: str, root: str) -> float:
        """Median over the top-level spans called ``root`` of the summed
        self time of their descendant spans called ``name``; 0.0 when no
        such root span exists (the layer is not on this workload's path)."""
        own = self._self_times()
        per_root = {s["id"]: 0.0 for s in self.spans if s["parent"] is None and s["name"] == root}
        for s in self.spans:
            if s["name"] == name:
                r = self._root_of(s["id"])
                if r in per_root:
                    per_root[r] += own[s["id"]]
        return statistics.median(per_root.values()) if per_root else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}))
