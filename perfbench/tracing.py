"""Spans and operation bookkeeping for one benchmark repetition.

A span is a timed interval with a name, a layer, an optional metric it
counts toward, a start, an end and the index of the span that encloses it.
Spans are kept in memory and written out with the repetition's record when it
ends.  Phases (setup, plan, export, simulate, verify) are always recorded;
the spans around individual public calls are recorded only when tracing is
on, so untraced repetitions carry no per-call timing cost.

An operation is one top-level public call of the program.  It fails when it
raises, or when the correctness gate rejects its output.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self.samples: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str, metric: Optional[str] = None,
             start: Optional[float] = None, always: bool = False):
        """Yields the span's record, or None when the span is not recorded."""
        if not (self.enabled or always):
            yield None
            return
        rec = {
            "name": name,
            "layer": layer,
            "metric": metric,
            "start": time.monotonic() if start is None else start,
            "end": None,
            "cpu_start": time.process_time(),
            "cpu_end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            rec["cpu_end"] = time.process_time()
            self._stack.pop()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n


def self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread, closed loop), so the
    covered time is the sum of their durations.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def metric_self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time summed per metric tag."""
    out: Dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        if s["metric"]:
            out[s["metric"]] = out.get(s["metric"], 0.0) + own
    return out


class Run:
    """Operations, gate problems and output facts of one repetition.

    Facts are the values the gate compares with the recorded reference:
    ``fixed`` facts do not depend on the seed, ``seeded`` facts do.
    """

    def __init__(self, tracer: Tracer, seed: int):
        self.tracer = tracer
        self.seed = seed
        self.attempted: List[str] = []
        self.completed: List[str] = []
        self.problems: Dict[str, List[str]] = {}
        self.facts: Dict[str, Dict[str, dict]] = {}

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    @contextmanager
    def op(self, name: str, layer: str, metric: Optional[str] = None):
        self.attempted.append(name)
        with self.tracer.span(name, layer, metric):
            yield
        self.completed.append(name)

    def fail(self, op: str, message: str) -> None:
        self.problems.setdefault(op, []).append(message)

    def check(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op, message)

    def fact(self, op: str, key: str, value, seeded: bool = False) -> None:
        kind = "seeded" if seeded else "fixed"
        entry = self.facts.setdefault(op, {"fixed": {}, "seeded": {}})
        entry[kind][key] = value

    def failed_ops(self) -> List[str]:
        done = set(self.completed)
        return sorted({op for op in self.attempted if op not in done} | set(self.problems))
