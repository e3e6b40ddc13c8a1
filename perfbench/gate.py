"""Correctness gate: recorded reference facts and seed-independent invariants.

``reference.json`` holds, per pinned BLAS kernel and per workload, the facts
every repetition must reproduce, traced or not.  ``fixed`` facts (planner values,
value-table and export digests, exact work counts) must match at every seed;
``seeded`` facts (Monte-Carlo summaries, per-episode log digests and episode
counts) must match at the seed the reference was recorded with.  Write the
file with ``python3 perfbench/record.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REFERENCE = Path(__file__).with_name("reference.json")
SE_LIMIT = 4.0


def load_reference() -> Optional[dict]:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())


def compare(facts: Dict[str, dict], expected: Dict[str, dict], seed: int,
            reference_seed: int) -> List[Tuple[str, str]]:
    """(op, message) for every fact that differs from the reference.

    An op the reference lists but the run did not report fails, and so does
    an op the run reports but the reference does not know.
    """
    problems: List[Tuple[str, str]] = []
    kinds = ("fixed", "seeded") if seed == reference_seed else ("fixed",)
    for op, want in expected.items():
        got = facts.get(op)
        if got is None:
            problems.append((op, "no output recorded"))
            continue
        for kind in kinds:
            for key, value in want[kind].items():
                have = got[kind].get(key)
                if have != value:
                    problems.append((op, f"{key}: expected {value!r}, got {have!r}"))
    for op in facts:
        if op not in expected:
            problems.append((op, "output has no recorded reference"))
    return problems


def within_se(mean: float, se: float, target: float, limit: float = SE_LIMIT) -> Optional[str]:
    """None when mean lies within limit standard errors of target."""
    if abs(mean - target) <= limit * se:
        return None
    if se > 0.0:
        return f"mean {mean!r} is {abs(mean - target) / se:.2f} SE from {target!r}"
    return f"mean {mean!r} differs from {target!r} with zero spread"
