"""Recorded reference tables and the machinery to recompute them.

The constants below are the externally recorded measurements this package
aims to reproduce.  Table numbering follows the recorded set, which has no
table 4.  Three kinds of comparison apply:

  deterministic planning values (production tables 1-3): recomputed exactly
    by backward induction and goal-assignment policy iteration, compared
    within fixed tolerances;
  exchange-time tables (tables 5-7): integer cells compared one by one,
    scored as a match fraction;
  Monte-Carlo estimates (meeting tables 8-13): recomputed by seeded
    simulation and compared within three standard errors of our own batch.

Known residuals are reported honestly by the comparison helpers rather than
hidden: several recorded meeting-walk statistics lie outside what the pinned
dynamics can produce (see the acceptance suite), and a handful of
exchange-time cells differ at small distances where re-splitting the
remaining distance cannot help.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .domains import (
    SUBGOAL_SWEEP,
    Ideal,
    MyopicGreedy,
    NoCommunication,
    SubGoals,
    build_meeting,
    build_production,
    GridConfig,
)
from .lgo import lgo_msbpi
from .myopic import comm_policy_table, theta_nc_meeting
from .sim import SimConfig, SimResult, monte_carlo

PRODUCTION_ROWS: Tuple[Tuple[float, float], ...] = ((0.2, 0.2), (0.2, 0.8), (0.8, 0.8))
MEETING_P: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
GRID_DISTANCES = tuple(range(1, 19))
IDEAL_TOL, LGO_TOL = 0.6, 1.0

EXPECTED: Dict[str, dict] = {
    "T1": {
        "kind": "production",
        "comm_cost": -0.1,
        "rows": {
            (0.2, 0.2): {"ideal": -17.012, "always": -18.017, "lgo": -17.7949},
            (0.2, 0.8): {"ideal": -16.999, "always": -17.94, "lgo": -18.0026},
            (0.8, 0.8): {"ideal": -11.003, "always": -12.01, "lgo": -12.446},
        },
    },
    "T2": {
        "kind": "production",
        "comm_cost": -1.0,
        "rows": {
            (0.2, 0.2): {"ideal": -17.012, "always": -26.99, "lgo": -19.584},
            (0.2, 0.8): {"ideal": -16.999, "always": -26.985, "lgo": -25.294},
            (0.8, 0.8): {"ideal": -11.003, "always": -20.995, "lgo": -17.908},
        },
    },
    "T3": {
        "kind": "production",
        "comm_cost": -10.0,
        "rows": {
            (0.2, 0.2): {"ideal": -17.012, "always": -117.0, "lgo": -17.262},
            (0.2, 0.8): {"ideal": -16.999, "always": -117.028, "lgo": -87.27},
            (0.8, 0.8): {"ideal": -11.003, "always": -110.961, "lgo": -81.798},
        },
    },
    "T5": {
        "kind": "comm_table",
        "comm_cost": -0.1,
        "rows": {
            0.2: (2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3),
            0.4: (2, 2, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3),
            0.6: (2, 2, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3),
            0.8: (2, 2, 2, 3, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4),
        },
    },
    "T6": {
        "kind": "comm_table",
        "comm_cost": -1.0,
        "rows": {
            0.2: (3, 4, 3, 5, 3, 6, 4, 7, 4, 7, 5, 7, 5, 8, 5, 8, 6, 9),
            0.4: (2, 3, 3, 4, 4, 5, 4, 6, 5, 7, 5, 7, 6, 8, 6, 8, 7, 9),
            0.6: (2, 2, 3, 4, 4, 5, 5, 6, 6, 7, 6, 8, 7, 8, 7, 9, 8, 10),
            0.8: (2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10),
        },
        "anchors": (((0.4, 5), 4),),
    },
    "T7": {
        "kind": "comm_table",
        "comm_cost": -10.0,
        "rows": {
            0.2: (9, 9, 11, 13, 14, 17, 18, 20, 21, 23, 25, 27, 28, 30, 32, 34, 35, 37),
            0.4: (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22),
            0.6: (4, 4, 5, 6, 6, 7, 8, 9, 9, 10, 11, 12, 12, 13, 14, 15, 15, 16),
            0.8: (3, 3, 4, 4, 5, 5, 6, 7, 7, 8, 8, 9, 10, 10, 11, 11, 12, 12),
        },
        "anchors": (((0.4, 5), 9), ((0.4, 12), 16)),
    },
    "T8": {
        "kind": "meeting_utility",
        "comm_cost": -0.1,
        "rows": {
            0.2: {"no_comm": -104.925, "ideal": -62.872, "subgoals": -64.7399, "myopic": -63.76},
            0.4: {"no_comm": -51.4522, "ideal": -37.33, "subgoals": -38.172, "myopic": -37.338},
            0.6: {"no_comm": -33.4955, "ideal": -26.444, "subgoals": -27.232, "myopic": -26.666},
            0.8: {"no_comm": -24.3202, "ideal": -20.584, "subgoals": -20.852, "myopic": -20.704},
        },
    },
    "T9": {
        "kind": "meeting_utility",
        "comm_cost": -1.0,
        "rows": {
            0.2: {"subgoals": -65.906, "subgoals_p": 0.3, "myopic": -63.84},
            0.4: {"subgoals": -39.558, "subgoals_p": 0.2, "myopic": -37.774},
            0.6: {"subgoals": -27.996, "subgoals_p": 0.2, "myopic": -27.156},
            0.8: {"subgoals": -21.05, "subgoals_p": 0.1, "myopic": -21.3},
        },
    },
    "T10": {
        "kind": "meeting_utility",
        "comm_cost": -10.0,
        "rows": {
            0.2: {"subgoals": -69.286, "subgoals_p": 0.1, "myopic": -68.948},
            0.4: {"subgoals": -40.516, "subgoals_p": 0.1, "myopic": -40.594},
            0.6: {"subgoals": -28.192, "subgoals_p": 0.1, "myopic": -28.908},
            0.8: {"subgoals": -21.118, "subgoals_p": 0.1, "myopic": -22.166},
        },
    },
    "T11": {
        "kind": "meeting_comm",
        "comm_cost": -0.1,
        "rows": {
            0.2: {"ideal": 31.436, "subgoals": 5.4, "myopic": 21.096},
            0.4: {"ideal": 18.665, "subgoals": 1.0, "myopic": 11.962},
            0.6: {"ideal": 13.426, "subgoals": 1.0, "myopic": 8.323},
            0.8: {"ideal": 10.292, "subgoals": 1.0, "myopic": 4.579},
        },
    },
    "T12": {
        "kind": "meeting_comm",
        "comm_cost": -1.0,
        "rows": {
            0.2: {"subgoals": 1.194, "myopic": 6.717},
            0.4: {"subgoals": 1.0, "myopic": 3.904},
            0.6: {"subgoals": 1.0, "myopic": 2.036},
            0.8: {"subgoals": 0.0, "myopic": 1.296},
        },
    },
    "T13": {
        "kind": "meeting_comm",
        "comm_cost": -10.0,
        "rows": {
            0.2: {"subgoals": 0.0, "myopic": 0.416},
            0.4: {"subgoals": 0.0, "myopic": 0.417},
            0.6: {"subgoals": 0.0, "myopic": 0.338},
            0.8: {"subgoals": 0.0, "myopic": 0.329},
        },
    },
}

TABLE_IDS = tuple(sorted(EXPECTED, key=lambda tid: int(tid[1:])))


def expected_table(table_id: str) -> dict:
    tid = table_id.upper()
    if tid == "T4":
        raise ValueError(
            "table T4 is not part of the recorded reference set (the"
            f" numbering skips it); available tables: {', '.join(TABLE_IDS)}"
        )
    if tid not in EXPECTED:
        raise ValueError(
            f"unknown table {table_id!r}; available tables: {', '.join(TABLE_IDS)}"
        )
    return EXPECTED[tid]


@dataclass
class CellCheck:
    """One compared value; tolerance None marks report-only rows."""

    label: str
    expected: object
    actual: object
    tolerance: Optional[float]
    ok: bool

    def line(self) -> str:
        if self.tolerance is None:
            status = "info"
        else:
            status = "PASS" if self.ok else "FAIL"
        tol = "" if self.tolerance is None else f" (tol {self.tolerance:g})"
        return f"  [{status}] {self.label}: expected {self.expected} got {self.actual}{tol}"


@dataclass
class TableReport:
    table: str
    checks: List[CellCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks if c.tolerance is not None)

    def summary(self) -> str:
        lines = [f"{self.table}: {'PASS' if self.passed else 'FAIL'}"]
        lines.extend(c.line() for c in self.checks)
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def _check(report, label, expected, actual, tol):
    ok = tol is None or abs(actual - expected) <= tol
    report.checks.append(CellCheck(label, expected, actual, tol, ok))
    return ok


# ---------------------------------------------------------------------------
# production tables (deterministic planning values)


def production_values(comm_cost: float) -> Dict[Tuple[float, float], Dict[str, float]]:
    """Planned utilities per success-rate pair: full-information baseline,
    its per-step-charged variant, and the goal-assignment mechanism."""
    out = {}
    for p1, p2 in PRODUCTION_ROWS:
        domain = build_production(p1, p2, comm_cost=comm_cost)
        s0 = domain.model.initial_state
        ideal = float(domain.joint_policy.value[s0.s1, s0.s2])
        always = ideal + domain.horizon * comm_cost
        mech = lgo_msbpi(domain.model, domain.candidates1, domain.candidates2)
        lgo = float(mech.value[0, s0.s1, s0.s2])
        out[(p1, p2)] = {"ideal": ideal, "always": always, "lgo": lgo}
    return out


def compare_production_table(table_id: str) -> TableReport:
    spec = expected_table(table_id)
    if spec["kind"] != "production":
        raise ValueError(f"{table_id} is not a production table")
    report = TableReport(table_id.upper())
    ours = production_values(spec["comm_cost"])
    for key, row in spec["rows"].items():
        got = ours[key]
        tag = f"p=({key[0]:g},{key[1]:g})"
        _check(report, f"{tag} ideal", row["ideal"], got["ideal"], IDEAL_TOL)
        _check(report, f"{tag} always", row["always"], got["always"], IDEAL_TOL)
        _check(report, f"{tag} lgo", row["lgo"], got["lgo"], LGO_TOL)
    return report


# ---------------------------------------------------------------------------
# exchange-time tables (deterministic integer cells)


def comm_table_values(comm_cost: float) -> Dict[float, Tuple[Optional[int], ...]]:
    out = {}
    for p in MEETING_P:
        policy = comm_policy_table(p_u=p, comm_cost=comm_cost)
        out[p] = tuple(policy.times.get(d) for d in GRID_DISTANCES)
    return out


def compare_comm_table(table_id: str) -> TableReport:
    spec = expected_table(table_id)
    if spec["kind"] != "comm_table":
        raise ValueError(f"{table_id} is not an exchange-time table")
    report = TableReport(table_id.upper())
    ours = comm_table_values(spec["comm_cost"])
    matches = total = 0
    mismatches = []
    for p, row in spec["rows"].items():
        got = ours[p]
        for d, want in zip(GRID_DISTANCES, row):
            total += 1
            if got[d - 1] == want:
                matches += 1
            else:
                mismatches.append(f"p={p:g} d={d}: expected {want} got {got[d - 1]}")
    frac = matches / total
    report.checks.append(
        CellCheck(f"cell match fraction ({matches}/{total})", ">=0.95", round(frac, 4), 0.0, frac >= 0.95)
    )
    for (p, d), want in spec.get("anchors", ()):
        got = ours[p][d - 1]
        ok = got == want
        report.checks.append(CellCheck(f"anchor p={p:g} d={d}", want, got, 0.0, ok))
    if mismatches:
        report.notes.append("mismatched cells: " + "; ".join(mismatches))
    return report


# ---------------------------------------------------------------------------
# meeting Monte-Carlo tables


def _run(domain, strategy, episodes, seed) -> SimResult:
    return monte_carlo(SimConfig(domain=domain, strategy=strategy, episodes=episodes, seed=seed))


def best_subgoals(domain, episodes: int, seed: int) -> Tuple[float, SimResult]:
    """Highest mean utility over the sub-goal radius sweep (ties to smaller p)."""
    best_p, best = None, None
    for p in SUBGOAL_SWEEP:
        r = _run(domain, SubGoals(p), episodes, seed)
        if best is None or r.mean_utility > best.mean_utility + 1e-12:
            best_p, best = p, r
    return best_p, best


def meeting_batches(comm_cost: float, p: float, episodes: int, seed: int) -> Dict[str, object]:
    """All strategy batches for one (success rate, exchange cost) cell,
    simulated once per process: a fee's utility and exchange-count tables
    share it.  Every call returns its own result objects."""
    cell = _meeting_cell(comm_cost, p, episodes, seed)
    return {k: replace(r) if isinstance(r, SimResult) else r for k, r in cell.items()}


@lru_cache(maxsize=None)
def _meeting_cell(comm_cost: float, p: float, episodes: int, seed: int) -> Dict[str, object]:
    domain = build_meeting(GridConfig(p1=p, p2=p, comm_cost=comm_cost))
    table = comm_policy_table(p_u=p, comm_cost=comm_cost)
    out: Dict[str, object] = {
        "no_comm": _run(domain, NoCommunication(), episodes, seed),
        "ideal": _run(domain, Ideal(), episodes, seed),
        "myopic": _run(domain, MyopicGreedy(table), episodes, seed),
    }
    out["subgoals_p"], out["subgoals"] = best_subgoals(domain, episodes, seed)
    return out


def _three_se(result: SimResult, comm: bool = False) -> float:
    se = result.comm_std_error if comm else result.std_error
    return max(3.0 * se, 1e-9)


def compare_meeting_table(table_id: str, episodes: int = 1000, seed: int = 0) -> TableReport:
    """Utility tables gate the recorded full-information and greedy columns
    within three standard errors of our batches; exchange-count tables gate
    the same strategies' mean exchange counts.  The analytic no-exchange
    utility is gated tightly; sub-goal rows are reported for reference."""
    spec = expected_table(table_id)
    if spec["kind"] not in ("meeting_utility", "meeting_comm"):
        raise ValueError(f"{table_id} is not a meeting table")
    counts = spec["kind"] == "meeting_comm"
    report = TableReport(table_id.upper())
    for p, row in spec["rows"].items():
        batches = meeting_batches(spec["comm_cost"], p, episodes, seed)
        tag = f"p={p:g}"
        if counts:
            if "ideal" in row:
                r = batches["ideal"]
                _check(report, f"{tag} ideal comms", row["ideal"], r.mean_comm, _three_se(r, comm=True))
            r = batches["myopic"]
            _check(report, f"{tag} myopic comms", row["myopic"], r.mean_comm, _three_se(r, comm=True))
            r = batches["subgoals"]
            _check(report, f"{tag} subgoals comms (p*={batches['subgoals_p']:g})", row["subgoals"], r.mean_comm, None)
        else:
            if "no_comm" in row:
                analytic = 2.0 * theta_nc_meeting(9, 9, p)
                _check(report, f"{tag} no_comm analytic", row["no_comm"], analytic, 0.01)
                r = batches["no_comm"]
                _check(report, f"{tag} no_comm simulated", row["no_comm"], r.mean_utility, _three_se(r))
            if "ideal" in row:
                r = batches["ideal"]
                _check(report, f"{tag} ideal", row["ideal"], r.mean_utility, _three_se(r))
            r = batches["myopic"]
            _check(report, f"{tag} myopic", row["myopic"], r.mean_utility, _three_se(r))
            r = batches["subgoals"]
            label = f"{tag} subgoals (p*={batches['subgoals_p']:g}"
            if "subgoals_p" in row:
                label += f", recorded p*={row['subgoals_p']:g}"
            _check(report, label + ")", row["subgoals"], r.mean_utility, None)
    return report


def reproduce(table_id: str, episodes: int = 1000, seed: int = 0) -> TableReport:
    """Recompute one recorded table and compare cell by cell.

    episodes and seed drive the Monte-Carlo batches of the meeting tables
    (T8-T13) only.  The production tables T1-T3 gate planned values (backward
    induction and the goal-assignment planner) and the exchange-time tables
    T5-T7 come from the myopic analysis, so neither uses them.
    """
    spec = expected_table(table_id)
    if spec["kind"] == "production":
        return compare_production_table(table_id)
    if spec["kind"] == "comm_table":
        return compare_comm_table(table_id)
    return compare_meeting_table(table_id, episodes=episodes, seed=seed)
