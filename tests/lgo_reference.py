"""Dict-based goal-assignment planner, kept as a bit-identity oracle.

This is the planner as it was before the assignment table became arrays:
a dict (s1, s2, t) -> GoalAssignment, an evaluator that groups cells by
assignment key and rebuilds every candidate product from scratch, a final
evaluation after convergence, and a sorted CSV export.  The matrix window
kernels are shared with the library: each planner call builds the library's
scorer (_WindowCache) and reads its window pieces and its potential (phi);
the per-cell window walk (_window_forward) is a frozen copy, independent of
the library's forward kernel.  What this module pins down is the table
bookkeeping, the sweep order and the summation order of each candidate
score.  Only the result type differs from
the original: it is a local ReferenceMechanism, because the library's
LgoMechanism now holds arrays.  An assignment's key (both labels and the
window) is read through key(), since GoalAssignment no longer defines one.

table_mechanism converts a dict table into the library's LgoMechanism, so
tests can run the library's array evaluator on dict-built tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from commplan.lgo import (
    GoalAssignment,
    LgoMechanism,
    LocalGoalPolicy,
    _by_label,
    _WindowCache,
    default_candidates,
)
from commplan.model import DecMdpCom, FactoredState


@dataclass
class ReferenceMechanism:
    """Assignment table (s1, s2, t) -> GoalAssignment plus its value table."""

    assignment: Dict[Tuple[int, int, int], GoalAssignment]
    value: np.ndarray
    sweeps: int = 0
    candidates_considered: int = 0
    sweep_candidate_counts: List[int] = field(default_factory=list)


def key(asg: GoalAssignment) -> Tuple[str, str, int]:
    return (asg.g1.label, asg.g2.label, asg.k)


def _candidates(cells) -> Tuple[List[LocalGoalPolicy], List[LocalGoalPolicy]]:
    """Each agent's distinct policies among the assignments, first seen first.
    Two different policies under one label are rejected."""
    return (
        list(_by_label([a.g1 for a in cells], 1).values()),
        list(_by_label([a.g2 for a in cells], 2).values()),
    )


def table_mechanism(table: Dict[Tuple[int, int, int], GoalAssignment], m: DecMdpCom) -> LgoMechanism:
    """The library's array form of a dict (s1, s2, t) -> GoalAssignment table
    covering every cell.  Its value table is left NaN; evaluate_lgo fills
    one in.  Two different policies under one label are rejected."""
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    cells = [
        table[(s1, s2, t)] for t in range(T) for s1 in range(n1) for s2 in range(n2)
    ]
    cand1, cand2 = _candidates(cells)
    pos1 = {pol.label: i for i, pol in enumerate(cand1)}
    pos2 = {pol.label: i for i, pol in enumerate(cand2)}
    shape = (T, n1, n2)
    return LgoMechanism(
        candidates1=cand1,
        candidates2=cand2,
        g1=np.array([pos1[a.g1.label] for a in cells], dtype=np.intp).reshape(shape),
        g2=np.array([pos2[a.g2.label] for a in cells], dtype=np.intp).reshape(shape),
        k=np.array([a.k for a in cells], dtype=np.intp).reshape(shape),
        value=np.full((T + 1, n1, n2), np.nan),
    )


def _window_forward(
    m: DecMdpCom,
    pol1: LocalGoalPolicy,
    pol2: LocalGoalPolicy,
    s: FactoredState,
    t: int,
    k: int,
) -> Dict[Tuple[int, int], list]:
    """Joint mass and accumulated reward over a k-step no-exchange window."""
    cur: Dict[Tuple[int, int], list] = {(s.s1, s.s2): [1.0, 0.0]}
    for j in range(k):
        tau = t + j
        nxt: Dict[Tuple[int, int], list] = {}
        for (s1, s2), (mu, rho) in cur.items():
            a1 = pol1.action_at(s1, tau)
            a2 = pol2.action_at(s2, tau)
            row1 = m.agent1.transition[s1, a1]
            row2 = m.agent2.transition[s2, a2]
            for q1 in np.nonzero(row1 > 0.0)[0]:
                for q2 in np.nonzero(row2 > 0.0)[0]:
                    p = row1[q1] * row2[q2]
                    r = m.step_reward(s1, s2, a1, a2, int(q1), int(q2))
                    cell = nxt.setdefault((int(q1), int(q2)), [0.0, 0.0])
                    cell[0] += mu * p
                    cell[1] += rho * p + mu * p * r
        cur = nxt
    return cur


def _f_matrix(
    scorer: _WindowCache,
    g1: LocalGoalPolicy,
    g2: LocalGoalPolicy,
    t: int,
    k: int,
    V_next: np.ndarray,
) -> np.ndarray:
    """Candidate value of assigning (g1, g2, k) at time t, for every state.

    Expected action costs accumulate per agent; the state-based reward
    telescopes through the potential, leaving end-of-window potential minus
    the starting one; the exchange cost lands once; the future value enters
    through the joint k-step propagator."""
    M1, c1 = scorer.pieces(1, g1, t, k)
    M2, c2 = scorer.pieces(2, g2, t, k)
    phi = scorer.phi
    W = phi + V_next
    return c1[:, None] + c2[None, :] - phi + scorer.m.comm_cost + M1 @ W @ M2.T


def _evaluate_assignment_table(
    table: Dict[Tuple[int, int, int], GoalAssignment],
    m: DecMdpCom,
    scorer: Optional[_WindowCache] = None,
) -> np.ndarray:
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    V = np.zeros((T + 1, n1, n2))
    fast = m.extra_reward is None
    scorer = scorer or _WindowCache(m, *_candidates(table.values()))
    for t in range(T - 1, -1, -1):
        groups: Dict[tuple, list] = {}
        for s1 in range(n1):
            for s2 in range(n2):
                asg = table[(s1, s2, t)]
                if t + asg.k > m.horizon:
                    raise ValueError(
                        f"assignment at ({s1}, {s2}, {t}) has window {asg.k} "
                        f"running past the horizon {m.horizon}"
                    )
                group = groups.setdefault(key(asg), [asg, [], []])
                group[1].append(s1)
                group[2].append(s2)
        for asg, idx1, idx2 in groups.values():
            if fast:
                F = _f_matrix(scorer, asg.g1, asg.g2, t, asg.k, V[t + asg.k])
                V[t, idx1, idx2] = F[idx1, idx2]
            else:
                for s1, s2 in zip(idx1, idx2):
                    cells = _window_forward(
                        m, asg.g1, asg.g2, FactoredState(s1, s2), t, asg.k
                    )
                    total = 0.0
                    for (q1, q2), (mu, rho) in cells.items():
                        total += rho + mu * (m.comm_cost + V[t + asg.k, q1, q2])
                    V[t, s1, s2] = total
    return V


def evaluate_lgo(delta, m: DecMdpCom) -> np.ndarray:
    """Value table of a goal-assignment mechanism; V[horizon] = 0."""
    table = delta.assignment if isinstance(delta, ReferenceMechanism) else delta
    return _evaluate_assignment_table(table, m)


def lgo_msbpi(
    m: DecMdpCom,
    candidates1: Optional[Sequence[LocalGoalPolicy]] = None,
    candidates2: Optional[Sequence[LocalGoalPolicy]] = None,
    max_sweeps: int = 200,
) -> ReferenceMechanism:
    """Policy iteration over goal assignments.

    Each round evaluates the current assignment table, then for every window
    length k (ascending), time, state, and candidate pair, re-scores the
    assignment and installs it wherever it strictly beats the current value
    (in place, so later candidates must beat the freshest value).  Stops when
    a full round changes nothing.
    """
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    cand1 = list(candidates1) if candidates1 is not None else default_candidates(m.agent1, T)
    cand2 = list(candidates2) if candidates2 is not None else default_candidates(m.agent2, T)
    if not cand1 or not cand2:
        raise ValueError("both agents need at least one candidate policy")
    fast = m.extra_reward is None
    scorer = _WindowCache(m, cand1, cand2)

    table: Dict[Tuple[int, int, int], GoalAssignment] = {}
    init = GoalAssignment(cand1[0], cand2[0], 1)
    for t in range(T):
        for s1 in range(n1):
            for s2 in range(n2):
                table[(s1, s2, t)] = init

    considered = 0
    sweep_counts: List[int] = []
    sweeps = 0
    while sweeps < max_sweeps:
        V = _evaluate_assignment_table(table, m, scorer)
        changed = False
        sweep_considered = 0
        for k in range(1, T):
            for t in range(T):
                sweep_considered += n1 * n2 * len(cand1) * len(cand2)
                if t + k > T:
                    continue
                for g1 in cand1:
                    for g2 in cand2:
                        if fast:
                            F = _f_matrix(scorer, g1, g2, t, k, V[t + k])
                        else:
                            F = np.empty((n1, n2))
                            for s1 in range(n1):
                                for s2 in range(n2):
                                    cells = _window_forward(
                                        m, g1, g2, FactoredState(s1, s2), t, k
                                    )
                                    total = 0.0
                                    for (q1, q2), (mu, rho) in cells.items():
                                        total += rho + mu * (
                                            m.comm_cost + V[t + k, q1, q2]
                                        )
                                    F[s1, s2] = total
                        mask = F > V[t]
                        if mask.any():
                            changed = True
                            asg = GoalAssignment(g1, g2, k)
                            for s1, s2 in zip(*np.nonzero(mask)):
                                table[(int(s1), int(s2), t)] = asg
                            V[t][mask] = F[mask]
        sweeps += 1
        considered += sweep_considered
        sweep_counts.append(sweep_considered)
        if not changed:
            break
    V = _evaluate_assignment_table(table, m, scorer)
    return ReferenceMechanism(
        assignment=table,
        value=V,
        sweeps=sweeps,
        candidates_considered=considered,
        sweep_candidate_counts=sweep_counts,
    )


def mechanism_csv(mech: ReferenceMechanism) -> str:
    """Assignment table as CSV (state pair, time, labels, window, value)."""
    lines = ["s1,s2,t,g1,g2,k,V"]
    for (s1, s2, t), asg in sorted(mech.assignment.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1])):
        lines.append(
            f"{s1},{s2},{t},{asg.g1.label},{asg.g2.label},{asg.k},"
            f"{float(mech.value[t, s1, s2])!r}"
        )
    return "\n".join(lines) + "\n"
