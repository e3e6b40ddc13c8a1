"""Myopic-greedy communication timing on the meeting grid.

The paper scores when a single exchange is worth its cost by comparing
theta_nc, the expected cost to the global goal with no exchange at all, with
theta_c, the expected cost when the agents exchange once at a given time and
then continue silently.  On the meeting grid both collapse to Manhattan
distances: theta_nc_meeting is the closed-form no-exchange cost, and the
exchange-time table for each starting distance follows from an exact
evolution of the remaining distances.  The generic theta_nc and theta_c on
any joint model are test oracles (tests/oracles.py).

The walkers move independently, so the joint law of their remaining
distances after t steps is the outer product of two one-walker laws b1_t
and b2_t (absorbing chains that drop by one with probability p), and every
score, for all times and separations at once, is read off them: the meeting
mass b1_t[0]·b2_t[0] - b1_{t-1}[0]·b2_{t-1}[0], the continuation b1_t·H·b2_t
(H[i, j] the no-exchange cost of the re-split separation i + j) and the
alive mass, summed over the alive cells as b1[1:].sum()·b2.sum() +
b1[0]·b2[1:].sum(): 1 - b1[0]·b2[0] would keep a rounding residue that a
huge fee (-1e6) lifts over the 1e-12 margin.  Only the alive mass's share
of the score depends on the fee, so the rest is scored once per grid, rate
and time cap, and a table at another fee costs one multiply-add and one
comparison, so tables are not memoised: every call builds a new
CommPolicy with its own times dict.

Units in this module are system time steps: every step while the goal is
unmet costs 1, so a joint utility that charges each of the two agents per
step is twice these values, and an exchange cost C is C/2 here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import Dict, Optional, Tuple

import numpy as np

GRID_SIZE = 10  # the meeting grid's width and height


@dataclass
class CommPolicy:
    """Exchange times per synchronized summary (meeting: starting distance).

    A distance with no entry means communication never pays within the time
    cap.  Time restarts at zero after every exchange, so the table re-applies
    after each one.
    """

    times: Dict[int, int]

    def time_for(self, d: int) -> Optional[int]:
        return self.times.get(d)

    def __post_init__(self):
        for d, t in self.times.items():
            if t < 1:
                raise ValueError(f"exchange time for distance {d} must be >= 1, got {t}")


@lru_cache(maxsize=None)
def theta_nc_meeting(d1: int, d2: int, p1: float, p2: float = None) -> float:
    """Expected negative time until two walkers cover distances d1 and d2,
    each advancing one unit per step with its own success probability.

    Solved cell by cell: the self-referential stay-stay term is eliminated
    algebraically, so each value is exact.
    """
    if p2 is None:
        p2 = p1
    if d1 < 0 or d2 < 0:
        raise ValueError("distances must be nonnegative")
    if (d1 > 0 and p1 <= 0.0) or (d2 > 0 and p2 <= 0.0):
        raise ValueError(
            "success probability 0 with positive distance: expected time diverges"
        )
    if d1 == 0 and d2 == 0:
        return 0.0
    if d2 == 0:
        return -d1 / p1
    if d1 == 0:
        return -d2 / p2
    q1, q2 = 1.0 - p1, 1.0 - p2
    if 1.0 - q1 * q2 == 0.0:
        raise ValueError(
            f"success probabilities p1={p1!r} and p2={p2!r} are too small: the"
            " chance that either walker advances, 1 - (1 - p1)(1 - p2), rounds to 0"
        )
    num = (
        p1 * p2 * theta_nc_meeting(d1 - 1, d2 - 1, p1, p2)
        + p1 * q2 * theta_nc_meeting(d1 - 1, d2, p1, p2)
        + q1 * p2 * theta_nc_meeting(d1, d2 - 1, p1, p2)
        - 1.0
    )
    return num / (1.0 - q1 * q2)


def split_distance(d: int) -> Tuple[int, int]:
    """Midpoint split of a separation d: agent 1 takes the shorter half."""
    return d // 2, d - d // 2


def comm_policy_table(
    grid_size: int = GRID_SIZE,
    p_u: float = 0.8,
    comm_cost: float = -0.1,
    action_cost: float = -1.0,
    time_cap: int = 200,
) -> CommPolicy:
    """Exchange-time table for every starting separation on the grid.

    For separation d the agents head to the midpoint (split_distance).  For
    each candidate exchange time t the one-exchange cost is scored exactly
    over the remaining-distance distribution: branches that met during the
    first t steps pay only their meeting time; live branches pay t steps,
    the exchange (converted to time units), and the no-exchange cost of the
    rebalanced midpoint split of their remaining separation.  The table
    entry is one past the earliest t that strictly beats never exchanging;
    no such t under the cap means no entry.
    """
    if not 0.0 < p_u <= 1.0:
        raise ValueError(f"success probability p_u must be in (0, 1], got {p_u}")
    if not (math.isfinite(comm_cost) and comm_cost <= 0.0):
        raise ValueError(f"comm_cost must be finite and <= 0, got {comm_cost}")
    if not (math.isfinite(action_cost) and action_cost < 0.0):
        raise ValueError(f"action cost action_cost must be finite and < 0, got {action_cost}")
    for name, n in (("grid_size", grid_size), ("time_cap", time_cap)):
        if not (isinstance(n, Integral) and n >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    comm_in_steps = comm_cost / (2.0 * -action_cost)
    h, silent, alive = _exchange_scores(grid_size, p_u, time_cap)
    value = silent + comm_in_steps * alive
    # row k scores t = k + 1; the entry is one past the earliest better t
    better = value > h[1:] + 1e-12
    times = {d: int(np.argmax(k)) + 2 for d, k in enumerate(better.T, 1) if k.any()}
    return CommPolicy(times=times)


def _distance_laws(r_max: int, p: float, steps: int) -> np.ndarray:
    """laws[t, r0, r]: P(a walker r0 from its target is r from it after t steps)."""
    laws = np.empty((steps + 1, r_max + 1, r_max + 1))
    laws[0] = np.eye(r_max + 1)
    for prev, nxt in zip(laws, laws[1:]):
        nxt[:, 0] = prev[:, 0]
        nxt[:, 1:] = (1.0 - p) * prev[:, 1:]
        nxt[:, :-1] += p * prev[:, 1:]
    return laws


@lru_cache(maxsize=None)
def _exchange_scores(
    grid_size: int, p_u: float, time_cap: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fee-free parts of comm_policy_table's scores, built once per rate.

    Returns read-only (h, silent, alive): h[s] the no-exchange cost of
    separation s split at its midpoint, and for an exchange at t = k + 1
    after separation d = j + 1, silent[k, j] the score without the fee and
    alive[k, j] the mass that pays it.
    """
    d_max, r = 2 * (grid_size - 1), np.arange(grid_size)
    h = np.array([theta_nc_meeting(*split_distance(s), p_u, p_u) for s in range(d_max + 1)])
    laws = _distance_laws(grid_size - 1, p_u, time_cap - 1)
    arrived, rest = laws[..., 0], laws[..., 1:].sum(-1)
    # pair[t, a, b]: the continuation cost at t of walkers that started a and b away
    pair = np.einsum("taj,tbj->tab", np.einsum("tai,ij->taj", laws, h[np.add.outer(r, r)]), laws)
    d1, d2 = split_distance(np.arange(1, d_max + 1))
    t = np.arange(1, time_cap)[:, None]
    met_cost = np.cumsum(np.diff(arrived[:, d1] * arrived[:, d2], axis=0) * -t, axis=0)
    alive = (rest[:, d1] * laws.sum(-1)[:, d2] + arrived[:, d1] * rest[:, d2])[1:]
    cont = pair[1:, d1, d2]
    silent = met_cost - t * alive + cont
    for a in (h, silent, alive):
        a.flags.writeable = False
    return h, silent, alive


def comm_table_csv(
    comm_cost: float = -0.1,
    p_values=(0.2, 0.4, 0.6, 0.8),
    action_cost: float = -1.0,
) -> str:
    """Rows per success probability, columns per starting distance."""
    d_max = 2 * (GRID_SIZE - 1)
    header = "p_u," + ",".join(str(d) for d in range(1, d_max + 1))
    lines = [header]
    for p in p_values:
        pol = comm_policy_table(GRID_SIZE, p, comm_cost, action_cost)
        cells = [
            str(pol.times[d]) if d in pol.times else "never"
            for d in range(1, d_max + 1)
        ]
        lines.append(f"{p}," + ",".join(cells))
    return "\n".join(lines) + "\n"
