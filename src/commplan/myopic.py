"""Myopic-greedy communication timing on the meeting grid.

The paper scores when a single exchange is worth its cost by comparing
theta_nc, the expected cost to the global goal with no exchange at all, with
theta_c, the expected cost when the agents exchange once at a given time and
then continue silently.  On the meeting grid both collapse to Manhattan
distances: theta_nc_meeting is the closed-form no-exchange cost, and the
exchange-time table for each starting distance follows from an exact
evolution of the remaining distances.  The generic theta_nc and theta_c on
any joint model are test oracles (tests/oracles.py).

Each exchange-time table is built once per process: comm_policy_table keeps
the table's (distance, time) items per (grid_size, p_u, comm_cost,
action_cost, time_cap), however the arguments are passed, and every call
returns a new CommPolicy with its own times dict, so editing one result
does not change the next.

Units in this module are system time steps: every step while the goal is
unmet costs 1, so a joint utility that charges each of the two agents per
step is twice these values, and an exchange cost C is C/2 here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple


@dataclass
class CommPolicy:
    """Exchange times per synchronized summary (meeting: starting distance).

    A distance with no entry means communication never pays within the time
    cap.  Time restarts at zero after every exchange, so the table re-applies
    after each one.
    """

    times: Dict[int, int]
    grid_size: int = 0
    p_u: float = 0.0
    comm_cost: float = 0.0

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


def _decrement(r: int, p: float):
    if r == 0:
        return ((0, 1.0),)
    if p >= 1.0:
        return ((r - 1, 1.0),)
    return ((r - 1, p), (r, 1.0 - p))


def distance_evolution(d1: int, d2: int, p: float, steps: int):
    """Evolve the pair of remaining distances for a number of steps.

    Both agents walk toward a shared target; each step each remaining
    distance drops by one with probability p, independently; (0, 0) absorbs
    (the agents have met).  Yields (t, met_mass_at_t, alive_dict) per step.
    """
    alive = {(d1, d2): 1.0}
    for t in range(1, steps + 1):
        nxt: Dict[Tuple[int, int], float] = {}
        for (r1, r2), mass in alive.items():
            for n1, pr1 in _decrement(r1, p):
                for n2, pr2 in _decrement(r2, p):
                    key = (n1, n2)
                    nxt[key] = nxt.get(key, 0.0) + mass * pr1 * pr2
        met = nxt.pop((0, 0), 0.0)
        alive = nxt
        yield t, met, alive


def comm_policy_table(
    grid_size: int = 10,
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
    times = _exchange_times(grid_size, p_u, comm_cost, action_cost, time_cap)
    return CommPolicy(times=dict(times), grid_size=grid_size, p_u=p_u, comm_cost=comm_cost)


@lru_cache(maxsize=None)
def _exchange_times(
    grid_size: int, p_u: float, comm_cost: float, action_cost: float, time_cap: int
) -> Tuple[Tuple[int, int], ...]:
    """comm_policy_table's (separation, exchange time) items, built once."""
    if not (0.0 < p_u <= 1.0):
        raise ValueError(f"success probability must be in (0, 1], got {p_u}")
    if action_cost >= 0.0:
        raise ValueError("action cost must be negative: it sets the time unit")
    cost_per_step = 2.0 * -action_cost
    comm_in_steps = comm_cost / cost_per_step
    d_max = 2 * (grid_size - 1)
    times: Dict[int, int] = {}
    for d in range(1, d_max + 1):
        d1, d2 = split_distance(d)
        base = theta_nc_meeting(d1, d2, p_u, p_u)
        met_cost = 0.0
        for t, met, alive in distance_evolution(d1, d2, p_u, time_cap - 1):
            met_cost += met * (-t)
            alive_mass = sum(alive.values())
            cont = sum(
                mass * theta_nc_meeting(*split_distance(r1 + r2), p_u, p_u)
                for (r1, r2), mass in alive.items()
            )
            value = met_cost - t * alive_mass + cont + comm_in_steps * alive_mass
            if value > base + 1e-12:
                times[d] = t + 1
                break
    return tuple(times.items())


def comm_table_csv(
    grid_size: int = 10,
    comm_cost: float = -0.1,
    p_values=(0.2, 0.4, 0.6, 0.8),
    action_cost: float = -1.0,
) -> str:
    """Rows per success probability, columns per starting distance."""
    d_max = 2 * (grid_size - 1)
    header = "p_u," + ",".join(str(d) for d in range(1, d_max + 1))
    lines = [header]
    for p in p_values:
        pol = comm_policy_table(grid_size, p, comm_cost, action_cost)
        cells = [
            str(pol.times[d]) if d in pol.times else "never"
            for d in range(1, d_max + 1)
        ]
        lines.append(f"{p}," + ",".join(cells))
    return "\n".join(lines) + "\n"
