"""Concrete problem instances and the experiment strategies that run on them.

Two scenarios are provided.  In the production scenario two machines make
parts of two types; a part sells only when matched with the other machine's
part of the same type, so the terminal payoff is min(B_a, C_a) + min(B_b,
C_b), expressed through the joint model's potential so that per-step reward
increments telescope to it.  Each machine's state encoding and capped MAKE
rule are written once, in _machine_model: its successor table `made` builds
the transition, and the per-state part counts it returns build the
potential, the initial state and the quota policies; the simulator steps
the same `made` tables.  In the meeting scenario two agents walk on a
grid toward a shared midpoint and the global goal is co-location; the joint
model charges one unit per system step while unmet, which makes its values
directly comparable to the analytic meeting-time recursions, while episode
utility (each agent paying the action cost every step) is handled by the
simulator.  Grid cell (x, y) is state x * height + y (grid_state).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .lgo import LocalGoalPolicy
from .model import AgentModel, DecMdpCom, FactoredState
from .myopic import CommPolicy


# ---------------------------------------------------------------------------
# strategy markers


@dataclass(frozen=True)
class NoCommunication:
    """Fixed plan from the initial state; never exchange."""


@dataclass(frozen=True)
class Ideal:
    """Exchange every step free of charge; the full-information bound."""


@dataclass(frozen=True)
class AlwaysCommunicate:
    """Same behavior as Ideal but every exchange is charged."""


@dataclass(frozen=True)
class SubGoals:
    """Exchange when an agent enters the region around the shared midpoint.

    The region radius is floor(p * d / 2) for the separation d revealed at
    the last exchange.
    """

    p: float

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"radius fraction must be in (0, 1], got {self.p}")


@dataclass(eq=False)
class MyopicGreedy:
    """Exchange at the tabulated time for the last synchronized separation."""

    policy: CommPolicy


SUBGOAL_SWEEP = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


# ---------------------------------------------------------------------------
# production scenario


@dataclass(frozen=True)
class ProductionOption:
    """Cyclic quota: make x_a parts of type a, then x_b of type b, repeat."""

    x_a: int
    x_b: int

    def __post_init__(self):
        if self.x_a < 0 or self.x_b < 0:
            raise ValueError(f"quota counts must be nonnegative: {self}")
        if self.x_a + self.x_b < 1:
            raise ValueError("quota must demand at least one part per cycle")


DEFAULT_PRODUCTION_OPTIONS = (
    ProductionOption(0, 1),
    ProductionOption(1, 4),
    ProductionOption(2, 3),
    ProductionOption(1, 1),
    ProductionOption(3, 2),
    ProductionOption(4, 1),
    ProductionOption(1, 0),
)

MAKE_A, MAKE_B = 0, 1


def _machine_model(
    name: str,
    p: float,
    init: Tuple[int, int],
    horizon: int,
    action_cost: float,
):
    """One machine: two counters, two actions, success probability p.

    State a * nb + b holds a parts of type a and b of type b.  Counter caps
    are initial count plus horizon (one part per step at most), so every
    reachable count has a state.  Returns the agent, the per-state counts
    (a, b), made[s, action] (the state a successful MAKE leads to; a count
    at its cap stays there) and the initial state.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"success probability must be in (0, 1], got {p}")
    cap_a, cap_b = init[0] + horizon, init[1] + horizon
    nb = cap_b + 1
    n = (cap_a + 1) * nb
    a_cnt, b_cnt = np.divmod(np.arange(n), nb)
    made = np.stack([np.minimum(a_cnt + 1, cap_a) * nb + b_cnt,
                     a_cnt * nb + np.minimum(b_cnt + 1, cap_b)], axis=1)
    trans = np.zeros((n, 2, n))
    s, a = np.arange(n)[:, None], np.arange(2)
    trans[s, a, made] += p
    trans[s, a, s] += 1.0 - p
    agent = AgentModel(
        n_states=n,
        actions=("make_a", "make_b"),
        transition=trans,
        goal_candidates=(),
        action_cost=np.array([action_cost, action_cost]),
        noop=None,
        state_labels=tuple(f"{x}-{y}" for x, y in zip(a_cnt.tolist(), b_cnt.tolist())),
        name=name,
    )
    return agent, (a_cnt, b_cnt), made, init[0] * nb + init[1]


def quota_policy(produced: np.ndarray, option: ProductionOption) -> LocalGoalPolicy:
    """One-row policy following a cyclic quota.

    produced[s] is the number of parts made since the initial state; the
    position inside the cycle is that number modulo the cycle length, so
    failures retry the same type because the count does not advance.
    """
    pos = produced % (option.x_a + option.x_b)
    return LocalGoalPolicy(
        label=f"quota_{option.x_a}_{option.x_b}",
        actions=np.where(pos < option.x_a, MAKE_A, MAKE_B)[None, :],
    )


@dataclass(eq=False)
class ProductionDomain:
    """The two-machine scenario: joint model, quota candidates and the
    machines' successor tables.

    made1[s, a] (made2 for machine 2) is the state a successful MAKE_A or
    MAKE_B (a = 0 or 1) leads to from state s; a failed attempt stays in s.
    The potential of a state pair is its count of sellable products.
    """

    model: DecMdpCom
    candidates1: List[LocalGoalPolicy]
    candidates2: List[LocalGoalPolicy]
    made1: np.ndarray
    made2: np.ndarray
    p_m1: float
    p_m2: float
    action_cost: float

    @property
    def horizon(self) -> int:
        return self.model.horizon

    @cached_property
    def joint_policy(self) -> "JointPolicy":
        return solve_joint_mmdp(self.model)


def build_production(
    p_m1: float,
    p_m2: float,
    T: int = 10,
    comm_cost: float = -0.1,
    action_cost: float = -1.0,
    initial: Tuple[int, int, int, int] = (0, 0, 0, 8),
) -> ProductionDomain:
    """The two-machine production scenario.

    initial holds the part counts machine 1 (b_a, b_b) and machine 2 (c_a,
    c_b) start with.  Each step each machine attempts one part of the type
    its quota picks, succeeding with its own probability; both machines pay
    the action cost every step.  The terminal payoff (matched pairs across
    machines) enters the joint model as a potential array, potential[s1, s2]
    = min(b_a, c_a) + min(b_b, c_b), so no boundary term is needed.
    """
    b_a0, b_b0, c_a0, c_b0 = initial
    if min(initial) < 0:
        raise ValueError(f"part counts must be nonnegative: {tuple(initial)}")
    machine1, (b_a, b_b), made1, start1 = _machine_model(
        "machine1", p_m1, (b_a0, b_b0), T, action_cost
    )
    machine2, (c_a, c_b), made2, start2 = _machine_model(
        "machine2", p_m2, (c_a0, c_b0), T, action_cost
    )
    model = DecMdpCom(
        agent1=machine1,
        agent2=machine2,
        comm_cost=comm_cost,
        horizon=T,
        initial_state=FactoredState(start1, start2),
        potential=np.minimum.outer(b_a, c_a) + np.minimum.outer(b_b, c_b),
        name="production",
    )
    produced1 = b_a + b_b - (b_a0 + b_b0)
    produced2 = c_a + c_b - (c_a0 + c_b0)
    return ProductionDomain(
        model=model,
        candidates1=[quota_policy(produced1, o) for o in DEFAULT_PRODUCTION_OPTIONS],
        candidates2=[quota_policy(produced2, o) for o in DEFAULT_PRODUCTION_OPTIONS],
        made1=made1,
        made2=made2,
        p_m1=p_m1,
        p_m2=p_m2,
        action_cost=action_cost,
    )


@dataclass(eq=False)
class JointPolicy:
    """Optimal fully-synchronized joint policy: actions[t, s1, s2] encodes
    the action pair a1 * n_actions2 + a2; value[s1, s2] is the optimum from
    time zero."""

    actions: np.ndarray
    value: np.ndarray
    n_actions2: int


def _expected_extra(m: DecMdpCom) -> np.ndarray:
    """E[a1, a2, s1, s2]: the expected extra reward of the action pair (a1, a2)
    in (s1, s2), sum over s1', s2' of P1 * P2 * extra(s1, s2, s1', s2').

    The callable is evaluated once per state pair and pair of successors that
    some action can reach, read off the transition rows."""
    P1, P2 = m.agent1.transition, m.agent2.transition
    succ1 = [np.flatnonzero((P1[i] > 0.0).any(axis=0)) for i in range(len(P1))]
    succ2 = [np.flatnonzero((P2[j] > 0.0).any(axis=0)) for j in range(len(P2))]
    E = np.empty((P1.shape[1], P2.shape[1], len(P1), len(P2)))
    for i, q1 in enumerate(succ1):
        for j, q2 in enumerate(succ2):
            X = np.array([[m.extra_reward(i, j, x, y) for y in q2] for x in q1], float)
            E[:, :, i, j] = P1[i][:, q1] @ X @ P2[j][:, q2].T
    return E


def solve_joint_mmdp(m: DecMdpCom) -> JointPolicy:
    """Backward induction on the flat joint process (free full information).

    The terminal value is the potential (the telescoped state payoff); each
    step adds both action costs and the pair's expected extra reward, inside
    the max.  Used for the full-communication baselines.
    """
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    A1, A2 = m.agent1.n_actions, m.agent2.n_actions
    V = m.potential.copy() if m.potential is not None else np.zeros((n1, n2))
    acts = np.zeros((m.horizon, n1, n2), dtype=np.int16)
    c1 = m.agent1.action_cost if m.agent1.action_cost is not None else np.zeros(A1)
    c2 = m.agent2.action_cost if m.agent2.action_cost is not None else np.zeros(A2)
    extra = _expected_extra(m) if m.extra_reward is not None else None
    for t in range(m.horizon - 1, -1, -1):
        best = np.full((n1, n2), -np.inf)
        for a1 in range(A1):
            M1 = m.agent1.transition[:, a1, :]
            for a2 in range(A2):
                M2 = m.agent2.transition[:, a2, :]
                Q = c1[a1] + c2[a2] + M1 @ V @ M2.T
                if extra is not None:
                    Q = Q + extra[a1, a2]
                code = a1 * A2 + a2
                better = Q > best
                acts[t][better] = code
                best = np.maximum(best, Q)
        V = best
    return JointPolicy(actions=acts, value=V, n_actions2=A2)


# ---------------------------------------------------------------------------
# meeting scenario


@dataclass(frozen=True)
class GridConfig:
    """Meeting-under-uncertainty grid setup."""

    width: int = 10
    height: int = 10
    p1: float = 0.8
    p2: float = 0.8
    start1: Tuple[int, int] = (0, 0)
    start2: Tuple[int, int] = (9, 9)
    action_cost: float = -1.0
    comm_cost: float = -0.1
    horizon_cap: int = 200

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must have positive dimensions")
        for p in (self.p1, self.p2):
            if not (0.0 < p <= 1.0):
                raise ValueError(f"success probability must be in (0, 1], got {p}")
        for start in (self.start1, self.start2):
            x, y = start
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"start {start} outside the grid")
        if self.horizon_cap < 1:
            raise ValueError("horizon cap must be positive")


# action order: north, south, east, west, stay
GRID_DELTAS = ((0, 1), (0, -1), (1, 0), (-1, 0), (0, 0))
GRID_ACTIONS = ("north", "south", "east", "west", "stay")
STAY = 4


def manhattan(a: Tuple[int, int], b: Tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def grid_target(pos, a: int, cfg: GridConfig):
    """Cell that action a reaches from pos when it succeeds; moves off the
    edge are clamped.  The one grid move of the walker models; pos may hold
    arrays of coordinates."""
    dx, dy = GRID_DELTAS[a]
    return (np.clip(pos[0] + dx, 0, cfg.width - 1), np.clip(pos[1] + dy, 0, cfg.height - 1))


def grid_state(pos, cfg: GridConfig):
    """State index x * height + y of the cell pos = (x, y), or of arrays of
    cells; divmod(s, height) inverts it."""
    return pos[0] * cfg.height + pos[1]


def _grid_agent(name: str, cfg: GridConfig, p: float) -> AgentModel:
    n = cfg.width * cfg.height
    s = np.arange(n)
    cell = divmod(s, cfg.height)
    trans = np.zeros((n, 5, n))
    for a in range(len(GRID_ACTIONS)):
        trans[s, a, grid_state(grid_target(cell, a, cfg), cfg)] += p
        trans[s, a, s] += 1.0 - p
    return AgentModel(
        n_states=n,
        actions=GRID_ACTIONS,
        transition=trans,
        goal_candidates=(),
        action_cost=np.zeros(5),
        noop=STAY,
        state_labels=tuple(f"{x}-{y}" for x, y in zip(*(c.tolist() for c in cell))),
        name=name,
    )


@dataclass(eq=False)
class MeetingDomain:
    """The grid rendezvous scenario: joint model plus its grid.

    The joint model is expressed in system-step units (one unit per step
    while the agents are apart, zero action costs) so its values line up
    with the analytic meeting-time recursions; episode utility in the
    simulator separately charges each agent the action cost per step.
    """

    model: DecMdpCom
    config: GridConfig


def build_meeting(cfg: GridConfig) -> MeetingDomain:
    """Two walkers on a bounded grid; co-location is the global goal.

    A move succeeds with the agent's probability and otherwise leaves it in
    place; moves off the edge are clamped (attempting them wastes the step).
    """
    agent1 = _grid_agent("walker1", cfg, cfg.p1)
    agent2 = _grid_agent("walker2", cfg, cfg.p2)

    def extra(s1: int, s2: int, ns1: int, ns2: int) -> float:
        del ns1, ns2
        return 0.0 if s1 == s2 else -1.0

    model = DecMdpCom(
        agent1=agent1,
        agent2=agent2,
        comm_cost=cfg.comm_cost,
        horizon=cfg.horizon_cap,
        initial_state=FactoredState(grid_state(cfg.start1, cfg), grid_state(cfg.start2, cfg)),
        goal=np.eye(agent1.n_states, dtype=bool),
        extra_reward=extra,
        name="meeting",
    )
    return MeetingDomain(model=model, config=cfg)
