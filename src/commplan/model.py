"""Two-agent decentralized MDP with costly communication.

The global process factors into two independent local processes: each agent
fully observes its own local state, the joint transition probability is the
product of the local ones, and the only way to learn the other agent's state
is a joint message exchange charged ``comm_cost`` once per exchange.  So
every state-indexed joint term is an (n1, n2) array, and the joint states
reachable in j steps are the product of the two agents' local reachable sets.
validate() reports what the planners rely on: shapes, finite numbers,
stochastic rows, a non-positive exchange cost and a reachable goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np


class FactoredState(NamedTuple):
    """A global state as a pair of local state indices."""

    s1: int
    s2: int


@dataclass(eq=False)
class AgentModel:
    """One agent's local MDP component.

    transition[s, a, s'] is the probability of moving to local state s' when
    action a is taken in local state s.  goal_candidates lists the local
    states that may serve as assigned goals.  noop, when set, is the index of
    a designated stay-in-place action (zero cost once a goal is reached).
    action_cost defaults to zeros, one per action, and state_labels to
    "0", "1", ... so both are always set.
    """

    n_states: int
    actions: tuple
    transition: np.ndarray
    goal_candidates: tuple = ()
    action_cost: Optional[np.ndarray] = None
    noop: Optional[int] = None
    state_labels: Optional[tuple] = None
    name: str = "agent"

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=float)
        cost = np.zeros(len(self.actions)) if self.action_cost is None else self.action_cost
        self.action_cost = np.asarray(cost, dtype=float)
        if self.state_labels is None:
            self.state_labels = tuple(str(s) for s in range(self.n_states))

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def violations(self) -> list:
        """Invariant violations of this local model, empty when well formed."""
        out = []
        if self.transition.shape != (self.n_states, self.n_actions, self.n_states):
            out.append(
                f"{self.name}: transition shape {self.transition.shape} does not "
                f"match ({self.n_states}, {self.n_actions}, {self.n_states})"
            )
            return out
        bad = np.argwhere(~np.isfinite(self.transition))
        if len(bad):
            s, a, _ = bad[0]
            out.append(
                f"{self.name}: non-finite transition probability at state {s} "
                f"action {self.actions[a]}"
            )
        bad = np.flatnonzero(~np.isfinite(self.action_cost))
        if self.action_cost.shape != (self.n_actions,):
            out.append(
                f"{self.name}: action cost shape {self.action_cost.shape} "
                f"does not match {self.n_actions} actions"
            )
        elif len(bad):
            out.append(f"{self.name}: non-finite cost for action {self.actions[bad[0]]}")
        if self.noop is not None and not (0 <= self.noop < self.n_actions):
            out.append(f"{self.name}: noop {self.noop} out of range for {self.n_actions} actions")
        if len(self.state_labels) != self.n_states:
            out.append(f"{self.name}: state labels length {len(self.state_labels)} "
                       f"does not match {self.n_states} states")
        if np.any(self.transition < -1e-12) or np.any(self.transition > 1.0 + 1e-12):
            bad = np.argwhere((self.transition < -1e-12) | (self.transition > 1.0 + 1e-12))
            s, a, _ = bad[0]
            out.append(f"{self.name}: probability out of [0,1] at state {s} action {a}")
        sums = self.transition.sum(axis=2)
        bad = np.argwhere(np.abs(sums - 1.0) > 1e-9)
        for s, a in bad[:10]:
            out.append(
                f"{self.name}: transition row for state {s} action "
                f"{self.actions[a]} sums to {sums[s, a]:.12g}"
            )
        for g in self.goal_candidates:
            if not (0 <= int(g) < self.n_states):
                out.append(f"{self.name}: goal candidate {g} out of range")
        return out


@dataclass(eq=False)
class DecMdpCom:
    """The joint decision process: two independent agents plus an exchange cost.

    Per-step system reward decomposes as

        action_cost1[a1] + action_cost2[a2] + (potential[s'] - potential[s]) + extra(s, s')

    where a communicating agent executes no domain action that step (its term
    drops out and its local state freezes).  ``potential`` is a float array of
    shape (n1, n2), a state score whose per-step increments telescope to a
    terminal score, which is how end-of-horizon payoffs are expressed without
    a special boundary term.  ``goal`` is a bool array of the same shape that
    marks the global goal states.  Either may be None.  comm_cost is charged
    once per joint exchange, never per agent.
    """

    agent1: AgentModel
    agent2: AgentModel
    comm_cost: float
    horizon: int
    initial_state: FactoredState
    goal: Optional[np.ndarray] = None
    potential: Optional[np.ndarray] = None
    extra_reward: Optional[Callable[[int, int, int, int], float]] = None
    name: str = "decmdp"

    def __post_init__(self):
        if self.goal is not None:
            self.goal = np.asarray(self.goal, dtype=bool)
        if self.potential is not None:
            self.potential = np.asarray(self.potential, dtype=float)

    def step_reward(
        self,
        s1: int,
        s2: int,
        a1: Optional[int],
        a2: Optional[int],
        ns1: int,
        ns2: int,
    ) -> float:
        """System reward for one step; a None action means that agent communicated."""
        c1, c2 = self.agent1.action_cost, self.agent2.action_cost
        r = (0.0 if a1 is None else float(c1[a1])) + (0.0 if a2 is None else float(c2[a2]))
        if self.potential is not None:
            r += float(self.potential[ns1, ns2] - self.potential[s1, s2])
        if self.extra_reward is not None:
            r += self.extra_reward(s1, s2, ns1, ns2)
        return r


def expected_extra(m: DecMdpCom) -> np.ndarray:
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


def _goal_reachable_within(m: DecMdpCom) -> bool:
    """Whether some global goal is reachable within the horizon.

    The agents move independently, so the joint states reachable in exactly j
    steps are R1(j) x R2(j); each local set steps through the agent's
    one-step support under any action.
    """
    step1 = (m.agent1.transition > 0.0).any(axis=1)
    step2 = (m.agent2.transition > 0.0).any(axis=1)
    r1 = np.zeros(m.agent1.n_states, dtype=bool)
    r2 = np.zeros(m.agent2.n_states, dtype=bool)
    r1[m.initial_state.s1] = r2[m.initial_state.s2] = True
    for j in range(m.horizon + 1):
        if m.goal[np.ix_(r1, r2)].any():
            return True
        if j < m.horizon:
            r1, r2 = step1[r1].any(axis=0), step2[r2].any(axis=0)
    return False


def validate(m: DecMdpCom) -> list:
    """Invariant report for a joint model; violations first, then warnings."""
    out = []
    out.extend(m.agent1.violations())
    out.extend(m.agent2.violations())
    if m.horizon < 1:
        out.append(f"horizon must be >= 1, got {m.horizon}")
    if not np.isfinite(m.comm_cost):
        out.append(f"comm_cost must be finite, got {m.comm_cost}")
    elif m.comm_cost > 0:
        out.append(f"comm_cost must be <= 0, got {m.comm_cost}")
    shape = (m.agent1.n_states, m.agent2.n_states)
    for what, table in (("goal", m.goal), ("potential", m.potential)):
        if table is not None and table.shape != shape:
            out.append(f"{what} shape {table.shape} does not match {shape}")
    if m.potential is not None:
        bad = np.argwhere(~np.isfinite(m.potential))
        if len(bad):
            out.append(f"non-finite potential at state {tuple(bad[0].tolist())}")
    s0 = m.initial_state
    if not (0 <= s0.s1 < m.agent1.n_states and 0 <= s0.s2 < m.agent2.n_states):
        out.append(f"initial state {s0} out of range")
    else:
        try:
            r = m.step_reward(s0.s1, s0.s2, 0, 0, s0.s1, s0.s2)
            if not np.isfinite(r):
                out.append("joint reward is not finite at the initial state")
        except Exception as exc:  # noqa: BLE001 - report, do not raise
            out.append(f"joint reward undefined at the initial state: {exc}")
        # reachability is settled only on a model without violations
        if m.goal is not None and not out and not _goal_reachable_within(m):
            out.append(
                f"warning: no global goal state reachable within {m.horizon} steps"
            )
    return out


def require_valid(m: DecMdpCom) -> None:
    """Raise ValueError naming every violation validate() reports; warnings
    pass."""
    problems = [v for v in validate(m) if not v.startswith("warning:")]
    if problems:
        raise ValueError("; ".join(problems))
