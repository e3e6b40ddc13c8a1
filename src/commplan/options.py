"""Policy trees, options, and the one forward kernel over a pair's execution.

A policy tree maps (local state, depth) to either a domain action or the
communication act; branches are indexed by the states an agent may observe,
so the map form and the explicit tree form are interchangeable.  An option is
a policy tree whose every maximal branch ends with communication or exactly
at the horizon.

The forward kernel aggregates the joint process between exchanges: per
elapsed step, the mass and accumulated reward of the branches whose first
exchange fires then, and of the branches that run out of tree.  A
communicating agent's state freezes for that step and it executes no domain
action; the other agent's concurrent domain action does execute; the
exchange itself is charged once at the pair level, and not at all when it
falls exactly at the horizon.

_forward_level advances a pair's running cells by one step; it serves the
tree-pair search only (LGO scores its windows by matrix products).  A pair's
value is one fold over it: advance adds a level's exchange terms to a
ForwardState and state_value closes it.  joint_f_value folds from the root
and the tree-pair search one level per node, so both add the same terms in
the same order.  _live_next steps a tree's live frontier one level.  The
paper's P_N and R_N are test oracles (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .model import AgentModel, DecMdpCom, FactoredState

COMMUNICATE = -1


@dataclass(eq=False)
class PolicyTree:
    """A finite-depth local policy as a map (local state, depth) -> action.

    Depth 0 is the root level; COMMUNICATE marks a terminal exchange leaf.
    Trees are treated as immutable once built.
    """

    root_state: int
    assignment: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        if not self.assignment:
            return 0
        return 1 + max(d for (_, d) in self.assignment)

    def action_at(self, s: int, depth: int) -> Optional[int]:
        return self.assignment.get((s, depth))

    def with_assignments(self, updates: Dict[Tuple[int, int], int]) -> "PolicyTree":
        merged = dict(self.assignment)
        merged.update(updates)
        return PolicyTree(self.root_state, merged)

    def __eq__(self, other):
        return (
            isinstance(other, PolicyTree)
            and self.root_state == other.root_state
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash((self.root_state, tuple(sorted(self.assignment.items()))))


def _successors(agent: AgentModel) -> list:
    """succ[s][a]: ((next state, probability), ...) over the p > 0 entries of
    the agent's transition row, in index order.  Built by each public call
    that walks a model, so an edited transition array is read anew."""
    return [
        [tuple((q, p) for q, p in enumerate(row) if p > 0.0) for row in rows]
        for rows in agent.transition.tolist()
    ]


def _live_next(live, tree: PolicyTree, d: int, succ) -> set:
    """The tree's states at depth d + 1 that have not communicated yet,
    reached from ``live``, its such states at depth d.  succ is the
    agent's _successors."""
    nxt = set()
    for s in live:
        a = tree.action_at(s, d)
        if a is not None and a != COMMUNICATE:
            nxt.update(q for q, _ in succ[s][a])
    return nxt


def _forward_level(
    alive, opt1: PolicyTree, opt2: PolicyTree, m: DecMdpCom, j: int, succ1, succ2
):
    """Advance the alive cells of a pair's joint execution by step j.

    alive maps (s1, s2) -> [mass, accumulated reward mass] at elapsed step
    j - 1 and is left untouched.  Returns (term, stopped, nxt): the cells
    whose first exchange fires at step j, the cells that ran out of tree at
    j - 1, and the cells still running after step j.  succ1 and succ2 are
    the agents' _successors.
    """
    term: Dict[Tuple[int, int], list] = {}
    stopped: Dict[Tuple[int, int], list] = {}
    nxt: Dict[Tuple[int, int], list] = {}
    for (s1, s2), (mu, rho) in alive.items():
        a1 = opt1.action_at(s1, j - 1)
        a2 = opt2.action_at(s2, j - 1)
        if a1 is None and a2 is None:
            stopped[(s1, s2)] = [mu, rho]
            continue
        comm1 = a1 == COMMUNICATE
        comm2 = a2 == COMMUNICATE
        act1 = a1 if (a1 is not None and not comm1) else None
        act2 = a2 if (a2 is not None and not comm2) else None
        out = term if (comm1 or comm2) else nxt
        for ns1, p1 in ((s1, 1.0),) if act1 is None else succ1[s1][act1]:
            for ns2, p2 in ((s2, 1.0),) if act2 is None else succ2[s2][act2]:
                p = p1 * p2
                if p <= 0.0:
                    continue
                r = m.step_reward(s1, s2, act1, act2, ns1, ns2)
                mass = mu * p
                cell = out.setdefault((ns1, ns2), [0.0, 0.0])
                cell[0] += mass
                cell[1] += rho * p + mass * r
    return term, stopped, nxt


class ForwardState(NamedTuple):
    """A tree pair's joint execution from its root up to some depth:
    ``exchanged`` sums the exchange-branch terms by elapsed step, then in
    cell order; ``stopped`` holds (elapsed, cells) that ran out of tree and
    ``alive`` the cells still running."""

    alive: Dict[Tuple[int, int], list]
    exchanged: float
    stopped: Tuple[Tuple[int, Dict[Tuple[int, int], list]], ...]


def advance(
    state: ForwardState, opt1, opt2, m: DecMdpCom, t: int, j: int, V, succ1, succ2
) -> ForwardState:
    """Run step j of a pair started at time t and fold its exchange cells
    into the running sum: the accumulated reward, the exchange cost when
    before the horizon, and V at the exchange time."""
    term, halted, alive = _forward_level(state.alive, opt1, opt2, m, j, succ1, succ2)
    exchanged = state.exchanged
    charged = m.comm_cost if t + j < m.horizon else 0.0
    for (s1, s2), (mu, rho) in term.items():
        exchanged += rho + mu * (charged + V[t + j, s1, s2])
    stopped = state.stopped + ((j - 1, halted),) if halted else state.stopped
    return ForwardState(alive, exchanged, stopped)


def state_value(state: ForwardState, t: int, depth: int, V: np.ndarray) -> float:
    """Value of a pair run to ``depth`` levels from time t: the exchange
    terms, then the cells that ran out of tree, then the cells still
    running.  The last two are synchronization points where the agents
    sense the global state at no cost, collecting V there."""
    f = state.exchanged
    for j, cells in state.stopped:
        for (s1, s2), (mu, rho) in cells.items():
            f += rho + mu * V[t + j, s1, s2]
    for (s1, s2), (mu, rho) in state.alive.items():
        f += rho + mu * V[t + depth, s1, s2]
    return f


def joint_f_value(
    opt1: PolicyTree, opt2: PolicyTree, m: DecMdpCom, s: FactoredState, t: int, V
) -> float:
    """Exact value of running the tree pair from (s, t) against the value
    table V (indexed V[time, s1, s2]), first exchange wins."""
    depth = min(max(opt1.size, opt2.size), m.horizon - t)
    succ1, succ2 = _successors(m.agent1), _successors(m.agent2)
    state = ForwardState({(s.s1, s.s2): [1.0, 0.0]}, 0.0, ())
    for j in range(1, depth + 1):
        state = advance(state, opt1, opt2, m, t, j, V, succ1, succ2)
        if not state.alive:
            break
    return state_value(state, t, depth, V)
