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

_forward_level advances a pair's running cells by one step.  pair_forward
loops it from the root, the tree-pair search extends a node by its new
deepest level with it, and LGO's per-cell window scores run it on goal
policies.  The paper's P_N and R_N are test oracles (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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


def live_levels(tree: PolicyTree, agent: AgentModel):
    """Per-depth sets of reachable states that have not communicated yet.

    live[d] holds the states at depth d whose branch took only domain actions
    at depths < d.  The list stops after the tree's deepest level.
    """
    live = [{tree.root_state}]
    for d in range(tree.size):
        nxt = set()
        for s in live[d]:
            a = tree.action_at(s, d)
            if a is None or a == COMMUNICATE:
                continue
            nxt.update(int(q) for q in agent.successors(s, a))
        live.append(nxt)
    return live


def live_frontier(tree: PolicyTree, agent: AgentModel) -> set:
    """States at the tree's deepest level still awaiting an assignment."""
    return live_levels(tree, agent)[-1]


class _Successors(dict):
    """(state, action) -> ((next state, probability), ...) over the p > 0
    entries of one agent's transition row, in index order, filled on first
    use.

    Made afresh by each public call that walks a model and never cached on
    the model, so an edited transition array is always read anew.
    """

    __slots__ = ("_transition",)

    def __init__(self, agent: AgentModel):
        self._transition = agent.transition

    def __missing__(self, key):
        row = self._transition[key]
        nonzero = np.nonzero(row > 0.0)[0]
        succ = tuple(zip(nonzero.tolist(), row[nonzero].tolist()))
        self[key] = succ
        return succ


def _forward_level(
    alive, opt1: PolicyTree, opt2: PolicyTree, m: DecMdpCom, j: int, succ1, succ2
):
    """Advance the alive cells of a pair's joint execution by step j.

    alive maps (s1, s2) -> [mass, accumulated reward mass] at elapsed step
    j - 1 and is left untouched.  Returns (term, stopped, nxt): the cells
    whose first exchange fires at step j, the cells that ran out of tree at
    j - 1, and the cells still running after step j.  succ1 and succ2 are
    the agents' _Successors.
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
        for ns1, p1 in ((s1, 1.0),) if act1 is None else succ1[s1, act1]:
            for ns2, p2 in ((s2, 1.0),) if act2 is None else succ2[s2, act2]:
                p = p1 * p2
                if p <= 0.0:
                    continue
                r = m.step_reward(s1, s2, act1, act2, ns1, ns2)
                mass = mu * p
                cell = out.setdefault((ns1, ns2), [0.0, 0.0])
                cell[0] += mass
                cell[1] += rho * p + mass * r
    return term, stopped, nxt


def pair_forward(
    opt1: PolicyTree,
    opt2: PolicyTree,
    m: DecMdpCom,
    s: FactoredState,
    t: int,
):
    """Forward accounting of a tree pair's joint execution from (s, t).

    Splits the probability mass into branches whose first exchange fires at
    each elapsed step j (``term``) and branches that run out of tree without
    communicating (``stopped``, the sensing frontier).  Each bucket maps
    (elapsed, global state) -> [mass, accumulated reward mass].

    The exchange fires at step j when either agent's depth j-1 node carries
    the communication act; the communicator's state freezes and only the
    other agent's action cost is charged that step.
    """
    depth_cap = min(max(opt1.size, opt2.size), m.horizon - t)
    succ1 = _Successors(m.agent1)
    succ2 = _Successors(m.agent2)
    term: Dict[int, Dict[Tuple[int, int], list]] = {}
    stopped: Dict[int, Dict[Tuple[int, int], list]] = {}
    alive: Dict[Tuple[int, int], list] = {(s.s1, s.s2): [1.0, 0.0]}
    for j in range(1, depth_cap + 1):
        cells, halted, alive = _forward_level(alive, opt1, opt2, m, j, succ1, succ2)
        if cells:
            term[j] = cells
        if halted:
            stopped[j - 1] = halted
        if not alive:
            break
    if alive:
        stopped[depth_cap] = {key: [mu, rho] for key, (mu, rho) in alive.items()}
    return term, stopped


def joint_f_value(
    opt1: PolicyTree,
    opt2: PolicyTree,
    m: DecMdpCom,
    s: FactoredState,
    t: int,
    V: np.ndarray,
) -> float:
    """Exact value of running the tree pair from (s, t) against the value
    table V (indexed V[time, s1, s2]).

    Exchange branches collect the accumulated reward, the exchange cost when
    before the horizon, and V at the exchange time.  Branches that run out of
    tree are synchronization points where the agents sense the global state
    at no cost, collecting V there.
    """
    term, stopped = pair_forward(opt1, opt2, m, s, t)
    total = 0.0
    for j, cells in term.items():
        charged = m.comm_cost if t + j < m.horizon else 0.0
        for (s1, s2), (mu, rho) in cells.items():
            total += rho + mu * (charged + V[t + j, s1, s2])
    for j, cells in stopped.items():
        for (s1, s2), (mu, rho) in cells.items():
            total += rho + mu * V[t + j, s1, s2]
    return total
