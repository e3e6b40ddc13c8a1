"""Policy trees, options, and the multi-step transition/reward kernels.

A policy tree maps (local state, depth) to either a domain action or the
communication act; branches are indexed by the states an agent may observe,
so the map form and the explicit tree form are interchangeable.  An option is
a policy tree whose every maximal branch ends with communication or exactly
at the horizon.

The kernels aggregate the joint process between exchanges: the probability
that the first exchange happens after exactly N steps in each global state,
and the expected reward accumulated on the way.  A communicating agent's
state freezes for that step and it executes no domain action; the other
agent's concurrent domain action does execute; the exchange itself is charged
once at the pair level, and not at all when it falls exactly at the horizon.

One level function advances a pair's running cells by one step.
pair_forward loops it from the root; the tree-pair search calls it directly
to extend a node by its new deepest level.
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


def tree_size(tree: PolicyTree) -> int:
    """Number of action levels; a lone root action is size 1."""
    return tree.size


def live_levels(tree: PolicyTree, agent: AgentModel, max_depth: Optional[int] = None):
    """Per-depth sets of reachable states that have not communicated yet.

    live[d] holds the states at depth d whose branch took only domain actions
    at depths < d.  The list stops after the tree's deepest level (or
    max_depth when given).
    """
    limit = tree.size if max_depth is None else min(tree.size, max_depth)
    live = [{tree.root_state}]
    for d in range(limit):
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
    levels = live_levels(tree, agent)
    return levels[-1] if levels else set()


def validate_tree(tree: PolicyTree, agent: AgentModel, max_size: Optional[int] = None) -> list:
    """Well-formedness violations: missing root, holes, or size overflow.

    Walks reachability itself so an out-of-range action is reported rather
    than expanded.
    """
    out = []
    if tree.action_at(tree.root_state, 0) is None:
        out.append(f"root state {tree.root_state} has no action at depth 0")
        return out
    size = tree.size
    if max_size is not None and size > max_size:
        out.append(f"tree size {size} exceeds bound {max_size}")
    live = {tree.root_state}
    for d in range(size):
        nxt = set()
        for s in sorted(live):
            a = tree.action_at(s, d)
            if a is None:
                if d < size - 1:
                    out.append(f"reachable node (state {s}, depth {d}) has no action")
                continue
            if a == COMMUNICATE:
                continue
            if not (0 <= a < agent.n_actions):
                out.append(f"node (state {s}, depth {d}) has invalid action {a}")
                continue
            nxt.update(int(q) for q in agent.successors(s, a))
        live = nxt
    return out


def is_option(tree: PolicyTree, agent: AgentModel, remaining_horizon: int) -> bool:
    """True when every branch ends with communication or exactly at the horizon."""
    if validate_tree(tree, agent):
        return False
    size = tree.size
    if size > remaining_horizon:
        return False
    frontier = live_frontier(tree, agent)
    if frontier and size < remaining_horizon:
        return False
    # branches must not dangle mid-tree
    levels = live_levels(tree, agent)
    for d in range(size):
        for s in levels[d]:
            if tree.action_at(s, d) is None:
                return False
    return True


def expected_cost_g(tree: PolicyTree, agent: AgentModel, action_cost) -> float:
    """Expected accumulated domain-action cost of following the tree alone.

    Communication leaves contribute nothing here; the exchange is charged
    once per pair by the joint kernels.
    """
    costs = action_cost
    if not callable(costs):
        lookup = costs.__getitem__
    else:
        lookup = costs
    memo: Dict[Tuple[int, int], float] = {}

    def g(s: int, d: int) -> float:
        key = (s, d)
        if key in memo:
            return memo[key]
        a = tree.action_at(s, d)
        if a is None or a == COMMUNICATE:
            memo[key] = 0.0
            return 0.0
        row = agent.transition[s, a]
        total = float(lookup(a))
        for q in np.nonzero(row > 0.0)[0]:
            total += row[q] * g(int(q), d + 1)
        memo[key] = total
        return total

    return g(tree.root_state, 0)


def p_terminate(
    opt: PolicyTree, agent: AgentModel, s_i: int, t: int, N: int
) -> np.ndarray:
    """Probability vector of the option communicating exactly N steps ahead.

    Entry s' is the probability of the first (and only) communication act
    firing at step N with the agent in local state s'.
    """
    if N <= 0:
        raise ValueError(f"N must be positive, got {N}")
    n = agent.n_states
    term = np.zeros(n)
    alive = {s_i: 1.0}
    for j in range(1, N + 1):
        nxt: Dict[int, float] = {}
        for s, mass in alive.items():
            a = opt.action_at(s, j - 1)
            if a is None:
                continue  # frontier branch, never communicates
            if a == COMMUNICATE:
                if j == N:
                    term[s] += mass
                continue  # communicated before N: excluded
            row = agent.transition[s, a]
            for q in np.nonzero(row > 0.0)[0]:
                nxt[int(q)] = nxt.get(int(q), 0.0) + mass * row[q]
        alive = nxt
    return term


def p_reach(opt: PolicyTree, agent: AgentModel, s_i: int, t: int, N: int) -> np.ndarray:
    """Probability vector of occupying each local state N steps ahead without
    having communicated strictly earlier; communicating exactly at step N
    freezes the agent in place and still counts as reached."""
    if N <= 0:
        raise ValueError(f"N must be positive, got {N}")
    n = agent.n_states
    alive = {s_i: 1.0}
    for j in range(1, N):
        nxt: Dict[int, float] = {}
        for s, mass in alive.items():
            a = opt.action_at(s, j - 1)
            if a is None or a == COMMUNICATE:
                continue  # branch over or terminated before step N
            row = agent.transition[s, a]
            for q in np.nonzero(row > 0.0)[0]:
                nxt[int(q)] = nxt.get(int(q), 0.0) + mass * row[q]
        alive = nxt
    out = np.zeros(n)
    for s, mass in alive.items():
        a = opt.action_at(s, N - 1)
        if a is None or a == COMMUNICATE:
            out[s] += mass  # frozen in place for the final step
            continue
        row = agent.transition[s, a]
        out += mass * row
    return out


def joint_pn(
    opt1: PolicyTree,
    opt2: PolicyTree,
    m: DecMdpCom,
    s: FactoredState,
    t: int,
    N: int,
) -> np.ndarray:
    """Probability, per global state, that the pair's first exchange happens
    after exactly N steps: at least one agent communicates at step N and
    neither communicated earlier."""
    p1t = p_terminate(opt1, m.agent1, s.s1, t, N)
    p2t = p_terminate(opt2, m.agent2, s.s2, t, N)
    p1r = p_reach(opt1, m.agent1, s.s1, t, N)
    p2r = p_reach(opt2, m.agent2, s.s2, t, N)
    return np.outer(p1t, p2r) + np.outer(p1r, p2t) - np.outer(p1t, p2t)


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


def joint_rn(
    opt1: PolicyTree,
    opt2: PolicyTree,
    m: DecMdpCom,
    s: FactoredState,
    t: int,
    s_next: FactoredState,
    N: int,
) -> float:
    """Expected reward of the window given the first exchange lands in s_next
    after exactly N steps: the conditional accumulated reward plus the
    exchange cost, which is waived when the window ends at the horizon."""
    if N <= 0:
        raise ValueError(f"N must be positive, got {N}")
    term, _ = pair_forward(opt1, opt2, m, s, t)
    cell = term.get(N, {}).get((s_next.s1, s_next.s2))
    if cell is None or cell[0] <= 0.0:
        return 0.0
    mass, reward = cell
    cbar = reward / mass
    if t + N == m.horizon:
        return cbar
    return cbar + m.comm_cost


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


def tree_to_text(tree: PolicyTree, agent: AgentModel) -> str:
    """Indented debug rendering: one node per line as 'state action'."""
    lines = []

    def label(a: Optional[int]) -> str:
        if a is None:
            return "."
        if a == COMMUNICATE:
            return "comm"
        return str(agent.actions[a])

    def rec(s: int, d: int, indent: int):
        a = tree.action_at(s, d)
        lines.append("  " * indent + f"{agent.state_label(s)} {label(a)}")
        if a is None or a == COMMUNICATE:
            return
        for q in agent.successors(s, a):
            rec(int(q), d + 1, indent + 1)

    rec(tree.root_state, 0, 0)
    return "\n".join(lines) + "\n"
