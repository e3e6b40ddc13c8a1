"""Multi-step backup policy iteration over pairs of policy trees.

Depth-first branch-and-bound search per global state and time: expand the
live frontiers of promising pairs one level at a time, the root's level
like any other, and keep the best pair whose every branch ends with an
exchange or runs to the horizon.  Iterating evaluation and improvement
sweeps converges to the best mechanism over unrestricted tree pairs.

A child pair differs from its parent only at the new deepest level, so each
search node carries its pair's forward state before and after that level.
A child is scored by one advance from its parent's state and one
state_value, the fold joint_f_value runs from the root, so its value is
bitwise the pair's value.  A node also carries each tree's live states at
its deepest level; a popped node's frontiers past that level are one
_live_next step, so the search never walks a tree from its root.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .model import DecMdpCom, FactoredState, require_valid
from .options import (
    COMMUNICATE,
    ForwardState,
    PolicyTree,
    _live_next,
    _successors,
    advance,
    joint_f_value,
    state_value,
)

DEFAULT_NODE_BUDGET = 10**6


class NodeBudgetExceeded(RuntimeError):
    """Raised when a single improvement search creates too many nodes."""

    def __init__(self, budget: int, created: int):
        self.budget = budget
        self.created = created
        super().__init__(
            f"search node budget {budget} exceeded after creating {created} nodes"
        )


@dataclass
class SearchNode:
    """A candidate pair of equal-size policy trees with its estimated value.

    ``before`` is the pair's forward state ahead of its deepest level and
    ``after`` the state past it: children extend ``after`` by one level, and
    capping the deepest level re-runs it from ``before``.  ``live1`` and
    ``live2`` are the trees' states at the deepest level that have not
    communicated yet.
    """

    tree1: PolicyTree
    tree2: PolicyTree
    f: float
    depth: int
    before: ForwardState
    after: ForwardState
    live1: set
    live2: set


@dataclass
class GeneralMechanism:
    """Assignment of a tree pair to every (s1, s2, t) plus its value table.

    ``sweep_nodes`` counts the nodes each improvement sweep created, the
    last sweep (which finds nothing) included, so it sums to
    ``nodes_created``; ``history`` has a row only for sweeps that changed
    cells.  ``max_cell_nodes`` is the largest node count of one
    improve_state call, to read against the node budget.
    """

    pairs: Dict[Tuple[int, int, int], Tuple[PolicyTree, PolicyTree]]
    value: np.ndarray  # indexed [t, s1, s2]
    iterations: int = 0
    nodes_created: int = 0
    history: List[dict] = field(default_factory=list)
    sweep_nodes: List[int] = field(default_factory=list)
    max_cell_nodes: int = 0


def immediate_comm_pairs(m: DecMdpCom) -> Dict[Tuple[int, int, int], Tuple[PolicyTree, PolicyTree]]:
    """Both agents communicate at once in every state at every time."""
    trees1 = [PolicyTree(s, {(s, 0): COMMUNICATE}) for s in range(m.agent1.n_states)]
    trees2 = [PolicyTree(s, {(s, 0): COMMUNICATE}) for s in range(m.agent2.n_states)]
    return {
        (s1, s2, t): (trees1[s1], trees2[s2])
        for t in range(m.horizon)
        for s1 in range(m.agent1.n_states)
        for s2 in range(m.agent2.n_states)
    }


def evaluate_policy(delta, m: DecMdpCom) -> np.ndarray:
    """Backward-induction value table of a mechanism or pair table, V[T] = 0."""
    pairs = delta.pairs if isinstance(delta, GeneralMechanism) else delta
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    V = np.zeros((T + 1, n1, n2))
    for t in range(T - 1, -1, -1):
        for s1 in range(n1):
            for s2 in range(n2):
                opt1, opt2 = pairs[(s1, s2, t)]
                V[t, s1, s2] = joint_f_value(
                    opt1, opt2, m, FactoredState(s1, s2), t, V
                )
    return V


def _evaluate_immediate_comm(m: DecMdpCom) -> np.ndarray:
    """Closed-form value of the always-communicate mechanism.

    Each step freezes both agents: the state-based reward of staying put,
    plus one exchange charge except for the exchange landing at the horizon.
    Summed in joint_f_value's order, r + (charge + V[t + 1]), so the table is
    evaluate_policy's bit for bit.
    """
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    frozen = np.zeros((n1, n2))
    for s1 in range(n1):
        for s2 in range(n2):
            frozen[s1, s2] = m.step_reward(s1, s2, None, None, s1, s2)
    V = np.zeros((T + 1, n1, n2))
    for t in range(T - 1, -1, -1):
        charge = m.comm_cost if t + 1 < T else 0.0
        V[t] = frozen + (charge + V[t + 1])
    return V


def _cap_with_comm(tree: PolicyTree, live) -> PolicyTree:
    """Overwrite the deepest level's live states with communication acts.

    Used when the partner tree's branches all communicate by this depth: the
    joint exchange interrupts anything planned deeper, so closing this tree
    at the same level yields a valid option pair.
    """
    d = tree.size - 1
    return tree.with_assignments({(q, d): COMMUNICATE for q in sorted(live)})


def _frontier_assignments(frontier, n_actions):
    """All maps from frontier states to domain actions or communication."""
    states = sorted(frontier)
    choices = list(range(n_actions)) + [COMMUNICATE]
    for combo in itertools.product(choices, repeat=len(states)):
        yield dict(zip(states, combo))


def improve_state(
    s: FactoredState,
    t: int,
    V: np.ndarray,
    m: DecMdpCom,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_option_length: Optional[int] = None,
    node_counter: Optional[list] = None,
):
    """Search for a tree pair at (s, t) worth more than V[t, s].

    Returns ((tree1, tree2), value) for the best strictly improving pair of
    valid options found, or None when no improvement exists.  Nodes whose
    estimated value does not beat the incumbent are pruned.  Raises
    NodeBudgetExceeded when the search creates more than node_budget nodes.
    """
    remaining = m.horizon - t
    if remaining <= 0:
        return None
    counter = node_counter if node_counter is not None else [0]
    best = float(V[t, s.s1, s.s2])
    best_pair = None
    succ1, succ2 = _successors(m.agent1), _successors(m.agent2)

    def create(tree1, tree2, depth: int, before: ForwardState, live1, live2) -> SearchNode:
        counter[0] += 1
        if counter[0] > node_budget:
            raise NodeBudgetExceeded(node_budget, counter[0])
        after = advance(before, tree1, tree2, m, t, depth, V, succ1, succ2)
        f = state_value(after, t, depth, V)
        return SearchNode(tree1, tree2, f, depth, before, after, live1, live2)

    stack: List[SearchNode] = []

    def expand(tree1, tree2, size: int, after: ForwardState, fr1, fr2) -> None:
        """Push every child filling level ``size`` of the frontiers that
        beats the incumbent, in assignment order."""
        for asg1 in _frontier_assignments(fr1, m.agent1.n_actions):
            t1 = tree1.with_assignments({(q, size): a for q, a in asg1.items()})
            for asg2 in _frontier_assignments(fr2, m.agent2.n_actions):
                t2 = tree2.with_assignments({(q, size): a for q, a in asg2.items()})
                child = create(t1, t2, size + 1, after, fr1, fr2)
                if child.f > best:
                    stack.append(child)

    root = ForwardState({(s.s1, s.s2): [1.0, 0.0]}, 0.0, ())
    expand(PolicyTree(s.s1), PolicyTree(s.s2), 0, root, {s.s1}, {s.s2})
    while stack:
        node = stack.pop()
        if node.f <= best:
            continue
        size = node.depth
        fr1 = _live_next(node.live1, node.tree1, size - 1, succ1)
        fr2 = _live_next(node.live2, node.tree2, size - 1, succ2)
        if (not fr1 and not fr2) or size == remaining:
            best = node.f
            best_pair = (node.tree1, node.tree2)
            continue
        if bool(fr1) != bool(fr2):
            # one tree communicates on every branch: the exchange interrupts
            # the other tree at this depth, so close it here and go no deeper
            if fr1:
                capped = (_cap_with_comm(node.tree1, node.live1), node.tree2)
            else:
                capped = (node.tree1, _cap_with_comm(node.tree2, node.live2))
            cnode = create(*capped, size, node.before, node.live1, node.live2)
            if cnode.f > best:
                best = cnode.f
                best_pair = capped
            continue
        if max_option_length is not None and size >= max_option_length:
            continue
        expand(node.tree1, node.tree2, size, node.after, fr1, fr2)

    if best_pair is None:
        return None
    return best_pair, best


def msbpi(
    m: DecMdpCom,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_option_length: Optional[int] = None,
) -> GeneralMechanism:
    """Policy iteration: evaluate, sweep all (s, t) for improvements against
    the frozen value table, apply the updates, and repeat until no cell
    changes.  The initial mechanism communicates immediately everywhere; it
    is valued in closed form, and its pair table is built only once a sweep
    has updates to apply or the search returns."""
    if max_option_length is not None and max_option_length < 1:
        raise ValueError(f"max_option_length must be >= 1, got {max_option_length}")
    require_valid(m)
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    pairs = None  # built on first use: the sweeps read only V
    V = _evaluate_immediate_comm(m)
    iterations = 0
    history: List[dict] = []
    sweep_nodes: List[int] = []
    max_cell_nodes = 0
    while True:
        updates = {}
        counter = [0]
        for t in range(T):
            for s1 in range(n1):
                for s2 in range(n2):
                    cell_counter = [0]
                    res = improve_state(
                        FactoredState(s1, s2),
                        t,
                        V,
                        m,
                        node_budget=node_budget,
                        max_option_length=max_option_length,
                        node_counter=cell_counter,
                    )
                    counter[0] += cell_counter[0]
                    max_cell_nodes = max(max_cell_nodes, cell_counter[0])
                    if res is not None:
                        updates[(s1, s2, t)] = res[0]
        sweep_nodes.append(counter[0])
        if not updates:
            break
        if pairs is None:
            pairs = immediate_comm_pairs(m)
        pairs.update(updates)
        V = evaluate_policy(pairs, m)
        iterations += 1
        history.append(
            {
                "iteration": iterations,
                "cells_updated": len(updates),
                "nodes_created": counter[0],
                "v_sum": float(V[0].sum()),
                "v_min": float(V[0].min()),
                "v_max": float(V[0].max()),
            }
        )
    return GeneralMechanism(
        pairs=pairs if pairs is not None else immediate_comm_pairs(m),
        value=V,
        iterations=iterations,
        nodes_created=sum(sweep_nodes),
        history=history,
        sweep_nodes=sweep_nodes,
        max_cell_nodes=max_cell_nodes,
    )


def iteration_csv(mech: GeneralMechanism) -> str:
    """Per-iteration convergence diagnostics as CSV text."""
    lines = ["iteration,cells_updated,nodes_created,v_sum,v_min,v_max"]
    for row in mech.history:
        lines.append(
            f"{row['iteration']},{row['cells_updated']},{row['nodes_created']},"
            f"{row['v_sum']!r},{row['v_min']!r},{row['v_max']!r}"
        )
    return "\n".join(lines) + "\n"
