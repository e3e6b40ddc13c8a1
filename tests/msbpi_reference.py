"""Tree-pair search that scores every node from the root, kept as a
bit-identity oracle.

This is improve_state and msbpi as they were before search nodes carried
their forward state: each created node is scored by root_walk_f_value, which
walks the pair from the search root, and each popped node's frontiers are
walked from the trees' roots.  The incremental search must create the same
nodes in the same order and reach bitwise the same values, pairs and
counts.  Only the imports, the names of the walks (the frozen copies in
tests/oracles.py) and the local SearchNode (the node as it was, holding no
forward state) differ from the original.  The value tables are evaluated by
local copies of the library's _evaluate_pairs and evaluate_policy that call
the frozen root walk, so nothing here runs the library's pair-value fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from commplan.model import DecMdpCom, FactoredState, validate
from commplan.msbpi import (
    DEFAULT_NODE_BUDGET,
    GeneralMechanism,
    NodeBudgetExceeded,
    _evaluate_immediate_comm,
    _frontier_assignments,
    immediate_comm_pairs,
)
from commplan.options import COMMUNICATE, PolicyTree
from oracles import cap_with_comm, live_frontier, root_walk_f_value


@dataclass
class SearchNode:
    """A candidate pair of equal-size policy trees with its estimated value."""

    tree1: PolicyTree
    tree2: PolicyTree
    f: float
    depth: int


def _evaluate_pairs(pairs, m: DecMdpCom) -> np.ndarray:
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    V = np.zeros((T + 1, n1, n2))
    for t in range(T - 1, -1, -1):
        for s1 in range(n1):
            for s2 in range(n2):
                opt1, opt2 = pairs[(s1, s2, t)]
                V[t, s1, s2] = root_walk_f_value(
                    opt1, opt2, m, FactoredState(s1, s2), t, V
                )
    return V


def evaluate_policy(delta, m: DecMdpCom) -> np.ndarray:
    """Backward-induction value table of a mechanism, V[T] = 0."""
    pairs = delta.pairs if isinstance(delta, GeneralMechanism) else delta
    return _evaluate_pairs(pairs, m)


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

    def create(tree1: PolicyTree, tree2: PolicyTree) -> SearchNode:
        counter[0] += 1
        if counter[0] > node_budget:
            raise NodeBudgetExceeded(node_budget, counter[0])
        f = root_walk_f_value(tree1, tree2, m, s, t, V)
        return SearchNode(tree1, tree2, f, tree1.size)

    stack: List[SearchNode] = []
    for a1 in list(range(m.agent1.n_actions)) + [COMMUNICATE]:
        for a2 in list(range(m.agent2.n_actions)) + [COMMUNICATE]:
            node = create(
                PolicyTree(s.s1, {(s.s1, 0): a1}),
                PolicyTree(s.s2, {(s.s2, 0): a2}),
            )
            if node.f > best:
                stack.append(node)

    while stack:
        node = stack.pop()
        if node.f <= best:
            continue
        fr1 = live_frontier(node.tree1, m.agent1)
        fr2 = live_frontier(node.tree2, m.agent2)
        size = node.depth
        if (not fr1 and not fr2) or size == remaining:
            best = node.f
            best_pair = (node.tree1, node.tree2)
            continue
        if bool(fr1) != bool(fr2):
            # one tree communicates on every branch: the exchange interrupts
            # the other tree at this depth, so close it here and go no deeper
            if fr1:
                capped = (cap_with_comm(node.tree1, m.agent1), node.tree2)
            else:
                capped = (node.tree1, cap_with_comm(node.tree2, m.agent2))
            cnode = create(*capped)
            if cnode.f > best:
                best = cnode.f
                best_pair = capped
            continue
        new_size = size + 1
        if new_size > remaining:
            continue
        if max_option_length is not None and new_size > max_option_length:
            continue
        children = []
        for asg1 in _frontier_assignments(fr1, m.agent1.n_actions):
            t1 = node.tree1.with_assignments(
                {(q, size): a for q, a in asg1.items()}
            )
            for asg2 in _frontier_assignments(fr2, m.agent2.n_actions):
                t2 = node.tree2.with_assignments(
                    {(q, size): a for q, a in asg2.items()}
                )
                child = create(t1, t2)
                if child.f > best:
                    children.append(child)
        stack.extend(children)

    if best_pair is None:
        return None
    return best_pair, best


def msbpi(
    m: DecMdpCom,
    initial_delta: Optional[GeneralMechanism] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_option_length: Optional[int] = None,
) -> GeneralMechanism:
    """Policy iteration: evaluate, sweep all (s, t) for improvements against
    the frozen value table, apply the updates, and repeat until no cell
    changes.  The default initial mechanism communicates immediately
    everywhere."""
    problems = [v for v in validate(m) if not v.startswith("warning:")]
    if problems:
        raise ValueError("; ".join(problems))
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    if initial_delta is None:
        pairs = immediate_comm_pairs(m)
        V = _evaluate_immediate_comm(m)
    else:
        pairs = dict(initial_delta.pairs)
        V = evaluate_policy(initial_delta, m)
    iterations = 0
    nodes_total = 0
    history: List[dict] = []
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
                    if res is not None:
                        updates[(s1, s2, t)] = res[0]
        nodes_total += counter[0]
        if not updates:
            break
        pairs.update(updates)
        V = _evaluate_pairs(pairs, m)
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
        pairs=pairs,
        value=V,
        iterations=iterations,
        nodes_created=nodes_total,
        history=history,
    )
