"""The paper's named quantities, kept as test oracles.

Goldman & Zilberstein define these quantities to build and analyze the
mechanisms; the planners compute what they need through other kernels, so
the definitions live here and are checked against those kernels:

- p_terminate, p_reach, joint_pn, joint_rn (P_N and R_N of a tree pair),
  expected_cost_g, validate_tree and is_option check the policy-tree kernels
  in commplan.options and the options MSBPI returns.
- live_levels, live_frontier, cap_with_comm, pair_forward and
  root_walk_f_value walk a tree or a tree pair from its root.  They are
  independent of the library's pair-value fold and the search's one-level
  frontier steps, and check joint_f_value, _live_next and, through
  tests/msbpi_reference.py, the search.
- png and rng (P_N and R_N of a goal assignment) check the window
  propagators behind commplan.lgo's layer scores; delta_independence is the
  interference bound on LGO's loss.
- FixedLocalPolicies, theta_nc, pbar, rbar and theta_c are the generic
  myopic quantities on any joint model.  They check the closed-form meeting
  recursion and the exchange-time table in commplan.myopic.  They read time
  stamps from TimedState; a model state (a plain pair) is taken at time 0.
- distance_evolution (with _decrement) and exchange_times_walk are the
  exchange-time table as the library built it before each walker's
  remaining distance got its own law: a dict walk over the joint pair of
  remaining distances, scored separation by separation.
  commplan.myopic.comm_policy_table must give the same table.
- welch_ttest compares two Monte-Carlo batches from commplan.sim.
- midpoint and step_toward are the meeting walk as positions: the walkers
  head x-leg first for the middle cell of a shortest path.  The grid
  reference engine walks with them, and they check that agent 1 is d // 2
  and agent 2 d - d // 2 steps from that cell, the split the library's
  distance-only meeting engine applies.  encode and decode map a meeting
  domain's grid cells to its state indices and back.
- successors, is_goal, goal_reachable_bfs and joint_induction read a joint
  model state by state: goal_reachable_bfs is the joint-state search that
  validate() ran before its reachability became a product of two local
  sets, and joint_induction is the flat backward induction over every
  action pair and successor pair that solve_joint_mmdp must equal.
- machine_model_loop, quota_actions_from_labels and production_arrays are
  the production builder as it was before each machine's counts and
  successor table were computed once as arrays: a cell-by-cell transition
  loop and quotas that parse the "a-b" state labels.  build_production must
  give the same arrays byte for byte.

Bodies are as they were in the library, except that the myopic ones read
time stamps through _stamp, since model states no longer carry one.
root_walk_f_value was the library's joint_f_value and cap_with_comm its
_cap_with_comm(tree, agent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from commplan.domains import STAY, grid_state, manhattan
from commplan.lgo import GoalAssignment, _step_matrix
from commplan.model import AgentModel, DecMdpCom, FactoredState
from commplan.options import COMMUNICATE, PolicyTree, _forward_level, _Successors
from commplan.sim import SimResult
from lgo_reference import _window_forward


class TimedState(NamedTuple):
    """A global state as a pair of local state indices, optionally stamped with time."""

    s1: int
    s2: int
    t: Optional[int] = None


# ---------------------------------------------------------------------------
# the meeting walk as positions


def midpoint(pos1: Tuple[int, int], pos2: Tuple[int, int]) -> Tuple[int, int]:
    """Middle cell of a shortest Manhattan path, x-leg first from pos1.

    The cell sits floor(d/2) from pos1 and ceil(d/2) from pos2, so agent 1
    takes the shorter half on odd separations.
    """
    steps = manhattan(pos1, pos2) // 2
    x, y = pos1
    for _ in range(steps):
        if x != pos2[0]:
            x += 1 if pos2[0] > x else -1
        else:
            y += 1 if pos2[1] > y else -1
    return (x, y)


def step_toward(pos: Tuple[int, int], goal: Tuple[int, int]) -> int:
    """Action moving one cell along a shortest path to goal, x-leg first."""
    x, y = pos
    if x != goal[0]:
        return 2 if goal[0] > x else 3
    if y != goal[1]:
        return 0 if goal[1] > y else 1
    return STAY


def encode(domain, pos: Tuple[int, int]) -> int:
    """State index of grid cell pos in a meeting domain."""
    return grid_state(pos, domain.config)


def decode(domain, s: int) -> Tuple[int, int]:
    """Grid cell (x, y) of state s in a meeting domain."""
    return divmod(s, domain.config.height)


# ---------------------------------------------------------------------------
# joint model, state by state


def successors(agent: AgentModel, s: int, a: int) -> np.ndarray:
    """Indices of local states reachable in one step under action a."""
    return np.nonzero(agent.transition[s, a] > 0.0)[0]


def is_goal(m: DecMdpCom, s1: int, s2: int) -> bool:
    return m.goal is not None and bool(m.goal[s1, s2])


def goal_reachable_bfs(m: DecMdpCom, max_visited: int = 200_000) -> Optional[bool]:
    """Breadth-first reachability of any global goal within the horizon.

    Returns None when the joint space is too large to settle the question
    within the visit budget.
    """
    if m.goal is None:
        return None
    start = (m.initial_state.s1, m.initial_state.s2)
    if is_goal(m, *start):
        return True
    frontier = {start}
    seen = {start}
    for _ in range(m.horizon):
        nxt = set()
        for s1, s2 in frontier:
            for a1 in range(m.agent1.n_actions):
                succ1 = successors(m.agent1, s1, a1)
                for a2 in range(m.agent2.n_actions):
                    succ2 = successors(m.agent2, s2, a2)
                    for t1 in succ1:
                        for t2 in succ2:
                            q = (int(t1), int(t2))
                            if q in seen:
                                continue
                            if is_goal(m, *q):
                                return True
                            seen.add(q)
                            nxt.add(q)
                            if len(seen) > max_visited:
                                return None
        if not nxt:
            return False
        frontier = nxt
    return False


def joint_induction(m: DecMdpCom) -> np.ndarray:
    """Optimal full-information value from time zero, shape (n1, n2).

    Each step takes the best action pair's expected step_reward plus next
    value, summed over every successor pair.  The potential's increments
    telescope to potential[s_T] - potential[s_0], so adding potential[s_0]
    at the end gives the value with the terminal potential as payoff."""
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    V = np.zeros((n1, n2))
    for _ in range(m.horizon):
        nxt = np.empty((n1, n2))
        for s1 in range(n1):
            for s2 in range(n2):
                best = -math.inf
                for a1 in range(m.agent1.n_actions):
                    for a2 in range(m.agent2.n_actions):
                        q = 0.0
                        for x in successors(m.agent1, s1, a1):
                            for y in successors(m.agent2, s2, a2):
                                p = m.agent1.transition[s1, a1, x] * m.agent2.transition[s2, a2, y]
                                q += p * (m.step_reward(s1, s2, a1, a2, x, y) + V[x, y])
                        best = max(best, q)
                nxt[s1, s2] = best
        V = nxt
    return V if m.potential is None else V + m.potential


# ---------------------------------------------------------------------------
# production model, as the scalar builder made it


def machine_model_loop(name: str, p: float, init: Tuple[int, int], horizon: int,
                       action_cost: float) -> Tuple[AgentModel, Tuple[int, int]]:
    """One machine, state a_cnt * nb + b_cnt, built cell by cell; returns the
    agent and its counter caps."""
    cap_a, cap_b = init[0] + horizon, init[1] + horizon
    na, nb = cap_a + 1, cap_b + 1
    n = na * nb
    trans = np.zeros((n, 2, n))
    labels = []
    for a_cnt in range(na):
        for b_cnt in range(nb):
            s = a_cnt * nb + b_cnt
            labels.append(f"{a_cnt}-{b_cnt}")
            bumped_a = (min(a_cnt + 1, cap_a)) * nb + b_cnt
            bumped_b = a_cnt * nb + min(b_cnt + 1, cap_b)
            trans[s, 0, bumped_a] += p
            trans[s, 0, s] += 1.0 - p
            trans[s, 1, bumped_b] += p
            trans[s, 1, s] += 1.0 - p
    agent = AgentModel(
        n_states=n,
        actions=("make_a", "make_b"),
        transition=trans,
        goal_candidates=(),
        action_cost=np.array([action_cost, action_cost]),
        noop=None,
        state_labels=tuple(labels),
        name=name,
    )
    return agent, (cap_a, cap_b)


def quota_actions_from_labels(agent: AgentModel, x_a: int, x_b: int,
                              init: Tuple[int, int]) -> np.ndarray:
    """The (1, n) action row of the cyclic quota (x_a, x_b), reading each
    state's counts back from its "a-b" label."""
    acts = np.zeros((1, agent.n_states), dtype=int)
    for s, label in enumerate(agent.state_labels):
        a_cnt, b_cnt = (int(v) for v in label.split("-"))
        produced = (a_cnt - init[0]) + (b_cnt - init[1])
        acts[0, s] = 0 if produced % (x_a + x_b) < x_a else 1
    return acts


def production_arrays(p1: float, p2: float, T: int, initial, quotas) -> dict:
    """The production model as the loop builder made it, and each machine's
    quota action rows, one per (x_a, x_b) in quotas."""
    b_a0, b_b0, c_a0, c_b0 = initial
    machine1, caps1 = machine_model_loop("machine1", p1, (b_a0, b_b0), T, -1.0)
    machine2, caps2 = machine_model_loop("machine2", p2, (c_a0, c_b0), T, -1.0)
    nb1, nb2 = caps1[1] + 1, caps2[1] + 1
    b_a, b_b = np.divmod(np.arange(machine1.n_states), nb1)
    c_a, c_b = np.divmod(np.arange(machine2.n_states), nb2)
    model = DecMdpCom(
        agent1=machine1,
        agent2=machine2,
        comm_cost=-0.1,
        horizon=T,
        initial_state=FactoredState(b_a0 * nb1 + b_b0, c_a0 * nb2 + c_b0),
        potential=np.minimum.outer(b_a, c_a) + np.minimum.outer(b_b, c_b),
        name="production",
    )
    return {
        "model": model,
        "quotas1": [quota_actions_from_labels(machine1, x_a, x_b, (b_a0, b_b0)) for x_a, x_b in quotas],
        "quotas2": [quota_actions_from_labels(machine2, x_a, x_b, (c_a0, c_b0)) for x_a, x_b in quotas],
    }


# ---------------------------------------------------------------------------
# policy trees and tree-pair windows


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
            nxt.update(int(q) for q in successors(agent, s, a))
        live.append(nxt)
    return live


def live_frontier(tree: PolicyTree, agent: AgentModel) -> set:
    """States at the tree's deepest level still awaiting an assignment."""
    return live_levels(tree, agent)[-1]


def cap_with_comm(tree: PolicyTree, agent) -> PolicyTree:
    """Overwrite the deepest live level with communication acts.

    Used when the partner tree's branches all communicate by this depth: the
    joint exchange interrupts anything planned deeper, so closing this tree
    at the same level yields a valid option pair.
    """
    d = tree.size - 1
    levels = live_levels(tree, agent)
    updates = {(q, d): COMMUNICATE for q in sorted(levels[d])}
    return tree.with_assignments(updates)


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


def root_walk_f_value(
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
            nxt.update(int(q) for q in successors(agent, s, a))
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


# ---------------------------------------------------------------------------
# goal-assignment windows


def png(
    assignment: GoalAssignment,
    m: DecMdpCom,
    s: FactoredState,
    t: int,
    k: int,
) -> np.ndarray:
    """Distribution over global states after k steps under the assigned
    policies; the exchange happens after the window regardless, so there is
    no early termination inside it."""
    if k <= 0:
        raise ValueError(f"window length must be positive, got {k}")
    if t + k > m.horizon:
        raise ValueError(f"window [{t}, {t + k}) runs past the horizon {m.horizon}")
    row1 = np.zeros(m.agent1.n_states)
    row1[s.s1] = 1.0
    row2 = np.zeros(m.agent2.n_states)
    row2[s.s2] = 1.0
    for j in range(k):
        row1 = row1 @ _step_matrix(m.agent1, assignment.g1, t + j)
        row2 = row2 @ _step_matrix(m.agent2, assignment.g2, t + j)
    return np.outer(row1, row2)


def rng(
    assignment: GoalAssignment,
    m: DecMdpCom,
    s: FactoredState,
    t: int,
    s_next: FactoredState,
    k: int,
) -> float:
    """Expected window reward conditioned on ending at s_next, plus the
    exchange cost (always charged; the exchange follows every window)."""
    if k <= 0:
        raise ValueError(f"window length must be positive, got {k}")
    if t + k > m.horizon:
        raise ValueError(f"window [{t}, {t + k}) runs past the horizon {m.horizon}")
    cells = _window_forward(m, assignment.g1, assignment.g2, s, t, k)
    cell = cells.get((s_next.s1, s_next.s2))
    if cell is None or cell[0] <= 0.0:
        return 0.0
    return cell[1] / cell[0] + m.comm_cost


def delta_independence(
    cost_oracle: Callable[[int, int, int, int], float],
    goals1: Sequence[int],
    goals2: Sequence[int],
    states: Sequence[int],
    T: int,
) -> Tuple[float, float]:
    """Worst-case cost interference between the agents' goal pursuits.

    cost_oracle(agent, s, own_goal, other_goal) gives the expected cost agent
    1 or 2 incurs reaching own_goal from global state s while its partner
    pursues other_goal.  The interference of one agent is the largest spread,
    over partner goals, of that cost; the bound on the mechanism's loss from
    treating goals independently is twice the horizon times the worst spread.
    """

    def spread(agent: int, own_goals, other_goals) -> float:
        worst = 0.0
        for s in states:
            for g in own_goals:
                vals = [cost_oracle(agent, s, g, h) for h in other_goals]
                worst = max(worst, max(vals) - min(vals))
        return worst

    d1 = spread(1, goals1, goals2)
    d2 = spread(2, goals2, goals1)
    delta = max(d1, d2)
    return delta, 2.0 * T * delta


# ---------------------------------------------------------------------------
# myopic quantities over fixed local policies


@dataclass(eq=False)
class FixedLocalPolicies:
    """The pair of given communication-free action policies.

    Each policy may be a LocalGoalPolicy, a callable (state, time) -> action,
    or an integer array (stationary if 1-D, time-major if 2-D).
    """

    policy1: object
    policy2: object

    def action(self, agent: int, s: int, t: int) -> int:
        pol = self.policy1 if agent == 1 else self.policy2
        if hasattr(pol, "action_at"):
            return pol.action_at(s, t)
        if callable(pol):
            return int(pol(s, t))
        arr = np.asarray(pol)
        if arr.ndim == 1:
            return int(arr[s])
        return int(arr[min(t, arr.shape[0] - 1), s])


def _stamp(s) -> Optional[int]:
    """The time stamp of a TimedState; a model state is at time 0."""
    return getattr(s, "t", 0)


def _require_time(s: TimedState) -> int:
    t = _stamp(s)
    if t is None:
        raise ValueError("state must carry a time stamp")
    return t


def theta_nc(
    m: DecMdpCom,
    s0: TimedState,
    policies: FixedLocalPolicies,
    _memo: Optional[dict] = None,
) -> float:
    """Expected accumulated reward to the global goal with no exchanges,
    following the fixed policies; truncated at the horizon."""
    memo = _memo if _memo is not None else {}
    t0 = _stamp(s0) or 0

    def rec(s1: int, s2: int, t: int) -> float:
        if is_goal(m, s1, s2):
            return 0.0
        if t >= m.horizon:
            return 0.0
        key = (s1, s2, t)
        if key in memo:
            return memo[key]
        a1 = policies.action(1, s1, t)
        a2 = policies.action(2, s2, t)
        row1 = m.agent1.transition[s1, a1]
        row2 = m.agent2.transition[s2, a2]
        total = 0.0
        for q1 in np.nonzero(row1 > 0.0)[0]:
            for q2 in np.nonzero(row2 > 0.0)[0]:
                p = row1[q1] * row2[q2]
                r = m.step_reward(s1, s2, a1, a2, int(q1), int(q2))
                total += p * (r + rec(int(q1), int(q2), t + 1))
        memo[key] = total
        return total

    return rec(s0.s1, s0.s2, t0)


def pbar(
    m: DecMdpCom,
    s: TimedState,
    s_next: TimedState,
    policies: FixedLocalPolicies,
    _memo: Optional[dict] = None,
) -> float:
    """Probability of reaching the time-stamped state s_next from s under
    the fixed policies: 1 on identity, a single joint transition one step
    ahead, 0 for earlier times, and a one-step chaining sum beyond."""
    t = _require_time(s)
    t_next = _require_time(s_next)
    if s == s_next:
        return 1.0
    a1 = policies.action(1, s.s1, t)
    a2 = policies.action(2, s.s2, t)
    row1 = m.agent1.transition[s.s1, a1]
    row2 = m.agent2.transition[s.s2, a2]
    if t_next == t + 1:
        return float(row1[s_next.s1] * row2[s_next.s2])
    if t_next < t + 1:
        return 0.0
    memo = _memo if _memo is not None else {}
    key = (s.s1, s.s2, t)
    if key in memo:
        return memo[key]
    total = 0.0
    for q1 in np.nonzero(row1 > 0.0)[0]:
        for q2 in np.nonzero(row2 > 0.0)[0]:
            p = row1[q1] * row2[q2]
            mid = TimedState(int(q1), int(q2), t + 1)
            total += p * pbar(m, mid, s_next, policies, memo)
    memo[key] = total
    return total


def rbar(
    m: DecMdpCom,
    s0: TimedState,
    s: TimedState,
    policies: FixedLocalPolicies,
) -> float:
    """Expected reward accumulated moving from s0 to s under the policies,
    conditioned on actually arriving at s; 0 when s is unreachable."""
    t0 = _require_time(s0)
    t = _require_time(s)
    if t <= t0:
        raise ValueError(f"target time {t} must exceed start time {t0}")
    cur: Dict[Tuple[int, int], list] = {(s0.s1, s0.s2): [1.0, 0.0]}
    for tau in range(t0, t):
        nxt: Dict[Tuple[int, int], list] = {}
        for (s1, s2), (mu, rho) in cur.items():
            a1 = policies.action(1, s1, tau)
            a2 = policies.action(2, s2, tau)
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
    cell = cur.get((s.s1, s.s2))
    if cell is None or cell[0] <= 0.0:
        return 0.0
    return cell[1] / cell[0]


def theta_c(
    m: DecMdpCom,
    s0: TimedState,
    s: TimedState,
    policies: FixedLocalPolicies,
) -> float:
    """Expected cost when the agents exchange exactly once at the revealed
    state s (one local component of s given, the other summed out), then
    continue without communicating.  The exchange cost is waived for
    branches whose endpoint already is the global goal."""
    t = _require_time(s)
    t0 = _stamp(s0) or 0
    if t < 1:
        raise ValueError(f"exchange time must be at least 1, got {t}")
    if (s.s1 is None) == (s.s2 is None):
        raise ValueError("exactly one local component of s must be given")
    elapsed = t - t0
    # marginal occupancy of the hidden agent after the elapsed steps
    if s.s1 is None:
        hidden_agent, hidden_idx, start = m.agent1, 1, s0.s1
    else:
        hidden_agent, hidden_idx, start = m.agent2, 2, s0.s2
    row = np.zeros(hidden_agent.n_states)
    row[start] = 1.0
    for j in range(elapsed):
        acts = [
            policies.action(hidden_idx, q, t0 + j)
            for q in range(hidden_agent.n_states)
        ]
        step = hidden_agent.transition[np.arange(hidden_agent.n_states), acts]
        row = row @ step
    memo: dict = {}
    total = 0.0
    for q in np.nonzero(row > 0.0)[0]:
        if s.s1 is None:
            joint = TimedState(int(q), s.s2, t)
        else:
            joint = TimedState(s.s1, int(q), t)
        flag = 0.0 if is_goal(m, joint.s1, joint.s2) else 1.0
        r = rbar(m, s0, joint, policies)
        cont = theta_nc(m, joint, policies, _memo=memo)
        total += row[q] * (r + cont + m.comm_cost * flag)
    return total


# ---------------------------------------------------------------------------
# exchange-time tables as a walk over remaining-distance pairs


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


def exchange_times_walk(
    grid_size: int, p_u: float, comm_cost: float, action_cost: float, time_cap: int
) -> Dict[int, int]:
    """commplan.myopic's exchange-time table by a walk over the joint law of
    the two remaining distances, scored separation by separation."""
    from commplan.myopic import split_distance, theta_nc_meeting

    comm_in_steps = comm_cost / (2.0 * -action_cost)
    times: Dict[int, int] = {}
    for d in range(1, 2 * (grid_size - 1) + 1):
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
    return times


# ---------------------------------------------------------------------------
# Monte-Carlo comparison


def welch_ttest(a: SimResult, b: SimResult) -> Tuple[float, float]:
    """Two-sample t statistic and p-value without equal-variance assumption."""
    from scipy import stats

    res = stats.ttest_ind_from_stats(
        a.mean_utility,
        math.sqrt(a.variance),
        a.episodes,
        b.mean_utility,
        math.sqrt(b.variance),
        b.episodes,
        equal_var=False,
    )
    return float(res.statistic), float(res.pvalue)
