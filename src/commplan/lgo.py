"""Goal-oriented mechanism planning in polynomial time.

Instead of searching arbitrary policy trees, the mechanism assigns each agent
a local goal-directed policy and a window length k: both agents act alone for
k steps, then exchange states (the exchange is charged with every window,
including one that ends exactly at the horizon) and receive a fresh
assignment.  The planner searches windows 1 <= k <= T-1, so for T >= 2 every
plan pays at least two exchanges.  Policy iteration over assignments
converges because the assignment space is finite and updates are strict
improvements.

Windows propagate each agent independently (transition independence), so the
k-step window reduces to per-agent propagator matrices plus accumulated
action-cost vectors, and the candidate scores for a whole state layer come
out of a few dense matrix products: M1 @ W is formed once per agent-1
candidate and shared by every agent-2 candidate it is paired with.

The assignment table is three int arrays indexed [t, s1, s2]: the positions
of the two agents' policies in their candidate lists, and the window length.
Improvements are installed with boolean masks, and evaluation groups each
time step's cells by a packed (k, g1, g2) code.  GoalAssignment objects are
made only on request (LgoMechanism.assignment_at and the read-only
LgoMechanism.assignment view).
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import AgentModel, DecMdpCom, require_valid
from .options import _forward_level, _Successors


@dataclass(eq=False)
class LocalGoalPolicy:
    """A per-agent policy the mechanism can assign, identified by its label.

    actions[t, s] is the action taken in local state s at absolute time t;
    stationary policies store one row and behave identically at all times.
    goal is the target local state for goal-directed policies, None for
    policies defined some other way (e.g. fixed production quotas).
    """

    label: str
    actions: np.ndarray
    stationary: bool = False
    goal: Optional[int] = None
    value: Optional[np.ndarray] = None

    def action_at(self, s: int, t: int) -> int:
        row = 0 if self.stationary else min(t, self.actions.shape[0] - 1)
        return int(self.actions[row, s])


@dataclass(eq=False)
class GoalAssignment:
    """One mechanism decision: a policy per agent and an exchange window k."""

    g1: LocalGoalPolicy
    g2: LocalGoalPolicy
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"window length must be at least 1, got {self.k}")


@dataclass(eq=False)
class LgoMechanism:
    """A goal-assignment mechanism: its assignment table and value table.

    The table is held as three int arrays of shape (T, n1, n2), indexed
    [t, s1, s2]: g1 and g2 are positions in candidates1 and candidates2, and
    k is the window length.  assignment_at builds one GoalAssignment per
    distinct (g1, g2, k) and hands the same object out again; `assignment` is
    a read-only Mapping view (s1, s2, t) -> GoalAssignment over all T*n1*n2
    cells, in (t, s1, s2) order.

    sweep_candidate_counts and candidates_considered are nominal: every
    (k, t) layer, (T-1)*T*n1*n2*|G1|*|G2| per sweep.  candidates_scored
    counts the candidate-state scores the sweeps actually computed, on the
    layers whose window fits the horizon (t + k <= T).
    """

    candidates1: List[LocalGoalPolicy]
    candidates2: List[LocalGoalPolicy]
    g1: np.ndarray
    g2: np.ndarray
    k: np.ndarray
    value: np.ndarray
    sweeps: int = 0
    candidates_considered: int = 0
    sweep_candidate_counts: List[int] = field(default_factory=list)
    candidates_scored: int = 0
    _made: Dict[Tuple[int, int, int], GoalAssignment] = field(
        default_factory=dict, init=False, repr=False
    )

    def assignment_at(self, s1: int, s2: int, t: int) -> GoalAssignment:
        T, n1, n2 = self.k.shape
        if not (0 <= t < T and 0 <= s1 < n1 and 0 <= s2 < n2):
            raise KeyError((s1, s2, t))
        code = (self.g1.item(t, s1, s2), self.g2.item(t, s1, s2), self.k.item(t, s1, s2))
        asg = self._made.get(code)
        if asg is None:
            asg = GoalAssignment(self.candidates1[code[0]], self.candidates2[code[1]], code[2])
            self._made[code] = asg
        return asg

    @property
    def assignment(self) -> Mapping[Tuple[int, int, int], GoalAssignment]:
        return _AssignmentView(self)


class _AssignmentView(Mapping):
    """Read-only (s1, s2, t) -> GoalAssignment view of an LgoMechanism."""

    def __init__(self, mech: LgoMechanism):
        self._mech = mech

    def __getitem__(self, key) -> GoalAssignment:
        try:
            s1, s2, t = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        return self._mech.assignment_at(s1, s2, t)

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        T, n1, n2 = self._mech.k.shape
        for t in range(T):
            for s1 in range(n1):
                for s2 in range(n2):
                    yield (s1, s2, t)

    def __len__(self) -> int:
        return self._mech.k.size


def solve_local_mdp(
    agent: AgentModel, goal: int, T: int, action_cost=None
) -> LocalGoalPolicy:
    """Finite-horizon backward induction toward one local goal.

    Being at the goal costs nothing: the agent holds its no-op there until
    the next exchange.  If some states cannot reach the goal at all, the
    policy is still defined (it maximizes reward best-effort) and a warning
    is emitted.
    """
    if agent.noop is None:
        raise ValueError(
            f"agent {agent.name or ''} has no designated no-op action; "
            "goal-directed behavior needs one to hold the goal at zero cost"
        )
    n = agent.n_states
    costs = np.zeros(agent.n_actions)
    if action_cost is not None:
        costs = np.asarray(
            [action_cost[a] for a in range(agent.n_actions)], dtype=float
        )
    V = np.zeros((T + 1, n))
    acts = np.zeros((T, n), dtype=int)
    for t in range(T - 1, -1, -1):
        q = costs[None, :] + np.einsum("saq,q->sa", agent.transition, V[t + 1])
        acts[t] = np.argmax(q, axis=1)
        V[t] = q[np.arange(n), acts[t]]
        V[t, goal] = 0.0
        acts[t, goal] = agent.noop
    stationary = bool(np.all(acts == acts[0]))

    reachable = {goal}
    frontier = {goal}
    support = [
        {s for s in range(n) if (agent.transition[s, :, q] > 0.0).any()}
        for q in range(n)
    ]
    while frontier:
        nxt = set()
        for q in frontier:
            nxt |= support[q] - reachable
        reachable |= nxt
        frontier = nxt
    stranded = n - len(reachable)
    if stranded:
        warnings.warn(
            f"goal state {goal}: {stranded} states cannot reach it; "
            "policy is best-effort there",
            stacklevel=2,
        )
    return LocalGoalPolicy(
        label=f"goal_{agent.state_label(goal)}",
        actions=acts[:1] if stationary else acts,
        stationary=stationary,
        goal=goal,
        value=V,
    )


def _step_matrix(agent: AgentModel, pol: LocalGoalPolicy, t: int) -> np.ndarray:
    acts = pol.actions[0 if pol.stationary else min(t, pol.actions.shape[0] - 1)]
    return agent.transition[np.arange(agent.n_states), acts]


def _step_cost_vector(agent: AgentModel, pol: LocalGoalPolicy, t: int) -> np.ndarray:
    if agent.action_cost is None:
        return np.zeros(agent.n_states)
    acts = pol.actions[0 if pol.stationary else min(t, pol.actions.shape[0] - 1)]
    return np.asarray(agent.action_cost, dtype=float)[acts]


class _WindowCache:
    """Per-agent k-step propagators M and accumulated action-cost vectors c.

    For a window [t, t+k): M[s, s'] is the chance of ending at s' having
    started at s, and c[s] the expected total action cost on the way.
    Stationary policies share entries across t.
    """

    def __init__(self, m: DecMdpCom):
        self.m = m
        self.cache: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}

    def pieces(self, agent_idx: int, pol: LocalGoalPolicy, t: int, k: int):
        agent = self.m.agent1 if agent_idx == 1 else self.m.agent2
        t_key = 0 if pol.stationary else t
        key = (agent_idx, pol.label, t_key, k)
        if key in self.cache:
            return self.cache[key]
        prev_key = (agent_idx, pol.label, t_key, k - 1)
        if k > 1 and prev_key in self.cache:
            M, c = self.cache[prev_key]
        else:
            M = np.eye(agent.n_states)
            c = np.zeros(agent.n_states)
            for j in range(k - 1):
                c = c + M @ _step_cost_vector(agent, pol, t + j)
                M = M @ _step_matrix(agent, pol, t + j)
        step_t = t + k - 1
        c = c + M @ _step_cost_vector(agent, pol, step_t)
        M = M @ _step_matrix(agent, pol, step_t)
        self.cache[key] = (M, c)
        return M, c


def _phi_matrix(m: DecMdpCom) -> np.ndarray:
    if m.potential is None:
        return np.zeros((m.agent1.n_states, m.agent2.n_states))
    return m.potential


class _Window(NamedTuple):
    """A goal policy read as a policy tree rooted at time t."""

    pol: LocalGoalPolicy
    t: int

    def action_at(self, s: int, d: int) -> int:
        return self.pol.action_at(s, self.t + d)


def _forward_value(
    m: DecMdpCom,
    g1: LocalGoalPolicy,
    g2: LocalGoalPolicy,
    s1: int,
    s2: int,
    t: int,
    k: int,
    V: np.ndarray,
    succ1: _Successors,
    succ2: _Successors,
) -> float:
    """Value at t of assigning (g1, g2, k) in (s1, s2), by k levels of the
    forward kernel.  Goal policies never communicate or run out, so every
    cell stays alive through the window."""
    w1, w2 = _Window(g1, t), _Window(g2, t)
    alive = {(s1, s2): [1.0, 0.0]}
    for j in range(1, k + 1):
        _, _, alive = _forward_level(alive, w1, w2, m, j, succ1, succ2)
    total = 0.0
    for (q1, q2), (mu, rho) in alive.items():
        total += rho + mu * (m.comm_cost + V[t + k, q1, q2])
    return total


def _layer_scores(
    m: DecMdpCom,
    cache: _WindowCache,
    cand1: Sequence[LocalGoalPolicy],
    cand2: Sequence[LocalGoalPolicy],
    t: int,
    k: int,
    V: np.ndarray,
    phi: np.ndarray,
    rows,
):
    """Score candidate pairs on the (k, t) layer.

    rows is a sequence of (i1, [(i2, cells), ...]): positions in cand1 and
    cand2, and the flat state indices that need a score (None for all).
    Yields (i1, i2, cells, F) in that order, F[s1, s2] being the value at t of
    assigning (cand1[i1], cand2[i2], k) in (s1, s2) with V[t + k] beyond the
    window.  Only V[t + k] is read, so the caller may update V[t] between
    yields.

    Without an extra reward every state is scored at once.  Expected action
    costs accumulate per agent; the state-based reward telescopes through the
    potential, leaving end-of-window potential minus the starting one; the
    exchange cost lands once; the future value enters through the joint
    k-step propagator, M1 @ W @ M2.T, whose left product is shared by every
    g2 paired with one g1.  With an extra reward only the requested cells
    are scored, each by forward propagation.
    """
    if m.extra_reward is None:
        W = phi + V[t + k]
        for i1, row in rows:
            M1, c1 = cache.pieces(1, cand1[i1], t, k)
            A = M1 @ W
            for i2, cells in row:
                M2, c2 = cache.pieces(2, cand2[i2], t, k)
                yield i1, i2, cells, c1[:, None] + c2[None, :] - phi + m.comm_cost + A @ M2.T
        return
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    succ1, succ2 = _Successors(m.agent1), _Successors(m.agent2)
    for i1, row in rows:
        for i2, cells in row:
            F = np.empty((n1, n2))
            for c in range(n1 * n2) if cells is None else cells:
                s1, s2 = divmod(int(c), n2)
                F[s1, s2] = _forward_value(
                    m, cand1[i1], cand2[i2], s1, s2, t, k, V, succ1, succ2
                )
            yield i1, i2, cells, F


def _evaluate_table(
    m: DecMdpCom,
    cache: _WindowCache,
    cand1: Sequence[LocalGoalPolicy],
    cand2: Sequence[LocalGoalPolicy],
    g1: np.ndarray,
    g2: np.ndarray,
    k: np.ndarray,
    phi: np.ndarray,
) -> np.ndarray:
    """Value table of an array assignment table; V[horizon] = 0.

    Each t groups its cells by the packed code (k, g1, g2) and scores every
    group once, layer by layer, so one M1 @ W is alive at a time."""
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    nc1, nc2 = len(cand1), len(cand2)
    V = np.zeros((T + 1, n1, n2))
    for t in range(T - 1, -1, -1):
        over = t + k[t] > T
        if over.any():
            s1, s2 = (int(i) for i in np.argwhere(over)[0])
            raise ValueError(
                f"assignment at ({s1}, {s2}, {t}) has window {int(k[t, s1, s2])} "
                f"running past the horizon {T}"
            )
        code = ((k[t] * nc1 + g1[t]) * nc2 + g2[t]).ravel()
        codes, counts = np.unique(code, return_counts=True)
        cells = np.split(np.argsort(code, kind="stable"), np.cumsum(counts)[:-1])
        layers: Dict[int, Dict[int, list]] = {}
        for c, idx in zip(codes.tolist(), cells):
            kk, rest = divmod(c, nc1 * nc2)
            i1, i2 = divmod(rest, nc2)
            layers.setdefault(kk, {}).setdefault(i1, []).append((i2, idx))
        Vt = V[t].reshape(-1)
        for kk, rows in layers.items():
            for _, _, idx, F in _layer_scores(
                m, cache, cand1, cand2, t, kk, V, phi, rows.items()
            ):
                Vt[idx] = F.reshape(-1)[idx]
    return V


def _by_label(pols: Sequence[LocalGoalPolicy], agent: int) -> Dict[str, LocalGoalPolicy]:
    """The agent's policies keyed by label, first seen first.

    Window propagators are cached by label, so two policies that share a
    label but act differently would silently share propagators; that is
    rejected.  Copies that act identically are harmless and collapse."""
    out: Dict[str, LocalGoalPolicy] = {}
    seen = set()
    for pol in pols:
        if id(pol) in seen:
            continue
        seen.add(id(pol))
        first = out.setdefault(pol.label, pol)
        if first is not pol and not (
            first.stationary == pol.stationary
            and np.array_equal(first.actions, pol.actions)
        ):
            raise ValueError(
                f"agent {agent} has two different policies labelled {pol.label!r}; "
                "candidate labels must identify their policies"
            )
    return out


def evaluate_lgo(mech: LgoMechanism, m: DecMdpCom) -> np.ndarray:
    """Value table of a goal-assignment mechanism's table; V[horizon] = 0."""
    return _evaluate_table(
        m, _WindowCache(m), mech.candidates1, mech.candidates2, mech.g1, mech.g2, mech.k,
        _phi_matrix(m),
    )


def default_candidates(agent: AgentModel, T: int) -> List[LocalGoalPolicy]:
    return [
        solve_local_mdp(agent, g, T, agent.action_cost)
        for g in agent.goal_candidates
    ]


def lgo_msbpi(
    m: DecMdpCom,
    candidates1: Optional[Sequence[LocalGoalPolicy]] = None,
    candidates2: Optional[Sequence[LocalGoalPolicy]] = None,
    max_sweeps: int = 200,
) -> LgoMechanism:
    """Policy iteration over goal assignments.

    Each round evaluates the current assignment table, then for every window
    length k (ascending), time, state, and candidate pair, re-scores the
    assignment and installs it wherever it strictly beats the current value
    (in place, so later candidates must beat the freshest value).  Stops when
    a full round changes nothing; the table evaluated at the start of that
    round is then the answer.  A run stopped by max_sweeps is evaluated once
    more.  Candidate labels must identify their policies, and the model must
    pass validate() apart from warnings (ValueError otherwise).
    """
    require_valid(m)
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    cand1 = list(candidates1) if candidates1 is not None else default_candidates(m.agent1, T)
    cand2 = list(candidates2) if candidates2 is not None else default_candidates(m.agent2, T)
    if not cand1 or not cand2:
        raise ValueError("both agents need at least one candidate policy")
    _by_label(cand1, 1)
    _by_label(cand2, 2)
    phi = _phi_matrix(m)
    cache = _WindowCache(m)

    g1 = np.zeros((T, n1, n2), dtype=np.intp)
    g2 = np.zeros((T, n1, n2), dtype=np.intp)
    k_of = np.ones((T, n1, n2), dtype=np.intp)
    every_pair = [(i1, [(i2, None) for i2 in range(len(cand2))]) for i1 in range(len(cand1))]
    per_layer = n1 * n2 * len(cand1) * len(cand2)

    scored = 0
    sweep_counts: List[int] = []
    converged = False
    while len(sweep_counts) < max_sweeps:
        V = _evaluate_table(m, cache, cand1, cand2, g1, g2, k_of, phi)
        changed = False
        for k in range(1, T):
            for t in range(T - k + 1):
                scored += per_layer
                for i1, i2, _, F in _layer_scores(
                    m, cache, cand1, cand2, t, k, V, phi, every_pair
                ):
                    mask = F > V[t]
                    if mask.any():
                        changed = True
                        g1[t][mask] = i1
                        g2[t][mask] = i2
                        k_of[t][mask] = k
                        V[t][mask] = F[mask]
        sweep_counts.append((T - 1) * T * per_layer)
        if not changed:
            converged = True
            break
    if not converged:
        V = _evaluate_table(m, cache, cand1, cand2, g1, g2, k_of, phi)
    return LgoMechanism(
        candidates1=cand1,
        candidates2=cand2,
        g1=g1,
        g2=g2,
        k=k_of,
        value=V,
        sweeps=len(sweep_counts),
        candidates_considered=sum(sweep_counts),
        sweep_candidate_counts=sweep_counts,
        candidates_scored=scored,
    )


def mechanism_csv(mech: LgoMechanism) -> str:
    """Assignment table as CSV (state pair, time, labels, window, value),
    joined per (t, s1) row so only one row's line strings are alive at once."""
    labels1 = [pol.label for pol in mech.candidates1]
    labels2 = [pol.label for pol in mech.candidates2]
    rows = ["s1,s2,t,g1,g2,k,V\n"]
    T, n1, n2 = mech.k.shape
    for t in range(T):
        for s1 in range(n1):
            row = zip(
                mech.g1[t, s1].tolist(),
                mech.g2[t, s1].tolist(),
                mech.k[t, s1].tolist(),
                mech.value[t, s1].tolist(),
            )
            lines = [
                f"{s1},{s2},{t},{labels1[i1]},{labels2[i2]},{k},{v!r}\n"
                for s2, (i1, i2, k, v) in enumerate(row)
            ]
            rows.append("".join(lines))
    return "".join(rows)
