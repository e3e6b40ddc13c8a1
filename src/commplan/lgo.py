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
candidate and shared by every agent-2 candidate it is paired with.  An extra
reward factors the same way, so every model is scored on this one path: its
expected value per action pair, E[a1, a2, s1, s2] (model.expected_extra), is
tabulated once, and a pair's window total follows X(t, 1) = R(t),
X(t, k) = X(t, k-1) + M1(t, k-1) @ R(t+k-1) @ M2(t, k-1).T, where R(tau) reads
E at the two policies' actions at tau.  lgo_msbpi and evaluate_lgo each build
one scorer, _WindowCache, from the model and the two candidate lists; it
holds the potential and E and caches the window pieces, and its layer_scores
and evaluate_table are the only scoring paths.

The assignment table is three int arrays indexed [t, s1, s2]: the positions
of the two agents' policies in their candidate lists, and the window length.
Improvements are installed with boolean masks, and evaluation groups each
time step's cells by a packed (k, g1, g2) code.  GoalAssignment objects are
made only on lookup, by the read-only LgoMechanism.assignment view.
"""

from __future__ import annotations

import operator
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import AgentModel, DecMdpCom, expected_extra, require_valid


@dataclass(eq=False)
class LocalGoalPolicy:
    """A per-agent policy the mechanism can assign, identified by its label.

    actions[t, s] is the action taken in local state s at absolute time t;
    times past the last row use the last row, so a one-row policy acts the
    same at every time.
    """

    label: str
    actions: np.ndarray
    value: Optional[np.ndarray] = None

    def row_at(self, t):
        """Row of actions used at time t, for a scalar or an array of times:
        t clamped to the last row."""
        return np.minimum(t, self.actions.shape[0] - 1)

    def action_at(self, s: int, t: int) -> int:
        return int(self.actions[self.row_at(t), s])


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
    k is the window length.  `assignment` is a read-only Mapping view
    (s1, s2, t) -> GoalAssignment over all T*n1*n2 cells, in (t, s1, s2)
    order; it builds a fresh GoalAssignment on each lookup.

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

    @property
    def assignment(self) -> Mapping[Tuple[int, int, int], GoalAssignment]:
        return _AssignmentView(self)


class _AssignmentView(Mapping):
    """Read-only (s1, s2, t) -> GoalAssignment view of an LgoMechanism."""

    def __init__(self, mech: LgoMechanism):
        self._mech = mech

    def __getitem__(self, key) -> GoalAssignment:
        mech = self._mech
        try:
            s1, s2, t = map(operator.index, key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        T, n1, n2 = mech.k.shape
        if not (0 <= t < T and 0 <= s1 < n1 and 0 <= s2 < n2):
            raise KeyError(key)
        return GoalAssignment(
            mech.candidates1[mech.g1.item(t, s1, s2)],
            mech.candidates2[mech.g2.item(t, s1, s2)],
            mech.k.item(t, s1, s2),
        )

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        T, n1, n2 = self._mech.k.shape
        for t in range(T):
            for s1 in range(n1):
                for s2 in range(n2):
                    yield (s1, s2, t)

    def __len__(self) -> int:
        return self._mech.k.size


def solve_local_mdp(agent: AgentModel, goal: int, T: int) -> LocalGoalPolicy:
    """Finite-horizon backward induction toward one local goal, charging the
    agent's own action costs.

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
    V = np.zeros((T + 1, n))
    acts = np.zeros((T, n), dtype=int)
    for t in range(T - 1, -1, -1):
        q = agent.action_cost[None, :] + np.einsum("saq,q->sa", agent.transition, V[t + 1])
        acts[t] = np.argmax(q, axis=1)
        V[t] = q[np.arange(n), acts[t]]
        V[t, goal] = 0.0
        acts[t, goal] = agent.noop

    # states that reach the goal: a fixed point over the one-step support
    step = (agent.transition > 0.0).any(axis=1)
    reach = np.arange(n) == goal
    while (grown := reach | step[:, reach].any(axis=1)).sum() > reach.sum():
        reach = grown
    stranded = n - int(reach.sum())
    if stranded:
        warnings.warn(
            f"goal state {goal}: {stranded} states cannot reach it; "
            "policy is best-effort there",
            stacklevel=2,
        )
    return LocalGoalPolicy(
        label=f"goal_{agent.state_labels[goal]}",
        actions=acts[:1] if (acts == acts[0]).all() else acts,
        value=V,
    )


class _WindowCache:
    """The LGO scorer of one planner call: the model, both candidate lists,
    the potential (zeros when the model has none), per-agent k-step
    propagators M and accumulated action-cost vectors c, and per-pair
    expected extra rewards X.

    For a window [t, t+k): M[s, s'] is the chance of ending at s' having
    started at s, and c[s] the expected total action cost on the way.  The
    k-step pieces extend the (k-1)-step ones by step t+k-1, and the 1-step
    pieces extend the identity, so the same products run in the same order
    whichever windows were asked for first.  One-row policies share entries
    across t, and pairs of them share X.
    """

    def __init__(
        self, m: DecMdpCom, cand1: Sequence[LocalGoalPolicy], cand2: Sequence[LocalGoalPolicy]
    ):
        _by_label(cand1, 1)
        _by_label(cand2, 2)
        self.m, self.cand1, self.cand2 = m, cand1, cand2
        n1, n2 = m.agent1.n_states, m.agent2.n_states
        self.phi = np.zeros((n1, n2)) if m.potential is None else m.potential
        self.E = expected_extra(m) if m.extra_reward is not None else None
        self.cache: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self.extras: Dict[tuple, np.ndarray] = {}

    def pieces(self, agent_idx: int, pol: LocalGoalPolicy, t: int, k: int):
        agent = self.m.agent1 if agent_idx == 1 else self.m.agent2
        key = (agent_idx, pol.label, t if len(pol.actions) > 1 else 0, k)
        if key in self.cache:
            return self.cache[key]
        if k == 1:
            M, c = np.eye(agent.n_states), np.zeros(agent.n_states)
        else:
            M, c = self.pieces(agent_idx, pol, t, k - 1)
        acts = pol.actions[pol.row_at(t + k - 1)]
        c = c + M @ agent.action_cost[acts]
        M = M @ agent.transition[np.arange(agent.n_states), acts]
        self.cache[key] = (M, c)
        return M, c

    def extra(self, pol1: LocalGoalPolicy, pol2: LocalGoalPolicy, t: int, k: int):
        """X[s1, s2]: the expected extra reward over the window [t, t+k), with
        R(tau)[s1, s2] = E[a1(s1, tau), a2(s2, tau), s1, s2] gathered at the
        states where step tau starts:
        X(t, 1) = R(t), X(t, k) = X(t, k-1) + M1(t, k-1) @ R(t+k-1) @ M2(t, k-1).T."""
        one_row = len(pol1.actions) == 1 and len(pol2.actions) == 1
        key = (pol1.label, pol2.label, 0 if one_row else t, k)
        if key in self.extras:
            return self.extras[key]
        tau = t + k - 1
        R = self.E[
            pol1.actions[pol1.row_at(tau)][:, None],
            pol2.actions[pol2.row_at(tau)][None, :],
            np.arange(self.m.agent1.n_states)[:, None],
            np.arange(self.m.agent2.n_states)[None, :],
        ]
        if k > 1:
            M1, _ = self.pieces(1, pol1, t, k - 1)
            M2, _ = self.pieces(2, pol2, t, k - 1)
            R = self.extra(pol1, pol2, t, k - 1) + M1 @ R @ M2.T
        self.extras[key] = R
        return R

    def layer_scores(self, t: int, k: int, V: np.ndarray, rows):
        """Score candidate pairs on the (k, t) layer, every state at once.

        rows is a sequence of (i1, [(i2, cells), ...]): positions in the two
        candidate lists, and whatever the caller wants handed back with each
        score (the evaluator's flat state indices).  Yields (i1, i2, cells, F)
        in that order, F[s1, s2] being the value at t of assigning
        (cand1[i1], cand2[i2], k) in (s1, s2) with V[t + k] beyond the
        window.  Only V[t + k] is read, so the caller may update V[t] between
        yields.  F is one buffer that the next yield overwrites: read it
        before asking for the next.

        Expected action costs accumulate per agent; the state-based reward
        telescopes through the potential, leaving end-of-window potential
        minus the starting one; the exchange cost lands once; an extra reward
        enters as the window's X (extra, the same M1 @ R @ M2.T products step
        by step); the future value enters through the joint k-step
        propagator, M1 @ W @ M2.T, whose left product is shared by every g2
        paired with one g1.
        """
        m, phi = self.m, self.phi
        W = phi + V[t + k]
        A, P, F = np.empty_like(W), np.empty_like(W), np.empty_like(W)
        for i1, row in rows:
            M1, c1 = self.pieces(1, self.cand1[i1], t, k)
            np.matmul(M1, W, out=A)
            for i2, cells in row:
                M2, c2 = self.pieces(2, self.cand2[i2], t, k)
                # c1 + c2 - phi + comm_cost (+ X) + A @ M2.T, summed left to right
                np.add(c1[:, None], c2[None, :], out=F)
                np.subtract(F, phi, out=F)
                np.add(F, m.comm_cost, out=F)
                if self.E is not None:
                    F += self.extra(self.cand1[i1], self.cand2[i2], t, k)
                np.matmul(A, M2.T, out=P)
                F += P
                yield i1, i2, cells, F

    def evaluate_table(self, g1: np.ndarray, g2: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Value table of an array assignment table; V[horizon] = 0.

        Each t groups its cells by the packed code (k, g1, g2) and scores
        every group once, layer by layer, so one M1 @ W is alive at a time."""
        m = self.m
        nc1, nc2 = len(self.cand1), len(self.cand2)
        V = np.zeros((m.horizon + 1, m.agent1.n_states, m.agent2.n_states))
        for t in range(m.horizon - 1, -1, -1):
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
                for _, _, idx, F in self.layer_scores(t, kk, V, rows.items()):
                    Vt[idx] = F.reshape(-1)[idx]
        return V


def _by_label(pols: Sequence[LocalGoalPolicy], agent: int) -> Dict[str, LocalGoalPolicy]:
    """The agent's policies keyed by label, first seen first.

    Window propagators are cached by label, so two policies that share a
    label but act differently would silently share propagators; that is
    rejected.  Copies that act identically are harmless and collapse."""
    out: Dict[str, LocalGoalPolicy] = {}
    for pol in pols:
        first = out.setdefault(pol.label, pol)
        if first is not pol and not np.array_equal(first.actions, pol.actions):
            raise ValueError(
                f"agent {agent} has two different policies labelled {pol.label!r}; "
                "candidate labels must identify their policies"
            )
    return out


def check_windows(mech: LgoMechanism, m: DecMdpCom) -> None:
    """Reject a goal-window table that does not fit the model: a shape other
    than (T, n1, n2), or a window shorter than one step or running past the
    horizon (the first such cell in (t, s1, s2) order is named)."""
    T = m.horizon
    need = (T, m.agent1.n_states, m.agent2.n_states)
    for name in ("g1", "g2", "k"):
        shape = getattr(mech, name).shape
        if shape != need:
            raise ValueError(f"mechanism table {name} has shape {shape}, the domain needs {need}")
    bad = (mech.k < 1) | (mech.k > (T - np.arange(T))[:, None, None])
    if bad.any():
        t, s1, s2 = (int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"assignment at ({s1}, {s2}, {t}) has window {int(mech.k[t, s1, s2])}, "
            f"which does not fit before the horizon {T}"
        )


def evaluate_lgo(mech: LgoMechanism, m: DecMdpCom) -> np.ndarray:
    """Value table of a goal-assignment mechanism's table; V[horizon] = 0.
    A table that does not fit the model (check_windows), or two different
    candidates under one label, is rejected."""
    check_windows(mech, m)
    return _WindowCache(m, mech.candidates1, mech.candidates2).evaluate_table(
        mech.g1, mech.g2, mech.k
    )


def default_candidates(agent: AgentModel, T: int) -> List[LocalGoalPolicy]:
    return [solve_local_mdp(agent, g, T) for g in agent.goal_candidates]


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
    scorer = _WindowCache(m, cand1, cand2)

    g1 = np.zeros((T, n1, n2), dtype=np.intp)
    g2 = np.zeros((T, n1, n2), dtype=np.intp)
    k_of = np.ones((T, n1, n2), dtype=np.intp)
    every_pair = [(i1, [(i2, None) for i2 in range(len(cand2))]) for i1 in range(len(cand1))]
    per_layer = n1 * n2 * len(cand1) * len(cand2)

    scored = 0
    sweep_counts: List[int] = []
    while len(sweep_counts) < max_sweeps:
        V = scorer.evaluate_table(g1, g2, k_of)
        changed = False
        for k in range(1, T):
            for t in range(T - k + 1):
                scored += per_layer
                for i1, i2, _, F in scorer.layer_scores(t, k, V, every_pair):
                    mask = F > V[t]
                    if mask.any():
                        changed = True
                        g1[t][mask] = i1
                        g2[t][mask] = i2
                        k_of[t][mask] = k
                        V[t][mask] = F[mask]
        sweep_counts.append((T - 1) * T * per_layer)
        if not changed:
            break
    else:  # stopped by max_sweeps
        V = scorer.evaluate_table(g1, g2, k_of)
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
