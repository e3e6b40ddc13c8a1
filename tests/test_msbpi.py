"""Tree-pair policy iteration against exhaustive oracles.

The main oracle enumerates every legal pair of equal-size policy trees
(live-only construction, branches closed by communication or running to the
horizon) and backs up their values with the recursive expectimax from the
kernel tests.  A second, structurally different oracle covers the length-,;
two regime: one primitive joint action followed by an exchange reduces to a
flat backward induction over macro steps.
"""

import importlib
import itertools

import numpy as np
import pytest

from commplan.domains import GridConfig, build_meeting
from commplan.model import FactoredState
from commplan.msbpi import (
    DEFAULT_NODE_BUDGET,
    GeneralMechanism,
    NodeBudgetExceeded,
    _evaluate_immediate_comm,
    evaluate_policy,
    immediate_comm_pairs,
    improve_state,
    iteration_csv,
    msbpi,
)
from commplan.options import COMMUNICATE, PolicyTree

from conftest import TOY_GRID, chain_agent, toy_model
from oracles import is_option, successors
from test_options import expectimax_oracle


def _succ(agent, s, act):
    if act is None:
        return [(s, 1.0)]
    row = agent.transition[s, act]
    return [(int(q), float(row[q])) for q in np.nonzero(row > 0.0)[0]]


# ------------------------------------------------------- enumeration oracle


def enumerate_complete_trees(agent, root, max_len):
    """All live-only trees up to max_len levels as (tree, size, open) rows.

    Every live node gets an action level by level; a tree closes when all
    branches have communicated and stays open when live states remain at
    depth max_len.
    """
    choices = list(range(agent.n_actions)) + [COMMUNICATE]
    out = []

    def extend(assignment, live, depth):
        if not live:
            out.append((PolicyTree(root, dict(assignment)), depth, False))
            return
        if depth == max_len:
            out.append((PolicyTree(root, dict(assignment)), depth, True))
            return
        states = sorted(live)
        for combo in itertools.product(choices, repeat=len(states)):
            asg = dict(assignment)
            nxt = set()
            for s, a in zip(states, combo):
                asg[(s, depth)] = a
                if a != COMMUNICATE:
                    nxt.update(int(q) for q in successors(agent, s, a))
            extend(asg, nxt, depth + 1)

    extend({}, {root}, 0)
    return out


def enumeration_value(m, cap=None):
    """Optimal value over all equal-size option pairs by backward induction.

    An open frontier is legal only when the pair runs exactly to the
    horizon; pair values come from the independent expectimax oracle.
    """
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    V = np.zeros((T + 1, n1, n2))
    for t in reversed(range(T)):
        remaining = T - t
        max_len = remaining if cap is None else min(cap, remaining)
        catalog1 = {
            s1: enumerate_complete_trees(m.agent1, s1, max_len) for s1 in range(n1)
        }
        catalog2 = {
            s2: enumerate_complete_trees(m.agent2, s2, max_len) for s2 in range(n2)
        }
        for s1 in range(n1):
            for s2 in range(n2):
                best = -np.inf
                for tree1, k1, open1 in catalog1[s1]:
                    for tree2, k2, open2 in catalog2[s2]:
                        if k1 != k2:
                            continue
                        if (open1 or open2) and k1 != remaining:
                            continue
                        v = expectimax_oracle(
                            tree1, tree2, m, FactoredState(s1, s2), t, V
                        )
                        if v > best:
                            best = v
                V[t, s1, s2] = best
    return V


# ------------------------------------------------------- macro-step oracle


def _last_level_value(m, n1s, n2s, u1, u2, tt, W):
    """Value of one final level executed at time tt, then W at tt+1."""
    comm1 = u1 == COMMUNICATE
    comm2 = u2 == COMMUNICATE
    act1 = None if comm1 else u1
    act2 = None if comm2 else u2
    charge = m.comm_cost if (comm1 or comm2) and tt + 1 < m.horizon else 0.0
    total = 0.0
    for q1, p1 in _succ(m.agent1, n1s, act1):
        for q2, p2 in _succ(m.agent2, n2s, act2):
            r = m.step_reward(n1s, n2s, act1, act2, q1, q2)
            total += p1 * p2 * (r + charge + W[tt + 1, q1, q2])
    return total


def macro_mmdp_oracle(m):
    """Flat backward induction matching option pairs capped at two levels.

    Choices per state and time: freeze for one step by exchanging now, run
    any single level straight into the horizon (either agent may act or
    freeze on an exchange there), or take one primitive joint action
    followed by a second level that must be all communication unless the
    pair ends exactly at the horizon.
    """
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    W = np.zeros((T + 1, n1, n2))
    acts1 = list(range(m.agent1.n_actions))
    acts2 = list(range(m.agent2.n_actions))
    for t in reversed(range(T)):
        for s1 in range(n1):
            for s2 in range(n2):
                if t + 1 == T:
                    # last step: every one-level combination is legal
                    best = max(
                        _last_level_value(m, s1, s2, u1, u2, t, W)
                        for u1 in acts1 + [COMMUNICATE]
                        for u2 in acts2 + [COMMUNICATE]
                    )
                    W[t, s1, s2] = best
                    continue
                best = (
                    m.step_reward(s1, s2, None, None, s1, s2)
                    + m.comm_cost
                    + W[t + 1, s1, s2]
                )
                for a1 in acts1:
                    succ1 = _succ(m.agent1, s1, a1)
                    live1 = sorted({q for q, _ in succ1})
                    for a2 in acts2:
                        succ2 = _succ(m.agent2, s2, a2)
                        live2 = sorted({q for q, _ in succ2})
                        if t + 2 > T:
                            continue
                        if t + 2 < T:
                            maps1 = [dict.fromkeys(live1, COMMUNICATE)]
                            maps2 = [dict.fromkeys(live2, COMMUNICATE)]
                        else:
                            c1 = acts1 + [COMMUNICATE]
                            c2 = acts2 + [COMMUNICATE]
                            maps1 = [
                                dict(zip(live1, combo))
                                for combo in itertools.product(c1, repeat=len(live1))
                            ]
                            maps2 = [
                                dict(zip(live2, combo))
                                for combo in itertools.product(c2, repeat=len(live2))
                            ]
                        for asg1 in maps1:
                            for asg2 in maps2:
                                v = 0.0
                                for q1, p1 in succ1:
                                    for q2, p2 in succ2:
                                        r = m.step_reward(s1, s2, a1, a2, q1, q2)
                                        v += p1 * p2 * (
                                            r
                                            + _last_level_value(
                                                m, q1, q2, asg1[q1], asg2[q2], t + 1, W
                                            )
                                        )
                                best = max(best, v)
                W[t, s1, s2] = best
    return W


# ------------------------------------------------------------------- tests


def test_immediate_comm_pairs_cover_every_cell():
    m = toy_model()
    pairs = immediate_comm_pairs(m)
    assert len(pairs) == m.horizon * 2 * 2
    for (s1, s2, t), (t1, t2) in pairs.items():
        assert t1.assignment == {(s1, 0): COMMUNICATE}
        assert t2.assignment == {(s2, 0): COMMUNICATE}


def test_evaluate_immediate_comm_closed_form():
    # zero action costs and no state bonus: each step is a frozen exchange,
    # charged except for the one landing exactly at the horizon
    m = toy_model(comm_cost=-0.4, horizon=4, bonus=0.0, cost_go=0.0, cost_wait=0.0)
    V = evaluate_policy(immediate_comm_pairs(m), m)
    for t in range(m.horizon + 1):
        want = -0.4 * max(m.horizon - t - 1, 0)
        np.testing.assert_allclose(V[t], want, atol=1e-12)


def test_starting_value_is_the_value_of_its_own_mechanism():
    # the closed-form starting table must add its terms in joint_f_value's
    # order, so it is bit for bit the always-communicate pairs' value, and a
    # run that updates nothing returns the value of its own mechanism
    rng = np.random.default_rng(1)
    quiet = 0
    for _ in range(100):
        m = toy_model(
            p1=rng.uniform(0.05, 1.0),
            p2=rng.uniform(0.05, 1.0),
            comm_cost=-rng.uniform(0.0, 0.3),
            horizon=int(rng.integers(2, 8)),
            bonus=rng.uniform(0.0, 1.0),
            cost_go=-rng.uniform(0.5, 2.0),
            cost_wait=-rng.uniform(0.3, 1.0),
        )
        start = _evaluate_immediate_comm(m)
        assert np.array_equal(start, evaluate_policy(immediate_comm_pairs(m), m))
        mech = msbpi(m)
        if mech.iterations == 0:
            quiet += 1
            assert np.array_equal(mech.value, evaluate_policy(mech, m))
    assert quiet >= 50


def test_evaluate_policy_accepts_mechanism_or_dict():
    m = toy_model()
    pairs = immediate_comm_pairs(m)
    mech = GeneralMechanism(pairs=pairs, value=np.zeros((m.horizon + 1, 2, 2)))
    np.testing.assert_array_equal(
        evaluate_policy(mech, m), evaluate_policy(pairs, m)
    )


@pytest.mark.parametrize("params", TOY_GRID)
def test_msbpi_matches_enumeration_oracle(params):
    m = toy_model(**params)
    mech = msbpi(m)
    want = enumeration_value(m)
    np.testing.assert_allclose(mech.value, want, atol=1e-9)


@pytest.mark.parametrize("params", TOY_GRID)
def test_msbpi_capped_matches_macro_oracle(params):
    m = toy_model(**params)
    mech = msbpi(m, max_option_length=2)
    flat = macro_mmdp_oracle(m)
    np.testing.assert_allclose(mech.value, flat, atol=1e-9)
    np.testing.assert_allclose(mech.value, enumeration_value(m, cap=2), atol=1e-9)


def test_capped_value_never_exceeds_full():
    for params in TOY_GRID:
        m = toy_model(**params)
        full = msbpi(m).value
        capped = msbpi(m, max_option_length=2).value
        assert np.all(capped <= full + 1e-9)


def test_msbpi_returns_valid_equal_size_options():
    m = toy_model()
    mech = msbpi(m)
    for (s1, s2, t), (t1, t2) in mech.pairs.items():
        remaining = m.horizon - t
        assert t1.root_state == s1 and t2.root_state == s2
        assert t1.size == t2.size
        assert is_option(t1, m.agent1, remaining)
        assert is_option(t2, m.agent2, remaining)


def test_msbpi_value_consistent_with_reevaluation():
    m = toy_model()
    mech = msbpi(m)
    np.testing.assert_allclose(
        mech.value, evaluate_policy(mech, m), atol=1e-12
    )


def test_improve_state_silent_at_fixed_point():
    m = toy_model()
    mech = msbpi(m)
    for t in range(m.horizon):
        for s1 in range(2):
            for s2 in range(2):
                assert improve_state(FactoredState(s1, s2), t, mech.value, m) is None


def test_improve_state_rejects_exhausted_horizon():
    m = toy_model()
    V = np.zeros((m.horizon + 1, 2, 2))
    assert improve_state(FactoredState(0, 0), m.horizon, V, m) is None


def test_improve_state_finds_first_improvement():
    m = toy_model()
    V = evaluate_policy(immediate_comm_pairs(m), m)
    res = improve_state(FactoredState(0, 0), 0, V, m)
    assert res is not None
    (t1, t2), value = res
    assert value > V[0, 0, 0]
    assert t1.size == t2.size


def test_history_v_sum_strictly_increases():
    for params in TOY_GRID:
        mech = msbpi(toy_model(**params))
        sums = [row["v_sum"] for row in mech.history]
        assert all(b > a for a, b in zip(sums, sums[1:]))
        assert len(sums) == mech.iterations


def test_msbpi_is_deterministic():
    m = toy_model()
    a = msbpi(m)
    b = msbpi(m)
    assert np.array_equal(a.value, b.value)
    assert a.pairs == b.pairs
    assert a.history == b.history


def test_node_budget_guardrail_on_grid():
    model = build_meeting(GridConfig(p1=0.8, p2=0.8)).model
    with pytest.raises(NodeBudgetExceeded) as err:
        improve_state(model.initial_state, 0, np.zeros((201, 100, 100)), model,
                      node_budget=10)
    assert err.value.budget == 10
    assert err.value.created == 11
    assert "node budget 10 exceeded after creating 11 nodes" in str(err.value)
    assert DEFAULT_NODE_BUDGET == 10**6


def test_budget_stop_builds_no_immediate_exchange_pairs(monkeypatch):
    # the meeting grid has 2,000,000 (s1, s2, t) cells; a search stopped by
    # its budget in the first sweep must not pay for their pair table
    def refuse(m):
        raise AssertionError("immediate_comm_pairs built before it was needed")

    # the package's msbpi attribute is the function, so patch the module
    module = importlib.import_module("commplan.msbpi")
    monkeypatch.setattr(module, "immediate_comm_pairs", refuse)
    model = build_meeting(GridConfig(p1=0.8, p2=0.8)).model
    with pytest.raises(NodeBudgetExceeded):
        msbpi(model, node_budget=10)


def test_iteration_csv_shape():
    mech = msbpi(toy_model())
    text = iteration_csv(mech)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,cells_updated,nodes_created,v_sum,v_min,v_max"
    assert len(lines) == 1 + len(mech.history)
    first = lines[1].split(",")
    assert int(first[0]) == 1


def test_msbpi_rejects_invalid_model():
    m = toy_model()
    m.agent1.transition[0, 0, :] = 0.7  # rows no longer sum to one
    with pytest.raises(ValueError):
        msbpi(m)
    m = toy_model()
    m.agent1.transition[0, 0] = [np.nan, 1.0]  # every comparison with NaN is false
    with pytest.raises(ValueError, match="non-finite"):
        msbpi(m)


@pytest.mark.parametrize("length", [0, -3])
def test_msbpi_rejects_option_length_below_one(length):
    with pytest.raises(ValueError, match="max_option_length must be >= 1"):
        msbpi(toy_model(), max_option_length=length)


def test_sweep_nodes_cover_every_sweep():
    for params in TOY_GRID:
        mech = msbpi(toy_model(**params))
        assert len(mech.sweep_nodes) == mech.iterations + 1
        assert sum(mech.sweep_nodes) == mech.nodes_created
        assert mech.sweep_nodes[:-1] == [row["nodes_created"] for row in mech.history]
        assert 0 < mech.max_cell_nodes <= max(mech.sweep_nodes)


def test_max_cell_nodes_is_the_smallest_sufficient_budget():
    m = toy_model()
    mech = msbpi(m)
    tight = msbpi(m, node_budget=mech.max_cell_nodes)
    assert tight.pairs == mech.pairs
    assert np.array_equal(tight.value, mech.value)
    with pytest.raises(NodeBudgetExceeded) as err:
        msbpi(m, node_budget=mech.max_cell_nodes - 1)
    assert err.value.created == mech.max_cell_nodes


def test_msbpi_reads_transitions_edited_in_place():
    m = toy_model()
    before = msbpi(m)
    row = np.array([0.2, 0.8])
    m.agent1.transition[0, 0] = row  # still a valid model
    after = msbpi(m)
    fresh = toy_model()
    fresh.agent1.transition[0, 0] = row
    want = msbpi(fresh)
    assert not np.array_equal(after.value, before.value)
    assert after.pairs == want.pairs
    assert np.array_equal(after.value, want.value)
    assert after.nodes_created == want.nodes_created
    assert after.history == want.history

