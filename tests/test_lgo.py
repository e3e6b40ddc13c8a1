"""Goal-assignment mechanism tests.

The window kernels are checked against joint path enumeration, the
evaluator against an independent recursive expectimax (on both the
dense-potential path and the general-reward path), and the solved
mechanism against Monte-Carlo execution of its own assignments.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from commplan.domains import build_production
from commplan.lgo import (
    GoalAssignment,
    LgoMechanism,
    LocalGoalPolicy,
    _WindowCache,
    default_candidates,
    evaluate_lgo,
    lgo_msbpi,
    mechanism_csv,
    solve_local_mdp,
)
from commplan.model import AgentModel, DecMdpCom, FactoredState
from commplan.msbpi import msbpi
from commplan.sim import SimConfig, monte_carlo

from conftest import TOY_GRID, blocked_agent, chain_agent, toy_model
from lgo_reference import table_mechanism
from oracles import delta_independence, png, rng

GO, WAIT = 0, 1


def stationary(label, a_at_0, a_at_1):
    return LocalGoalPolicy(label=label, actions=np.array([[a_at_0, a_at_1]]))


GO_POL = stationary("march", GO, WAIT)
WAIT_POL = stationary("idle", WAIT, WAIT)
LATE_POL = LocalGoalPolicy(label="late", actions=np.array([[WAIT, WAIT], [GO, WAIT]]))
POLICY_POOL = [GO_POL, WAIT_POL, LATE_POL]


def potential_toy(p1=0.7, p2=0.5, comm_cost=-0.4, horizon=3):
    """Chain pair rewarded through a state potential instead of a bonus."""
    return DecMdpCom(
        agent1=chain_agent("left", p1),
        agent2=chain_agent("right", p2),
        comm_cost=comm_cost,
        horizon=horizon,
        initial_state=FactoredState(0, 0),
        potential=np.add.outer([0.0, 2.0], [0.0, 1.0]),
    )


# ----------------------------------------------------------------- structure


def test_goal_assignment_window_validation():
    with pytest.raises(ValueError):
        GoalAssignment(GO_POL, WAIT_POL, 0)
    with pytest.raises(ValueError):
        GoalAssignment(GO_POL, WAIT_POL, -3)


def test_policy_row_selection():
    assert LATE_POL.action_at(0, 0) == WAIT
    assert LATE_POL.action_at(0, 1) == GO
    assert LATE_POL.action_at(0, 99) == GO  # rows clamp at the last one
    assert GO_POL.action_at(0, 99) == GO  # one row serves every time
    assert np.array_equal(GO_POL.row_at(np.arange(4)), [0, 0, 0, 0])
    assert np.array_equal(LATE_POL.row_at(np.arange(4)), [0, 1, 1, 1])


# ------------------------------------------------------------- local solver


def test_solve_local_needs_noop():
    agent = chain_agent()
    agent.noop = None
    with pytest.raises(ValueError):
        solve_local_mdp(agent, 1, 3)


def test_solve_local_at_goal_is_free_noop():
    agent = chain_agent(p=0.7)
    pol = solve_local_mdp(agent, 1, 4)
    for t in range(4):
        assert pol.action_at(1, t) == agent.noop
    assert np.all(pol.value[:, 1] == 0.0)


def test_solve_local_geometric_value():
    # expected cost of retrying a half-chance unit-cost move: about -2
    agent = chain_agent(p=0.5, cost_go=-1.0, cost_wait=-0.2)
    pol = solve_local_mdp(agent, 1, 30)
    assert pol.value[0, 0] == pytest.approx(-2.0, abs=0.01)


def test_solve_local_walks_shortest_grid_path():
    from commplan.domains import GridConfig, build_meeting

    cfg = GridConfig(width=5, height=5, p1=1.0, p2=1.0, start2=(4, 4))
    agent = build_meeting(cfg).model.agent1
    agent.action_cost = np.array([-1.0, -1, -1, -1, -1])
    goal = 2 * 5 + 1  # cell (2, 1): Manhattan distance 3 from (0, 0)
    pol = solve_local_mdp(agent, goal, 6)
    assert pol.value[0, 0] == pytest.approx(-3.0)
    s = 0
    for t in range(3):
        a = pol.action_at(s, t)
        row = agent.transition[s, a]
        s = int(np.argmax(row))
    assert s == goal


def test_solve_local_warns_when_goal_unreachable():
    agent = blocked_agent()
    with pytest.warns(UserWarning, match="cannot reach"):
        pol = solve_local_mdp(agent, 1, 3)
    assert pol.action_at(1, 0) == agent.noop  # still defined everywhere


def stranded_by_search(agent, goal):
    """States with no path to goal, by a graph search backwards from it."""
    reached, frontier = {goal}, [goal]
    while frontier:
        q = frontier.pop()
        for s in range(agent.n_states):
            if s not in reached and (agent.transition[s, :, q] > 0.0).any():
                reached.add(s)
                frontier.append(s)
    return agent.n_states - len(reached)


@pytest.mark.parametrize("seed", range(20))
def test_stranded_count_matches_a_search(seed):
    draw = np.random.default_rng(seed)
    n, n_actions = int(draw.integers(2, 8)), int(draw.integers(1, 4))
    tr = draw.random((n, n_actions, n)) * (draw.random((n, n_actions, n)) < 0.25)
    tr[..., 0] += tr.sum(axis=2) == 0.0  # an empty row moves to state 0
    tr /= tr.sum(axis=2, keepdims=True)
    agent = AgentModel(n_states=n, actions=tuple(range(n_actions)), transition=tr, noop=0)
    for goal in range(n):
        want = stranded_by_search(agent, goal)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_local_mdp(agent, goal, 2)
        assert [str(w.message) for w in caught] == (
            [f"goal state {goal}: {want} states cannot reach it; policy is best-effort there"]
            if want else []
        )


def test_default_candidates_follow_goal_list():
    agent = chain_agent()
    cands = default_candidates(agent, 3)
    assert [c.label for c in cands] == ["goal_1"]


# ------------------------------------------------------------ window kernels


def png_path_oracle(asg, m, s, t, k):
    out = np.zeros((m.agent1.n_states, m.agent2.n_states))

    def walk(s1, s2, j, mass):
        if j == k:
            out[s1, s2] += mass
            return
        a1 = asg.g1.action_at(s1, t + j)
        a2 = asg.g2.action_at(s2, t + j)
        row1 = m.agent1.transition[s1, a1]
        row2 = m.agent2.transition[s2, a2]
        for q1 in np.nonzero(row1 > 0.0)[0]:
            for q2 in np.nonzero(row2 > 0.0)[0]:
                walk(int(q1), int(q2), j + 1, mass * row1[q1] * row2[q2])

    walk(s.s1, s.s2, 0, 1.0)
    return out


def test_png_single_step_is_joint_row():
    m = toy_model(p1=0.7, p2=0.5)
    asg = GoalAssignment(GO_POL, GO_POL, 1)
    got = png(asg, m, FactoredState(0, 0), 0, 1)
    want = np.outer([0.3, 0.7], [0.5, 0.5])
    np.testing.assert_allclose(got, want, atol=1e-12)


@given(
    seed=st.integers(0, 10**6),
    k=st.integers(1, 3),
    params=st.sampled_from(TOY_GRID),
)
def test_png_matches_path_oracle_and_normalizes(seed, k, params):
    m = toy_model(**params)
    k = min(k, m.horizon)
    pick = np.random.default_rng(seed)
    asg = GoalAssignment(
        POLICY_POOL[pick.integers(3)], POLICY_POOL[pick.integers(3)], k
    )
    for s1 in range(2):
        for s2 in range(2):
            s = FactoredState(s1, s2)
            got = png(asg, m, s, 0, k)
            np.testing.assert_allclose(got, png_path_oracle(asg, m, s, 0, k), atol=1e-12)
            assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_png_rejects_bad_windows():
    m = toy_model(horizon=3)
    asg = GoalAssignment(GO_POL, GO_POL, 1)
    with pytest.raises(ValueError):
        png(asg, m, FactoredState(0, 0), 0, 0)
    with pytest.raises(ValueError):
        png(asg, m, FactoredState(0, 0), 2, 2)  # window runs past the horizon


def test_rng_hand_values():
    # deterministic single-step move costing one per agent, exchange at -1
    m = toy_model(p1=1.0, p2=1.0, comm_cost=-1.0, horizon=3, bonus=0.0,
                  cost_go=-1.0, cost_wait=0.0)
    asg = GoalAssignment(GO_POL, GO_POL, 1)
    got = rng(asg, m, FactoredState(0, 0), 0, FactoredState(1, 1), 1)
    assert got == pytest.approx(-3.0)
    # both agents already at their goals holding free no-ops: just the charge
    got = rng(asg, m, FactoredState(1, 1), 0, FactoredState(1, 1), 1)
    assert got == pytest.approx(-1.0)
    # the exchange is charged even when the window ends exactly at the horizon
    got = rng(asg, m, FactoredState(1, 1), 2, FactoredState(1, 1), 1)
    assert got == pytest.approx(-1.0)
    # zero action costs and free exchange
    free = toy_model(p1=1.0, p2=1.0, comm_cost=0.0, horizon=3, bonus=0.0,
                     cost_go=0.0, cost_wait=0.0)
    assert rng(asg, free, FactoredState(0, 0), 0, FactoredState(1, 1), 1) == 0.0
    # impossible endings report zero
    assert rng(asg, m, FactoredState(0, 0), 0, FactoredState(0, 0), 1) == 0.0


def test_rng_two_step_window():
    m = toy_model(p1=1.0, p2=1.0, comm_cost=-1.0, horizon=3, bonus=0.0,
                  cost_go=-1.0, cost_wait=0.0)
    asg = GoalAssignment(GO_POL, GO_POL, 2)
    # step one moves both for -1 each, step two holds free no-ops, then -1
    got = rng(asg, m, FactoredState(0, 0), 0, FactoredState(1, 1), 2)
    assert got == pytest.approx(-3.0)


def window_cases():
    """(model, [(agent index, policy), ...]): every toy with every pool
    policy on both sides, and production at T=4 with its quotas."""
    cases = [
        (toy_model(**params), [(i, pol) for i in (1, 2) for pol in POLICY_POOL])
        for params in TOY_GRID
    ]
    dom = build_production(0.8, 0.8, T=4, comm_cost=-0.1)
    quotas = [(1, pol) for pol in dom.candidates1] + [(2, pol) for pol in dom.candidates2]
    return cases + [(dom.model, quotas)]


@pytest.mark.parametrize(
    "m, policies", window_cases(), ids=[f"toy{i}" for i in range(len(TOY_GRID))] + ["production"]
)
def test_window_pieces_do_not_depend_on_build_order(m, policies):
    # a (t, k) window asked for first must equal one built for k = 1, 2, ...
    T = m.horizon
    pools = [[pol for i, pol in policies if i == agent_idx] for agent_idx in (1, 2)]
    for agent_idx, pol in policies:
        for t in range(T):
            in_order = _WindowCache(m, *pools)
            for k in range(1, T - t + 1):
                M, c = in_order.pieces(agent_idx, pol, t, k)
                M_direct, c_direct = _WindowCache(m, *pools).pieces(agent_idx, pol, t, k)
                assert np.array_equal(M_direct, M), (pol.label, t, k)
                assert np.array_equal(c_direct, c), (pol.label, t, k)


def test_rng_rejects_bad_windows():
    m = toy_model(horizon=3)
    asg = GoalAssignment(GO_POL, GO_POL, 1)
    with pytest.raises(ValueError):
        rng(asg, m, FactoredState(0, 0), 0, FactoredState(1, 1), 0)
    with pytest.raises(ValueError):
        rng(asg, m, FactoredState(0, 0), 3, FactoredState(1, 1), 1)


# ------------------------------------------------------------------ evaluate


def lgo_eval_oracle(table, m):
    """Recursive window expectimax; the library uses grouped dense algebra."""
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    V = np.zeros((T + 1, n1, n2))
    for t in range(T - 1, -1, -1):
        for s1 in range(n1):
            for s2 in range(n2):
                asg = table[(s1, s2, t)]

                def rec(x1, x2, j):
                    if j == asg.k:
                        return m.comm_cost + V[t + asg.k, x1, x2]
                    a1 = asg.g1.action_at(x1, t + j)
                    a2 = asg.g2.action_at(x2, t + j)
                    row1 = m.agent1.transition[x1, a1]
                    row2 = m.agent2.transition[x2, a2]
                    total = 0.0
                    for q1 in np.nonzero(row1 > 0.0)[0]:
                        for q2 in np.nonzero(row2 > 0.0)[0]:
                            r = m.step_reward(x1, x2, a1, a2, int(q1), int(q2))
                            total += row1[q1] * row2[q2] * (
                                r + rec(int(q1), int(q2), j + 1)
                            )
                    return total

                V[t, s1, s2] = rec(s1, s2, 0)
    return V


def evaluate_table(table, m):
    """The library's evaluator on a dict (s1, s2, t) -> GoalAssignment table."""
    return evaluate_lgo(table_mechanism(table, m), m)


def random_table(m, seed):
    pick = np.random.default_rng(seed)
    table = {}
    for t in range(m.horizon):
        for s1 in range(m.agent1.n_states):
            for s2 in range(m.agent2.n_states):
                k = int(pick.integers(1, m.horizon - t + 1))
                table[(s1, s2, t)] = GoalAssignment(
                    POLICY_POOL[pick.integers(3)], POLICY_POOL[pick.integers(3)], k
                )
    return table


def test_evaluate_lgo_horizon_row_is_zero():
    m = toy_model()
    table = random_table(m, 3)
    V = evaluate_table(table, m)
    np.testing.assert_array_equal(V[m.horizon], 0.0)


def test_evaluate_lgo_two_step_chain_closed_form():
    m = toy_model(p1=1.0, p2=1.0, comm_cost=-1.0, horizon=2, bonus=0.0,
                  cost_go=-1.0, cost_wait=0.0)
    table = {}
    for s1 in range(2):
        for s2 in range(2):
            table[(s1, s2, 0)] = GoalAssignment(GO_POL, GO_POL, 2)
            table[(s1, s2, 1)] = GoalAssignment(GO_POL, GO_POL, 1)
    V = evaluate_table(table, m)
    # two moves at -1 each, free holds after landing, one charged exchange
    assert V[0, 0, 0] == pytest.approx(-3.0)
    assert V[0, 1, 1] == pytest.approx(-1.0)  # both hold free, exchange only
    assert V[1, 1, 1] == pytest.approx(-1.0)


def test_evaluate_lgo_rejects_overlong_window():
    m = toy_model(horizon=2)
    table = {
        (s1, s2, t): GoalAssignment(GO_POL, GO_POL, 2)
        for t in range(2)
        for s1 in range(2)
        for s2 in range(2)
    }
    with pytest.raises(ValueError):
        evaluate_table(table, m)


@pytest.mark.parametrize("window", [0, -2])
def test_evaluate_lgo_rejects_a_window_shorter_than_one_step(window):
    dom = build_production(0.8, 0.8, T=4, comm_cost=-0.1)
    mech = lgo_msbpi(dom.model, dom.candidates1, dom.candidates2)
    mech.k[1, 3, 4] = window
    with pytest.raises(ValueError, match=rf"assignment at \(3, 4, 1\) has window {window}"):
        evaluate_lgo(mech, dom.model)
    mech.k[:] = 3
    # the first cell in (t, s1, s2) order whose window ends past T=4
    with pytest.raises(ValueError, match=r"assignment at \(0, 0, 2\) has window 3"):
        evaluate_lgo(mech, dom.model)


def test_evaluate_lgo_rejects_a_table_of_another_shape():
    dom = build_production(0.8, 0.8, T=4, comm_cost=-0.1)
    mech = lgo_msbpi(dom.model, dom.candidates1, dom.candidates2)
    longer = build_production(0.8, 0.8, T=5, comm_cost=-0.1)
    with pytest.raises(ValueError, match=r"shape \(4, 25, 65\).*\(5, 36, 84\)"):
        evaluate_lgo(mech, longer.model)


@given(seed=st.integers(0, 10**6), params=st.sampled_from(TOY_GRID))
def test_evaluate_lgo_matches_oracle_general_rewards(seed, params):
    m = toy_model(**params)
    table = random_table(m, seed)
    np.testing.assert_allclose(
        evaluate_table(table, m), lgo_eval_oracle(table, m), atol=1e-9
    )


@given(seed=st.integers(0, 10**6))
def test_evaluate_lgo_matches_oracle_potential_rewards(seed):
    m = potential_toy()
    table = random_table(m, seed)
    np.testing.assert_allclose(
        evaluate_table(table, m), lgo_eval_oracle(table, m), atol=1e-9
    )


# ----------------------------------------------------------------- mechanism


def test_lgo_needs_candidates():
    m = toy_model()
    with pytest.raises(ValueError):
        lgo_msbpi(m, candidates1=[], candidates2=[GO_POL])


def test_lgo_rejects_models_validate_rejects():
    d = build_production(0.8, 0.8, T=4, comm_cost=5.0)
    with pytest.raises(ValueError, match="comm_cost must be <= 0"):
        lgo_msbpi(d.model, d.candidates1, d.candidates2)
    m = toy_model()
    m.agent1.transition[0, 0] = [np.nan, 1.0]
    with pytest.raises(ValueError, match="non-finite"):
        lgo_msbpi(m)


def test_lgo_value_simulates_to_itself(production_08):
    domain, mech = production_08
    s = domain.model.initial_state
    planned = mech.value[0, s.s1, s.s2]
    res = monte_carlo(SimConfig(domain=domain, strategy=mech, episodes=1500, seed=11))
    assert abs(res.mean_utility - planned) <= 3.0 * res.std_error


def k1_restricted_oracle(m, cand1, cand2):
    """Best value when a fresh exchange happens after every single step."""
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    V = np.zeros((T + 1, n1, n2))
    succ = {}
    rewards = {}

    def successors(agent, s, a):
        key = (agent is m.agent2, s, a)
        if key not in succ:
            row = agent.transition[s, a]
            succ[key] = [(int(q), row[q]) for q in np.nonzero(row > 0.0)[0]]
        return succ[key]

    def reward(*key):
        if key not in rewards:
            rewards[key] = m.step_reward(*key)
        return rewards[key]

    for t in range(T - 1, -1, -1):
        for s1 in range(n1):
            for s2 in range(n2):
                best = -np.inf
                for g1 in cand1:
                    a1 = g1.action_at(s1, t)
                    succ1 = successors(m.agent1, s1, a1)
                    for g2 in cand2:
                        a2 = g2.action_at(s2, t)
                        total = 0.0
                        for q1, p1 in succ1:
                            for q2, p2 in successors(m.agent2, s2, a2):
                                r = reward(s1, s2, a1, a2, q1, q2)
                                total += p1 * p2 * (
                                    r + m.comm_cost + V[t + 1, q1, q2]
                                )
                        best = max(best, total)
                V[t, s1, s2] = best
    return V


def test_free_exchanges_make_longer_windows_worthless():
    # with free exchanges a longer window can tie but never beat per-step
    # synchronization, so the converged value matches the single-step
    # restriction exactly (ties keep whichever label was installed first)
    domain = build_production(0.6, 0.6, T=4, comm_cost=0.0)
    mech = lgo_msbpi(domain.model, domain.candidates1, domain.candidates2)
    want = k1_restricted_oracle(
        domain.model, domain.candidates1, domain.candidates2
    )
    np.testing.assert_allclose(mech.value, want, atol=1e-9)


def test_lgo_value_never_exceeds_tree_search_on_toys():
    for params in TOY_GRID:
        m = toy_model(**params)
        lgo_val = lgo_msbpi(m).value
        tree_val = msbpi(m).value
        assert np.all(lgo_val <= tree_val + 1e-9)


def test_lgo_monotone_over_sweeps():
    m = toy_model(comm_cost=-0.1)
    prev = None
    for sweeps in (1, 2, 3, 4):
        val = lgo_msbpi(m, max_sweeps=sweeps).value
        if prev is not None:
            assert np.all(val >= prev - 1e-9)
        prev = val


def test_sweep_work_matches_candidate_grid():
    m = toy_model()
    mech = lgo_msbpi(m)
    T, n1, n2 = m.horizon, 2, 2
    per_sweep = (T - 1) * T * n1 * n2 * 1 * 1
    assert mech.sweep_candidate_counts == [per_sweep] * mech.sweeps
    assert mech.candidates_considered == per_sweep * mech.sweeps


def test_sweep_work_matches_candidate_grid_production(production_08):
    domain, mech = production_08
    m = domain.model
    T = m.horizon
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    per_sweep = (
        (T - 1) * T * n1 * n2 * len(domain.candidates1) * len(domain.candidates2)
    )
    assert mech.sweep_candidate_counts == [per_sweep] * mech.sweeps
    assert mech.candidates_considered == per_sweep * mech.sweeps


def test_lgo_assignments_fit_horizon(production_08):
    _, mech = production_08
    for (s1, s2, t), asg in mech.assignment.items():
        assert asg.k >= 1
        assert t + asg.k <= mech.value.shape[0] - 1


def test_mechanism_csv_format():
    m = toy_model()
    mech = lgo_msbpi(m)
    lines = mechanism_csv(mech).strip().split("\n")
    assert lines[0] == "s1,s2,t,g1,g2,k,V"
    assert len(lines) == 1 + m.horizon * 2 * 2
    s1, s2, t, g1, g2, k, v = lines[1].split(",")
    assert (s1, s2, t) == ("0", "0", "0")
    assert int(k) >= 1
    float(v)


# ---------------------------------------------------------- interference gap


def test_delta_independence_zero_for_independent_costs():
    oracle = lambda agent, s, own, other: 4.0 + own  # noqa: E731
    delta, bound = delta_independence(oracle, [0, 1], [0, 1], [0, 1, 2], T=7)
    assert delta == 0.0 and bound == 0.0


def test_delta_independence_single_interfering_pair():
    def oracle(agent, s, own, other):
        if agent == 1 and s == 0 and own == 0 and other == 1:
            return -5.0
        return 0.0

    delta, bound = delta_independence(oracle, [0], [0, 1], [0, 1], T=3)
    assert delta == 5.0
    assert bound == 2 * 3 * 5.0


def test_delta_independence_symmetric_oracle():
    def oracle(agent, s, own, other):
        return float(own * other)  # same spread seen from either side

    d12, _ = delta_independence(oracle, [0, 1], [0, 1], [0], T=5)
    d21, _ = delta_independence(oracle, [0, 1], [0, 1], [0], T=5)
    assert d12 == d21 == 1.0


# ------------------------------------------------- array table and counters


def test_returned_value_is_the_evaluated_table():
    # a converged run returns the table it evaluated before its last sweep;
    # a run cut by max_sweeps is evaluated once more
    domain = build_production(0.6, 0.6, T=4, comm_cost=-1.0)
    m = domain.model
    done = lgo_msbpi(m, domain.candidates1, domain.candidates2)
    cut = lgo_msbpi(m, domain.candidates1, domain.candidates2, max_sweeps=1)
    assert 1 == cut.sweeps < done.sweeps
    assert np.array_equal(done.value, evaluate_lgo(done, m))
    assert np.array_equal(cut.value, evaluate_lgo(cut, m))
    assert not np.array_equal(cut.value, done.value)


def test_candidates_scored_counts_fitting_layers(production_08):
    domain, mech = production_08
    m = domain.model
    T = m.horizon
    fitting = sum(1 for k in range(1, T) for t in range(T) if t + k <= T)
    per_layer = m.agent1.n_states * m.agent2.n_states * 7 * 7
    assert (mech.sweeps, fitting, per_layer) == (3, 54, 1_239_161)
    assert mech.candidates_scored == 200_744_082
    assert mech.candidates_scored < mech.candidates_considered


def test_assignment_view_is_read_only_and_complete():
    m = toy_model()
    mech = lgo_msbpi(m, POLICY_POOL, POLICY_POOL)
    view = mech.assignment
    assert len(view) == m.horizon * 2 * 2
    assert list(view)[:3] == [(0, 0, 0), (0, 1, 0), (1, 0, 0)]
    assert (0, 0, m.horizon) not in view and (-1, 0, 0) not in view
    for bad in [(0, 0), 0, (0.5, 0, 0), ("a", 0, 0), (0, 0, 1.0), "abc"]:
        with pytest.raises(KeyError):
            view[bad]
        assert bad not in view
    for (s1, s2, t), asg in view.items():
        assert asg.g1 is mech.candidates1[mech.g1[t, s1, s2]]
        assert asg.g2 is mech.candidates2[mech.g2[t, s1, s2]]
        assert asg.k == mech.k[t, s1, s2]
    with pytest.raises(TypeError):
        view[(0, 0, 0)] = GoalAssignment(GO_POL, GO_POL, 1)


def relabelled(pol, label):
    return LocalGoalPolicy(label, pol.actions, pol.value)


def test_lgo_rejects_two_policies_with_one_label():
    domain = build_production(0.6, 0.6, T=4, comm_cost=-1.0)
    cand1 = list(domain.candidates1)
    clash = relabelled(cand1[3], cand1[0].label)
    with pytest.raises(ValueError, match=repr(cand1[0].label)):
        lgo_msbpi(domain.model, cand1 + [clash], domain.candidates2)
    # a copy that acts the same shares its propagators harmlessly
    twin = relabelled(cand1[0], cand1[0].label)
    mech = lgo_msbpi(domain.model, cand1 + [twin], domain.candidates2)
    want = lgo_msbpi(domain.model, cand1, domain.candidates2)
    assert np.array_equal(mech.value, want.value)


def test_evaluate_lgo_rejects_two_policies_with_one_label():
    m = toy_model()
    table = random_table(m, 5)
    table[(0, 0, 0)] = GoalAssignment(relabelled(WAIT_POL, "march"), GO_POL, 1)
    with pytest.raises(ValueError, match="'march'"):
        evaluate_table(table, m)
    twin = dict(table)
    twin[(0, 0, 0)] = GoalAssignment(relabelled(GO_POL, "march"), GO_POL, 1)
    table[(0, 0, 0)] = GoalAssignment(GO_POL, GO_POL, 1)
    np.testing.assert_array_equal(evaluate_table(twin, m), evaluate_table(table, m))


def test_evaluate_lgo_checks_the_labels_of_a_mechanism_built_directly():
    m = toy_model()
    T = m.horizon
    first = np.zeros((T, 2, 2), dtype=np.intp)
    mech = LgoMechanism(
        candidates1=[GO_POL, relabelled(WAIT_POL, "march")],
        candidates2=[GO_POL],
        g1=first,
        g2=first,
        k=first + 1,
        value=np.zeros((T + 1, 2, 2)),
    )
    with pytest.raises(ValueError, match="'march'"):
        evaluate_lgo(mech, m)
