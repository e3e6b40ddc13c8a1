"""Joint model container: rewards, transitions, validation."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from commplan.domains import GridConfig, build_meeting
from commplan.lgo import lgo_msbpi
from commplan.model import (
    AgentModel,
    DecMdpCom,
    FactoredState,
    _goal_reachable_within,
    require_valid,
    validate,
)
from commplan.msbpi import msbpi
from conftest import TOY_GRID, blocked_agent, chain_agent, toy_model
from oracles import goal_reachable_bfs, successors


def test_factored_state_fields():
    s = FactoredState(2, 5)
    assert (s.s1, s.s2) == (2, 5)


def test_agent_model_basics():
    a = chain_agent(p=0.7)
    assert a.n_actions == 2
    assert a.state_labels == ("0", "1")
    assert set(successors(a, 0, 0)) == {0, 1}
    assert set(successors(a, 0, 1)) == {0}
    assert a.violations() == []


def test_agent_model_violations_flag_bad_rows():
    tr = np.zeros((2, 2, 2))
    tr[0, 0, 0] = 0.5  # row sums to 0.5
    tr[0, 1, 0] = 1.0
    tr[1, 0, 1] = 1.0
    tr[1, 1, 1] = 1.0
    bad = AgentModel(n_states=2, actions=("a", "b"), transition=tr, name="bad")
    assert bad.violations()


def test_step_reward_sums_costs_potential_and_extra():
    m = toy_model(bonus=3.0, cost_go=-1.0, cost_wait=-0.2)
    # both 'go' and land in (1, 1): two action costs plus the bonus
    r = m.step_reward(0, 0, 0, 0, 1, 1)
    assert r == pytest.approx(-1.0 - 1.0 + 3.0)
    # frozen exchange step: no action costs, no bonus at (0, 0)
    assert m.step_reward(0, 0, None, None, 0, 0) == pytest.approx(0.0)
    # one frozen, one acting
    assert m.step_reward(0, 0, None, 1, 0, 0) == pytest.approx(-0.2)


def test_step_reward_includes_potential_difference():
    phi = np.add.outer([0.0, 1.0], [0.0, 2.0])
    m = DecMdpCom(
        agent1=chain_agent("a"),
        agent2=chain_agent("b"),
        comm_cost=-1.0,
        horizon=2,
        initial_state=FactoredState(0, 0),
        potential=phi,
    )
    # potential climbs by 1 + 2 when both agents move 0 -> 1
    r = m.step_reward(0, 0, 0, 0, 1, 1)
    assert r == pytest.approx(-1.0 - 1.0 + 3.0)
    mat = m.potential
    assert mat.shape == (2, 2)
    assert mat[1, 1] == pytest.approx(3.0)


def test_action_cost_none_is_free():
    a = chain_agent()
    free = AgentModel(n_states=2, actions=a.actions, transition=a.transition)
    assert np.array_equal(free.action_cost, np.zeros(free.n_actions))


def test_goal_mask_matches_predicate():
    g = DecMdpCom(
        agent1=chain_agent("a"),
        agent2=chain_agent("b"),
        comm_cost=-1.0,
        horizon=2,
        initial_state=FactoredState(0, 0),
        goal=[[False, False], [False, True]],
    )
    assert g.goal[1, 1] and not g.goal[0, 1]


def test_validate_clean_model_has_no_violations():
    assert validate(toy_model()) == []


def test_validate_warns_on_unreachable_goal():
    m = DecMdpCom(
        agent1=chain_agent("a"),
        agent2=chain_agent("b"),
        comm_cost=-1.0,
        horizon=2,
        initial_state=FactoredState(0, 0),
        goal=np.zeros((2, 2), dtype=bool),
    )
    # no state satisfies the goal, so reachability must warn
    notes = validate(m)
    assert notes and all(n.startswith("warning:") for n in notes)


def test_validate_flags_non_finite_numbers():
    m = toy_model()
    m.agent1.transition[0, 0] = [np.nan, 1.0]
    m.agent2.action_cost[1] = np.inf
    m.comm_cost = float("nan")
    notes = validate(m)
    assert "left: non-finite transition probability at state 0 action go" in notes
    assert "right: non-finite cost for action wait" in notes
    assert "comm_cost must be finite, got nan" in notes


def two_chain_model(**fields):
    fields = {"agent1": chain_agent("a"), "agent2": chain_agent("b"), **fields}
    return DecMdpCom(comm_cost=-1.0, horizon=2, initial_state=FactoredState(0, 0), **fields)


@pytest.mark.parametrize(
    "cost, shape",
    [([-1.0], "(1,)"), ([-1.0, -0.2, -5.0], "(3,)"), ([-1.0, -0.2, np.nan], "(3,)")],
    ids=["short", "long", "nan-past-the-last-action"],
)
def test_action_cost_must_match_the_actions(cost, shape):
    m = two_chain_model()
    m.agent2.action_cost = np.array(cost)
    problem = f"b: action cost shape {shape} does not match 2 actions"
    assert validate(m) == [problem]
    for plan in (msbpi, lgo_msbpi):
        with pytest.raises(ValueError, match=re.escape(problem)):
            plan(m)


@pytest.mark.parametrize(
    "fields, problem",
    [
        (dict(potential=np.zeros((2, 3))), "potential shape (2, 3) does not match (2, 2)"),
        # a callable goal becomes a 0-d True under np.asarray
        (dict(goal=lambda s1, s2: s1 == s2), "goal shape () does not match (2, 2)"),
        (dict(potential=[[0.0, 1.0], [np.inf, 0.0]]), "non-finite potential at state (1, 0)"),
        (dict(agent1=replace(chain_agent("a"), noop=5)), "a: noop 5 out of range for 2 actions"),
        (dict(agent2=replace(chain_agent("b"), state_labels=("x",))),
         "b: state labels length 1 does not match 2 states"),
    ],
    ids=["potential-shape", "goal-shape", "potential-non-finite", "noop-out-of-range",
         "state-labels-length"],
)
def test_validate_reports_bad_reward_arrays(fields, problem):
    m = two_chain_model(**fields)
    assert problem in validate(m)
    with pytest.raises(ValueError, match=re.escape(problem)):
        require_valid(m)


def test_validate_skips_reachability_on_a_misshapen_transition():
    m = two_chain_model(goal=[[False, False], [False, True]])
    m.agent2.transition = np.full((3, 2, 3), 1.0 / 3.0)
    assert validate(m) == ["b: transition shape (3, 2, 3) does not match (2, 2, 2)"]


def blocked_pairs():
    return [
        DecMdpCom(agent1=x, agent2=y, comm_cost=-1.0, horizon=3,
                  initial_state=FactoredState(0, 0), name=name)
        for name, x, y in [
            ("blocked-blocked", blocked_agent("a"), blocked_agent("b")),
            ("blocked-chain", blocked_agent("a"), chain_agent("b")),
            ("chain-blocked", chain_agent("a"), blocked_agent("b")),
        ]
    ]


REACH_MODELS = (
    [toy_model(**params) for params in TOY_GRID]
    + blocked_pairs()
    + [build_meeting(GridConfig(width=3, height=3, p1=0.7, p2=0.6, start2=(2, 2),
                                horizon_cap=4)).model]
)


@pytest.mark.parametrize("m", REACH_MODELS, ids=lambda m: m.name)
def test_goal_reachability_matches_joint_search_on_every_single_goal(m):
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    for horizon in range(1, m.horizon + 1):
        for s1 in range(n1):
            for s2 in range(n2):
                goal = np.zeros((n1, n2), dtype=bool)
                goal[s1, s2] = True
                q = replace(m, goal=goal, horizon=horizon)
                assert _goal_reachable_within(q) == goal_reachable_bfs(q), (horizon, s1, s2)


@given(data=st.data())
def test_goal_reachability_matches_joint_search_on_drawn_masks(data):
    m = data.draw(st.sampled_from(REACH_MODELS))
    n1, n2 = m.agent1.n_states, m.agent2.n_states
    cells = data.draw(st.sets(st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)),
                              max_size=4))
    goal = np.zeros((n1, n2), dtype=bool)
    for cell in cells:
        goal[cell] = True
    q = replace(
        m,
        goal=goal,
        horizon=data.draw(st.integers(1, 4)),
        initial_state=FactoredState(data.draw(st.integers(0, n1 - 1)),
                                    data.draw(st.integers(0, n2 - 1))),
    )
    assert _goal_reachable_within(q) == goal_reachable_bfs(q)
