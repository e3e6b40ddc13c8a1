"""Joint model container: rewards, transitions, validation."""

import numpy as np
import pytest

from commplan.model import (
    AgentModel,
    DecMdpCom,
    FactoredState,
    validate,
)
from conftest import chain_agent, toy_model


def test_factored_state_fields():
    s = FactoredState(2, 5)
    assert (s.s1, s.s2) == (2, 5)


def test_agent_model_basics():
    a = chain_agent(p=0.7)
    assert a.n_actions == 2
    assert a.state_label(1) == "1"
    assert set(a.successors(0, 0)) == {0, 1}
    assert set(a.successors(0, 1)) == {0}
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
    phi = lambda s1, s2: float(s1 + 2 * s2)
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
    mat = m.potential_matrix()
    assert mat.shape == (2, 2)
    assert mat[1, 1] == pytest.approx(3.0)


def test_action_cost_none_is_free():
    m = toy_model()
    assert m.action_cost(1, None) == 0.0
    assert m.action_cost(1, 0) == pytest.approx(-1.0)
    assert m.action_cost(2, 1) == pytest.approx(-0.2)


def test_goal_mask_matches_predicate():
    g = DecMdpCom(
        agent1=chain_agent("a"),
        agent2=chain_agent("b"),
        comm_cost=-1.0,
        horizon=2,
        initial_state=FactoredState(0, 0),
        goal_predicate=lambda s1, s2: s1 == s2 == 1,
    )
    assert g.is_goal(1, 1) and not g.is_goal(0, 1)


def test_validate_clean_model_has_no_violations():
    assert validate(toy_model()) == []


def test_validate_warns_on_unreachable_goal():
    m = DecMdpCom(
        agent1=chain_agent("a"),
        agent2=chain_agent("b"),
        comm_cost=-1.0,
        horizon=2,
        initial_state=FactoredState(0, 0),
        goal_predicate=lambda s1, s2: False,
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
