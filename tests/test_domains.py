"""Tests for the two concrete scenarios and the joint full-information solver.

Deterministic instances (success probability 1) give exact hand-checkable
walks; the stochastic full-information optimum is pinned by a counting bound:
sellable products never exceed the first machine's success count.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from commplan.domains import (
    DEFAULT_PRODUCTION_OPTIONS,
    GRID_ACTIONS,
    STAY,
    GridConfig,
    JointPolicy,
    ProductionOption,
    ProductionState,
    SubGoals,
    SUBGOAL_SWEEP,
    build_meeting,
    build_production,
    grid_target,
    manhattan,
    midpoint,
    quota_policy,
    solve_joint_mmdp,
    step_toward,
)
from commplan.model import validate
from conftest import TOY_GRID, toy_model
from oracles import joint_induction, successors


# ---------------------------------------------------------------------------
# production bookkeeping


def test_products_pair_up_across_machines():
    assert ProductionState(2, 1, 1, 3).products() == 2
    assert ProductionState(0, 5, 4, 0).products() == 0
    assert ProductionState(3, 3, 3, 3).products() == 6


def test_part_counts_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        ProductionState(1, -1, 0, 0)


def test_quota_option_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        ProductionOption(-1, 2)
    with pytest.raises(ValueError, match="at least one"):
        ProductionOption(0, 0)
    assert len(DEFAULT_PRODUCTION_OPTIONS) == 7
    assert ProductionOption(1, 4) in DEFAULT_PRODUCTION_OPTIONS


def test_quota_policy_cycles_by_parts_produced():
    dom = build_production(0.5, 0.5, T=6)
    pol = quota_policy(dom.model.agent1, ProductionOption(2, 3), (0, 0))
    assert pol.label == "quota_2_3"
    # position in the cycle is total parts made so far, so a failed attempt
    # (count unchanged) retries the same type
    by_counts = {
        (0, 0): 0, (1, 0): 0, (2, 0): 1, (2, 1): 1, (2, 2): 1,
        (2, 3): 0, (3, 3): 0, (4, 3): 1,
    }
    for (a_cnt, b_cnt), want in by_counts.items():
        s = dom.encode1(a_cnt, b_cnt)
        assert pol.action_at(s, 0) == want


def test_machine_counters_clamp_at_their_caps():
    dom = build_production(1.0, 1.0, T=2)
    assert dom.caps1 == (2, 2)
    s = dom.encode1(2, 0)
    row = dom.model.agent1.transition[s, 0]
    assert row[s] == 1.0


def test_production_rejects_zero_success_probability():
    with pytest.raises(ValueError, match="probability"):
        build_production(0.0, 0.5)


def test_production_model_passes_validation():
    dom = build_production(0.8, 0.6, T=4)
    assert validate(dom.model) == []


def test_deterministic_alternating_quotas_make_ten_products():
    dom = build_production(1.0, 1.0, T=10)
    pol1 = quota_policy(dom.model.agent1, ProductionOption(1, 1), (0, 0))
    pol2 = quota_policy(dom.model.agent2, ProductionOption(1, 1), (0, 8))
    s1, s2 = dom.model.initial_state.s1, dom.model.initial_state.s2
    total = 0.0
    for t in range(dom.horizon):
        a1, a2 = pol1.action_at(s1, t), pol2.action_at(s2, t)
        row1 = dom.model.agent1.transition[s1, a1]
        row2 = dom.model.agent2.transition[s2, a2]
        n1, n2 = int(np.argmax(row1)), int(np.argmax(row2))
        assert row1[n1] == 1.0 and row2[n2] == 1.0
        total += dom.model.step_reward(s1, s2, a1, a2, n1, n2)
        s1, s2 = n1, n2
    assert dom.decode1(s1) == (5, 5)
    assert dom.decode2(s2) == (5, 13)
    assert dom.products(s1, s2) == 10
    # twenty action charges, ten products sold at the end
    assert total == pytest.approx(-10.0, abs=1e-12)


def test_encode_decode_roundtrip():
    dom = build_production(0.5, 0.5, T=3)
    for b_a in range(dom.caps1[0] + 1):
        for b_b in range(dom.caps1[1] + 1):
            assert dom.decode1(dom.encode1(b_a, b_b)) == (b_a, b_b)
    assert dom.decode2(dom.encode2(2, 9)) == (2, 9)


# ---------------------------------------------------------------------------
# full-information joint optimum


def test_joint_policy_decodes_action_pairs():
    pol = JointPolicy(
        actions=np.array([[[3]]]), value=np.zeros((1, 1)), n_actions2=2
    )
    assert pol.action_pair(0, 0, 0) == (1, 1)


@pytest.mark.parametrize(
    "m",
    [toy_model(**params) for params in TOY_GRID]
    + [build_meeting(GridConfig(width=3, height=3, p1=0.7, p2=0.6, start2=(2, 2),
                                horizon_cap=5)).model],
    ids=[f"toy{i}" for i in range(len(TOY_GRID))] + ["meeting3x3"],
)
def test_joint_optimum_matches_brute_force_induction(m):
    # the toys pay their bonus on the post-step state, so the extra reward
    # must enter each action pair's expectation, not the stay-put state
    np.testing.assert_allclose(solve_joint_mmdp(m).value, joint_induction(m),
                               rtol=0, atol=1e-12)


def test_joint_optimum_deterministic_production():
    dom = build_production(1.0, 1.0, T=10)
    pol = dom.joint_policy
    s1, s2 = dom.model.initial_state.s1, dom.model.initial_state.s2
    assert pol.value[s1, s2] == pytest.approx(-10.0, abs=1e-9)
    # the greedy rollout of the planned actions attains the bound
    for t in range(dom.horizon):
        a1, a2 = pol.action_pair(s1, s2, t)
        s1 = int(np.argmax(dom.model.agent1.transition[s1, a1]))
        s2 = int(np.argmax(dom.model.agent2.transition[s2, a2]))
    assert dom.products(s1, s2) == 10


def test_joint_optimum_stochastic_production_hits_counting_bound():
    # products <= machine 1 successes, so the optimum is at most
    # 2 T cost + T p; adaptive play with the second machine's head start
    # of eight type-b parts makes the gap vanishingly small
    dom = build_production(0.8, 0.8, T=10)
    s0 = dom.model.initial_state
    value = dom.joint_policy.value[s0.s1, s0.s2]
    assert value <= -20.0 + 8.0 + 1e-9
    assert value == pytest.approx(-12.0, abs=0.01)


# ---------------------------------------------------------------------------
# meeting scenario


def test_grid_config_validation():
    with pytest.raises(ValueError, match="dimensions"):
        GridConfig(width=0)
    with pytest.raises(ValueError, match="probability"):
        GridConfig(p1=0.0)
    with pytest.raises(ValueError, match="outside"):
        GridConfig(width=5, height=5)
    with pytest.raises(ValueError, match="horizon"):
        GridConfig(horizon_cap=0)


def test_subgoal_strategy_validation():
    with pytest.raises(ValueError, match="fraction"):
        SubGoals(0.0)
    with pytest.raises(ValueError, match="fraction"):
        SubGoals(1.5)
    assert len(SUBGOAL_SWEEP) == 9
    assert all(0.0 < p <= 1.0 for p in SUBGOAL_SWEEP)


def test_manhattan_and_midpoint_geometry():
    assert manhattan((0, 0), (9, 9)) == 18
    assert midpoint((0, 0), (4, 0)) == (2, 0)
    assert midpoint((3, 3), (3, 3)) == (3, 3)
    # the x leg is walked first, so the opposite-corner midpoint sits at
    # the end of the x leg, nine steps from either corner
    assert midpoint((0, 0), (9, 9)) == (9, 0)


@given(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
)
def test_midpoint_splits_any_shortest_path(a, b):
    mid = midpoint(a, b)
    d = manhattan(a, b)
    assert manhattan(a, mid) == d // 2
    assert manhattan(mid, b) == d - d // 2


def test_step_toward_walks_x_leg_first():
    assert step_toward((0, 0), (2, 0)) == GRID_ACTIONS.index("east")
    assert step_toward((4, 0), (2, 0)) == GRID_ACTIONS.index("west")
    assert step_toward((2, 0), (2, 3)) == GRID_ACTIONS.index("north")
    assert step_toward((0, 4), (0, 2)) == GRID_ACTIONS.index("south")
    assert step_toward((1, 2), (3, 4)) == GRID_ACTIONS.index("east")
    assert step_toward((5, 5), (5, 5)) == STAY


def test_meeting_model_passes_validation():
    dom = build_meeting(GridConfig(width=4, height=3, start2=(3, 2)))
    assert validate(dom.model) == []


def test_meeting_edge_moves_clamp_in_place():
    dom = build_meeting(GridConfig(width=3, height=3, p1=0.7, p2=0.7,
                                   start2=(2, 2)))
    corner = dom.encode((0, 0))
    west = GRID_ACTIONS.index("west")
    row = dom.model.agent1.transition[corner, west]
    assert row[corner] == 1.0


@pytest.mark.parametrize("p", [0.7, 1.0])
def test_grid_agent_rows_come_from_grid_target(p):
    # non-square, so a swapped width and height would show
    cfg = GridConfig(width=4, height=3, p1=p, p2=p, start2=(3, 2))
    dom = build_meeting(cfg)
    agent = dom.model.agent1
    for x in range(cfg.width):
        for y in range(cfg.height):
            s = dom.encode((x, y))
            for a in range(len(GRID_ACTIONS)):
                want = np.zeros(agent.n_states)
                want[dom.encode(grid_target((x, y), a, cfg))] += p
                want[s] += 1.0 - p
                assert np.array_equal(agent.transition[s, a], want), (x, y, a)


def test_grid_target_clamps_at_each_edge():
    cfg = GridConfig(width=4, height=3, start2=(3, 2))
    north, south, east, west = (GRID_ACTIONS.index(n) for n in ("north", "south", "east", "west"))
    assert grid_target((3, 2), north, cfg) == (3, 2)
    assert grid_target((1, 0), south, cfg) == (1, 0)
    assert grid_target((3, 1), east, cfg) == (3, 1)
    assert grid_target((0, 1), west, cfg) == (0, 1)
    assert grid_target((2, 1), north, cfg) == (2, 2)
    assert grid_target((2, 1), STAY, cfg) == (2, 1)


def test_meeting_goal_and_step_charge():
    dom = build_meeting(GridConfig(width=3, height=3, p1=0.5, p2=0.5,
                                   start2=(2, 2)))
    m = dom.model
    a = dom.encode((1, 1))
    b = dom.encode((2, 0))
    assert m.goal[a, a]
    assert not m.goal[a, b]
    # one unit per step while apart, nothing once co-located
    assert m.step_reward(a, b, STAY, STAY, a, b) == -1.0
    assert m.step_reward(a, a, STAY, STAY, a, b) == 0.0


def test_meeting_distance_changes_at_most_two_per_step():
    dom = build_meeting(GridConfig(width=3, height=3, p1=0.6, p2=0.6,
                                   start2=(2, 2)))
    m = dom.model
    n = m.agent1.n_states
    for s1 in range(n):
        for s2 in range(n):
            d = manhattan(dom.decode(s1), dom.decode(s2))
            for a1 in range(5):
                for a2 in range(5):
                    for q1 in successors(m.agent1, s1, a1):
                        for q2 in successors(m.agent2, s2, a2):
                            dq = manhattan(dom.decode(int(q1)),
                                           dom.decode(int(q2)))
                            assert abs(dq - d) <= 2
