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
    MAKE_A,
    MAKE_B,
    STAY,
    GridConfig,
    JointPolicy,
    ProductionOption,
    SubGoals,
    SUBGOAL_SWEEP,
    build_meeting,
    build_production,
    grid_target,
    manhattan,
    quota_policy,
    solve_joint_mmdp,
)
from commplan.model import validate
from conftest import TOY_GRID, toy_model
from oracles import (decode, encode, joint_induction, midpoint, production_arrays,
                     step_toward, successors)


# ---------------------------------------------------------------------------
# production bookkeeping


def state_of(agent, a_cnt, b_cnt):
    """The machine state whose label holds these part counts."""
    return agent.state_labels.index(f"{a_cnt}-{b_cnt}")


def test_products_pair_up_across_machines():
    # the potential of a state pair is its count of sellable products
    dom = build_production(0.5, 0.5, T=5)
    m1, m2 = dom.model.agent1, dom.model.agent2
    for (b_a, b_b, c_a, c_b), want in (((2, 1, 1, 3), 2), ((0, 5, 4, 0), 0), ((3, 3, 3, 3), 6)):
        assert dom.model.potential[state_of(m1, b_a, b_b), state_of(m2, c_a, c_b)] == want


def test_part_counts_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        build_production(0.5, 0.5, initial=(1, -1, 0, 0))


def test_quota_option_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        ProductionOption(-1, 2)
    with pytest.raises(ValueError, match="at least one"):
        ProductionOption(0, 0)
    assert len(DEFAULT_PRODUCTION_OPTIONS) == 7
    assert ProductionOption(1, 4) in DEFAULT_PRODUCTION_OPTIONS


def test_quota_policy_cycles_by_parts_produced():
    dom = build_production(0.5, 0.5, T=6)
    agent = dom.model.agent1
    produced = np.array([sum(map(int, label.split("-"))) for label in agent.state_labels])
    pol = quota_policy(produced, ProductionOption(2, 3))
    assert pol.label == "quota_2_3"
    assert np.array_equal(pol.actions, dom.candidates1[2].actions)
    # position in the cycle is total parts made so far, so a failed attempt
    # (count unchanged) retries the same type
    by_counts = {
        (0, 0): 0, (1, 0): 0, (2, 0): 1, (2, 1): 1, (2, 2): 1,
        (2, 3): 0, (3, 3): 0, (4, 3): 1,
    }
    for (a_cnt, b_cnt), want in by_counts.items():
        assert pol.action_at(state_of(agent, a_cnt, b_cnt), 0) == want


def test_machine_counters_clamp_at_their_caps():
    dom = build_production(1.0, 1.0, T=2)
    agent = dom.model.agent1
    assert agent.state_labels[-1] == "2-2"  # caps: initial count plus T
    s = state_of(agent, 2, 0)
    assert dom.made1[s, MAKE_A] == s
    assert dom.made1[s, MAKE_B] == state_of(agent, 2, 1)
    row = agent.transition[s, MAKE_A]
    assert row[s] == 1.0


def test_production_rejects_zero_success_probability():
    with pytest.raises(ValueError, match="probability"):
        build_production(0.0, 0.5)


def test_production_model_passes_validation():
    dom = build_production(0.8, 0.6, T=4)
    assert validate(dom.model) == []


def test_deterministic_alternating_quotas_make_ten_products():
    dom = build_production(1.0, 1.0, T=10)
    pol1, pol2 = dom.candidates1[3], dom.candidates2[3]
    assert pol1.label == pol2.label == "quota_1_1"
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
    assert dom.model.agent1.state_labels[s1] == "5-5"
    assert dom.model.agent2.state_labels[s2] == "5-13"
    assert dom.model.potential[s1, s2] == 10
    # twenty action charges, ten products sold at the end
    assert total == pytest.approx(-10.0, abs=1e-12)


def test_encode_decode_roundtrip():
    # state a * (cap_b + 1) + b is labelled "a-b", each count pair has one
    # state, and a MAKE lands on the state labelled with the bumped count
    dom = build_production(0.5, 0.5, T=3)
    for agent, made in ((dom.model.agent1, dom.made1), (dom.model.agent2, dom.made2)):
        counts = [tuple(map(int, label.split("-"))) for label in agent.state_labels]
        cap_a, cap_b = counts[-1]
        assert counts == [(a, b) for a in range(cap_a + 1) for b in range(cap_b + 1)]
        for s, (a, b) in enumerate(counts):
            assert counts[made[s, MAKE_A]] == (min(a + 1, cap_a), b)
            assert counts[made[s, MAKE_B]] == (a, min(b + 1, cap_b))
    assert dom.model.agent2.state_labels[dom.model.initial_state.s2] == "0-8"
    assert dom.model.agent2.state_labels[-1] == "3-11"


@pytest.mark.parametrize("T", [2, 4, 10])
@pytest.mark.parametrize(
    "p1, p2, initial",
    [(1.0, 1.0, (0, 0, 0, 8)), (0.8, 0.8, (0, 0, 0, 8)), (0.3, 0.9, (0, 0, 0, 8)),
     (0.6, 1.0, (1, 2, 0, 8)), (0.7, 0.45, (3, 0, 2, 1))],
)
def test_production_builder_matches_loop_builder(p1, p2, initial, T):
    # p = 1.0 puts p + (1 - p) in each cap row; the arrays must be the
    # loop builder's, dtype and bytes
    def same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        return got.dtype == want.dtype and np.array_equal(got, want)

    dom = build_production(p1, p2, T=T, initial=initial)
    quotas = [(o.x_a, o.x_b) for o in DEFAULT_PRODUCTION_OPTIONS]
    want = production_arrays(p1, p2, T, initial, quotas)
    m, ref = dom.model, want["model"]
    for agent, ref_agent in ((m.agent1, ref.agent1), (m.agent2, ref.agent2)):
        assert same(agent.transition, ref_agent.transition)
        assert agent.state_labels == ref_agent.state_labels
    assert same(m.potential, ref.potential)
    assert m.initial_state == ref.initial_state
    assert all(type(s) is int for s in (m.initial_state.s1, m.initial_state.s2))
    for pols, rows in ((dom.candidates1, want["quotas1"]), (dom.candidates2, want["quotas2"])):
        assert [pol.label for pol in pols] == [f"quota_{a}_{b}" for a, b in quotas]
        assert all(len(pol.actions) == 1 for pol in pols)
        for pol, row in zip(pols, rows):
            assert same(pol.actions, row)


# ---------------------------------------------------------------------------
# full-information joint optimum


def test_joint_policy_decodes_action_pairs():
    pol = JointPolicy(
        actions=np.array([[[3]]]), value=np.zeros((1, 1)), n_actions2=2
    )
    assert divmod(int(pol.actions[0, 0, 0]), pol.n_actions2) == (1, 1)


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
        a1, a2 = divmod(int(pol.actions[t, s1, s2]), pol.n_actions2)
        s1 = int(np.argmax(dom.model.agent1.transition[s1, a1]))
        s2 = int(np.argmax(dom.model.agent2.transition[s2, a2]))
    assert dom.model.potential[s1, s2] == 10


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
    corner = encode(dom, (0, 0))
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
            s = encode(dom, (x, y))
            for a in range(len(GRID_ACTIONS)):
                want = np.zeros(agent.n_states)
                want[encode(dom, grid_target((x, y), a, cfg))] += p
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
    a = encode(dom, (1, 1))
    b = encode(dom, (2, 0))
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
            d = manhattan(decode(dom, s1), decode(dom, s2))
            for a1 in range(5):
                for a2 in range(5):
                    for q1 in successors(m.agent1, s1, a1):
                        for q2 in successors(m.agent2, s2, a2):
                            dq = manhattan(decode(dom, int(q1)),
                                           decode(dom, int(q2)))
                            assert abs(dq - d) <= 2
