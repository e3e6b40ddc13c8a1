"""The planners order as their search spaces do, on small random models.

Free full information (the joint MMDP) is worth at least any mechanism that
pays for its exchanges; the tree-pair search (msbpi) ranges over windows of
any local policies, so it is worth at least the goal-window planner (LGO),
whose windows follow goal policies and always end in a charged exchange.
Each planner's value table must also be its own mechanism's: the table
evaluators reproduce it exactly, and a Monte-Carlo batch of the tree-pair
mechanism lands within a few standard errors of its value.  LGO is not
simulated here: its simulator runs only on the production domain.  The
value orderings allow 1e-12 for rounding.
"""

import numpy as np
import pytest

from commplan.domains import solve_joint_mmdp
from commplan.lgo import LocalGoalPolicy, default_candidates, evaluate_lgo, lgo_msbpi
from commplan.model import AgentModel, DecMdpCom, FactoredState
from commplan.msbpi import evaluate_policy, msbpi
from commplan.sim import SimConfig, monte_carlo

SEEDS = range(30)


def random_agent(draw, name):
    """2-3 states; action 0 stays at no cost, action 1 moves along a random
    row whose entries below 0.2 are cut before it is renormalised."""
    n = int(draw.integers(2, 4))
    go = draw.random((n, n))
    go[go < 0.2] = 0.0
    go[go.sum(axis=1) == 0.0, 0] = 1.0
    go /= go.sum(axis=1, keepdims=True)
    return AgentModel(
        n_states=n,
        actions=("stay", "go"),
        transition=np.stack([np.eye(n), go], axis=1),
        goal_candidates=tuple(range(n)),
        action_cost=np.array([0.0, -draw.random()]),
        noop=0,
        name=name,
    )


def random_model(seed):
    draw = np.random.default_rng(seed)
    agent1, agent2 = random_agent(draw, "one"), random_agent(draw, "two")
    return DecMdpCom(
        agent1=agent1,
        agent2=agent2,
        comm_cost=-draw.random(),
        horizon=int(draw.integers(2, 4)),
        initial_state=FactoredState(0, 0),
        potential=draw.normal(size=(agent1.n_states, agent2.n_states)),
    )


# random rows may strand states away from a goal; solve_local_mdp warns then
@pytest.mark.filterwarnings("ignore:goal state .* cannot reach it")
@pytest.mark.parametrize("seed", SEEDS)
def test_full_information_beats_tree_pairs_beats_goal_windows(seed):
    m = random_model(seed)
    tree = msbpi(m)
    full = solve_joint_mmdp(m).value[0, 0] - m.potential[0, 0]
    assert full >= tree.value[0, 0, 0] - 1e-12
    assert np.array_equal(evaluate_policy(tree, m), tree.value)
    # with a free stay every default goal policy stays put, so LGO is also
    # run with a policy that always moves
    cand1, cand2 = (
        default_candidates(a, m.horizon) + [LocalGoalPolicy("go", np.ones((1, a.n_states), int))]
        for a in (m.agent1, m.agent2)
    )
    for goal in (lgo_msbpi(m), lgo_msbpi(m, cand1, cand2)):
        assert tree.value[0, 0, 0] >= goal.value[0, 0, 0] - 1e-12
        assert np.array_equal(evaluate_lgo(goal, m), goal.value)
    got = monte_carlo(SimConfig(domain=m, strategy=tree, episodes=2000, seed=seed))
    assert abs(got.mean_utility - tree.value[0, 0, 0]) <= 4 * got.std_error + 1e-9
