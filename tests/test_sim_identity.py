"""The folded episode loops against the scalar engine they replaced.

tests/sim_reference.py keeps the simulator's six hand-written walks as they
were.  On monte_carlo's own substreams the library must give the same
per-episode log, bit for bit, and the same capped count: for every strategy
the meeting tables T8-T13 run, at every success rate and fee; on a capped
grid where a sub-goal exchange lands on the capping step; for the
production full-information and goal-window strategies; and for tree-pair
mechanisms on the toy models.
"""

import numpy as np
import pytest

import sim_reference as ref
from commplan.domains import (
    SUBGOAL_SWEEP,
    AlwaysCommunicate,
    GridConfig,
    Ideal,
    MyopicGreedy,
    NoCommunication,
    SubGoals,
    build_meeting,
    build_production,
)
from commplan.lgo import lgo_msbpi
from commplan.msbpi import msbpi
from commplan.myopic import comm_policy_table
from commplan.sim import SimConfig, monte_carlo
from commplan.tables import MEETING_P

from conftest import TOY_GRID, toy_model

EPISODES = 40
FEES = (-0.1, -1.0, -10.0)


def meeting_strategies(p, fee):
    table = comm_policy_table(p_u=p, comm_cost=fee)
    fixed = [NoCommunication(), Ideal(), AlwaysCommunicate(), MyopicGreedy(table)]
    return fixed + [SubGoals(q) for q in SUBGOAL_SWEEP]


def assert_identical(domain, strategy, episodes=EPISODES, seed=3):
    """Compare one batch with the frozen engine; return its trajectories."""
    got = monte_carlo(SimConfig(domain=domain, strategy=strategy, episodes=episodes,
                                seed=seed, log_episodes=True))
    log, trajs = [], []
    for child in np.random.SeedSequence(seed).spawn(episodes):
        u, steps, comm, traj = ref.run_episode(
            domain, strategy, np.random.Generator(np.random.PCG64(child))
        )
        log.append((u, steps, comm))
        trajs.append(traj)
    # repr tells -0.0 from 0.0 and an int from a float
    assert repr(got.per_episode) == repr(log), strategy
    assert got.capped_episodes == sum(traj["capped"] for traj in trajs), strategy
    return trajs


@pytest.mark.parametrize("fee", FEES)
@pytest.mark.parametrize("p", MEETING_P)
def test_meeting_table_strategies_match_reference(p, fee):
    domain = build_meeting(GridConfig(p1=p, p2=p, comm_cost=fee))
    for strategy in meeting_strategies(p, fee):
        assert_identical(domain, strategy)


@pytest.mark.parametrize("cap", [1, 6, 12])
def test_capped_meeting_matches_reference(cap):
    domain = build_meeting(GridConfig(p1=0.8, p2=0.6, comm_cost=-1.0, horizon_cap=cap))
    capped = capping_exchanges = 0
    for strategy in meeting_strategies(0.8, -1.0):
        for traj in assert_identical(domain, strategy):
            capped += traj["capped"]
            capping_exchanges += traj["capped"] and ("exchange", cap) in traj["events"]
    assert capped > 0
    # a sub-goal region entered on the last allowed step still exchanges
    assert capping_exchanges > 0


@pytest.mark.parametrize("p1, p2", [(0.2, 0.8), (0.8, 0.8)])
def test_production_strategies_match_reference(p1, p2):
    domain = build_production(p1, p2, T=6, comm_cost=-1.0)
    lgo = lgo_msbpi(domain.model, domain.candidates1, domain.candidates2)
    for strategy in (Ideal(), AlwaysCommunicate(), lgo):
        assert_identical(domain, strategy, episodes=300)


@pytest.mark.parametrize("params", TOY_GRID)
def test_tree_pair_mechanism_matches_reference(params):
    model = toy_model(**params)
    assert_identical(model, msbpi(model), episodes=300)
