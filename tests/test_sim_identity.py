"""The batched engine against the scalar engine it replaced.

tests/sim_reference.py keeps the simulator's six hand-written walks as they
were.  On monte_carlo's own substreams the library must give the same
per-episode log, bit for bit, and the same capped count: for every strategy
the meeting tables T8-T13 run, at every success rate and fee; on capped
grids (caps 1, 6 and 12, where a sub-goal exchange lands on the capping
step); on 1,000-episode batches at success rate 0.2, whose long walks run
many slices deep; for the production full-information and goal-window
strategies, goal windows on candidates with several action rows included;
and for tree-pair mechanisms on the toy models.  Batches of one episode,
slices of one and seven episodes, and run_episode on the caller's
generator must give the same episodes too.

monte_carlo hashes the children's PCG64 seed words itself, a slice at a
time (sim._child_words); those words must be numpy's, for seeds of one to
five 32-bit words and at the slice starts the benchmark batches reach, and
batches at a seed above 2**64 must still match the reference.  Those tests
turn RuntimeWarning into an error, so numpy scalar overflow fails them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commplan.sim as sim
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
from commplan.lgo import LgoMechanism, LocalGoalPolicy, lgo_msbpi
from commplan.msbpi import msbpi
from commplan.myopic import comm_policy_table
from commplan.sim import SimConfig, monte_carlo, run_episode
from commplan.tables import MEETING_P

from conftest import TOY_GRID, toy_model

EPISODES = 40
FEES = (-0.1, -1.0, -10.0)
BIG_SEED = 2**64 + 5
# first child of a second slice: 655 on the meeting grid (cap 200), 13107 in
# production (T=10), 2340 on the toy (T=7); 81 and 1638 start the second
# block of uniforms inside a meeting and a production slice
SLICE_STARTS = (0, 81, 655, 1638, 2340, 13107)


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


@pytest.mark.parametrize("cap", [200, 80])
def test_long_walks_match_reference(cap):
    domain = build_meeting(GridConfig(p1=0.2, p2=0.2, comm_cost=-1.0, horizon_cap=cap))
    table = comm_policy_table(p_u=0.2, comm_cost=-1.0)
    capped = 0
    for strategy in (NoCommunication(), MyopicGreedy(table), SubGoals(0.5)):
        trajs = assert_identical(domain, strategy, episodes=1000)
        capped += sum(traj["capped"] for traj in trajs)
    if cap == 80:
        assert capped > 0  # the longest walks are cut short


def _several_rows(pol, rows, stationary=False):
    """pol with `rows` action rows, the odd ones swapping the two actions."""
    acts = np.stack([pol.actions[0] if r % 2 == 0 else 1 - pol.actions[0]
                     for r in range(rows)])
    return LocalGoalPolicy(label=f"{pol.label}_rows{rows}", actions=acts,
                           stationary=stationary)


def test_goal_windows_on_several_action_rows_match_reference():
    domain = build_production(0.6, 0.8, T=6, comm_cost=-1.0)
    extra1 = [_several_rows(domain.candidates1[1], 3),
              _several_rows(domain.candidates1[2], 8),
              _several_rows(domain.candidates1[3], 2, stationary=True)]
    extra2 = [_several_rows(domain.candidates2[4], 4)]
    cand1 = domain.candidates1[:2] + extra1
    cand2 = domain.candidates2[3:5] + extra2
    T, n1, n2 = 6, domain.model.agent1.n_states, domain.model.agent2.n_states
    draw = np.random.default_rng(1)
    k = np.stack([draw.integers(1, T - t + 1, (n1, n2)) for t in range(T)])
    mech = LgoMechanism(candidates1=cand1, candidates2=cand2,
                        g1=draw.integers(0, len(cand1), (T, n1, n2)),
                        g2=draw.integers(0, len(cand2), (T, n1, n2)),
                        k=k, value=np.zeros((T + 1, n1, n2)))
    assert_identical(domain, mech, episodes=300)


@pytest.fixture(scope="module")
def engine_cases():
    """(domain, strategy) pairs that reach every branch of the engine."""
    meeting = build_meeting(GridConfig(p1=0.6, p2=0.4, comm_cost=-1.0, horizon_cap=30))
    production = build_production(0.2, 0.8, T=6, comm_cost=-1.0)
    model = toy_model(**TOY_GRID[0])
    return [(meeting, s) for s in meeting_strategies(0.6, -1.0)[:4] + [SubGoals(0.3)]] + [
        (production, Ideal()),
        (production, lgo_msbpi(production.model, production.candidates1,
                               production.candidates2)),
        (model, msbpi(model)),
    ]


def slice_bytes(domain, strategy, rows):
    """SLICE_BYTES that makes a slice of `rows` episodes."""
    width, encode, _ = sim._engine(domain, strategy)
    return rows * encode(np.zeros((1, width))).itemsize * width


@pytest.mark.parametrize("rows", [1, 7])
def test_slice_boundaries_do_not_change_episodes(rows, monkeypatch, engine_cases):
    for domain, strategy in engine_cases:
        monkeypatch.setattr(sim, "SLICE_BYTES", slice_bytes(domain, strategy, rows))
        assert_identical(domain, strategy, episodes=40)


def test_single_episode_batches_match_reference(engine_cases):
    for domain, strategy in engine_cases:
        assert_identical(domain, strategy, episodes=1)


def test_meeting_from_one_cell_matches_reference():
    domain = build_meeting(GridConfig(start1=(4, 4), start2=(4, 4)))
    for strategy in meeting_strategies(0.8, -0.1):
        assert_identical(domain, strategy, episodes=5)


def test_run_episode_is_a_batch_of_one_on_the_callers_generator(engine_cases):
    for domain, strategy in engine_cases:
        for child in np.random.SeedSequence(5).spawn(20):
            got = run_episode(domain, strategy, np.random.Generator(np.random.PCG64(child)))
            u, steps, comm, traj = ref.run_episode(
                domain, strategy, np.random.Generator(np.random.PCG64(child))
            )
            assert repr(got) == repr((u, steps, comm, traj["capped"])), strategy
        # the caller's generator ends past the episode's whole buffer
        width = sim._engine(domain, strategy)[0]
        rng = np.random.Generator(np.random.PCG64(7))
        run_episode(domain, strategy, rng)
        assert rng.random() == np.random.Generator(np.random.PCG64(7)).random(width + 1)[-1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, BIG_SEED, 2**130 + 99])
def test_child_words_are_the_spawned_childrens_seed_words(seed):
    n = 50
    children = np.random.SeedSequence(seed).spawn(SLICE_STARTS[-1] + n)
    for start in SLICE_STARTS:
        want = [c.generate_state(4, np.uint64) for c in children[start:start + n]]
        got = sim._child_words(seed, start, n)
        assert got.dtype == np.uint64 and got.shape == (n, 4)
        assert np.array_equal(got, want), start


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**200), start=st.integers(0, 2**32 - 8), n=st.integers(1, 8))
def test_child_words_match_numpy_for_drawn_seeds(seed, start, n):
    # spawn(k + 1)[k] is SeedSequence(seed, spawn_key=(k,))
    want = [np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)
            for k in range(start, start + n)]
    assert np.array_equal(sim._child_words(seed, start, n), want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_seed_batches_match_reference_across_slices(monkeypatch, engine_cases):
    domain = build_meeting(GridConfig(p1=0.4, p2=0.4, comm_cost=-1.0))
    table = comm_policy_table(p_u=0.4, comm_cost=-1.0)
    # three slices, the last one short
    rows = sim.SLICE_BYTES // slice_bytes(domain, MyopicGreedy(table), 1)
    assert_identical(domain, MyopicGreedy(table), episodes=2 * rows + 45, seed=BIG_SEED)
    for domain, strategy in engine_cases:
        monkeypatch.setattr(sim, "SLICE_BYTES", slice_bytes(domain, strategy, 7))
        assert_identical(domain, strategy, episodes=40, seed=BIG_SEED)
