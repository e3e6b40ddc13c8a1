"""Tests for the seeded Monte-Carlo layer.

Determinism claims are exact (same seed, same numbers); stochastic claims
compare against planned values within three standard errors or against a
paired baseline run on common random numbers, where the difference between
the free and the charged full-information strategies is exactly the fee
times the exchange count.
"""

import math

import numpy as np
import pytest

from commplan.domains import (
    GRID_ACTIONS,
    STAY,
    AlwaysCommunicate,
    GridConfig,
    Ideal,
    MyopicGreedy,
    NoCommunication,
    SubGoals,
    build_meeting,
    build_production,
    grid_target,
)
from commplan.lgo import lgo_msbpi
from commplan.model import FactoredState
from commplan.msbpi import msbpi
from commplan import tables
from commplan.myopic import comm_policy_table
from commplan.sim import (
    SimConfig,
    SimResult,
    monte_carlo,
    results_csv,
    run_episode,
)

import commplan.sim as sim
import sim_reference as ref
from conftest import toy_model
from oracles import step_toward, welch_ttest


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class _Uniforms:
    """Generator stand-in whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def test_sim_config_requires_episodes():
    with pytest.raises(ValueError, match="episodes"):
        SimConfig(domain=None, strategy=None, episodes=0)


def test_sim_config_checks_the_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SimConfig(domain=None, strategy=None, seed=-1)
    with pytest.raises(TypeError):
        SimConfig(domain=None, strategy=None, seed=1.5)
    cfg = SimConfig(domain=None, strategy=None, seed=np.int64(7))
    assert type(cfg.seed) is int and cfg.seed == 7


def test_sim_config_keeps_spawn_keys_in_one_word():
    SimConfig(domain=None, strategy=None, episodes=2**32)
    with pytest.raises(ValueError, match="episodes must be <= 2"):
        SimConfig(domain=None, strategy=None, episodes=2**32 + 1)


def test_move_walks_and_clamps():
    cfg = GridConfig(width=3, height=3, p1=1.0, p2=1.0, start2=(2, 2))
    assert grid_target((0, 0), step_toward((0, 0), (2, 0)), cfg) == (1, 0)
    # at its goal a walker stays, and staying keeps the cell
    assert step_toward((1, 1), (1, 1)) == STAY
    assert grid_target((1, 1), STAY, cfg) == (1, 1)
    # a move off the edge keeps the cell too
    assert grid_target((0, 0), GRID_ACTIONS.index("west"), cfg) == (0, 0)
    # a move whose uniform is not below the success rate fails
    dom = build_meeting(GridConfig(width=3, height=3, p1=0.5, p2=0.5,
                                   start2=(2, 2), horizon_cap=3))
    assert run_episode(dom, NoCommunication(), _Uniforms(0.5)) == (-6.0, 3, 0, True)
    assert run_episode(dom, NoCommunication(), _Uniforms(0.49)) == (-4.0, 2, 0, False)


def test_a_draw_equal_to_the_success_chance_fails_as_in_the_reference():
    # the two agents' chances differ, so one uniform fails one agent's step
    # and not the other's
    meeting = build_meeting(GridConfig(width=5, height=5, p1=0.4, p2=0.7,
                                       start2=(4, 4), horizon_cap=12))
    production = build_production(0.4, 0.7, T=4, comm_cost=-1.0)
    lgo = lgo_msbpi(production.model, production.candidates1, production.candidates2)
    cases = [(meeting, s) for s in (NoCommunication(), AlwaysCommunicate(), SubGoals(0.5))]
    cases += [(production, Ideal()), (production, lgo)]
    for domain, strategy in cases:
        width, encode, _ = sim._engine(domain, strategy)
        assert encode(np.zeros((1, width))).nbytes == width  # one byte a draw
        for u in (0.4, 0.7):
            got = run_episode(domain, strategy, _Uniforms(u))
            want, steps, comm, traj = ref.run_episode(domain, strategy, _Uniforms(u))
            assert repr(got) == repr((want, steps, comm, traj["capped"])), (strategy, u)


def test_deterministic_meeting_walk():
    dom = build_meeting(GridConfig(width=3, height=3, p1=1.0, p2=1.0,
                                   start1=(0, 0), start2=(2, 2)))
    u, steps, comm, capped = run_episode(dom, NoCommunication(), _rng(3))
    assert (u, steps, comm) == (-4.0, 2, 0)
    assert capped is False

    u, steps, comm, _ = run_episode(dom, Ideal(), _rng(3))
    assert (u, steps, comm) == (-4.0, 2, 2)
    u_ac, _, comm_ac, _ = run_episode(dom, AlwaysCommunicate(), _rng(3))
    assert comm_ac == 2
    assert u_ac == pytest.approx(-4.0 + 2 * dom.config.comm_cost, abs=1e-12)


def test_unsupported_strategy_rejected():
    dom = build_meeting(GridConfig(width=3, height=3, p1=1.0, p2=1.0,
                                   start2=(2, 2)))
    with pytest.raises(ValueError, match="unsupported"):
        run_episode(dom, object(), _rng())
    with pytest.raises(ValueError, match="unsupported domain"):
        run_episode(object(), NoCommunication(), _rng())
    with pytest.raises(ValueError, match="unsupported model strategy"):
        run_episode(toy_model(), NoCommunication(), _rng())


def test_lgo_windows_past_the_horizon_are_rejected():
    dom = build_production(0.8, 0.8, T=4, comm_cost=-0.1)
    mech = lgo_msbpi(dom.model, dom.candidates1, dom.candidates2)
    mech.k[:] = 3
    # the first cell in (t, s1, s2) order whose window ends past T=4
    first = r"assignment at \(0, 0, 2\) has window 3"
    with pytest.raises(ValueError, match=first):
        monte_carlo(SimConfig(domain=dom, strategy=mech, episodes=5))
    # rejected before a single draw: this generator would fail on one
    with pytest.raises(ValueError, match=first):
        run_episode(dom, mech, object())
    mech.k[:] = 1
    mech.k[1, 3, 4] = 0
    with pytest.raises(ValueError, match=r"assignment at \(3, 4, 1\) has window 0"):
        run_episode(dom, mech, _rng())


def test_lgo_table_of_another_shape_is_rejected():
    dom = build_production(0.8, 0.8, T=4, comm_cost=-0.1)
    mech = lgo_msbpi(dom.model, dom.candidates1, dom.candidates2)
    longer = build_production(0.8, 0.8, T=5, comm_cost=-0.1)
    with pytest.raises(ValueError, match=r"shape \(4, 25, 65\).*\(5, 36, 84\)"):
        monte_carlo(SimConfig(domain=longer, strategy=mech, episodes=5))


@pytest.mark.parametrize("row, problem", [
    ([0.5, 0.4], "transition row for state 0 action go sums to 0.9"),
    ([-0.1, 1.1], r"probability out of \[0,1\] at state 0 action 0"),
])
def test_tree_pair_path_rejects_rows_edited_after_planning(row, problem):
    m = toy_model()
    mech = msbpi(m)
    m.agent1.transition[0, 0] = row
    with pytest.raises(ValueError, match="left: " + problem):
        monte_carlo(SimConfig(domain=m, strategy=mech, episodes=5))
    with pytest.raises(ValueError, match="left: " + problem):
        run_episode(m, mech, _rng())


def test_same_seed_reproduces_batch_exactly():
    dom = build_meeting(GridConfig())
    cfg = SimConfig(domain=dom, strategy=NoCommunication(), episodes=60, seed=11)
    a, b = monte_carlo(cfg), monte_carlo(cfg)
    assert a.mean_utility == b.mean_utility
    assert a.variance == b.variance
    assert a.mean_comm == b.mean_comm
    assert a.mean_steps == b.mean_steps


def test_meeting_cell_is_simulated_once_and_copied_out(monkeypatch):
    runs = []

    def counted(cfg):
        runs.append(cfg)
        return monte_carlo(cfg)

    def view(batches):
        return {k: (r.mean_utility, r.mean_comm) if isinstance(r, SimResult) else r
                for k, r in batches.items()}

    monkeypatch.setattr(tables, "monte_carlo", counted)
    tables._meeting_cell.cache_clear()
    first = tables.meeting_batches(-0.7, 0.55, 30, 4)
    want = view(first)
    assert len(runs) == 3 + len(tables.SUBGOAL_SWEEP)
    first["myopic"].mean_utility = 0.0
    first["ideal"].mean_comm = -1.0
    first["subgoals_p"] = None
    second = tables.meeting_batches(-0.7, 0.55, 30, 4)
    assert len(runs) == 3 + len(tables.SUBGOAL_SWEEP)
    assert view(second) == want


def test_single_episode_batch_matches_direct_run():
    dom = build_meeting(GridConfig())
    got = monte_carlo(SimConfig(domain=dom, strategy=NoCommunication(),
                                episodes=1, seed=5))
    child = np.random.SeedSequence(5).spawn(1)[0]
    u, steps, comm, _ = run_episode(
        dom, NoCommunication(), np.random.Generator(np.random.PCG64(child))
    )
    assert got.mean_utility == u
    assert got.mean_steps == steps
    assert got.mean_comm == comm
    assert got.variance == 0.0


def test_batch_statistics_match_logged_episodes():
    dom = build_meeting(GridConfig())
    got = monte_carlo(SimConfig(domain=dom, strategy=SubGoals(0.5),
                                episodes=80, seed=4, log_episodes=True))
    utilities = np.array([u for u, _, _ in got.per_episode])
    comms = np.array([c for _, _, c in got.per_episode])
    assert got.mean_utility == pytest.approx(float(utilities.mean()), abs=0)
    assert got.variance == pytest.approx(float(np.var(utilities, ddof=1)), abs=0)
    assert got.mean_comm == pytest.approx(float(comms.mean()), abs=0)
    assert got.std_error == pytest.approx(
        math.sqrt(got.variance / got.episodes), abs=0
    )
    assert got.comm_std_error == pytest.approx(
        math.sqrt(got.comm_variance / got.episodes), abs=0
    )


def test_no_communication_never_exchanges():
    dom = build_meeting(GridConfig())
    got = monte_carlo(SimConfig(domain=dom, strategy=NoCommunication(),
                                episodes=40, seed=2))
    assert got.mean_comm == 0.0


def test_horizon_cap_flags_unfinished_episodes():
    dom = build_meeting(GridConfig(width=3, height=3, p1=1.0, p2=1.0,
                                   start1=(0, 0), start2=(2, 2),
                                   horizon_cap=1))
    got = monte_carlo(SimConfig(domain=dom, strategy=NoCommunication(),
                                episodes=10, seed=1))
    assert got.capped_episodes == 10
    assert got.mean_steps == 1.0


def test_charged_exchanges_cost_exactly_the_fee_meeting():
    dom = build_meeting(GridConfig())
    free = monte_carlo(SimConfig(domain=dom, strategy=Ideal(),
                                 episodes=300, seed=9))
    paid = monte_carlo(SimConfig(domain=dom, strategy=AlwaysCommunicate(),
                                 episodes=300, seed=9))
    assert paid.mean_comm == free.mean_comm
    assert paid.mean_steps == free.mean_steps
    want = free.mean_utility + dom.config.comm_cost * free.mean_comm
    assert paid.mean_utility == pytest.approx(want, abs=1e-9)


def test_charged_exchanges_cost_exactly_the_fee_production():
    dom = build_production(0.8, 0.8, comm_cost=-0.1)
    free = monte_carlo(SimConfig(domain=dom, strategy=Ideal(),
                                 episodes=300, seed=9))
    paid = monte_carlo(SimConfig(domain=dom, strategy=AlwaysCommunicate(),
                                 episodes=300, seed=9))
    assert free.mean_comm == 10.0
    assert paid.mean_utility == pytest.approx(
        free.mean_utility + 10 * -0.1, abs=1e-9
    )


def test_full_information_production_tracks_planned_value():
    dom = build_production(0.8, 0.8, comm_cost=-0.1)
    got = monte_carlo(SimConfig(domain=dom, strategy=Ideal(),
                                episodes=1500, seed=21))
    planned = dom.joint_policy.value[
        dom.model.initial_state.s1, dom.model.initial_state.s2
    ]
    assert abs(got.mean_utility - planned) <= 3 * got.std_error


def test_mechanism_value_simulates_to_itself_on_toy_model():
    m = toy_model(p1=0.7, p2=0.5, comm_cost=-0.4, horizon=3)
    mech = msbpi(m)
    s0 = m.initial_state
    got = monte_carlo(SimConfig(domain=m, strategy=mech,
                                episodes=4000, seed=7))
    planned = mech.value[0, s0.s1, s0.s2]
    assert abs(got.mean_utility - planned) <= 3 * got.std_error + 1e-9


def test_region_triggered_exchanges_beat_silence():
    dom = build_meeting(GridConfig())
    silent = monte_carlo(SimConfig(domain=dom, strategy=NoCommunication(),
                                   episodes=1200, seed=31))
    region = monte_carlo(SimConfig(domain=dom, strategy=SubGoals(0.5),
                                   episodes=1200, seed=31))
    assert region.mean_utility > silent.mean_utility
    t, p = welch_ttest(region, silent)
    assert t > 0
    assert p < 0.01


def test_tabulated_exchange_times_beat_silence():
    dom = build_meeting(GridConfig())
    table = comm_policy_table(grid_size=10, p_u=0.8, comm_cost=-0.1)
    silent = monte_carlo(SimConfig(domain=dom, strategy=NoCommunication(),
                                   episodes=1200, seed=13))
    greedy = monte_carlo(SimConfig(domain=dom, strategy=MyopicGreedy(table),
                                   episodes=1200, seed=13))
    assert greedy.mean_comm > 0
    assert greedy.mean_utility > silent.mean_utility
    _, p = welch_ttest(greedy, silent)
    assert p < 0.01


def test_welch_separates_and_equates():
    a = SimResult(mean_utility=-10.0, variance=1.0, mean_comm=0, mean_steps=0,
                  episodes=200, seed=0)
    b = SimResult(mean_utility=-10.0, variance=1.0, mean_comm=0, mean_steps=0,
                  episodes=200, seed=1)
    c = SimResult(mean_utility=-20.0, variance=1.0, mean_comm=0, mean_steps=0,
                  episodes=200, seed=2)
    t_same, p_same = welch_ttest(a, b)
    assert t_same == 0.0
    assert p_same == 1.0
    _, p_far = welch_ttest(a, c)
    assert p_far < 1e-12


def test_results_csv_round_trips():
    a = SimResult(mean_utility=-24.25, variance=30.5, mean_comm=0.0,
                  mean_steps=24.25, episodes=1000, seed=0)
    b = SimResult(mean_utility=-17.125, variance=12.25, mean_comm=2.5,
                  mean_steps=15.0, episodes=1000, seed=0)
    text = results_csv([
        ("meeting", "no_comm", "p=0.8", a),
        ("meeting", "subgoals", "p=0.5", b),
    ])
    lines = text.strip().split("\n")
    assert lines[0].startswith("domain,strategy,param,mean_utility")
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert fields[0] == "meeting"
    assert float(fields[3]) == -17.125
    assert float(fields[5]) == 2.5
    assert int(fields[7]) == 1000
