"""Tests for the one-exchange greedy communication layer.

The meeting-time recursion is cross-checked against an independent tail-sum
oracle: a walker needing d successes at rate p finishes by time t with
probability P(Binom(t, p) >= d), so the expected meeting time is the sum over
t of the survival probability of the slower walker.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from commplan.domains import GridConfig, build_meeting
from commplan.lgo import LocalGoalPolicy
from commplan.myopic import (
    CommPolicy,
    _distance_laws,
    _exchange_scores,
    comm_policy_table,
    comm_table_csv,
    split_distance,
    theta_nc_meeting,
)
from commplan.tables import comm_table_values

from conftest import toy_model
from oracles import (FixedLocalPolicies, decode, distance_evolution, encode,
                     exchange_times_walk, midpoint, pbar, rbar, step_toward, theta_c, theta_nc)
from oracles import TimedState as FactoredState

GO, WAIT = 0, 1


# ---------------------------------------------------------------------------
# oracles


def _bump(pmf: np.ndarray, p: float) -> np.ndarray:
    """Binomial pmf after one more trial with success probability p."""
    out = np.zeros(len(pmf) + 1)
    out[:-1] += pmf * (1.0 - p)
    out[1:] += pmf * p
    return out


def meeting_time_tail_oracle(d1, d2, p1, p2, cap=20000):
    """Expected joint finish time as a sum of survival probabilities."""
    pmf1, pmf2 = np.array([1.0]), np.array([1.0])
    total = 0.0
    for _ in range(cap):
        done1 = pmf1[d1:].sum() if d1 < len(pmf1) else 0.0
        done2 = pmf2[d2:].sum() if d2 < len(pmf2) else 0.0
        tail = 1.0 - done1 * done2
        total += tail
        if tail < 1e-15:
            break
        pmf1, pmf2 = _bump(pmf1, p1), _bump(pmf2, p2)
    return total


# ---------------------------------------------------------------------------
# closed-form meeting times


def test_meeting_time_zero_when_both_arrived():
    assert theta_nc_meeting(0, 0, 0.5) == 0.0
    assert theta_nc_meeting(0, 0, 0.0) == 0.0


@pytest.mark.parametrize(
    "d,p,want",
    [(1, 0.5, -2.0), (3, 1.0, -3.0), (9, 0.8, -11.25)],
)
def test_meeting_time_single_walker_is_geometric(d, p, want):
    assert theta_nc_meeting(d, 0, p) == pytest.approx(want, abs=1e-12)
    assert theta_nc_meeting(0, d, 0.3, p) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_meeting_time_unit_pair_closed_form(p):
    # E[max] = E[T1] + E[T2] - E[min]; the min of two unit geometrics is
    # geometric with success rate 1 - (1-p)^2
    want = -(2.0 / p - 1.0 / (1.0 - (1.0 - p) ** 2))
    assert theta_nc_meeting(1, 1, p) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "d1,d2,p1,p2",
    [(9, 9, 0.8, 0.8), (3, 5, 0.4, 0.4), (2, 2, 0.2, 0.2), (4, 7, 0.6, 0.9)],
)
def test_meeting_time_matches_tail_oracle(d1, d2, p1, p2):
    want = -meeting_time_tail_oracle(d1, d2, p1, p2)
    assert theta_nc_meeting(d1, d2, p1, p2) == pytest.approx(want, abs=1e-9)


def test_meeting_time_monotone_in_distance():
    for d1 in range(7):
        for d2 in range(7):
            here = theta_nc_meeting(d1, d2, 0.7)
            assert theta_nc_meeting(d1 + 1, d2, 0.7) <= here + 1e-12
            assert theta_nc_meeting(d1, d2 + 1, 0.7) <= here + 1e-12


def test_meeting_time_symmetric_for_equal_rates():
    for d1 in range(6):
        for d2 in range(6):
            assert theta_nc_meeting(d1, d2, 0.6) == pytest.approx(
                theta_nc_meeting(d2, d1, 0.6), abs=1e-12
            )


def test_meeting_time_second_rate_defaults_to_first():
    assert theta_nc_meeting(3, 4, 0.6) == theta_nc_meeting(3, 4, 0.6, 0.6)


def test_meeting_time_rejects_bad_arguments():
    with pytest.raises(ValueError, match="nonnegative"):
        theta_nc_meeting(-1, 2, 0.5)
    with pytest.raises(ValueError, match="diverges"):
        theta_nc_meeting(3, 0, 0.0)
    with pytest.raises(ValueError, match="diverges"):
        theta_nc_meeting(0, 3, 0.5, 0.0)


def test_corner_start_best_placement_is_balanced():
    # opposite corners of a 10x10 grid: every cell splits the separation 18;
    # the even split is the cheapest placement and costs about -12.16, and
    # among the four standard rates only 0.8 lands near that number
    values = [theta_nc_meeting(d1, 18 - d1, 0.8) for d1 in range(19)]
    assert int(np.argmax(values)) == 9
    assert values[9] == pytest.approx(-12.16, abs=0.01)
    near = [p for p in (0.2, 0.4, 0.6, 0.8)
            if abs(theta_nc_meeting(9, 9, p, p) + 12.16) <= 0.01]
    assert near == [0.8]


def test_meeting_time_work_scales_with_grid_area():
    # every recursion argument is at most half the diameter, so the number
    # of distinct cells solved for a g x g grid is at most g * g
    for g in (4, 6, 8, 10):
        theta_nc_meeting.cache_clear()
        _exchange_scores.cache_clear()
        comm_policy_table(grid_size=g, p_u=0.6, comm_cost=-0.1)
        assert theta_nc_meeting.cache_info().misses <= g * g
    theta_nc_meeting.cache_clear()
    theta_nc_meeting(9, 9, 0.8)
    assert theta_nc_meeting.cache_info().misses == 100


# ---------------------------------------------------------------------------
# fixed-policy plumbing


def test_fixed_policies_accept_all_policy_forms():
    goal_pol = LocalGoalPolicy(label="march", actions=np.array([[GO, WAIT]]))
    by_call = lambda s, t: WAIT if s == 1 else GO  # noqa: E731
    flat = np.array([GO, WAIT])
    staged = np.array([[GO, GO], [WAIT, WAIT]])
    pol = FixedLocalPolicies(goal_pol, by_call)
    assert pol.action(1, 0, 5) == GO
    assert pol.action(1, 1, 0) == WAIT
    assert pol.action(2, 1, 3) == WAIT
    pol = FixedLocalPolicies(flat, staged)
    assert pol.action(1, 0, 9) == GO
    assert pol.action(2, 0, 0) == GO
    assert pol.action(2, 0, 1) == WAIT
    assert pol.action(2, 0, 9) == WAIT  # rows clamp at the last stage


# ---------------------------------------------------------------------------
# no-exchange value on joint models


def _walk_to_midpoint(dom):
    target = midpoint(dom.config.start1, dom.config.start2)

    def act(s, t):
        return step_toward(decode(dom, s), target)

    return FixedLocalPolicies(act, act)


def test_no_exchange_value_zero_at_global_goal():
    cfg = GridConfig(width=3, height=1, p1=1.0, p2=1.0,
                     start1=(1, 0), start2=(1, 0), horizon_cap=10)
    dom = build_meeting(cfg)
    pol = _walk_to_midpoint(dom)
    assert theta_nc(dom.model, dom.model.initial_state, pol) == 0.0


def test_no_exchange_value_truncates_at_horizon():
    cfg = GridConfig(width=2, height=1, p1=1.0, p2=1.0,
                     start1=(0, 0), start2=(1, 0), horizon_cap=5)
    dom = build_meeting(cfg)
    stay = np.array([4, 4])
    value = theta_nc(dom.model, dom.model.initial_state,
                     FixedLocalPolicies(stay, stay))
    assert value == pytest.approx(-5.0, abs=1e-12)


def test_no_exchange_value_matches_distance_recursion_on_line():
    cfg = GridConfig(width=10, height=1, p1=0.8, p2=0.8,
                     start1=(0, 0), start2=(9, 0), horizon_cap=200)
    dom = build_meeting(cfg)
    value = theta_nc(dom.model, dom.model.initial_state, _walk_to_midpoint(dom))
    assert value == pytest.approx(theta_nc_meeting(4, 5, 0.8), abs=1e-9)


def test_no_exchange_value_matches_distance_recursion_on_square():
    dom = build_meeting(GridConfig())
    value = theta_nc(dom.model, dom.model.initial_state, _walk_to_midpoint(dom))
    assert value == pytest.approx(theta_nc_meeting(9, 9, 0.8), abs=1e-9)


# ---------------------------------------------------------------------------
# reach probabilities and conditional path rewards


def test_reach_probability_identity():
    m = toy_model()
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    s = FactoredState(0, 0, 3)
    assert pbar(m, s, s, pol) == 1.0


def test_reach_probability_single_step():
    m = toy_model(p1=0.7, p2=0.5)
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    got = pbar(m, FactoredState(0, 0, 0), FactoredState(1, 0, 1), pol)
    assert got == pytest.approx(0.7 * 0.5, abs=1e-12)


def test_reach_probability_zero_for_past_times():
    m = toy_model()
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    assert pbar(m, FactoredState(0, 0, 2), FactoredState(1, 1, 1), pol) == 0.0
    assert pbar(m, FactoredState(0, 0, 2), FactoredState(1, 1, 2), pol) == 0.0


def test_reach_probability_chains_and_normalizes():
    m = toy_model(p1=0.7, p2=0.5)
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    s0 = FactoredState(0, 0, 0)
    got = pbar(m, s0, FactoredState(1, 1, 2), pol)
    assert got == pytest.approx((1 - 0.3**2) * (1 - 0.5**2), abs=1e-12)
    total = sum(
        pbar(m, s0, FactoredState(q1, q2, 2), pol)
        for q1 in (0, 1)
        for q2 in (0, 1)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_reach_probability_requires_time_stamps():
    m = toy_model()
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    with pytest.raises(ValueError, match="time stamp"):
        pbar(m, FactoredState(0, 0), FactoredState(1, 1, 1), pol)
    with pytest.raises(ValueError, match="time stamp"):
        pbar(m, FactoredState(0, 0, 0), FactoredState(1, 1), pol)


def test_path_reward_accumulates_deterministically():
    m = toy_model(p1=1.0, p2=1.0, bonus=1.5)
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    s0 = FactoredState(0, 0, 0)
    # each step costs -2 and lands both at 1 for the +1.5 bonus
    assert rbar(m, s0, FactoredState(1, 1, 1), pol) == pytest.approx(-0.5)
    assert rbar(m, s0, FactoredState(1, 1, 2), pol) == pytest.approx(-1.0)


def test_path_reward_conditions_on_arrival():
    m = toy_model(p1=0.5, p2=1.0, bonus=1.5)
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    # reach (1,1) at t=2 either by succeeding at once (mass 0.5, reward
    # -0.5 - 0.5) or after one failure (mass 0.25, reward -2.0 - 0.5)
    got = rbar(m, FactoredState(0, 0, 0), FactoredState(1, 1, 2), pol)
    want = (0.5 * -1.0 + 0.25 * -2.5) / 0.75
    assert got == pytest.approx(want, abs=1e-12)


def test_path_reward_zero_when_unreachable():
    m = toy_model(p1=0.5, p2=1.0)
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    got = rbar(m, FactoredState(0, 0, 0), FactoredState(0, 0, 1), pol)
    assert got == 0.0


def test_path_reward_rejects_backward_time():
    m = toy_model()
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    with pytest.raises(ValueError, match="exceed"):
        rbar(m, FactoredState(0, 0, 2), FactoredState(1, 1, 2), pol)


# ---------------------------------------------------------------------------
# one-exchange value


def test_exchange_adds_only_its_fee_when_deterministic():
    cfg = GridConfig(width=5, height=1, p1=1.0, p2=1.0,
                     start1=(0, 0), start2=(4, 0),
                     comm_cost=-0.1, horizon_cap=50)
    dom = build_meeting(cfg)
    pol = _walk_to_midpoint(dom)
    s0 = dom.model.initial_state
    base = theta_nc(dom.model, s0, pol)
    assert base == pytest.approx(-2.0, abs=1e-12)
    reveal1 = FactoredState(encode(dom, (1, 0)), None, 1)
    reveal2 = FactoredState(None, encode(dom, (3, 0)), 1)
    assert theta_c(dom.model, s0, reveal1, pol) == pytest.approx(-2.1)
    assert theta_c(dom.model, s0, reveal2, pol) == pytest.approx(-2.1)


def test_exchange_fee_waived_once_goal_reached():
    cfg = GridConfig(width=5, height=1, p1=1.0, p2=1.0,
                     start1=(0, 0), start2=(4, 0),
                     comm_cost=-0.1, horizon_cap=50)
    dom = build_meeting(cfg)
    pol = _walk_to_midpoint(dom)
    reveal = FactoredState(None, encode(dom, (2, 0)), 2)
    got = theta_c(dom.model, dom.model.initial_state, reveal, pol)
    assert got == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("fee", [0.0, -0.4])
def test_exchange_value_is_no_exchange_value_plus_fee(fee):
    # fixed policies ignore what the exchange reveals, so averaging the
    # exchange value over the revealed side recovers the silent value
    # shifted by exactly one fee
    m = toy_model(p1=0.7, p2=0.5, comm_cost=fee, horizon=3)
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    s0 = FactoredState(0, 0, 0)
    base = theta_nc(m, s0, pol)
    mixed = sum(
        w * theta_c(m, s0, FactoredState(q, None, 1), pol)
        for q, w in ((0, 0.3), (1, 0.7))
    )
    assert mixed == pytest.approx(base + fee, abs=1e-12)


def test_exchange_value_validates_arguments():
    m = toy_model()
    pol = FixedLocalPolicies(np.array([GO, GO]), np.array([GO, GO]))
    s0 = FactoredState(0, 0, 0)
    with pytest.raises(ValueError, match="exactly one"):
        theta_c(m, s0, FactoredState(1, 1, 1), pol)
    with pytest.raises(ValueError, match="exactly one"):
        theta_c(m, s0, FactoredState(None, None, 1), pol)
    with pytest.raises(ValueError, match="at least 1"):
        theta_c(m, s0, FactoredState(1, None, 0), pol)


def test_free_exchange_after_one_step_never_hurts():
    # scoring an immediate fee-free exchange over the joint remaining-distance
    # walk must weakly beat staying silent at every distance
    for p in (0.2, 0.4, 0.6, 0.8):
        for d in range(1, 19):
            d1, d2 = split_distance(d)
            base = theta_nc_meeting(d1, d2, p, p)
            _, met, alive = next(iter(distance_evolution(d1, d2, p, 1)))
            value = met * -1.0 - sum(alive.values()) + sum(
                mass * theta_nc_meeting(*split_distance(r1 + r2), p, p)
                for (r1, r2), mass in alive.items()
            )
            assert value >= base - 1e-12


# ---------------------------------------------------------------------------
# distance bookkeeping


@given(st.integers(min_value=0, max_value=60))
def test_split_distance_balances_halves(d):
    a, b = split_distance(d)
    assert a + b == d
    assert 0 <= b - a <= 1


def test_distance_evolution_deterministic_walk():
    steps = list(distance_evolution(2, 3, 1.0, 4))
    assert steps[0] == (1, 0.0, {(1, 2): 1.0})
    assert steps[1] == (2, 0.0, {(0, 1): 1.0})
    assert steps[2] == (3, 1.0, {})
    assert steps[3] == (4, 0.0, {})


def test_distance_evolution_conserves_mass():
    met_total = 0.0
    for _, met, alive in distance_evolution(2, 2, 0.5, 10):
        met_total += met
        assert met_total + sum(alive.values()) == pytest.approx(1.0, abs=1e-12)


def test_distance_evolution_finished_side_stays_done():
    steps = list(distance_evolution(0, 1, 0.5, 1))
    assert steps[0][1] == pytest.approx(0.5)
    assert steps[0][2] == {(0, 1): 0.5}


def test_distance_laws_match_the_pair_walk():
    # the joint law is the outer product of the two walkers' laws
    laws = _distance_laws(3, 0.35, 6)
    for t, met, alive in distance_evolution(2, 3, 0.35, 6):
        joint = np.outer(laws[t, 2], laws[t, 3])
        assert joint[0, 0] - np.outer(laws[t - 1, 2], laws[t - 1, 3])[0, 0] == pytest.approx(met)
        for (r1, r2), mass in alive.items():
            assert joint[r1, r2] == pytest.approx(mass, abs=1e-15)
    assert np.allclose(laws.sum(-1), 1.0)


# ---------------------------------------------------------------------------
# exchange-time tables


# comm_table_values at fees -0.1, -1 and -10 (T5-T7), as the pair walk built them
PINNED_ROWS = {
    -0.1: {
        0.2: (None, None, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3),
        0.4: (None, None, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3),
        0.6: (None, None, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3),
        0.8: (None, None, 2, 3, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4),
    },
    -1.0: {
        0.2: (None, None, 3, 6, 3, 6, 4, 7, 4, 7, 5, 7, 5, 8, 5, 8, 6, 9),
        0.4: (None, None, None, None, 4, None, 4, 6, 5, 7, 5, 7, 6, 8, 6, 8, 7, 9),
        0.6: (None,) * 8 + (6, None, 6, 8, 7, 9, 7, 9, 8, 10),
        0.8: (None,) * 16 + (10, None),
    },
    -10.0: {p: (None,) * 18 for p in (0.2, 0.4, 0.6, 0.8)},
}


@pytest.mark.parametrize("fee", sorted(PINNED_ROWS))
def test_recorded_fee_rows_are_pinned(fee):
    assert comm_table_values(fee) == PINNED_ROWS[fee]


# Below p of about 0.005 the scores reach d/p in size and the rule's absolute
# 1e-12 margin is under their rounding, so at separations where an exchange
# gains exactly nothing (a zero fee) both builders decide by rounding.
@given(
    st.integers(min_value=2, max_value=8),
    st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0)),
    st.one_of(st.just(0.0), st.just(-1e6), st.floats(min_value=-1e6, max_value=0.0)),
    st.integers(min_value=2, max_value=60),
)
def test_exchange_times_match_pair_walk(grid_size, p, fee, time_cap):
    want = exchange_times_walk(grid_size, p, fee, -1.0, time_cap)
    assert comm_policy_table(grid_size, p, fee, -1.0, time_cap).times == want


def test_comm_times_anchor_cell():
    pol = comm_policy_table(grid_size=10, p_u=0.4, comm_cost=-1.0)
    assert pol.time_for(5) == 4


def test_comm_times_for_cheap_exchanges():
    pol = comm_policy_table(grid_size=10, p_u=0.8, comm_cost=-0.1)
    assert pol.time_for(3) == 2
    assert pol.time_for(4) == 3
    assert pol.time_for(5) == 2
    assert pol.time_for(18) == 4
    # one or two cells of separation resolve too fast for an exchange to pay
    assert pol.time_for(1) is None
    assert pol.time_for(2) is None
    assert all(t >= 1 for t in pol.times.values())


def test_costlier_exchanges_happen_later():
    for p in (0.4, 0.8):
        cheap = comm_policy_table(10, p, -0.1).times
        dear = comm_policy_table(10, p, -1.0).times
        shared = set(cheap) & set(dear)
        assert shared
        assert all(dear[d] >= cheap[d] for d in shared)


def test_prohibitive_fee_never_communicates():
    assert comm_policy_table(10, 0.8, -1e6).times == {}


def test_comm_table_rejects_bad_parameters():
    with pytest.raises(ValueError, match="probability"):
        comm_policy_table(10, 0.0, -0.1)
    with pytest.raises(ValueError, match="probability"):
        comm_policy_table(10, 1.2, -0.1)
    with pytest.raises(ValueError, match="action cost"):
        comm_policy_table(10, 0.8, -0.1, action_cost=0.0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"action_cost": float("nan")}, "action_cost"),
        ({"action_cost": -math.inf}, "action_cost"),
        ({"comm_cost": float("nan")}, "comm_cost"),
        ({"comm_cost": -math.inf}, "comm_cost"),
        ({"comm_cost": 0.5}, "comm_cost"),
        ({"p_u": float("nan")}, "p_u"),
        ({"grid_size": 0}, "grid_size"),
        ({"grid_size": -3}, "grid_size"),
        ({"grid_size": 2.5}, "grid_size"),
        ({"time_cap": 0}, "time_cap"),
        ({"time_cap": 12.0}, "time_cap"),
    ],
    ids=["action-nan", "action-neg-inf", "comm-nan", "comm-neg-inf", "comm-positive",
         "p-nan", "grid-0", "grid-negative", "grid-fraction", "cap-0", "cap-float"],
)
def test_comm_table_names_the_bad_argument(kwargs, name):
    with pytest.raises(ValueError, match=name):
        comm_policy_table(**kwargs)


def test_one_cell_grid_has_no_separations():
    assert comm_policy_table(grid_size=1).times == {}
    assert comm_policy_table(grid_size=4, time_cap=1).times == {}


def test_exchange_time_table_is_built_once_per_arguments(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return _distance_laws(*args)

    monkeypatch.setattr("commplan.myopic._distance_laws", counted)
    _exchange_scores.cache_clear()
    first = comm_policy_table(grid_size=6, p_u=0.45, comm_cost=-0.7)
    assert len(built) == 1
    # positional, keyword and default arguments name the same table
    second = comm_policy_table(6, 0.45, -0.7, -1.0, 200)
    assert len(built) == 1
    assert second.times == first.times
    comm_policy_table(6, 0.45, -0.7, time_cap=150)
    assert len(built) == 2
    # another fee or action cost reuses the rate's fee-free scores
    comm_policy_table(6, 0.45, -3.0)
    comm_policy_table(6, 0.45, -0.7, -2.0)
    assert len(built) == 2


def test_exchange_time_tables_do_not_share_times():
    first = comm_policy_table(10, 0.6, -1.0)
    want = dict(first.times)
    first.times[1] = 99
    del first.times[18]
    assert comm_policy_table(10, 0.6, -1.0).times == want


def test_comm_policy_times_start_at_one():
    with pytest.raises(ValueError, match=">= 1"):
        CommPolicy(times={2: 0})
    pol = CommPolicy(times={2: 1})
    assert pol.time_for(2) == 1
    assert pol.time_for(7) is None


def test_comm_table_csv_layout():
    text = comm_table_csv(comm_cost=-0.1)
    lines = text.strip().split("\n")
    assert lines[0] == "p_u," + ",".join(str(d) for d in range(1, 19))
    assert len(lines) == 5
    want = comm_policy_table(10, 0.8, -0.1)
    cells = lines[4].split(",")
    assert cells[0] == "0.8"
    for d in range(1, 19):
        if d in want.times:
            assert cells[d] == str(want.times[d])
        else:
            assert cells[d] == "never"
