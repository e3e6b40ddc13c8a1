"""The array-table planner against the dict-table planner it replaced.

tests/lgo_reference.py keeps the dict-based planner, evaluator and CSV export
as they were.  On production, which has no extra reward, the array version
must reproduce them bit for bit: the same value table, sweep counts,
assignment in every cell and CSV text, for converged runs and for runs cut
short by max_sweeps.  The toys carry an extra reward, which the library sums
as window products and the reference cell by cell; that change of summation
order moves values by about 1e-15, so toy value tables agree within 1e-12
and a tied cell may pick another assignment that the reference's own
evaluator scores within 1e-12 of its table.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lgo_reference as ref
from commplan.domains import GRID_ACTIONS, GridConfig, build_meeting, build_production
from commplan.lgo import (
    GoalAssignment,
    LocalGoalPolicy,
    evaluate_lgo,
    lgo_msbpi,
    mechanism_csv,
)

from conftest import TOY_GRID, toy_model

GO, WAIT = 0, 1
POOL = [
    LocalGoalPolicy("march", np.array([[GO, WAIT]])),
    LocalGoalPolicy("idle", np.array([[WAIT, WAIT]])),
    LocalGoalPolicy("late", np.array([[WAIT, WAIT], [GO, WAIT]])),
]


def walk(label, *moves):
    """A 3x3 grid policy that takes moves[t] in every cell at time t."""
    return LocalGoalPolicy(label, np.array([[GRID_ACTIONS.index(a)] * 9 for a in moves]))


# the meeting grid's extra reward reads the pre-step states, the toys' the
# post-step states
MEETING_3X3 = GridConfig(
    width=3, height=3, p1=0.6, p2=0.7, start2=(2, 2), horizon_cap=4, comm_cost=-0.3
)
WALKS1 = [walk("east", "east"), walk("north", "north"), walk("stay", "stay"),
          walk("stay_then_east", "stay", "east")]
WALKS2 = [walk("west", "west"), walk("south", "south"), walk("stay", "stay")]


def assert_identical(mech, want, m):
    assert np.array_equal(mech.value, want.value)
    assert mech.sweeps == want.sweeps
    assert mech.sweep_candidate_counts == want.sweep_candidate_counts
    assert mech.candidates_considered == want.candidates_considered
    assert len(mech.assignment) == len(want.assignment)
    for t in range(m.horizon):
        for s1 in range(m.agent1.n_states):
            for s2 in range(m.agent2.n_states):
                got = mech.assignment[(s1, s2, t)]
                exp = want.assignment[(s1, s2, t)]
                assert ref.key(got) == ref.key(exp), (s1, s2, t)
    assert mechanism_csv(mech) == ref.mechanism_csv(want)


def assert_ties(mech, want, m):
    """The toy form of assert_identical: values within 1e-12, the table
    scored by the reference's evaluator within 1e-12 of the reference's
    values, the nominal count of every sweep, and the library's evaluator
    reproducing the planner's values exactly."""
    np.testing.assert_allclose(mech.value, want.value, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        ref.evaluate_lgo(dict(mech.assignment), m), want.value, rtol=0, atol=1e-12
    )
    assert mech.sweep_candidate_counts == want.sweep_candidate_counts[:1] * mech.sweeps
    assert np.array_equal(evaluate_lgo(mech, m), mech.value)


def toy_runs(params):
    """A toy input's model and the candidate pools it runs with: a TOY_GRID
    model with its default goal policies and with POOL, or the 3x3 meeting
    grid with the hand-made walks."""
    if isinstance(params, GridConfig):
        return build_meeting(params).model, [(WALKS1, WALKS2)]
    return toy_model(**params), [(None, None), (POOL, POOL)]


@pytest.fixture(scope="module", params=[-1.0, 0.0], ids=["fee-1", "fee0"])
def production_t4(request):
    return build_production(0.6, 0.6, T=4, comm_cost=request.param)


def test_production_matches_dict_planner(production_t4):
    d = production_t4
    mech = lgo_msbpi(d.model, d.candidates1, d.candidates2)
    want = ref.lgo_msbpi(d.model, d.candidates1, d.candidates2)
    assert_identical(mech, want, d.model)
    # the dict table goes through the same array evaluator
    assert np.array_equal(
        evaluate_lgo(ref.table_mechanism(want.assignment, d.model), d.model), want.value
    )


def test_production_one_sweep_matches_dict_planner(production_t4):
    d = production_t4
    mech = lgo_msbpi(d.model, d.candidates1, d.candidates2, max_sweeps=1)
    want = ref.lgo_msbpi(d.model, d.candidates1, d.candidates2, max_sweeps=1)
    assert mech.sweeps == 1
    assert_identical(mech, want, d.model)


@pytest.mark.parametrize("params", [*TOY_GRID, pytest.param(MEETING_3X3, id="meeting")])
@pytest.mark.parametrize("max_sweeps", [1, 200])
def test_toys_match_dict_planner(params, max_sweeps):
    m, pools = toy_runs(params)
    for cand1, cand2 in pools:
        assert_ties(
            lgo_msbpi(m, cand1, cand2, max_sweeps=max_sweeps),
            ref.lgo_msbpi(m, cand1, cand2, max_sweeps=max_sweeps),
            m,
        )


@given(seed=st.integers(0, 10**6), params=st.sampled_from(TOY_GRID))
def test_dict_evaluation_matches_dict_evaluator(seed, params):
    m = toy_model(**params)
    pick = np.random.default_rng(seed)
    table = {}
    for t in range(m.horizon):
        for s1 in range(2):
            for s2 in range(2):
                k = int(pick.integers(1, m.horizon - t + 1))
                table[(s1, s2, t)] = GoalAssignment(
                    POOL[pick.integers(3)], POOL[pick.integers(3)], k
                )
    np.testing.assert_allclose(
        evaluate_lgo(ref.table_mechanism(table, m), m),
        ref.evaluate_lgo(table, m),
        rtol=0,
        atol=1e-12,
    )
