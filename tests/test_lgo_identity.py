"""The array-table planner against the dict-table planner it replaced.

tests/lgo_reference.py keeps the dict-based planner, evaluator and CSV export
as they were.  The array version must reproduce them bit for bit: the same
value table, sweep counts, assignment in every cell and CSV text, on the
dense-potential path (production) and the general-reward path (toys), for
converged runs and for runs cut short by max_sweeps.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lgo_reference as ref
from commplan.domains import build_production
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


@pytest.mark.parametrize("params", TOY_GRID)
@pytest.mark.parametrize("max_sweeps", [1, 200])
def test_toys_match_dict_planner(params, max_sweeps):
    m = toy_model(**params)
    assert_identical(
        lgo_msbpi(m, max_sweeps=max_sweeps), ref.lgo_msbpi(m, max_sweeps=max_sweeps), m
    )
    assert_identical(
        lgo_msbpi(m, POOL, POOL, max_sweeps=max_sweeps),
        ref.lgo_msbpi(m, POOL, POOL, max_sweeps=max_sweeps),
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
    assert np.array_equal(
        evaluate_lgo(ref.table_mechanism(table, m), m), ref.evaluate_lgo(table, m)
    )
