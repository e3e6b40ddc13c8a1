"""The incremental tree-pair search against the search that walks from the root.

tests/msbpi_reference.py keeps improve_state and msbpi as they were before
search nodes carried their forward state.  The incremental search must
create the same nodes in the same order and land on bitwise the same
values, pairs, node counts, history and iteration CSV.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import msbpi_reference as ref
from commplan.domains import GridConfig, build_meeting
from commplan.model import DecMdpCom, FactoredState
from commplan.msbpi import NodeBudgetExceeded, improve_state, iteration_csv, msbpi

from conftest import TOY_GRID, chain_agent, toy_model
from oracles import root_walk_f_value


def assert_identical(mech, want):
    assert mech.pairs == want.pairs
    assert np.array_equal(mech.value, want.value)
    assert mech.nodes_created == want.nodes_created
    assert mech.iterations == want.iterations
    assert mech.history == want.history
    assert iteration_csv(mech) == iteration_csv(want)


@pytest.mark.parametrize("horizon", [None, 6], ids=["default", "h6"])
@pytest.mark.parametrize("max_option_length", [None, 1, 2, 3])
@pytest.mark.parametrize("params", TOY_GRID)
def test_toys_match_root_walk(params, max_option_length, horizon):
    m = toy_model(**dict(params, **({} if horizon is None else {"horizon": horizon})))
    assert_identical(
        msbpi(m, max_option_length=max_option_length),
        ref.msbpi(m, max_option_length=max_option_length),
    )


@pytest.mark.parametrize("budget", [10, 500, 3000])
def test_budget_overrun_counts_match_root_walk(budget):
    model = build_meeting(GridConfig(p1=0.8, p2=0.8)).model
    s0 = model.initial_state
    # every pair beats the root cell, so the search runs past each budget
    V = np.zeros((model.horizon + 1, 100, 100))
    V[0, s0.s1, s0.s2] = -1e6
    created = []
    for search in (improve_state, ref.improve_state):
        with pytest.raises(NodeBudgetExceeded) as err:
            search(s0, 0, V, model, node_budget=budget)
        created.append(err.value.created)
    assert created[0] == created[1] == budget + 1


@given(
    p1=st.floats(0.05, 1.0),
    p2=st.floats(0.05, 1.0),
    comm_cost=st.floats(-2.0, 0.0),
    horizon=st.integers(1, 4),
    step=st.integers(0, 3),
    s1=st.integers(0, 1),
    s2=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_improve_state_value_is_the_pair_value(
    p1, p2, comm_cost, horizon, step, s1, s2, seed
):
    m = DecMdpCom(
        agent1=chain_agent("left", p1),
        agent2=chain_agent("right", p2),
        comm_cost=comm_cost,
        horizon=horizon,
        initial_state=FactoredState(0, 0),
    )
    V = np.random.default_rng(seed).normal(size=(horizon + 1, 2, 2))
    V[horizon] = 0.0
    s, t = FactoredState(s1, s2), step % horizon
    res = improve_state(s, t, V, m, max_option_length=3)
    if res is None:
        return
    (tree1, tree2), value = res
    assert value == root_walk_f_value(tree1, tree2, m, s, t, V)
