"""Shared toy models for the test suite.

The chain agent is the smallest interesting local process: two states, a
risky move and a cheap wait.  Toy joint models pair two chain agents with a
per-step bonus for both sitting at state 1, which makes communication
genuinely useful at the right prices.  Random models pair two agents of
2-3 states, a free stay and a costly random move, with a random potential.
exchange_at_once builds the tree-pair mechanism that exchanges at once.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from commplan.model import AgentModel, DecMdpCom, FactoredState
from commplan.msbpi import GeneralMechanism, evaluate_policy, immediate_comm_pairs

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def chain_agent(name="chain", p=0.7, cost_go=-1.0, cost_wait=-0.2):
    """Two local states: 'go' moves 0 -> 1 with probability p, 'wait' stays.

    State 1 absorbs under both actions; 'wait' is the designated no-op.
    """
    tr = np.zeros((2, 2, 2))
    tr[0, 0, 1] = p
    tr[0, 0, 0] = 1.0 - p
    tr[0, 1, 0] = 1.0
    tr[1, 0, 1] = 1.0
    tr[1, 1, 1] = 1.0
    return AgentModel(
        n_states=2,
        actions=("go", "wait"),
        transition=tr,
        goal_candidates=(1,),
        action_cost=np.array([cost_go, cost_wait]),
        noop=1,
        name=name,
    )


def blocked_agent(name="blocked"):
    """Both actions keep the agent in place; state 1 is unreachable from 0."""
    tr = np.zeros((2, 2, 2))
    tr[0, 0, 0] = 1.0
    tr[0, 1, 0] = 1.0
    tr[1, 0, 1] = 1.0
    tr[1, 1, 1] = 1.0
    return AgentModel(
        n_states=2,
        actions=("push", "wait"),
        transition=tr,
        goal_candidates=(1,),
        action_cost=np.array([-1.0, 0.0]),
        noop=1,
        name=name,
    )


def toy_model(
    p1=0.7,
    p2=0.5,
    comm_cost=-0.4,
    horizon=3,
    bonus=3.0,
    cost_go=-1.0,
    cost_wait=-0.2,
):
    """Two chain agents; landing both in state 1 pays a per-step bonus."""

    def extra(s1, s2, ns1, ns2):
        return bonus if ns1 == 1 and ns2 == 1 else 0.0

    return DecMdpCom(
        agent1=chain_agent("left", p1, cost_go, cost_wait),
        agent2=chain_agent("right", p2, cost_go, cost_wait),
        comm_cost=comm_cost,
        horizon=horizon,
        initial_state=FactoredState(0, 0),
        extra_reward=extra,
    )


TOY_GRID = [
    dict(p1=0.7, p2=0.5, comm_cost=-0.4, horizon=3, bonus=3.0),
    dict(p1=0.9, p2=0.9, comm_cost=-0.1, horizon=3, bonus=2.0),
    dict(p1=0.5, p2=0.5, comm_cost=-2.0, horizon=3, bonus=5.0),
    dict(p1=0.7, p2=0.3, comm_cost=0.0, horizon=2, bonus=3.0),
    dict(p1=1.0, p2=1.0, comm_cost=-0.4, horizon=2, bonus=1.5),
]


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


def exchange_at_once(m):
    """The immediate-exchange mechanism: both agents communicate at once in
    every cell, so an episode stays in its start state and reaches every
    (s1, s2, t) with that state."""
    pairs = immediate_comm_pairs(m)
    return GeneralMechanism(pairs=pairs, value=evaluate_policy(pairs, m))


@pytest.fixture(scope="session")
def production_08():
    """One solved production scenario shared across test modules."""
    from commplan.domains import build_production
    from commplan.lgo import lgo_msbpi

    domain = build_production(0.8, 0.8, comm_cost=-0.1)
    mech = lgo_msbpi(domain.model, domain.candidates1, domain.candidates2)
    return domain, mech
