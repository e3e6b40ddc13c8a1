"""Text round-trip for joint models."""

import re

import numpy as np
import pytest

from commplan.model import AgentModel, DecMdpCom, FactoredState
from commplan.model_io import ModelFormatError, parse_model, serialize_model
from oracles import models_equal

SAMPLE = """
model sample
horizon 4
comm_cost -1.0
initial s0 s0

agent 1 left
  states s0 s1
  actions move stay
  noop stay
  goals s1
  cost move -1
  cost stay 0
  trans s0 move : s0 0.5 s1 0.5

agent 2 right
  states s0 s1
  actions move stay
  noop stay
  goals s1
  cost move -1
  cost stay 0
  trans s0 move : s0 0.3 s1 0.7

goal_pairs (s1,s1)
"""


def test_parse_sample_model():
    m = parse_model(SAMPLE)
    assert m.horizon == 4
    assert m.comm_cost == pytest.approx(-1.0)
    assert m.initial_state == FactoredState(0, 0)
    assert m.agent1.name == "left"
    assert m.agent1.transition[0, 0, 1] == pytest.approx(0.5)
    # unlisted rows default to staying in place
    assert m.agent1.transition[0, 1, 0] == pytest.approx(1.0)
    assert m.agent2.transition[0, 0, 1] == pytest.approx(0.7)
    assert m.agent1.noop == 1
    assert m.goal[1, 1] and not m.goal[0, 1]


def test_round_trip_is_identity():
    m = parse_model(SAMPLE)
    text = serialize_model(m)
    again = parse_model(text)
    assert models_equal(m, again)
    # canonical form is stable under a second pass
    assert serialize_model(again) == text


def test_models_equal_detects_changed_dynamics():
    a = parse_model(SAMPLE)
    b = parse_model(SAMPLE.replace("s0 0.3 s1 0.7", "s0 0.4 s1 0.6"))
    assert not models_equal(a, b)


def test_parse_rejects_malformed_trans_row():
    with pytest.raises(ModelFormatError):
        parse_model(SAMPLE.replace("trans s0 move :", "trans s0 :"))


def test_parse_rejects_unknown_state():
    with pytest.raises(ModelFormatError):
        parse_model(SAMPLE.replace("trans s0 move : s0 0.5 s1 0.5", "trans s9 move : s0 1.0"))


def test_parse_rejects_unnormalized_row():
    with pytest.raises(ModelFormatError):
        parse_model(SAMPLE.replace("s0 0.5 s1 0.5", "s0 0.5 s1 0.6"))


def test_serializes_models_built_in_code():
    tr = np.zeros((2, 2, 2))
    tr[0, 0, 1] = 1.0
    tr[0, 1, 0] = 1.0
    tr[1, 0, 1] = 1.0
    tr[1, 1, 1] = 1.0
    agent = AgentModel(
        n_states=2,
        actions=("go", "stay"),
        transition=tr,
        action_cost=np.array([-1.0, 0.0]),
        noop=1,
        name="walker",
    )
    m = DecMdpCom(
        agent1=agent,
        agent2=agent,
        comm_cost=-0.5,
        horizon=3,
        initial_state=FactoredState(0, 0),
        goal=[[False, False], [False, True]],
        name="pairwalk",
    )
    again = parse_model(serialize_model(m))
    assert models_equal(m, again)
    assert again.goal[1, 1]


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("trans s0 move : s0 0.5 s1 0.5", "trans s0 move : s0 nan s1 0.5", 14),
        ("cost move -1\n  cost stay 0\n  trans s0 move : s0 0.3",
         "cost move inf\n  cost stay 0\n  trans s0 move : s0 0.3", 21),
        ("comm_cost -1.0", "comm_cost nan", 4),
    ],
    ids=["trans", "cost", "comm_cost"],
)
def test_parse_rejects_non_finite_numbers(old, new, line):
    assert old in SAMPLE
    with pytest.raises(ModelFormatError, match=f"line {line}: non-finite number"):
        parse_model(SAMPLE.replace(old, new))


@pytest.mark.parametrize(
    "old, new, what",
    [
        ("horizon 4\n", "horizon 4\nhorizon 9\n", "key 'horizon'"),
        ("noop stay\n  goals s1\n  cost move -1\n  cost stay 0\n  trans s0 move : s0 0.5",
         "noop stay\n  noop move\n  goals s1\n  cost move -1\n  cost stay 0\n  trans s0 move : s0 0.5",
         "key 'noop'"),
        ("cost stay 0\n  trans s0 move : s0 0.5", "cost stay 0\n  cost move -2\n  trans s0 move : s0 0.5",
         "cost for action 'move'"),
        ("trans s0 move : s0 0.5 s1 0.5", "trans s0 move : s0 0.5 s1 0.5\n  trans s0 move : s1 1.0",
         "trans s0 move"),
        ("states s0 s1", "states s0 s1 s0", "state 's0'"),
        ("actions move stay", "actions move stay move", "action 'move'"),
    ],
    ids=["header", "agent_block", "cost", "trans", "state_label", "action_label"],
)
def test_parse_rejects_repeated_keys(old, new, what):
    assert old in SAMPLE
    with pytest.raises(ModelFormatError, match=f"repeated {what}"):
        parse_model(SAMPLE.replace(old, new, 1))


@pytest.mark.parametrize(
    "old, new, what",
    [
        ("horizon 4", "horizon", "line 3: 'horizon' is missing a value"),
        ("comm_cost -1.0", "comm_cost", "line 4: 'comm_cost' is missing a value"),
        ("agent 1 left", "agent", "line 7: 'agent' is missing a value"),
        ("noop stay", "noop", "line 10: 'noop' is missing a value"),
        ("initial s0 s0", "initial s0", "line 5: 'initial' is missing a value"),
        ("cost move -1", "cost move", "line 12: 'cost' is missing a value"),
        ("horizon 4", "horizon 2.5", "line 3: '2.5' is not an integer"),
        ("(s1,s1)", "(s1s1)", "line 25: goal pair '\\(s1s1\\)' has no comma"),
        ("noop stay", "noop s0", "line 10: unknown noop action 's0'"),
    ],
    ids=["horizon", "comm_cost", "agent", "noop", "initial", "cost", "horizon-float",
         "goal-pair", "noop-not-an-action"],
)
def test_parse_rejects_missing_values(old, new, what):
    assert old in SAMPLE
    with pytest.raises(ModelFormatError, match=what):
        parse_model(SAMPLE.replace(old, new, 1))


@pytest.mark.parametrize(
    "old, new, what",
    [
        ("horizon 4", "horizon 4 9", "line 3: 'horizon' has extra tokens: 9"),
        ("comm_cost -1.0", "comm_cost -1.0 -5", "line 4: 'comm_cost' has extra tokens: -5"),
        ("noop stay", "noop stay move", "line 10: 'noop' has extra tokens: move"),
        ("cost move -1", "cost move -1 2", "line 12: 'cost' has extra tokens: 2"),
        ("initial s0 s0", "initial s0 s0 s1", "line 5: 'initial' has extra tokens: s1"),
        ("model sample", "model a b", "line 2: 'model' has extra tokens: b"),
        ("agent 1 left", "agent 1 left right", "line 7: 'agent' has extra tokens: right"),
    ],
    ids=["horizon", "comm_cost", "noop", "cost", "initial", "model", "agent"],
)
def test_parse_rejects_extra_tokens(old, new, what):
    assert old in SAMPLE
    with pytest.raises(ModelFormatError, match=what):
        parse_model(SAMPLE.replace(old, new, 1))


def test_parse_rejects_a_missing_agent_block():
    with pytest.raises(ModelFormatError, match="missing block 'agent 1'"):
        parse_model("horizon 3\ncomm_cost -1\ninitial s0 s0\n")


def test_serialize_rejects_rewards_the_format_cannot_carry():
    from conftest import toy_model

    with pytest.raises(ValueError, match="extra_reward"):
        serialize_model(toy_model())
    m = parse_model(SAMPLE)
    m.potential = lambda s1, s2: float(s1 + s2)
    with pytest.raises(ValueError, match="potential"):
        serialize_model(m)


def test_models_equal_requires_the_same_reward_objects():
    from dataclasses import replace

    from conftest import toy_model

    m = toy_model()
    assert models_equal(m, replace(m))
    assert not models_equal(m, replace(m, extra_reward=None))
    assert not models_equal(m, toy_model())  # an equal bonus, another callable
    phi = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert not models_equal(replace(m, potential=phi), m)
    assert models_equal(replace(m, potential=phi), replace(m, potential=phi))


def walker_model(states=("s0", "s1"), actions=("go", "stay"), agent="walker", model="pairwalk"):
    """Two walkers that reach s1 for sure, with the goal pair (s1, s1)."""
    tr = np.zeros((2, 2, 2))
    tr[0, 0, 1] = 1.0
    tr[0, 1, 0] = 1.0
    tr[1, :, 1] = 1.0
    walker = AgentModel(
        n_states=2,
        actions=actions,
        transition=tr,
        action_cost=np.array([-1.0, 0.0]),
        noop=1,
        state_labels=states,
        name=agent,
    )
    return DecMdpCom(
        agent1=walker,
        agent2=walker,
        comm_cost=-0.5,
        horizon=3,
        initial_state=FactoredState(0, 0),
        goal=[[False, False], [False, True]],
        name=model,
    )


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"states": ("a", "a")}, "'a'"),
        ({"states": ("a b", "s1")}, "'a b'"),
        ({"states": ("x#", "s1")}, "'x#'"),
        ({"states": ("", "s1")}, "''"),
        ({"states": ("s0", "p,q")}, "'p,q'"),
        ({"states": ("s0", "(s")}, "'(s'"),
        ({"states": (":", "s1")}, "':'"),
        ({"actions": ("go", "go")}, "action label 'go'"),
        ({"actions": ("go go", "stay")}, "action label 'go go'"),
        ({"agent": "my agent"}, "agent 1 name 'my agent'"),
        ({"model": "my model"}, "model name 'my model'"),
    ],
    ids=["repeated", "space", "hash", "empty", "comma", "paren", "colon",
         "repeated-action", "action-space", "agent-name", "model-name"],
)
def test_serialize_refuses_tokens_the_parser_would_reject(changes, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        serialize_model(walker_model(**changes))


def test_serialize_writes_tokens_the_parser_reads_back():
    m = walker_model(states=("a:b", "s-1"), actions=("go!", "stay"), agent="(left)")
    again = parse_model(serialize_model(m))
    assert models_equal(m, again)


def test_readme_model_round_trips_byte_for_byte():
    from test_cli import readme_model

    text = serialize_model(parse_model(readme_model()))
    assert serialize_model(parse_model(text)) == text
    assert models_equal(parse_model(readme_model()), parse_model(text))
