"""Policy-tree and kernel tests.

Every probabilistic kernel is checked against an independently written
oracle that uses a different mechanism: forward mass propagation against
the backward recursion for costs, branch enumeration against the level
sweep for termination masses, and a recursive expectimax against the
bucketed forward pass for pair values.  The pair-value fold and the
one-level frontier step must also equal, bit for bit, the walks from the
root kept in tests/oracles.py.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from commplan.model import DecMdpCom, FactoredState
from commplan.options import (
    COMMUNICATE,
    PolicyTree,
    _live_next,
    _successors,
    joint_f_value,
)

from conftest import TOY_GRID, chain_agent, toy_model
from oracles import (
    cap_with_comm,
    expected_cost_g,
    is_option,
    joint_pn,
    joint_rn,
    live_frontier,
    live_levels,
    p_reach,
    p_terminate,
    pair_forward,
    root_walk_f_value,
    successors,
    validate_tree,
)

GO, WAIT = 0, 1


def go_then_split():
    # go at the root, then go again from 0 and wait from 1
    return PolicyTree(0, {(0, 0): GO, (0, 1): GO, (1, 1): WAIT})


def go_then_comm():
    return PolicyTree(0, {(0, 0): GO, (0, 1): COMMUNICATE, (1, 1): COMMUNICATE})


def comm_now(root=0):
    return PolicyTree(root, {(root, 0): COMMUNICATE})


# ---------------------------------------------------------------- structure


def test_tree_size_and_lookup():
    tree = go_then_split()
    assert tree.size == 2
    assert tree.action_at(0, 0) == GO
    assert tree.action_at(1, 1) == WAIT
    assert tree.action_at(1, 0) is None
    assert PolicyTree(0).size == 0


def test_with_assignments_copies():
    tree = comm_now()
    grown = tree.with_assignments({(0, 0): GO, (0, 1): COMMUNICATE})
    assert tree.assignment == {(0, 0): COMMUNICATE}
    assert grown.action_at(0, 0) == GO
    assert grown.size == 2


def test_tree_equality_and_hash():
    a = go_then_comm()
    b = go_then_comm()
    assert a == b and hash(a) == hash(b)
    assert a != go_then_split()


def test_live_levels_and_frontier():
    agent = chain_agent(p=0.5)
    levels = live_levels(go_then_split(), agent)
    assert levels == [{0}, {0, 1}, {0, 1}]
    assert live_frontier(go_then_split(), agent) == {0, 1}
    assert live_frontier(go_then_comm(), agent) == set()


def test_validate_tree_flags_problems():
    agent = chain_agent()
    assert validate_tree(go_then_comm(), agent) == []
    assert validate_tree(PolicyTree(0), agent)  # missing root action
    bad = PolicyTree(0, {(0, 0): 7})
    assert any("invalid action" in v for v in validate_tree(bad, agent))
    deep = PolicyTree(0, {(0, 0): GO, (0, 1): GO, (1, 1): WAIT})
    assert any("exceeds" in v for v in validate_tree(deep, agent, max_size=1))


def test_is_option_branch_endings():
    agent = chain_agent(p=0.5)
    # every branch communicates: an option under any horizon >= its size
    assert is_option(go_then_comm(), agent, 5)
    assert not is_option(go_then_comm(), agent, 1)  # too long
    # open frontier: only an option when it runs exactly to the horizon
    assert is_option(go_then_split(), agent, 2)
    assert not is_option(go_then_split(), agent, 3)
    # a reachable hole disqualifies even at the horizon
    holey = PolicyTree(0, {(0, 0): GO, (0, 1): GO})
    assert not is_option(holey, agent, 2)


# ------------------------------------------------------------ expected cost


def test_expected_cost_hand_values():
    agent = chain_agent(p=0.5, cost_go=-1.0, cost_wait=-0.2)
    # root go, then go from 0 (half the mass) and wait from 1 (other half)
    want = -1.0 + 0.5 * -1.0 + 0.5 * -0.2
    assert expected_cost_g(go_then_split(), agent, agent.action_cost) == pytest.approx(want)
    # communication leaves are free here
    assert expected_cost_g(go_then_comm(), agent, agent.action_cost) == pytest.approx(-1.0)
    assert expected_cost_g(comm_now(), agent, agent.action_cost) == 0.0


def test_expected_cost_accepts_callable():
    agent = chain_agent(p=0.5)
    got = expected_cost_g(go_then_split(), agent, lambda a: -2.0)
    assert got == pytest.approx(-2.0 + 0.5 * -2.0 + 0.5 * -2.0)


def forward_cost_oracle(tree, agent):
    """Forward mass propagation; the library uses a backward recursion."""
    total = 0.0
    dist = {tree.root_state: 1.0}
    for d in range(tree.size):
        nxt = {}
        for s, mass in dist.items():
            a = tree.action_at(s, d)
            if a is None or a == COMMUNICATE:
                continue
            total += mass * agent.action_cost[a]
            row = agent.transition[s, a]
            for q in np.nonzero(row > 0.0)[0]:
                nxt[int(q)] = nxt.get(int(q), 0.0) + mass * row[q]
        dist = nxt
    return total


def random_tree(seed, size, root=0, n_states=2, n_actions=2):
    rng = np.random.default_rng(seed)
    choices = list(range(n_actions)) + [COMMUNICATE]
    assignment = {(root, 0): int(rng.choice(choices))}
    for d in range(size):
        for s in range(n_states):
            if rng.random() < 0.8:
                assignment[(s, d)] = int(rng.choice(choices))
    assignment.setdefault((root, 0), 0)
    return PolicyTree(root, assignment)


@given(seed=st.integers(0, 10**6), size=st.integers(1, 4), p=st.floats(0.05, 1.0))
def test_expected_cost_matches_forward_oracle(seed, size, p):
    agent = chain_agent(p=p)
    tree = random_tree(seed, size)
    got = expected_cost_g(tree, agent, agent.action_cost)
    assert got == pytest.approx(forward_cost_oracle(tree, agent), abs=1e-12)


# ------------------------------------------------- local kernels p^N terms


def branch_terminate_oracle(tree, agent, s0, N):
    """Enumerate branches one by one; the library sweeps whole levels."""
    out = np.zeros(agent.n_states)

    def walk(s, depth, mass):
        a = tree.action_at(s, depth)
        if a is None:
            return
        if a == COMMUNICATE:
            if depth == N - 1:
                out[s] += mass
            return
        if depth == N - 1:
            return  # still acting at the firing step: not a termination at N
        row = agent.transition[s, a]
        for q in np.nonzero(row > 0.0)[0]:
            walk(int(q), depth + 1, mass * row[q])

    walk(s0, 0, 1.0)
    return out


def branch_reach_oracle(tree, agent, s0, N):
    out = np.zeros(agent.n_states)

    def walk(s, depth, mass):
        a = tree.action_at(s, depth)
        if depth == N - 1:
            if a is None or a == COMMUNICATE:
                out[s] += mass  # frozen in place for the final step
            else:
                out[:] += mass * agent.transition[s, a]
            return
        if a is None or a == COMMUNICATE:
            return  # branch over or communicated strictly before N
        row = agent.transition[s, a]
        for q in np.nonzero(row > 0.0)[0]:
            walk(int(q), depth + 1, mass * row[q])

    walk(s0, 0, 1.0)
    return out


def test_p_terminate_hand_values():
    agent = chain_agent(p=0.5)
    np.testing.assert_allclose(p_terminate(comm_now(), agent, 0, 0, 1), [1.0, 0.0])
    np.testing.assert_allclose(p_terminate(comm_now(), agent, 0, 0, 2), [0.0, 0.0])
    # go then communicate wherever you land: fires at step 2, half each state
    np.testing.assert_allclose(
        p_terminate(go_then_comm(), agent, 0, 0, 2), [0.5, 0.5]
    )
    np.testing.assert_allclose(p_terminate(go_then_comm(), agent, 0, 0, 1), [0.0, 0.0])


def test_p_reach_counts_frozen_communicator():
    agent = chain_agent(p=0.5)
    # communicating at the very first step leaves the agent where it stood
    np.testing.assert_allclose(p_reach(comm_now(), agent, 0, 0, 1), [1.0, 0.0])
    # after one go step the comm leaves freeze both landing states in place
    np.testing.assert_allclose(p_reach(go_then_comm(), agent, 0, 0, 2), [0.5, 0.5])
    # a plain domain tree just propagates the chain
    np.testing.assert_allclose(p_reach(go_then_split(), agent, 0, 0, 2), [0.25, 0.75])


@pytest.mark.parametrize("kernel", [p_terminate, p_reach])
def test_kernels_reject_nonpositive_n(kernel):
    agent = chain_agent()
    with pytest.raises(ValueError):
        kernel(comm_now(), agent, 0, 0, 0)
    with pytest.raises(ValueError):
        kernel(comm_now(), agent, 0, 0, -2)


@given(seed=st.integers(0, 10**6), size=st.integers(1, 4), p=st.floats(0.05, 1.0))
def test_local_kernels_match_branch_oracles(seed, size, p):
    agent = chain_agent(p=p)
    tree = random_tree(seed, size)
    for N in range(1, size + 2):
        np.testing.assert_allclose(
            p_terminate(tree, agent, 0, 0, N),
            branch_terminate_oracle(tree, agent, 0, N),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            p_reach(tree, agent, 0, 0, N),
            branch_reach_oracle(tree, agent, 0, N),
            atol=1e-12,
        )


# --------------------------------------------------------------- pair level


def complete_tree(rng, agent, length, root=0):
    """A tree whose every live node holds an action until comm or depth `length`."""
    choices = list(range(agent.n_actions)) + [COMMUNICATE]
    assignment = {}
    live = {root}
    for d in range(length):
        nxt = set()
        for s in sorted(live):
            a = int(rng.choice(choices))
            assignment[(s, d)] = a
            if a != COMMUNICATE:
                nxt.update(int(q) for q in successors(agent, s, a))
        live = nxt
        if not live:
            break
    return PolicyTree(root, assignment)


def complete_pair(seed, m, length):
    rng = np.random.default_rng(seed)
    t1 = complete_tree(rng, m.agent1, length)
    t2 = complete_tree(rng, m.agent2, length)
    return t1, t2


@given(
    seed=st.integers(0, 10**6),
    length=st.integers(1, 3),
    params=st.sampled_from(TOY_GRID),
)
def test_pair_forward_conserves_mass(seed, length, params):
    m = toy_model(**params)
    t1, t2 = complete_pair(seed, m, length)
    term, stopped = pair_forward(t1, t2, m, FactoredState(0, 0), 0)
    mass = sum(mu for cells in term.values() for mu, _ in cells.values())
    mass += sum(mu for cells in stopped.values() for mu, _ in cells.values())
    assert mass == pytest.approx(1.0, abs=1e-9)


@given(
    seed=st.integers(0, 10**6),
    length=st.integers(1, 3),
    params=st.sampled_from(TOY_GRID),
)
def test_joint_pn_matches_pair_forward_term_mass(seed, length, params):
    m = toy_model(**params)
    t1, t2 = complete_pair(seed, m, length)
    s = FactoredState(0, 0)
    term, _ = pair_forward(t1, t2, m, s, 0)
    for N in range(1, min(length, m.horizon) + 1):
        want = np.zeros((m.agent1.n_states, m.agent2.n_states))
        for (s1, s2), (mu, _) in term.get(N, {}).items():
            want[s1, s2] += mu
        np.testing.assert_allclose(joint_pn(t1, t2, m, s, 0, N), want, atol=1e-9)


def test_pair_forward_freezes_exhausted_tree():
    # tree1 is one step long; tree2 keeps acting, so the pair stays alive
    # with agent 1 frozen at zero cost until tree2 communicates.
    m = toy_model(p1=1.0, p2=1.0, comm_cost=-0.4, horizon=3, bonus=0.0)
    t1 = PolicyTree(0, {(0, 0): GO})
    t2 = PolicyTree(0, {(0, 0): WAIT, (0, 1): COMMUNICATE})
    term, stopped = pair_forward(t1, t2, m, FactoredState(0, 0), 0)
    assert not stopped
    assert set(term) == {2}
    ((key, (mass, reward)),) = term[2].items()
    assert key == (1, 0)
    assert mass == pytest.approx(1.0)
    # step 1 charges both (go, wait); step 2 charges nobody (frozen + comm)
    assert reward == pytest.approx(-1.2)


def test_joint_rn_hand_values():
    m = toy_model(p1=0.5, p2=0.5, comm_cost=-0.4, horizon=3, bonus=3.0)
    s = FactoredState(0, 0)
    # both communicate immediately: no domain reward, one exchange charge
    both = comm_now()
    assert joint_rn(both, both, m, s, 0, FactoredState(0, 0), 1) == pytest.approx(-0.4)
    # the charge is waived when the exchange lands exactly at the horizon
    assert joint_rn(both, both, m, s, 2, FactoredState(0, 0), 1) == pytest.approx(0.0)
    # agent 1 goes while agent 2 communicates: one go cost plus the charge
    t1 = PolicyTree(0, {(0, 0): GO})
    got = joint_rn(t1, comm_now(), m, s, 0, FactoredState(1, 0), 1)
    assert got == pytest.approx(-1.0 - 0.4)
    # unreachable outcomes report zero
    assert joint_rn(both, both, m, s, 0, FactoredState(1, 1), 1) == 0.0
    with pytest.raises(ValueError):
        joint_rn(both, both, m, s, 0, FactoredState(0, 0), 0)


def test_joint_f_value_immediate_comm():
    m = toy_model(comm_cost=-0.4, horizon=3)
    V = np.zeros((m.horizon + 1, 2, 2))
    both = comm_now()
    s = FactoredState(0, 0)
    assert joint_f_value(both, both, m, s, 0, V) == pytest.approx(-0.4)
    # at the horizon boundary the exchange is free
    assert joint_f_value(both, both, m, s, 2, V) == pytest.approx(0.0)


def expectimax_oracle(opt1, opt2, m, s, t, V):
    """Recursive expectimax over joint branches; the library buckets masses."""

    def rec(s1, s2, d):
        tau = t + d
        a1 = opt1.action_at(s1, d)
        a2 = opt2.action_at(s2, d)
        if tau >= m.horizon or (a1 is None and a2 is None):
            return V[tau, s1, s2]
        comm1 = a1 == COMMUNICATE
        comm2 = a2 == COMMUNICATE
        act1 = a1 if (a1 is not None and not comm1) else None
        act2 = a2 if (a2 is not None and not comm2) else None
        succ1 = (
            [(s1, 1.0)]
            if act1 is None
            else [
                (int(q), m.agent1.transition[s1, act1][q])
                for q in successors(m.agent1, s1, act1)
            ]
        )
        succ2 = (
            [(s2, 1.0)]
            if act2 is None
            else [
                (int(q), m.agent2.transition[s2, act2][q])
                for q in successors(m.agent2, s2, act2)
            ]
        )
        total = 0.0
        for ns1, q1 in succ1:
            for ns2, q2 in succ2:
                r = m.step_reward(s1, s2, act1, act2, ns1, ns2)
                if comm1 or comm2:
                    charge = m.comm_cost if tau + 1 < m.horizon else 0.0
                    cont = charge + V[tau + 1, ns1, ns2]
                else:
                    cont = rec(ns1, ns2, d + 1)
                total += q1 * q2 * (r + cont)
        return total

    return rec(s.s1, s.s2, 0)


@given(
    seed=st.integers(0, 10**6),
    length=st.integers(1, 3),
    t=st.integers(0, 2),
    params=st.sampled_from(TOY_GRID),
)
def test_joint_f_value_matches_expectimax(seed, length, t, params):
    m = toy_model(**params)
    t = min(t, m.horizon - 1)
    rng = np.random.default_rng(seed + 17)
    V = rng.uniform(-3.0, 3.0, size=(m.horizon + 1, 2, 2))
    t1, t2 = complete_pair(seed, m, length)
    for s1 in range(2):
        for s2 in range(2):
            trees = (
                PolicyTree(s1, t1.assignment),
                PolicyTree(s2, t2.assignment),
            )
            if trees[0].action_at(s1, 0) is None or trees[1].action_at(s2, 0) is None:
                continue
            s = FactoredState(s1, s2)
            got = joint_f_value(trees[0], trees[1], m, s, t, V)
            want = expectimax_oracle(trees[0], trees[1], m, s, t, V)
            assert got == pytest.approx(want, abs=1e-9)


# ------------------------------------------------ the fold and the root walks

KINDS = ("run-out", "complete", "capped")


def tree_of_kind(kind, seed, agent, size, root):
    """A random tree of at most `size` levels that communicates at few nodes.

    "run-out" leaves about half of the reachable nodes below the root
    empty, so branches run out mid-way; "capped" closes the deepest level
    with communication; "complete" does neither.
    """
    rng = np.random.default_rng(seed)
    assignment = {}
    live = {root}
    for d in range(size):
        nxt = set()
        for s in sorted(live):
            if kind == "run-out" and d > 0 and rng.random() < 0.5:
                continue
            a = COMMUNICATE if rng.random() < 0.15 else int(rng.integers(agent.n_actions))
            assignment[(s, d)] = a
            if a != COMMUNICATE:
                nxt.update(int(q) for q in successors(agent, s, a))
        live = nxt
        if not live:
            break
    tree = PolicyTree(root, assignment)
    return cap_with_comm(tree, agent) if kind == "capped" else tree


@given(
    seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    sizes=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    params=st.one_of(st.none(), st.sampled_from(TOY_GRID)),
    p=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
)
def test_joint_f_value_is_the_root_walk(seeds, sizes, params, p):
    if params is None:
        m = DecMdpCom(
            agent1=chain_agent("left", p[0]),
            agent2=chain_agent("right", p[1]),
            comm_cost=-0.5,
            horizon=4,
            initial_state=FactoredState(0, 0),
        )
    else:
        m = toy_model(**params)
    V = np.random.default_rng(seeds[0] ^ seeds[1]).normal(size=(m.horizon + 1, 2, 2))
    for kind1, kind2, s1, s2 in itertools.product(KINDS, KINDS, range(2), range(2)):
        tree1 = tree_of_kind(kind1, seeds[0], m.agent1, sizes[0], s1)
        tree2 = tree_of_kind(kind2, seeds[1], m.agent2, sizes[1], s2)
        s = FactoredState(s1, s2)
        for t in range(m.horizon + 1):
            got = joint_f_value(tree1, tree2, m, s, t, V)
            assert got == root_walk_f_value(tree1, tree2, m, s, t, V)


@given(
    seed=st.integers(0, 10**6),
    size=st.integers(1, 5),
    kind=st.sampled_from(KINDS),
    root=st.integers(0, 1),
    p=st.floats(0.05, 1.0),
)
def test_live_next_folds_to_live_levels(seed, size, kind, root, p):
    agent = chain_agent(p=p)
    tree = tree_of_kind(kind, seed, agent, size, root)
    succ = _successors(agent)
    levels = [{tree.root_state}]
    for d in range(tree.size):
        levels.append(_live_next(levels[-1], tree, d, succ))
    assert levels == live_levels(tree, agent)
