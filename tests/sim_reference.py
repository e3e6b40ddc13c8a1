"""The scalar episode engine as written before its walks were folded, kept as
a bit-identity oracle.

These are frozen copies of the simulator's grid move, its meeting,
production and policy-tree episode runners and the ``run_episode`` dispatch,
each with its own hand-written walk and per-step ``events`` list.  Only the
imports differ from the original, and the production runner's part counts:
it reads them from the machines' "a-b" state labels (``_count_model``),
never from the domain's successor tables.  ``tests/test_sim_identity.py``
requires the library's engine to give the same per-episode logs on the same
substreams.
"""

from __future__ import annotations

from commplan.domains import (
    STAY,
    AlwaysCommunicate,
    GridConfig,
    Ideal,
    MeetingDomain,
    MyopicGreedy,
    NoCommunication,
    ProductionDomain,
    SubGoals,
    manhattan,
)
from commplan.lgo import LgoMechanism
from commplan.model import DecMdpCom
from commplan.msbpi import GeneralMechanism
from commplan.options import COMMUNICATE
from oracles import midpoint, step_toward


def _sample_local(agent, s: int, a: int, rng) -> int:
    row = agent.transition[s, a]
    return int(rng.choice(len(row), p=row))


def _move(pos, goal, cfg: GridConfig, p: float, rng):
    """One grid step toward goal; failures and stay actions keep position."""
    a = step_toward(pos, goal)
    if a == STAY:
        return pos
    dx, dy = ((0, 1), (0, -1), (1, 0), (-1, 0))[a]
    if rng.random() >= p:
        return pos
    return (
        min(max(pos[0] + dx, 0), cfg.width - 1),
        min(max(pos[1] + dy, 0), cfg.height - 1),
    )


def _run_meeting(domain: MeetingDomain, strategy, rng):
    cfg = domain.config
    pos1, pos2 = cfg.start1, cfg.start2
    cap = cfg.horizon_cap
    per_step = 2.0 * cfg.action_cost
    utility, comm, t = 0.0, 0, 0
    events: list = []
    met = pos1 == pos2

    if isinstance(strategy, NoCommunication):
        g = midpoint(pos1, pos2)
        while not met and t < cap:
            pos1 = _move(pos1, g, cfg, cfg.p1, rng)
            pos2 = _move(pos2, g, cfg, cfg.p2, rng)
            t += 1
            utility += per_step
            met = pos1 == pos2
    elif isinstance(strategy, (Ideal, AlwaysCommunicate)):
        charged = isinstance(strategy, AlwaysCommunicate)
        while not met and t < cap:
            comm += 1
            if charged:
                utility += cfg.comm_cost
            events.append(("exchange", t))
            g = midpoint(pos1, pos2)
            pos1 = _move(pos1, g, cfg, cfg.p1, rng)
            pos2 = _move(pos2, g, cfg, cfg.p2, rng)
            t += 1
            utility += per_step
            met = pos1 == pos2
    elif isinstance(strategy, SubGoals):
        g = midpoint(pos1, pos2)
        radius = int(strategy.p * manhattan(pos1, pos2) / 2)
        inside1 = manhattan(pos1, g) <= radius
        inside2 = manhattan(pos2, g) <= radius
        while not met and t < cap:
            pos1 = _move(pos1, g, cfg, cfg.p1, rng)
            pos2 = _move(pos2, g, cfg, cfg.p2, rng)
            t += 1
            utility += per_step
            met = pos1 == pos2
            if met:
                break
            now1 = manhattan(pos1, g) <= radius
            now2 = manhattan(pos2, g) <= radius
            if (now1 and not inside1) or (now2 and not inside2):
                comm += 1
                utility += cfg.comm_cost
                events.append(("exchange", t))
                g = midpoint(pos1, pos2)
                radius = int(strategy.p * manhattan(pos1, pos2) / 2)
                inside1 = manhattan(pos1, g) <= radius
                inside2 = manhattan(pos2, g) <= radius
            else:
                inside1, inside2 = now1, now2
    elif isinstance(strategy, MyopicGreedy):
        table = strategy.policy
        g = midpoint(pos1, pos2)
        tau = table.time_for(manhattan(pos1, pos2))
        clock = 0
        while not met and t < cap:
            if tau is not None and clock >= tau - 1:
                comm += 1
                utility += cfg.comm_cost
                events.append(("exchange", t))
                g = midpoint(pos1, pos2)
                tau = table.time_for(manhattan(pos1, pos2))
                clock = 0
            pos1 = _move(pos1, g, cfg, cfg.p1, rng)
            pos2 = _move(pos2, g, cfg, cfg.p2, rng)
            t += 1
            clock += 1
            utility += per_step
            met = pos1 == pos2
    else:
        raise ValueError(f"unsupported meeting strategy: {strategy!r}")

    capped = not met
    events.append(("capped", t) if capped else ("met", t))
    return utility, t, comm, {"events": events, "capped": capped, "final": (pos1, pos2)}


def _count_model(agent, s0: int):
    """A machine's part counts at state s0, the state of each count pair and
    the counter caps, read from its "a-b" state labels."""
    counts = [tuple(int(v) for v in label.split("-")) for label in agent.state_labels]
    state = {cnt: s for s, cnt in enumerate(counts)}
    return list(counts[s0]), lambda a, b: state[(a, b)], tuple(map(max, zip(*counts)))


def _run_production(domain: ProductionDomain, strategy, rng):
    T = domain.horizon
    cost = domain.action_cost
    s0 = domain.model.initial_state
    b, encode1, caps1 = _count_model(domain.model.agent1, s0.s1)
    c, encode2, caps2 = _count_model(domain.model.agent2, s0.s2)
    utility, comm = 0.0, 0
    events: list = []

    def bump(counts, caps, idx, p):
        if rng.random() < p:
            counts[idx] = min(counts[idx] + 1, caps[idx])

    if isinstance(strategy, (Ideal, AlwaysCommunicate)):
        charged = isinstance(strategy, AlwaysCommunicate)
        pol = domain.joint_policy
        for t in range(T):
            s1 = encode1(*b)
            s2 = encode2(*c)
            a1, a2 = divmod(int(pol.actions[t, s1, s2]), pol.n_actions2)
            utility += 2.0 * cost
            bump(b, caps1, a1, domain.p_m1)
            bump(c, caps2, a2, domain.p_m2)
            comm += 1
            if charged:
                utility += domain.model.comm_cost
            events.append(("exchange", t + 1))
    elif isinstance(strategy, LgoMechanism):
        t = 0
        while t < T:
            s1 = encode1(*b)
            s2 = encode2(*c)
            asg = strategy.assignment[(s1, s2, t)]
            for j in range(asg.k):
                a1 = asg.g1.action_at(encode1(*b), t + j)
                a2 = asg.g2.action_at(encode2(*c), t + j)
                utility += 2.0 * cost
                bump(b, caps1, a1, domain.p_m1)
                bump(c, caps2, a2, domain.p_m2)
            t += asg.k
            comm += 1
            utility += domain.model.comm_cost
            events.append(("exchange", t))
    elif isinstance(strategy, GeneralMechanism):
        return _run_mechanism_model(domain.model, strategy, rng)
    else:
        raise ValueError(f"unsupported production strategy: {strategy!r}")

    products = min(b[0], c[0]) + min(b[1], c[1])
    utility += products
    events.append(("end", T, products))
    return utility, T, comm, {"events": events, "capped": False}


def _run_mechanism_model(model: DecMdpCom, mech, rng):
    """Execute a policy-tree mechanism on any joint model, in model units.

    Trees run until their first communication act; the communicating agent
    freezes for that step while the other's domain action still executes;
    the exchange then reveals the joint state and a fresh pair is looked up.
    An exchange landing exactly on the horizon is not charged (nothing is
    left to replan).
    """
    pair_at = mech
    if isinstance(mech, GeneralMechanism):
        pair_at = lambda s1, s2, t: mech.pairs[(s1, s2, t)]  # noqa: E731
    s1, s2 = model.initial_state.s1, model.initial_state.s2
    T = model.horizon
    utility, comm, t = 0.0, 0, 0
    events: list = []
    while t < T:
        tree1, tree2 = pair_at(s1, s2, t)
        depth = 0
        x1, x2 = s1, s2
        while t < T:
            a1 = tree1.action_at(x1, depth)
            a2 = tree2.action_at(x2, depth)
            comm1 = a1 == COMMUNICATE
            comm2 = a2 == COMMUNICATE
            n1 = x1 if comm1 else _sample_local(model.agent1, x1, a1, rng)
            n2 = x2 if comm2 else _sample_local(model.agent2, x2, a2, rng)
            utility += model.step_reward(
                x1, x2, None if comm1 else a1, None if comm2 else a2, n1, n2
            )
            x1, x2 = n1, n2
            t += 1
            depth += 1
            if comm1 or comm2:
                comm += 1
                if t < T:
                    utility += model.comm_cost
                events.append(("exchange", t))
                break
        s1, s2 = x1, x2
    return utility, t, comm, {"events": events, "capped": False}


def run_episode(domain, strategy, rng):
    """One episode; returns (utility, steps, comm_count, trajectory)."""
    if isinstance(domain, MeetingDomain):
        return _run_meeting(domain, strategy, rng)
    if isinstance(domain, ProductionDomain):
        return _run_production(domain, strategy, rng)
    if isinstance(domain, DecMdpCom):
        return _run_mechanism_model(domain, strategy, rng)
    raise ValueError(f"unsupported domain: {domain!r}")
