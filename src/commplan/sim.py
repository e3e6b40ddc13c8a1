"""Seeded Monte-Carlo execution of strategies on the two scenarios.

Episodes draw from per-episode substreams spawned off one seed, so results
are bit-reproducible and two strategies run with the same seed see the same
random draws (the full-information baseline and its charged variant then
differ by exactly the exchange cost).

Each domain has one episode loop in which the agents act on their own; a
strategy only decides when they exchange.  Ideal exchanges free, every
other exchange adds the communication cost (a policy-tree exchange on the
horizon excepted), and exchanges take no time.
  meeting: both agents pay the action cost every step until co-located
    (the meeting step and waiting at the midpoint included), heading for
    the midpoint of the positions the last exchange revealed, d apart.
    Before each step an exchange fires once tau(d) - 1 steps have passed
    since the last one: tau = 1 for Ideal and AlwaysCommunicate,
    policy.time_for(d) for MyopicGreedy, never for the others.  After each
    step that does not meet, the capping step included, SubGoals exchanges
    when a walker enters the region around the midpoint.
  production: both machines pay the action cost every step and sellable
    products pay off at the horizon.  The episode is a run of windows, each
    charged its exchange after its steps: one step on the joint policy for
    Ideal and AlwaysCommunicate, the assigned window for an LgoMechanism.

Draws, which fix every result: agent 1 before agent 2 within a step; a
walker draws one uniform per move it tries (none for stay, none once met),
a machine one per step, a policy-tree agent one successor per domain action
(none for a communicate act).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .domains import (
    STAY,
    AlwaysCommunicate,
    GridConfig,
    Ideal,
    MeetingDomain,
    MyopicGreedy,
    NoCommunication,
    ProductionDomain,
    SubGoals,
    grid_target,
    manhattan,
    midpoint,
    step_toward,
)
from .lgo import LgoMechanism
from .model import DecMdpCom
from .msbpi import GeneralMechanism
from .options import COMMUNICATE


@dataclass
class SimConfig:
    """One Monte-Carlo batch: a strategy on a domain, seeded."""

    domain: object
    strategy: object
    episodes: int = 1000
    seed: int = 0
    log_episodes: bool = False

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")


@dataclass
class SimResult:
    """Batch statistics; per_episode rows are (utility, steps, comm)."""

    mean_utility: float
    variance: float
    mean_comm: float
    mean_steps: float
    episodes: int
    seed: int
    comm_variance: float = 0.0
    capped_episodes: int = 0
    per_episode: Optional[List[Tuple[float, int, int]]] = None

    @property
    def std_error(self) -> float:
        return math.sqrt(self.variance / self.episodes)

    @property
    def comm_std_error(self) -> float:
        return math.sqrt(self.comm_variance / self.episodes)


def _sample_local(agent, s: int, a: int, rng) -> int:
    row = agent.transition[s, a]
    return int(rng.choice(len(row), p=row))


def _move(pos, goal, cfg: GridConfig, p: float, rng):
    """One grid step toward goal; failures and stay actions keep position."""
    a = step_toward(pos, goal)
    if a == STAY or rng.random() >= p:
        return pos
    return grid_target(pos, a, cfg)


def _resync(strategy, pos1, pos2):
    """Midpoint, exchange clock tau (None: never) and sub-goal region
    (radius, agent 1 inside, agent 2 inside) or None, after an exchange."""
    g = midpoint(pos1, pos2)
    if isinstance(strategy, (Ideal, AlwaysCommunicate)):
        return g, 1, None
    if isinstance(strategy, MyopicGreedy):
        return g, strategy.policy.time_for(manhattan(pos1, pos2)), None
    if isinstance(strategy, SubGoals):
        radius = int(strategy.p * manhattan(pos1, pos2) / 2)
        return g, None, (radius, manhattan(pos1, g) <= radius, manhattan(pos2, g) <= radius)
    if isinstance(strategy, NoCommunication):
        return g, None, None
    raise ValueError(f"unsupported meeting strategy: {strategy!r}")


def _run_meeting(domain: MeetingDomain, strategy, rng):
    cfg = domain.config
    pos1, pos2 = cfg.start1, cfg.start2
    per_step = 2.0 * cfg.action_cost
    fee = 0.0 if isinstance(strategy, Ideal) else cfg.comm_cost
    utility, comm, t, clock = 0.0, 0, 0, 0
    g, tau, region = _resync(strategy, pos1, pos2)
    met = pos1 == pos2
    while not met and t < cfg.horizon_cap:
        if tau is not None and clock >= tau - 1:
            comm += 1
            utility += fee
            g, tau, region = _resync(strategy, pos1, pos2)
            clock = 0
        pos1 = _move(pos1, g, cfg, cfg.p1, rng)
        pos2 = _move(pos2, g, cfg, cfg.p2, rng)
        t += 1
        clock += 1
        utility += per_step
        met = pos1 == pos2
        if region is not None and not met:
            radius, inside1, inside2 = region
            now1 = manhattan(pos1, g) <= radius
            now2 = manhattan(pos2, g) <= radius
            if (now1 and not inside1) or (now2 and not inside2):
                comm += 1
                utility += fee
                g, tau, region = _resync(strategy, pos1, pos2)
                clock = 0
            else:
                region = (radius, now1, now2)
    return utility, t, comm, not met


def _run_production(domain: ProductionDomain, strategy, rng):
    if isinstance(strategy, GeneralMechanism):
        return _run_mechanism_model(domain.model, strategy, rng)
    lgo = isinstance(strategy, LgoMechanism)
    if not (lgo or isinstance(strategy, (Ideal, AlwaysCommunicate))):
        raise ValueError(f"unsupported production strategy: {strategy!r}")
    fee = 0.0 if isinstance(strategy, Ideal) else domain.model.comm_cost
    joint = None if lgo else domain.joint_policy
    step_cost = 2.0 * domain.action_cost
    T = domain.horizon
    b = [domain.initial.b_a, domain.initial.b_b]
    c = [domain.initial.c_a, domain.initial.c_b]
    utility, comm, t = 0.0, 0, 0

    def bump(counts, caps, idx, p):
        if rng.random() < p:
            counts[idx] = min(counts[idx] + 1, caps[idx])

    while t < T:
        k = 1
        if lgo:
            asg = strategy.assignment_at(domain.encode1(*b), domain.encode2(*c), t)
            k = asg.k
        for j in range(t, t + k):
            s1, s2 = domain.encode1(*b), domain.encode2(*c)
            if lgo:
                a1, a2 = asg.g1.action_at(s1, j), asg.g2.action_at(s2, j)
            else:
                a1, a2 = joint.action_pair(s1, s2, j)
            utility += step_cost
            bump(b, domain.caps1, a1, domain.p_m1)
            bump(c, domain.caps2, a2, domain.p_m2)
        t += k
        comm += 1
        utility += fee
    utility += domain.products(domain.encode1(*b), domain.encode2(*c))
    return utility, T, comm, False


def _run_mechanism_model(model: DecMdpCom, mech: GeneralMechanism, rng):
    """Execute a policy-tree mechanism on any joint model, in model units.

    Trees run until their first communication act; the communicating agent
    freezes for that step while the other's domain action still executes;
    the exchange then reveals the joint state and a fresh pair is looked up.
    An exchange landing exactly on the horizon is not charged (nothing is
    left to replan).
    """
    s1, s2 = model.initial_state.s1, model.initial_state.s2
    T = model.horizon
    utility, comm, t = 0.0, 0, 0
    while t < T:
        tree1, tree2 = mech.pair_at(s1, s2, t)
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
                break
        s1, s2 = x1, x2
    return utility, t, comm, False


def run_episode(domain, strategy, rng):
    """One episode; returns (utility, steps, exchanges, capped)."""
    if isinstance(domain, MeetingDomain):
        return _run_meeting(domain, strategy, rng)
    if isinstance(domain, ProductionDomain):
        return _run_production(domain, strategy, rng)
    if isinstance(domain, DecMdpCom):
        if not isinstance(strategy, GeneralMechanism):
            raise ValueError(f"unsupported model strategy: {strategy!r}")
        return _run_mechanism_model(domain, strategy, rng)
    raise ValueError(f"unsupported domain: {domain!r}")


def monte_carlo(cfg: SimConfig) -> SimResult:
    """cfg.episodes independent episodes on decorrelated substreams.

    Single-threaded ordered loop; a fixed seed gives identical results on
    every run.  Episode i draws from child i of SeedSequence(seed), spawned
    one at a time: the same streams as spawn(episodes), without holding
    every child (about 0.7 KiB each) for the whole batch.
    """
    seeds = np.random.SeedSequence(cfg.seed)
    utilities = np.empty(cfg.episodes)
    steps = np.empty(cfg.episodes)
    comms = np.empty(cfg.episodes)
    capped = 0
    log: Optional[List[Tuple[float, int, int]]] = [] if cfg.log_episodes else None
    for i in range(cfg.episodes):
        rng = np.random.Generator(np.random.PCG64(seeds.spawn(1)[0]))
        u, st, cm, was_capped = run_episode(cfg.domain, cfg.strategy, rng)
        utilities[i] = u
        steps[i] = st
        comms[i] = cm
        capped += was_capped
        if log is not None:
            log.append((u, st, cm))
    many = cfg.episodes > 1
    return SimResult(
        mean_utility=float(utilities.mean()),
        variance=float(np.var(utilities, ddof=1)) if many else 0.0,
        mean_comm=float(comms.mean()),
        mean_steps=float(steps.mean()),
        episodes=cfg.episodes,
        seed=cfg.seed,
        comm_variance=float(np.var(comms, ddof=1)) if many else 0.0,
        capped_episodes=capped,
        per_episode=log,
    )


def results_csv(rows: Sequence[Tuple[str, str, str, SimResult]]) -> str:
    """One row per (domain, strategy, parameter) batch."""
    lines = ["domain,strategy,param,mean_utility,variance,mean_comm,mean_steps,episodes,seed"]
    for domain, strategy, param, r in rows:
        lines.append(
            f"{domain},{strategy},{param},{r.mean_utility!r},{r.variance!r},"
            f"{r.mean_comm!r},{r.mean_steps!r},{r.episodes},{r.seed}"
        )
    return "\n".join(lines) + "\n"
