"""Seeded Monte-Carlo execution of strategies on the two scenarios.

Episodes draw from per-episode substreams spawned off one seed, so results
are bit-reproducible and two strategies run with the same seed see the same
random draws (the full-information baseline and its charged variant then
differ by exactly the exchange cost).

In each domain the agents act on their own; a strategy only decides when
they exchange.  Ideal exchanges free, every other exchange adds the
communication cost (a policy-tree exchange on the horizon excepted), and
exchanges take no time.
  meeting: both agents pay the action cost every step until co-located
    (the meeting step and waiting at the midpoint included), heading for
    the midpoint of the positions the last exchange revealed, d apart.
    Before each step an exchange fires once tau(d) - 1 steps have passed
    since the last one: tau = 1 for Ideal and AlwaysCommunicate,
    policy.time_for(d) for MyopicGreedy, never for the others.  After each
    step that does not meet, the capping step included, SubGoals exchanges
    when a walker enters the region of radius int(p * d / 2) around the
    midpoint.
  production: both machines pay the action cost every step and sellable
    products pay off at the horizon.  The episode is a run of windows, each
    charged its exchange after its steps: one step on the joint policy for
    Ideal and AlwaysCommunicate, the assigned window for an LgoMechanism.
    A machine's successful step moves it along the domain's made1 / made2
    successor table, and the products count at the horizon is the model's
    potential.

Draws, which fix every result: agent 1 before agent 2 within a step; a
walker draws one uniform per move it tries (none for stay, none once met),
a machine one per step, a policy-tree agent one successor per domain action
(none for a communicate act), as bisect_right(cdf_row, uniform) on the
normalised cumulative row, which is what Generator.choice(n, p=row) does
with the same uniform.

Batched stepping.  An episode draws at most `width` uniforms: 2 *
horizon_cap on the meeting grid, 2 * T in production and on policy trees.
monte_carlo draws them ahead, in one call per episode, from a Generator on
the episode's own child of SeedSequence(seed), into a float64 buffer of at
most SLICE_BYTES, one row per episode, and keeps only each draw's code, what
the engine reads of it: a meeting draw is one uint8 (bit 0 is u < p1, bit 1
u < p2; the cursor decides which agent reads it), a production draw one
bool (u < p_m1 in even columns, u < p_m2 in odd ones), and a policy-tree
draw the uniform itself, which bisect_right needs.  The batch runs a slice
of `rows` episodes at a time from a C-ordered (rows, width) code array of
at most SLICE_BYTES, reusing both arrays, so memory does not grow with the
batch: 655 meeting episodes a slice at the default cap of 200 steps, 13,107
production episodes at T=10, 2,340 policy-tree episodes at T=7.  The
children are not spawned: for each slice, _child_words runs SeedSequence's
entropy mixing and generate_state once, on uint32 arrays with one lane per
child, and PCG64 is seeded from each child's four words.  The hash
constants evolve the same way whatever the data, so every lane does what
numpy does for that child, and the streams are the ones spawn(episodes)
gives.  Each episode reads its row of codes through a cursor that advances
only where a draw is listed above.  Meeting and production episodes of a
slice step together in numpy; policy-tree episodes walk their trees one at
a time.

The meeting walk needs no positions.  Between exchanges each walker follows
a shortest path to the midpoint, which lies on a shortest path between the
two revealed positions, so the two walkers are always left1 + left2 apart,
their remaining distances to the midpoint: they meet exactly when both
have arrived, a walker is inside the sub-goal region exactly when its left
<= radius, and an exchange re-splits the separation d with
myopic.split_distance, d // 2 for agent 1 (the midpoint is found x-leg first
from agent 1) and the rest for agent 2.  Separations only shrink, so tau
and the radius are tables over 0..d0.  This is the distance model the
exchange-time analysis in commplan.myopic already works in.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .domains import (
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
from .lgo import LgoMechanism, check_windows
from .model import AgentModel, DecMdpCom, require_valid
from .msbpi import GeneralMechanism
from .myopic import split_distance
from .options import COMMUNICATE

# Size of the draw-ahead buffers: a slice is as many episodes as fit in it
# as draw codes (one byte a draw, eight on policy trees), a block of
# uniforms as many as fit as float64.
SLICE_BYTES = 256 * 1024


@dataclass
class SimConfig:
    """One Monte-Carlo batch: a strategy on a domain, seeded."""

    domain: object
    strategy: object
    episodes: int = 1000
    seed: int = 0
    log_episodes: bool = False

    def __post_init__(self):
        self.seed = operator.index(self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        # an episode's spawn key must fit one uint32 word
        if self.episodes > 2**32:
            raise ValueError(f"episodes must be <= 2**32, got {self.episodes}")


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


# SeedSequence's pool size and hash constants (numpy.random.bit_generator)
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _child_words(seed: int, start: int, n: int) -> np.ndarray:
    """(n, 4) uint64: row i is SeedSequence(seed).spawn(start + n)[start +
    i].generate_state(4, np.uint64), the words PCG64 is seeded from.

    numpy's entropy mixing, written once for Python ints (the words shared
    by every child) and uint32 arrays (the spawn key, one lane per child);
    every product is reduced mod 2**32 as numpy's uint32 arithmetic does.
    The run entropy is padded to the pool size because a spawn key is
    present.  seed must be >= 0 and start + n <= 2**32.
    """
    entropy = []
    while True:
        entropy.append(seed & _MASK)
        seed >>= 32
        if not seed:
            break
    entropy += [0] * (_POOL - len(entropy))
    entropy.append(np.arange(start, start + n, dtype=np.uint32))

    def hasher(const, mult):
        def hash_word(value):
            nonlocal const
            value = value ^ const
            const = const * mult & _MASK
            value = value * const & _MASK
            return value ^ value >> 16

        return hash_word

    def mix(x, y):
        value = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
        return value ^ value >> 16

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: four uint64 words, as eight uint32 words low half first
    out = hasher(_INIT_B, _MULT_B)
    state = np.stack([out(pool[i % _POOL]) for i in range(8)], axis=1)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@lru_cache(maxsize=None)
def _words_type():
    """A seed sequence that hands PCG64 one child's precomputed words.

    Made on the first batch, so that importing commplan does not load
    numpy.random (about 5 MiB).
    """
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _Words


def _meeting(cfg: GridConfig, strategy):
    """Draw width, draw encoder and slice runner of a meeting strategy."""
    cap = cfg.horizon_cap
    d0 = manhattan(cfg.start1, cfg.start2)
    separations = range(d0 + 1)
    # due[d]: steps from an exchange at separation d to the next (tau - 1);
    # cap means never
    if isinstance(strategy, (Ideal, AlwaysCommunicate)):
        due = np.zeros(d0 + 1, dtype=np.int64)
    elif isinstance(strategy, MyopicGreedy):
        taus = map(strategy.policy.time_for, separations)
        due = np.array([cap if tau is None else tau - 1 for tau in taus], dtype=np.int64)
    elif isinstance(strategy, (NoCommunication, SubGoals)):
        due = None
    else:
        raise ValueError(f"unsupported meeting strategy: {strategy!r}")
    radius = None
    if isinstance(strategy, SubGoals):
        radius = np.array([int(strategy.p * d / 2) for d in separations], dtype=np.int64)
    fee = 0.0 if isinstance(strategy, Ideal) else cfg.comm_cost
    per_step = 2.0 * cfg.action_cost

    def encode(U: np.ndarray) -> np.ndarray:
        codes = (U < cfg.p2).view(np.uint8) << 1
        codes |= U < cfg.p1
        return codes

    def run(C: np.ndarray):
        n, width = C.shape
        utility = np.zeros(n)
        steps = np.zeros(n, dtype=np.int64)
        comm = np.zeros(n, dtype=np.int64)
        capped = np.zeros(n, dtype=bool)
        if d0 == 0:
            return utility, steps, comm, capped
        draws = C.reshape(-1)
        # one column per live episode; rows are views named below
        live = np.zeros((7, n), dtype=np.int64)
        live[0] = np.arange(n)
        live[1], live[2] = split_distance(d0)
        live[3] = 0 if due is None else due[d0]
        live[4] = 0 if radius is None else radius[d0]
        live[6] = live[0] * width
        u = np.zeros(n)
        ep, left1, left2, wait, rad, cm, cur = live

        def exchange(ex):
            d = left1[ex] + left2[ex]
            left1[ex], left2[ex] = split_distance(d)
            if due is not None:
                wait[ex] = due[d]
            if radius is not None:
                rad[ex] = radius[d]
            cm[ex] += 1
            u[ex] += fee

        for t in range(cap):
            if due is not None:
                ex = wait <= 0
                if ex.any():
                    exchange(ex)
                wait -= 1
            need = left1 > 0
            moved1 = need & (draws[cur] & 1).view(bool)
            cur += need
            need = left2 > 0
            moved2 = need & (draws[cur] >> 1).view(bool)
            cur += need
            left1 -= moved1
            left2 -= moved2
            u += per_step
            met = (left1 | left2) == 0
            if radius is not None:
                # left falls by at most one a step, so a walker enters the
                # region on the move that brings its left down to the radius
                ex = ~met & ((moved1 & (left1 == rad)) | (moved2 & (left2 == rad)))
                if ex.any():
                    exchange(ex)
            if met.any():
                done = ep[met]
                utility[done] = u[met]
                steps[done] = t + 1
                comm[done] = cm[met]
                keep = ~met
                live, u = live[:, keep], u[keep]
                ep, left1, left2, wait, rad, cm, cur = live
                if not len(u):
                    break
        utility[ep] = u
        steps[ep] = cap
        comm[ep] = cm
        capped[ep] = True
        return utility, steps, comm, capped

    return 2 * cap, encode, run


def _production(domain: ProductionDomain, strategy):
    """Draw width, draw encoder and slice runner of a production strategy."""
    T = domain.horizon
    lgo = isinstance(strategy, LgoMechanism)
    if lgo:
        check_windows(strategy, domain.model)
        acts1 = _action_table(strategy.candidates1, T)
        acts2 = _action_table(strategy.candidates2, T)
    elif not isinstance(strategy, (Ideal, AlwaysCommunicate)):
        raise ValueError(f"unsupported production strategy: {strategy!r}")
    joint = None if lgo else domain.joint_policy
    fee = 0.0 if isinstance(strategy, Ideal) else domain.model.comm_cost
    step_cost = 2.0 * domain.action_cost
    start = domain.model.initial_state
    # the potential is the sellable-products count of a state
    products = domain.model.potential
    chance = np.tile([domain.p_m1, domain.p_m2], T)

    def encode(U: np.ndarray) -> np.ndarray:
        return U < chance

    def run(C: np.ndarray):
        n = len(C)
        s1, s2 = np.full(n, start.s1), np.full(n, start.s2)
        utility = np.zeros(n)
        comm = np.zeros(n, dtype=np.int64)
        end = np.zeros(n, dtype=np.int64)  # step at which the open window closes
        g1 = np.zeros(n, dtype=np.int64)
        g2 = np.zeros(n, dtype=np.int64)
        for t in range(T):
            new = end == t
            if t:
                utility[new] += fee
                comm[new] += 1
            if lgo:
                cell = (t, s1[new], s2[new])
                g1[new] = strategy.g1[cell]
                g2[new] = strategy.g2[cell]
                end[new] = t + strategy.k[cell]
                a1, a2 = acts1[g1, t, s1], acts2[g2, t, s2]
            else:
                end += 1
                a1, a2 = np.divmod(joint.actions[t, s1, s2], joint.n_actions2)
            utility += step_cost
            s1 = np.where(C[:, 2 * t], domain.made1[s1, a1], s1)
            s2 = np.where(C[:, 2 * t + 1], domain.made2[s2, a2], s2)
        utility += fee
        comm += 1
        utility += products[s1, s2]
        return utility, np.full(n, T), comm, np.zeros(n, dtype=bool)

    return 2 * T, encode, run


def _action_table(candidates, T: int) -> np.ndarray:
    """acts[g, t, s]: candidate g's action in local state s at time t < T."""
    return np.stack([pol.actions[pol.row_at(np.arange(T))] for pol in candidates])


def _cdf_rows(agent: AgentModel) -> list:
    """cdf[s][a]: the normalised cumulative transition row, as
    Generator.choice builds it."""
    cdf = agent.transition.cumsum(axis=2)
    cdf /= cdf[:, :, -1:]
    return cdf.tolist()


def _trees(model: DecMdpCom, mech: GeneralMechanism):
    """Draw width, draw encoder and slice runner of a policy-tree mechanism
    on any joint model, in model units.

    Trees run until their first communication act; the communicating agent
    freezes for that step while the other's domain action still executes;
    the exchange then reveals the joint state and a fresh pair is looked up.
    An exchange landing exactly on the horizon is not charged (nothing is
    left to replan).  The model is checked first, so a transition row edited
    after planning is reported, not sampled.
    """
    require_valid(model)
    cdf1, cdf2 = _cdf_rows(model.agent1), _cdf_rows(model.agent2)
    T = model.horizon

    def episode(draws):
        draw = iter(draws).__next__
        s1, s2 = model.initial_state.s1, model.initial_state.s2
        utility, comm, t = 0.0, 0, 0
        while t < T:
            tree1, tree2 = mech.pairs[s1, s2, t]
            depth = 0
            while t < T:
                a1 = tree1.action_at(s1, depth)
                a2 = tree2.action_at(s2, depth)
                comm1 = a1 == COMMUNICATE
                comm2 = a2 == COMMUNICATE
                n1 = s1 if comm1 else bisect_right(cdf1[s1][a1], draw())
                n2 = s2 if comm2 else bisect_right(cdf2[s2][a2], draw())
                utility += model.step_reward(
                    s1, s2, None if comm1 else a1, None if comm2 else a2, n1, n2
                )
                s1, s2 = n1, n2
                t += 1
                depth += 1
                if comm1 or comm2:
                    comm += 1
                    if t < T:
                        utility += model.comm_cost
                    break
        return utility, t, comm

    def run(U: np.ndarray):
        runs = [episode(row.tolist()) for row in U]
        utility, steps, comm = (np.array(col) for col in zip(*runs))
        return utility, steps, comm, np.zeros(len(U), dtype=bool)

    return 2 * T, lambda U: U, run


def _engine(domain, strategy):
    """(width, encode, run): the most uniforms one episode draws; a function
    that maps an (n, width) uniform array to the draw codes the engine reads
    (uint8 outcome bits on the meeting grid, bool outcomes in production,
    the uniforms themselves on policy trees); and a function that runs one
    episode per row of an (n, width) code array and returns per-episode
    utility, steps, exchanges and capped flags."""
    if isinstance(domain, MeetingDomain):
        return _meeting(domain.config, strategy)
    if isinstance(domain, ProductionDomain):
        return _production(domain, strategy)
    if isinstance(domain, DecMdpCom):
        if not isinstance(strategy, GeneralMechanism):
            raise ValueError(f"unsupported model strategy: {strategy!r}")
        return _trees(domain, strategy)
    raise ValueError(f"unsupported domain: {domain!r}")


def run_episode(domain, strategy, rng):
    """One episode on the caller's generator; returns (utility, steps,
    exchanges, capped).

    It is a batch of one: the episode's whole draw-ahead buffer (as many
    uniforms as monte_carlo draws per episode) comes from `rng` first and is
    encoded as monte_carlo encodes it.  The episode is the one the draw rules
    give on that stream, but `rng` ends past every uniform of the buffer,
    also those the episode did not use.
    """
    width, encode, run = _engine(domain, strategy)
    utility, steps, comm, capped = run(encode(rng.random((1, width))))
    return float(utility[0]), int(steps[0]), int(comm[0]), bool(capped[0])


def monte_carlo(cfg: SimConfig) -> SimResult:
    """cfg.episodes independent episodes on decorrelated substreams.

    Single-threaded and ordered; a fixed seed gives identical results on
    every run.  Episode i draws from child i of SeedSequence(seed), the
    stream of spawn(episodes)[i]; the children's PCG64 seed words are hashed
    a slice at a time.
    """
    width, encode, run = _engine(cfg.domain, cfg.strategy)
    words_seed = _words_type()
    utilities = np.empty(cfg.episodes)
    steps = np.empty(cfg.episodes)
    comms = np.empty(cfg.episodes)
    capped = 0
    block = max(1, SLICE_BYTES // (8 * width))
    buffer = np.empty((min(block, cfg.episodes), width))
    code_type = encode(buffer[:0]).dtype
    rows = max(1, SLICE_BYTES // (code_type.itemsize * width))
    codes = np.empty((min(rows, cfg.episodes), width), dtype=code_type)
    for start in range(0, cfg.episodes, rows):
        C = codes[: min(rows, cfg.episodes - start)]
        words = _child_words(cfg.seed, start, len(C))
        for first in range(0, len(C), block):
            U = buffer[: min(block, len(C) - first)]
            for w, row in zip(words[first:], U):
                np.random.Generator(np.random.PCG64(words_seed(w))).random(out=row)
            C[first:first + len(U)] = encode(U)
        got = slice(start, start + len(C))
        utilities[got], steps[got], comms[got], cut = run(C)
        capped += int(cut.sum())
    log: Optional[List[Tuple[float, int, int]]] = None
    if cfg.log_episodes:
        log = list(zip(utilities.tolist(), map(int, steps), map(int, comms)))
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
