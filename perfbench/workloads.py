"""The three benchmark workloads, written against commplan's public API.

Each workload runs its public calls in four timed phases: ``setup`` (build
the model and its candidate policies), ``plan`` (from the built model to the
final value tables), ``export`` (text outputs) and ``simulate`` (seeded
Monte-Carlo).  ``verify`` then derives the facts and invariants the gate
checks.  Nothing here patches or wraps the package: spans sit around the
calls this file makes.

Traced and untraced repetitions run the same program calls.  A traced
repetition only adds spans around them, and two probes that time single
calls: ``joint_f_value`` after planning, ``run_episode`` after the
Monte-Carlo batches.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict

EPISODES = {"production_lgo": 20000, "meeting_mc": 1000, "toy_msbpi": 25000}
# run_episode calls timed one by one in a traced repetition, spread evenly
# over the workload's batches.
PROBE_EPISODES = 2000


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def array_digest(a) -> str:
    import numpy as np

    a = np.ascontiguousarray(a)
    return sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())


def summary_digest(r) -> str:
    return sha(repr((r.mean_utility, r.variance, r.mean_comm, r.mean_steps,
                     r.episodes, r.seed, r.comm_variance, r.capped_episodes)))


def episode_counts(r) -> Dict[str, int]:
    """Exact totals of one batch: each system step moves both agents."""
    steps = round(r.mean_steps * r.episodes)
    return {
        "episodes": r.episodes,
        "agent_steps": 2 * steps,
        "exchanges": round(r.mean_comm * r.episodes),
        "capped": r.capped_episodes,
    }


def batch(run, domain, strategy, episodes: int, seed: int, metric=None, log=True):
    """One monte_carlo batch.  Its span carries the batch's agent steps, the
    base of ``sim.agent_step_us``."""
    from commplan.sim import SimConfig, monte_carlo

    with run.tracer.span("sim.monte_carlo", "sim", metric) as span:
        result = monte_carlo(SimConfig(domain=domain, strategy=strategy,
                                       episodes=episodes, seed=seed, log_episodes=log))
    if span is not None:
        span["agent_steps"] = episode_counts(result)["agent_steps"]
    count_batch(run, result)
    return result


def count_batch(run, r) -> None:
    for key, value in episode_counts(r).items():
        run.tracer.count(f"sim.{key}", value)


def probe_episodes(run, batches, seed: int) -> None:
    """Time single run_episode calls on the first substreams of each batch.

    The probe runs after the batches, outside their spans, as its own
    operation; its calls draw from the same ``SeedSequence(seed)`` children
    as the batches' first episodes.
    """
    import numpy as np
    from commplan.sim import run_episode

    per_batch = max(1, PROBE_EPISODES // len(batches))
    with run.op("sim.run_episode", "sim"):
        for domain, strategy in batches:
            for child in np.random.SeedSequence(seed).spawn(per_batch):
                rng = np.random.Generator(np.random.PCG64(child))
                t0 = time.perf_counter_ns()
                run_episode(domain, strategy, rng)
                run.tracer.sample("sim.episode_us", (time.perf_counter_ns() - t0) / 1e3)


def record_batch(run, op: str, r, target: float) -> None:
    """Invariant and facts of a batch whose mean should match a planner value."""
    problem = _se_problem(r, target)
    if problem:
        run.fail(op, problem)
    run.fact(op, "summary", summary_digest(r), seeded=True)
    if r.per_episode is not None:
        run.fact(op, "per_episode", sha(repr(r.per_episode)), seeded=True)
    for key, value in episode_counts(r).items():
        run.fact(op, key, value, seeded=True)


def _se_problem(r, target: float):
    from gate import within_se

    return within_se(r.mean_utility, r.std_error, target)


class ProductionLgo:
    """The T1 cell at (0.8, 0.8): LGO over 7x7 quota candidates, T=10."""

    name = "production_lgo"

    def setup(self, run):
        from commplan.domains import build_production

        with run.op("domains.build_production", "domains", "domains.build_s"):
            self.domain = build_production(0.8, 0.8, comm_cost=-0.1)

    def plan(self, run):
        from commplan.lgo import evaluate_lgo, lgo_msbpi
        from commplan.model import validate

        d = self.domain
        with run.op("model.validate", "model", "model.validate_s"):
            self.validation = validate(d.model)
        with run.op("domains.joint_policy", "domains", "domains.joint_solve_s"):
            self.joint = d.joint_policy
        with run.op("lgo.lgo_msbpi", "lgo", "lgo.plan_s"):
            self.mech = lgo_msbpi(d.model, d.candidates1, d.candidates2)
        with run.op("lgo.evaluate_lgo", "lgo", "lgo.evaluate_s"):
            self.value = evaluate_lgo(self.mech, d.model)

    def export(self, run):
        from commplan.lgo import mechanism_csv

        with run.op("lgo.mechanism_csv", "lgo", "lgo.export_s"):
            self.csv = mechanism_csv(self.mech)

    def simulate(self, run):
        from commplan.domains import Ideal

        n = EPISODES[self.name]
        with run.op("sim.lgo", "sim"):
            self.sim_lgo = batch(run, self.domain, self.mech, n, run.seed)
        with run.op("sim.ideal", "sim"):
            self.sim_ideal = batch(run, self.domain, Ideal(), n, run.seed)
        if run.traced:
            probe_episodes(run, [(self.domain, self.mech), (self.domain, Ideal())], run.seed)

    def verify(self, run):
        import numpy as np

        d, mech = self.domain, self.mech
        s0 = d.model.initial_state
        m1, m2 = d.model.agent1, d.model.agent2
        run.check("domains.build_production",
                  (m1.n_states, m2.n_states, len(d.candidates1), len(d.candidates2)) == (121, 209, 7, 7),
                  "model is not 121x209 states with 7x7 candidates")
        record_validation(run, self.validation)

        ideal_v0 = float(self.joint.value[s0.s1, s0.s2])
        run.fact("domains.joint_policy", "v0", ideal_v0)
        run.fact("domains.joint_policy", "value", array_digest(self.joint.value))
        run.fact("domains.joint_policy", "actions", array_digest(self.joint.actions))

        lgo_v0 = float(mech.value[0, s0.s1, s0.s2])
        op = "lgo.lgo_msbpi"
        run.fact(op, "v0", lgo_v0)
        run.fact(op, "value", array_digest(mech.value))
        run.fact(op, "sweeps", mech.sweeps)
        run.fact(op, "candidates_considered", mech.candidates_considered)
        run.fact(op, "sweep_candidate_counts", list(mech.sweep_candidate_counts))
        run.fact(op, "cells", len(mech.assignment))

        run.check("lgo.evaluate_lgo", np.array_equal(self.value, mech.value),
                  "evaluate_lgo differs from the planner's value table")
        run.fact("lgo.evaluate_lgo", "value", array_digest(self.value))

        run.fact("lgo.mechanism_csv", "digest", sha(self.csv))
        run.fact("lgo.mechanism_csv", "lines", self.csv.count("\n"))

        record_batch(run, "sim.lgo", self.sim_lgo, lgo_v0)
        record_batch(run, "sim.ideal", self.sim_ideal, ideal_v0)

    def layer_counts(self):
        mech, m = self.mech, self.domain.model
        T = m.horizon
        layers = (T - 1) * T
        fitting = sum(1 for k in range(1, T) for t in range(T) if t + k <= T)
        per_layer = (m.agent1.n_states * m.agent2.n_states
                     * len(self.domain.candidates1) * len(self.domain.candidates2))
        counts = {
            "lgo.sweeps": mech.sweeps,
            "lgo.candidates_nominal": mech.candidates_considered,
            "lgo.candidates_scored": mech.sweeps * fitting * per_layer,
            "lgo.scored_ratio": fitting / layers,
            "lgo.cells": len(mech.assignment),
        }
        bases = {"lgo.scored_ratio": f"{fitting}/{layers} (k, t) layers fit in T={T}",
                 "lgo.candidates_scored": f"computed: {mech.sweeps} sweeps x {fitting} layers x {per_layer} candidates"}
        return counts, bases


class MeetingMc:
    """Exchange-time tables T5-T7 and the meeting batches at fee -1."""

    name = "meeting_mc"
    FEE = -1.0
    P_VALUES = (0.2, 0.4, 0.6, 0.8)
    TABLES = (("T5", -0.1), ("T6", -1.0), ("T7", -10.0))
    STRATEGIES = ("no_comm", "ideal", "myopic", "subgoals")

    def setup(self, run):
        from commplan.domains import GridConfig, build_meeting

        # Every success rate gives the same transition support, so the one
        # model validated here stands for all four.
        with run.op("domains.build_meeting", "domains", "domains.build_s"):
            self.domain = build_meeting(GridConfig(p1=0.2, p2=0.2, comm_cost=self.FEE))

    def plan(self, run):
        from commplan.model import validate
        from commplan.tables import comm_table_values

        with run.op("model.validate", "model", "model.validate_s"):
            self.validation = validate(self.domain.model)
        self.tables = {}
        for tid, fee in self.TABLES:
            with run.op(f"myopic.comm_table_values.{tid}", "myopic", "myopic.table_s"):
                self.tables[tid] = comm_table_values(fee)
            run.tracer.count("myopic.tables", len(self.tables[tid]))

    def export(self, run):
        from commplan.tables import compare_comm_table

        self.reports = {}
        for tid, _ in self.TABLES:
            with run.op(f"tables.compare_comm_table.{tid}", "tables", "tables.compare_s"):
                self.reports[tid] = compare_comm_table(tid).summary()

    def simulate(self, run):
        from commplan.tables import meeting_batches

        n = EPISODES[self.name]
        self.batches = {}
        probed = []
        for p in self.P_VALUES:
            with run.op(f"sim.meeting_batches.p{p}", "sim"):
                if run.traced:
                    self.batches[p], strategies = self._traced_batches(run, p, n)
                    probed += strategies
                else:
                    self.batches[p] = meeting_batches(self.FEE, p, n, run.seed)
        from commplan.myopic import theta_nc_meeting

        self.theta = theta_nc_meeting.cache_info()
        if run.traced:
            probe_episodes(run, probed, run.seed)

    def _traced_batches(self, run, p, n):
        """meeting_batches(FEE, p, n, seed) as its public calls, each under a span.

        Also returns the (domain, strategy) pairs of the kept batches, for
        the run_episode probe.
        """
        from commplan.domains import (GridConfig, Ideal, MyopicGreedy, NoCommunication,
                                      SubGoals, build_meeting)
        from commplan.myopic import comm_policy_table
        from commplan.tables import best_subgoals

        span = run.tracer.span
        with span("domains.build_meeting", "domains", "domains.build_s"):
            domain = build_meeting(GridConfig(p1=p, p2=p, comm_cost=self.FEE))
        with span("myopic.comm_policy_table", "myopic", "myopic.table_s"):
            table = comm_policy_table(p_u=p, comm_cost=self.FEE)
        run.tracer.count("myopic.tables", 1)
        seed = run.seed
        strategies = {"no_comm": NoCommunication(), "ideal": Ideal(),
                      "myopic": MyopicGreedy(table)}
        out = {name: batch(run, domain, strategy, n, seed, f"sim.{name}_s", log=False)
               for name, strategy in strategies.items()}
        with span("tables.best_subgoals", "sim", "sim.subgoals_s"):
            out["subgoals_p"], out["subgoals"] = best_subgoals(domain, n, seed)
        count_batch(run, out["subgoals"])
        strategies["subgoals"] = SubGoals(out["subgoals_p"])
        return out, [(domain, s) for s in strategies.values()]

    def verify(self, run):
        from commplan.myopic import theta_nc_meeting

        record_validation(run, self.validation)
        for tid, values in self.tables.items():
            op = f"myopic.comm_table_values.{tid}"
            run.fact(op, "values", sha(repr(sorted(values.items()))))
            run.check(op, len(values) == len(self.P_VALUES), "expected one row per success rate")
        for tid, summary in self.reports.items():
            run.fact(f"tables.compare_comm_table.{tid}", "summary", sha(summary))
        for p, out in self.batches.items():
            op = f"sim.meeting_batches.p{p}"
            results = [out[s] for s in self.STRATEGIES]
            analytic = 2.0 * theta_nc_meeting(9, 9, p)
            problem = _se_problem(out["no_comm"], analytic)
            if problem:
                run.fail(op, f"no_comm: {problem}")
            ideal = out["ideal"]
            run.check(op, ideal.mean_comm == ideal.mean_steps,
                      "ideal must exchange once per step")
            run.check(op, all(r.episodes == EPISODES[self.name] for r in results),
                      "batch size differs from the request")
            run.fact(op, "summary", sha(repr([summary_digest(r) for r in results]
                                             + [out["subgoals_p"]])), seeded=True)
            for key in ("agent_steps", "exchanges", "capped"):
                run.fact(op, key, sum(episode_counts(r)[key] for r in results), seeded=True)

    def layer_counts(self):
        hits, misses = self.theta.hits, self.theta.misses
        counts = {"myopic.theta_hits": hits, "myopic.theta_misses": misses}
        bases = {"myopic.theta_hits": f"{hits} hits / {hits + misses} theta_nc_meeting calls",
                 "myopic.tables": "12 in plan (T5-T7) plus one per success rate for the myopic batches"}
        return counts, bases


def toy_model(horizon=7, p1=0.7, p2=0.5, comm_cost=-0.4, bonus=3.0,
              cost_go=-1.0, cost_wait=-0.2):
    """Two chain agents; landing both in state 1 pays a per-step bonus.

    Each agent has two states and two actions: 'go' moves 0 -> 1 with its
    success probability, 'wait' stays; state 1 absorbs.
    """
    import numpy as np
    from commplan.model import AgentModel, DecMdpCom, FactoredState

    def chain(name, p):
        tr = np.zeros((2, 2, 2))
        tr[0, 0, 1] = p
        tr[0, 0, 0] = 1.0 - p
        tr[0, 1, 0] = 1.0
        tr[1, 0, 1] = 1.0
        tr[1, 1, 1] = 1.0
        return AgentModel(n_states=2, actions=("go", "wait"), transition=tr,
                          goal_candidates=(1,), action_cost=np.array([cost_go, cost_wait]),
                          noop=1, name=name)

    def extra(s1, s2, ns1, ns2):
        return bonus if ns1 == 1 and ns2 == 1 else 0.0

    return DecMdpCom(agent1=chain("left", p1), agent2=chain("right", p2),
                     comm_cost=comm_cost, horizon=horizon,
                     initial_state=FactoredState(0, 0), extra_reward=extra)


class ToyMsbpi:
    """Tree-pair search on the two-chain toy model at horizon 7."""

    name = "toy_msbpi"
    F_VALUE_REPEATS = 5

    def setup(self, run):
        with run.op("model.toy_model", "model"):
            self.model = toy_model()

    def plan(self, run):
        from commplan.model import validate
        from commplan.msbpi import evaluate_policy, msbpi

        with run.op("model.validate", "model", "model.validate_s"):
            self.validation = validate(self.model)
        with run.op("msbpi.msbpi", "msbpi", "msbpi.plan_s"):
            self.mech = msbpi(self.model)
        with run.op("msbpi.evaluate_policy", "msbpi", "msbpi.evaluate_s"):
            self.value = evaluate_policy(self.mech, self.model)
        if run.traced:
            with run.op("options.joint_f_value", "options"):
                self._time_f_values(run)

    def _time_f_values(self, run):
        """Time joint_f_value on every pair of the final mechanism."""
        from commplan.model import FactoredState
        from commplan.options import joint_f_value

        V = self.mech.value
        for (s1, s2, t), (tree1, tree2) in sorted(self.mech.pairs.items()):
            size = max(tree1.size, tree2.size)
            for _ in range(self.F_VALUE_REPEATS):
                t0 = time.perf_counter_ns()
                f = joint_f_value(tree1, tree2, self.model, FactoredState(s1, s2), t, V)
                us = (time.perf_counter_ns() - t0) / 1e3
                run.tracer.sample("options.f_value_us", us)
                run.tracer.sample(f"options.f_value_us.size{size}", us)
            run.check("options.joint_f_value", f == V[t, s1, s2],
                      f"joint_f_value at ({s1}, {s2}, {t}) differs from the value table")

    def export(self, run):
        from commplan.msbpi import iteration_csv

        with run.op("msbpi.iteration_csv", "msbpi", "msbpi.export_s"):
            self.csv = iteration_csv(self.mech)

    def simulate(self, run):
        with run.op("sim.msbpi", "sim"):
            self.sim = batch(run, self.model, self.mech, EPISODES[self.name], run.seed)
        if run.traced:
            probe_episodes(run, [(self.model, self.mech)], run.seed)

    def verify(self, run):
        import numpy as np

        record_validation(run, self.validation)
        mech, s0 = self.mech, self.model.initial_state
        v0 = float(mech.value[0, s0.s1, s0.s2])
        op = "msbpi.msbpi"
        run.fact(op, "v0", v0)
        run.fact(op, "value", array_digest(mech.value))
        run.fact(op, "iterations", mech.iterations)
        run.fact(op, "nodes_created", mech.nodes_created)
        run.fact(op, "cells_updated", sum(h["cells_updated"] for h in mech.history))
        run.check("msbpi.evaluate_policy", np.array_equal(self.value, mech.value),
                  "evaluate_policy differs from the planner's value table")
        run.fact("msbpi.evaluate_policy", "value", array_digest(self.value))
        run.fact("msbpi.iteration_csv", "digest", sha(self.csv))
        record_batch(run, "sim.msbpi", self.sim, v0)

    def layer_counts(self):
        mech = self.mech
        counts = {
            "msbpi.iterations": mech.iterations,
            "msbpi.nodes_created": mech.nodes_created,
            "msbpi.cells_updated": sum(h["cells_updated"] for h in mech.history),
        }
        return counts, {}


def record_validation(run, validation) -> None:
    problems = [v for v in validation if not v.startswith("warning:")]
    run.check("model.validate", not problems, "; ".join(problems))
    run.fact("model.validate", "report", sha(repr(validation)))


WORKLOADS = {w.name: w for w in (ProductionLgo, MeetingMc, ToyMsbpi)}
