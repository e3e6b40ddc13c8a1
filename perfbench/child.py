"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --spawn T [--setup-only] [--no-reference]

``--spawn`` is the parent's ``time.monotonic()`` just before it started this
process, so that set-up time counts from interpreter start.  The last line of
standard output is one JSON record: phase times, peak RSS, operations
attempted and failed with the gate's messages, the output facts, and with
``--trace 1`` the spans, per-layer metrics and the bases of their ratios.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import statistics
import sys
import time
import traceback

from gate import compare, load_reference
from tracing import Run, Tracer, metric_self_times
from workloads import WORKLOADS

PHASES = ("setup", "plan", "export", "simulate", "verify")

# Per-layer metrics every traced record carries; a layer the workload never
# calls reads 0.
SPAN_METRICS = (
    "lgo.plan_s", "lgo.evaluate_s", "lgo.export_s",
    "domains.build_s", "domains.joint_solve_s",
    "msbpi.plan_s", "msbpi.evaluate_s", "msbpi.export_s",
    "myopic.table_s", "tables.compare_s", "model.validate_s",
    "sim.no_comm_s", "sim.ideal_s", "sim.myopic_s", "sim.subgoals_s",
)
COUNT_METRICS = (
    "lgo.sweeps", "lgo.candidates_nominal", "lgo.candidates_scored", "lgo.scored_ratio",
    "lgo.cells", "msbpi.iterations", "msbpi.nodes_created", "msbpi.cells_updated",
    "myopic.tables", "myopic.theta_hits", "myopic.theta_misses",
    "sim.episodes", "sim.agent_steps", "sim.exchanges", "sim.capped",
)
TREE_SIZES = range(1, 8)


def percentile(values, q):
    """The q-th percentile (1..99) by statistics.quantiles; one value stands alone."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(run: Run, spans, workload) -> tuple:
    tracer = run.tracer
    own = metric_self_times(spans)
    metrics = {name: own.get(name, 0.0) for name in SPAN_METRICS}
    counts, bases = workload.layer_counts()
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, tracer.counters.get(name, 0))
    batches = [s for s in spans if "agent_steps" in s]
    sim_s = sum(s["end"] - s["start"] for s in batches)
    steps = sum(s["agent_steps"] for s in batches)
    metrics["sim.agent_step_us"] = sim_s / steps * 1e6 if steps else 0.0
    episodes = tracer.samples.get("sim.episode_us", [])
    metrics["sim.episode_us.p50"] = percentile(episodes, 50)
    metrics["sim.episode_us.p99"] = percentile(episodes, 99)
    nodes = metrics["msbpi.nodes_created"]
    metrics["msbpi.node_us"] = metrics["msbpi.plan_s"] / nodes * 1e6 if nodes else 0.0
    f_values = tracer.samples.get("options.f_value_us", [])
    metrics["options.f_value_us"] = statistics.median(f_values) if f_values else 0.0
    for size in TREE_SIZES:
        got = tracer.samples.get(f"options.f_value_us.size{size}", [])
        metrics[f"options.f_value_us.size{size}"] = statistics.median(got) if got else 0.0
    if f_values:
        sizes = {size: len(tracer.samples.get(f"options.f_value_us.size{size}", []))
                 for size in TREE_SIZES}
        bases["options.f_value_us"] = f"{len(f_values)} calls by tree size {sizes}"
    if episodes:
        bases["sim.episode_us.p99"] = f"{len(episodes)} timed run_episode calls"
    if steps:
        bases["sim.agent_step_us"] = (f"{sim_s:.6f} s in {len(batches)} monte_carlo calls"
                                      f" / their {steps} agent-steps")
    if nodes:
        bases["msbpi.node_us"] = f"{metrics['msbpi.plan_s']:.6f} s msbpi / {nodes} nodes"
    return metrics, bases


def covered(spans, end: float) -> float:
    """Seconds up to ``end`` spent inside spans around the program's calls.

    Those are the spans directly inside a phase: each public call, and the
    import of the package.  Interpreter start and the benchmark's own work
    between calls are left out.
    """
    phases = {i for i, s in enumerate(spans) if s["layer"] == "phase"}
    return sum(s["end"] - s["start"] for s in spans
               if s["parent"] in phases and s["end"] <= end)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-reference", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer(bool(args.trace))
    run = Run(tracer, args.seed)
    workload = WORKLOADS[args.workload]()
    phases = (PHASES[:1] if args.setup_only else PHASES[:-1])
    aborted = None
    try:
        for phase in phases:
            start = args.spawn if phase == "setup" else None
            with tracer.span(phase, "phase", start=start, always=True):
                if phase == "setup":
                    with tracer.span("import commplan", "import"):
                        import commplan  # noqa: F401
                getattr(workload, phase)(run)
        end = time.monotonic()
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if not args.setup_only:
            with tracer.span("verify", "phase", always=True):
                workload.verify(run)
                if not args.no_reference:
                    reference = load_reference() or {}
                    core = os.environ.get("OPENBLAS_CORETYPE", "")
                    expected = reference.get("cores", {}).get(core, {}).get(args.workload)
                    if expected is None:
                        run.fail("gate", f"no reference for {args.workload} on BLAS core {core!r}")
                    else:
                        for op, message in compare(run.facts, expected, args.seed,
                                                   reference["seed"]):
                            run.fail(op, message)
    except Exception:  # noqa: BLE001 - a raising operation is a failed operation
        aborted = traceback.format_exc()
        end = time.monotonic()
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    package = sys.modules.get("commplan")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "")
    if package is not None and not package.__file__.startswith(src):
        run.fail("import", f"commplan imported from {package.__file__}, not {src}")

    spans = tracer.spans
    phase_spans = [s for s in spans if s["layer"] == "phase" and s["end"] is not None]
    phase_s = {s["name"]: s["end"] - s["start"] for s in phase_spans}
    # The run ends with the simulate phase; the gate's verify phase is the
    # benchmark's own work and is reported apart, in phases["verify"].
    total = end - args.spawn
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_only": args.setup_only,
        "phases": phase_s,
        "phases_cpu": {s["name"]: s["cpu_end"] - s["cpu_start"] for s in phase_spans},
        "total_s": total,
        "peak_rss_mib": peak_rss / 1024.0,
        "attempted": run.attempted,
        "failed": run.failed_ops(),
        "problems": run.problems,
        "aborted": aborted,
        "facts": run.facts,
        "versions": {"python": sys.version.split()[0],
                     "numpy": importlib.metadata.version("numpy"),
                     "scipy": importlib.metadata.version("scipy")},
    }
    if args.trace and aborted is None and not args.setup_only:
        metrics, bases = layer_metrics(run, spans, workload)
        record["layers"] = metrics
        record["bases"] = bases
        record["coverage"] = covered(spans, end) / total
        record["spans"] = spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
