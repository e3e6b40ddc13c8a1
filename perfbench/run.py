"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds as a closed loop: repetitions run one
after another, each in a fresh interpreter (so the package's caches start
cold, as they do for every command-line call), with one Python thread and
the BLAS thread count and kernel pinned.  The Monte-Carlo seed is ``--seed``;
the planning inputs are fixed by the workload.

With ``--trace 0`` the run first times several set-up-only repetitions, then
full untraced repetitions, and reports the end-to-end medians.  With
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer medians from the traced ones, the tracing overhead and the share
of traced time that top-level spans cover.  Every repetition's outputs pass
through the correctness gate (see gate.py), and facts must agree across the
repetitions of a run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, per-repetition figures, ratio bases and
failures).  The full record, spans included, is written under ``.perfbench/``
in the checkout.  Exits 2 without a result when the checkout has no
``src/commplan`` package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "commplan"
OUT = ROOT / ".perfbench"

BLAS_THREADS = 1
# OpenBLAS picks its GEMM kernel by CPU, and kernels sum in different orders,
# so the kernel is pinned: SkylakeX where AVX-512 is present, else Haswell.
# reference.json holds digests for both.
AVX512 = {"avx512f", "avx512dq", "avx512cd", "avx512bw", "avx512vl"}
SETUP_REPS = 5
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "plan_s": "s", "simulate_s": "s", "total_s": "s",
              "peak_rss_mib": "MiB", "ok_frac": "ratio"}
PER_LAYER_UNITS = {"_s": "s", "_us": "us", ".p50": "us", ".p99": "us"}
EXACT_COUNTS = ("lgo.sweeps", "lgo.candidates_nominal", "lgo.cells",
                "msbpi.iterations", "msbpi.nodes_created", "msbpi.cells_updated",
                "myopic.tables", "myopic.theta_hits", "myopic.theta_misses",
                "sim.episodes", "sim.agent_steps", "sim.exchanges", "sim.capped")


def blas_core() -> str:
    return "SkylakeX" if AVX512 <= cpu_flags() else "Haswell"


def cpu_flags() -> set:
    return set(cpuinfo("flags").split())


def cpuinfo(field: str) -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(field):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


def child_env(core: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["OPENBLAS_CORETYPE"] = core
    return env


def run_child(workload: str, seed: int, traced: bool, setup_only: bool, timeout: float,
              core: str, extra=()) -> dict:
    """One repetition; a crash or timeout comes back as a failed record."""
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--spawn", repr(spawn), *extra]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(core), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return crashed(workload, traced, setup_only, spawn, f"timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return crashed(workload, traced, setup_only, spawn,
                       f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return crashed(workload, traced, setup_only, spawn, "unreadable record")
    record["wall_s"] = time.monotonic() - spawn
    return record


def crashed(workload, traced, setup_only, spawn, message) -> dict:
    return {"workload": workload, "traced": traced, "setup_only": setup_only,
            "phases": {}, "total_s": None, "wall_s": time.monotonic() - spawn,
            "attempted": ["process"], "failed": ["process"],
            "problems": {"process": [message]}, "aborted": message, "facts": {}}


def cross_check(records) -> None:
    """Facts and exact layer counts must agree across a run's repetitions.

    A repetition whose facts differ from the first full repetition's gets the
    differing ops added to its failures.
    """
    full = [r for r in records if not r["setup_only"] and r["facts"]]
    if not full:
        return
    first = full[0]
    counts = next((r["layers"] for r in full if "layers" in r), None)
    for r in full[1:]:
        for op, facts in r["facts"].items():
            if first["facts"].get(op) != facts:
                r["failed"] = sorted(set(r["failed"]) | {op})
                r["problems"].setdefault(op, []).append("facts differ between repetitions")
        if counts and "layers" in r:
            for name in EXACT_COUNTS:
                if r["layers"][name] != counts[name]:
                    r["failed"] = sorted(set(r["failed"]) | {name})
                    r["problems"].setdefault(name, []).append("count differs between repetitions")


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    if name.endswith(("_ratio", "coverage")):
        return "ratio"
    if name == "lgo.candidates_scored":
        return "count-computed"
    return "count"


def environment(core: str) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpu": cpuinfo("model name") or platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "blas_core": core,
        "src_sha256": tree_digest(PACKAGE),
        "git_rev": None,
    }
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        env["git_rev"] = proc.stdout.strip() or None
    return env


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def median_of(records, get):
    values = [get(r) for r in records]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="commplan benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no commplan package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + args.seconds
    trace = bool(args.trace)
    core = blas_core()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    setups = []
    if not trace:
        run_child(args.workload, args.seed, False, True, remaining(), core)  # warm-up
        setups = [run_child(args.workload, args.seed, False, True, remaining(), core)
                  for _ in range(SETUP_REPS)]
    full = []
    while True:
        traced = trace and len(full) % 2 == 1
        full.append(run_child(args.workload, args.seed, traced, False, remaining(), core))
        longest = max(r["wall_s"] for r in full[-2:])
        if time.monotonic() + longest > start + RUN_LIMIT_S:
            break
        if trace and len(full) < 2:
            continue
        # Start another repetition while at least half of it fits, so that
        # runs last about S seconds on average and the phases get as many
        # samples as the time allows.
        if time.monotonic() + longest / 2 > deadline:
            break

    records = setups + full
    cross_check(records)
    attempted = sum(len(r["attempted"]) for r in records)
    failed = sum(len(r["failed"]) for r in records)
    broken = [r for r in records if r["aborted"] or r["failed"]]
    setups = [r for r in setups if not r["aborted"]]
    untraced = [r for r in full if not r["traced"] and not r["aborted"]]
    traced_ok = [r for r in full if "layers" in r]
    correct = not broken and bool(untraced) and (traced_ok or not trace)

    metrics = {}
    bases = {}
    if untraced and not trace:
        values = {
            "setup_s": median_of(setups + untraced, lambda r: r["phases"]["setup"]),
            "plan_s": median_of(untraced, lambda r: r["phases"]["plan"]),
            "simulate_s": median_of(untraced, lambda r: r["phases"]["simulate"]),
            "total_s": median_of(untraced, lambda r: r["total_s"]),
            "peak_rss_mib": median_of(untraced, lambda r: r["peak_rss_mib"]),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        bases["setup_s"] = f"median of {len(setups) + len(untraced)} set-ups"
        bases["total_s"] = (f"median of {len(untraced)} repetitions, spawn to the end of "
                            f"simulate; the gate's verify phase is apart, as verify_s")
    elif untraced and traced_ok:
        names = traced_ok[0]["layers"].keys()
        for name in names:
            if layer_unit(name) in ("s", "us"):
                value = median_of(traced_ok, lambda r: r["layers"][name])
            else:  # counts agree across repetitions (cross_check)
                value = traced_ok[0]["layers"][name]
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        overhead = (median_of(traced_ok, lambda r: r["total_s"])
                    - median_of(untraced, lambda r: r["total_s"]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.coverage"] = {"value": median_of(traced_ok, lambda r: r["coverage"]),
                                     "unit": "ratio"}
        bases.update(traced_ok[-1]["bases"])
        bases["trace.overhead_s"] = (f"median traced total of {len(traced_ok)} minus "
                                     f"median untraced total of {len(untraced)}")
        bases["trace.coverage"] = ("time inside the spans directly under a phase (public "
                                   "calls, the package import) over traced total_s")
    bases["failed_frac"] = f"{failed}/{attempted} operations"

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(core),
        "versions": next((r["versions"] for r in full if "versions" in r), None),
        "failed_frac": failed / attempted if attempted else 1.0,
        "verify_s": median_of([r for r in full if "verify" in r["phases"]],
                              lambda r: r["phases"]["verify"]),
        "bases": bases,
        "repetitions": [
            {"traced": r["traced"], "setup_only": r["setup_only"], "total_s": r["total_s"],
             "phases": r["phases"], "peak_rss_mib": r.get("peak_rss_mib"),
             "failed": r["failed"]}
            for r in records
        ],
        "problems": {op: msgs for r in broken for op, msgs in r["problems"].items()},
        "aborted": [r["aborted"] for r in records if r["aborted"]],
    }
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"details": details, "records": records}, indent=1))
    print(json.dumps(details))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
