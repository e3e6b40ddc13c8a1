"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/sweep.py [--seeds 0,1,...] [--workloads a,b] \
        [--seconds S] [--trace 0|1] [--out FILE]

Each seed runs every workload once, with the workload order rotated from one
seed to the next so that no workload always runs first.  For each metric the
summary gives the median over seeds, the quartiles by
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median.  This is the before-and-after tool: run it on both commits with the
same arguments and compare medians against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(10)))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            wall = time.monotonic() - start
            runs[w].append({"seed": seed, "wall_s": wall, "result": result})
            shown = ("no result" if result is None else
                     f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                     + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
            print(f"{w} seed={seed} wall={wall:.1f}s {shown}", flush=True)

    summary = {}
    for w, rs in runs.items():
        results = [r["result"] for r in rs if r["result"] is not None]
        summary[w] = {"runs": len(rs), "correct": all(r["correct"] for r in results)
                      and len(results) == len(rs), "max_wall_s": max(r["wall_s"] for r in rs),
                      "metrics": {}}
        for name in (results[0]["metrics"] if results else {}):
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            summary[w]["metrics"][name] = {
                "median": med, "q1": q[0], "q3": q[2],
                "spread": (q[2] - q[0]) / med if med else 0.0, "values": values,
            }
        print(f"== {w}: correct={summary[w]['correct']} max wall {summary[w]['max_wall_s']:.1f}s")
        for name, m in summary[w]["metrics"].items():
            print(f"   {name}: median {m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}] "
                  f"spread {m['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "seeds": seeds, "summary": summary, "runs": runs},
                                       indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
