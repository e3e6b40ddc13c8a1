"""Record the correctness gate's reference facts.

    python3 perfbench/record.py [--workload NAME ...]

Runs each workload once, untraced, at the reference seed, under each pinned
BLAS kernel this host can run, and writes the facts to reference.json.
Entries for kernels the host cannot run are kept as they were.  Nothing is
written when a repetition fails its invariants.  Re-record only when a change
is meant to alter outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

from gate import REFERENCE, load_reference
from run import AVX512, cpu_flags, run_child
from workloads import WORKLOADS

REFERENCE_SEED = 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    cores = ["Haswell"] + (["SkylakeX"] if AVX512 <= cpu_flags() else [])
    reference = load_reference() or {"seed": REFERENCE_SEED, "cores": {}}
    for core in cores:
        for name in args.workload or sorted(WORKLOADS):
            rec = run_child(name, REFERENCE_SEED, False, False, 600.0, core,
                            extra=("--no-reference",))
            if rec["failed"]:
                print(f"{name} on {core}: {json.dumps(rec['problems'])}", file=sys.stderr)
                return 1
            reference["cores"].setdefault(core, {})[name] = {
                op: facts for op, facts in sorted(rec["facts"].items())
            }
            print(f"{name} on {core}: {len(rec['facts'])} ops recorded")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
