"""Record the values the output check compares against.

    python3 bench/record_reference.py

Runs one pass of every workload for every input variant at the benchmark
horizon and writes bench/reference.json.  Rerun it only when a change is
meant to alter the simulated trajectories, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from run import ROOT, load_modules, make_workdir, run_pass


def main() -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    mods = load_modules(src)
    work = make_workdir()
    reference = {"horizon": workloads.HORIZON}
    try:
        for workload in workloads.WORKLOADS:
            table = reference[workload] = {}
            for variant in range(workloads.VARIANTS):
                commands = workloads.plan(workload, ROOT, variant, work)
                run_pass(mods, commands, work / "out")
                table[str(variant)] = {
                    lane.name: list(workloads.lane_outcome(lane))
                    for cmd in commands for lane in cmd.lanes
                }
                print(f"{workload} variant {variant}: ok", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
