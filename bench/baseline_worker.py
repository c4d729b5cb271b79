"""Passes of one workload on the frozen baseline program, one per request.

    python3 bench/baseline_worker.py <workload> <seed> <workdir>

``bench/baseline/src/baradapt`` is a copy of the program as it stood when
the benchmark was defined; it never changes.  run.py starts this worker and
alternates its passes with the passes of the program under test, so both
see the same host states.  The worker sets up and runs one warm-up pass,
then prints ``ready``; after that it reads one request a line from stdin,
``setup`` or ``pass``, and answers each with one JSON line on stdout.  A
pass whose output breaks a property every correct run has (see
workloads.lane_outcome) ends the worker with an error.  The recorded values
in reference.json are not compared: they follow the program under test.
It exits at the end of its input.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import run
import workloads

BASELINE = Path(__file__).resolve().parent / "baseline"


def main(argv) -> int:
    workload, seed, work = argv[0], int(argv[1]), Path(argv[2])
    src = BASELINE / "src"
    sys.path.insert(0, str(src))
    reply = sys.stdout
    # the CLI's own output and the check's messages stay off the reply channel
    with contextlib.redirect_stdout(sys.stderr):
        commands = workloads.plan(workload, BASELINE, seed, work)
        _, mods = run.set_up(src, commands)
        warm = workloads.plan(workload, BASELINE, seed, work / "warmup", run.WARMUP_HORIZON)
        run.run_pass(mods, warm, work / "warmup" / "out")
    print("ready", file=reply, flush=True)
    for request in sys.stdin:
        with contextlib.redirect_stdout(sys.stderr):
            if request.strip() == "setup":
                took, mods = run.set_up(src, commands)
                answer = {"setup_s": took}
            else:
                wall, run_s = run.run_pass(mods, commands, work / "out")
                lanes = [lane for cmd in commands for lane in cmd.lanes]
                for lane in lanes:
                    workloads.lane_outcome(lane)  # raises ValueError
                answer = {"wall_s": wall, "run_s": run_s,
                          "steps": sum(lane.n_steps for lane in lanes)}
        print(json.dumps(answer), file=reply, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
