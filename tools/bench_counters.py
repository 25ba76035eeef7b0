#!/usr/bin/env python3
"""Print picked counters of one ``bench/run.py`` workload.

    python3 tools/bench_counters.py fleet_churn --traced \\
        --prefix faults. --prefix routing_policy. \\
        phase.build_s phase.faults_init_s phase.reroute_s

runs the workload untraced (``--trace 0``: the end-to-end metrics; the
default), traced (``--traced``: the per-layer ones) or both (``--both``) at
``--seed 1 --seconds 14``, keeps each result line as
``counters-WORKLOAD[.traced].json`` and prints, from the two metric sets
together: one dict of every counter under each ``--prefix`` (times, call
counts and shares left out), then one dict of the named keys.  This is the
view the ``counters`` entry of ``tools/smoke.py`` prints on every PR.  Exit
status is non-zero only when a result line says ``correct: false`` or
``failed > 0`` — never on a clock.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "bench", "run.py")


def result_line(workload, trace):
    """Run the workload once, keep its result line, return it parsed."""
    output = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", "1",
         "--seconds", "14", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True).stdout
    line = output.strip().splitlines()[-1]
    suffix = ".traced" if trace else ""
    with open(f"counters-{workload}{suffix}.json", "w") as handle:
        handle.write(line + "\n")
    return json.loads(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--traced", action="store_true")
    which.add_argument("--both", action="store_true")
    parser.add_argument("--prefix", action="append", default=[])
    parser.add_argument("keys", nargs="*", metavar="KEY")
    args = parser.parse_intermixed_args(argv)

    traces = (0, 1) if args.both else (1,) if args.traced else (0,)
    results = [result_line(args.workload, trace) for trace in traces]
    metrics = {}
    for result in results:
        metrics.update(result["metrics"])
    if args.prefix:
        print(args.workload, {
            key: entry["value"] for key, entry in metrics.items()
            if key.startswith(tuple(args.prefix))
            and not key.endswith(("_s", ".calls", ".share"))})
    print(args.workload, {
        key: round(metrics[key]["value"], 4) if key in metrics else None
        for key in args.keys})
    return int(any(not result["correct"] or result["failed"] > 0
                   for result in results))


if __name__ == "__main__":
    sys.exit(main())
