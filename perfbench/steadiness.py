"""Steadiness report for the benchmark.

    python3 perfbench/steadiness.py

Runs every workload of BENCHMARK.json once for each of the seeds 1..10,
tracing off, for BENCHMARK.json's ``run_seconds``.  For each end-to-end
metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median next to the metric's bound.  A spread is marked steady
when it is below a third of the bound; every metric, ``setup_s`` included,
must be steady for the report to say so.

The trace check then runs each workload twice with tracing on and seed 1,
and reports whether every exact counter (the per-layer metrics that are not
times, ``fail_ratio`` included) repeats exactly.  The report is also written
to perfbench/out/steadiness.json; the exit code is 0 only when it is steady.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
TRACE_SEED = 1


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    counters = [m["name"] for m in bench["per_layer"] if m["unit"] != "s"]
    report = {"seconds": seconds, "workloads": {}}
    steady = True
    for w in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        incorrect = 0
        for seed in SEEDS:
            res = run(w, seed, seconds, 0)
            incorrect += not res["correct"]
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        rows = {}
        print(f"{w}: {len(SEEDS)} runs, {incorrect} not correct")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bounds[name] / 3
            steady &= ok
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}  "
                  f"{'steady' if ok else 'NOT steady'}")
        entry = {"incorrect": incorrect, "metrics": rows}
        steady &= incorrect == 0
        a = run(w, TRACE_SEED, seconds, 1)["metrics"]
        b = run(w, TRACE_SEED, seconds, 1)["metrics"]
        differ = [n for n in counters if a[n]["value"] != b[n]["value"]]
        entry["counters_differ"] = differ
        steady &= not differ
        print(f"  exact counters over two traced runs, seed {TRACE_SEED}: "
              + (f"DIFFER {differ}" if differ else f"all {len(counters)} repeat"))
        report["workloads"][w] = entry
    report["steady"] = steady
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
