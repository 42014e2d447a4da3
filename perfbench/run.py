"""The shiftedq benchmark: one workload, one seed, one closed-loop run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload relations --seed 1 --seconds 23 --trace 0

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(``setup_s``, ``wall_s``, ``peak_rss_mb``); with ``--trace 1`` it holds the
per-layer metrics, and the spans of one traced pass are written to
``perfbench/out/trace-<workload>-seed<seed>.json``.  Every job's output is
checked by its workload's oracle; see NOTES.md for the workloads, the
oracles and the jobs left out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from reference import REFERENCE_START_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE_CMD = [sys.executable, os.path.join(HERE, "reference.py")]
SETUP_RUNS = 9  # fresh interpreters timed after the workload
DEADLINE_S = 175.0

# workload names and metric units come from BENCHMARK.json alone
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def worker_cmd(args, *extra):
    return [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def worker_env():
    # dict and set order must not depend on string hashing between runs
    return dict(os.environ, PYTHONHASHSEED="0")


def until_ready(cmd):
    """Seconds from spawning ``cmd`` until it prints ``ready``."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        t = perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(cmd[1])} did not get ready")
    return t


def time_setup(args, runs):
    """(measured, scaled) times from spawning an interpreter until the
    workload is built.  Reference starts (``reference.py`` run as a script)
    alternate with the set-up starts, and each set-up time is scaled by the
    mean of the reference starts on either side of it."""
    ref = until_ready(REFERENCE_CMD)
    times = []
    for _ in range(runs):
        t = until_ready(worker_cmd(args, "--setup-only"))
        after = until_ready(REFERENCE_CMD)
        times.append((t, t * 2 * REFERENCE_START_S / (ref + after)))
        ref = after
    return times


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "shiftedq", "__init__.py")):
        sys.stderr.write("error: no shiftedq sources under src/ in this checkout\n")
        return 2

    start = perf_counter()
    cmd = worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=DEADLINE_S - (perf_counter() - start))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker exited with {proc.returncode}")
        # set-up is timed in untraced runs only, where it is reported; the
        # workload run has written the bytecode caches by now
        setup = [] if args.trace else time_setup(args, SETUP_RUNS)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: the workload did not finish in time\n")
        return 1
    except RuntimeError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    print(f"# {res['passes']} untraced pass(es); median job times:")
    for name, t in res["job_median_s"].items():
        reason = res["failures"].get(name)
        print(f"#   {name:44s} {t * 1000:9.2f} ms" + (f"  FAIL {reason}" if reason else ""))
    print(f"# job list measured before scaling to the reference speed: "
          f"{res['raw_wall_s']:.4f} s (sum of job medians)")

    correct = res["failed"] == 0 and res["traced_outputs_identical"]
    if args.trace:
        layers = res["per_layer"]
        for name, reason in res["probes"].items():
            print(f"# probe {name}: {'FAIL ' + reason if reason else 'pass'}")
        print(f"# fail_ratio {layers['fail_ratio']:.4f} (jobs and probes that failed / run)")
        print(f"# tracing overhead {layers['trace_overhead_s']:.4f} s per pass; "
              f"counters repeat across traced passes: {res['counters_repeat']}; "
              f"traced outputs identical: {res['traced_outputs_identical']}")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"env": res["env"], "per_layer": layers,
                       "spans": res["spans"]}, f)
        print(f"# spans of one traced pass written to {os.path.relpath(path, ROOT)}")
        values = layers
        listed = BENCH["per_layer"]
    else:
        print(f"# set-up measured before scaling to the reference start: "
              f"{statistics.median(t for t, _ in setup):.4f} s (median of starts)")
        values = {"setup_s": statistics.median(t for _, t in setup), "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        listed = BENCH["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
