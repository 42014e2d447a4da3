"""Runs one workload in one process: set-up, the timed loop and, in a traced
run, the probes.

Started by run.py; prints one JSON object on its last stdout line.  With
``--setup-only`` it prints ``ready`` as soon as the workload is built and
exits, which is how run.py times set-up in fresh interpreters.

The loop is closed: one client, jobs in sequence, the next job starts when
the previous one has returned.  It repeats the workload's job list until
``--seconds`` have passed (always at least one pass).  With ``--trace 1`` it
alternates an untraced pass with a traced pass, so the per-layer numbers and
the tracing overhead come from the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
import shiftedq  # noqa: E402
from reference import REFERENCE_S, time_reference  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_job(job, tracer=None):
    """(result or None, seconds, failure reason or None).  The oracle runs
    after the clock stops and with tracing suspended."""
    t0 = perf_counter()
    try:
        result = job.run()
        err = None
    except Exception as e:  # a job that raises is a failed job, not a crash
        result, err = None, f"raised {type(e).__name__}: {e}"
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    try:
        if err is None:
            err = job.check(result)
    except Exception as e:
        err = f"oracle raised {type(e).__name__}: {e}"
    finally:
        if tracer is not None:
            tracer.active = True
    return result, dt, err


class Loop:
    """Outcomes of every job execution of the timed loop."""

    def __init__(self, job_list):
        self.jobs = job_list
        self.walls = []
        self.times = {job.name: [] for job in job_list}
        self.failures = {}
        self.attempted = 0
        self.failed = 0
        self.canonical = {}  # job name -> bytes of the first untraced pass
        self.scaled = {job.name: [] for job in job_list}  # times at REFERENCE_S speed

    def run_pass(self, tracer=None):
        wall = 0.0
        outputs = {}
        ref = time_reference() if tracer is None else None
        for job in self.jobs:
            result, dt, err = run_job(job, tracer)
            wall += dt
            self.attempted += 1
            if err is None:
                outputs[job.name] = job.canonical(result)
            else:
                self.failed += 1
                self.failures.setdefault(job.name, err)
            if tracer is None:
                # scaled by the machine speed around the job: the reference
                # times just before and just after it
                after = time_reference()
                self.times[job.name].append(dt)
                self.scaled[job.name].append(dt * 2 * REFERENCE_S / (ref + after))
                ref = after
        if tracer is None:
            self.walls.append(wall)
            for name, out in outputs.items():
                self.canonical.setdefault(name, out)
        return wall, outputs


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=list(jobs.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    job_list, probes = jobs.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    loop = Loop(job_list)
    traced_walls = []
    layer_runs = []
    spans = []
    mismatched = []
    start = perf_counter()
    while True:
        loop.run_pass()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                wall, outputs = loop.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_runs.append(tracer.metrics())
            if not spans:
                spans = tracer.spans
            mismatched += [n for n, out in outputs.items()
                           if loop.canonical.get(n) not in (None, out)]
        if perf_counter() - start >= args.seconds:
            break

    # the workload's own peak, before any probe runs
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "env": {
            "backend": shiftedq.BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "workload": args.workload,
        },
        "passes": len(loop.walls),
        "raw_wall_s": sum(statistics.median(t) for t in loop.times.values()),
        "wall_s": sum(statistics.median(t) for t in loop.scaled.values()),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "job_median_s": {n: statistics.median(t) for n, t in loop.times.items()},
        "peak_rss_mb": peak_rss_kb / 1024,
        "traced_outputs_identical": not mismatched,
        "mismatched": sorted(set(mismatched)),
    }
    if args.trace:
        # the probes only feed fail_ratio, a per-layer metric, so they run
        # in traced runs alone
        out["probes"] = {job.name: run_job(job)[2] for job in probes}
        n_failed = len(loop.failures) + sum(
            err is not None for err in out["probes"].values())
        out["per_layer"] = per_layer(layer_runs)
        out["per_layer"]["fail_ratio"] = n_failed / (len(job_list) + len(probes))
        out["per_layer"]["trace_overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(loop.walls))
        out["counters_repeat"] = all(
            {k: v for k, v in r.items() if not k.endswith("_s")}
            == {k: v for k, v in layer_runs[0].items() if not k.endswith("_s")}
            for r in layer_runs)
        out["spans"] = spans
    print(json.dumps(out, sort_keys=True))
    return 0


def per_layer(runs):
    """Counters from the first traced pass (they repeat exactly); self times
    as the median over the traced passes."""
    out = dict(runs[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(r[key] for r in runs)
    return out


if __name__ == "__main__":
    sys.exit(main())
