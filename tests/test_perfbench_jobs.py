"""Every benchmark job passes its oracle against the library.

perfbench/jobs.py builds the seeded job lists of the benchmark workloads from
the public API and the CLI.  An API change that breaks a job or its oracle
would otherwise show only in a benchmark run, so every job of every workload
runs once here at seed 1 (the probes, which run known defects, are left
out).  The module's source is read and executed in a fresh module object;
nothing under perfbench/ is written.
"""

import os
import types

import pytest

JOBS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "jobs.py",
)


def _load_jobs():
    mod = types.ModuleType("perfbench_jobs")
    with open(JOBS) as f:
        exec(compile(f.read(), JOBS, "exec"), mod.__dict__)
    return mod


JOBS_MOD = _load_jobs()


@pytest.mark.parametrize("workload", sorted(JOBS_MOD.BUILDERS))
def test_workload_jobs_pass_their_oracles(workload):
    jobs, _probes = JOBS_MOD.build(workload, 1)
    assert jobs
    failures = {}
    for job in jobs:
        reason = job.check(job.run())
        if reason is not None:
            failures[job.name] = reason
    assert failures == {}
