"""Every benchmark job passes its oracle against the library.

perfbench/jobs.py builds the seeded job lists of the benchmark workloads from
the public API and the CLI.  An API change that breaks a job or its oracle
would otherwise show only in a benchmark run, so every job of every workload
runs once here at seed 1, and so do the classify probes (the qchar probes,
which run known Frenkel-Mukhin defects, are left out).  The module's source
is read and executed in a fresh module object; nothing under perfbench/ is
written.
"""

import hashlib
import os
import types

import pytest

from shiftedq import truncation
from support import checked_usable_sites

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


def _failures(jobs):
    """{job name: reason} for every job whose output fails its oracle."""
    out = {}
    for job in jobs:
        reason = job.check(job.run())
        if reason is not None:
            out[job.name] = reason
    return out


@pytest.mark.parametrize("workload", sorted(JOBS_MOD.BUILDERS))
def test_workload_jobs_pass_their_oracles(workload):
    jobs, _probes = JOBS_MOD.build(workload, 1)
    assert jobs
    assert _failures(jobs) == {}


def test_classify_probes_pass_their_oracles():
    # the two truncations that the product-count guard once refused; the
    # candidate search now finishes them well inside its step budget
    _jobs, probes = JOBS_MOD.build("classify", 1)
    assert len(probes) == 2
    assert _failures(probes) == {}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_usable_sites_match_fixpoint_on_classify_jobs(seed, monkeypatch):
    # the bounded closure of usable_lambda_sites against the bounded fixpoint
    # loop, on every truncation the classify jobs and probes build
    calls = []
    monkeypatch.setattr(truncation, "usable_lambda_sites", checked_usable_sites(calls))
    jobs, probes = JOBS_MOD.build("classify", seed)
    for job in jobs + probes:
        job.run()
    assert calls


# sha256 of each relations job's canonical bytes (exit code and stdout).  A
# relation report names the module kind, cutoff and window and counts the
# instances per family, but carries no field that the seed picks (shift,
# gamma_exp, beta_exp), so one digest per job holds at every seed.
_RELATIONS_DIGESTS = {
    "coproduct_minus": "85d80c4ffdeddbf65575a9cb0762963dac6d78ec063a9f4e8efee33f80ecb4e3",
    "coproduct_plus": "07a188188a6dab2dd07e7b41cb1e5df66be6e0e50997118b5ef2573572705828",
    "eval_sl2": "2290031c0a4b1f76a13f0b17f3c3e62584e344aadc4b24b2730d32d178bc2391",
    "psistar-A2": "13e1650788d10fb6a0763d65ef50fdbb7976b1f7de7f031354d7ae60db3edc5b",
    "psistar-B2": "13e1650788d10fb6a0763d65ef50fdbb7976b1f7de7f031354d7ae60db3edc5b",
    "psitilde-A2": "bf7dda3d70198f996453da8f69beae3edf9e896b766949b2b8e1b3b78c9b06d3",
    "psitilde-B2": "bf7dda3d70198f996453da8f69beae3edf9e896b766949b2b8e1b3b78c9b06d3",
    "readme:coproduct-plus": "07a188188a6dab2dd07e7b41cb1e5df66be6e0e50997118b5ef2573572705828",
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relations_job_bytes_pinned(seed):
    jobs, _probes = JOBS_MOD.build("relations", seed)
    got = {job.name: hashlib.sha256(job.canonical(job.run())).hexdigest()
           for job in jobs}
    assert got == _RELATIONS_DIGESTS
