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


# sha256 of each qchar job's canonical bytes (exit code and stdout, or the
# JSON dump of an API result) at seeds 1-3.  The seed picks the spectral
# shift of the FM heads and fusion factors, so the digests are per seed;
# the README jobs and the two identity reports, which print no shift, repeat
# across seeds.
_QCHAR_DIGESTS = {
    1: {
        "fm-A3-2": "03e5995465714ecb0bf8b975fb1bc7adba26cc598048cb096378fe48e15c8396",
        "fm-A7-4": "5650f372d300e44eff632ddd6d0852b72d24d02719dc191ed05ae5713c35dcc6",
        "fm-B2-1": "ffb752bfc0baae4d0567e46c894cc0fea5aa16fbf2d46c22b5ece7a3166b47fd",
        "fm-B3-1": "ea66040ac6c8af54fa8156cf218fabee8ede2e73a250f7f7d5be9c49b2d52828",
        "fm-B4-3": "431095759f1541d0f10286ad450873aea548c5c456b58aa461a06807cbfc5da6",
        "fm-C3-3": "6a055e501fe51ca96a2701b6a4579153b2b5f311bd651571347ce780718e39a3",
        "fm-D5-3": "b56461ea146805d98cb3470c4ea20e962cebe13e3695d43ff798ad7eea937bb4",
        "fm-D6-3": "79c5b3551e1ca14b3c08e40d04dc61560effa38ee69d25d762f45dc30a9d080b",
        "fm-D6-4": "b4903eed6a6c3341b96908166679c4f126fbd52ba41cff6b164694139ee418ec",
        "fm-E6-1": "50959b574b11ed83f93ca713c12270b0a6f3adaa97bd8733cfec0707ea3ca093",
        "fm-E6-2": "468ac334e2f97449153928d5822bd103b9c986fa38f5804fe8d4df2446dfbc30",
        "fm-E6-3": "63193a0b60880adbfca59b97acb295a51dbe950a57a3ee9d46b3c315a3119530",
        "fm-E7-1": "c470d1b658db055c2d0d7ecbbe6958ca921e2e7fadd679d32bd4ea2041dc429d",
        "fm-E7-7": "10f4b3efc30cde02ae3d68ece2cce459e257ea8f5425b12b2eb785722c70d85b",
        "fm-F4-1": "e42e54fb8e716fa2c4878613d8cd78ebf21ad11049f09155d52437d9f3dc3eba",
        "fm-F4-4": "f93a317e44f100474d90708b14ce76ce4b9657a7bc690f86ee370b1f3e66c681",
        "fm-G2-1": "250acf02d560dc20f7cdf501636cb17175625c7be8a4e578bbbfacae89cc6fc3",
        "fm-G2-2": "bec9170f6c1b073470a8ce5d9f4340b75fa96df59c75870ad21890be9edd8b4f",
        "identity-QQtilde-A3-2": "826d8b47f09cffdb61660da7d86e525d0864704f6873a8a0fef64b7525e6437d",
        "identity-QQtilde-B2-2": "826d8b47f09cffdb61660da7d86e525d0864704f6873a8a0fef64b7525e6437d",
        "neg_prefund-A3-2": "de832aff5c357497735231827cb51de4b024b57f014f579423ca4b71686669b2",
        "neg_prefund-B2-1": "2b5eec0eb6a5b7d0c7fa25cf9e16beaadb4a882c5800414daa1f1a363e2d7232",
        "qc_mul-A3-(2, 3)-(1, 2)": "bb7c782c470c88628239da16cb6ed4b2ec28110546889aba6ceaed3b33a44349",
        "qc_mul-B2-(1, 3)-(2, 2)": "27ccd636e6e11564e4a4311ff4f1a9c1dcfd29c8a9333f569244496546191b9f",
        "readme:qchar-fm-b2": "f1044faf1ef7ad95ec3a09ff4e0a2e5239ee90b6e6a072792f0493d8c972bc06",
        "readme:qchar-neg-prefund-sl2": "e8fcda4b734bb630e35b7c0b8aa5bbebbc707c97d09497943f259ce7092ea8d6",
        "readme:qchar-simple-sl2": "ea2472b02be6749147bc62c1d4340db42e668b251ddc32d56c7f7abe1de12c88",
    },
    2: {
        "fm-A3-2": "c92a7f9e167135c6fcd64990c588f48adf63aff972aae0b500bcdc249e11eab4",
        "fm-A7-4": "8f81790a73712a1403c9716c98ef4b64e3769385ecb83dadc6342fd905590231",
        "fm-B2-1": "5bc41d1dbf7b9a3ce952b5e4b57ad047493ce50a083b5e2d4afdcd2c738c89a5",
        "fm-B3-1": "e9386607ed79d9a9dfa4e9563c9297f2ed4f584487f6d5c24ecb5d353de46ce9",
        "fm-B4-3": "dc44dc56bcf36bbf08afbe2f7f7800094bf7c3c139b88ad681e0a571db2aab98",
        "fm-C3-3": "b7c69e5face204a934d8aba760fa35756f60e3c9b780d099f2bc2bdd70556366",
        "fm-D5-3": "8b5bdb1b9e590b55b52a8a60913b5da9d617d2ff5314a12d6723b87b643ed94c",
        "fm-D6-3": "db9548ef4ed48aa278e900ca4af2dad2dab98310bd9e59a411669fd444627e51",
        "fm-D6-4": "3044ea5dbed9462bd282b7d8848e73159941c9a2c9c9531ba4722846ed245031",
        "fm-E6-1": "d5b1e20450affb66ac9fa5a78988217400f0e040138291384c1eb1e9eaab54b3",
        "fm-E6-2": "b56166d1cd659a33d8017b0ba2081b987a2f3e6fcd9bba026e79504747d42b3c",
        "fm-E6-3": "954ff7fe9a90b5d92aa95d99f25cb105d18da591b959391feaecd3299bbcf85e",
        "fm-E7-1": "5d511476efd154edaf55385dcf66311b3e6acdeac7333a4d44de9bf5855c44c7",
        "fm-E7-7": "19a0ea35ae7c525b545de4ca3a0e4f31c49e0d1ddd823aec3d6c53dd38cec8bd",
        "fm-F4-1": "092e2223f20fe69fd6756dae4c7834941f7f0142b660e6258c9a76b9ab30fde2",
        "fm-F4-4": "f5a7820839bcd1a64be84fe8cc03a980cbeae67acb565b723b53b207c8779066",
        "fm-G2-1": "0b283d02c264a1d85e0cdf07368123d63d765c9528c1ee22b04b00148db47448",
        "fm-G2-2": "d3d495cd27f6ce191c30c3a35bf0efbd13ad5182370441d5b2f60f69d802061d",
        "identity-QQtilde-A3-2": "826d8b47f09cffdb61660da7d86e525d0864704f6873a8a0fef64b7525e6437d",
        "identity-QQtilde-B2-2": "826d8b47f09cffdb61660da7d86e525d0864704f6873a8a0fef64b7525e6437d",
        "neg_prefund-A3-2": "51df0b568866ee29bd3343597c08d3595baa90ba164489b0239162bd97f7f009",
        "neg_prefund-B2-1": "d335e8d34fd0041aa8d962b9a5fb893395e0d096223a82b6253f95cf41157f84",
        "qc_mul-A3-(2, 3)-(1, 2)": "5aac135fd0b10c237d49ef308386c88ae4e10e746d64dbd5fbdccf2d2623a723",
        "qc_mul-B2-(1, 3)-(2, 2)": "deadc9a57ba3852db2bd173d35768ee1830d39a75da2a3f8dd1dc25e62d000da",
        "readme:qchar-fm-b2": "f1044faf1ef7ad95ec3a09ff4e0a2e5239ee90b6e6a072792f0493d8c972bc06",
        "readme:qchar-neg-prefund-sl2": "e8fcda4b734bb630e35b7c0b8aa5bbebbc707c97d09497943f259ce7092ea8d6",
        "readme:qchar-simple-sl2": "ea2472b02be6749147bc62c1d4340db42e668b251ddc32d56c7f7abe1de12c88",
    },
    3: {
        "fm-A3-2": "2b24977a6da89827101c26a401ba0de0642e2a9e085509c419e927010744aceb",
        "fm-A7-4": "b3d39f585ea3ca11405ff31fe7219f41b2b76e48730738c3fb6cfe99aeff5481",
        "fm-B2-1": "1a17d4b6b8ac513c52a0416112d76c2c83ed086f50d2bec488ba3115ec1e4824",
        "fm-B3-1": "8b1992fb0e2481e3523ef55ad136bad8f8037d52bf92818144b9dce6912480bd",
        "fm-B4-3": "d8d20dcbfcc51c8a56c0a6b43057aead838830f150bc714883167d6ba26f8f92",
        "fm-C3-3": "33ca6a4ebea3f35d0f194e1bc1766ae4e85a76239810d96db92bcf9a05d95128",
        "fm-D5-3": "01c70563b452d02a4cc5f7e897f65b8cce3cda2acc1e7d191121d7334e11df53",
        "fm-D6-3": "3206035019516b00b50ee4799f7cf80f4f339ee1fae3b9c0fb8fa2709bc2575b",
        "fm-D6-4": "cd3ae21d678f37d3e0ae2b690bb805395d0bc67031bcc4bc25727267c1ac824d",
        "fm-E6-1": "d60b90aa52a681abd99f73551cff4557747d61a6383a7f34100cf5fa2a33145f",
        "fm-E6-2": "2f1049611481eff4c2defab914a5182a5ff6ff1247ea71a51c53d2dff99a6c1b",
        "fm-E6-3": "9494c2d69edb1e4b10da2c3fd69010311beedbae27081a7c7b4c8a90432bb07a",
        "fm-E7-1": "4ca7e02d16209656d6d8df62497927efd4c2374871db00aa9359603d733ad683",
        "fm-E7-7": "a780e2a9658c793ae8cd45768fc0a1160b88b57dc1d0115d095c7e1793db5155",
        "fm-F4-1": "07084fdb4373d28be4cda0b55b636335597517083a13ca3857b6643ad60bb944",
        "fm-F4-4": "1f97d78545ff51b48b8ba9c2a7d5d41b27ae4d8e3b65bf6fec496ec727060130",
        "fm-G2-1": "a5401b76bb24cc2794dbb8065df8080f7d9d78c2e6768ca7a37d7e34abba625f",
        "fm-G2-2": "e8abf3d273d95e3aea01491f276f6238fde021106677d5efe00565367050b347",
        "identity-QQtilde-A3-2": "826d8b47f09cffdb61660da7d86e525d0864704f6873a8a0fef64b7525e6437d",
        "identity-QQtilde-B2-2": "826d8b47f09cffdb61660da7d86e525d0864704f6873a8a0fef64b7525e6437d",
        "neg_prefund-A3-2": "9a6f733df732d6fc09a2e5b9f02964e48ecf6eaacb600b4424bb8518ea821324",
        "neg_prefund-B2-1": "e2d1d28151add88d2dbdf0f723565bedc015e51028302a4b80ef9570119f2c68",
        "qc_mul-A3-(2, 3)-(1, 2)": "ebd860b07bdedf856cee74adbfbc870f6ec3bc98bbe085a64b16f35026fcbc80",
        "qc_mul-B2-(1, 3)-(2, 2)": "d79986052eab16d90e0f41258d97177cc7905514936cb3d01db8f51a016f9b75",
        "readme:qchar-fm-b2": "f1044faf1ef7ad95ec3a09ff4e0a2e5239ee90b6e6a072792f0493d8c972bc06",
        "readme:qchar-neg-prefund-sl2": "e8fcda4b734bb630e35b7c0b8aa5bbebbc707c97d09497943f259ce7092ea8d6",
        "readme:qchar-simple-sl2": "ea2472b02be6749147bc62c1d4340db42e668b251ddc32d56c7f7abe1de12c88",
    },
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_qchar_job_bytes_pinned(seed):
    jobs, _probes = JOBS_MOD.build("qchar", seed)
    got = {job.name: hashlib.sha256(job.canonical(job.run())).hexdigest()
           for job in jobs}
    assert got == _QCHAR_DIGESTS[seed]
