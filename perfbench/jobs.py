"""Seeded job lists and their oracles, one list per workload.

A job runs one user request.  Where the CLI has a subcommand for it, the job
goes in-process through ``shiftedq.cli.main(argv)``, so the exit code and the
canonical stdout bytes are what get checked; otherwise it calls the public
library API.  The seed only chooses inputs: a global spectral shift for roots
and heads, module parameters and random exponent maps.  Every oracle holds
for every seed; byte digests are used only for jobs that do not depend on it.

Known defects are run as probes: once per run, outside the timed loop, with
the same kind of oracle as the timed jobs.  They count in ``fail_ratio``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from shiftedq import cli, lweight, qchar
from shiftedq.cartan import build_cartan


STATUSES = {"NecessaryOnly", "StrongCandidate", "Refuted", "ConfirmedByPaper"}


class Job:
    """One request: ``run()`` returns a result, ``check(result)`` returns
    None when the oracle passes and a reason otherwise, ``canonical(result)``
    gives the bytes that traced and untraced runs must agree on."""

    def __init__(self, name, run, check, canonical):
        self.name = name
        self.run = run
        self.check = check
        self.canonical = canonical


def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue().encode()


def cli_job(name, argv, rc=0, digest=None, payload_check=None):
    """A CLI request; the oracle checks the exit code, then the sha256 of
    stdout (seed-independent jobs) or a check on the parsed JSON."""
    argv = [str(a) for a in argv]

    def check(result):
        got_rc, out = result
        if got_rc != rc:
            return f"exit code {got_rc}, expected {rc}"
        if digest is not None and hashlib.sha256(out).hexdigest() != digest:
            return "stdout digest differs from the README fixture"
        if payload_check is not None:
            return payload_check(json.loads(out))
        return None

    return Job(name, lambda: _cli_run(argv), check,
               lambda r: b"%d\n" % r[0] + r[1])


def api_job(name, run, check, dump):
    return Job(name, run, check, lambda r: dump(r).encode())


# ---------------------------------------------------------------------------
# oracle helpers
# ---------------------------------------------------------------------------

def weyl_mismatches(cd, weights):
    """Number of weights whose multiplicity differs from that of one of its
    simple reflections; weights are omega-coordinate tuples."""
    n = cd.n
    # alpha_i in omega coordinates is column i of C (C[i][j] = <alpha_i^vee, alpha_j>)
    alpha = [[cd.C[k][i] for k in range(n)] for i in range(n)]
    bad = 0
    for w, c in weights.items():
        for i in range(n):
            s = tuple(w[j] - w[i] * alpha[i][j] for j in range(n))
            if weights.get(s, 0) != c:
                bad += 1
                break
    return bad


def weight_of_const(cd, const_json):
    """omega coordinates of an l-weight constant: coordinate j is q_j**lambda_j."""
    w = []
    for j, (num, den, zeta) in enumerate(const_json):
        r = cd.r[j]
        if zeta or num % (den * r):
            raise ValueError(f"constant {const_json} is not an integral weight")
        w.append(num // (den * r))
    return tuple(w)


def weyl_check(cd, terms):
    """terms: iterable of (const JSON, multiplicity)."""
    weights = {}
    for const, c in terms:
        if c <= 0:
            return f"nonpositive multiplicity {c}"
        w = weight_of_const(cd, const)
        weights[w] = weights.get(w, 0) + c
    bad = weyl_mismatches(cd, weights)
    return f"weight character not Weyl-invariant: {bad} weight(s)" if bad else None


def fm_payload_check(cd):
    def check(p):
        if not p["complete"]:
            return "expansion reported incomplete"
        return weyl_check(cd, ((t["const"], c) for t, c in p["terms"]))
    return check


def relations_check(families):
    def check(p):
        if not p["ok"]:
            return "relation suite failed"
        if not p.get("weight_grading_ok", True):
            return "weight grading failed"
        got = {f["family"]: f["instances"] for f in p["families"]}
        if got != families:
            return f"instance counts {got}, expected {families}"
        return None
    return check


def _exps_map(triples):
    out = {}
    for i, r, e in triples:
        out[(i, r)] = out.get((i, r), 0) + e
    return {k: e for k, e in out.items() if e}


def truncate_check(cd, lam, mu, count):
    """Certificates of every candidate, re-checked from the definitions:
    Z Psi^{-1} re-expands to prod Lambda^{v}, v >= 0 with node sums a, where
    lambda - mu = sum_j a_j alpha_j^vee, and deg Psi = mu."""
    n = cd.n

    def check(p):
        a = p["a"]
        if any(x < 0 for x in a) or any(
            sum(cd.C[j][i] * a[j] for j in range(n)) != lam[i] - mu[i]
            for i in range(n)
        ):
            return f"truncation shifts a = {a} do not solve lambda - mu"
        z = {}
        for node, shifts in p["truncation"]["zroots"].items():
            i = int(node)
            for m in shifts:
                z[(i, m + cd.r[i - 1])] = z.get((i, m + cd.r[i - 1]), 0) + 1
        cands = p["candidates"]
        if count is not None and len(cands) != count:
            return f"{len(cands)} candidates, expected {count}"
        for c in cands:
            if c["status"] not in STATUSES:
                return f"unknown status {c['status']}"
            psi = _exps_map(c["psi"]["exps"])
            deg = [0] * n
            for (i, _), e in psi.items():
                deg[i - 1] += e
            if deg != list(mu):
                return f"candidate degree {deg} != mu"
            v = _exps_map(c["lambda_exps"])
            sums = [0] * n
            for (i, _), e in v.items():
                if e < 0:
                    return "negative Lambda exponent"
                sums[i - 1] += e
            if sums != list(a):
                return f"Lambda exponent sums {sums} != a"
            zpsi = dict(z)
            for k, e in psi.items():
                zpsi[k] = zpsi.get(k, 0) - e
            zpsi = {k: e for k, e in zpsi.items() if e}
            if lweight.expand_in_basis(cd, "Lambda", v).exps != zpsi:
                return "Lambda certificate does not re-expand to Z Psi^-1"
        return None

    return check


def conjecture_check(chi_terms, n_weights):
    def check(p):
        if not p["ok"] or p["zorder_violations"]:
            return "conjecture report not ok"
        if p["chi_L_terms"] != chi_terms or len(p["weights"]) != n_weights:
            return (f"{p['chi_L_terms']} dual terms over {len(p['weights'])} "
                    f"weights, expected {chi_terms} over {n_weights}")
        return None
    return check


# ---------------------------------------------------------------------------
# README fixtures (seed-independent): argv, exit code, sha256 of stdout
# ---------------------------------------------------------------------------

README = {
    "classify-sl2-mu0": (
        ["classify-sl2", "--lambda", "2", "--zroots", "1:3,-1", "--mu", "0"], 0,
        "d3926d46ec9aa9fa47a1949c244d76440171d2f35300e9af69df8d3fede690f3"),
    "classify-sl2-mu-2": (
        ["classify-sl2", "--lambda", "2", "--zroots", "1:3,-1", "--mu", "-2"], 0,
        "4df559e1ef4cb3b1436c26b7c94da5a64bad0dc088bf197ae1ef385fc03d5607"),
    "truncate-b2-fixture": (
        ["truncate", "--type", "B2", "--lambda", "0,1", "--zroots", "2:0", "--mu", "0,0"], 0,
        "780ae286815f2e37d4df4491682260339e128e62e00fbfd63f0078cd2d238973"),
    "conjecture-b2-text": (
        ["conjecture", "--type", "B2", "--zroots", "2:0", "--text"], 0,
        "cd64d9180b47b394c86ae23c8f1fc8d07948457ea3868a40034cc594641e4a4a"),
    "conjecture-a2-text": (
        ["conjecture", "--type", "A2", "--zroots", "1:3", "--text"], 0,
        "6b12e3c5149e294b5194a9adea4979ea7efa9c5d80c2462076653821cfec6917"),
    "truncate-sl3-counterexample": (
        ["truncate", "--type", "A2", "--lambda", "1,0", "--zroots", "1:0", "--mu=-2,0",
         "--text"], 0,
        "5f7e1abd88bc5d1dabc8478e551a16f5d6bba4589adefe03ca7f7e967dc18612"),
    "qchar-neg-prefund-sl2": (
        ["qchar", "--type", "A1", "--family", "neg_prefund_sl2", "--shift", "0",
         "--depth", "4"], 0,
        "e5b1a0d4ee3471e0b1d32fb3a1095e657e5151b61fab69d70afbf28e2d72d5d7"),
    "qchar-fm-b2": (
        ["qchar", "--type", "B2", "--family", "fm", "--head", "2:0", "--depth", "12"], 0,
        "9a70b9b7c7826974f1e3911ff0c80729b192d44e7d6565195f9512c1e16164ad"),
    "qchar-simple-sl2": (
        ["qchar", "--type", "A1", "--family", "simple_sl2", "--monomial",
         '{"exps":[[1,-1,1],[1,3,-1]],"const":[[2,1,0]]}'], 0,
        "35a3e59ec60c5dd09f44b6ac6caf407a74372dbe334e0f51c85ea848e0860b65"),
    "coproduct-plus": (
        ["verify-relations", "--kind", "coproduct_plus", "--gamma-exp", "2",
         "--beta-exp", "-1"], 0,
        "06135f224b671e7907fcc45fe5a5da0850b5bf3e48407d2cde9ed405bd24a18e"),
    "factor-b2-lambda": (
        ["factor", "--type", "B2", "--basis", "lambda", "--monomial",
         '{"exps":[[1,-6,1],[1,0,-1],[2,-4,-1],[2,-2,1],[2,0,1]],'
         '"const":[[0,1,0],[0,1,0]]}'], 0,
        "6f5dc5f77e6a0240197226b0134c43aca7089a69bba5dca3c742c5f59e3a0ff7"),
    "dominant-a1": (
        ["dominant", "--type", "A1", "--monomial",
         '{"exps":[[1,-1,1],[1,3,-1],[1,5,1]],"const":[[0,1,0]]}'], 0,
        "b1c7530c3e66895eb5b05a500ded8e0478a2b663b9eb7e080386e7f95c2b7bba"),
    "truncfd-b2": (
        ["truncfd", "--type", "B2", "--psi",
         '{"exps":[[1,-2,1],[1,2,-1]],"const":[[0,1,0],[0,1,0]]}'], 0,
        "fc013defc4c5f464712742f7f4b452a7296f1761398fb5afabca52c1e2c75433"),
}


def readme_jobs(*names):
    return [cli_job(f"readme:{n}", README[n][0], rc=README[n][1], digest=README[n][2])
            for n in names]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# relation family -> instances; depends on the window and cutoff only
_DRINFELD_W4 = {"deux": 36, "hdd": 128, "phix": 352, "trois": 81, "un": 24}
_DRINFELD_W3 = {"deux": 112, "hdd": 288, "phix": 864, "seq": 4, "trois": 196, "un": 96}
_COPRODUCT = {"ef": 1, "ke": 1, "kf": 1, "kkinv": 1}


def relations_jobs(rng):
    s = rng.randrange(-6, 7)
    g = rng.randrange(-3, 4)
    b = rng.randrange(-3, 4)
    vr = ["verify-relations", "--kind"]
    jobs = [
        cli_job("eval_sl2", vr + ["eval_sl2", "--cutoff", 8, "--window", 4,
                                  "--gamma-exp", g, "--shift", s],
                payload_check=relations_check(_DRINFELD_W4)),
        cli_job("psitilde-B2", vr + ["psitilde", "--type", "B2", "--node", 1,
                                     "--cutoff", 6, "--window", 3, "--shift", s],
                payload_check=relations_check(_DRINFELD_W3)),
        cli_job("psitilde-A2", vr + ["psitilde", "--type", "A2", "--node", 2,
                                     "--cutoff", 6, "--window", 3, "--shift", s],
                payload_check=relations_check(_DRINFELD_W3)),
        cli_job("psistar-B2", vr + ["psistar", "--type", "B2", "--node", 2,
                                    "--window", 3, "--shift", s],
                payload_check=relations_check(_DRINFELD_W3)),
        cli_job("psistar-A2", vr + ["psistar", "--type", "A2", "--node", 1,
                                    "--window", 3, "--shift", s],
                payload_check=relations_check(_DRINFELD_W3)),
        cli_job("coproduct_plus", vr + ["coproduct_plus", "--gamma-exp", g,
                                        "--beta-exp", b],
                payload_check=relations_check(_COPRODUCT)),
        cli_job("coproduct_minus", vr + ["coproduct_minus", "--gamma-exp", b,
                                         "--beta-exp", g],
                payload_check=relations_check(_COPRODUCT)),
    ] + readme_jobs("coproduct-plus")
    return jobs, []


# Frenkel-Mukhin heads (type, node); depth 80 closes every one of them.
_FM_HEADS = [("E6", 3), ("D6", 4), ("D6", 3), ("E7", 1), ("E6", 2), ("E7", 7),
             ("D5", 3), ("B4", 3), ("A7", 4), ("F4", 1), ("F4", 4), ("E6", 1),
             ("G2", 1), ("G2", 2), ("B3", 1), ("C3", 3), ("A3", 2), ("B2", 1)]
# Heads whose weight character is not Weyl-invariant at the seed commit.
_FM_PROBES = [("F4", 2), ("F4", 3), ("E6", 4)]
_FM_DEPTH = 80


def _fm_job(t, i, s):
    cd = build_cartan(t)
    return cli_job(f"fm-{t}-{i}", ["qchar", "--type", t, "--family", "fm",
                                   "--head", f"{i}:{s}", "--depth", _FM_DEPTH],
                   payload_check=fm_payload_check(cd))


def _neg_prefund_check(i, s, n_terms):
    def check(p):
        if p["complete"] or p["head"]["exps"] != [[i, s, -1]]:
            return "slice head or completeness flag is wrong"
        if len(p["terms"]) != n_terms or any(c <= 0 for _, c in p["terms"]):
            return f"{len(p['terms'])} terms, expected {n_terms} positive ones"
        return None
    return check


def _fusion_job(t, kr1, kr2, s):
    """qc_mul of two KR characters: complete, dimensions multiply, and the
    weight character stays Weyl-invariant."""
    cd = build_cartan(t)

    def run():
        x1 = qchar.qc_kr(cd, kr1[0], s, kr1[1])
        x2 = qchar.qc_kr(cd, kr2[0], s + 3, kr2[1])
        return x1, x2, qchar.qc_mul(x1, x2)

    def check(r):
        x1, x2, x = r
        if not x.complete:
            return "product reported incomplete"
        if x.dim() != x1.dim() * x2.dim():
            return f"dim {x.dim()} != {x1.dim()} * {x2.dim()}"
        return weyl_check(cd, ((m.const.to_json(), c) for m, c in x.terms.items()))

    return api_job(f"qc_mul-{t}-{kr1}-{kr2}", run, check,
                   lambda r: json.dumps(r[2].to_json(), sort_keys=True))


def _identity_job(t, kind, i, r, depth):
    cd = build_cartan(t)
    return api_job(f"identity-{kind}-{t}-{i}",
                   lambda: qchar.check_identity(cd, kind, i, r, depth),
                   lambda rep: None if rep["ok"] else f"{kind} identity fails",
                   lambda rep: json.dumps(rep, sort_keys=True))


def qchar_jobs(rng):
    s = rng.randrange(-8, 9)
    jobs = [_fm_job(t, i, s) for t, i in _FM_HEADS]
    jobs += [
        _fusion_job("B2", (1, 3), (2, 2), s),
        _fusion_job("A3", (2, 3), (1, 2), s),
        _identity_job("B2", "QQtilde", 2, s, 6),
        _identity_job("A3", "QQtilde", 2, s, 6),
        cli_job("neg_prefund-B2-1", ["qchar", "--type", "B2", "--family", "neg_prefund",
                                     "--node", 1, "--shift", s, "--depth", 4],
                payload_check=_neg_prefund_check(1, s, 11)),
        cli_job("neg_prefund-A3-2", ["qchar", "--type", "A3", "--family", "neg_prefund",
                                     "--node", 2, "--shift", s, "--depth", 4],
                payload_check=_neg_prefund_check(2, s, 16)),
    ]
    jobs += readme_jobs("qchar-neg-prefund-sl2", "qchar-fm-b2", "qchar-simple-sl2")
    probes = [_fm_job(t, i, s) for t, i in _FM_PROBES]
    return jobs, probes


def _truncate_job(t, lam, zroots, mu, count):
    cd = build_cartan(t)
    return cli_job(f"truncate-{t}-{zroots}-mu{','.join(map(str, mu))}",
                   ["truncate", "--type", t, "--lambda", ",".join(map(str, lam)),
                    "--zroots", zroots, "--mu=" + ",".join(map(str, mu))],
                   payload_check=truncate_check(cd, lam, mu, count))


def classify_jobs(rng):
    s = rng.randrange(-6, 7)
    jobs = [
        _truncate_job("B2", (1, 1), f"1:{s};2:{s}", (-1, 0), 13),
        _truncate_job("A2", (1, 0), f"1:{s}", (-2, 0), 1),
        cli_job("conjecture-A2", ["conjecture", "--type", "A2", "--zroots", f"1:{s};2:{s}"],
                payload_check=conjecture_check(9, 7)),
        cli_job("conjecture-B2", ["conjecture", "--type", "B2", "--zroots", f"2:{s}"],
                payload_check=conjecture_check(6, 5)),
    ] + readme_jobs("classify-sl2-mu0", "classify-sl2-mu-2", "truncate-b2-fixture",
                    "conjecture-b2-text", "conjecture-a2-text",
                    "truncate-sl3-counterexample")
    # Refused today ("N exponent maps; narrow the window"): ROADMAP item 4.
    probes = [
        _truncate_job("B2", (1, 1), f"1:{s};2:{s}", (-1, -1), None),
        _truncate_job("A2", (2, 1), f"1:{s},{s + 2};2:{s}", (-1, -2), None),
    ]
    return jobs, probes


_CERTIFY_TYPES = ("A2", "A4", "B2", "G2", "B3", "C3", "F4")
_SPAN = 6  # width of the shift window of every random exponent map


def _random_vmap(rng, cd, lo, size, positive):
    """size distinct sites in [lo, lo + _SPAN].  Both ends hold the node with
    the longest root (its generators reach furthest from their shift), so the
    monomial spans the same shifts and the factorization solves a system of
    the same size for every seed."""
    nodes = list(cd.nodes())
    wide = max(nodes, key=cd.ri)
    keys = {(wide, lo), (wide, lo + _SPAN)}
    while len(keys) < size:
        keys.add((rng.choice(nodes), lo + rng.randrange(_SPAN + 1)))
    exps = (1, 2) if positive else (-2, -1, 1, 2)
    return {k: rng.choice(exps) for k in sorted(keys)}


def _factor_job(name, cd, basis, m, expect):
    """CLI factor; expect is the exponent map, or None for a rejection."""
    argv = ["factor", "--type", cd.type_label, "--basis", basis.lower(),
            "--monomial", m.dumps()]
    if expect is None:
        return cli_job(name, argv, rc=1, payload_check=lambda p: None if p == {
            "basis": basis, "factorizable": False} else "accepted a non-factorizable input")
    want = [[i, u, e] for (i, u), e in sorted(expect.items())]
    return cli_job(name, argv, payload_check=lambda p: None if (
        p["factorizable"] and p["exponents"] == want) else "wrong factorization")


def _dominant_job(name, cd, m, expect):
    argv = ["dominant", "--type", cd.type_label, "--monomial", m.dumps()]
    return cli_job(name, argv, payload_check=lambda p: None if p == {
        "dominant": expect} else f"dominance should be {expect}")


def _leq_job(name, lo, hi, order):
    """lo <= hi by construction (hi / lo is a nonnegative product of
    basis generators), so the reverse comparison must fail."""
    return api_job(name, lambda: (lweight.leq(lo, hi, order), lweight.leq(hi, lo, order)),
                   lambda r: None if r == (True, False) else f"leq gave {r}",
                   json.dumps)


def certify_jobs(rng):
    jobs = []
    for t in _CERTIFY_TYPES:
        cd = build_cartan(t)
        for basis in ("A", "Lambda"):
            lo = rng.randrange(-20, 21)
            v = _random_vmap(rng, cd, lo, 4, positive=False)
            m = lweight.expand_in_basis(cd, basis, v)
            jobs.append(_factor_job(f"factor-{t}-{basis}", cd, basis, m, v))
            i = rng.choice(list(cd.nodes()))
            u = lo + rng.randrange(_SPAN + 1)
            if basis == "A":
                # sum_t (-1)^t exps(i, t) vanishes on every A generator, not here
                bad = lweight.generator(cd, "Psi", i, u) / lweight.generator(cd, "Psi", i, u + 1)
            else:
                # a single Psi would need the inverse quantum Cartan matrix,
                # whose entries are infinite series
                bad = lweight.generator(cd, "Psi", i, u)
            jobs.append(_factor_job(f"factor-{t}-{basis}-reject", cd, basis, m * bad, None))
    for t in ("A2", "B2"):
        cd = build_cartan(t)
        for order, basis in (("nakajima", "A"), ("zorder", "Lambda")):
            lo = rng.randrange(-20, 21)
            base = lweight.expand_in_basis(cd, "Y", _random_vmap(rng, cd, lo, 3, True))
            up = lweight.expand_in_basis(cd, basis, _random_vmap(rng, cd, lo, 3, True))
            jobs.append(_leq_job(f"leq-{t}-{order}", base, base * up, order))
    for t in ("B2", "C3"):
        cd = build_cartan(t)
        lo = rng.randrange(-20, 21)
        dom = (lweight.expand_in_basis(cd, "Ytilde", _random_vmap(rng, cd, lo, 4, True))
               * lweight.expand_in_basis(cd, "Psi", _random_vmap(rng, cd, lo, 3, True)))
        jobs.append(_dominant_job(f"dominant-{t}", cd, dom, True))
        i = rng.choice(list(cd.nodes()))
        low = min([r for (j, r) in dom.exps if j == i], default=lo) - 1
        # the lowest exponent at node i is now negative
        jobs.append(_dominant_job(f"dominant-{t}-reject", cd,
                                  dom / lweight.generator(cd, "Psi", i, low), False))
    jobs += readme_jobs("factor-b2-lambda", "dominant-a1", "truncfd-b2")
    return jobs, []


BUILDERS = {
    "relations": relations_jobs,
    "qchar": qchar_jobs,
    "classify": classify_jobs,
    "certify": certify_jobs,
}


def build(workload, seed):
    """(jobs, probes) for a workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng)
