"""Acceptance suite: one test per criterion, exact (zero tolerance), with a
printed pass line each.  Everything is symbolic, so expected values are
asserted bit-for-bit.
"""

import random

from shiftedq.cartan import build_cartan, invert_quantum_cartan, quantum_cartan_matrix
from shiftedq.langlands import (
    chi_L_fundamental,
    chi_L_standard,
    conjecture_report,
    truncfd_Z_for,
)
from shiftedq.lweight import (
    LWeightMonomial,
    expand_in_basis,
    factor_in_basis,
    generator,
)
from shiftedq.modrep import build_module, check_coproduct, check_relations
from shiftedq.qchar import (
    check_identity,
    check_triangularity,
    qc_closed_form,
    qc_frenkel_mukhin,
    qc_kr,
    qc_neg_prefund_limit,
    qc_simple_sl2,
)
from shiftedq.scalars import ExactScalar, ONE
from shiftedq.truncation import (
    STATUS_REFUTED,
    TruncationData,
    descent_refine,
    enumerate_candidates,
    maint_check,
    sl2_classify,
)
from support import zorder_bound_holds

A1 = build_cartan("A1")
A2 = build_cartan("A2")
B2 = build_cartan("B2")


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_sl2_truncation_counts():
    # lambda = 2w, distinct roots, mu = 0 -> exactly 2 simples
    z = TruncationData(A1, {1: [2, -2]})
    cands = sl2_classify(z, (2,), (0,))
    assert len(cands) == 2
    # equal roots -> 1
    zeq = TruncationData(A1, {1: [2, 2]})
    assert len(sl2_classify(zeq, (2,), (0,))) == 1
    # mu = -2w -> 1 with the displayed Psi = q^{-2} z1 z2 / ((1-zq^{-1}z1)(1-zq^{-1}z2))
    low = sl2_classify(z, (2,), (-2,))
    assert len(low) == 1
    assert low[0].psi.exps == {(1, 1): -1, (1, -3): -1}
    assert low[0].psi.const.qexps == (-2,)       # q^{-2} z1 z2 = q^{-2}, up to sign
    assert low[0].psi.const.zetas[0] % 4 == 0
    ok("1 (sl2 truncation counts)")


def test_criterion_2_a2_fixture():
    z = TruncationData(A2, {1: [2]})  # Z_1 = 1 - zq^3
    rep = conjecture_report(z, (1, 0), depth=2)
    assert rep["ok"]
    mus = sorted(tuple(w["mu"]) for w in rep["weights"])
    assert mus == [(-1, 1), (0, -1), (1, 0)]
    assert all(w["matched"] == 1 and len(w["monomials"]) == 1 for w in rep["weights"])
    assert sum(w["matched"] for w in rep["weights"]) == 3
    # matching is on monomial parts; both constants are the same normalization class
    for w in rep["weights"]:
        assert all(m["match_status"] == "matched" for m in w["monomials"])
    ok("2 (A2 fixture: 3 matched pairs)")


def test_criterion_3_b2_omega2():
    z = TruncationData(B2, {2: [-1]})  # Z_2 = 1 - z
    # (a) chi_q^L(V_2^L(1)): exactly 6 terms, term by term
    f2 = chi_L_fundamental(B2, 2, 0)
    want = {
        tuple(sorted({(2, 0): 1}.items())),
        tuple(sorted({(2, 2): -1, (1, 0): 1, (1, 2): 1}.items())),
        tuple(sorted({(1, 0): 1, (1, 6): -1, (2, 2): -1, (2, 4): 1}.items())),
        tuple(sorted({(1, 2): 1, (1, 4): -1}.items())),
        tuple(sorted({(1, 6): -1, (1, 4): -1, (2, 4): 1}.items())),
        tuple(sorted({(2, 6): -1}.items())),
    }
    assert set(f2) == want and all(c == 1 for c in f2.values())
    # (b) mu = 0: exactly the two displayed Psi up to sign-twist
    cands = enumerate_candidates(z, (0, 1), (0, 0))
    assert len(cands) == 2
    displayed = {
        tuple(sorted({(1, 0): 1, (1, -6): -1, (2, -4): 1, (2, -2): -1}.items())),
        tuple(sorted({(1, -2): 1, (1, -4): -1}.items())),
    }
    assert {c.psi.exps_key() for c in cands} == displayed
    # (c) the four listed single-candidate weights: exactly one candidate each
    # (matched in the report; surplus NecessaryOnly candidates are reported
    # separately, never matched and never Strong/Confirmed)
    rep = conjecture_report(z, (0, 1), depth=3)
    assert rep["ok"]
    by_mu = {tuple(w["mu"]): w for w in rep["weights"]}
    listed = {
        (0, 1): {(2, 0): 1},                                      # (1, 1-z)
        (2, -1): {(1, -2): 1, (1, 0): 1, (2, -2): -1},            # psitilde
        (-2, 1): {(1, -6): -1, (1, -4): -1, (2, -4): 1},
        (0, -1): {(2, -6): -1},
    }
    for mu, exps in listed.items():
        w = by_mu[mu]
        assert w["matched"] == 1 and len(w["monomials"]) == 1
        assert not w["discrepancies"]
        matched = [c for c in w["candidates"] if c["matched"]]
        assert len(matched) == 1
        got = {(i, r): e for i, r, e in matched[0]["psi"]["exps"]}
        assert got == exps
    ok("3 (B2 lambda=w2: 6 terms; mu=0 pair; four single-candidate weights)")


def test_criterion_4_b2_first_fundamental():
    f1 = chi_L_fundamental(B2, 1, 0)
    want = {
        tuple(sorted({(1, 0): 1}.items())),
        tuple(sorted({(1, 4): -1, (2, 2): 1}.items())),
        tuple(sorted({(2, 4): -1, (1, 2): 1}.items())),
        tuple(sorted({(1, 6): -1}.items())),
    }
    assert set(f1) == want and len(f1) == 4
    assert all(c == 1 for c in f1.values())
    ok("4 (B2 first fundamental dual character: 4 terms exact)")


def test_criterion_5_sl3_counterexample():
    z = TruncationData(A2, {1: [-1]})  # Z_1 = 1 - z
    psi = LWeightMonomial(A2, {(1, -4): -1, (1, -2): -1})
    rep = maint_check(z, (1, 0), (-2, 0), psi)
    assert rep["ok"]
    cands = enumerate_candidates(z, (1, 0), (-2, 0))
    cand = next(c for c in cands if c.psi.exps == psi.exps)
    out = descent_refine(z, cand, 2)
    assert out.status == STATUS_REFUTED
    witness = psi.combine(generator(A2, "A", 1, -2), -1).combine(
        generator(A2, "A", 2, -1), -1
    )
    got = LWeightMonomial.from_json(A2, out.notes["witness"])
    assert got.exps == witness.exps
    ok("5 (sl3 counterexample: maint passes, descent refutes with the witness)")


def test_criterion_6_relation_suites():
    N, M = 12, 6
    reports = [
        check_relations(build_module("osc_verma_plus", {"gamma_exp": 3}, N, M)),
        check_relations(build_module("osc_verma_minus", {"gamma_exp": -2}, N, M)),
        check_relations(build_module("eval_sl2", {"gamma_exp": 1, "shift": 0}, N, M)),
        check_relations(
            build_module("psitilde", {"type": "B2", "node": 1, "shift": 0}, N, M)
        ),
        check_relations(
            build_module("psistar", {"type": "B2", "node": 1, "shift": 0}, N, M)
        ),
        check_coproduct(+1, 2, -1, cutoff=8),
        check_coproduct(-1, 0, 1, cutoff=8),
    ]
    for rep in reports:
        assert rep["ok"], (rep["kind"], [f for f in rep["families"] if f["failures"]])
        if "weight_grading_ok" in rep:
            assert rep["weight_grading_ok"]
    ok(f"6 (relation suites exact at N={N}, M={M})")


def test_criterion_7_identity_suite():
    depth = 5
    assert check_identity(A1, "QQtilde", 1, 0, depth)["ok"]
    assert check_identity(B2, "QQtilde", 1, 0, depth)["ok"]
    assert check_identity(B2, "QQtilde", 2, 0, depth)["ok"]
    assert check_identity(A1, "QQstar", 1, 0, depth)["ok"]
    assert check_identity(B2, "QQstar", 1, 0, depth)["ok"]
    assert check_identity(B2, "QQstar", 2, 0, depth)["ok"]
    assert check_identity(A1, "charqf_sl2", 1, 0, depth)["ok"]
    ok("7 (QQtilde, QQstar, charqf_sl2 at depth 5)")


def test_criterion_8_property_suite():
    rng = random.Random(20260810)
    # 200 randomized factorization round trips across both bases
    types = [A1, A2, B2]
    done = 0
    while done < 200:
        cd = types[done % 3]
        basis = "A" if done % 2 else "Lambda"
        vmap = {}
        for _ in range(rng.randint(0, 4)):
            key = (rng.choice(list(cd.nodes())), rng.randint(-4, 4))
            vmap[key] = min(vmap.get(key, 0) + rng.randint(1, 3), 3)
        if sum(vmap.values()) > 8:
            continue
        m = expand_in_basis(cd, basis, vmap)
        assert factor_in_basis(m, basis) == vmap
        done += 1
    # triangularity on every produced q-character
    produced = [
        qc_kr(A1, 1, 2, 2),
        qc_frenkel_mukhin(A2, {(1, -3): 1}, 10),
        qc_frenkel_mukhin(B2, {(1, 0): 1}, 12),
        qc_frenkel_mukhin(B2, {(2, 0): 1}, 12),
        qc_closed_form(B2, "psitilde", 2, 0, 4),
        qc_closed_form(B2, "psistar", 1, 0, 2),
        qc_closed_form(A1, "neg_prefund_sl2", 1, 0, 5),
        qc_neg_prefund_limit(B2, 2, 0, 2),
        qc_simple_sl2(generator(A1, "Y", 1, 0) * generator(A1, "Y", 1, 4)),
    ]
    for x in produced:
        assert check_triangularity(x)["ok"]
    # the A = alphabar * Lambda-ratio identity on all supported types, 20 random shifts
    for cd in (A1, A2, B2, build_cartan("C3"), build_cartan("D4"), build_cartan("G2")):
        for _ in range(20):
            i = rng.choice(list(cd.nodes()))
            r = rng.randint(-10, 10)
            lhs = generator(cd, "A", i, r)
            rhs = generator(cd, "Lambda", i, r - cd.ri(i)).combine(
                generator(cd, "Lambda", i, r + cd.ri(i)), -1
            ).with_const(cd.alpha_bar(i))
            assert lhs == rhs
    # C(q) C~(q) = Id for ranks <= 4
    for t in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "C4", "D4", "G2", "F4"):
        cd = build_cartan(t)
        C = quantum_cartan_matrix(cd)
        Ct = invert_quantum_cartan(cd)
        zero = ExactScalar.from_int(0)
        for i in range(cd.n):
            for j in range(cd.n):
                s = zero
                for k in range(cd.n):
                    s = s + C[i][k] * Ct[k][j]
                assert s == (ONE if i == j else zero)
    ok("8 (200 roundtrips; triangularity; A/Lambda bridge; C(q) inverse)")


def test_criterion_9_truncfd_fixture():
    psi = generator(B2, "Ytilde", 1, 0)  # [-w1] Y_{1,1} up to its constant
    z, cert = truncfd_Z_for(psi)
    assert z.z_monomial().exps == {(1, -2): 1, (1, 8): 1, (1, 0): 1, (1, 6): 1}
    assert cert["holds"]
    nu = {(i, t): e for i, t, e in cert["nu"]}
    v = {(i, t): e for i, t, e in cert["v"]}
    for (i, t), vv in v.items():
        assert nu.get((i, t + B2.ri(i)), 0) >= vv
    ok("9 (descent-truncation construction and nu >= v certificate)")


def test_criterion_10_zorder_bound_global():
    fixtures = [
        TruncationData(B2, {2: [-1]}),
        TruncationData(B2, {1: [-2]}),
        TruncationData(B2, {1: [-2], 2: [3]}),
        TruncationData(A2, {1: [2]}),
        TruncationData(A2, {1: [-1]}),
        TruncationData(A1, {1: [2, -2]}),
        TruncationData(A1, {1: [0]}),
    ]
    total = 0
    for z in fixtures:
        for k in chi_L_standard(z):
            assert zorder_bound_holds(dict(k), z), (z.to_json(), k)
            total += 1
    assert total >= 30
    ok(f"10 (Z-order invariant on {total} dual-character monomials)")
