import hashlib
import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftedq import cli, truncation
from shiftedq.cartan import build_cartan
from shiftedq.kernel import exps_combine
from shiftedq.lweight import LWeightMonomial, expand_in_basis, generator, node_sums
from shiftedq.qchar import qc_monomial, qc_mul, qc_neg_prefund_limit, qc_one
from shiftedq.scalars import ConstantFactor
from shiftedq.truncation import (
    STATUS_CONFIRMED,
    STATUS_NECESSARY,
    STATUS_REFUTED,
    STATUS_STRONG,
    Candidate,
    TruncationData,
    TruncationError,
    abar_eigenvalue,
    descent_refine,
    enumerate_candidates,
    fuse_truncations,
    maint_check,
    sl2_classify,
    truncation_shifts,
    usable_lambda_sites,
)
from support import (
    abar_series_oracle,
    checked_usable_sites,
    usable_lambda_sites_reference,
)

A1 = build_cartan("A1")
A2 = build_cartan("A2")
B2 = build_cartan("B2")
G2 = build_cartan("G2")

# worked truncations: Z entries are root shifts m with Z_i = prod(1 - q_i z q^m)
Z_SL2 = TruncationData(A1, {1: [2, -2]})          # Z = (1-zq^3)(1-zq^-1)
Z_SL2_EQ = TruncationData(A1, {1: [2, 2]})
Z_B2 = TruncationData(B2, {2: [-1]})              # lambda = w2, Z_2 = 1-z
Z_SL3 = TruncationData(A2, {1: [-1]})             # lambda = w1, Z_1 = 1-z


@pytest.fixture(autouse=True)
def usable_sites_oracle(monkeypatch):
    """Every call of usable_lambda_sites made by a test in this file, from
    the library or directly, is checked against the bounded fixpoint loop."""
    checked = checked_usable_sites([])
    monkeypatch.setattr(truncation, "usable_lambda_sites", checked)
    monkeypatch.setitem(globals(), "usable_lambda_sites", checked)


def test_truncation_data_invariants():
    assert Z_B2.lam == (0, 1)
    assert Z_B2.z_monomial().exps == {(2, 0): 1}
    assert Z_SL2.z_monomial().exps == {(1, 3): 1, (1, -1): 1}
    back = TruncationData.from_json(Z_SL2.to_json())
    assert back.zroots == Z_SL2.zroots
    # a root at a node outside the diagram, a node given twice, or a shift
    # that is not an int
    for bad in ({"1": [0], "7": [3]}, {"1": [0], "01": [3]}, {"1": [0.5]},
                {"1": [True]}, {"1": ["3"]}):
        with pytest.raises(ValueError):
            TruncationData.from_json({"type": "A1", "zroots": bad})


def test_truncation_shifts():
    assert truncation_shifts(Z_SL2, (2,)) == (0,)
    assert truncation_shifts(Z_SL2, (0,)) == (1,)
    assert truncation_shifts(Z_SL2, (-2,)) == (2,)
    assert truncation_shifts(Z_B2, (0, 0)) == (1, 1)
    assert truncation_shifts(Z_SL3, (-2, 0)) == (2, 1)
    with pytest.raises(TruncationError):
        truncation_shifts(Z_SL2, (4,))       # negative shift
    with pytest.raises(TruncationError):
        truncation_shifts(Z_B2, (1, 0))      # not in the coroot span


def test_truncation_shift_errors_print_rationals():
    with pytest.raises(TruncationError) as e:
        truncation_shifts(Z_SL3, (3, 0))
    assert str(e.value).endswith("a = [-4/3, -2/3]")
    with pytest.raises(TruncationError) as e:
        truncation_shifts(TruncationData(A1, {1: [0]}), (3,))
    assert str(e.value) == "negative truncation shift a = [-1]"


def test_phi_z_b2():
    # phi_{2,Z} = q^{-1} for lambda = w2, mu = 0 (N=1, sum C a = 1, z = q^{-1})
    phi = Z_B2.phi_z((0, 0))
    assert phi.qexps == (0, -1)
    assert phi.zetas == (0, 0)


# --- abar eigenvalue ---------------------------------------------------------

def test_abar_trivial():
    ev = abar_eigenvalue(Z_SL2, Z_SL2.z_monomial(), 1)
    assert ev == {"roots": [], "const_qexp": 0, "sign": "+-"}


def test_abar_b2_fixture():
    # mu=0 candidate Psi_1: Ybar_2(zq^{-1}) = +-(q - zq^{-1}), Ybar_1 = +-(q^3 - zq^{-3})
    psi1 = LWeightMonomial(
        B2, {(1, 0): 1, (1, -6): -1, (2, -4): 1, (2, -2): -1}
    )
    ev2 = abar_eigenvalue(Z_B2, psi1, 2)
    assert ev2["roots"] == [-2] and ev2["const_qexp"] == 1
    ev1 = abar_eigenvalue(Z_B2, psi1, 1)
    assert ev1["roots"] == [-6] and ev1["const_qexp"] == 3
    assert abar_eigenvalue(Z_B2, generator(B2, "Psi", 1, 0), 1) is None


def test_abar_negative_lambda_exponent_is_none():
    # Z Psi^{-1} = Lambda_{1,4}^{-1} factors, but not with exponents >= 0
    z = TruncationData(A1, {1: [0]})
    psi = z.z_monomial() * generator(A1, "Lambda", 1, 4)
    assert abar_eigenvalue(z, psi, 1) is None
    rep = abar_series_oracle(z, psi, 1)
    assert not rep["ok"] and rep["reason"]


def test_abar_series_oracle():
    psi1 = LWeightMonomial(
        B2, {(1, 0): 1, (1, -6): -1, (2, -4): 1, (2, -2): -1}
    )
    for i in (1, 2):
        assert abar_series_oracle(Z_B2, psi1, i, order=8)["ok"]
    cands = sl2_classify(Z_SL2, (2,), (0,))
    for c in cands:
        assert abar_series_oracle(Z_SL2, c.psi, 1, order=8)["ok"]


def test_abar_degree_equals_a():
    # degree of the Ybar polynomial equals a_i whenever maint passes
    for mu in [(0,), (-2,)]:
        a = truncation_shifts(Z_SL2, mu)
        for c in sl2_classify(Z_SL2, (2,), mu):
            ev = abar_eigenvalue(Z_SL2, c.psi, 1)
            assert len(ev["roots"]) == a[0]


# --- maint_check --------------------------------------------------------------

def test_maint_b2_both_candidates():
    psi1 = LWeightMonomial(B2, {(1, 0): 1, (1, -6): -1, (2, -4): 1, (2, -2): -1})
    psi2 = LWeightMonomial(B2, {(1, -2): 1, (1, -4): -1})
    for p in (psi1, psi2):
        rep = maint_check(Z_B2, (0, 1), (0, 0), p)
        assert rep["ok"], rep


def test_maint_sl3_counterexample_passes():
    # printed Psi = (q^{-4}/((1-zq^{-4})(1-zq^{-2})), 1); maint must pass
    psi = LWeightMonomial(
        A2, {(1, -4): -1, (1, -2): -1},
        ConstantFactor([-4, 0], [0, 0]),
    )
    rep = maint_check(Z_SL3, (1, 0), (-2, 0), psi)
    assert rep["ok"], rep
    assert rep["clauses"]["a_lambda_factorization"]
    assert rep["clauses"]["pole_divisibility"]
    # Lambda certificate: Lambda_{1,q^{-1}} Lambda_{1,q^{-3}} Lambda_{2,q^{-2}}
    assert rep["lambda_exps"] == [[1, -3, 1], [1, -1, 1], [2, -2, 1]]
    # reference constants use a different overall normalization
    assert not rep["constants_normalized"]


def test_maint_pole_off_allowed_set_fails():
    # same monomial degrees, pole moved off the divisible set
    psi = LWeightMonomial(A2, {(1, -4): -1, (1, 7): -1})
    rep = maint_check(Z_SL3, (1, 0), (-2, 0), psi)
    assert not rep["ok"]


def test_maint_wrong_degree_fails():
    psi = LWeightMonomial(A2, {(1, -4): -1})
    rep = maint_check(Z_SL3, (1, 0), (-2, 0), psi)
    assert not rep["ok"] and not rep["clauses"]["degree"]


# --- enumeration ----------------------------------------------------------------

def test_enumerate_lambda_equals_mu():
    cands = enumerate_candidates(Z_SL2, (2,), (2,))
    assert len(cands) == 1
    assert cands[0].psi.exps == Z_SL2.z_monomial().exps
    # constants are the +-1 class of the semisimple quotient
    assert cands[0].psi.const.pow(2).is_one()


def test_enumerate_sl2_counts():
    assert len(enumerate_candidates(Z_SL2, (2,), (0,))) == 2
    assert len(enumerate_candidates(Z_SL2_EQ, (2,), (0,))) == 1
    assert len(enumerate_candidates(Z_SL2, (2,), (-2,))) == 1


def test_enumerate_includes_sl3_counterexample():
    cands = enumerate_candidates(Z_SL3, (1, 0), (-2, 0))
    target = {(1, -4): -1, (1, -2): -1}
    hits = [c for c in cands if c.psi.exps == target]
    assert len(hits) == 1
    assert hits[0].status == STATUS_NECESSARY


def test_enumerate_deterministic_and_canonical():
    a = enumerate_candidates(Z_B2, (0, 1), (0, 0))
    b = enumerate_candidates(Z_B2, (0, 1), (0, 0))
    assert [c.psi.to_json() for c in a] == [c.psi.to_json() for c in b]
    keys = [c.psi.exps_key() for c in a]
    assert keys == sorted(keys)


def test_sl2_classify_contained_in_enumerate():
    for mu in [(2,), (0,), (-2,)]:
        cls = {c.psi.exps_key() for c in sl2_classify(Z_SL2, (2,), mu)}
        enu = {c.psi.exps_key() for c in enumerate_candidates(Z_SL2, (2,), mu)}
        assert cls <= enu
        assert cls == enu  # maint is sufficient in rank 1
    # oracle: one candidate per distinct a-subset of the zeros m - 1 of
    # Z(z q^{-2}), each Lambda site u = s + 1 a zero s, in exps_key order
    rng = random.Random(5)
    for _ in range(200):
        roots = [rng.randint(-6, 6) for _ in range(rng.randint(0, 5))]
        z = TruncationData(A1, {1: roots})
        for mu in [(m,) for m in range(z.lam[0], -z.lam[0] - 3, -1)]:
            try:
                (a,) = truncation_shifts(z, mu)
            except TruncationError as e:
                with pytest.raises(TruncationError) as got:
                    sl2_classify(z, z.lam, mu)
                assert str(got.value) == str(e)
                continue
            want = {}
            for pick in set(combinations(sorted(m - 1 for m in roots), a)):
                v = {}
                for s in pick:
                    v[(1, s + 1)] = v.get((1, s + 1), 0) + 1
                psi = z.z_monomial()
                for (i, u), e in v.items():
                    psi = psi.combine(generator(A1, "Lambda", i, u).pow(e), -1)
                psi = psi.monomial_part()
                assert psi.coweight() == mu
                rep = maint_check(z, z.lam, mu, psi, cert=v)
                assert rep["ok"], rep
                psi = psi.with_const(ConstantFactor.from_json(rep["const_class"]))
                assert psi.exps_key() not in want  # distinct subsets, distinct Psi
                want[psi.exps_key()] = (psi.to_json(), v, list(pick))
            got = sl2_classify(z, z.lam, mu)
            assert [(c.psi.to_json(), c.lambda_exps, c.notes["divisor_shifts"])
                    for c in got] == [want[k] for k in sorted(want)]
            assert all(c.status == STATUS_CONFIRMED for c in got)


# --- sl2 classification ----------------------------------------------------------

def test_sl2_classify_worked_examples():
    # lambda = 2w, mu = -2w: one module with Psi = q^{-2} z1 z2 / (...)
    cands = sl2_classify(Z_SL2, (2,), (-2,))
    assert len(cands) == 1
    c = cands[0]
    assert c.psi.exps == {(1, 1): -1, (1, -3): -1}
    # Psi(0) = +- q^{-2} z1 z2 = +- q^{-2}
    assert c.psi.const.qexps == (-2,)
    assert c.status == STATUS_CONFIRMED
    # equal roots, mu = 0: one 1-dimensional module with l-weight q^{-1} z1
    cands = sl2_classify(Z_SL2_EQ, (2,), (0,))
    assert len(cands) == 1
    assert cands[0].psi.exps == {(1, 3): 1, (1, 1): -1}
    # lambda = w, mu = -w: Psi = q^{-1} z1 / (1 - z q^{-1} z1)
    z1 = TruncationData(A1, {1: [0]})
    cands = sl2_classify(z1, (1,), (-1,))
    assert len(cands) == 1
    assert cands[0].psi.exps == {(1, -1): -1}
    assert cands[0].psi.const.qexps == (-1,)


def test_sl2_classify_rejects_higher_rank():
    with pytest.raises(TruncationError):
        sl2_classify(Z_B2, (0, 1), (0, 0))


# --- descent refinement ------------------------------------------------------------

def test_descent_refutes_sl3_counterexample():
    cands = enumerate_candidates(Z_SL3, (1, 0), (-2, 0))
    target = {(1, -4): -1, (1, -2): -1}
    cand = next(c for c in cands if c.psi.exps == target)
    out = descent_refine(Z_SL3, cand, 2)
    assert out.status == STATUS_REFUTED
    # witness is Psi' = Psi A_{1,q^{-2}}^{-1} A_{2,q^{-1}}^{-1}
    psi = LWeightMonomial(A2, target)
    witness = psi.combine(generator(A2, "A", 1, -2), -1).combine(
        generator(A2, "A", 2, -1), -1
    )
    got = LWeightMonomial.from_json(A2, out.notes["witness"])
    assert got.exps == witness.exps


def test_descent_sl2():
    # dominant rank-1 candidates get the full slice check (StrongCandidate);
    # anti-dominant ones are confirmed by rank-1 sufficiency
    statuses = {
        descent_refine(Z_SL2, c, 4).status
        for c in enumerate_candidates(Z_SL2, (2,), (0,))
    }
    assert statuses <= {STATUS_STRONG, STATUS_CONFIRMED}
    assert STATUS_STRONG in statuses


def test_descent_lambda_equals_mu_confirmed():
    (c,) = enumerate_candidates(Z_SL2, (2,), (2,))
    assert descent_refine(Z_SL2, c, 2).status == STATUS_CONFIRMED


def test_descent_fundamental_psitilde_confirmed():
    # lambda = w2, mu = lambda - alpha_2: the unique psitilde candidate
    (c,) = enumerate_candidates(Z_B2, (0, 1), (2, -1))
    out = descent_refine(Z_B2, c, 3)
    assert out.status == STATUS_CONFIRMED
    assert c.psi.exps == generator(B2, "PsiTilde", 2, -2).exps


def test_descent_b2_lowest_weight():
    cands = [descent_refine(Z_B2, c, 3)
             for c in enumerate_candidates(Z_B2, (0, 1), (0, -1))]
    strong = [c for c in cands if c.status == STATUS_STRONG]
    assert len(strong) == 1
    assert strong[0].psi.exps == {(2, -6): -1}


# --- fusion --------------------------------------------------------------------

def test_fuse_truncations():
    empty = TruncationData(A1, {})
    assert fuse_truncations(Z_SL2, empty).zroots == Z_SL2.zroots
    a = TruncationData(A1, {1: [1]})
    b = TruncationData(A1, {1: [5]})
    ab = fuse_truncations(a, b)
    assert ab.zroots[1] == (1, 5) and ab.lam == (2,)
    # commutative & associative on the data
    assert fuse_truncations(a, b).zroots == fuse_truncations(b, a).zroots
    c = TruncationData(A1, {1: [1]})
    assert (
        fuse_truncations(fuse_truncations(a, b), c).zroots
        == fuse_truncations(a, fuse_truncations(b, c)).zroots
    )


def test_fuse_b2_fundamental_reduction():
    # the B2 lambda = w2 truncation is its own single fundamental factor,
    # and fusing two copies doubles the data
    two = fuse_truncations(Z_B2, Z_B2)
    assert two.lam == (0, 2) and two.zroots[2] == (-1, -1)



# G2, lambda = w2_vee, --zroots "2:0" (Z_2 = 1 - z), mu = (0, -1): a = (6, 4)
Z_G2 = TruncationData(G2, {2: [-1]})


def test_usable_lambda_sites_g2_fixture():
    # chains of at most sum(a) - 1 = 9 steps down from the root at (2, -1);
    # the closure cut only by the window reaches 33 and 34 sites
    assert truncation_shifts(Z_G2, (0, -1)) == (6, 4)
    usable = usable_lambda_sites(Z_G2, (6, 4))
    assert usable == {1: list(range(-30, -1, 2)), 2: list(range(-25, 0, 2))}
    assert {i: len(u) for i, u in usable.items()} == {1: 15, 2: 13}
    windowed = usable_lambda_sites_reference(Z_G2, (6, 4))
    assert {i: len(u) for i, u in windowed.items()} == {1: 33, 2: 34}


def test_enumeration_step_budget_refuses(monkeypatch):
    # C(15 + 5, 6) * C(13 + 3, 4) exponent maps; the search stops at its
    # step budget, and the CLI reports that as a rejection (exit 1)
    monkeypatch.setattr(truncation, "MAX_STEPS", 1_000)
    with pytest.raises(TruncationError, match="passed 1000 steps at node"):
        enumerate_candidates(Z_G2, (0, 1), (0, -1))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["truncate", "--type", "G2", "--lambda", "0,1",
                         "--zroots", "2:0", "--mu=0,-1"])
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: candidate search passed 1000 steps")
    assert err.getvalue().endswith("; stopped by the step budget\n")


def test_step_budget_fires_inside_one_node(monkeypatch):
    # the truncfd Z of B2 Y_{2,0} has a = (6, 6) over 32 and 30 sites; the
    # search descends into node 2 with its first node-1 multiset and counts
    # every step of node 2's site walk, so it stops there at once instead of
    # first listing all of node 2's multisets
    from shiftedq.langlands import truncfd_Z_for

    monkeypatch.setattr(truncation, "MAX_STEPS", 1_000)
    psi = generator(B2, "Y", 2, 0)
    z, _ = truncfd_Z_for(psi)
    start = time.perf_counter()
    with pytest.raises(TruncationError, match="passed 1000 steps at node 2;"):
        enumerate_candidates(z, z.lam, psi.coweight())
    assert time.perf_counter() - start < 1.0


# --- pruned search against the Cartesian product -------------------------------

def _product_enumeration(z, lam, mu):
    """Oracle: the Cartesian-product enumeration that the pruned search
    replaced.  Every combination of per-node a_i-multisets is built, and
    clause (b) is tested only afterwards."""
    cd = z.cd
    a = truncation_shifts(z, mu)
    zmono = z.z_monomial()
    if not any(a):
        cls = truncation.required_const_class(z, mu, zmono.exps, a)
        return [Candidate(zmono.with_const(cls), {}, mu, STATUS_NECESSARY, z)]
    usable = usable_lambda_sites(z, a)
    pat = {
        (i, u): generator(cd, "Lambda", i, u).exps
        for i in cd.nodes()
        for u in usable[i]
    }
    per_node = []
    for i in cd.nodes():
        opts = []
        for ms in combinations_with_replacement(usable[i], a[i - 1]):
            acc = {}
            vloc = {}
            for u in ms:
                acc = exps_combine(acc, pat[(i, u)], 1)
                vloc[(i, u)] = vloc.get((i, u), 0) + 1
            opts.append((vloc, acc))
        per_node.append(opts)
    zexps = zmono.exps
    ri_of = {i: cd.ri(i) for i in cd.nodes()}
    seen = {}
    for combo in product(*per_node):
        lam_exps = combo[0][1]
        for _, acc in combo[1:]:
            lam_exps = exps_combine(lam_exps, acc, 1)
        psi_exps = exps_combine(zexps, lam_exps, -1)
        ok = True
        for (j, t), e in psi_exps.items():
            if e < 0:
                cover = 0
                for (vloc, _) in combo:
                    cover += vloc.get((j, t + ri_of[j]), 0)
                if cover < -e:
                    ok = False
                    break
        if not ok:
            continue
        psi = LWeightMonomial(cd, psi_exps)
        if psi.coweight() != tuple(mu):
            continue
        v = {}
        for vloc, _ in combo:
            v.update(vloc)
        rep = maint_check(z, lam, mu, psi, cert=v)
        if not rep["ok"]:
            continue
        cls = ConstantFactor.from_json(rep["const_class"])
        cand = Candidate(psi.with_const(cls), v, mu, STATUS_NECESSARY, z,
                         notes={"maint": "pass"})
        seen.setdefault(cand.psi.exps_key(), cand)
    return sorted(seen.values(), key=lambda c: c.psi.exps_key())


def _space(z, mu):
    """The size of a case: the number of exponent maps over the windowed
    closure's sites, the product over nodes of the a_i-multisets."""
    a = truncation_shifts(z, mu)
    if not any(a):
        return 1
    usable = usable_lambda_sites_reference(z, a)
    out = 1
    for i in z.cd.nodes():
        if a[i - 1]:
            out *= comb(len(usable[i]) + a[i - 1] - 1, a[i - 1])
    return out


def _weights_below(z, max_space, max_height=4):
    """mu = lambda - sum_j a_j alpha_j^vee for a >= 0 with sum(a) <= max_height
    and an enumeration space of at most max_space maps."""
    cd = z.cd
    out = []
    for a in product(range(max_height + 1), repeat=cd.n):
        if sum(a) > max_height:
            continue
        mu = tuple(z.lam[i] - sum(cd.C[j][i] * a[j] for j in range(cd.n))
                   for i in range(cd.n))
        if _space(z, mu) <= max_space:
            out.append(mu)
    return out


# One and two Z-roots per type; every weight whose space is at most ~10^5.
ORACLE_TRUNCATIONS = [
    ("A1", {1: [0]}), ("A1", {1: [0, 2]}),
    ("A2", {1: [0]}), ("A2", {1: [0], 2: [0]}),
    ("B2", {2: [-1]}), ("B2", {1: [-2], 2: [-1]}),
    ("G2", {1: [-3]}), ("G2", {2: [-1], 1: [-3]}),
    ("C3", {3: [-2]}), ("C3", {1: [-1], 3: [-2]}),
    ("A3", {2: [0]}), ("A3", {1: [-1], 3: [1]}),
]


@pytest.mark.parametrize("label,zroots", ORACLE_TRUNCATIONS,
                         ids=[t + "-" + ";".join(f"{i}:{','.join(map(str, m))}"
                                                 for i, m in sorted(z.items()))
                              for t, z in ORACLE_TRUNCATIONS])
def test_enumerate_matches_product_oracle(label, zroots):
    z = TruncationData(build_cartan(label), zroots)
    weights = _weights_below(z, 100_000)
    assert len(weights) > 1
    found = 0
    for mu in weights:
        got = enumerate_candidates(z, z.lam, mu)
        want = _product_enumeration(z, z.lam, mu)
        # order, constants, statuses and Lambda certificates included
        assert [c.to_json() for c in got] == [c.to_json() for c in want], mu
        assert [list(c.lambda_exps.items()) for c in got] == \
            [list(c.lambda_exps.items()) for c in want]
        assert [list(c.psi.exps.items()) for c in got] == \
            [list(c.psi.exps.items()) for c in want]
        found += len(got)
    assert found


def test_enumerate_matches_product_oracle_e6_branch():
    # Lambda_{2,-1} leaves a shortage at (2, 0) that only node 4's site 0 can
    # cover, and that site has room at (4, 1) only through the gift of node
    # 3's site 1: a bound on what the later nodes can give that misses a
    # gift of an earlier node loses this candidate.  The size is that of the
    # windowed closure's sites.
    z = TruncationData(build_cartan("E6"), {2: [0], 3: [1]})
    mu = (1, 0, 0, 0, 1, 0)
    assert _space(z, mu) == 15_625
    got = enumerate_candidates(z, z.lam, mu)
    want = _product_enumeration(z, z.lam, mu)
    assert len(got) == 4
    assert [c.to_json() for c in got] == [c.to_json() for c in want]


# --- the chain-length bound against the windowed closure -----------------------

def _listed(cands):
    """Candidates as compared by the product oracle: JSON, then the Lambda
    certificate and the Psi exponents in their insertion order."""
    return [(c.to_json(), list(c.lambda_exps.items()), list(c.psi.exps.items()))
            for c in cands]


def _bound_matches_window(z, mu, monkeypatch):
    """Enumerate with the bounded sites and with the windowed closure's, and
    assert identical candidates in identical order; (number of candidates,
    whether the bound dropped a site)."""
    a = truncation_shifts(z, mu)
    bounded = usable_lambda_sites(z, a)
    windowed = usable_lambda_sites_reference(z, a)
    assert all(set(bounded[i]) <= set(windowed[i]) for i in z.cd.nodes())
    got = _listed(enumerate_candidates(z, z.lam, mu))
    monkeypatch.setattr(truncation, "usable_lambda_sites", usable_lambda_sites_reference)
    want = _listed(enumerate_candidates(z, z.lam, mu))
    monkeypatch.setattr(truncation, "usable_lambda_sites", usable_lambda_sites)
    assert got == want, (z, mu)
    return len(got), bounded != windowed


@pytest.mark.parametrize("label,zroots", ORACLE_TRUNCATIONS,
                         ids=[t + "-" + ";".join(f"{i}:{','.join(map(str, m))}"
                                                 for i, m in sorted(z.items()))
                              for t, z in ORACLE_TRUNCATIONS])
def test_bounded_sites_match_window_on_oracle_cases(label, zroots, monkeypatch):
    z = TruncationData(build_cartan(label), zroots)
    found = [_bound_matches_window(z, mu, monkeypatch) for mu in _weights_below(z, 100_000)]
    assert sum(n for n, _ in found)
    # A1 has no chain steps, so the bound cuts sites only above rank 1
    assert any(cut for _, cut in found) == (z.cd.n > 1)


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "G2", "A3", "B3", "D4"])
def test_bounded_sites_match_window_random(label, monkeypatch):
    # up to two Z-roots per node, and a weight one to four simple coroots
    # below lambda
    cd = build_cartan(label)
    rng = random.Random(f"chain-bound:{label}")
    found = cuts = 0
    for _ in range(40):
        z = TruncationData(cd, {})
        while not sum(z.lam):
            z = TruncationData(cd, {i: [rng.randrange(-3, 4) for _ in range(rng.randrange(3))]
                                    for i in cd.nodes()})
        a = [0] * cd.n
        for _ in range(rng.randrange(1, 5)):
            a[rng.randrange(cd.n)] += 1
        mu = tuple(z.lam[i] - sum(cd.C[j][i] * a[j] for j in range(cd.n))
                   for i in range(cd.n))
        n, cut = _bound_matches_window(z, mu, monkeypatch)
        found += n
        cuts += cut
    assert found and cuts


# --- oracles that hold at any size ---------------------------------------------

def _candidate_data(cands):
    """(Psi exponents, constant, Lambda certificate, status) per candidate."""
    return [(c.psi.exps_key(), c.psi.const.qexps, c.psi.const.zetas,
             tuple(sorted(c.lambda_exps.items())), c.status) for c in cands]


def _refined(z, mu, depth=2):
    return [descent_refine(z, c, depth) for c in enumerate_candidates(z, z.lam, mu)]


def _spectral_shift_cases():
    """B2 "1:0;2:0" at mu = (-1, 0), and every weight of the A2 "1:0;2:0"
    conjecture report; all are above the product oracle's size."""
    from shiftedq.langlands import chi_L_standard

    cases = [(TruncationData(B2, {1: [-2], 2: [-1]}), (-1, 0))]
    z = TruncationData(A2, {1: [-1], 2: [-1]})
    for mu in sorted({node_sums(A2, dict(k)) for k in chi_L_standard(z)}):
        try:
            truncation_shifts(z, mu)
        except TruncationError:
            continue
        cases.append((z, mu))
    return cases


def test_spectral_shift_invariance():
    # z -> z q^s moves every Psi and Lambda shift by s; the constant c with
    # c_i^2 prod_t (-q^t)^{e_{i,t}} = phi_{i,Z} gains q^{s (lambda_i - mu_i) / 2}
    cases = _spectral_shift_cases()
    assert len(cases) > 2
    assert max(_space(z, mu) for z, mu in cases) > 100_000
    for z, mu in cases:
        base = _candidate_data(_refined(z, mu))
        assert base, mu
        for s in (-5, 0, 3):
            zs = TruncationData(z.cd, {i: [m + s for m in ms]
                                       for i, ms in z.zroots.items()})
            want = [
                (tuple(((i, t + s), e) for (i, t), e in exps),
                 tuple(q + Fraction(s * (lam - m), 2)
                       for q, lam, m in zip(qexps, z.lam, mu)),
                 zetas,
                 tuple(((i, u + s), e) for (i, u), e in lam_exps),
                 status)
                for exps, qexps, zetas, lam_exps, status in base
            ]
            assert _candidate_data(_refined(zs, mu)) == want, (z, mu, s)


def _permuted_data(sigma, cands):
    """_candidate_data under the diagram automorphism i -> sigma[i], sorted."""
    order = sorted(sigma, key=sigma.get)  # the node that lands at each place
    return sorted(
        (tuple(sorted(((sigma[i], t), e) for (i, t), e in exps)),
         tuple(qexps[i - 1] for i in order), tuple(zetas[i - 1] for i in order),
         tuple(sorted(((sigma[i], u), e) for (i, u), e in lam_exps)),
         status)
        for exps, qexps, zetas, lam_exps, status in _candidate_data(cands))


def _flipped_data(n, cands):
    """_candidate_data under the A_n flip i -> n + 1 - i, sorted."""
    return _permuted_data({i: n + 1 - i for i in range(1, n + 1)}, cands)


# the A2 and A3 oracle truncations at every weight the guard admits, and A3
# "1:0;3:2" at mu = (-1, -1, 1)
_FLIP_CASES = [(label, zroots, None) for label, zroots in ORACLE_TRUNCATIONS
               if label in ("A2", "A3")] + [("A3", {1: [-1], 3: [1]}, (-1, -1, 1))]


@pytest.mark.parametrize("label,zroots,mu", _FLIP_CASES,
                         ids=[t + "-" + ";".join(f"{i}:{','.join(map(str, m))}"
                                                 for i, m in sorted(z.items()))
                              + "-mu" + (",".join(map(str, mu)) if mu else "*")
                              for t, z, mu in _FLIP_CASES])
def test_diagram_flip_invariance(label, zroots, mu):
    # the flip maps the candidates of (Z, mu) onto those of the flipped Z at
    # the flipped mu (A_n is simply laced, so the Z-roots keep their shifts)
    cd = build_cartan(label)
    z = TruncationData(cd, zroots)
    zf = TruncationData(cd, {cd.n + 1 - i: ms for i, ms in z.zroots.items()})
    weights = [mu] if mu else _weights_below(z, 20_000_000)
    found = 0
    for w in weights:
        got = _refined(z, w)
        flipped = _refined(zf, w[::-1])
        assert _flipped_data(cd.n, got) == sorted(_candidate_data(flipped)), w
        found += len(got)
    assert found


def test_d4_triality():
    # the truncfd truncations of Y_{1,0}, Y_{3,0} and Y_{4,0} are images of
    # each other under the swaps 1 <-> 3 and 1 <-> 4 of the D4 legs, and so
    # are their candidates at mu_Psi; each space is above 2 * 10^7 maps
    from shiftedq.langlands import truncfd_Z_for

    D4 = build_cartan("D4")
    data = {}
    for i in (1, 3, 4):
        psi = generator(D4, "Y", i, 0)
        z, _ = truncfd_Z_for(psi)
        mu = psi.coweight()
        assert _space(z, mu) > 20_000_000
        got = _refined(z, mu)
        assert len(got) == 24
        assert psi.exps_key() in [c.psi.exps_key() for c in got]
        data[i] = got
    for leg in (3, 4):
        swap = {1: leg, 2: 2, leg: 1, 7 - leg: 7 - leg}
        assert _permuted_data(swap, data[1]) == sorted(_candidate_data(data[leg]))


_ROUND_TRIP_CASES = [(f"A{n}", i) for n in range(1, 5) for i in range(1, n + 1)] + [
    ("B2", 1), ("D4", 1), ("D4", 2), ("D4", 3), ("D4", 4)]


@pytest.mark.parametrize("label,node", _ROUND_TRIP_CASES,
                         ids=[f"{t}-{i}" for t, i in _ROUND_TRIP_CASES])
def test_fundamental_in_its_truncfd_candidates(label, node):
    # truncfd_Z_for builds the truncation Z through which the simple
    # finite-dimensional module L(Y_{i,0}) should factor, so Y_{i,0} must be
    # a candidate of Z at its own coweight; exponents only (the constants
    # differ away from A1)
    from shiftedq.langlands import truncfd_Z_for

    psi = generator(build_cartan(label), "Y", node, 0)
    z, _ = truncfd_Z_for(psi)
    got = enumerate_candidates(z, z.lam, psi.coweight())
    assert psi.exps_key() in [c.psi.exps_key() for c in got]


# stdout sha256 of the classify probes, recorded before the live-supply bound
# with the product-count guard that refused them lifted
_LIFTED_TRUNCATIONS = [
    (["--type", "B2", "--lambda", "1,1", "--zroots", "1:0;2:0", "--mu=-1,-1"],
     "702a11b1618eb72a121fada804942570bfbb9817cfc5f5659d1b8a2b76158081"),
    (["--type", "A2", "--lambda", "2,1", "--zroots", "1:0,2;2:0", "--mu=-1,-2"],
     "52b740f221fa276e02872561d53d32aa924318bec5eb099bd2b6f7763cd3617f"),
]


@pytest.mark.parametrize("argv,digest", _LIFTED_TRUNCATIONS,
                         ids=[argv[1] for argv, _ in _LIFTED_TRUNCATIONS])
def test_truncate_above_guard_pinned(argv, digest):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["truncate", *argv])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_site_search_work_bound(monkeypatch):
    # B2 "1:0;2:0" at mu = (-1, 0): over the 5 sites per node within 4 chain
    # steps of a root, rules 1 and 2 leave 44 whole multisets, 31 at node 1,
    # whose states _extend builds, and 13 at node 2, each a candidate
    calls = [0]
    rejected = [0]
    extend = truncation._extend

    def counted(*args):
        calls[0] += 1
        nxt = extend(*args)
        rejected[0] += nxt is None
        return nxt

    monkeypatch.setattr(truncation, "_extend", counted)
    z = TruncationData(B2, {1: [-2], 2: [-1]})
    assert len(enumerate_candidates(z, z.lam, (-1, 0))) == 13
    assert 0 < calls[0] <= 5_000
    assert rejected[0] == 0


def test_live_supply_work_bound(monkeypatch):
    # the same search takes 153 site-walk steps over the bounded sites and
    # 6,677 over the windowed closure's, more than the 2,000 allowed here
    monkeypatch.setattr(truncation, "MAX_STEPS", 2_000)
    z = TruncationData(B2, {1: [-2], 2: [-1]})
    assert len(enumerate_candidates(z, z.lam, (-1, 0))) == 13


def test_step_count_pinned(monkeypatch):
    # the same search takes exactly 153 steps, one per entry into a site
    # walk, so the budget refuses at the same step, node and message on
    # every run
    z = TruncationData(B2, {1: [-2], 2: [-1]})
    monkeypatch.setattr(truncation, "MAX_STEPS", 153)
    assert len(enumerate_candidates(z, z.lam, (-1, 0))) == 13
    monkeypatch.setattr(truncation, "MAX_STEPS", 152)
    with pytest.raises(TruncationError,
                       match="^candidate search passed 152 steps at node 2; "
                             "stopped by the step budget$"):
        enumerate_candidates(z, z.lam, (-1, 0))


def _pole_cover(cd, psi_exps, v):
    """Clause (b) as stated: every pole e < 0 of psi at (j, t) has
    v(j, t + r_j) >= -e."""
    return all(v.get((j, t + cd.ri(j)), 0) >= -e
               for (j, t), e in psi_exps.items() if e < 0)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3"])
def test_need_gift_form_of_clause_b_random(label):
    cd = build_cartan(label)
    rng = random.Random(f"clause-b:{label}")
    seen = set()
    for _ in range(400):
        zroots = {i: [rng.randrange(-4, 5) for _ in range(rng.randrange(3))]
                  for i in cd.nodes()}
        zexps = TruncationData(cd, zroots).z_monomial().exps
        ms = {i: sorted(rng.randrange(-6, 7) for _ in range(rng.randrange(4)))
              for i in cd.nodes()}
        v = {}
        for i in cd.nodes():
            for u in ms[i]:
                v[(i, u)] = v.get((i, u), 0) + 1
        psi = LWeightMonomial(cd, zexps).combine(expand_in_basis(cd, "Lambda", v), -1)
        gifts = {}
        needs = []
        for i in cd.nodes():
            sites = truncation._site_keys(cd, i, set(ms[i]))
            need, gift = truncation._need_gift(ms[i], sites, zexps)
            needs.extend(need)
            for key in gift:
                assert key[0] != i
                gifts[key] = gifts.get(key, 0) + 1
        covered = all(n <= gifts.get(key, 0) for key, n in needs)
        assert covered == _pole_cover(cd, psi.exps, v), (zroots, ms)
        seen.add(covered)
    assert seen == {True, False}


# --- fusion: the necessary conditions multiply ---------------------------------

def _draw_candidate(data, cd):
    """A truncation over cd with at most two roots per node, a weight at most
    two simple coroots per node below its lambda, and one of its candidates."""
    z = TruncationData(cd, {i: data.draw(st.lists(st.integers(-3, 3), max_size=2))
                            for i in cd.nodes()})
    a = data.draw(st.lists(st.integers(0, 2), min_size=cd.n, max_size=cd.n))
    mu = tuple(z.lam[i] - sum(cd.C[j][i] * a[j] for j in range(cd.n))
               for i in range(cd.n))
    cands = enumerate_candidates(z, z.lam, mu)
    assume(cands)
    return z, mu, data.draw(st.sampled_from(cands)).psi


@settings(max_examples=75, deadline=None)
@given(st.data())
def test_fused_candidates_pass_maint(data):
    # the Lambda certificates and the a's add, and so does the cover of each
    # pole, so Psi1 Psi2 passes the necessary conditions of the fused
    # truncation at mu1 + mu2; where the fused search is small, the product
    # is one of its candidates
    cd = build_cartan(data.draw(st.sampled_from(["A2", "B2", "C2", "G2", "A3"])))
    z1, mu1, psi1 = _draw_candidate(data, cd)
    z2, mu2, psi2 = _draw_candidate(data, cd)
    for z, mu, psi in ((z1, mu1, psi1), (z2, mu2, psi2)):
        assert maint_check(z, z.lam, mu, psi)["ok"]
    z = fuse_truncations(z1, z2)
    mu = tuple(m1 + m2 for m1, m2 in zip(mu1, mu2))
    psi = psi1 * psi2
    assert maint_check(z, z.lam, mu, psi)["ok"]
    if sum(truncation_shifts(z, mu)) <= 4:
        assert psi.exps_key() in [c.psi.exps_key() for c in enumerate_candidates(z, z.lam, mu)]


# --- pinned outputs ------------------------------------------------------------

def test_truncate_descent_witness_pinned():
    # the refuting witness is the first failing term of the negative
    # prefundamental slices, taken in sorted-path order; digest of the stdout
    # printed when those slices were rebuilt from their A-paths
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["truncate", "--type", "A2", "--lambda", "1,0",
                         "--zroots", "1:-6", "--mu=-2,0"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "3d59fb560c8bc62b3f33f30795cab928a57a7a49279642ec04a6536d9194f021")


def test_character_slice_one_limit_per_negative_site(monkeypatch):
    # an exponent of -2 multiplies one negative prefundamental slice in
    # twice; the slice is computed once per site, and the product is the
    # one built from a fresh slice per unit
    psi = generator(B2, "Psi", 1, 0).pow(-2) * generator(B2, "Psi", 2, 3).pow(-1)
    cand = Candidate(psi, {}, (0, 0), STATUS_NECESSARY, None)
    want = qc_one(B2)
    for (i, t), e in sorted(psi.exps.items()):
        for _ in range(-e):
            want = qc_mul(want, qc_neg_prefund_limit(B2, i, t, 3))
    want = qc_mul(want, qc_monomial(
        LWeightMonomial(B2, {}, psi.combine(want.head, -1).const)))
    calls = []
    limit = truncation.qc_neg_prefund_limit

    def counted(cd, i, t, depth):
        calls.append((i, t))
        return limit(cd, i, t, depth)

    monkeypatch.setattr(truncation, "qc_neg_prefund_limit", counted)
    x = truncation._character_slice(cand, 3)
    assert calls == [(1, 0), (2, 3)]
    assert x.to_json() == want.to_json() and x.paths == want.paths
    assert list(x.terms.items()) == list(want.terms.items())
