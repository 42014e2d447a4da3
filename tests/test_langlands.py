import hashlib
import io
from contextlib import redirect_stdout
from time import perf_counter

import pytest

from shiftedq import cli
from shiftedq.cartan import build_cartan
from shiftedq.lweight import (
    LWeightMonomial,
    expand_in_basis,
    generator,
    leq_certificate,
    node_sums,
    y_monomial,
)
from shiftedq.langlands import (
    LanglandsError,
    chi_L_fundamental,
    chi_L_standard,
    conjecture_report,
    psi_of_monomial,
    specialize_interpolating_b2,
    truncfd_Z_for,
)
from shiftedq.qchar import fm_expand, qc_frenkel_mukhin, qc_kr, qc_mul
from shiftedq.truncation import TruncationData
from support import zorder_bound_holds

A1 = build_cartan("A1")
A2 = build_cartan("A2")
B2 = build_cartan("B2")
Z_B2 = TruncationData(B2, {2: [-1]})
Z_B2_1 = TruncationData(B2, {1: [-2]})   # lambda = w1, Z_1 = 1 - z
Z_A2 = TruncationData(A2, {1: [2]})      # Z_1 = 1 - z q^3


def zk(d):
    return tuple(sorted(d.items()))


B2_NODE2_TERMS = [
    {(2, 0): 1},
    {(2, 2): -1, (1, 0): 1, (1, 2): 1},
    {(1, 0): 1, (1, 6): -1, (2, 2): -1, (2, 4): 1},
    {(1, 2): 1, (1, 4): -1},
    {(1, 6): -1, (1, 4): -1, (2, 4): 1},
    {(2, 6): -1},
]

B2_NODE1_TERMS = [
    {(1, 0): 1},
    {(1, 4): -1, (2, 2): 1},
    {(2, 4): -1, (1, 2): 1},
    {(1, 6): -1},
]


def test_specialization_procedure():
    # alpha-terms dropped, t = 1, Z-rewrite: exactly the displayed 6 terms
    got = specialize_interpolating_b2()
    assert len(got) == 6
    assert {zk(t) for t in got} == {zk(t) for t in B2_NODE2_TERMS}


def test_b2_fundamental_term_counts():
    f2 = chi_L_fundamental(B2, 2, 0)
    f1 = chi_L_fundamental(B2, 1, 0)
    assert len(f2) == 6
    assert len(f1) == 4
    assert set(f2) == {zk(t) for t in B2_NODE2_TERMS}
    assert set(f1) == {zk(t) for t in B2_NODE1_TERMS}


def test_b2_fundamental_shifted():
    f = chi_L_fundamental(B2, 2, 3)
    want = {zk({(i, m + 3): e for (i, m), e in t.items()}) for t in B2_NODE2_TERMS}
    assert set(f) == want


def test_a2_fundamental_three_monomials():
    f = chi_L_fundamental(A2, 1, -3)
    want = {
        zk({(1, -3): 1}),
        zk({(2, -2): 1, (1, -1): -1}),
        zk({(2, 0): -1}),
    }
    assert set(f) == want


def test_unsupported_type_rejected():
    g2 = build_cartan("G2")
    with pytest.raises(LanglandsError, match="out of scope"):
        chi_L_fundamental(g2, 1, 0)


@pytest.mark.parametrize("label,i", [("A2", 5), ("A2", 0), ("D4", 5), ("B2", 3)])
def test_fundamental_node_out_of_range(label, i):
    # simply-laced types go through fm_expand, B2 through its tables; both
    # refuse a node outside the diagram instead of returning a lone head
    with pytest.raises(LanglandsError, match=f"node {i} out of range"):
        chi_L_fundamental(build_cartan(label), i, 0)


def test_chi_L_standard_fixtures():
    assert chi_L_standard(TruncationData(B2, {})) == {(): 1}
    chi = chi_L_standard(Z_A2)
    assert len(chi) == 3
    assert next(iter(chi)) == zk({(1, -3): 1})  # the head M_0 comes first
    # sl2 with two roots: 2 x 2 = 4 terms before cancellation bookkeeping
    z = TruncationData(A1, {1: [0, 4]})
    chi2 = chi_L_standard(z)
    assert sum(chi2.values()) == 4


def test_simply_laced_standard_is_fm_product():
    z = TruncationData(A2, {1: [2], 2: [0]})
    chi = chi_L_standard(z)
    f1, _ = fm_expand(A2, {(1, -3): 1}, 12)
    f2, _ = fm_expand(A2, {(2, -1): 1}, 12)
    prod = qc_mul(qc_frenkel_mukhin(A2, {(1, -3): 1}, 12),
                  qc_frenkel_mukhin(A2, {(2, -1): 1}, 12))
    # under Z = Y the standard dual character is the FM product character:
    # convolve the Y-exponent data of the two factors
    want = {}
    for k1, (c1, _p1, _w1) in f1.items():
        for k2, (c2, _p2, _w2) in f2.items():
            y = dict(k1)
            for k, e in k2:
                y[k] = y.get(k, 0) + e
                if not y[k]:
                    del y[k]
            k = zk(y)
            want[k] = want.get(k, 0) + c1 * c2
    assert chi == want
    assert sum(chi.values()) == prod.dim()


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "D4"])
def test_fundamental_is_fm_y_exponent_map(label):
    # the simply-laced dual character is FM's own map over Y-exponent keys;
    # turning those keys into l-weights gives the QCharacter terms
    cd = build_cartan(label)
    depth = 6 * cd.n * cd.dual_coxeter
    for i in cd.nodes():
        state, complete = fm_expand(cd, {(i, 2): 1}, depth)
        assert complete
        assert chi_L_fundamental(cd, i, 2) == {k: rec[0] for k, rec in state.items()}
        x = qc_frenkel_mukhin(cd, {(i, 2): 1}, depth)
        assert {y_monomial(cd, k): rec[0] for k, rec in state.items()} == x.terms


def test_psi_of_monomial_fixtures():
    head = {(2, 0): 1}  # M_0 of Z_2 = 1 - z
    assert chi_L_standard(Z_B2)[zk(head)] == 1
    psi0 = psi_of_monomial(head, Z_B2)
    assert psi0.exps == Z_B2.z_monomial().exps  # Psi_{M_0} = Z up to constant
    p = psi_of_monomial({(1, 2): 1, (1, 4): -1}, Z_B2)
    assert p.exps == {(1, -2): 1, (1, -4): -1}
    # constant class: (Psi_1(0))^2 = q^{-2}
    assert p.const.qexps[0] * 2 == -2
    p0 = psi_of_monomial({}, TruncationData(B2, {}))
    assert p0.exps == {} and p0.coweight() == (0, 0)
    with pytest.raises(LanglandsError):
        psi_of_monomial({(1, 2): 1}, Z_B2, mu=(0, 0))


def test_a2_printed_constants_match():
    # reference classification: (1-zq^3, 1), (q/(1-zq), v^{-1}(1-zq^2)), (q, v^{-1}/(1-z))
    from fractions import Fraction

    by_mu = {}
    for k in sorted(chi_L_standard(Z_A2)):
        by_mu.setdefault(node_sums(A2, dict(k)), []).append(dict(k))
    p1 = psi_of_monomial(by_mu[(1, 0)][0], Z_A2)
    assert p1.exps == {(1, 3): 1} and p1.const.pow(2).is_one()
    p2 = psi_of_monomial(by_mu[(-1, 1)][0], Z_A2)
    assert p2.exps == {(1, 1): -1, (2, 2): 1}
    assert p2.const.qexps == (Fraction(1), Fraction(-1, 2))
    p3 = psi_of_monomial(by_mu[(0, -1)][0], Z_A2)
    assert p3.exps == {(2, 0): -1}
    assert p3.const.qexps == (Fraction(1), Fraction(-1, 2))


def test_zorder_bound_invariant_all_fixtures():
    for z in (Z_B2, Z_B2_1, Z_A2, TruncationData(A1, {1: [2, -2]})):
        for k in chi_L_standard(z):
            assert zorder_bound_holds(dict(k), z), k


def test_conjecture_report_sl2():
    rep = conjecture_report(TruncationData(A1, {1: [2, -2]}), (2,))
    assert rep["ok"]
    for w in rep["weights"]:
        assert w["matched"] == len(w["monomials"])
        assert w["matched"] == len(w["candidates"])  # A = B exactly


def test_conjecture_report_a2():
    rep = conjecture_report(Z_A2, (1, 0), depth=2)
    assert rep["ok"]
    assert sum(w["matched"] for w in rep["weights"]) == 3
    mus = sorted(tuple(w["mu"]) for w in rep["weights"])
    assert mus == [(-1, 1), (0, -1), (1, 0)]


def test_conjecture_report_b2():
    rep = conjecture_report(Z_B2, (0, 1), depth=3)
    assert rep["ok"]
    assert rep["chi_L_terms"] == 6
    assert not rep["zorder_violations"]
    by_mu = {tuple(w["mu"]): w for w in rep["weights"]}
    assert by_mu[(0, 0)]["matched"] == 2
    for mu in [(0, 1), (2, -1), (-2, 1), (0, -1)]:
        assert by_mu[mu]["matched"] == 1
        assert not by_mu[mu]["discrepancies"]


@pytest.mark.parametrize("label,zroots", [
    ("A1", {1: [0, 4]}), ("A2", {1: [0], 2: [1]}), ("A3", {1: [0], 3: [2]}),
    ("B2", {2: [0]}), ("B2", {1: [0]}),
])
def test_matched_constants_identical(label, zroots):
    # a monomial is matched on its monomial part alone: both constants are
    # required_const_class of the same (z, mu, exponents), so every candidate
    # sharing a monomial's exponents carries the monomial's own constant, and
    # matching modulo sign-twist and on exact constants cannot differ
    z = TruncationData(build_cartan(label), zroots)
    rep = conjecture_report(z, z.lam, depth=3)
    pairs = 0
    for w in rep["weights"]:
        for mrec in w["monomials"]:
            same = [c["psi"] for c in w["candidates"]
                    if c["psi"]["exps"] == mrec["psi"]["exps"]]
            assert (mrec["match_status"] == "matched") == bool(same)
            for psi in same:
                assert psi["const"] == mrec["psi"]["const"]
                pairs += 1
    assert pairs >= sum(w["matched"] for w in rep["weights"]) > 0


# --- descent truncation construction --------------------------------------------

def test_truncfd_b2_fixture():
    psi = generator(B2, "Ytilde", 1, 0)  # monomial part of [-w1] Y_{1,1}
    z, cert = truncfd_Z_for(psi)
    # Z = Psi_{1,q^{-2}} Psi_{1,q^8} Psi_{1,1} Psi_{1,q^6}
    assert z.z_monomial().exps == {(1, -2): 1, (1, 8): 1, (1, 0): 1, (1, 6): 1}
    assert cert["holds"]
    assert cert["nu"] == [[1, 2, 1], [1, 4, 2], [1, 6, 1], [2, 3, 1], [2, 5, 1]]
    assert cert["v"] == [[1, 2, 1], [1, 4, 1], [2, 2, 1], [2, 4, 1]]


def test_truncfd_sl2_derived():
    z, cert = truncfd_Z_for(generator(A1, "Ytilde", 1, 0))
    assert z.z_monomial().exps == {(1, -1): 1, (1, 3): 1}
    assert cert["holds"]
    assert cert["nu"] == [[1, 2, 1]]
    assert cert["v"] == [[1, 1, 1]]


def test_truncfd_constant():
    z, cert = truncfd_Z_for(LWeightMonomial(B2))
    assert all(not v for v in z.zroots.values())
    assert cert["holds"]


# KR modules W^{(i)}_k, every node, checked against their FM expansion
_LOWEST_CASES = [(t, k) for t in ("A2", "A3", "B2", "B3", "C2", "C3", "G2", "D4")
                 for k in (1, 2)] + [("F4", 1), ("E6", 1)]


@pytest.mark.parametrize("label,k", _LOWEST_CASES)
def test_truncfd_lowest_term_is_fm_lowest(label, k):
    # truncfd_Z_for reads v off the closed-form lowest l-weight
    # prod Y_{ibar, t + r h}^{-1}; the FM expansion is the oracle: its term
    # at the largest distance is unique, is that monomial, and its path is
    # the certificate v
    cd = build_cartan(label)
    for i in cd.nodes():
        x = qc_kr(cd, i, 3, k)
        dist = {m: sum(p.values()) for m, p in x.paths.items()}
        (low,) = [m for m, d in dist.items() if d == max(dist.values())]
        heads = [3 - 2 * cd.ri(i) * l for l in range(k)]
        shift = cd.lacing * cd.dual_coxeter
        assert low == expand_in_basis(cd, "Y", {(cd.bar(i), t + shift): -1 for t in heads})
        assert x.paths[low] == leq_certificate(low, x.head)
        _z, cert = truncfd_Z_for(x.head)
        assert cert["v"] == [[j, t, e] for (j, t), e in sorted(x.paths[low].items())]


def test_truncfd_e7_needs_no_expansion():
    # E7 Y_{4,0} took 30 s and 2.8 GB while v came from an FM expansion
    t0 = perf_counter()
    _z, cert = truncfd_Z_for(generator(build_cartan("E7"), "Y", 4, 0))
    assert perf_counter() - t0 < 1.0
    assert cert["holds"]


def test_truncfd_rejects_non_dominant():
    with pytest.raises(LanglandsError):
        truncfd_Z_for(generator(A1, "Psi", 1, 0).pow(-1))


def test_conjecture_report_b2_first_fundamental():
    # second worked B2 truncation: lambda = w1, Z_1 = 1 - z; four weights,
    # one matched l-weight each, monomials equal to the reference list
    rep = conjecture_report(Z_B2_1, (1, 0), depth=3)
    assert rep["ok"] and rep["chi_L_terms"] == 4
    by_mu = {tuple(w["mu"]): w for w in rep["weights"]}
    listed = {
        (1, 0): {(1, 0): 1},
        (-1, 1): {(1, -4): -1, (2, -2): 1},
        (1, -1): {(1, -2): 1, (2, -4): -1},
        (-1, 0): {(1, -6): -1},
    }
    assert set(by_mu) == set(listed)
    for mu, exps in listed.items():
        w = by_mu[mu]
        assert w["matched"] == 1 and not w["discrepancies"]
        matched = [c for c in w["candidates"] if c["matched"]]
        got = {(i, r): e for i, r, e in matched[0]["psi"]["exps"]}
        assert got == exps


def test_conjecture_a3_two_roots_pinned():
    # 36 candidates over 13 weights; stdout bytes as printed by the
    # Cartesian-product enumeration the pruned search replaced
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["conjecture", "--type", "A3", "--zroots", "1:0;3:2"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "0f4bc67cc88ab5740796fe469d9abc79a65e1e0caa2fc49fb35e377010af5520")
