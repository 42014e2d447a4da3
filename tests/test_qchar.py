import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from itertools import product

import pytest

from shiftedq import cli
from shiftedq.cartan import build_cartan
from shiftedq.lweight import LWeightMonomial, expand_in_basis, generator
from shiftedq.qchar import (
    FMError,
    QCharacter,
    _string_eigen_terms,
    _string_products,
    _y_exps_of_a,
    check_identity,
    check_triangularity,
    kr_prefund_special_position,
    kr_special_position,
    qc_closed_form,
    qc_frenkel_mukhin,
    qc_kr,
    qc_mul,
    qc_neg_prefund_limit,
    qc_one,
    qc_simple_sl2,
)

A1 = build_cartan("A1")
A2 = build_cartan("A2")
B2 = build_cartan("B2")


def Y(cd, i, t):
    return generator(cd, "Y", i, t)


# --- closed forms ----------------------------------------------------------

def test_pos_prefund():
    x = qc_closed_form(A2, "pos_prefund", 1, 3, 5)
    assert len(x.terms) == 1 and x.complete
    assert x.head == generator(A2, "Psi", 1, 3)


def test_psistar_two_terms():
    x = qc_closed_form(B2, "psistar", 1, 0, 4)
    assert len(x.terms) == 2 and x.complete
    low = x.head.combine(generator(B2, "A", 1, 0), -1)
    assert x.terms == {x.head: 1, low: 1}


def test_neg_prefund_sl2_ladder():
    x = qc_closed_form(A1, "neg_prefund_sl2", 1, 0, 3)
    assert len(x.terms) == 4 and not x.complete
    cur = generator(A1, "Psi", 1, 0).pow(-1)
    terms = {cur}
    for m in range(3):
        cur = cur.combine(generator(A1, "A", 1, -2 * m), -1)
        terms.add(cur)
    assert set(x.terms) == terms
    with pytest.raises(ValueError):
        qc_closed_form(A2, "neg_prefund_sl2", 1, 0, 3)


# --- FM expansion ----------------------------------------------------------

def test_sl2_kr_dimensions():
    for k in range(1, 6):
        x = qc_kr(A1, 1, 2 * (k - 1), k)
        assert x.complete
        assert len(x.terms) == k + 1
        assert all(c == 1 for c in x.terms.values())


def test_a2_fundamental_three_terms():
    x = qc_frenkel_mukhin(A2, {(1, -3): 1}, 10)
    want = {
        Y(A2, 1, -3),
        Y(A2, 2, -2) * Y(A2, 1, -1).pow(-1),
        Y(A2, 2, 0).pow(-1),
    }
    assert set(x.terms) == want and x.complete and not x.heuristic


def test_b2_fundamental_dimensions():
    x1 = qc_frenkel_mukhin(B2, {(1, 0): 1}, 12)
    x2 = qc_frenkel_mukhin(B2, {(2, 0): 1}, 12)
    assert x1.dim() == 5 and x1.complete
    assert x2.dim() == 4 and x2.complete


def test_g2_a_in_y_variables_pinned():
    # A_{i,q^0} = Y_{i,q^-r_i} Y_{i,q^r_i} prod_j Y_{j,q^o}^{-1}, o in (0,),
    # (-1, 1), (-2, 0, 2) for C_ji = -1, -2, -3; G2: r = (3, 1), C_21 = -3.
    G2 = build_cartan("G2")
    assert _y_exps_of_a(G2, 1) == {
        (1, -3): 1, (1, 3): 1, (2, -2): -1, (2, 0): -1, (2, 2): -1,
    }
    assert _y_exps_of_a(G2, 2) == {(2, -1): 1, (2, 1): 1, (1, 0): -1}


def test_fm_rejects_non_dominant_and_budget():
    with pytest.raises(FMError):
        qc_frenkel_mukhin(A1, {(1, 0): -1}, 4)
    with pytest.raises(FMError):
        qc_frenkel_mukhin(A1, {(1, 0): 1, (1, 2): 1}, 1, require_complete=True)


def test_fm_heuristic_flag():
    assert qc_frenkel_mukhin(A1, {(1, 0): 2}, 8).heuristic
    assert not qc_kr(A1, 1, 2, 2).heuristic
    assert qc_frenkel_mukhin(A2, {(1, 0): 1, (2, 1): 1}, 8).heuristic


def test_neg_prefund_limit_cross_oracle():
    for r in (0, 3):
        nl = qc_neg_prefund_limit(A1, 1, r, 4)
        cf = qc_closed_form(A1, "neg_prefund_sl2", 1, r, 4)
        assert nl.terms == cf.terms


def test_neg_prefund_limit_depth0_and_b2():
    x = qc_neg_prefund_limit(B2, 2, 0, 0)
    assert len(x.terms) == 1
    x = qc_neg_prefund_limit(B2, 2, 0, 2)
    assert check_triangularity(x)["ok"]
    assert all(c == 1 for c in x.terms.values())  # thin in type B


# --- ring structure --------------------------------------------------------

def test_qc_mul_unit():
    x = qc_closed_form(A1, "neg_prefund_sl2", 1, 0, 3)
    assert qc_mul(x, qc_one(A1)).terms == x.terms


def test_qc_mul_fusion_relation_sl2():
    # [L^-_{1,a}][L^+_{1,a}] = 1 + [-alpha][L^-_{aq^-2}][L^+_{aq^2}]
    depth = 3
    lhs = qc_mul(
        qc_closed_form(A1, "neg_prefund_sl2", 1, 0, depth),
        qc_closed_form(A1, "pos_prefund", 1, 0, depth),
    )
    tw = LWeightMonomial(A1, {}, A1.alpha_bar(1).inv())
    rhs = qc_mul(
        qc_closed_form(A1, "neg_prefund_sl2", 1, -2, depth),
        qc_closed_form(A1, "pos_prefund", 1, 2, depth),
    ).scale_monomial(tw)
    one = LWeightMonomial(A1)
    rhs_terms = dict(rhs.terms)
    rhs_terms[one] = rhs_terms.get(one, 0) + 1
    assert lhs.head == one
    # term-by-term comparison inside the margin
    for m, c in rhs_terms.items():
        d = lhs.term_distance(m)
        if d is not None and d <= depth:
            assert lhs.terms.get(m, 0) == c
    for m, c in lhs.terms.items():
        d = lhs.term_distance(m)
        if d is not None and d <= depth:
            assert rhs_terms.get(m, 0) == c


def test_qc_mul_brute_force_multiplicities():
    rng = random.Random(4)
    x1 = qc_kr(A1, 1, 2, 2)
    x2 = qc_kr(A1, 1, 0, 1)
    prod = qc_mul(x1, x2)
    for m, c in prod.terms.items():
        brute = sum(
            c1 * c2
            for m1, c1 in x1.terms.items()
            for m2, c2 in x2.terms.items()
            if (m1 * m2) == m
        )
        assert brute == c


def test_ring_laws_at_matched_depth():
    a = qc_closed_form(A1, "neg_prefund_sl2", 1, 0, 3)
    b = qc_closed_form(A1, "neg_prefund_sl2", 1, 1, 3)
    c = qc_closed_form(A1, "pos_prefund", 1, 2, 3)
    ab = qc_mul(a, b)
    ba = qc_mul(b, a)
    assert ab.terms == ba.terms
    abc1 = qc_mul(ab, c)
    abc2 = qc_mul(a, qc_mul(b, c))
    assert abc1.terms == abc2.terms


def test_head_multiplicative():
    a = qc_kr(B2, 2, 0, 1)
    b = qc_closed_form(B2, "psistar", 1, 2, 2)
    assert qc_mul(a, b).head == a.head * b.head


def test_depth_monotone_restriction():
    deep = qc_closed_form(A1, "neg_prefund_sl2", 1, 0, 5)
    shallow = qc_closed_form(A1, "neg_prefund_sl2", 1, 0, 3)
    assert deep.restrict(3).terms == shallow.terms


# --- triangularity ---------------------------------------------------------

def test_triangularity_on_produced_characters():
    for x in (
        qc_kr(A1, 1, 2, 2),
        qc_frenkel_mukhin(A2, {(1, -3): 1}, 8),
        qc_frenkel_mukhin(B2, {(2, 0): 1}, 12),
        qc_closed_form(B2, "psitilde", 2, 0, 3),
        qc_closed_form(B2, "psistar", 1, 0, 2),
    ):
        assert check_triangularity(x)["ok"]


def test_triangularity_negative_control():
    x = qc_kr(A1, 1, 0, 1)
    bad = x.head * generator(A1, "A", 1, 5)  # A^{+1} offset: above the head
    terms = dict(x.terms)
    terms[bad] = 1
    corrupted = QCharacter(A1, x.head, terms, x.depth, False)
    rep = check_triangularity(corrupted)
    assert not rep["ok"]
    assert rep["violations"] == [bad.to_json()]


# --- identities ------------------------------------------------------------

@pytest.mark.parametrize("cd,i", [(A1, 1), (B2, 1), (B2, 2), (A2, 1)])
def test_qqtilde(cd, i):
    rep = check_identity(cd, "QQtilde", i, 0, 4)
    assert rep["ok"], rep


@pytest.mark.parametrize("cd,i", [(A1, 1), (B2, 1), (B2, 2)])
def test_qqstar(cd, i):
    rep = check_identity(cd, "QQstar", i, 1, 3)
    assert rep["ok"], rep


def test_charqf_sl2():
    assert check_identity(A1, "charqf_sl2", 1, 0, 4)["ok"]


def test_identity_depth_validation():
    with pytest.raises(ValueError):
        check_identity(A1, "QQtilde", 1, 0, 1)


# --- rank-1 classification ---------------------------------------------------

def test_simple_sl2_trivial():
    x = qc_simple_sl2(generator(A1, "Psi", 1, 0))
    assert len(x.terms) == 1 and x.complete


def test_simple_sl2_w2():
    m = Y(A1, 1, 0) * Y(A1, 1, 2)
    x = qc_simple_sl2(m)
    fm = qc_frenkel_mukhin(A1, {(1, 0): 1, (1, 2): 1}, 8)
    assert x.terms == fm.terms
    assert len(x.terms) == 3


def test_simple_sl2_general_position_product():
    m = Y(A1, 1, 0) * Y(A1, 1, 6)
    x = qc_simple_sl2(m)
    assert x.dim() == 4
    with pytest.raises(ValueError):
        qc_simple_sl2(generator(A1, "Psi", 1, 0).pow(-1))


def test_special_position_predicates():
    # W_{1,a} vs W_{1,aq^2}: union {a, aq^2} is a q-set containing both properly
    assert kr_special_position([0], [2])
    assert not kr_special_position([0], [4])
    assert not kr_special_position([0, 2], [2])  # union equals the first? no:
    # union {0,2} contains [2] properly and [0,2] not properly -> general
    # W below the ladder bottom extends the q-set properly on both sides
    assert kr_prefund_special_position([-2], -1)
    assert kr_prefund_special_position([0], 1)
    # union equal to the ladder itself is not a proper containment
    assert not kr_prefund_special_position([0], -1)
    # disconnected supports are never a q-set
    assert not kr_prefund_special_position([0], 3)


# --- serialization ---------------------------------------------------------

def test_qcharacter_json_roundtrip():
    x = qc_kr(B2, 2, 0, 1)
    data = json.loads(json.dumps(x.to_json()))
    back = QCharacter.from_json(B2, data)
    assert back.terms == x.terms
    assert back.head == x.head
    assert back.complete == x.complete


# --- terms from Y-exponents, string products -------------------------------

@pytest.mark.parametrize("label,head,depth", [
    ("A2", {(1, 0): 1}, 8), ("B2", {(2, 0): 1, (2, 2): 1}, 3),
    ("G2", {(1, 0): 1}, 40), ("G2", {(2, 1): 1, (1, 0): 1}, 4),
    ("C3", {(3, 0): 1}, 30), ("D4", {(2, 0): 1}, 6),
])
def test_fm_terms_are_head_times_path(label, head, depth):
    # the monomial built from a term's Y-exponents is the head times the
    # inverse A-monomial of its path, constants included
    cd = build_cartan(label)
    x = qc_frenkel_mukhin(cd, head, depth)
    assert x.head == expand_in_basis(cd, "Y", head)
    for m, path in x.paths.items():
        assert m == x.head * expand_in_basis(cd, "A", path).pow(-1)
        assert m == expand_in_basis(cd, "Y", x.term_yexps[m])


@pytest.mark.parametrize("label,i", [("A2", 1), ("B2", 1), ("B2", 2), ("G2", 2)])
def test_neg_prefund_terms_in_sorted_path_order(label, i):
    cd = build_cartan(label)
    x = qc_neg_prefund_limit(cd, i, 3, 3)
    keys = [sorted(x.paths[m].items()) for m in x.terms]
    assert keys == sorted(keys)
    head = generator(cd, "Psi", i, 3).pow(-1)
    for m, path in x.paths.items():
        assert m == head * expand_in_basis(cd, "A", path).pow(-1)


def test_string_products_against_full_product():
    rng = random.Random(5)
    for _ in range(200):
        factors = [_string_eigen_terms(rng.randrange(-6, 7), rng.randrange(0, 4), 2)
                   for _ in range(rng.randrange(0, 4))]
        cap = rng.randrange(0, 7)
        want = {}
        longest = 0
        for combo in product(*factors):
            shifts = [s for part in combo for s in part]
            longest = max(longest, len(shifts))
            if len(shifts) <= cap:
                key = tuple(sorted(shifts))
                want[key] = want.get(key, 0) + 1
        got, dropped = _string_products(factors, cap)
        assert list(got.items()) == list(want.items())
        assert dropped == (longest > cap)


def test_g2_fm_depth_40_pinned():
    # stdout digest of the expansion whose terms were rebuilt from A-paths
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["qchar", "--type", "G2", "--family", "fm", "--head", "1:0",
                         "--depth", "40"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "3a3bb3cecc0e0bab231ff09cb5c28db24c6de7f0ca62c820c08c26f63ff23be0")
