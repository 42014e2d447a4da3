import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from itertools import product

import pytest

from shiftedq import cli, qchar
from shiftedq.cartan import a_in_y, build_cartan
from shiftedq.lweight import LWeightMonomial, expand_in_basis, generator, y_key, y_monomial
from shiftedq.qchar import (
    FMBudgetError,
    FMError,
    QCharacter,
    _compare_on_margin,
    _string_eigen_terms,
    _string_products,
    check_identity,
    check_triangularity,
    fm_expand,
    qc_closed_form,
    qc_frenkel_mukhin,
    qc_kr,
    qc_monomial,
    qc_mul,
    qc_neg_prefund_limit,
    qc_one,
    qc_simple_sl2,
)
from support import fm_expand_reference, kr_prefund_special_position, kr_special_position

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
    assert a_in_y(G2, 1) == {
        (1, -3): 1, (1, 3): 1, (2, -2): -1, (2, 0): -1, (2, 2): -1,
    }
    assert a_in_y(G2, 2) == {(2, -1): 1, (2, 1): 1, (1, 0): -1}


def test_fm_rejects_non_dominant_and_budget():
    with pytest.raises(FMError):
        qc_frenkel_mukhin(A1, {(1, 0): -1}, 4)
    with pytest.raises(FMError):
        qc_frenkel_mukhin(A1, {(1, 0): 1, (1, 2): 1}, 1, require_complete=True)


@pytest.mark.parametrize("head", [{(3, 0): 1}, {(1, 0): 1, (0, 2): 1}, {(2, 1): 1, (7, 0): 2}])
def test_fm_rejects_head_node_outside_diagram(head):
    # a node outside the diagram has no sl2 to expand along: the head is
    # refused, not returned alone and marked complete
    (bad,) = [i for i, _ in head if i not in B2.nodes()]
    with pytest.raises(FMError, match=f"head node {bad} out of range for B2"):
        fm_expand(B2, head, 10)
    with pytest.raises(FMError, match=f"head node {bad} out of range"):
        qc_frenkel_mukhin(B2, head, 10)


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
    rhs = qc_mul(qc_mul(
        qc_closed_form(A1, "neg_prefund_sl2", 1, -2, depth),
        qc_closed_form(A1, "pos_prefund", 1, 2, depth),
    ), qc_monomial(tw))
    one = LWeightMonomial(A1)
    rhs_terms = dict(rhs.terms)
    rhs_terms[one] = rhs_terms.get(one, 0) + 1
    assert lhs.head == one
    # term-by-term comparison inside the margin
    ok, witness = _compare_on_margin(lhs.terms, rhs_terms, lhs.head, depth)
    assert ok, witness


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


@pytest.mark.parametrize("label,make1,make2", [
    ("A1", lambda cd: qc_closed_form(cd, "neg_prefund_sl2", 1, 0, 4),
     lambda cd: qc_kr(cd, 1, 3, 2)),
    ("B2", lambda cd: qc_closed_form(cd, "psitilde", 2, 1, 3),
     lambda cd: qc_kr(cd, 1, 0, 1)),
    ("B2", lambda cd: qc_neg_prefund_limit(cd, 1, 0, 3),
     lambda cd: qc_kr(cd, 2, 5, 1)),
])
def test_qc_mul_restricted_brute_force(label, make1, make2):
    # an incomplete slice times a complete character, both ways round: the
    # product keeps the slice's depth and, term by term, the sum over the
    # monomial pairs whose summed path lies within it; on a margin m it is
    # the product of the factors restricted to m, entries in order
    cd = build_cartan(label)
    x1, x2 = make1(cd), make2(cd)
    assert not x1.complete and x2.complete and len(x2) > 1
    for a, b in ((x1, x2), (x2, x1)):
        prod = qc_mul(a, b)
        assert not prod.complete and prod.depth == x1.depth
        want, paths = {}, {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                p = dict(a.paths[m1])
                for k, v in b.paths[m2].items():
                    p[k] = p.get(k, 0) + v
                if sum(p.values()) <= x1.depth:
                    m = m1 * m2
                    want[m] = want.get(m, 0) + c1 * c2
                    assert paths.setdefault(m, p) == p
        assert prod.terms == want and prod.paths == paths
        for margin in range(x1.depth + 1):
            assert qc_mul(a.restrict(margin), b.restrict(margin)).entries == (
                prod.restrict(margin).entries)


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
    kr = qc_kr(A1, 1, 2, 2)
    fm = qc_frenkel_mukhin(B2, {(2, 0): 1}, 12)
    star = qc_closed_form(B2, "psistar", 1, 0, 2)
    for x in (
        kr,
        qc_frenkel_mukhin(A2, {(1, -3): 1}, 8),
        fm,
        qc_closed_form(B2, "psitilde", 2, 0, 3),
        star,
        qc_mul(fm, star),
        qc_mul(qc_closed_form(A1, "neg_prefund_sl2", 1, 0, 3), kr),  # restricted
        fm.restrict(3),
        qc_mul(fm, qc_monomial(generator(B2, "Psi", 1, 5))),
        qc_neg_prefund_limit(B2, 2, 1, 3),
        qc_simple_sl2(Y(A1, 1, 0) * Y(A1, 1, 2) * generator(A1, "Psi", 1, 7)),
        QCharacter.from_json(B2, json.loads(json.dumps(fm.to_json()))),
    ):
        assert check_triangularity(x)["ok"]
        # every producer puts the head first and gives each term its path
        assert next(iter(x.terms)) == x.head
        for m in x.terms:
            assert m == x.head * expand_in_basis(x.cd, "A", x.paths[m]).pow(-1)


def test_triangularity_negative_control():
    x = qc_kr(A1, 1, 0, 1)
    bad = x.head * generator(A1, "A", 1, 5)  # A^{+1} offset: above the head
    # one more entry; no A^{-1}-path leads above the head
    corrupted = QCharacter(A1, x.entries + [(bad.key(), 1, {})], x.depth, False)
    rep = check_triangularity(corrupted)
    assert not rep["ok"]
    assert rep["violations"] == [bad.to_json()]


# --- identities ------------------------------------------------------------

@pytest.mark.parametrize("cd,i", [(A1, 1), (B2, 1), (B2, 2), (A2, 1)])
def test_qqtilde(cd, i):
    for r in (0, 3, -2):
        rep = check_identity(cd, "QQtilde", i, r, 4)
        assert rep["ok"], (r, rep)


@pytest.mark.parametrize("cd,i", [(A1, 1), (B2, 1), (B2, 2)])
def test_qqstar(cd, i):
    rep = check_identity(cd, "QQstar", i, 1, 3)
    assert rep["ok"], rep


def test_charqf_sl2():
    for r, depth in product(range(-3, 4), range(2, 7)):
        assert check_identity(A1, "charqf_sl2", 1, r, depth)["ok"], (r, depth)


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
    assert back.paths == x.paths
    # a term above the head, and the head at multiplicity 2, are refused
    above = x.head * generator(B2, "A", 2, 5)
    with pytest.raises(ValueError):
        QCharacter.from_json(B2, dict(data, terms=data["terms"] + [[above.to_json(), 1]]))
    terms = [[t, 2 if t == data["head"] else c] for t, c in data["terms"]]
    assert terms != data["terms"]
    with pytest.raises(ValueError):
        QCharacter.from_json(B2, dict(data, terms=terms))
    # multiplicities, depth and flags are validated, not coerced
    t0, c0 = data["terms"][-1]
    assert c0 == 1 and t0 != data["head"]
    for bad in (2.7, "3", True, 0, -2):
        with pytest.raises(ValueError):
            QCharacter.from_json(B2, dict(data, terms=data["terms"][:-1] + [[t0, bad]]))
    assert QCharacter.from_json(B2, dict(data, terms=data["terms"][:-1] + [[t0, 2.0]])).terms
    for bad in ("5", 4.9, -1, None):
        with pytest.raises(ValueError):
            QCharacter.from_json(B2, dict(data, depth=bad))
    for flag in ("complete", "heuristic"):
        for bad in ("false", 1, 0, None):
            with pytest.raises(ValueError):
                QCharacter.from_json(B2, dict(data, **{flag: bad}))
    # a term listed twice is refused, not merged to one count
    two = {"head": data["head"], "depth": 1, "complete": False,
           "terms": [[data["head"], 1], [t0, 1]]}
    assert QCharacter.from_json(B2, two).dim() == 2
    with pytest.raises(ValueError):
        QCharacter.from_json(B2, dict(two, terms=two["terms"] + [[t0, 1]]))


def test_heuristic_flag_in_json_only_when_set():
    x = qc_frenkel_mukhin(A2, {(1, 0): 1, (2, 0): 1}, 4)
    data = json.loads(json.dumps(x.to_json()))
    assert x.heuristic and data["heuristic"] is True
    assert QCharacter.from_json(A2, data).heuristic
    assert "heuristic" not in qc_kr(A2, 1, 0, 2).to_json()


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
    state, complete = fm_expand(cd, head, depth)
    assert x.head == expand_in_basis(cd, "Y", head)
    assert len(x.terms) == len(state) and x.complete == complete
    for (m, c), (k, (mult, path, _w)) in zip(x.terms.items(), state.items()):
        assert c == mult and x.paths[m] == path
        assert m == x.head * expand_in_basis(cd, "A", path).pow(-1)
        assert m == expand_in_basis(cd, "Y", dict(k))


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "C3", "D4", "E6", "F4", "G2"])
def test_fm_terms_match_y_oracle(label):
    # FM keys its terms with lweight.y_key; each must be the key of the
    # oracle expansion of its Y-exponents, and the monomials built from the
    # keys hold their exps in sorted order
    cd = build_cartan(label)
    for i in cd.nodes():
        head = {(i, 0): 1}
        x = qc_frenkel_mukhin(cd, head, 6)
        state, _ = fm_expand(cd, head, 6)
        want = expand_in_basis(cd, "Y", head)
        assert x.head.key() == want.key() and list(x.head.exps) == sorted(x.head.exps)
        assert len(x.terms) == len(state)
        for m, (k, (mult, _path, _w)) in zip(x.terms, state.items()):
            want = expand_in_basis(cd, "Y", dict(k))
            assert m.key() == want.key() and list(m.exps) == sorted(m.exps)
            assert y_monomial(cd, k) == m and x.terms[m] == mult >= 1


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
        got = _string_products(factors, cap)
        assert list(got.items()) == list(want.items())
        # the longest product takes every string's longest term, so fm_expand
        # and the rank-1 ladders read a drop off the strings' total length
        assert longest == sum(max(map(len, options)) for options in factors)


# --- the per-call string-product table -------------------------------------

def _reference_heads(cd):
    """Fundamental, KR (k = 2) and Y_{i,0}^2 heads at every node, then
    multi-node heads, which qc_frenkel_mukhin flags heuristic: one at far
    apart and negative shifts (a wide window that starts below 0), and a
    Y^5 at a short node (wider digits)."""
    for i in cd.nodes():
        yield {(i, 0): 1}
        yield {(i, 0): 1, (i, 2 * cd.ri(i)): 1}
        yield {(i, 0): 2}
    yield {(1, 0): 1, (1, 6): 1, (2, 3): 1}
    yield {(2, 0): 1, (1, 1): 1}
    yield {(1, -9): 1, (cd.n, 31): 1, (2, -4): 1}
    yield {(min(cd.nodes(), key=cd.ri), 0): 5}


def _assert_keys_from_parts(cd, head, depth):
    # qc_frenkel_mukhin's entries are fm_expand's state in its order, keyed
    # by y_key, and every distinct (node, part) goes through _decode and
    # y_key once per call: a second call builds its own table
    decoded, keyed = [], []
    real_decode, real_key = qchar._decode, qchar.y_key

    def decode(x, width, slots):
        decoded.append(real_decode(x, width, slots))
        return decoded[-1]

    def key(cd, ykey):
        keyed.append(ykey)
        return real_key(cd, ykey)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qchar, "_decode", decode)
        mp.setattr(qchar, "y_key", key)
        x = qc_frenkel_mukhin(cd, head, depth)
        parts = sorted(decoded)
        assert keyed == decoded
        decoded.clear()
        assert qc_frenkel_mukhin(cd, head, depth).entries == x.entries
        assert sorted(decoded) == parts
        decoded.clear()
        state, complete = fm_expand(cd, head, depth)
    assert x.complete == complete and len(decoded) == len(state)
    assert [k for k, _c, _p in x.entries] == [y_key(cd, k) for k in state]
    assert [(c, list(p.items())) for _k, c, p in x.entries] == [
        (mult, list(path.items())) for mult, path, _w in state.values()]
    want = {tuple(it for it in k if it[0][0] == i) for k in state for (i, _t), _e in k}
    assert parts == sorted(want)


def _assert_matches_reference(cd, head, depth):
    # key order, multiplicity, path item order, distance and the flag of
    # the per-term loop; qc_frenkel_mukhin keys the same state
    state, complete = fm_expand(cd, head, depth)
    want, want_complete = fm_expand_reference(cd, head, depth)
    assert complete == want_complete
    assert list(state) == list(want)
    for k, (mult, path, w) in state.items():
        rmult, rpath, rw = want[k]
        assert (mult, list(path.items()), w) == (rmult, list(rpath.items()), rw)
    if not complete:
        with pytest.raises(FMBudgetError):
            fm_expand(cd, head, depth, require_complete=True)
    _assert_keys_from_parts(cd, head, depth)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C3", "G2", "D4"])
def test_fm_expand_matches_per_term_reference(label):
    # depth 0 packs a fundamental head in 2-bit digits, depth 200 in 9-bit
    cd = build_cartan(label)
    for head in _reference_heads(cd):
        for depth in (-1, 0, 1, 3, 7, 13, 80, 200):
            _assert_matches_reference(cd, head, depth)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "D4"])
def test_fm_window_grows(monkeypatch, label):
    # with no slot above the head the window must widen, the expansion
    # running again from the head, again and again; the states stay the same
    widths = []
    real = qchar._window

    def window(width, size, rows):
        widths.append(size)
        return real(width, size, rows)

    monkeypatch.setattr(qchar, "_window_pad", lambda cd, depth: 0)
    monkeypatch.setattr(qchar, "_window", window)
    cd = build_cartan(label)
    for head in _reference_heads(cd):
        for depth in (3, 80):
            widths.clear()
            fm_expand(cd, head, depth)
            assert widths == sorted(set(widths))
            if depth == 80 and list(head.values()) == [1]:
                assert len(widths) > 1
            _assert_matches_reference(cd, head, depth)


@pytest.mark.parametrize("width", [2, 3, 8, 9])
def test_fm_decode_extremes(width):
    # keys packed by hand, node-major: exponents at +-(2^(width-1) - 1), on
    # the first and last slot of every node, nodes left absent, and lowest
    # shifts below 0; the decoder reads back the sorted Y-exponent tuple
    rng = random.Random(width)
    top = (1 << width - 1) - 1
    for n, size, lo in [(1, 1, 0), (3, 1, -2), (4, 7, -9), (2, 5, 3), (6, 13, -1)]:
        slots = [(j, t) for j in range(1, n + 1) for t in range(lo, lo + size)]
        full = sum(1 << width * s + width - 1 for s in range(n * size))
        for _ in range(30):
            y = {}
            for j in range(1, n + 1):
                if rng.random() < 0.3:
                    continue
                for t in (lo, lo + size - 1, rng.randrange(lo, lo + size)):
                    y[(j, t)] = rng.choice([top, -top, 1, -1, rng.randint(-top, top)])
            y = {k: e for k, e in y.items() if e}
            key = full + sum(e << width * ((j - 1) * size + t - lo)
                             for (j, t), e in y.items())
            assert qchar._decode(key ^ full, width, slots) == tuple(sorted(y.items()))


def test_fm_digit_width_from_depth_and_head():
    # the bias must exceed the largest head exponent plus depth: a Y^40
    # head at depth 0 needs 7-bit digits, and its exponent no fewer
    cd = build_cartan("A2")
    state, complete = fm_expand(cd, {(1, 0): 40}, 0)
    assert complete is False and list(state) == [((((1, 0), 40),))]
    _assert_matches_reference(cd, {(2, -3): 40, (1, 0): 1}, 2)


@pytest.mark.parametrize("label,i,bound", [("D6", 4, 30), ("E6", 4, 60)])
def test_fm_string_products_once_per_node_part(monkeypatch, label, i, bound):
    # one enumeration per node part up to translation (19 and 38 classes),
    # not one per part (46 and 101) or per term and node (936 and 5,687);
    # a second call builds its own table
    calls = []
    real = qchar._string_products

    def counted(factors, cap):
        calls.append(cap)
        return real(factors, cap)

    monkeypatch.setattr(qchar, "_string_products", counted)
    cd = build_cartan(label)
    fm_expand(cd, {(i, 0): 1}, 80)
    first = len(calls)
    assert 0 < first <= bound
    fm_expand(cd, {(i, 0): 1}, 80)
    assert len(calls) == 2 * first


def test_kr_default_depth_reaches_lowest_term(monkeypatch):
    # k ht(omega_i + omega_ibar), read off the coroot inverse, is the
    # distance of the lowest term of W^{(i)}_k; on small types it is the
    # largest distance of a term, and the default depth reaches it
    e8 = build_cartan("E8")
    assert [qchar._kr_distance(e8, i, 1) for i in e8.nodes()] == [
        92, 136, 182, 270, 220, 168, 114, 58]
    assert qchar._kr_distance(build_cartan("F4"), 2, 1) == 42
    assert qchar._kr_distance(build_cartan("G2"), 1, 1) == 10
    assert qchar._kr_distance(build_cartan("E6"), 4, 1) == 42
    for label, kmax in [("A2", 2), ("A3", 2), ("B2", 2), ("C2", 2), ("B3", 2),
                        ("C3", 2), ("G2", 2), ("D4", 2), ("F4", 1), ("D5", 1),
                        ("E6", 1)]:
        cd = build_cartan(label)
        for k in range(1, kmax + 1):
            for i in cd.nodes():
                x = qc_kr(cd, i, 0, k)
                assert x.complete
                assert max(sum(p.values()) for p in x.paths.values()) == (
                    qchar._kr_distance(cd, i, k))
    # E8 is not expanded: only the default depth is read, the old
    # 2k sum(r) n + 4 = 132 at k = 1 being the floor
    monkeypatch.setattr(qchar, "qc_frenkel_mukhin", lambda cd, head, depth, rc: depth)
    assert [qc_kr(e8, i, 0, 1) for i in e8.nodes()] == [
        132, 136, 182, 270, 220, 168, 132, 132]
    assert qc_kr(e8, 4, 0, 2) == 540


def test_g2_fm_depth_40_pinned():
    # stdout digest of the expansion whose terms were rebuilt from A-paths
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["qchar", "--type", "G2", "--family", "fm", "--head", "1:0",
                         "--depth", "40"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "3a3bb3cecc0e0bab231ff09cb5c28db24c6de7f0ca62c820c08c26f63ff23be0")


# Canonical bytes of the FM expansions of perfbench's qchar heads (its
# _FM_HEADS, then its _FM_PROBES) at shift 0 and depth 80: the sha256 of the
# qc_frenkel_mukhin JSON dump, and of the fm_expand state in order (keys,
# multiplicities and the item order of each A^{-1}-path).  The last three
# heads, F4 nodes 2 and 3 and E6 node 4, are expanded wrongly by the `max`
# merge (ROADMAP item 1): their digests pin known-wrong output and only
# guard refactors of the expansion loop, which must not change it.
_FM_PINS = [
    ("E6", 3, "b553ffe3bc9f3b6754f58ac4d5955e480405cff40429489a5fbe14badabec927",
     "11c0a57e53dbf3fab2370471dca64527968126ab2af3b60ab6bb067c33784fdd"),
    ("D6", 4, "52ab8270e6218590b9110b50865e381cd00e081d22cbd1b51152c0cfab96c7c3",
     "d7722591c7217e9ae5c0bf220274fcb2e61fc7ef8c097f9dc60b969492c5fae5"),
    ("D6", 3, "72b550b2c5c93ee9164779e5fb0f20e7c91de84c0d3ed2d358c31e4a68d0cbbd",
     "f6ecf064c7ff4d8f67d11757d103eb94f301fe4d693640cf52a167403355b220"),
    ("E7", 1, "84fe6709b586e2661a6bd2074873443a202e8f6348466716436bc63728a51320",
     "167a32d13a4697fc07ba65c884701d770c1b1f64bfc213ec103ad218d65487b6"),
    ("E6", 2, "78072a485304615d6483db3b6561565de0bdb43f95c9e8b75ffe7f5e261be85a",
     "4b1cf4370e064cfffd46394cc03aff060890f67d2430bae4f0421b081f50eb94"),
    ("E7", 7, "db5a88fb663c08fc7de150ca7e7d61cb6c901e85a0ee2e0cd12ff4dc17d7bc89",
     "1c94de539185906bb737768da7f5a619602dc52e76e2466aa8ea9b56373d68d9"),
    ("D5", 3, "83b5070c16f886eeeca7eb291e1b0091caf71a6b205b1af9592bd1a196e65686",
     "b735d536822e7fddfb61a741b66016885a7f0c41d3d49e78e4f0fbb4d0bb6205"),
    ("B4", 3, "ac25dd2b2e4b2c69edb5e1db03aeaacf2694636c80095c802ba1be8579131fe2",
     "b338f66dd51dec58ed605a107ba7edba37567d54bb2e7780f2cbf8b15fa9513e"),
    ("A7", 4, "34aa705a6c2047b9334700aad1084f6d2529f437bcb0a492d9979d07b73de0a0",
     "109cbaa81578a3e114b62817075778329b810161838a9bf1f7ef513e83f836c4"),
    ("F4", 1, "0d61cb5aabee07dc267a83196f00563fad4c4b9a6c427160bc16ccea440bb509",
     "a03ed29f842dc19c4036d143b82181423b85f7a13107df0e1858cbf60bd5cef8"),
    ("F4", 4, "35ffa0f8416e3fa2af152e7ff76a7fb360f0a32e8f08cae4795f663d0675482c",
     "cb581f6c0db02f907d2062ccd8d78b1dfc175bdc311dd1b1da371902b3e2b8d7"),
    ("E6", 1, "380a2ac78ed3a1f1de251de91ccb0b46acc72e8e86d37bda9bd27fd786b7ee9b",
     "d473e4b8290910f6fb986e1469bdd42f5113c045168a9d1142f585015ae2463b"),
    ("G2", 1, "721cb350c0dd19199844404160f16f8df57c897a5e5cd4e84bc8cf7d91ce3488",
     "e4f01f95d0fb1775a8edd59a3405e68207a5164a0f0fa049035d86b40e7f7a54"),
    ("G2", 2, "76caac200b4e1c39ae427c22a443893ac8a7e36ea83b3bb0adf301bb6010ce29",
     "7c0dfb9fb76b42e247b177cca4ef6bf8ff4dfcd367077ace922895d2628bf607"),
    ("B3", 1, "c545c8a3b2001cdd50dc3f65047d2605f923df3bd6b74ded77acf85d561a3388",
     "6bd6f763d0e63164dbf95b9ab2f32061af43f4b4c9ec6927796c3cf039f1f3bc"),
    ("C3", 3, "e247df5d9465de983c6155b8d341858217b198444d2a2da89ca171653e25cd3d",
     "3058cfadec370aafb63d9c71ca0c3869f36e3fddb6b3dbb8342725e36389284d"),
    ("A3", 2, "e3301c576e9fe21c8dcec2481eebc55adeeba99adf2cfdb40f42df5ca1164668",
     "64de6ad5ae81abeebf92ec4d284092ce67d210c0ec724ac618b392fac6d2c0df"),
    ("B2", 1, "96b10a893203fd81da6cb3243661d1c702756b7ffd94dd28148f5900da6b9f01",
     "016fe68fae79e92dfd99ad687a6050e4861822522839614c98fb3ae060db7fd6"),
    ("F4", 2, "93b33d1fd1ff7388294242fc3962e4de3e72d74df57615b10eab336cb148186c",
     "e643adbd80e0b79cbb3a6a737840af56c2578cbab494ea829ac1b3915f6df005"),
    ("F4", 3, "9f33b4e9891c80c0172bb34966c7d2c1afae82e42917490abe9c0fd32e0e1297",
     "faea605adcccbdd715afd5b1935d314d75024da1cb55d4525b0403ad3c4f6826"),
    ("E6", 4, "e0920816d004efd34afdd6a4c187918f661898ce048a0decc45ca6ba90e52888",
     "234c9a4dda12175c68e03105a0c23d0eb7831ea0352a6d4a881be0859bd9aaeb"),
]


@pytest.mark.parametrize("label,i,qc_digest,state_digest", _FM_PINS,
                         ids=[f"{t}-{i}" for t, i, _, _ in _FM_PINS])
def test_fm_bytes_pinned(label, i, qc_digest, state_digest):
    cd = build_cartan(label)
    x = qc_frenkel_mukhin(cd, {(i, 0): 1}, 80)
    dump = json.dumps(x.to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(dump.encode()).hexdigest() == qc_digest
    # the bytes the CLI writes, without the trailing newline, are that dump
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["qchar", "--type", label, "--family", "fm", "--head", f"{i}:0",
                         "--depth", "80"])
    assert code == 0 and out.getvalue().endswith("\n")
    assert hashlib.sha256(out.getvalue()[:-1].encode()).hexdigest() == qc_digest
    state, complete = fm_expand(cd, {(i, 0): 1}, 80)
    rows = [[list(k), rec[0], list(rec[1].items())] for k, rec in state.items()]
    assert hashlib.sha256(json.dumps([complete, rows]).encode()).hexdigest() == (
        state_digest)


def _assert_one_run(monkeypatch, cases):
    # the window an expansion starts with holds every term: one run, one
    # _window call, each
    sizes = []
    real = qchar._window

    def window(width, size, rows):
        sizes.append(size)
        return real(width, size, rows)

    monkeypatch.setattr(qchar, "_window", window)
    for cd, head, depth in cases:
        sizes.clear()
        fm_expand(cd, head, depth)
        assert len(sizes) == 1, (cd, head, depth)


def test_fm_pinned_heads_run_once(monkeypatch):
    _assert_one_run(monkeypatch, [(build_cartan(t), {(i, 0): 1}, 80)
                                  for t, i, _, _ in _FM_PINS])


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C3", "G2", "D4"])
def test_fm_reference_grid_runs_once(monkeypatch, label):
    cd = build_cartan(label)
    _assert_one_run(monkeypatch, [(cd, head, depth) for head in _reference_heads(cd)
                                  for depth in (-1, 0, 1, 3, 7, 13, 80, 200)])


def _materialized(x):
    # the same character built from its own terms and paths
    return QCharacter(x.cd, [(m.key(), c, x.paths[m]) for m, c in x.terms.items()],
                      x.depth, x.complete, x.heuristic)


def _assert_keyed_prints_like_materialized(x):
    # len, dim and to_json read the keys before any monomial exists
    n, d, data = len(x), x.dim(), x.to_json()
    assert "terms" not in vars(x) and "paths" not in vars(x)
    y = _materialized(x)
    assert y.to_json() == data and len(y) == n and y.dim() == d == sum(x.terms.values())
    assert list(x.terms) == list(x.paths) and x.head == next(iter(x.terms))
    return y


def test_keyed_fm_characters_print_like_their_terms():
    for label, i, _, _ in _FM_PINS:
        _assert_keyed_prints_like_materialized(
            qc_frenkel_mukhin(build_cartan(label), {(i, 0): 1}, 80))


@pytest.mark.parametrize("label,kr1,kr2", [("B2", (1, 3), (2, 2)), ("A3", (2, 3), (1, 2))])
def test_keyed_fusion_factors_print_like_their_terms(label, kr1, kr2):
    # perfbench's two qc_mul jobs: the product of the keyed factors is the
    # product of their materialized copies
    cd = build_cartan(label)
    x1, x2 = qc_kr(cd, kr1[0], 1, kr1[1]), qc_kr(cd, kr2[0], 4, kr2[1])
    y1, y2 = (_assert_keyed_prints_like_materialized(x) for x in (x1, x2))
    assert qc_mul(x1, x2).to_json() == qc_mul(y1, y2).to_json()
    assert qc_mul(x1, x2).dim() == x1.dim() * x2.dim()


@pytest.mark.parametrize("label,head,depth,digest", [
    ("B2", "2:0", 12, "690ea4cd30d471df5db18fc6a56181890a71893028d78f8c14621dce8577ce6f"),
    ("G2", "1:0", 40, "55e78099d55cba0796c6971c948878cde4facae01f5da2b2cb31dd78bf56e740"),
    ("D4", "2:0", 80, "540b416f8e5ed16e4434caa9519c5e839ba21726314660c98a04d36b880bbc89"),
    ("A2", "1:0;2:1", 8, "4904620a2634c64b9f15b3846c2b826348748e2a8901313406640778b7d371a3"),
])
def test_fm_text_output_pinned(label, head, depth, digest):
    # qchar --text lists the materialized terms; its bytes are pinned
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["qchar", "--type", label, "--family", "fm", "--head", head,
                         "--depth", str(depth), "--text"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
