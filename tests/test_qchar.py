import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from itertools import product

import pytest

from shiftedq import cli
from shiftedq.cartan import a_in_y, build_cartan
from shiftedq.lweight import LWeightMonomial, expand_in_basis, generator, y_monomial
from shiftedq.qchar import (
    FMError,
    QCharacter,
    _string_eigen_terms,
    _string_products,
    check_identity,
    check_triangularity,
    fm_expand,
    qc_closed_form,
    qc_frenkel_mukhin,
    qc_kr,
    qc_mul,
    qc_neg_prefund_limit,
    qc_one,
    qc_simple_sl2,
)
from support import kr_prefund_special_position, kr_special_position

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
    for (m, c), (mult, y, path, _w) in zip(x.terms.items(), state.values()):
        assert c == mult and x.paths[m] == path
        assert m == x.head * expand_in_basis(cd, "A", path).pow(-1)
        assert m == expand_in_basis(cd, "Y", y)


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "C3", "D4", "E6", "F4", "G2"])
def test_fm_terms_match_y_oracle(label):
    # FM builds its terms with lweight.y_monomial; each must be the oracle
    # expansion of its Y-exponents, key and exponent order alike
    cd = build_cartan(label)
    for i in cd.nodes():
        head = {(i, 0): 1}
        x = qc_frenkel_mukhin(cd, head, 6)
        state, _ = fm_expand(cd, head, 6)
        want = expand_in_basis(cd, "Y", head)
        assert x.head.key() == want.key() and list(x.head.exps) == list(want.exps)
        assert len(x.terms) == len(state)
        for m, (mult, y, _path, _w) in zip(x.terms, state.values()):
            want = expand_in_basis(cd, "Y", y)
            assert m.key() == want.key() and list(m.exps) == list(want.exps)
            assert y_monomial(cd, tuple(sorted(y.items()))) == m and x.terms[m] == mult >= 1


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
    state, complete = fm_expand(cd, {(i, 0): 1}, 80)
    rows = [[list(k), rec[0], list(rec[2].items())] for k, rec in state.items()]
    assert hashlib.sha256(json.dumps([complete, rows]).encode()).hexdigest() == (
        state_digest)
