import random
from fractions import Fraction

import pytest

from shiftedq.cartan import basis_generator, build_cartan, factor_solver
from shiftedq.lweight import (
    GENERATOR_KINDS,
    LWeightMonomial,
    dominant_factorization,
    equal_mod_signtwist,
    expand_in_basis,
    factor_in_basis,
    generator,
    is_dominant,
    leq,
    leq_certificate,
    pair_class,
    y_key,
    y_monomial,
)
from shiftedq.qchar import qc_frenkel_mukhin, qc_mul
from shiftedq.scalars import ConstantFactor
from shiftedq.smith import solve_rational
from shiftedq.truncation import TruncationData, descent_refine, enumerate_candidates

A1 = build_cartan("A1")
A2 = build_cartan("A2")
B2 = build_cartan("B2")
G2 = build_cartan("G2")
C3 = build_cartan("C3")
TYPES = [A1, A2, B2, G2, C3]


def psi(cd, *pairs):
    exps = {}
    for i, r, e in pairs:
        exps[(i, r)] = exps.get((i, r), 0) + e
    return LWeightMonomial(cd, {k: e for k, e in exps.items() if e})


# --- generator dictionary fixtures ---------------------------------------

def test_a_generator_sl2():
    # A_{1,q^0} = alphabar_1 Psi_{1,-2} Psi_{1,2}^{-1}
    a = generator(A1, "A", 1, 0)
    assert a.exps == {(1, -2): 1, (1, 2): -1}
    assert a.const == A1.alpha_bar(1)


def test_lambda_generators():
    assert generator(A1, "Lambda", 1, 0).exps == {(1, -1): 1, (1, 1): 1}
    l2 = generator(B2, "Lambda", 2, 0)
    assert l2.exps == {(2, -1): 1, (2, 1): 1, (1, -1): -1, (1, 1): -1}
    assert l2.const.is_one()
    # degrees of Lambda_{2,.} realize the Langlands-dual simple root
    assert l2.coweight() == (-2, 2)


# Written from the formulas: Lambda_{i,q^0} = Psi_{i,q^-r_i} Psi_{i,q^r_i}
# prod_j Psi_{j,q^o}^{-1} (o in (0,), (-1, 1), (-2, 0, 2) for C_ij = -1, -2,
# -3) and Psitilde_{i,q^0} = Psi_{i,q^2r_i} Lambda_{i,q^r_i}^{-1}.  B2: r = (2, 1),
# C_12 = -1, C_21 = -2; G2: r = (3, 1), C_12 = -1, C_21 = -3.
PINNED_GENERATORS = [
    (B2, "Lambda", 1, {(1, -2): 1, (1, 2): 1, (2, 0): -1}),
    (B2, "Lambda", 2, {(2, -1): 1, (2, 1): 1, (1, -1): -1, (1, 1): -1}),
    (B2, "PsiTilde", 1, {(1, 0): -1, (2, 2): 1}),
    (B2, "PsiTilde", 2, {(2, 0): -1, (1, 0): 1, (1, 2): 1}),
    (G2, "Lambda", 1, {(1, -3): 1, (1, 3): 1, (2, 0): -1}),
    (G2, "Lambda", 2, {(2, -1): 1, (2, 1): 1, (1, -2): -1, (1, 0): -1, (1, 2): -1}),
    (G2, "PsiTilde", 1, {(1, 0): -1, (2, 3): 1}),
    (G2, "PsiTilde", 2, {(2, 0): -1, (1, -1): 1, (1, 1): 1, (1, 3): 1}),
]


@pytest.mark.parametrize("cd,kind,i,exps", PINNED_GENERATORS)
def test_generators_pinned(cd, kind, i, exps):
    g = generator(cd, kind, i, 0)
    assert g.exps == exps
    assert g.const.is_one()
    # a shifted generator is the same pattern, shifted
    shifted = {(k, r + 5): e for (k, r), e in exps.items()}
    assert generator(cd, kind, i, 5).exps == shifted
    if kind == "PsiTilde":
        ri = cd.ri(i)
        other = generator(cd, "Psi", i, 2 * ri) / generator(cd, "Lambda", i, ri)
        assert g == other


def test_coweights():
    assert generator(B2, "Psi", 1, 3).coweight() == (1, 0)
    assert generator(B2, "Y", 1, 0).coweight() == (0, 0)
    assert generator(B2, "Y", 2, 5).coweight() == (0, 0)


def test_coweight_additive_under_combine():
    rng = random.Random(0)
    for cd in TYPES:
        for _ in range(10):
            m1 = psi(cd, *[(rng.randint(1, cd.n), rng.randint(-4, 4), rng.randint(-2, 2))
                           for _ in range(3)])
            m2 = psi(cd, *[(rng.randint(1, cd.n), rng.randint(-4, 4), rng.randint(-2, 2))
                           for _ in range(3)])
            got = (m1 * m2).coweight()
            want = tuple(a + b for a, b in zip(m1.coweight(), m2.coweight()))
            assert got == want


def test_alambda_identity_all_types():
    # A_{i,r} = alphabar_i Lambda_{i,r-r_i} / Lambda_{i,r+r_i}
    rng = random.Random(1)
    for cd in TYPES:
        for i in cd.nodes():
            for _ in range(5):
                r = rng.randint(-10, 10)
                lhs = generator(cd, "A", i, r)
                rhs = generator(cd, "Lambda", i, r - cd.ri(i)).combine(
                    generator(cd, "Lambda", i, r + cd.ri(i)), -1
                ).with_const(cd.alpha_bar(i))
                assert lhs == rhs


def a_via_y(cd, i, r):
    out = generator(cd, "Y", i, r - cd.ri(i)) * generator(cd, "Y", i, r + cd.ri(i))
    for j in cd.nodes():
        c = cd.c(j, i)
        offs = {-1: (0,), -2: (-1, 1), -3: (-2, 0, 2)}.get(c, ())
        for o in offs:
            out = out.combine(generator(cd, "Y", j, r + o), -1)
    return out


def test_a_y_product_consistency():
    for cd in TYPES:
        for i in cd.nodes():
            for r in (-3, 0, 1, 4):
                assert a_via_y(cd, i, r) == generator(cd, "A", i, r)


def test_z_generators():
    # simply-laced: Z = Y
    assert generator(A2, "Z", 1, 3) == generator(A2, "Y", 1, 3)
    # B2 short node: Z_{2,q^r} = Y_{2,q^{r-1}} Y_{2,q^{r+1}}
    z = generator(B2, "Z", 2, 0)
    assert z == generator(B2, "Y", 2, -1) * generator(B2, "Y", 2, 1)
    assert generator(B2, "Z", 1, 0) == generator(B2, "Y", 1, 0)
    # G2 short node r_i = 1 = lacing - 2
    zg = generator(G2, "Z", 2, 0)
    want = (generator(G2, "Y", 2, -2) * generator(G2, "Y", 2, 0)
            * generator(G2, "Y", 2, 2))
    assert zg == want


# --- factorization --------------------------------------------------------

def test_factor_identity():
    assert factor_in_basis(LWeightMonomial(B2), "Lambda") == {}
    assert factor_in_basis(LWeightMonomial(B2), "A") == {}


def test_factor_b2_worked_fixture():
    # Z Psi_1^{-1} = Lambda_{1,q^{-4}} Lambda_{2,q^{-1}}
    z = psi(B2, (2, 0, 1))
    psi1 = psi(B2, (1, 0, 1), (1, -6, -1), (2, -4, 1), (2, -2, -1))
    v = factor_in_basis(z.combine(psi1, -1), "Lambda")
    assert v == {(1, -4): 1, (2, -1): 1}


@pytest.mark.parametrize("basis", ["A", "Lambda"])
def test_factor_roundtrip_randomized(basis):
    rng = random.Random(42)
    for cd in TYPES:
        for _ in range(8):
            vmap = {}
            for _ in range(rng.randint(0, 4)):
                key = (rng.choice(list(cd.nodes())), rng.randint(-4, 4))
                vmap[key] = vmap.get(key, 0) + rng.randint(1, 3)
            m = expand_in_basis(cd, basis, vmap)
            assert factor_in_basis(m, basis) == vmap


def test_factor_absence_is_valid():
    # a bare Psi is not an A-monomial (degree 0 fails) nor a Lambda one
    m = psi(A2, (1, 0, 1))
    assert factor_in_basis(m, "A") is None
    assert factor_in_basis(m, "Lambda") is None


ALL_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5",
              "E6", "E7", "E8", "F4", "G2"]


def _random_vmap(rng, cd, terms=4, span=6):
    vmap = {}
    for _ in range(terms):
        key = (rng.choice(list(cd.nodes())), rng.randint(-span, span))
        vmap[key] = vmap.get(key, 0) + rng.choice((-2, -1, 1, 2))
    return {k: e for k, e in vmap.items() if e}


@pytest.mark.parametrize("basis", ["A", "Lambda"])
@pytest.mark.parametrize("label", ALL_LABELS)
def test_factor_roundtrip_every_type(label, basis):
    cd = build_cartan(label)
    rng = random.Random(f"roundtrip:{label}:{basis}")
    for _ in range(6):
        vmap = _random_vmap(rng, cd)
        assert factor_in_basis(expand_in_basis(cd, basis, vmap), basis) == vmap


@pytest.mark.parametrize("basis", ["A", "Lambda"])
@pytest.mark.parametrize("label", ALL_LABELS)
def test_factor_perturbed_rejected_or_exact(label, basis):
    cd = build_cartan(label)
    rng = random.Random(f"perturbed:{label}:{basis}")
    for _ in range(6):
        m = expand_in_basis(cd, basis, _random_vmap(rng, cd))
        i, u = rng.choice(list(cd.nodes())), rng.randint(-6, 6)
        single = generator(cd, "Psi", i, u)
        pair = single / generator(cd, "Psi", i, u + rng.randint(1, 4))
        for bad in (m * single, m * pair):
            v = factor_in_basis(bad, basis)
            assert v is None or expand_in_basis(cd, basis, v).exps == bad.exps


def _laurent_matmul(X, Y):
    out = []
    for row in X:
        out_row = []
        for j in range(len(Y[0])):
            acc = {}
            for x, y_row in zip(row, Y):
                for ex, cx in x.items():
                    for ey, cy in y_row[j].items():
                        acc[ex + ey] = acc.get(ex + ey, 0) + cx * cy
            out_row.append({e: c for e, c in acc.items() if c})
        out.append(out_row)
    return out


@pytest.mark.parametrize("basis", ["A", "Lambda"])
@pytest.mark.parametrize("label", ALL_LABELS)
def test_factor_solver_adjugate(label, basis):
    cd = build_cartan(label)
    det, adj = factor_solver(cd, basis)
    P = [[{} for _ in cd.nodes()] for _ in cd.nodes()]
    for j in cd.nodes():
        for (k, o), c in basis_generator(cd, basis, j)[0].items():
            P[k - 1][j - 1][o] = c
    prod = _laurent_matmul([[dict(x) for x in row] for row in adj], P)
    assert prod == [[det if i == j else {} for j in range(cd.n)] for i in range(cd.n)]


def _windowed_factor(m, basis):
    """The dense windowed Fraction solve that factor_in_basis used to run,
    kept as an independent oracle."""
    cd = m.cd
    if not m.exps:
        return {}
    if basis == "A" and any(m.coweight()):
        return None
    lo = min(r for (_, r) in m.exps)
    hi = max(r for (_, r) in m.exps)
    pad = max(2 * max(cd.r), max(abs(b) for row in cd.B for b in row))
    cols = [(j, u) for j in cd.nodes() for u in range(lo - pad, hi + pad + 1)]
    col_index = {c: k for k, c in enumerate(cols)}
    rows = [(k, t) for k in cd.nodes() for t in range(lo - 2 * pad, hi + 2 * pad + 1)]
    row_index = {rr: k for k, rr in enumerate(rows)}
    A = [[0] * len(cols) for _ in rows]
    for (j, u) in cols:
        for (k, o), c in basis_generator(cd, basis, j)[0].items():
            rr = row_index.get((k, u + o))
            if rr is not None:
                A[rr][col_index[(j, u)]] += c
    x, consistent, _ = solve_rational(A, [m.exps.get(rr, 0) for rr in rows])
    if not consistent:
        return None
    out = {}
    for c, val in zip(cols, x):
        if val:
            if val.denominator != 1:
                return None
            out[c] = int(val)
    if expand_in_basis(cd, basis, out).exps != m.exps:
        return None
    return out


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_factor_agrees_with_windowed_oracle(label):
    cd = build_cartan(label)
    rng = random.Random(f"oracle:{label}")
    for basis in ("A", "Lambda"):
        for _ in range(4):
            m = expand_in_basis(cd, basis, _random_vmap(rng, cd, terms=3, span=3))
            i, u = rng.choice(list(cd.nodes())), rng.randint(-3, 3)
            single = generator(cd, "Psi", i, u)
            pair = single / generator(cd, "Psi", i, u + rng.randint(1, 4))
            for x in (m, m * single, m * pair):
                assert factor_in_basis(x, basis) == _windowed_factor(x, basis)


# --- dominance -------------------------------------------------------------

def test_dominant_examples():
    assert is_dominant(generator(A1, "Ytilde", 1, 0))
    assert not is_dominant(psi(A1, (1, 0, -1)))
    assert is_dominant(psi(A1, (1, -1, 1), (1, 3, -1), (1, 5, 1)))
    assert not is_dominant(psi(A1, (1, -1, -1), (1, 3, 1)))
    # multiply-laced: pairing steps use 2 r_i
    assert is_dominant(psi(B2, (1, -2, 1), (1, 2, -1)))
    assert not is_dominant(psi(B2, (1, 0, 1), (1, 2, -1)))


def test_dominant_closed_under_products():
    rng = random.Random(9)
    kinds = ["Ytilde", "Psi"]
    for cd in (A1, B2):
        for _ in range(15):
            m = LWeightMonomial(cd)
            for _ in range(rng.randint(1, 4)):
                m = m * generator(cd, rng.choice(kinds),
                                  rng.choice(list(cd.nodes())), rng.randint(-4, 4))
            assert is_dominant(m)


def test_dominant_factorization_roundtrip():
    m = psi(A1, (1, -1, 1), (1, 3, -1), (1, 5, 1))
    chains, leftovers = dominant_factorization(m)
    assert chains == [(1, -1, 2)]
    assert leftovers == {(1, 5): 1}


def _pair_expanded(seq):
    """LIFO matching with one stack entry per unit of exponent."""
    stack = []
    chains = []
    for r, e in seq:
        if e > 0:
            stack.extend([r] * e)
        else:
            for _ in range(-e):
                if not stack:
                    return None
                chains.append((stack.pop(), r))
    return chains, stack


def test_pair_class_runs_match_expanded_matching():
    # the (shift, count) runs expand to the unit-by-unit LIFO matching,
    # chains and leftovers in the same order
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(400):
        shifts = sorted(rng.sample(range(-12, 13, 2), rng.randint(0, 6)))
        seq = [(t, rng.choice([-3, -2, -1, 1, 2, 3, 4])) for t in shifts]
        want = _pair_expanded(seq)
        got = pair_class(seq)
        seen[got is not None] += 1
        if want is None:
            assert got is None
            continue
        chains, leftovers = got
        assert all(k >= 1 for _, _, k in chains) and all(k >= 1 for _, k in leftovers)
        assert [(s, t) for s, t, k in chains for _ in range(k)] == want[0]
        assert [s for s, k in leftovers for _ in range(k)] == want[1]
    assert seen[True] and seen[False]


def test_dominance_of_huge_exponents():
    # work grows with the distinct shifts, not with the exponents
    big = 10**9
    assert is_dominant(psi(A1, (1, 0, big), (1, 2, -big)))
    assert not is_dominant(psi(A1, (1, 0, -big), (1, 2, big)))
    assert not is_dominant(psi(A1, (1, 0, big), (1, 2, -big - 1)))
    assert is_dominant(psi(B2, (1, 0, 10**300), (1, 4, -10**300 + 1), (2, 1, 5)))
    chains, leftovers = dominant_factorization(
        psi(A1, (1, 0, 10**300), (1, 2, -3), (1, 6, -2)))
    assert chains == [(1, 0, 1)] * 3 + [(1, 0, 3)] * 2
    assert leftovers == {(1, 0): 10**300 - 5}


@pytest.mark.parametrize("label", ["A1", "B2", "G2", "C3"])
def test_dominance_matcher_random(label):
    cd = build_cartan(label)
    rng = random.Random(label)
    seen = {True: 0, False: 0}
    for _ in range(80):
        m = LWeightMonomial(cd, {}, cd.omega_bar(1))
        for _ in range(rng.randint(1, 6)):
            i, r = rng.choice(list(cd.nodes())), rng.randint(-6, 6)
            kind = rng.choice(["Ytilde", "Ytilde", "Psi"])
            m = m * generator(cd, kind, i, r).pow(rng.choice([1, 1, -1]))
        try:
            chains, leftovers = dominant_factorization(m)
        except ValueError:
            chains = None
        assert is_dominant(m) == (chains is not None)
        seen[chains is not None] += 1
        if chains is None:
            continue
        back = LWeightMonomial(cd)
        for i, s, k in chains:
            ri = cd.ri(i)
            assert k >= 1
            for l in range(k):
                back = back * generator(cd, "Ytilde", i, s + ri + 2 * l * ri)
        for (i, t), e in leftovers.items():
            assert e > 0
            back = back * generator(cd, "Psi", i, t).pow(e)
        assert back == m.monomial_part()
    assert seen[True] and seen[False]


# --- partial orders --------------------------------------------------------

def test_leq_reflexive_both_orders():
    m = generator(B2, "Y", 1, 0) * generator(B2, "Psi", 2, 3)
    assert leq(m, m, "nakajima")
    assert leq(m, m, "zorder")


def test_leq_nakajima_example():
    y = generator(A1, "Ytilde", 1, 0)
    below = y.combine(generator(A1, "A", 1, 0), -1)
    assert leq(below, y, "nakajima")
    assert not leq(y, below, "nakajima")


def test_leq_zorder_b2_fixture():
    z = psi(B2, (2, 0, 1))
    psi1 = psi(B2, (1, 0, 1), (1, -6, -1), (2, -4, 1), (2, -2, -1))
    assert leq(psi1, z, "zorder")
    assert not leq(z, psi1, "zorder")


def test_leq_partial_order_properties():
    rng = random.Random(17)
    base = generator(A2, "Y", 1, 0) * generator(A2, "Y", 2, 3)
    downs = [base]
    for _ in range(6):
        m = base
        for _ in range(rng.randint(1, 3)):
            m = m.combine(
                generator(A2, "A", rng.choice((1, 2)), rng.randint(-2, 4)), -1
            )
        downs.append(m)
    for x in downs:
        for y in downs:
            for zz in downs:
                if leq(x, y) and leq(y, zz):
                    assert leq(x, zz)
            if leq(x, y) and leq(y, x):
                assert x.exps == y.exps  # antisymmetry on monomial parts


# --- sign twist ------------------------------------------------------------

def test_equal_mod_signtwist():
    m = generator(A1, "Psi", 1, 0)
    gamma = ConstantFactor([Fraction(3, 2)], [0])
    m1 = m.with_const(gamma)
    m2 = m.with_const(gamma.mul(ConstantFactor([0], [4])))  # -gamma
    m3 = m.with_const(gamma.mul(ConstantFactor([0], [2])))  # i gamma
    assert equal_mod_signtwist(m1, m1)
    assert equal_mod_signtwist(m1, m2)
    assert not equal_mod_signtwist(m1, m3)
    assert not equal_mod_signtwist(m1, m1 * m)


# --- serialization ---------------------------------------------------------

def test_json_roundtrip_bit_exact():
    m = generator(B2, "A", 2, 1) * generator(B2, "Psi", 1, -3).pow(2)
    m = m.with_const(m.const.mul(ConstantFactor([Fraction(1, 2), 0], [2, 6])))
    s = m.dumps()
    back = LWeightMonomial.from_json(B2, __import__("json").loads(s))
    assert back == m
    assert back.dumps() == s


def test_json_rejects_out_of_range_node():
    for node in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            LWeightMonomial.from_json(B2, {"exps": [[node, 0, 1]]})


def test_json_drops_cancelling_exponents():
    # the constructor stores exps as given; from_json, which meets outside
    # input, is where a cancelling pair must vanish
    back = LWeightMonomial.from_json(B2, {"exps": [[1, 0, 1], [1, 0, -1]]})
    one = LWeightMonomial(B2)
    assert back.exps == {}
    assert back == one and hash(back) == hash(one) and back.key() == one.key()
    assert back.to_json() == one.to_json()


def _assert_zero_free(m):
    assert all(m.exps.values()), m.exps
    return m


@pytest.mark.parametrize("label", ALL_LABELS)
def test_no_stored_exponent_is_zero(label):
    # every builder the library uses hands the constructor a zero-free map,
    # including products and powers that cancel
    cd = build_cartan(label)
    rng = random.Random(f"zero-free:{label}")
    gens = [_assert_zero_free(generator(cd, kind, i, r))
            for kind in GENERATOR_KINDS for i in cd.nodes() for r in (-3, 0, 2)]
    for _ in range(40):
        m1, m2 = rng.choice(gens), rng.choice(gens)
        _assert_zero_free(m1.combine(m2, rng.choice((1, -1))))
        _assert_zero_free(m1.combine(m1, -1))
        _assert_zero_free(m1.pow(rng.choice((-2, -1, 0, 1, 3))))
        y = _random_ymap(rng, cd)
        _assert_zero_free(y_monomial(cd, tuple(sorted(y.items()))))
        for basis in ("Y", "A", "Lambda", "Psi"):
            _assert_zero_free(expand_in_basis(cd, basis, _random_vmap(rng, cd)))


# --- hypothesis property tests ----------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

_site = st.tuples(st.integers(1, 2), st.integers(-4, 4))
_vmaps = st.dictionaries(_site, st.integers(1, 3), max_size=4)


@settings(max_examples=40, deadline=None)
@given(_vmaps, st.sampled_from(["A", "Lambda"]), st.sampled_from(["A2", "B2"]))
def test_factor_roundtrip_property(vmap, basis, label):
    cd = {"A2": A2, "B2": B2}[label]
    m = expand_in_basis(cd, basis, vmap)
    assert factor_in_basis(m, basis) == vmap


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 2), st.integers(-5, 5), st.integers(-2, 2)),
             max_size=5),
    st.lists(st.tuples(st.integers(1, 2), st.integers(-5, 5), st.integers(-2, 2)),
             max_size=5),
)
def test_coweight_additivity_property(p1, p2):
    m1, m2 = psi(B2, *p1), psi(B2, *p2)
    assert (m1 * m2).coweight() == tuple(
        a + b for a, b in zip(m1.coweight(), m2.coweight())
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["Ytilde", "Psi"]),
                          st.integers(1, 2), st.integers(-4, 4)),
                min_size=1, max_size=5))
def test_dominant_product_closure_property(factors):
    m = LWeightMonomial(B2)
    for kind, i, r in factors:
        m = m * generator(B2, kind, i, r)
    assert is_dominant(m)


@pytest.mark.parametrize("order,basis", [("nakajima", "A"), ("zorder", "Lambda")])
def test_leq_certificate_is_nonnegative_or_none(order, basis):
    lo = generator(B2, "Y", 1, 0) * generator(B2, "Psi", 2, 3)
    v = {(1, 2): 1, (2, -1): 2}
    assert leq_certificate(lo, lo * expand_in_basis(B2, basis, v), order) == v
    assert leq_certificate(lo, lo, order) == {}
    # factorizable with a negative exponent, and not factorizable at all
    assert leq_certificate(lo, lo / generator(B2, basis, 1, 2), order) is None
    assert leq_certificate(lo, lo * generator(B2, "Psi", 1, 0), order) is None


# --- closed-form Y map against the expand_in_basis oracle -------------------

# r_i runs through 1, 2 and 3 over these types
Y_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "E6", "E7",
            "E8", "F4", "G2"]


def _random_ymap(rng, cd):
    """Signed Y-exponents with cancelling pairs Y_{i,t}^e Y_{i,t+2r_i}^{-e}
    (their shared Psi_{i,t+r_i} is popped) and an explicit zero."""
    y = {}
    for _ in range(rng.randint(0, 5)):
        key = (rng.choice(list(cd.nodes())), rng.randint(-8, 8))
        y[key] = y.get(key, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    for _ in range(rng.randint(0, 2)):
        i = rng.choice(list(cd.nodes()))
        t, e = rng.randint(-8, 8), rng.choice((-2, -1, 1, 2))
        y[(i, t)] = y.get((i, t), 0) + e
        y[(i, t + 2 * cd.ri(i))] = y.get((i, t + 2 * cd.ri(i)), 0) - e
    y[(rng.choice(list(cd.nodes())), 11)] = 0
    return y


@pytest.mark.parametrize("label", Y_LABELS)
def test_y_monomial_matches_oracle(label):
    cd = build_cartan(label)
    rng = random.Random(f"ymap:{label}")
    for y in [{}] + [_random_ymap(rng, cd) for _ in range(40)]:
        items = tuple(sorted(y.items()))
        key, want = y_key(cd, items), expand_in_basis(cd, "Y", y)
        assert key == want.key()
        for m in (y_monomial(cd, items), LWeightMonomial.from_key(cd, key)):
            assert m == want
            assert m.key() == want.key()
            # the key and hash are preset, and agree with a monomial built
            # without them
            assert hash(m) == hash(want) == hash(key)
            assert list(m.exps) == sorted(m.exps)
    for i in (0, -1, cd.n + 1):
        with pytest.raises(ValueError, match="out of range"):
            y_monomial(cd, (((i, 0), 1),))


@pytest.mark.parametrize("label", ["A2", "B3", "D4", "E6", "F4", "G2"])
def test_monomial_builds_agree_and_hash_alike(label):
    # one l-weight built four ways: y_monomial, the expand_in_basis oracle,
    # a combine of two halves, and a JSON round trip.  They are equal, and
    # their hashes agree whether the key was built before or by the hash
    cd = build_cartan(label)
    rng = random.Random(f"hash:{label}")
    for y in [{}] + [_random_ymap(rng, cd) for _ in range(20)]:
        items = sorted(y.items())
        half = len(items) // 2

        def builds():
            m = y_monomial(cd, tuple(items))
            return [
                m,
                expand_in_basis(cd, "Y", y),
                y_monomial(cd, items[:half]).combine(y_monomial(cd, items[half:])),
                LWeightMonomial.from_json(cd, m.to_json()),
            ]

        hashed_first = [hash(m) for m in builds()]
        keyed_first = builds()
        for m in keyed_first:
            m.key()
        assert hashed_first == [hash(m) for m in keyed_first]
        assert len(set(hashed_first)) == 1 and len(set(keyed_first)) == 1
        for m in keyed_first:
            assert m.to_json()["exps"] == [[i, r, e] for (i, r), e in sorted(m.exps.items())]


def test_shared_exponent_maps_stay_unchanged():
    # the constructor keeps the map it is given, so a caller that changed a
    # map after handing it over would leave a monomial whose cached hash and
    # key no longer match its exps.  Run FM expansions, a product and a
    # truncate search first, then rebuild every monomial from a copy
    made = []
    for label, i in [("D4", 2), ("E6", 1), ("G2", 2)]:
        made.append(qc_frenkel_mukhin(build_cartan(label), {(i, 0): 1}, 80))
    x1 = qc_frenkel_mukhin(B2, {(1, 0): 1}, 20)
    x2 = qc_frenkel_mukhin(B2, {(2, 3): 1}, 20)
    made.append(qc_mul(x1, x2))
    monomials = [m for x in made + [x1, x2] for m in [x.head, *x.terms]]
    z = TruncationData(B2, {1: [-2], 2: [-1]})  # truncate B2 --zroots "1:0;2:0"
    cands = enumerate_candidates(z, z.lam, (-1, 0))
    assert cands
    for c in cands:
        hash(c.psi)  # cache the hash before descent_refine reads psi
    monomials += [c.psi for c in cands + [descent_refine(z, c, 2) for c in cands]]
    for m in monomials:
        again = LWeightMonomial(m.cd, dict(m.exps), m.const)
        assert hash(m) == hash(again)
        assert m.key() == again.key()
        assert all(m.exps.values())
