import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

import pytest

from shiftedq.cartan import build_cartan
from shiftedq.kernel import poly_add
from shiftedq import modrep
from shiftedq.lweight import generator
from shiftedq.modrep import (
    ExplicitModule,
    build_module,
    check_coproduct,
    check_relations,
    component_series,
    t_series_ratio,
)
from shiftedq.scalars import PACK_WIDTH, ExactScalar, ONE, ZERO, qnum

A1 = build_cartan("A1")
B2 = build_cartan("B2")


def test_component_series_matches_geometric():
    # 1/(1 - z q): coefficients q^k
    ser = component_series(ONE, [], [1], 4, 1)
    for k in range(5):
        assert ser[k] == ExactScalar.q_power(k)
    # z^{-1} side: 1/(1-zq) = -z^{-1}q^{-1}(1 + (zq)^{-1} + ...)
    ser = component_series(ONE, [], [1], 3, -1)
    assert ser[-1] == -ExactScalar.q_power(-1)
    assert ser[-2] == -ExactScalar.q_power(-2)
    # polynomials agree in both directions
    sp = component_series(ONE, [2, -1], [], 4, 1)
    sm = component_series(ONE, [2, -1], [], 4, -1)
    assert sp == sm


def _expand_shifts(shifts):
    """prod_s (1 - z q^s) as {power of z: coefficient}."""
    poly = {0: ONE}
    for s in shifts:
        nxt = dict(poly)
        for k, c in poly.items():
            nxt[k + 1] = nxt.get(k + 1, ZERO) - c * ExactScalar.q_power(s)
        poly = nxt
    return poly


def test_component_series_multiplies_back():
    # den * series == const * num coefficientwise, as far as the modes reach
    rng = random.Random(7)
    for _ in range(150):
        zeros = [rng.randrange(-4, 5) for _ in range(rng.randrange(4))]
        poles = [rng.randrange(-4, 5) for _ in range(rng.randrange(4))]
        const = ExactScalar.q_power(rng.randrange(-3, 4)) * rng.choice((1, -1))
        nmodes = rng.randrange(6)
        num, den = _expand_shifts(zeros), _expand_shifts(poles)
        top = len(zeros) - len(poles)
        for direction, exps in ((1, range(nmodes + 1)),
                                (-1, range(len(zeros) - nmodes, len(zeros) + 1))):
            ser = component_series(const, zeros, poles, nmodes, direction)
            lo = 0 if direction == 1 else top - nmodes
            assert set(ser) <= set(range(lo, lo + nmodes + 1))
            assert all(ser.values())
            for e in exps:
                lhs = ZERO
                for l, d in den.items():
                    lhs = lhs + d * ser.get(e - l, ZERO)
                assert lhs == const * num.get(e, ZERO), (zeros, poles, direction, e)


def test_osc_verma_actions():
    m = build_module("osc_verma_plus", {"gamma_exp": 3}, cutoff=5)
    denom = ExactScalar.q_power(1) - ExactScalar.q_power(-1)
    # f.v_r = gamma q^{-r} [r+1]_q/(q-q^{-1}) v_{r+1}
    for r in range(4):
        want = ExactScalar.q_power(3 - r) * qnum(r + 1) / denom
        assert m.matrix("f")[(r + 1, r)] == want
    assert m.matrix("e")[(0, 1)] == ONE
    assert m.matrix("k")[(2, 2)] == ExactScalar.q_power(3 - 4)
    # truncation pollution: the top raising entry is dropped, flagged in note
    assert (5, 4) in m.matrix("f") and (6, 5) not in m.matrix("f")
    assert "polluted" in m.cutoff_note


@pytest.mark.parametrize("kind,gexp", [("osc_verma_plus", 2), ("osc_verma_minus", -1)])
def test_oscillator_relations(kind, gexp):
    m = build_module(kind, {"gamma_exp": gexp}, cutoff=8)
    rep = check_relations(m)
    assert rep["ok"], rep
    assert rep["weight_grading_ok"]


def test_eval_sl2_phi_eigenvalue_fixture():
    # phi^{+-}(z) v_j = gamma q^{-2j} (1-q^2 za)/((1-q^{2-2j}az)(1-q^{-2j}az)) v_j
    g, s = 1, 0
    m = build_module("eval_sl2", {"gamma_exp": g, "shift": s}, cutoff=3, mode_window=2)
    for j in range(3):
        want = component_series(
            ExactScalar.q_power(g - 2 * j), [s + 2], [s + 2 - 2 * j, s - 2 * j], 3, 1
        )
        for mm in range(3):
            got = m.matrix(("phi+", 1, mm)).get((j, j), ExactScalar.from_int(0))
            assert got == want.get(mm, ExactScalar.from_int(0))


def test_eval_sl2_relations():
    m = build_module("eval_sl2", {"gamma_exp": 1, "shift": 0}, cutoff=6, mode_window=3)
    rep = check_relations(m)
    assert rep["ok"], [f for f in rep["families"] if f["failures"]]


def test_psitilde_b2_relations():
    m = build_module("psitilde", {"type": "B2", "node": 1, "shift": 0},
                     cutoff=4, mode_window=2)
    rep = check_relations(m)
    assert rep["ok"], [f for f in rep["families"] if f["failures"]]
    fams = {f["family"] for f in rep["families"]}
    assert {"un", "deux", "trois", "hdd", "phix", "seq"} <= fams


def test_relation_with_no_live_word_reads_no_column(monkeypatch):
    # an instance whose every word has a missing or empty table acts by
    # zero: 2,674 column evaluations here, where reading every column of
    # every instance took 10,406
    calls = []
    real = modrep._residual

    def counted(walks, j):
        calls.append(j)
        return real(walks, j)

    monkeypatch.setattr(modrep, "_residual", counted)
    m = build_module("psitilde", {"type": "A2", "node": 2}, cutoff=6, mode_window=3)
    rep = check_relations(m)
    assert rep["ok"], [f for f in rep["families"] if f["failures"]]
    assert 0 < len(calls) <= 3000


def test_psistar_action_and_relations():
    m = build_module("psistar", {"type": "B2", "node": 1, "shift": 0}, mode_window=3)
    # x^-_{i,m} v_0 = a^m v_1 and x^+_{i,m} v_1 = a^m q_i^{-1} v_0
    assert m.matrix(("x-", 1, 2))[(1, 0)] == ONE  # a = q^0
    assert m.matrix(("x+", 1, 2))[(0, 1)] == ExactScalar.q_power(-2)
    rep = check_relations(m)
    assert rep["ok"], [f for f in rep["families"] if f["failures"]]


def test_module_entries_are_built_coprime():
    # the constructions take no gcd: each entry must already be in its
    # reduced() form, over both oscillator Vermas, eval_sl2 and every node
    # of psitilde / psistar (67 modules)
    mods = [build_module(kind, {"gamma_exp": g}, cutoff=6)
            for kind in ("osc_verma_plus", "osc_verma_minus") for g in range(-2, 3)]
    mods += [build_module("eval_sl2", {"gamma_exp": g, "shift": -g}, cutoff=6, mode_window=3)
             for g in range(-2, 3)]
    for t in ("A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4", "F4"):
        for i in build_cartan(t).nodes():
            mods.append(build_module("psitilde", {"type": t, "node": i, "shift": i % 2},
                                     cutoff=4, mode_window=2))
            mods.append(build_module("psistar", {"type": t, "node": i, "shift": -i},
                                     mode_window=2))
    assert len(mods) == 67
    fractions = 0  # entries whose denominator is not 1, where a gcd could cancel
    for mod in mods:
        for mat in mod.gens.values():
            for s in mat.values():
                r = s.reduced()
                assert (r.num, r.den) == (s.num, s.den), (mod.kind, mod.params, s)
                fractions += len(s.den) > 1
    assert fractions > 500, fractions


def test_psitilde_pmz_coefficient_check():
    # relation (trois)/(pmz) modes on v_m, m <= N-1, via an independent
    # symbolic evaluation of both sides
    mod = build_module("psitilde", {"type": "A1", "node": 1, "shift": 1},
                       cutoff=4, mode_window=2)
    denom = ExactScalar.q_power(1) - ExactScalar.q_power(-1)
    for r in (-2, 0, 2):
        for s in (-1, 1):
            for col in range(mod.size - 1):
                lhs = {}
                for (row, c), val in mod.matrix(("x+", 1, r)).items():
                    pass
                vec = mod.apply_word([("x+", 1, r), ("x-", 1, s)], col)
                vec2 = mod.apply_word([("x-", 1, s), ("x+", 1, r)], col)
                comm = {k: vec.get(k, ExactScalar.from_int(0)) - vec2.get(k, ExactScalar.from_int(0))
                        for k in set(vec) | set(vec2)}
                pp = mod.matrix(("phi+", 1, r + s)).get((col, col), ExactScalar.from_int(0))
                pm = mod.matrix(("phi-", 1, r + s)).get((col, col), ExactScalar.from_int(0))
                want = (pp - pm) / denom
                got = comm.get(col, ExactScalar.from_int(0))
                assert got == want
                assert all(not v for k, v in comm.items() if k != col)


def _dense_word(mod, word, j):
    """word applied to basis vector j by dense matrix-vector products."""
    vec = [ONE if r == j else ZERO for r in range(mod.size)]
    for sym in reversed(word):
        mat = mod.matrix(sym)
        vec = [sum((mat[(r, c)] * vec[c] for c in range(mod.size) if (r, c) in mat), ZERO)
               for r in range(mod.size)]
    return {r: v for r, v in enumerate(vec) if v}


def _tensor_module():
    """V(1) (x) W(-1) with Delta_+(e), Delta_+(f): two entries per column."""
    m1 = build_module("osc_verma_plus", {"gamma_exp": 1}, cutoff=2, mode_window=1)
    m2 = build_module("osc_verma_minus", {"gamma_exp": -1}, cutoff=2, mode_window=1)
    n = m2.size
    eye = {(j, j): ONE for j in range(n)}

    def kron(a, b):
        return {(r1 * n + r2, c1 * n + c2): s1 * s2
                for (r1, c1), s1 in a.items() for (r2, c2), s2 in b.items()}

    gens = {
        "e": poly_add(kron(m1.matrix("e"), eye), kron(m1.matrix("kinv"), m2.matrix("e"))),
        "f": poly_add(kron(m1.matrix("f"), m2.matrix("k")), kron(eye, m2.matrix("f"))),
        "k": kron(m1.matrix("k"), m2.matrix("k")),
    }
    return ExplicitModule(m1.cd, "osc_tensor", {}, m1.size * n, None, gens, 0,
                          dict.fromkeys(gens, 0))


def _cancelling_module():
    """A zero entry, and a split column whose two paths cancel under "a"."""
    v = ExactScalar({1: 1})
    gens = {"a": {(0, 0): ONE, (0, 1): -ONE, (2, 2): v},
            "b": {(0, 0): v, (1, 0): v, (2, 1): ONE, (1, 2): ZERO}}
    return ExplicitModule(A1, "hand", {}, 3, None, gens, 0, dict.fromkeys(gens, 0))


def _false_zero_module():
    """2**W - v, which is not zero but vanishes at v = 2**W (W = PACK_WIDTH),
    on a split column of "a" and on single paths of "a" and "b"."""
    z = ExactScalar({0: 2 ** PACK_WIDTH, 1: -1})
    gens = {"a": {(0, 0): z, (1, 0): ONE, (1, 1): z},
            "b": {(0, 1): ONE, (1, 1): z}}
    return ExplicitModule(A1, "false_zero", {}, 2, None, gens, 0, dict.fromkeys(gens, 0))


WORD_MODULES = [
    build_module("eval_sl2", {"gamma_exp": 1, "shift": 2}, cutoff=3, mode_window=1),
    build_module("psitilde", {"type": "A2", "node": 2, "shift": 1}, cutoff=2, mode_window=1),
    build_module("psitilde", {"type": "B2", "node": 1}, cutoff=2, mode_window=1),
    build_module("psistar", {"type": "B2", "node": 2, "shift": -1}, mode_window=1),
    build_module("osc_verma_plus", {"gamma_exp": 2}, cutoff=4),
    build_module("osc_verma_minus", {"gamma_exp": -1}, cutoff=4),
    _tensor_module(),
    _cancelling_module(),
    _false_zero_module(),
]


@pytest.mark.parametrize("mod", WORD_MODULES, ids=lambda m: m.kind)
def test_apply_word_matches_dense_product(mod):
    symbols = list(mod.gens) + ["absent"]
    words = [[]] + [[s] for s in symbols] + [list(w) for w in product(symbols, repeat=2)]
    for j in range(mod.size):
        for word in words:
            got = mod.apply_word(word, j)
            assert got == _dense_word(mod, word, j), (word, j)
            assert all(got.values()), (word, j)
    # only the hand-built modules reach the sparse fallback
    split = any(n > 1 for m in mod.gens.values() for n in Counter(c for _, c in m).values())
    assert split == (mod.kind in ("osc_tensor", "hand", "false_zero"))


def _tampered_eval_module():
    """eval_sl2 with x^-_{1,1} v_1 scaled by v: (trois), (hdd) and (phix) fail."""
    mod = build_module("eval_sl2", {"gamma_exp": 1, "shift": 0}, cutoff=4, mode_window=2)
    gens = dict(mod.gens)
    sym = ("x-", 1, 1)
    gens[sym] = dict(gens[sym])
    gens[sym][(2, 1)] = gens[sym][(2, 1)] * ExactScalar({1: 1})
    return ExplicitModule(mod.cd, mod.kind, mod.params, mod.size, mod.weights,
                          gens, mod.mode_window, mod.upshift, lweights=mod.lweights)


def _dense_residual(mod, products, j):
    acc = {}
    for coeff, word in products:
        for r, v in _dense_word(mod, word, j).items():
            acc[r] = acc.get(r, ZERO) + coeff * v
    return {r: v for r, v in acc.items() if v}


def _random_relations(mod, rng):
    """40 linear combinations of words of length 0-3, absent symbols
    included, and one whose 2**80 and -2**80 terms on the same word cancel
    exactly."""
    symbols = list(mod.gens) + ["absent"]
    big, minus_big = ExactScalar.from_int(2 ** 80), ExactScalar.from_int(-2 ** 80)
    coeffs = [ONE, -ONE, ExactScalar.q_power(1), qnum(2), 2 - ExactScalar({-3: 1}),
              ONE / (ExactScalar.q_power(1) - ExactScalar.q_power(-1)),
              ExactScalar.from_int(Fraction(3, 2)), big, minus_big]
    rels = [[(rng.choice(coeffs), [rng.choice(symbols) for _ in range(rng.randrange(4))])
             for _ in range(rng.randrange(1, 5))]
            for _ in range(40)]
    word = [rng.choice([s for s in symbols if mod.gens.get(s)]) for _ in range(2)]
    return rels + [[(big, word), (minus_big, word)]]


@pytest.mark.parametrize("mod,suite", [(m, False) for m in WORD_MODULES]
                         + [(_tampered_eval_module(), True)],
                         ids=[m.kind for m in WORD_MODULES] + ["tampered"])
def test_residual_walk_matches_dense_product(monkeypatch, mod, suite):
    # random relations on every module of the apply_word test, and the
    # Drinfeld suite of a tampered module, where some instances fail; the
    # 2**80 coefficients send some walks through a wider packing
    widths = set()
    resolve = modrep._resolve

    def recorded(mod, products, width=PACK_WIDTH, packs=None):
        widths.add(width)
        return resolve(mod, products, width, packs)

    monkeypatch.setattr(modrep, "_resolve", recorded)
    relations = _random_relations(mod, random.Random(13))
    if suite:
        relations += [p for _, _, p in modrep._drinfeld_relations(mod)]
    failing = 0
    for products in relations:
        dense = [_dense_residual(mod, products, j) for j in range(mod.size)]
        walks = modrep._resolve(mod, products)[1]
        for j in range(mod.size):
            got = modrep._residual(walks, j)
            assert got == dense[j], (products, j)
            assert all(got.values()), (products, j)
        # the verdict: the first unpolluted column with a nonzero residual
        maxup = max((max(accumulate((mod.upshift.get(s, 0) for s in reversed(w)),
                                    initial=0))
                     for _, w in products), default=0)
        top = mod.size - 1 - maxup
        bad = [j for j in range(top + 1) if dense[j]]
        res = modrep._check_products(mod, products)
        if not bad:
            assert res == {"ok": True, "columns": max(top + 1, 0)}
            continue
        failing += 1
        j, row = bad[0], min(dense[bad[0]])
        assert res == {"ok": False, "witness": {
            "column": j, "row": row, "value": repr(dense[j][row])}}
    assert failing
    assert min(widths) == PACK_WIDTH < max(widths)


def test_failure_witness_pinned():
    # x^-_{1,1} v_1 scaled by v breaks (trois), (hdd) and (phix); no timed
    # suite fails, so the report, witnesses included, is pinned here
    bad = _tampered_eval_module()
    rep = check_relations(bad)
    assert not rep["ok"]
    assert {f["family"] for f in rep["families"] if f["failures"]} == {"hdd", "phix", "trois"}
    data = json.dumps(rep, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(data).hexdigest() == (
        "3278384249cbbb46fb1b69e217b819980df91e8ec4c086343801424b16129145")


def test_relation_walk_makes_no_scalar_products(monkeypatch):
    # the walk multiplies and adds packed ints: once the module is built, an
    # eval_sl2 suite makes no ExactScalar product or sum (the ExactScalar
    # walk made 23,436 and 8,368)
    mod = build_module("eval_sl2", {}, cutoff=8, mode_window=4)
    calls = Counter()

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(self, other, _name=name, _op=getattr(ExactScalar, name)):
            calls[_name] += 1
            return _op(self, other)

        monkeypatch.setattr(ExactScalar, name, counted)
    rep = check_relations(mod)
    assert rep["ok"]
    assert sum(f["instances"] for f in rep["families"]) == 621
    assert not calls, calls


def test_vacuous_instances_reported_unchecked():
    # at cutoff 1 the x^- words of (hdd) raise v_0 twice, past the cutoff,
    # so those 16 instances have no column to be checked on
    rep = check_relations(build_module("eval_sl2", {}, cutoff=1, mode_window=2))
    assert rep["ok"]
    fams = {f["family"]: f for f in rep["families"]}
    assert (fams["hdd"]["instances"], fams["hdd"]["unchecked"]) == (32, 16)
    assert [n for n, f in fams.items() if "unchecked" in f] == ["hdd"]
    # the benchmark's size leaves every instance a column
    rep = check_relations(build_module("eval_sl2", {}, cutoff=8, mode_window=4))
    assert all("unchecked" not in f for f in rep["families"])


@pytest.mark.parametrize("kind,params", [
    ("eval_sl2", {}),
    ("psitilde", {"type": "B2", "node": 1}),
    ("psistar", {"type": "A2", "node": 1}),
])
@pytest.mark.parametrize("window", [1, 2, 3])
def test_relation_instances_are_distinct(kind, params, window):
    mod = build_module(kind, params, cutoff=3, mode_window=window)
    rels = list(modrep._drinfeld_relations(mod))
    distinct = {(name, info) for name, info, _ in rels}
    assert len(rels) == len(distinct)
    rep = check_relations(mod)
    assert sum(f["instances"] for f in rep["families"]) == len(distinct)


def test_invalid_module_params():
    with pytest.raises(ValueError):
        build_module("nope")
    with pytest.raises(ValueError):
        build_module("eval_sl2", {}, cutoff=0)


@pytest.mark.parametrize("kind", ["psitilde", "psistar"])
@pytest.mark.parametrize("node", [0, 5])
def test_build_module_node_out_of_range(kind, node):
    with pytest.raises(ValueError, match=f"node {node} out of range for A2"):
        build_module(kind, {"type": "A2", "node": node})


def test_coproducts():
    assert check_coproduct(+1, 2, -1, cutoff=5)["ok"]
    assert check_coproduct(-1, 0, 3, cutoff=5)["ok"]


@pytest.mark.parametrize("sign,digest", [
    (1, "b540ae4c18e49fee1ea7cacd28c2ec0c1233bb4610f81642bd84c76c12237d2c"),
    (-1, "48dc543e4118024d73af62f7c12df71cd81b2f042b2e90321b9603c5d72c7f11"),
])
def test_coproduct_failure_witness_pinned(monkeypatch, sign, digest):
    # f v_1 of the minus Verma scaled by v breaks (ef) on the tensor module;
    # every timed coproduct suite passes, so the failing report is pinned here
    real = modrep.build_module

    def tampered(kind, params=None, cutoff=8, mode_window=4):
        mod = real(kind, params, cutoff, mode_window)
        if kind != "osc_verma_minus":
            return mod
        gens = dict(mod.gens, f=dict(mod.gens["f"]))
        gens["f"][(2, 1)] = gens["f"][(2, 1)] * ExactScalar({1: 1})
        return ExplicitModule(mod.cd, mod.kind, mod.params, mod.size, mod.weights,
                              gens, mod.mode_window, mod.upshift)

    monkeypatch.setattr(modrep, "build_module", tampered)
    rep = check_coproduct(sign, 2, -1, cutoff=5)
    assert not rep["ok"]
    assert [f["family"] for f in rep["families"]] == ["kkinv", "ke", "kf", "ef"]
    assert [f["family"] for f in rep["families"] if f["failures"]] == ["ef"]
    assert "instance" not in rep["families"][-1]["failures"][0]
    data = json.dumps(rep, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(data).hexdigest() == digest


# --- T-series ratios --------------------------------------------------------

def test_t_ratio_trivial():
    head = generator(A1, "Y", 1, 0)
    r = t_series_ratio(head, head, 1)
    assert r == {"minus_roots": [], "plus_roots": []}


def test_t_ratio_square_head_weight_zero():
    # L(Y^2), weight-0 path A_{1,q}^{-1}: T^- ratio (1 - z q^{-1})
    head = generator(A1, "Y", 1, 0).pow(2)
    target = head.combine(generator(A1, "A", 1, 1), -1)
    r = t_series_ratio(target, head, 1)
    assert r["minus_roots"] == [-1]
    assert r["plus_roots"] == [1]


def test_t_ratio_neg_prefund_ladder():
    # path A_{1,1} A_{1,q^{-2}} ... : (1-z^{-+1})^{-+1}(1-z^{-+1}q^{-+2})^{-+1}...
    head = generator(A1, "Psi", 1, 0).pow(-1)
    cur = head
    for j in range(1, 4):
        cur = cur.combine(generator(A1, "A", 1, -2 * (j - 1)), -1)
        r = t_series_ratio(cur, head, 1)
        assert r["minus_roots"] == sorted(2 * l for l in range(j))
        assert r["plus_roots"] == sorted(-2 * l for l in range(j))


def test_t_ratio_multiplicative_along_paths():
    head = generator(B2, "Y", 1, 0) * generator(B2, "Y", 2, 1)
    mid = head.combine(generator(B2, "A", 1, 2), -1)
    bot = mid.combine(generator(B2, "A", 1, -2), -1).combine(
        generator(B2, "A", 2, 0), -1
    )
    r_head_mid = t_series_ratio(mid, head, 1)
    r_mid_bot = t_series_ratio(bot, mid, 1)
    r_full = t_series_ratio(bot, head, 1)
    assert sorted(r_head_mid["minus_roots"] + r_mid_bot["minus_roots"]) == r_full["minus_roots"]


def test_t_ratio_incomparable_rejected():
    head = generator(A1, "Y", 1, 0)
    above = head * generator(A1, "A", 1, 1)
    with pytest.raises(ValueError):
        t_series_ratio(above, head, 1)


# --- reference operator-matrix fixtures --------------------------------------

def _zpoly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = out.get(k, ExactScalar.from_int(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def test_matrix_fixture_diagonal_matches_t_ratio():
    from support import load_matrix_fixture
    from shiftedq.qchar import qc_frenkel_mukhin

    fx = load_matrix_fixture()
    tmin = fx["t_minus_ratio"]["entries"]
    heights = fx["weights_alpha_heights"]
    # the diagonal is (1 - z q^{-1})^{ht} per alpha-height, as produced by
    # the T-series eigenvalue ratios on L(Y^2)
    x = qc_frenkel_mukhin(A1, {(1, 0): 2}, 8)
    head = x.head
    by_h = {}
    for m in x.terms:
        path = x.paths[m]
        by_h[sum(path.values())] = t_series_ratio(m, head, 1)
    for j in range(4):
        h = heights[j]
        ratio = by_h[h]
        assert ratio["minus_roots"] == [-1] * h
        want = {0: ONE}
        for root in ratio["minus_roots"]:
            want = _zpoly_mul(want, {0: ONE, 1: -ExactScalar.q_power(root)})
        assert tmin[(j, j)] == want


def test_matrix_fixture_constant_operator_not_diagonalizable():
    from support import load_matrix_fixture

    fx = load_matrix_fixture()
    cop = fx["constant_operator"]["entries"]
    assert cop[(1, 2)] == {0: ONE}  # nilpotent part: a genuine Jordan block
    assert cop[(1, 1)] == cop[(2, 2)] == {0: -ExactScalar.q_power(-1)}
    assert cop[(3, 3)] == {0: ExactScalar.q_power(-2)}


def test_matrix_fixture_truncation_series_relations():
    # A^{Z,+}(z) = (z q^{-1})^2 A^{Z,-}(z) and A^+(0) A^-(inf) = q^2 Id
    from support import load_matrix_fixture

    fx = load_matrix_fixture()
    am = fx["a_minus_shifted"]["entries"]
    ap = fx["a_plus_shifted"]["entries"]
    keys = set(am) | set(ap)
    for rc in keys:
        lhs = ap.get(rc, {})
        rhs = {k + 2: v for k, v in am.get(rc, {}).items()}  # (zq q^{-1})^2 = z^2
        assert lhs == rhs, rc
    for j in range(4):
        a0 = ap[(j, j)].get(0)
        ainf = am[(j, j)].get(0)
        assert a0 * ainf == ExactScalar.q_power(2)
    # off-diagonal nilpotent entries cancel in the product at the ends
    assert ap[(1, 2)].get(0) is None
