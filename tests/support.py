"""Test-side helpers and oracles that no library code calls."""

import json
import os
from fractions import Fraction
from itertools import permutations, product as iproduct

from shiftedq.cartan import a_in_y, basis_generator, invert_quantum_cartan
from shiftedq.langlands import psi_of_monomial
from shiftedq.lweight import LWeightMonomial, generator, leq_certificate
from shiftedq import modrep
from shiftedq.modrep import PHI_MINUS, PHI_PLUS, X_MINUS, X_PLUS, _poly_from_shifts
from shiftedq.qchar import (
    FMBudgetError,
    FMError,
    _first_difference,
    _string_eigen_terms,
    _string_products,
    _strings,
    qc_closed_form,
    qc_monomial,
    qc_mul,
)
from shiftedq import truncation
from shiftedq.scalars import (PACK_WIDTH, ONE, ExactScalar, fit_width, pack, packed_add,
                              packed_mul, qbinom, unpack)
from shiftedq.truncation import abar_eigenvalue

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# ---------------------------------------------------------------------------
# rank-1 special position of KR and prefundamental supports
# ---------------------------------------------------------------------------

def is_qset(shifts, step=2):
    """Is the set of shifts {a q^{step k}} an interval in its lattice?"""
    if not shifts:
        return True
    s = sorted(set(shifts))
    return all((b - a) == step for a, b in zip(s, s[1:]))


def kr_special_position(kr1, kr2, step=2):
    """KR Y-support special position: union a q-set containing both properly."""
    s1, s2 = set(kr1), set(kr2)
    u = s1 | s2
    return is_qset(u, step) and s1 < u and s2 < u


def kr_prefund_special_position(kr, b, step=2):
    """W-support vs positive prefundamental ladder {b+step/2 + step*k}."""
    if not kr:
        return False
    lo = b + step // 2
    hi = max(max(kr), lo) + step
    ladder = set(range(lo, hi + 1, step))
    u = set(kr) | ladder
    return is_qset(u, step) and set(kr) < u and ladder < u


# ---------------------------------------------------------------------------
# series cross-check of the truncation eigenvalue
# ---------------------------------------------------------------------------

def abar_series_oracle(z, psi, i, order=8):
    """Independent series cross-check of the eigenvalue: expand
    exp(sum_{j,m>0,u} Ctilde_{j,i}(q^m) nu_{j,u} q^{um} z^m / (-m))
    to the given order and compare with the product polynomial."""
    cd = z.cd
    diff = z.z_monomial().combine(psi, -1)
    ctil = invert_quantum_cartan(cd)

    def subst(s, m):
        # q -> q^m on an ExactScalar (exponent scaling)
        s = s.reduced()
        num = {e * m: c for e, c in s.num.items()}
        den = {e * m: c for e, c in s.den.items()}
        return ExactScalar(num, den)

    # series coefficients s_m of log Ybar
    s = [None] * (order + 1)
    for m in range(1, order + 1):
        acc = ExactScalar.from_int(0)
        for (j, u), nu in diff.exps.items():
            c = subst(ctil[j - 1][i - 1], m)
            acc = acc + c * ExactScalar.q_power(u * m) * Fraction(nu, -m)
        s[m] = acc.reduced()
    # exponentiate: E_0 = 1, E_k = (1/k) sum_{m<=k} m s_m E_{k-m}
    E = [ONE]
    for k in range(1, order + 1):
        acc = ExactScalar.from_int(0)
        for m in range(1, k + 1):
            acc = acc + Fraction(m, k) * s[m] * E[k - m]
        E.append(acc.reduced())
    ev = abar_eigenvalue(z, psi, i)
    if ev is None:
        return {"ok": False, "reason": "no nonnegative Lambda factorization"}
    # product polynomial at z (roots shifted back by +r_i): Ybar(z) has roots q^u
    poly = _poly_from_shifts([r + cd.ri(i) for r in ev["roots"]])
    ok = True
    for k in range(order + 1):
        want = poly[k] if k < len(poly) else ExactScalar.from_int(0)
        if E[k] != want:
            ok = False
            break
    return {"ok": ok, "order": order, "roots": ev["roots"]}


# ---------------------------------------------------------------------------
# usable Lambda sites: the windowed closure and a bounded fixpoint
# ---------------------------------------------------------------------------

def _window(z, a):
    """The shifts within 6 sum(a) + 6 of the Z-roots."""
    ms = [m for i in z.cd.nodes() for m in z.zroots[i]]
    if not ms:
        return range(0, 0)
    pad = 6 * sum(a) + 6
    return range(min(ms) - pad, max(ms) + pad + 1)


def _chain_reach(cd):
    """A usable site (j, uj) makes (i, uj + d) usable, for (i, d) in
    reach[j]: the negative entries (i, o) of Lambda_{j,q^0}, d = o - r_i."""
    return {j: [(i, o - cd.ri(i))
                for (i, o), c in basis_generator(cd, "Lambda", j)[0].items() if c < 0]
            for j in cd.nodes()}


def usable_lambda_sites_reference(z, a):
    """Reference for truncation.usable_lambda_sites: the chain closure from
    the Z-roots with no length bound, cut only by the window of _window.
    Every site the bounded closure admits lies in it (a step moves a shift
    by at most 5, and 5 (sum(a) - 1) < 6 sum(a) + 6)."""
    cd = z.cd
    win = _window(z, a)
    reach = _chain_reach(cd)
    usable = {i: set(z.zroots[i]) for i in cd.nodes()}
    todo = [(j, uj) for j in cd.nodes() for uj in usable[j]]
    while todo:
        j, uj = todo.pop()
        for i, d in reach[j]:
            u = uj + d
            if u in win and u not in usable[i]:
                usable[i].add(u)
                todo.append((i, u))
    return {i: sorted(usable[i]) for i in cd.nodes()}


def usable_lambda_sites_fixpoint(z, a):
    """Oracle for truncation.usable_lambda_sites: sum(a) - 1 rounds, each
    rescanning every usable site of every node for one chain step."""
    cd = z.cd
    reach = _chain_reach(cd)
    usable = {i: set(z.zroots[i]) for i in cd.nodes()}
    for _ in range(sum(a) - 1):
        before = {i: list(us) for i, us in usable.items()}
        for j in cd.nodes():
            for i, d in reach[j]:
                usable[i].update(uj + d for uj in before[j])
    return {i: sorted(usable[i]) for i in cd.nodes()}


def checked_usable_sites(calls):
    """truncation.usable_lambda_sites, asserting on every call that it
    equals usable_lambda_sites_fixpoint; each call appends its (z, a) to
    calls."""
    bounded = truncation.usable_lambda_sites

    def checked(z, a):
        out = bounded(z, a)
        assert out == usable_lambda_sites_fixpoint(z, a)
        calls.append((z, a))
        return out

    return checked


# ---------------------------------------------------------------------------
# the Frenkel-Mukhin loop with no per-call table
# ---------------------------------------------------------------------------

def fm_expand_reference(cd, head_y, depth, require_complete=False):
    """Reference for qchar.fm_expand: the same completion with the string
    products enumerated afresh for every node part of every term, at the
    term's remaining depth, and each child's path built whether or not the
    child is new.

    head_y: {(i, t): exp >= 0} meaning prod Y_{i,q^t}^{exp}, every i a node
    of cd (FMError otherwise).  Returns (state, complete): state maps the
    sorted Y-exponent tuple of each term, head first, to [multiplicity,
    A^{-1}-path {(i, s): count}, A^{-1}-distance from the head]; complete
    is False when a string product longer than the remaining depth was
    dropped, which raises FMBudgetError under require_complete.

    Each term's sorted key is read once, grouped by node, and every node
    without a negative exponent is expanded by its q-string products; a
    child's Y-exponents are its parent's key, read as a dict, times the
    product's A^{-1} factors.  A
    term reached again with a larger multiplicity takes it and is queued
    again (the `max` merge of ROADMAP item 1).
    """
    head_y = {k: e for k, e in head_y.items() if e}
    if any(e < 0 for e in head_y.values()):
        raise FMError("head must be a dominant Y-monomial")
    nodes = cd.nodes()
    for i, _t in head_y:
        if i not in nodes:
            raise FMError(f"head node {i} out of range for {cd.type_label}")
    # per node: the string step 2 r_i and the items of A_{i,q^0} in Y
    node_data = {i: (2 * cd.ri(i), tuple(a_in_y(cd, i).items())) for i in nodes}

    head_key = tuple(sorted(head_y.items()))
    state = {head_key: [1, {}, 0]}
    frontier = [head_key]
    truncated = False
    while frontier:
        new_frontier = []
        queued = set()
        for k in frontier:
            mult, path, w = state[k]
            y = dict(k)
            by_node = {}
            for (j, t), e in k:
                u = by_node.get(j)
                if u is None:
                    by_node[j] = {t: e}
                else:
                    u[t] = e
            for i, u in by_node.items():
                if min(u.values()) < 0:
                    continue
                step, a_items = node_data[i]
                products = _string_products(
                    [_string_eigen_terms(top, kk, step) for top, kk in _strings(u, step)],
                    depth - w,
                )
                # the longest product takes every string whole
                truncated = truncated or sum(u.values()) > depth - w
                for shifts, c in products.items():
                    if not shifts:
                        continue
                    ny = dict(y)
                    npath = dict(path)
                    for s in shifts:
                        for (j, o), e in a_items:
                            t = s + o
                            v = ny.get((j, t), 0) - e
                            if v:
                                ny[(j, t)] = v
                            else:
                                ny.pop((j, t), None)
                        npath[(i, s)] = npath.get((i, s), 0) + 1
                    nk = tuple(sorted(ny.items()))
                    need = mult * c
                    cur = state.get(nk)
                    if cur is None:
                        state[nk] = [need, npath, w + len(shifts)]
                    elif cur[0] < need:
                        cur[0] = need
                    else:
                        continue
                    if nk not in queued:
                        queued.add(nk)
                        new_frontier.append(nk)
        frontier = new_frontier
    if require_complete and truncated:
        raise FMBudgetError(
            f"expansion of {head_y} did not close within depth {depth}"
        )
    return state, not truncated


# ---------------------------------------------------------------------------
# q-character payload tree and identity margins, per term
# ---------------------------------------------------------------------------

def qchar_tree(x):
    """Reference for QCharacter.dumps: the payload as a tree, its terms
    sorted by (Psi items, const JSON); json.dumps(tree, sort_keys=True,
    separators=(",", ":")) is the canonical text."""
    consts = {}
    rows = []
    for (items, q, z), c, _p in x.entries:
        if (cj := consts.get((q, z))) is None:
            cj = consts[q, z] = [[e.numerator, e.denominator, s] for e, s in zip(q, z)]
        rows.append(([[i, r, e] for (i, r), e in items], cj, c))
    rows.sort()
    out = {
        "head": x.head.to_json(),
        "depth": x.depth,
        "complete": x.complete,
        "terms": [[{"exps": ex, "const": cj}, c] for ex, cj, c in rows],
    }
    if x.heuristic:
        out["heuristic"] = True
    return out


def qchar_tree_text(x):
    return json.dumps(qchar_tree(x), sort_keys=True, separators=(",", ":"))


def compare_on_margin_reference(lhs_terms, rhs_terms, ref_head, margin):
    """Reference for qchar._compare_on_margin: one leq_certificate per term
    of two {monomial: multiplicity} maps, kept inside distance <= margin of
    ref_head.  Returns (equal, witness)."""
    def slice_of(terms):
        out = {}
        for m, c in terms.items():
            p = leq_certificate(m, ref_head)
            if p is not None and sum(p.values()) <= margin:
                out[m] = c
        return out

    witness = _first_difference(slice_of(lhs_terms), slice_of(rhs_terms), "term",
                                LWeightMonomial.to_json)
    return witness is None, witness


def qqtilde_sides(cd, i, r, depth):
    """The two sides of check_identity's QQtilde at (i, r, depth): lhs, the
    rhs character x2 and the extra rhs term m2."""
    ri = cd.ri(i)
    lhs = qc_mul(qc_closed_form(cd, "psitilde", i, r, depth),
                 qc_monomial(generator(cd, "Psi", i, r)))
    tw = LWeightMonomial(cd, {}, cd.alpha_bar(i).inv())
    x2 = qc_mul(qc_closed_form(cd, "psitilde", i, r - 2 * ri, depth),
                qc_monomial(generator(cd, "Psi", i, r + 2 * ri) * tw))
    m2 = generator(cd, "PsiTilde", i, r) * generator(cd, "Psi", i, r)
    return lhs, x2, m2


def qqtilde_reference(cd, i, r, depth, x2=None):
    """check_identity(cd, "QQtilde", i, r, depth) with the per-term
    comparison, x2 optionally replaced (a tampered right-hand side)."""
    lhs, own_x2, m2 = qqtilde_sides(cd, i, r, depth)
    rhs_terms = dict((own_x2 if x2 is None else x2).terms)
    rhs_terms[m2] = rhs_terms.get(m2, 0) + 1
    margin = depth - 1
    ok, witness = compare_on_margin_reference(lhs.terms, rhs_terms, lhs.head, margin)
    return {"identity": "QQtilde", "ok": ok, "margin": margin, "witness": witness}


# ---------------------------------------------------------------------------
# Z-order invariant of the dual character
# ---------------------------------------------------------------------------

def zorder_bound_holds(zexps, z):
    """Hard invariant: Psi_M <=_Z Z for every dual-character monomial."""
    psi = psi_of_monomial(zexps, z)
    return leq_certificate(psi, z.z_monomial(), "zorder") is not None


# ---------------------------------------------------------------------------
# reference operator-matrix fixtures (JSON scalar encoding)
# ---------------------------------------------------------------------------

def _scalar_from_json(data):
    num = {int(e): Fraction(n, d) for e, n, d in data["num"]}
    den = {int(e): Fraction(n, d) for e, n, d in data["den"]}
    return ExactScalar(num, den)


def load_matrix_fixture(name="square_head_t_matrices"):
    """Load a fixture of exact operator matrices.

    Matrices are {"size": n, "entries": [[row, col, poly], ...]} with poly a
    list of [z_power, scalar] pairs; returns dicts {(r, c): {zpow: scalar}}.
    """
    with open(os.path.join(FIXTURES, f"{name}.json")) as f:
        raw = json.load(f)
    out = {"weights_alpha_heights": raw.get("weights_alpha_heights")}
    for key, mat in raw.items():
        if not isinstance(mat, dict) or "entries" not in mat:
            continue
        entries = {}
        for r, c, poly in mat["entries"]:
            entries[(r, c)] = {int(k): _scalar_from_json(s) for k, s in poly}
        out[key] = {"size": mat["size"], "entries": entries}
    return out


# ---------------------------------------------------------------------------
# relation suites instance by instance, every word built and walked
# ---------------------------------------------------------------------------

def _drinfeld_instances(mod):
    """(name, info, products) of every Drinfeld relation instance, each with
    all of its words, whether or not they act by zero."""
    cd = mod.cd
    M = mod.mode_window
    modes = range(-M, M + 1)
    minus_one = ExactScalar.from_int(-1)

    def phi(eps, i, m):
        return (PHI_PLUS if eps > 0 else PHI_MINUS, i, m)

    def q_commutator(neg_qb, u1, w0, u0, w1):
        return [(ONE, [u1, w0]), (neg_qb, [w0, u1]), (neg_qb, [u0, w1]), (ONE, [w1, u0])]

    nodes = cd.nodes()
    for i in nodes:
        for jn in nodes:
            for e1, e2 in ((1, 1), (1, -1)):
                for m1 in dict.fromkeys((-1, 0, 1, M)):
                    for m2 in (0, 1, -M):
                        yield ("un", (i, jn, e1, m1, e2, m2),
                               [(ONE, [phi(e1, i, m1), phi(e2, jn, m2)]),
                                (minus_one, [phi(e2, jn, m2), phi(e1, i, m1)])])
    for i in nodes:
        lead_minus = mod.lweights[0].coweight()[i - 1] if mod.lweights else 0
        leads = ((1, (PHI_PLUS, i, 0), "+0"), (-1, (PHI_MINUS, i, lead_minus), "-lead"))
        for jn in nodes:
            for sgn, xop in ((1, X_PLUS), (-1, X_MINUS)):
                neg_qds = [-ExactScalar.q_power(eps * sgn * cd.ri(i) * cd.c(i, jn))
                           for eps, _, _ in leads]
                for r in modes:
                    for (_, ph, tag), neg_qd in zip(leads, neg_qds):
                        yield ("deux", (i, jn, xop, r, tag),
                               [(ONE, [ph, (xop, jn, r)]), (neg_qd, [(xop, jn, r), ph])])
    for i in nodes:
        inv = ONE / (ExactScalar.q_power(cd.ri(i)) - ExactScalar.q_power(-cd.ri(i)))
        neg_inv = -inv
        for jn in nodes:
            for r in modes:
                for s in modes:
                    p = [(ONE, [(X_PLUS, i, r), (X_MINUS, jn, s)]),
                         (minus_one, [(X_MINUS, jn, s), (X_PLUS, i, r)])]
                    if i == jn:
                        p += [(neg_inv, [phi(1, i, r + s)]), (inv, [phi(-1, i, r + s)])]
                    yield ("trois", (i, jn, r, s), p)
    for i in nodes:
        for jn in nodes:
            for sgn, xop in ((1, X_PLUS), (-1, X_MINUS)):
                neg_qb = -ExactScalar.q_power(sgn * cd.b(i, jn))
                for r in range(-M, M):
                    for s in range(-M, M):
                        yield ("hdd", (i, jn, xop, r, s), q_commutator(
                            neg_qb, (xop, i, r + 1), (xop, jn, s), (xop, i, r), (xop, jn, s + 1)))
    for i in nodes:
        for jn in nodes:
            for sgn, xop in ((1, X_PLUS), (-1, X_MINUS)):
                neg_qb = -ExactScalar.q_power(sgn * cd.b(i, jn))
                for eps in (1, -1):
                    for a in range(-M - 1, M + 2):
                        for bb in range(-M + 1, M + 1):
                            yield ("phix", (i, jn, xop, eps, a, bb), q_commutator(
                                neg_qb, phi(eps, i, a), (xop, jn, bb - 1),
                                phi(eps, i, a - 1), (xop, jn, bb)))
    for i in nodes:
        for jn in nodes:
            cij = cd.c(i, jn)
            if i == jn or cij >= 0:
                continue
            s = 1 - cij
            coeffs = [(-1) ** rr * qbinom(s, rr, cd.ri(i)) for rr in range(s + 1)]
            for xop in (X_PLUS, X_MINUS):
                # the one trivial instance when a node's x(0), x(1) act by zero
                if any(all(not mod.gens.get((xop, nn, m)) for m in (0, 1))
                       for nn in (i, jn)):
                    yield ("seq", (i, jn, xop, "trivial"), [])
                    continue
                for mtuple in set(iproduct((0, 1), repeat=s)):
                    p = []
                    for pi in set(permutations(range(s))):
                        for rr, coeff in enumerate(coeffs):
                            word = ([(xop, i, mtuple[pi[t]]) for t in range(rr)]
                                    + [(xop, jn, 0)]
                                    + [(xop, i, mtuple[pi[t]]) for t in range(rr, s)])
                            p.append((coeff, word))
                    yield ("seq", (i, jn, xop, mtuple), p)


def _packed_tables(mod, width):
    """{symbol: {col: [(row, packed entry)]}} of every generator."""
    out = {}
    for sym, mat in mod.gens.items():
        cols = out[sym] = {}
        for (r, c), s in mat.items():
            cols.setdefault(c, []).append((r, pack(s, width)))
    return out


def _reference_walks(tables, products, width, packs=None):
    """(packed coeff, tables rightmost first) of each word whose tables
    (_packed_tables at v = 2**width) are all present and nonempty; packs
    keeps each coefficient object packed once, {id: (coeff, packed)}."""
    packs = {} if packs is None else packs
    walks = []
    for coeff, word in products:
        ts = [tables.get(sym) for sym in reversed(word)]
        if all(ts):
            if id(coeff) not in packs:
                packs[id(coeff)] = (coeff, pack(coeff, width))
            walks.append((packs[id(coeff)][1], ts))
    return walks


def _reference_residual(mod, products, walks, j, width=PACK_WIDTH):
    """{row: ExactScalar} of the nonzero rows of sum coeff * word v_j.  A
    word walks one (row, packed scalar) pair from its coefficient until a
    column has two entries, then a sparse vector; a row whose bound reaches
    2**(W-1) sends the relation through a wider packing."""
    acc = {}
    for val, ts in walks:
        row = j
        for k, cols in enumerate(ts):
            entries = cols.get(row)
            if not entries:
                break
            if len(entries) > 1:
                vec = {row: val}
                for cols in ts[k:]:
                    out = {}
                    for c, v in vec.items():
                        for r, s in cols.get(c, ()):
                            p = packed_mul(s, v)
                            out[r] = p if r not in out else packed_add(out[r], p, width)
                    vec = out
                for r, v in vec.items():
                    acc[r] = v if r not in acc else packed_add(acc[r], v, width)
                break
            row, s = entries[0]
            val = packed_mul(s, val)
        else:
            acc[row] = val if row not in acc else packed_add(acc[row], val, width)
    if any(p[3] >> (width - 1) for p in acc.values()):
        wide = fit_width(max(p[3] for p in acc.values()))
        walks = _reference_walks(_packed_tables(mod, wide), products, wide)
        return _reference_residual(mod, products, walks, j, wide)
    return {r: unpack(p, width) for r, p in acc.items() if p[1]}


def check_relations_reference(module):
    """Reference for modrep.check_relations: every instance built with all
    its words, its max prefix up-shift read from module.upshift, and every
    unpolluted column walked until one fails; no table is cached, no block
    skipped and no ONE coefficient left out of a product."""
    if module.kind.startswith("osc"):
        rels = modrep._oscillator_relations(module)
    else:
        rels = _drinfeld_instances(module)
    tables = _packed_tables(module, PACK_WIDTH)
    packs = {}
    families = {}
    ok = True
    for name, info, products in rels:
        fam = families.setdefault(name, {"family": name, "instances": 0, "failures": []})
        fam["instances"] += 1
        if not products:
            continue
        maxup = 0
        for _, word in products:
            tot = 0
            for sym in reversed(word):
                tot += module.upshift.get(sym, 0)
                if tot > maxup:
                    maxup = tot
        cols = range(module.size - maxup)
        walks = _reference_walks(tables, products, PACK_WIDTH, packs)
        for j in cols if walks else ():
            res = _reference_residual(module, products, walks, j)
            if res:
                ok = False
                r = min(res)
                fam["failures"].append({"instance": list(map(str, info)), "column": j,
                                        "row": r, "value": repr(res[r])})
                break
        else:
            if not cols:
                fam["unchecked"] = fam.get("unchecked", 0) + 1
    grading_ok = module.weight_grading_ok()
    return {
        "ok": ok and grading_ok,
        "kind": module.kind,
        "cutoff": module.size - 1,
        "mode_window": module.mode_window,
        "weight_grading_ok": grading_ok,
        "families": sorted(families.values(), key=lambda f: f["family"]),
    }
