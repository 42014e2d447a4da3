"""Test-side helpers and oracles that no library code calls."""

import json
import os
from fractions import Fraction

from shiftedq.cartan import a_in_y, basis_generator, invert_quantum_cartan
from shiftedq.langlands import psi_of_monomial
from shiftedq.lweight import leq_certificate
from shiftedq.modrep import _poly_from_shifts
from shiftedq.qchar import (
    FMBudgetError,
    FMError,
    _string_eigen_terms,
    _string_products,
    _strings,
)
from shiftedq import truncation
from shiftedq.scalars import ONE, ExactScalar
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
        s._canonicalize()
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
