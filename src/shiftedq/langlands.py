"""Langlands-dual q-characters, the monomial -> l-weight map, and the
conjecture-verification reports on the worked types (A_n/D_n/E_n, B2).

A dual character is a multiplicity map {sorted Z-exponent tuple: mult}.
For simply-laced types the dual character of a fundamental module is the
node-wise sl2 completion with Z = Y: the multiplicities of qchar.fm_expand
over its Y-exponent keys, with no l-weights built.  For B2 the two
fundamental tables are embedded: node 2 as the full 11-term interpolating
character which is specialized programmatically (alpha-terms dropped,
t = 1, Z-rewrite), and node 1 as its displayed 4-term specialization.
"""

from __future__ import annotations

from .kernel import exps_combine
from .lweight import (
    LWeightMonomial,
    dominant_factorization,
    is_dominant,
    leq_certificate,
    node_sums,
)
from .qchar import fm_expand, qc_kr_chains
from .truncation import (
    STATUS_NECESSARY,
    STATUS_REFUTED,
    TruncationData,
    TruncationError,
    descent_refine,
    enumerate_candidates,
    required_const_class,
    sl2_classify,
    truncation_shifts,
)


class LanglandsError(ValueError):
    pass


def _zkey(zexps):
    return tuple(sorted((k, e) for k, e in zexps.items() if e))


# ---------------------------------------------------------------------------
# the B2 interpolating table (node 2) and the node-1 specialization
# ---------------------------------------------------------------------------

# (alpha_flag, ((node, q-exp, t-exp, exponent), ...)) at spectral parameter 1
_B2_NODE2_INTERPOLATING = (
    (False, ((2, -1, 0, 1), (2, 1, 0, 1))),
    (True, ((2, -1, 0, 1), (2, 3, 2, -1), (1, 2, 1, 1))),
    (False, ((2, 1, 2, -1), (2, 3, 2, -1), (1, 0, 1, 1), (1, 2, 1, 1))),
    (True, ((2, -1, 0, 1), (2, 5, 2, 1), (1, 6, 3, -1))),
    (False, ((1, 2, 1, 1), (1, 4, 3, -1))),
    (False, ((2, 1, 2, -1), (2, 5, 2, 1), (1, 6, 3, -1), (1, 0, 1, 1))),
    (True, ((2, -1, 0, 1), (2, 7, 4, -1))),
    (False, ((1, 4, 3, -1), (1, 6, 3, -1), (2, 3, 2, 1), (2, 5, 2, 1))),
    (True, ((2, 1, 2, -1), (2, 7, 4, -1), (1, 0, 1, 1))),
    (True, ((1, 4, 3, -1), (2, 3, 2, 1), (2, 7, 4, -1))),
    (False, ((2, 5, 4, -1), (2, 7, 4, -1))),
)

# the 4-term dual character of the first B2 fundamental, in Z variables
_B2_NODE1_TERMS = (
    {(1, 0): 1},
    {(1, 4): -1, (2, 2): 1},
    {(2, 4): -1, (1, 2): 1},
    {(1, 6): -1},
)


def specialize_interpolating_b2(table=_B2_NODE2_INTERPOLATING):
    """Drop alpha-terms, set t = 1, rewrite Y -> Z by the lacing dictionary.

    Returns the list of Z-exponent dicts (6 terms for the node-2 table).
    """
    out = []
    for alpha, factors in table:
        if alpha:
            continue
        y = {}
        for (node, qe, _te, e) in factors:
            k = (node, qe)
            y[k] = y.get(k, 0) + e
            if not y[k]:
                del y[k]
        # node 1 (long): Z = Y; node 2 (short): Y_{2,m-1} Y_{2,m+1} = Z_{2,m}
        z = {}
        y2 = {m: e for (node, m), e in y.items() if node == 2}
        for (node, m), e in y.items():
            if node == 1:
                z[(1, m)] = z.get((1, m), 0) + e
        # exact division of the node-2 generating function by (s^-1 + s)
        while y2:
            m = max(y2)
            e = y2.pop(m)
            # top term comes from Z_{2, m-1} contributing at m-2 and m
            z[(2, m - 1)] = z.get((2, m - 1), 0) + e
            lo = y2.get(m - 2, 0) - e
            if lo:
                y2[m - 2] = lo
            else:
                y2.pop(m - 2, None)
        out.append({k: e for k, e in z.items() if e})
    return out


def chi_L_fundamental(cd, i, shift):
    """Langlands dual q-character of the fundamental V_i^L(q^shift), as
    {sorted Z-exponent tuple: multiplicity} with the head Z_{i,q^shift}
    first."""
    if i not in cd.nodes():
        raise LanglandsError(f"node {i} out of range for {cd.type_label}")
    if cd.lacing == 1:
        state, _ = fm_expand(cd, {(i, shift): 1}, 6 * cd.n * cd.dual_coxeter,
                             require_complete=True)
        return {k: rec[0] for k, rec in state.items()}
    if cd.type_label == "B2":
        if i == 2:
            base = specialize_interpolating_b2()
        else:
            base = [dict(t) for t in _B2_NODE1_TERMS]
        terms = {}
        for z in base:
            sh = {(node, m + shift): e for (node, m), e in z.items()}
            k = _zkey(sh)
            terms[k] = terms.get(k, 0) + 1
        return terms
    raise LanglandsError(
        "out of scope: general interpolating (q,t)-characters "
        f"(type {cd.type_label})"
    )


def chi_L_standard(z):
    """Product over the Z-roots of fundamental dual characters at the
    shifts of q_i^{-1} z_{i,s}^{-1}, as {sorted Z-exponent tuple:
    multiplicity} with the head M_0 first."""
    cd = z.cd
    out = {(): 1}
    for i in cd.nodes():
        for m in z.zroots[i]:
            f = chi_L_fundamental(cd, i, -cd.ri(i) - m)
            nxt = {}
            for k1, c1 in out.items():
                d1 = dict(k1)
                for k2, c2 in f.items():
                    k = _zkey(exps_combine(d1, dict(k2), 1))
                    nxt[k] = nxt.get(k, 0) + c1 * c2
            out = nxt
    return out


def psi_of_monomial(zexps, z, mu=None):
    """The l-weight Psi_M of a Z-variable monomial (defined up to sign-twist):
    Psi_i(z) = Psi_i(0) prod_a (1 - z a^{-1})^{u_{i,a}} with
    (Psi_i(0))^2 = (prod (-a)^{u_{i,a}}) phi_{i,Z}."""
    cd = z.cd
    psi_exps = {}
    for (i, m), u in zexps.items():
        if u:
            k = (i, -m)
            psi_exps[k] = psi_exps.get(k, 0) + u
    mu_m = node_sums(cd, zexps)
    if mu is None:
        mu = mu_m
    elif tuple(mu) != mu_m:
        raise LanglandsError("weight context does not match the monomial")
    cls = required_const_class(z, mu, psi_exps)
    return LWeightMonomial(cd, psi_exps, cls)


def conjecture_report(z, lam, depth=2):
    """Compare the monomials of chi_q^L(V^L) (set A, via Psi_M) against the
    truncation candidates (set B) weight by weight.

    A monomial matches an unused candidate with the same monomial part.  Both
    constants are then required_const_class of the same (z, mu, exponents),
    so they agree exactly, sign-twist included."""
    cd = z.cd
    if tuple(lam) != z.lam:
        raise LanglandsError("lambda does not match the truncation data")
    chi = chi_L_standard(z)
    strata = {}
    for k, mult in sorted(chi.items()):
        strata.setdefault(node_sums(cd, dict(k)), []).append((dict(k), mult))
    report = {
        "type": cd.type_label,
        "lambda": list(lam),
        "chi_L_terms": sum(chi.values()),
        "weights": [],
        "zorder_violations": [],
        "ok": True,
    }
    for mu, monomials in sorted(strata.items()):
        entry = {"mu": list(mu), "monomials": [], "candidates": [],
                 "matched": 0, "discrepancies": []}
        try:
            truncation_shifts(z, mu)
        except TruncationError as e:  # weight outside the cone
            entry["error"] = str(e)
            report["weights"].append(entry)
            report["ok"] = False
            continue
        if cd.n == 1:
            cands = sl2_classify(z, lam, mu)
        else:
            cands = [
                descent_refine(z, c, depth)
                for c in enumerate_candidates(z, lam, mu)
            ]
            refuted = [c for c in cands if c.status == STATUS_REFUTED]
            cands = [c for c in cands if c.status != STATUS_REFUTED]
            entry["refuted"] = [c.psi.to_json() for c in refuted]
        used = set()
        for zmono, mult in monomials:
            psi = psi_of_monomial(zmono, z, mu)
            comp_ok = leq_certificate(psi, z.z_monomial(), "zorder") is not None
            if not comp_ok:
                report["zorder_violations"].append(
                    {"mu": list(mu), "monomial": [[i, m, e] for (i, m), e in sorted(zmono.items())]}
                )
                report["ok"] = False
            match = None
            for idx, c in enumerate(cands):
                if idx not in used and c.psi.exps == psi.exps:
                    match = idx
                    used.add(idx)
                    break
            entry["monomials"].append({
                "monomial": [[i, m, e] for (i, m), e in sorted(zmono.items())],
                "multiplicity": mult,
                "psi": psi.to_json(),
                "zorder_bound": comp_ok,
                "match_status": "matched" if match is not None else "unmatched",
            })
            entry["matched"] += match is not None
        entry["unconfirmed_surplus"] = []
        for idx, c in enumerate(cands):
            entry["candidates"].append({
                "psi": c.psi.to_json(),
                "status": c.status,
                "matched": idx in used,
            })
            if idx not in used:
                if c.status == STATUS_NECESSARY:
                    # maint is necessary-only: unmatched candidates that were
                    # neither confirmed nor refuted are surplus, not errors
                    entry["unconfirmed_surplus"].append(c.psi.to_json())
                else:
                    entry["discrepancies"].append(
                        {"side": "candidates", "psi": c.psi.to_json(),
                         "status": c.status}
                    )
        for mrec in entry["monomials"]:
            if mrec["match_status"] == "unmatched":
                entry["discrepancies"].append(
                    {"side": "chi_L", "monomial": mrec["monomial"]}
                )
        if entry["discrepancies"]:
            report["ok"] = False
        report["weights"].append(entry)
    return report


# ---------------------------------------------------------------------------
# descent truncation construction for finite-dimensional simples
# ---------------------------------------------------------------------------

def truncfd_Z_for(psi):
    """Build the descent truncation Z for a dominant l-weight from its
    Y-multiplicities, and emit the nu >= v certificate.

    Raises on non-dominant input.  Returns (TruncationData, certificate).
    """
    cd = psi.cd
    if not is_dominant(psi):
        raise LanglandsError("l-weight is not dominant")
    chains, leftovers = dominant_factorization(psi)
    r = cd.lacing
    h = cd.dual_coxeter
    # Y-multiplicities u_{i, q^t} from the Ytilde chains
    u = {}
    for (i, s, k) in chains:
        ri = cd.ri(i)
        for l in range(k):
            t = s + ri + 2 * ri * l
            u[(i, t)] = u.get((i, t), 0) + 1
    zpsi = {}

    def add(i, t, e):
        if e:
            zpsi[(i, t)] = zpsi.get((i, t), 0) + e

    for (i, t), mult in sorted(u.items()):
        ib = cd.bar(i)
        ri = cd.ri(i)
        add(i, t - ri, mult)
        add(ib, t + ri + r * h, mult)
        if ri == 1 and r != 1:
            add(i, t + ri + 1 - r, mult)
            add(ib, t + ri - r + 1 + r * h, mult)
            add(i, t + ri + r - 1, mult)
            add(ib, t + ri + r - 1 + r * h, mult)
        if ri == r and r != 1:
            add(i, t + ri - 2, mult)
            add(ib, t + ri - 2 + r * h, mult)
        if ri == 3 and r == 3:
            add(i, t + ri - 4, mult)
            add(ib, t + ri - 4 + r * h, mult)
    # leftover positive prefundamental factors contribute their own root
    for (i, t), mult in sorted(leftovers.items()):
        add(i, t, mult)
    zroots = {i: [] for i in cd.nodes()}
    for (i, t), e in sorted(zpsi.items()):
        if e < 0:
            raise AssertionError("construction produced a negative Z exponent")
        zroots[i].extend([t - cd.ri(i)] * e)
    z = TruncationData(cd, zroots)
    # certificate: nu from the Lambda-factorization of Z Psi^{-1}
    nu = leq_certificate(psi, z.z_monomial(), "zorder")
    if nu is None:
        raise AssertionError("constructed Z is not above Psi in the Z-order")
    # v from the lowest l-weight of the finite-dimensional module
    x = qc_kr_chains(cd, chains)
    dmax = max(sum(p.values()) for p in x.paths.values())
    lows = [m for m, p in x.paths.items() if sum(p.values()) == dmax]
    assert len(lows) == 1, "lowest l-weight of a simple must be unique"
    v = dict(x.paths[lows[0]])
    ok = True
    witness = None
    for (i, t), vv in v.items():
        if nu.get((i, t + cd.ri(i)), 0) < vv:
            ok = False
            witness = {"node": i, "shift": t, "nu": nu.get((i, t + cd.ri(i)), 0), "v": vv}
            break
    cert = {
        "nu": [[i, t, e] for (i, t), e in sorted(nu.items())],
        "v": [[i, t, e] for (i, t), e in sorted(v.items())],
        "holds": ok,
        "witness": witness,
    }
    return z, cert
