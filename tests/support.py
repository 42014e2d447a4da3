"""Test-side helpers and oracles that no library code calls."""

import json
import os
from fractions import Fraction

from shiftedq.cartan import invert_quantum_cartan
from shiftedq.langlands import psi_of_monomial
from shiftedq.lweight import leq_certificate
from shiftedq.modrep import _poly_from_shifts
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
