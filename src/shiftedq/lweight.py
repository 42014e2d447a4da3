"""The l-weight monoid over the q-lattice.

A monomial is a finite product of variables Psi_{i,q^r} (node i, integer
shift r) with an exact ConstantFactor prefactor.  All generator families
(Y, Y-tilde, A, Lambda, Z, Psi-tilde, Psi-star) expand into this currency.
Spectral parameters are restricted to a single lattice q^Z.
"""

from __future__ import annotations

import json

from .kernel import exps_combine
from .scalars import ConstantFactor, json_int
from .smith import bareiss_adjugate, laurent_divide

GENERATOR_KINDS = ("Psi", "Y", "Ytilde", "A", "Lambda", "Z", "PsiTilde", "PsiStar")

# Keyed by a Cartan entry c < 0: the shifts o of the factors Psi_{j,q^o}^{-1}
# of Lambda_{i,q^0} when C_{i,j} = c, and of the Y_{j,q^o}^{-1} of A_{i,q^0}
# when C_{j,i} = c.
NEIGHBOUR_OFFSETS = {-1: (0,), -2: (-1, 1), -3: (-2, 0, 2)}


class LWeightMonomial:
    __slots__ = ("cd", "exps", "const", "_key")

    def __init__(self, cd, exps=None, const=None):
        self.cd = cd
        self.exps = {k: e for k, e in (exps or {}).items() if e}
        self.const = const if const is not None else cd.const_one()
        self._key = None

    # -- monoid law -----------------------------------------------------
    def combine(self, other, sign=1):
        if other.cd != self.cd:
            raise ValueError("monomials over different Cartan data")
        return LWeightMonomial(
            self.cd,
            exps_combine(self.exps, other.exps, sign),
            self.const.mul(other.const, sign),
        )

    def __mul__(self, other):
        return self.combine(other, 1)

    def __truediv__(self, other):
        return self.combine(other, -1)

    def pow(self, k):
        if k == 0:
            return LWeightMonomial(self.cd)
        return LWeightMonomial(
            self.cd, {s: e * k for s, e in self.exps.items()}, self.const.pow(k)
        )

    def monomial_part(self):
        return LWeightMonomial(self.cd, self.exps)

    def with_const(self, const):
        return LWeightMonomial(self.cd, self.exps, const)

    def is_one(self):
        return not self.exps and self.const.is_one()

    def key(self):
        if self._key is None:
            self._key = (
                tuple(sorted(self.exps.items())),
                self.const.qexps,
                self.const.zetas,
            )
        return self._key

    def exps_key(self):
        return tuple(sorted(self.exps.items()))

    def __eq__(self, other):
        return (
            isinstance(other, LWeightMonomial)
            and self.cd == other.cd
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.exps:
            body = "1"
        else:
            body = " ".join(
                f"Psi[{i},{r}]^{e}" if e != 1 else f"Psi[{i},{r}]"
                for (i, r), e in sorted(self.exps.items())
            )
        if self.const.is_one():
            return body
        return f"{self.const} {body}"

    # -- degrees ----------------------------------------------------------
    def coweight(self):
        """alpha_i(mu) per node: total Psi-exponent at each node."""
        return node_sums(self.cd, self.exps)

    def node_exps(self, i):
        """shift -> exponent at node i."""
        return {r: e for (j, r), e in self.exps.items() if j == i}

    # -- serialization ------------------------------------------------
    def to_json(self):
        return {
            "exps": [[i, r, e] for (i, r), e in sorted(self.exps.items())],
            "const": self.const.to_json(),
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(cd, data):
        """Validate outside input: integer [node, shift, exponent] triples."""
        exps = {}
        for i, r, e in data["exps"]:
            k = (json_int(i, "node"), json_int(r, "shift"))
            if k[0] not in cd.nodes():
                raise ValueError(f"node {k[0]} out of range for {cd.type_label}")
            exps[k] = exps.get(k, 0) + json_int(e, "exponent")
        const = (
            ConstantFactor.from_json(data["const"])
            if "const" in data and data["const"]
            else cd.const_one()
        )
        if const.n != cd.n:
            raise ValueError("constant length does not match rank")
        return LWeightMonomial(cd, exps, const)


def node_sums(cd, exps):
    """Per-node totals of an exponent map {(i, shift): e}, as a tuple."""
    out = [0] * cd.n
    for (i, _), e in exps.items():
        out[i - 1] += e
    return tuple(out)


# ---------------------------------------------------------------------------
# generator dictionary
# ---------------------------------------------------------------------------

def generator(cd, kind, i, r):
    """Expansion of the named generator at node i, spectral parameter q^r."""
    if i not in cd.nodes():
        raise ValueError(f"node {i} out of range for {cd.type_label}")
    if kind == "Psi":
        return LWeightMonomial(cd, {(i, r): 1})
    if kind == "Y":
        ri = cd.ri(i)
        return LWeightMonomial(
            cd, {(i, r - ri): 1, (i, r + ri): -1}, cd.omega_bar(i)
        )
    if kind == "Ytilde":
        ri = cd.ri(i)
        return LWeightMonomial(cd, {(i, r - ri): 1, (i, r + ri): -1})
    if kind in ("A", "Lambda"):
        pat, const = _basis_generator(cd, kind, i)
        return LWeightMonomial(
            cd, {(k, r + o): c for (k, o), c in pat.items()}, const
        )
    if kind == "PsiTilde":
        # Psi_{i,r}^{-1} prod_j Psi_{j,r+r_i+o} = Psi_{i,r+2r_i} / Lambda_{i,r+r_i}
        ri = cd.ri(i)
        exps = {(i, r): -1}
        for j in cd.nodes():
            for o in NEIGHBOUR_OFFSETS.get(cd.c(i, j), ()):
                exps[(j, r + ri + o)] = 1
        return LWeightMonomial(cd, exps)
    if kind == "PsiStar":
        exps = {(i, r): -1}
        for j in cd.nodes():
            if cd.c(i, j):
                exps = exps_combine(exps, {(j, r - cd.b(i, j)): 1}, 1)
        return LWeightMonomial(cd, exps)
    if kind == "Z":
        ri, lac = cd.ri(i), cd.lacing
        if ri == lac:
            shifts = (r,)
        elif ri == lac - 1:
            shifts = (r - 1, r + 1)
        elif ri == lac - 2:
            shifts = (r - 2, r, r + 2)
        else:
            raise ValueError(f"node {i}: r_i = {ri} incompatible with lacing {lac}")
        out = LWeightMonomial(cd)
        for s in shifts:
            out = out * generator(cd, "Y", i, s)
        return out
    raise ValueError(f"unknown generator kind {kind!r}")


def expand_in_basis(cd, basis, vmap):
    """Oracle: the monomial prod basis_{i,q^u}^{v} for vmap {(i,u): v}."""
    out = LWeightMonomial(cd)
    for (i, u), v in sorted(vmap.items()):
        if v:
            out = out * generator(cd, basis, i, u).pow(v)
    return out


# ---------------------------------------------------------------------------
# factorization in the A / Lambda bases
# ---------------------------------------------------------------------------

def _basis_generator(cd, basis, j):
    """basis_{j, q^0} as ({(k, offset): coeff}, constant), cached on cd.

    A_{j,q^0} has Psi_{k, q^{+-B_jk}}^{-+1} for every B_jk != 0 and the
    constant alpha-bar_j; Lambda_{j,q^0} is Psi_{j,q^{-r_j}} Psi_{j,q^{r_j}}
    times Psi_{k,q^o}^{-1} for o in NEIGHBOUR_OFFSETS[C_jk].
    """
    hit = cd._basis_patterns.get((basis, j))
    if hit is None:
        if basis == "A":
            pat = {}
            for k in cd.nodes():
                b = cd.b(j, k)
                if b:
                    pat[(k, b)] = -1
                    pat[(k, -b)] = 1
            const = cd.alpha_bar(j)
        elif basis == "Lambda":
            rj = cd.ri(j)
            pat = {(j, -rj): 1, (j, rj): 1}
            for k in cd.nodes():
                for o in NEIGHBOUR_OFFSETS.get(cd.c(j, k), ()):
                    pat[(k, o)] = -1
            const = cd.const_one()
        else:
            raise ValueError(f"unknown basis {basis!r}")
        hit = cd._basis_patterns[(basis, j)] = (pat, const)
    return hit


def _basis_pattern(cd, basis, j):
    """Contributions of basis_{j, q^0} as {(k, offset): coeff}."""
    return _basis_generator(cd, basis, j)[0]


def _factor_solver(cd, basis):
    """(det P, adj P) of the pattern matrix P of the basis, cached on cd.

    P[k][j] = sum of c x^o over _basis_pattern(cd, basis, j), so that at node
    k the monomial prod basis_{j,q^u}^{v_{j,u}} has the Laurent polynomial
    sum_j P[k][j] v_j with v_j = sum_u v_{j,u} x^u.  adj P is stored as
    (exponent, coefficient) pairs per entry.
    """
    solver = cd._factor_solvers.get(basis)
    if solver is None:
        P = [[{} for _ in cd.nodes()] for _ in cd.nodes()]
        for j in cd.nodes():
            for (k, o), c in _basis_pattern(cd, basis, j).items():
                P[k - 1][j - 1][o] = c
        det, adj = bareiss_adjugate(P)
        solver = (det, [[tuple(x.items()) for x in row] for row in adj])
        cd._factor_solvers[basis] = solver
    return solver


def factor_in_basis(m, basis):
    """Exponent map v with monomial(m) = prod basis_{i,q^u}^{v_{i,u}}, or None.

    The constant prefactor of m is ignored.  With m_k the Laurent polynomial
    of m at node k and P the pattern matrix of the basis (_factor_solver),
    v = adj(P) m / det(P): m factorizes exactly when every entry of adj(P) m
    is divisible by det(P) in Z[x^+-1], and the solution is then unique.  The
    result is verified by re-expansion.
    """
    cd = m.cd
    if not m.exps:
        return {}
    det, adj = _factor_solver(cd, basis)
    node_polys = [[] for _ in cd.nodes()]
    for (k, t), e in m.exps.items():
        node_polys[k - 1].append((t, e))
    out = {}
    for j, row in enumerate(adj, 1):
        num = {}
        for entry, mk in zip(row, node_polys):
            for t, e in mk:
                for o, c in entry:
                    num[t + o] = num.get(t + o, 0) + e * c
        v = laurent_divide({s: c for s, c in num.items() if c}, det)
        if v is None:
            return None
        for u, c in v.items():
            out[(j, u)] = c
    if expand_in_basis(cd, basis, out).exps != m.exps:
        return None
    return out


# ---------------------------------------------------------------------------
# dominance, partial orders, sign-twist equality
# ---------------------------------------------------------------------------

def residue_classes(node_exps, step):
    """Group {shift: exp} of one node by shift mod step (= 2 r_i).

    Classes come in the order their first shift appears in node_exps; each
    is a list of (shift, exp) sorted by shift.
    """
    byres = {}
    for r, e in node_exps.items():
        byres.setdefault(r % step, []).append((r, e))
    return [sorted(seq) for seq in byres.values()]


def pair_class(seq):
    """LIFO matching of one residue class: each -1 at t closes the latest
    open +1 at some s < t.

    Returns (chains, leftovers): chains lists (s, t) in matching order and
    leftovers the unmatched +1 shifts; None when some -1 has no open +1.
    """
    stack = []  # open +1 shifts, multiplicity-expanded
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


def is_dominant(m):
    """True iff m/const is a product of Y-tilde_{i,a} and Psi_{i,a} factors.

    Per node, every -1 exponent at shift t must pair injectively with a +1
    at t - 2k r_i (k >= 1), residue class by residue class mod 2 r_i.
    """
    cd = m.cd
    return all(
        pair_class(seq) is not None
        for i in cd.nodes()
        for seq in residue_classes(m.node_exps(i), 2 * cd.ri(i))
    )


def dominant_factorization(m):
    """Split a dominant monomial into Y-tilde chains and leftover Psi factors.

    Returns (chains, leftovers) with chains a list of (i, s, k) meaning
    prod_{l=0..k-1} Ytilde_{i, s + r_i + 2 l r_i}  (exponents +1 at s and
    -1 at s + 2 k r_i), and leftovers {(i, t): e >= 0}.  LIFO matching per
    residue class; raises if m is not dominant.
    """
    cd = m.cd
    chains = []
    leftovers = {}
    for i in cd.nodes():
        step = 2 * cd.ri(i)
        for seq in residue_classes(m.node_exps(i), step):
            paired = pair_class(seq)
            if paired is None:
                raise ValueError("monomial is not dominant")
            for s, t in paired[0]:
                chains.append((i, s, (t - s) // step))
            for s in paired[1]:
                leftovers[(i, s)] = leftovers.get((i, s), 0) + 1
    return sorted(chains), leftovers


def leq_certificate(m_low, m_high, order="nakajima"):
    """The exponent map v >= 0 with m_high / m_low = prod basis_{i,q^u}^{v_{i,u}}
    in the A (nakajima) or Lambda (zorder) basis, or None when there is no
    such map.  Constants are ignored (raw comparison)."""
    basis = {"nakajima": "A", "zorder": "Lambda"}[order]
    v = factor_in_basis(m_high.combine(m_low, -1), basis)
    if v is None or any(e < 0 for e in v.values()):
        return None
    return v


def leq(m_low, m_high, order="nakajima"):
    """m_low <= m_high in the Nakajima order or the Z-order."""
    return leq_certificate(m_low, m_high, order) is not None


def equal_mod_signtwist(m1, m2):
    """Equal monomial parts and constants differing by an element of K."""
    if m1.cd != m2.cd:
        return False
    if m1.exps != m2.exps:
        return False
    return m1.cd.in_K(m1.const.mul(m2.const, -1))
