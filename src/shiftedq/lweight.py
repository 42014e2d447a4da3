"""The l-weight monoid over the q-lattice.

A monomial is a finite product of variables Psi_{i,q^r} (node i, integer
shift r) with an exact ConstantFactor prefactor.  All generator families
(Y, Y-tilde, A, Lambda, Z, Psi-tilde, Psi-star) expand into this currency.
Spectral parameters are restricted to a single lattice q^Z.
"""

from __future__ import annotations

import json

from .cartan import basis_generator, factor_solver
from .kernel import exps_combine
from .scalars import ZETA_ORDER, ConstantFactor, json_int
from .smith import laurent_divide

GENERATOR_KINDS = ("Psi", "Y", "Ytilde", "A", "Lambda", "Z", "PsiTilde", "PsiStar")


class LWeightMonomial:
    """An l-weight monomial: exps {(i, shift): e} and a ConstantFactor.

    No stored exponent is 0 and exps is never mutated.  The constructor
    keeps the map it is given, uncopied, so callers hand it a map without
    zeros that nothing changes later: generator, from_key, pow and combine
    (through exps_combine) build a fresh one, and from_json, the one place
    that meets outside input, drops the zeros.  Monomials may share a map.
    A QCharacter keeps its terms as key() triples until a caller asks for
    monomials (from_key).
    """

    __slots__ = ("cd", "exps", "const", "_key", "_hash")

    def __init__(self, cd, exps=None, const=None):
        self.cd = cd
        self.exps = {} if exps is None else exps
        self.const = cd.const_one() if const is None else const
        self._key = None
        self._hash = None

    # -- monoid law -----------------------------------------------------
    def combine(self, other, sign=1):
        if other.cd != self.cd:
            raise ValueError("monomials over different Cartan data")
        return LWeightMonomial(self.cd, exps_combine(self.exps, other.exps, sign),
                               self.const.mul(other.const, sign))

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
        """(sorted exps items, q-exponents, zetas), computed once; the hash
        is cached beside it."""
        if self._key is None:
            self._key = (
                tuple(sorted(self.exps.items())),
                self.const.qexps,
                self.const.zetas,
            )
            self._hash = hash(self._key)
        return self._key

    @staticmethod
    def from_key(cd, key):
        """The monomial whose key() is key, a (sorted nonzero exps items,
        q-exponents, reduced zetas) triple, with the key and hash preset."""
        m = LWeightMonomial(cd, dict(key[0]), ConstantFactor(key[1], key[2]))
        m._key = key
        m._hash = hash(key)
        return m

    def exps_key(self):
        return self.key()[0]

    def __eq__(self, other):
        return (
            isinstance(other, LWeightMonomial)
            and self.cd == other.cd
            and self.key() == other.key()
        )

    def __hash__(self):
        if self._hash is None:
            self.key()
        return self._hash

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
            "exps": [[i, r, e] for (i, r), e in self.key()[0]],
            "const": self.const.to_json(),
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(cd, data):
        """Validate outside input: integer [node, shift, exponent] triples,
        summed per (node, shift), with the zero sums dropped."""
        exps = {}
        for i, r, e in data["exps"]:
            k = (json_int(i, "node"), json_int(r, "shift"))
            if k[0] not in cd.nodes():
                raise ValueError(f"node {k[0]} out of range for {cd.type_label}")
            exps[k] = exps.get(k, 0) + json_int(e, "exponent")
        exps = {k: e for k, e in exps.items() if e}
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
    if kind in ("Y", "Ytilde"):
        ri = cd.ri(i)
        const = cd.omega_bar(i) if kind == "Y" else None
        return LWeightMonomial(cd, {(i, r - ri): 1, (i, r + ri): -1}, const)
    if kind in ("A", "Lambda"):
        pat, const = basis_generator(cd, kind, i)
        return LWeightMonomial(
            cd, {(k, r + o): c for (k, o), c in pat.items()}, const
        )
    if kind == "PsiTilde":
        # Psi_{i,r}^{-1} prod_j Psi_{j,r+r_i+o} = Psi_{i,r+2r_i} / Lambda_{i,r+r_i}
        ri = cd.ri(i)
        exps = {(i, r): -1}
        for (j, o), c in basis_generator(cd, "Lambda", i)[0].items():
            if c < 0:
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
    """Oracle: the monomial prod basis_{i,q^u}^{v} for vmap {(i,u): v}.

    One generator, power and product per variable.  This is the independent
    check of y_key, which qc_frenkel_mukhin uses instead, and the
    re-expansion that verifies factor_in_basis.
    """
    out = LWeightMonomial(cd)
    for (i, u), v in sorted(vmap.items()):
        if v:
            out = out * generator(cd, basis, i, u).pow(v)
    return out


def y_key(cd, ykey):
    """The key() of prod Y_{i,q^t}^{e}, for ykey the sorted ((i, t), e)
    items of a Y-exponent map y (the key fm_expand gives each term).

    Y_{i,t}^e is Psi_{i,t-r_i}^e Psi_{i,t+r_i}^{-e} times omega-bar_i^e, and
    omega-bar_i does not depend on t, so the constant has q-exponent
    r_i * (sum of the node-i exponents) at coordinate i and zeta 0.  Within
    a node t - r_i and t + r_i both rise with t: merging the two runs, equal
    shifts summed, gives the Psi items sorted.  The oracle is
    expand_in_basis(cd, "Y", y).  A node outside 1..n raises ValueError.
    """
    r, n = cd.r, cd.n
    out = []
    q = [0] * n
    highs = []  # the node's Psi_{i,t+r_i}^{-e} items not yet merged
    node = None
    for (i, t), e in ykey:
        if not e:
            continue
        if i != node:
            if not 0 < i <= n:
                raise ValueError(f"node {i} out of range for {cd.type_label}")
            out += highs
            highs = []
            node = i
            ri = r[i - 1]
        q[i - 1] += ri * e
        lo = (i, t - ri)
        while highs and highs[0][0] < lo:
            out.append(highs.pop(0))
        if highs and highs[0][0] == lo:
            if s := highs.pop(0)[1] + e:
                out.append((lo, s))
        else:
            out.append((lo, e))
        highs.append(((i, t + ri), -e))
    out += highs
    return tuple(out), tuple(q), (0,) * n


def key_mul(k1, k2):
    """The key() of the product of the monomials whose keys are k1 and k2,
    with no monomial built: the two sorted Psi-item runs merged, equal
    shifts summed and zero sums dropped, the q-exponents added and the
    zetas added mod ZETA_ORDER, as LWeightMonomial.combine gives them.  The
    oracle is combine."""
    a, b = k1[0], k2[0]
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ka, ea = a[i]
        kb, eb = b[j]
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append(b[j])
            j += 1
        else:
            if s := ea + eb:
                out.append((ka, s))
            i += 1
            j += 1
    out += a[i:]
    out += b[j:]
    z1, z2 = k1[2], k2[2]
    return (
        tuple(out),
        tuple([x + y for x, y in zip(k1[1], k2[1])]),
        tuple([(x + y) % ZETA_ORDER for x, y in zip(z1, z2)]) if any(z2) else z1,
    )


def y_monomial(cd, ykey):
    """prod Y_{i,q^t}^{e} for ykey the sorted ((i, t), e) items of a
    Y-exponent map: the monomial of y_key, its exps in sorted order."""
    return LWeightMonomial.from_key(cd, y_key(cd, ykey))


# ---------------------------------------------------------------------------
# factorization in the A / Lambda bases
# ---------------------------------------------------------------------------

def factor_in_basis(m, basis):
    """Exponent map v with monomial(m) = prod basis_{i,q^u}^{v_{i,u}}, or None.

    The constant prefactor of m is ignored.  With m_k the Laurent polynomial
    of m at node k and P the pattern matrix of the basis (cartan.factor_solver),
    v = adj(P) m / det(P): m factorizes exactly when every entry of adj(P) m
    is divisible by det(P) in Z[x^+-1], and the solution is then unique.  The
    result is verified by re-expansion.
    """
    cd = m.cd
    if not m.exps:
        return {}
    det, adj = factor_solver(cd, basis)
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

    Shifts are kept as (shift, count) runs, so the work grows with the
    number of distinct shifts, not with the exponents.  Returns (chains,
    leftovers): chains lists (s, t, count) runs in matching order and
    leftovers the unmatched +1 shifts as (s, count) runs; None when some -1
    has no open +1.
    """
    stack = []  # open +1 runs [shift, count], latest last
    chains = []
    for r, e in seq:
        if e > 0:
            stack.append([r, e])
            continue
        need = -e
        while need:
            if not stack:
                return None
            top = stack[-1]
            k = min(top[1], need)
            chains.append((top[0], r, k))
            need -= k
            top[1] -= k
            if not top[1]:
                stack.pop()
    return chains, [tuple(run) for run in stack]


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
            for s, t, k in paired[0]:
                chains.extend([(i, s, (t - s) // step)] * k)
            for s, k in paired[1]:
                leftovers[(i, s)] = leftovers.get((i, s), 0) + k
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
