"""Cartan/Dynkin data for the finite types and the tables computed from it.

Conventions: C[i][j] = alpha_j(alpha_i^vee) (0-indexed internally, nodes
reported 1-indexed), r_i minimal positive integers making B = diag(r) C
symmetric, q_i = q^{r_i}.  For the doubly-laced types the short node row
carries the -2 entry (C[short][long] = -2), matching r_long = 2, r_short = 1.

Every per-type table (the A and Lambda patterns, A_i in Y-variables, the
pattern-matrix solvers, the coroot inverse and the inverse quantum Cartan
matrix) is a functools.cache'd function of a CartanData.  CartanData hashes
and compares by its type label, so every object of one type shares one
entry; it has __slots__, so no table can be hung on it instead.  The cached
tables are shared: callers read them and never mutate them.
"""

from __future__ import annotations

from functools import cache

from .scalars import ZETA_ORDER, ConstantFactor, ExactScalar, qnum
from .smith import bareiss_adjugate


class CartanError(ValueError):
    pass


def _chain(n):
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        C[i][i] = 2
    for i in range(n - 1):
        C[i][i + 1] = -1
        C[i + 1][i] = -1
    return C


_DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": {6: 12, 7: 18, 8: 30},
    "F": {4: 9},
    "G": {2: 4},
}


def _build_matrix(label, n):
    if label == "A":
        if n < 1:
            raise CartanError("type A needs rank >= 1")
        C = _chain(n)
        r = [1] * n
        bar = [n - 1 - i for i in range(n)]
    elif label == "B":
        if n < 2:
            raise CartanError("type B needs rank >= 2")
        C = _chain(n)
        C[n - 1][n - 2] = -2  # short node n
        r = [2] * (n - 1) + [1]
        bar = list(range(n))
    elif label == "C":
        if n < 2:
            raise CartanError("type C needs rank >= 2")
        C = _chain(n)
        C[n - 2][n - 1] = -2  # long node n
        r = [1] * (n - 1) + [2]
        bar = list(range(n))
    elif label == "D":
        if n < 4:
            raise CartanError("type D needs rank >= 4")
        C = _chain(n - 1)
        for row in C:
            row.append(0)
        C.append([0] * n)
        C[n - 1][n - 1] = 2
        # fork: last node attaches to node n-3 (0-indexed), not the chain end
        C[n - 3][n - 1] = -1
        C[n - 1][n - 3] = -1
        r = [1] * n
        bar = list(range(n))
        if n % 2 == 1:
            bar[n - 2], bar[n - 1] = n - 1, n - 2
    elif label == "E":
        if n not in (6, 7, 8):
            raise CartanError("type E needs rank 6, 7 or 8")
        # Bourbaki: chain 1-3-4-5-...-n, node 2 attached to node 4
        C = [[0] * n for _ in range(n)]
        for i in range(n):
            C[i][i] = 2
        chain = [0] + list(range(2, n))
        for a, b in zip(chain, chain[1:]):
            C[a][b] = C[b][a] = -1
        C[1][3] = C[3][1] = -1
        r = [1] * n
        bar = list(range(n))
        if n == 6:
            bar = [5, 1, 4, 3, 2, 0]
    elif label == "F":
        if n != 4:
            raise CartanError("type F needs rank 4")
        C = _chain(4)
        C[2][1] = -2  # nodes 1,2 long; 3,4 short
        r = [2, 2, 1, 1]
        bar = list(range(4))
    elif label == "G":
        if n != 2:
            raise CartanError("type G needs rank 2")
        C = [[2, -1], [-3, 2]]  # node 1 long (r=3), node 2 short
        r = [3, 1]
        bar = [0, 1]
    else:
        raise CartanError(f"unsupported type {label!r}")
    return C, r, bar


class CartanData:
    __slots__ = ("type_label", "letter", "n", "C", "r", "lacing", "B",
                 "dual_coxeter", "bar_involution")

    def __init__(self, type_label, n):
        label = type_label.upper()
        C, r, bar = _build_matrix(label, n)
        self.type_label = f"{label}{n}"
        self.letter = label
        self.n = n
        self.C = tuple(tuple(row) for row in C)
        self.r = tuple(r)
        self.lacing = max(r)
        self.B = tuple(
            tuple(r[i] * C[i][j] for j in range(n)) for i in range(n)
        )
        hv = _DUAL_COXETER[label]
        self.dual_coxeter = hv(n) if callable(hv) else hv[n]
        self.bar_involution = tuple(bar)
        self._check()

    def _check(self):
        n = self.n
        for i in range(n):
            if self.C[i][i] != 2:
                raise CartanError("Cartan diagonal must be 2")
            for j in range(n):
                if self.B[i][j] != self.B[j][i]:
                    raise CartanError("B = diag(r) C is not symmetric")
                if i != j and self.C[i][j] not in (0, -1, -2, -3):
                    raise CartanError("off-diagonal Cartan entry out of range")
        b = self.bar_involution
        if sorted(b) != list(range(n)):
            raise CartanError("bar involution is not a permutation")
        for i in range(n):
            if b[b[i]] != i:
                raise CartanError("bar involution is not an involution")
            for j in range(n):
                if self.C[b[i]][b[j]] != self.C[i][j]:
                    raise CartanError("bar involution does not fix the diagram")

    # -- node helpers (1-indexed public API) ---------------------------
    def nodes(self):
        return range(1, self.n + 1)

    def c(self, i, j):
        return self.C[i - 1][j - 1]

    def b(self, i, j):
        return self.B[i - 1][j - 1]

    def ri(self, i):
        return self.r[i - 1]

    def bar(self, i):
        return self.bar_involution[i - 1] + 1

    # -- constants ------------------------------------------------------
    def const_one(self):
        return ConstantFactor.one(self.n)

    def omega_bar(self, i):
        """omega-bar_i: coordinate j is q_j**delta_ij."""
        q = [0] * self.n
        q[i - 1] = self.ri(i)
        return ConstantFactor(q, [0] * self.n)

    def alpha_bar(self, i):
        """alpha-bar_i: coordinate j is q**B[i][j]."""
        q = [self.b(i, j) for j in self.nodes()]
        return ConstantFactor(q, [0] * self.n)

    # -- sign-twist group K ---------------------------------------------
    def in_K(self, const):
        """Exact membership of a ConstantFactor in the group K."""
        for i in range(self.n):
            q = sum(self.C[j][i] * const.qexps[j] for j in range(self.n))
            if q != 0:
                return False
            z = sum(self.C[j][i] * const.zetas[j] for j in range(self.n))
            if z % ZETA_ORDER:
                return False
        return True

    def __repr__(self):
        return f"CartanData({self.type_label})"

    def __eq__(self, other):
        return isinstance(other, CartanData) and self.type_label == other.type_label

    def __hash__(self):
        return hash(self.type_label)


def build_cartan(type_label, rank=None):
    """build_cartan('B', 2) or build_cartan('B2')."""
    if rank is None:
        label = type_label.strip()
        try:
            rank = int(label[1:])
        except ValueError:
            raise CartanError(f"cannot parse type {type_label!r}")
        return CartanData(label[:1], rank)
    return CartanData(type_label, int(rank))


def quantum_cartan(cd, i, j):
    """Entry C_{i,j}(q): [2]_{q_i} on the diagonal, [C_{i,j}]_q off it."""
    if i == j:
        return qnum(2, cd.ri(i))
    return qnum(cd.c(i, j), 1) if cd.c(i, j) else ExactScalar.from_int(0)


def quantum_cartan_matrix(cd):
    return [[quantum_cartan(cd, i, j) for j in cd.nodes()] for i in cd.nodes()]


@cache
def invert_quantum_cartan(cd):
    """Exact inverse C-tilde(q) of the quantum Cartan matrix, as adj / det.

    The entries of C(q) are Laurent polynomials in v with int coefficients,
    so one Bareiss elimination gives det and adj exactly; each entry is the
    reduced ExactScalar adj[i][j] / det.
    """
    det, adj = bareiss_adjugate([[x.num for x in row]
                                 for row in quantum_cartan_matrix(cd)])
    return tuple(tuple(ExactScalar(x, det).reduced() for x in row) for row in adj)


# ---------------------------------------------------------------------------
# the A and Lambda patterns, A_i in Y-variables, and their solvers
# ---------------------------------------------------------------------------

# Keyed by a Cartan entry c < 0: the shifts o of the factors Psi_{j,q^o}^{-1}
# of Lambda_{i,q^0} when C_{i,j} = c, and of the Y_{j,q^o}^{-1} of A_{i,q^0}
# when C_{j,i} = c.
NEIGHBOUR_OFFSETS = {-1: (0,), -2: (-1, 1), -3: (-2, 0, 2)}


def _neighbour_pattern(cd, i, entry):
    """The pattern with 1 at (i, -r_i) and (i, r_i), then -1 at every (j, o)
    with o in NEIGHBOUR_OFFSETS[entry(j)], nodes j in order."""
    ri = cd.ri(i)
    pat = {(i, -ri): 1, (i, ri): 1}
    for j in cd.nodes():
        for o in NEIGHBOUR_OFFSETS.get(entry(j), ()):
            pat[(j, o)] = -1
    return pat


@cache
def basis_generator(cd, basis, j):
    """basis_{j, q^0} as ({(k, offset): coeff}, constant).

    A_{j,q^0} has Psi_{k, q^{+-B_jk}}^{-+1} for every B_jk != 0 and the
    constant alpha-bar_j; Lambda_{j,q^0} is Psi_{j,q^{-r_j}} Psi_{j,q^{r_j}}
    times Psi_{k,q^o}^{-1} for o in NEIGHBOUR_OFFSETS[C_jk].  The negative
    entries of the Lambda pattern are the neighbour sites of node j, which
    Psi-tilde and the truncation search read.
    """
    if basis == "A":
        pat = {}
        for k in cd.nodes():
            b = cd.b(j, k)
            if b:
                pat[(k, b)] = -1
                pat[(k, -b)] = 1
        return pat, cd.alpha_bar(j)
    if basis == "Lambda":
        return _neighbour_pattern(cd, j, lambda k: cd.c(j, k)), cd.const_one()
    raise ValueError(f"unknown basis {basis!r}")


@cache
def a_in_y(cd, i):
    """A_{i,q^0} in Y-variables as {(j, offset): exp}: Y_{i,q^-r_i} Y_{i,q^r_i}
    times Y_{j,q^o}^{-1} for o in NEIGHBOUR_OFFSETS[C_ji] (Frenkel-Reshetikhin)."""
    return _neighbour_pattern(cd, i, lambda j: cd.c(j, i))


@cache
def factor_solver(cd, basis):
    """(det P, adj P) of the pattern matrix P of the basis.

    P[k][j] = sum of c x^o over the pattern of basis_{j,q^0}, so that at
    node k the monomial prod basis_{j,q^u}^{v_{j,u}} has the Laurent
    polynomial sum_j P[k][j] v_j with v_j = sum_u v_{j,u} x^u.  adj P is
    stored as (exponent, coefficient) pairs per entry.
    """
    P = [[{} for _ in cd.nodes()] for _ in cd.nodes()]
    for j in cd.nodes():
        for (k, o), c in basis_generator(cd, basis, j)[0].items():
            P[k - 1][j - 1][o] = c
    det, adj = bareiss_adjugate(P)
    return det, tuple(tuple(tuple(x.items()) for x in row) for row in adj)


@cache
def coroot_inverse(cd):
    """(det C, adj C^T) over Z, so that adj(C^T) w / det C solves C^T x = w."""
    det, adj = bareiss_adjugate([[{0: c} if c else {} for c in col]
                                 for col in zip(*cd.C)])
    return det[0], tuple(tuple(x.get(0, 0) for x in row) for row in adj)
