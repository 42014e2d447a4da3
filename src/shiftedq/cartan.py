"""Cartan/Dynkin data for the finite types and the quantum Cartan matrix.

Conventions: C[i][j] = alpha_j(alpha_i^vee) (0-indexed internally, nodes
reported 1-indexed), r_i minimal positive integers making B = diag(r) C
symmetric, q_i = q^{r_i}.  For the doubly-laced types the short node row
carries the -2 entry (C[short][long] = -2), matching r_long = 2, r_short = 1.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ConstantFactor, ExactScalar, ONE, qnum
from .smith import invariant_factors


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
    def __init__(self, type_label, n, M=8):
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
        self.M = M
        self._check()
        self._ctilde = None
        self._factor_solvers = {}
        self._basis_patterns = {}

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
        return ConstantFactor.one(self.n, self.M)

    def omega_bar(self, i):
        """omega-bar_i: coordinate j is q_j**delta_ij."""
        q = [Fraction(0)] * self.n
        q[i - 1] = Fraction(self.ri(i))
        return ConstantFactor(q, [0] * self.n, self.M)

    def alpha_bar(self, i):
        """alpha-bar_i: coordinate j is q**B[i][j]."""
        q = [Fraction(self.b(i, j)) for j in self.nodes()]
        return ConstantFactor(q, [0] * self.n, self.M)

    def weight_bar(self, omega_coords):
        """omega-bar for omega = sum_i omega_coords[i] * omega_i (rationals)."""
        out = self.const_one()
        for i in self.nodes():
            c = Fraction(omega_coords[i - 1])
            if c:
                out = out.mul(self.omega_bar(i).pow(c))
        return out

    # -- sign-twist group K ---------------------------------------------
    def k_group_invariants(self):
        """Invariant factors of K = coker(C^T) (via Smith normal form)."""
        Ct = [[self.C[j][i] for j in range(self.n)] for i in range(self.n)]
        return [d for d in invariant_factors(Ct) if d not in (1, -1)]

    def in_K(self, const):
        """Exact membership of a ConstantFactor in the group K."""
        for i in range(self.n):
            q = sum(self.C[j][i] * const.qexps[j] for j in range(self.n))
            if q != 0:
                return False
            z = sum(self.C[j][i] * const.zetas[j] for j in range(self.n))
            if z % self.M:
                return False
        return True

    def __repr__(self):
        return f"CartanData({self.type_label})"

    def __eq__(self, other):
        return (
            isinstance(other, CartanData)
            and self.type_label == other.type_label
            and self.M == other.M
        )

    def __hash__(self):
        return hash((self.type_label, self.M))


def build_cartan(type_label, rank=None, M=8):
    """build_cartan('B', 2) or build_cartan('B2')."""
    if rank is None:
        label = type_label.strip()
        head = label[0]
        try:
            rank = int(label[1:])
        except ValueError:
            raise CartanError(f"cannot parse type {type_label!r}")
        return CartanData(head, rank, M)
    return CartanData(type_label, int(rank), M)


def quantum_cartan(cd, i, j):
    """Entry C_{i,j}(q): [2]_{q_i} on the diagonal, [C_{i,j}]_q off it."""
    if i == j:
        return qnum(2, cd.ri(i))
    return qnum(cd.c(i, j), 1) if cd.c(i, j) else ExactScalar.from_int(0)


def quantum_cartan_matrix(cd):
    return [[quantum_cartan(cd, i, j) for j in cd.nodes()] for i in cd.nodes()]


def invert_quantum_cartan(cd):
    """Exact inverse C-tilde(q) of the quantum Cartan matrix."""
    if cd._ctilde is not None:
        return cd._ctilde
    n = cd.n
    A = quantum_cartan_matrix(cd)
    aug = [[A[i][j] for j in range(n)] for i in range(n)]
    inv = [[ONE if i == j else ExactScalar.from_int(0) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = None
        for r in range(c, n):
            if aug[r][c]:
                p = r
                break
        if p is None:
            raise CartanError("quantum Cartan matrix is singular")
        aug[c], aug[p] = aug[p], aug[c]
        inv[c], inv[p] = inv[p], inv[c]
        pv = aug[c][c]
        aug[c] = [(x / pv).reduced() for x in aug[c]]
        inv[c] = [(x / pv).reduced() for x in inv[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y).reduced() for x, y in zip(aug[r], aug[c])]
                inv[r] = [(x - f * y).reduced() for x, y in zip(inv[r], inv[c])]
    cd._ctilde = inv
    return inv
