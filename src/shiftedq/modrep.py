"""Explicit modules with exact matrices and a mode-window relation verifier.

Matrices are sparse {(row, col): ExactScalar} over Q(v), built without a
gcd: the phi series run their recurrence on Laurent-polynomial dicts, and
each x^- and f entry is one q-power times qnum(m)_{q_i} over the normalized
q_i - q_i^{-1}, already coprime.  Relations are evaluated column-by-column
as exact identities for all modes inside the window; basis columns whose
raising chains would cross the cutoff are excluded rather than approximated
(exactness over coverage).  The verifier walks column tables packed at
v = 2**W (scalars.pack) the first time a relation word holds their
generator (a coproduct's tensor tables, at every width, are packed
products of its factors' tables), so a relation residual is a sum of plain
int products; a nonzero residual is unpacked back into an ExactScalar only
to be returned or reported.
"""

from __future__ import annotations

from itertools import permutations, product as iproduct

from .cartan import build_cartan
from .kernel import poly_mul, poly_scale, poly_sub
from .lweight import leq_certificate
from .qchar import qc_closed_form
from .scalars import (PACK_WIDTH, ExactScalar, ONE, ConstantFactor, fit_width, pack,
                      packed_add, packed_mul, qbinom, unpack)

X_PLUS, X_MINUS, PHI_PLUS, PHI_MINUS = "x+", "x-", "phi+", "phi-"


# ---------------------------------------------------------------------------
# sparse matrix helpers
# ---------------------------------------------------------------------------

def _pack_cols(mat, width):
    """{col: [(row, packed entry)]} of a sparse matrix, packed at v = 2**width;
    None for an empty one."""
    cols = {}
    for (r, c), s in mat.items():
        cols.setdefault(c, []).append((r, pack(s, width)))
    return cols or None


class ExplicitModule:
    def __init__(self, cd, kind, params, size, weights, gens, mode_window,
                 upshift, lweights=None):
        self.cd = cd
        self.kind = kind
        self.params = params
        self.size = size  # N+1 basis vectors
        self.weights = weights  # ConstantFactor per basis vector
        self.gens = gens  # symbol -> sparse matrix
        self.mode_window = mode_window
        self.upshift = upshift  # symbol -> basis-index shift of its action
        self.lweights = lweights  # optional l-weight per basis vector
        self._cols = {}  # symbol -> (up-shift, packed table or None), by _resolve
        self.cutoff_note = (
            f"rows within raising reach of basis index {size - 1} are "
            "truncation-polluted and excluded from checks"
        )

    def matrix(self, symbol):
        return self.gens.get(symbol, {})

    def packed_table(self, sym, width):
        """The packed table of a symbol at v = 2**width."""
        return _pack_cols(self.gens.get(sym, {}), width)

    def apply_word(self, word, j):
        """Apply a product of symbols (leftmost acts last) to basis vector j."""
        return _residual(_resolve(self, [(ONE, word)])[1], j)

    def weight_grading_ok(self):
        """Generator matrices must respect the t*-grading."""
        cd = self.cd
        for sym, mat in self.gens.items():
            tw = None
            if isinstance(sym, tuple):
                op, i = sym[0], sym[1]
                if op == X_PLUS:
                    tw = cd.alpha_bar(i)
                elif op == X_MINUS:
                    tw = cd.alpha_bar(i).inv()
                else:
                    tw = cd.const_one()
            elif sym in ("e",):
                tw = cd.alpha_bar(1)
            elif sym in ("f",):
                tw = cd.alpha_bar(1).inv()
            else:
                tw = cd.const_one()
            for (r, c) in mat:
                if self.weights[r] != self.weights[c].mul(tw):
                    return False
        return True


# ---------------------------------------------------------------------------
# series expansion of rational l-weight components
# ---------------------------------------------------------------------------

def _poly_from_shifts(shifts):
    """prod_s (1 - z q^s) as a dense list of Laurent polynomials in v."""
    out = [{0: 1}]
    for s in shifts:
        # z^k gains -q^s times the old z^(k-1) coefficient
        out = [poly_sub(c, poly_scale(b, 1, 2 * s)) for c, b in zip(out + [{}], [{}] + out)]
    return out


def component_series(const, zeros, poles, nmodes, direction):
    """Modes of const * prod(1-zq^z)/prod(1-zq^p) as {mode: ExactScalar},
    for a const whose numerator is one term c v^e.

    direction +1: coefficients of z^0 .. z^nmodes;
    direction -1: coefficients of z^deg .. z^(deg-nmodes), deg = #zeros-#poles.
    The recurrence runs on Laurent polynomials and never divides: den has
    constant term 1, and its z^{-1}-side lead is the monomial +-v^e.
    """
    if len(const.num) != 1:
        raise ValueError(f"component_series needs a one-term numerator, not {const.num}")
    [(ce, c)] = const.num.items()
    num = _poly_from_shifts(zeros)
    den = _poly_from_shifts(poles)
    deg = 0
    if direction == -1:
        # the z^{-1} side is the z side of both polynomials reversed and
        # made monic in den's leading coefficient
        deg = len(num) - len(den)
        [(le, lc)] = den[-1].items()
        num = [poly_scale(p, lc, -le) for p in reversed(num)]
        den = [poly_scale(p, lc, -le) for p in reversed(den)]
    out = {}
    prev = []
    for k in range(nmodes + 1):
        p = num[k] if k < len(num) else {}
        for l in range(1, min(k, len(den) - 1) + 1):
            p = poly_sub(p, poly_mul(den[l], prev[k - l]))
        prev.append(p)
        if p:
            out[deg + direction * k] = ExactScalar(poly_scale(p, c, ce), const.den)
    return out


def _lweight_series(m, j, nmodes, direction, scale=ONE):
    """Mode expansion of coordinate j of the l-weight monomial m, times the
    monomial scale."""
    zeros = []
    poles = []
    for (node, t), e in m.exps.items():
        if node == j:
            zeros.extend([t] * e) if e > 0 else poles.extend([t] * (-e))
    const = scale * m.const.coordinate_scalar(j - 1)
    return component_series(const, zeros, poles, nmodes, direction)


# ---------------------------------------------------------------------------
# module constructions
# ---------------------------------------------------------------------------

def _qnum_over(c, e, m, ri, den):
    """c q^e [m]_{q_i} / (q_i - q_i^{-1}) as one ExactScalar over the
    normalized den = 1 - v^{4 r_i}: the numerator times -v^{2 r_i}."""
    return ExactScalar({2 * e + 2 * ri * (m - 2 * k): -c for k in range(m)}, den)


def _osc_verma(sign, gamma_exp, cutoff):
    """Verma modules of the q-oscillator algebras U_q^{+-}(sl_2)."""
    cd = build_cartan("A1")
    N = cutoff
    den = {0: 1, 4: -1}  # (q - q^{-1}) / -v^{-2}
    e = {}
    f = {}
    k = {}
    kinv = {}
    weights = []
    for r in range(N + 1):
        k[(r, r)] = ExactScalar({2 * gamma_exp - 4 * r: 1})
        kinv[(r, r)] = ExactScalar({4 * r - 2 * gamma_exp: 1})
        weights.append(ConstantFactor([gamma_exp - 2 * r], [0]))
        if r > 0:
            e[(r - 1, r)] = ONE
        if r < N:
            # sign * (gamma q^{-r})^sign [r+1]_q / (q - q^{-1})
            f[(r + 1, r)] = _qnum_over(sign, sign * (gamma_exp - r), r + 1, 1, den)
    gens = {"e": e, "f": f, "k": k, "kinv": kinv}
    up = {"e": -1, "f": 1, "k": 0, "kinv": 0}
    kind = "osc_verma_plus" if sign > 0 else "osc_verma_minus"
    return ExplicitModule(cd, kind, {"gamma_exp": gamma_exp}, N + 1, weights,
                          gens, 0, up)


def _node_gens(cd, lws, window, scale=ONE):
    """The x^{+-}_{j,m} of every node as zero matrices, and the diagonal
    phi^{+-}_{j,m} read off the l-weight series of the basis vectors lws,
    times scale."""
    gens = {}
    for m in range(-window, window + 1):
        for jn in cd.nodes():
            gens[(X_PLUS, jn, m)] = {}
            gens[(X_MINUS, jn, m)] = {}
    # (trois) reaches phi modes up to r+s = 2M, (phix) up to M + 2
    nm = 2 * window + 2
    for jn in cd.nodes():
        for sym, direction in ((PHI_PLUS, 1), (PHI_MINUS, -1)):
            mats = {mm: {} for mm in range(-nm, nm + 1)}
            for j, lw in enumerate(lws):
                for mm, s in _lweight_series(lw, jn, nm, direction, scale).items():
                    if -nm <= mm <= nm:
                        mats[mm][(j, j)] = s
            for mm, mat in mats.items():
                gens[(sym, jn, mm)] = mat
    return gens


def _affine_node_module(cd, i, r, cutoff, window, kind, gamma_exp=0):
    """Common frame for eval_sl2 (rank 1) and psitilde (any type): the
    infinite ladder v_m with x^+-,phi acting through node i only."""
    N = cutoff
    ri = cd.ri(i)
    den = {0: 1, 4 * ri: -1}  # (q_i - q_i^{-1}) / -v^{-2 r_i}, every x^- is over it
    lws = list(qc_closed_form(cd, "psitilde", i, r, N).terms)  # ladder order
    # the gamma-twist multiplies the phi series and x^-
    gens = _node_gens(cd, lws, window, ExactScalar.q_power(gamma_exp))
    up = dict.fromkeys(gens, 0)
    for m in range(-window, window + 1):
        xp = {}
        xm = {}
        for j in range(N + 1):
            if j > 0:
                # q^{rm} q^{2 r_i m (1-j)}
                xp[(j - 1, j)] = ExactScalar({2 * r * m + 4 * ri * m * (1 - j): 1})
            if j < N:
                # gamma q^{rm} q^{-r_i (2m+1) j} [j+1]_{q_i} / (q_i - q_i^{-1})
                xm[(j + 1, j)] = _qnum_over(1, gamma_exp + r * m - ri * (2 * m + 1) * j,
                                            j + 1, ri, den)
        gens[(X_PLUS, i, m)] = xp
        gens[(X_MINUS, i, m)] = xm
        up[(X_PLUS, i, m)] = -1
        up[(X_MINUS, i, m)] = 1
    gq = [0] * cd.n
    gq[i - 1] = gamma_exp
    gamma_cf = ConstantFactor(gq, [0] * cd.n)
    lws = [lw.with_const(lw.const.mul(gamma_cf)) for lw in lws]
    weights = [lw.const for lw in lws]
    params = {"node": i, "shift": r, "gamma_exp": gamma_exp}
    return ExplicitModule(cd, kind, params, N + 1, weights, gens, window, up,
                          lweights=lws)


def _psistar_module(cd, i, r, window):
    lws = list(qc_closed_form(cd, "psistar", i, r, 1).terms)
    gens = _node_gens(cd, lws, window)
    # basis 0,1 only: no cutoff pollution (x^- v_1 = 0 is exact), so every
    # symbol has up-shift 0 and both columns are checked
    up = dict.fromkeys(gens, 0)
    for m in range(-window, window + 1):
        gens[(X_MINUS, i, m)] = {(1, 0): ExactScalar({2 * r * m: 1})}
        gens[(X_PLUS, i, m)] = {(0, 1): ExactScalar({2 * (r * m - cd.ri(i)): 1})}
    weights = [lw.const for lw in lws]
    return ExplicitModule(cd, "psistar", {"node": i, "shift": r}, 2, weights,
                          gens, window, up, lweights=lws)


def build_module(kind, params=None, cutoff=8, mode_window=4):
    """Construct a built-in explicit module.

    kinds: osc_verma_plus / osc_verma_minus (params: gamma_exp),
    eval_sl2 (params: gamma_exp, shift), psitilde / psistar
    (params: type, node, shift).
    """
    params = dict(params or {})
    if cutoff < 1 or mode_window < 1:
        raise ValueError("cutoff and mode window must be >= 1")
    if kind in ("osc_verma_plus", "osc_verma_minus"):
        return _osc_verma(+1 if kind.endswith("plus") else -1,
                          params.get("gamma_exp", 0), cutoff)
    if kind == "eval_sl2":
        cd = build_cartan("A1")
        return _affine_node_module(
            cd, 1, params.get("shift", 0), cutoff, mode_window, "eval_sl2",
            gamma_exp=params.get("gamma_exp", 0),
        )
    if kind in ("psitilde", "psistar"):
        cd = build_cartan(params.get("type", "A1"))
        i, r = params.get("node", 1), params.get("shift", 0)
        if i not in cd.nodes():
            raise ValueError(f"node {i} out of range for {cd.type_label}")
        if kind == "psitilde":
            return _affine_node_module(cd, i, r, cutoff, mode_window, "psitilde")
        return _psistar_module(cd, i, r, mode_window)
    raise ValueError(f"unknown module kind {kind!r}")


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

# the packed values of +1 and -1 at every width (scalars.pack), by sign
_UNITS = {(0, 1, 1, 1): 1, (0, -1, 1, 1): -1}


def _resolve(mod, products, width=PACK_WIDTH, packs=None):
    """(max up-shift, walks) of a relation given as [(coeff, word)].

    A symbol resolves to its up-shift and packed_table once per module at
    PACK_WIDTH, the first time a word holds it (mod._cols), and once per
    call at a wider width.  A word reads its tables rightmost first with its
    max prefix cumulative up-shift; one holding a None table acts by zero and
    has no walk, but its up-shift still counts.  A walk is (packed coeff,
    sign, tables); a coefficient packed to +-1 (_UNITS) is None and its
    sign.  packs maps id(coeff) to (coeff, packed coeff) at this width, so
    one dict packs each coefficient once.
    """
    cache = mod._cols if width == PACK_WIDTH else {}
    packs = {} if packs is None else packs
    maxup = 0
    walks = []
    for coeff, word in products:
        tot = 0
        tables = []
        for sym in reversed(word):
            hit = cache.get(sym)
            if hit is None:
                hit = cache[sym] = (mod.upshift.get(sym, 0), mod.packed_table(sym, width))
            tot += hit[0]
            if tot > maxup:
                maxup = tot
            tables.append(hit[1])
        if None not in tables:
            hit = packs.get(id(coeff))
            if hit is None:
                hit = packs[id(coeff)] = (coeff, pack(coeff, width))
            sign = _UNITS.get(hit[1]) if tables else None
            walks.append((hit[1], 1, tables) if sign is None else (None, sign, tables))
    return maxup, (mod, products, width, walks)


def _residual(walks, j):
    """Sum of coeff * word applied to basis vector j as {row: ExactScalar}
    of its nonzero rows; {} means exact zero.

    Each word walks its packed tables from its coefficient (from its first
    entry for +-1, negated at the end for -1).  The generators of the ladder
    and oscillator modules have at most one entry per column, so a walk
    carries one (row, packed scalar) pair; from a column with two or more
    entries on (the coproduct tensor module) the rest of the walk is a
    sparse accumulate over a vector (_spread).  A row is read only while its
    bound proves its digits (scalars.pack); otherwise the relation is packed
    again at a width past the largest bound and walked again.
    """
    mod, products, width, pairs = walks
    acc = {}
    for val, sign, tables in pairs:
        row = j
        rest = iter(tables)
        for cols in rest:
            entries = cols.get(row)
            if not entries:
                break
            if len(entries) > 1:
                vec = {r: packed_mul(s, val) if val else s for r, s in entries}
                _spread(rest, vec, acc, width, sign)
                break
            row, s = entries[0]
            val = packed_mul(s, val) if val else s
        else:
            if sign < 0:
                val = (val[0], -val[1], val[2], val[3])
            cur = acc.get(row)
            acc[row] = val if cur is None else packed_add(cur, val, width)
    out = {}
    for r, p in acc.items():
        if p[3] >> (width - 1):
            top = max(q[3] for q in acc.values())
            return _residual(_resolve(mod, products, fit_width(top))[1], j)
        if p[1]:
            out[r] = unpack(p, width)
    return out


def _spread(tables, vec, acc, width, sign):
    """Add sign times the sparse packed vector vec, walked through tables,
    into acc."""
    for cols in tables:
        out = {}
        for c, v in vec.items():
            for r, s in cols.get(c, ()):
                p = packed_mul(s, v)
                cur = out.get(r)
                out[r] = p if cur is None else packed_add(cur, p, width)
        # a zero N is dropped only where its bound proves the value zero
        vec = {r: v for r, v in out.items() if v[1] or v[3] >> (width - 1)}
        if not vec:
            return
    for r, v in vec.items():
        if sign < 0:
            v = (v[0], -v[1], v[2], v[3])
        cur = acc.get(r)
        acc[r] = v if cur is None else packed_add(cur, v, width)


def _check_products(mod, products, columns=None, packs=None):
    """Evaluate a relation (list of (coeff, word)) on all unpolluted columns.

    A relation with no walk (every word has a missing or empty table) acts
    by zero, so it holds on every column without one being read.
    """
    maxup, walks = _resolve(mod, products, packs=packs)
    top = mod.size - 1 - maxup
    cols = range(0, top + 1) if columns is None else [j for j in columns if j <= top]
    if not walks[3]:
        return {"ok": True, "columns": len(cols)}
    for j in cols:
        res = _residual(walks, j)
        if res:
            r = min(res)
            return {"ok": False, "witness": {"column": j, "row": r, "value": repr(res[r])}}
    return {"ok": True, "columns": len(cols)}


def _phi_symbol(eps, i, m):
    return (PHI_PLUS if eps > 0 else PHI_MINUS, i, m)


_MINUS_ONE = ExactScalar.from_int(-1)


def _q_commutator(neg_qb, u1, w0, u0, w1):
    """u1 w0 - q^b w0 u1 - q^b u0 w1 + w1 u0 for neg_qb = -q^b, the shape of
    (hdd) and (phix)."""
    return [(ONE, [u1, w0]), (neg_qb, [w0, u1]), (neg_qb, [u0, w1]), (ONE, [w1, u0])]


def _drinfeld_relations(mod):
    """Relation instances (name, info, products) for the shifted algebra,
    yielded one at a time: each is checked and dropped before the next is
    built.  Each coefficient is built once per family loop, so the instances
    of a loop share the coefficient objects.

    A block (one family and outer parameters) whose every word holds an x of
    a dead (op, node), one with no nonempty matrix, acts by zero: its
    instances come with no words.  Families count as dead only where no word
    of length 2 can raise v_0 past the cutoff, so these are not "unchecked"."""
    cd = mod.cd
    M = mod.mode_window
    modes = range(-M, M + 1)
    dead = set()
    if 2 * max(mod.upshift.values(), default=0) < mod.size:
        dead = {(op, jn) for op in (X_PLUS, X_MINUS) for jn in cd.nodes()
                if not any(mod.gens.get((op, jn, m)) for m in modes)}

    # (un): phi modes commute (and with the other sign)
    for i in cd.nodes():
        for jn in cd.nodes():
            for (e1, e2) in ((1, 1), (1, -1)):
                for m1 in dict.fromkeys((-1, 0, 1, M)):  # 1 once when M = 1
                    for m2 in (0, 1, -M):
                        p = [
                            (ONE, [_phi_symbol(e1, i, m1), _phi_symbol(e2, jn, m2)]),
                            (_MINUS_ONE, [_phi_symbol(e2, jn, m2), _phi_symbol(e1, i, m1)]),
                        ]
                        yield ("un", (i, jn, e1, m1, e2, m2), p)
    # (deux): leading Cartan modes quasi-commute with x^{+-}
    for i in cd.nodes():
        # phi^-_{i, alpha_i(mu)} is the invertible leading mode
        lead_minus = mod.lweights[0].coweight()[i - 1] if mod.lweights else 0
        leads = ((1, (PHI_PLUS, i, 0), "+0"), (-1, (PHI_MINUS, i, lead_minus), "-lead"))
        for jn in cd.nodes():
            for sgn, xop in ((1, X_PLUS), (-1, X_MINUS)):
                neg_qds = [-ExactScalar.q_power(eps * sgn * cd.ri(i) * cd.c(i, jn))
                           for eps, _, _ in leads]
                zero = (xop, jn) in dead
                for r in modes:
                    for (_, phi, tag), neg_qd in zip(leads, neg_qds):
                        p = [] if zero else [(ONE, [phi, (xop, jn, r)]),
                                             (neg_qd, [(xop, jn, r), phi])]
                        yield ("deux", (i, jn, xop, r, tag), p)
    # (trois): [x^+_{i,r}, x^-_{j,s}] = delta_ij (phi^+_{r+s} - phi^-_{r+s})/(q_i - q_i^{-1})
    for i in cd.nodes():
        inv = ONE / (ExactScalar.q_power(cd.ri(i)) - ExactScalar.q_power(-cd.ri(i)))
        neg_inv = -inv
        for jn in cd.nodes():
            zero = i != jn and ((X_PLUS, i) in dead or (X_MINUS, jn) in dead)
            for r in modes:
                for s in modes:
                    p = [] if zero else [(ONE, [(X_PLUS, i, r), (X_MINUS, jn, s)]),
                                         (_MINUS_ONE, [(X_MINUS, jn, s), (X_PLUS, i, r)])]
                    if i == jn:
                        p.append((neg_inv, [_phi_symbol(1, i, r + s)]))
                        p.append((inv, [_phi_symbol(-1, i, r + s)]))
                    yield ("trois", (i, jn, r, s), p)
    # (hdd): x_{i,r+1} x_{j,s} - q^{+-B} x_{i,r} x_{j,s+1}
    #      = q^{+-B} x_{j,s} x_{i,r+1} - x_{j,s+1} x_{i,r}
    for i in cd.nodes():
        for jn in cd.nodes():
            b = cd.b(i, jn)
            for sgn, xop in ((1, X_PLUS), (-1, X_MINUS)):
                neg_qb = -ExactScalar.q_power(sgn * b)
                zero = (xop, i) in dead or (xop, jn) in dead
                for r in range(-M, M):
                    for s in range(-M, M):
                        p = [] if zero else _q_commutator(
                            neg_qb, (xop, i, r + 1), (xop, jn, s), (xop, i, r), (xop, jn, s + 1))
                        yield ("hdd", (i, jn, xop, r, s), p)
    # (phix) coefficientwise: phi^eps_a x_b-1 - q^{+-B} phi^eps_{a-1} x_b
    #                       = q^{+-B} x_{b-1} phi^eps_a - x_b phi^eps_{a-1}
    for i in cd.nodes():
        for jn in cd.nodes():
            b = cd.b(i, jn)
            for sgn, xop in ((1, X_PLUS), (-1, X_MINUS)):
                neg_qb = -ExactScalar.q_power(sgn * b)
                zero = (xop, jn) in dead
                for eps in (1, -1):
                    for a in range(-M - 1, M + 2):
                        for bb in range(-M + 1, M + 1):
                            p = [] if zero else _q_commutator(
                                neg_qb, _phi_symbol(eps, i, a), (xop, jn, bb - 1),
                                _phi_symbol(eps, i, a - 1), (xop, jn, bb))
                            yield ("phix", (i, jn, xop, eps, a, bb), p)
    # (seq) Drinfeld-Serre for i != j with C_{ij} < 0, small mode tuples
    for i in cd.nodes():
        for jn in cd.nodes():
            cij = cd.c(i, jn)
            if i == jn or cij >= 0:
                continue
            s = 1 - cij
            coeffs = [(-1) ** rr * qbinom(s, rr, cd.ri(i)) for rr in range(s + 1)]
            for sgn, xop in ((1, X_PLUS), (-1, X_MINUS)):
                # every Serre word contains x factors at the two nodes: if
                # either family acts by zero the instance holds trivially
                if any(all(not mod.gens.get((xop, nn, m)) for m in (0, 1))
                       for nn in (i, jn)):
                    yield ("seq", (i, jn, xop, "trivial"), [])
                    continue
                for mtuple in set(iproduct((0, 1), repeat=s)):
                    p = []
                    for pi in set(permutations(range(s))):
                        for rr, coeff in enumerate(coeffs):
                            word = (
                                [(xop, i, mtuple[pi[t]]) for t in range(rr)]
                                + [(xop, jn, 0)]
                                + [(xop, i, mtuple[pi[t]]) for t in range(rr, s)]
                            )
                            p.append((coeff, word))
                    yield ("seq", (i, jn, xop, mtuple), p)


def _sl2_relations(ef_tail):
    """(name, products) of k kinv = 1, k e = q^2 e k, k f = q^-2 f k and
    e f - f e + ef_tail = 0."""
    return [
        ("kkinv", [(ONE, ["k", "kinv"]), (_MINUS_ONE, [])]),
        ("ke", [(ONE, ["k", "e"]), (-ExactScalar.q_power(2), ["e", "k"])]),
        ("kf", [(ONE, ["k", "f"]), (-ExactScalar.q_power(-2), ["f", "k"])]),
        ("ef", [(ONE, ["e", "f"]), (_MINUS_ONE, ["f", "e"])] + ef_tail),
    ]


def _oscillator_relations(mod):
    sign = 1 if mod.kind.endswith("plus") else -1
    denom = ExactScalar.q_power(1) - ExactScalar.q_power(-1)
    rels = _sl2_relations([(-ExactScalar.from_int(sign) / denom,
                            ["k" if sign > 0 else "kinv"])])
    return [(name, (sign,) if name == "ef" else (), p) for name, p in rels]


def check_relations(module):
    """Verify the defining relations as exact matrix identities mode-by-mode.

    The q-oscillator Vermas are checked against the U_q^{+-}(sl_2)
    relations, every other module against the Drinfeld relations.  Returns a
    report {ok, families: [{family, instances, failures}]};
    truncation-polluted rows are skipped, never approximated.  A family
    whose instances include some with no unpolluted column reports their
    number as "unchecked".
    """
    if module.kind.startswith("osc"):
        rels = _oscillator_relations(module)
    else:
        rels = _drinfeld_relations(module)
    families = {}
    ok = True
    packs = {}
    for name, info, products in rels:
        fam = families.get(name)
        if fam is None:
            fam = families[name] = {"family": name, "instances": 0, "failures": []}
        fam["instances"] += 1
        if not products:
            continue
        res = _check_products(module, products, packs=packs)
        if not res["ok"]:
            ok = False
            fam["failures"].append({"instance": list(map(str, info)), **res["witness"]})
        elif not res["columns"]:
            # a word raises even v_0 past the cutoff: no column to check on
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


# ---------------------------------------------------------------------------
# oscillator coproducts Delta_{+-} checked as relation identities
# ---------------------------------------------------------------------------

def _kron_cols(terms, nb, width):
    """The packed table of sum a (x) b over [(a, b)] packed tables: packing
    is a ring homomorphism, so an entry is a packed_mul of factor entries,
    summed where two terms meet."""
    out = {}
    for a, b in terms:
        for c1, col1 in a.items():
            for c2, col2 in b.items():
                col = out.setdefault(c1 * nb + c2, {})
                for r1, s1 in col1:
                    for r2, s2 in col2:
                        r = r1 * nb + r2
                        p = packed_mul(s1, s2)
                        col[r] = p if r not in col else packed_add(col[r], p, width)
    return {c: list(col.items()) for c, col in out.items()} or None


class _TensorModule(ExplicitModule):
    """m1 (x) m2, a symbol acting as the sum of a (x) b over its delta pairs
    of factor symbols (None the identity); its tables are _kron_cols of the
    factor tables, packed once per width."""

    def __init__(self, m1, m2, delta, params):
        super().__init__(m1.cd, "osc_tensor", params, m1.size * m2.size, None, {}, 0, {})
        self.factors = (m1, m2)
        self.delta = delta
        self._factor_cols = {}  # width -> [{symbol: table}] of the factors

    def packed_table(self, sym, width):
        tabs = self._factor_cols.get(width)
        if tabs is None:
            tabs = self._factor_cols[width] = [
                {a: _pack_cols(mat, width) or {} for a, mat in
                 [(None, {(j, j): ONE for j in range(m.size)}), *m.gens.items()]}
                for m in self.factors]
        return _kron_cols([(tabs[0][a], tabs[1][b]) for a, b in self.delta.get(sym, ())],
                          self.factors[1].size, width)


def check_coproduct(sign, gamma_exp=0, beta_exp=0, cutoff=6):
    """Check Delta_{+-}: U_q(sl2) -> U_q^{+-} (x) U_q^{-+} on V(gamma) (x) W(beta).

    Delta_+(e) = e(x)1 + k^{-1}(x)e, Delta_+(f) = f(x)k + 1(x)f,
    Delta_+(k) = k(x)k (and the mirrored formulas for Delta_-).  Every tensor
    table, at PACK_WIDTH or a refit's wider width, is packed products of the
    factor tables packed at that width (_TensorModule).
    """
    kinds = ("osc_verma_plus", "osc_verma_minus")
    kind1, kind2 = kinds if sign > 0 else kinds[::-1]
    m1 = build_module(kind1, {"gamma_exp": gamma_exp}, cutoff, 1)
    m2 = build_module(kind2, {"gamma_exp": beta_exp}, cutoff, 1)
    n2 = m2.size
    kpm = "kinv" if sign > 0 else "k"
    kpm2 = "k" if sign > 0 else "kinv"
    mod = _TensorModule(m1, m2, {"e": [("e", None), (kpm, "e")], "f": [("f", kpm2), (None, "f")],
                                 "k": [("k", "k")], "kinv": [("kinv", "kinv")]}, {"sign": sign})
    denom = ExactScalar.q_power(1) - ExactScalar.q_power(-1)
    rels = _sl2_relations([(-ONE / denom, ["k"]), (ONE / denom, ["kinv"])])
    # columns with both tensor indices below the cutoffs (f may raise each once)
    good_cols = [j1 * n2 + j2 for j1 in range(m1.size - 1) for j2 in range(n2 - 1)]
    families = []
    ok = True
    for name, products in rels:
        res = _check_products(mod, products, columns=good_cols)
        families.append({"family": name, "instances": 1,
                         "failures": [] if res["ok"] else [res["witness"]]})
        ok = ok and res["ok"]
    return {"ok": ok, "kind": f"coproduct_{'plus' if sign > 0 else 'minus'}",
            "families": families}


# ---------------------------------------------------------------------------
# T-series eigenvalue ratios (Cartan-Drinfeld series)
# ---------------------------------------------------------------------------

def t_series_ratio(psi_target, psi_head, i):
    """Eigenvalue ratio of T_i^{+-}(z) between an l-weight and the head.

    With psi_target = psi_head * prod_k A_{i_k, q^{u_k}}^{-1}, the ratio is
    prod_{k: i_k = i} (1 - (z a_k^{-1})^{-+1})^{-+1}: returned as
    {"minus_roots": [m...]} meaning prod (1 - z q^m) for T^-, and
    {"plus_roots": [u...]} meaning prod (1 - z^{-1} q^u)^{-1} for T^+.
    """
    path = leq_certificate(psi_target, psi_head)
    if path is None:
        raise ValueError("target is not below the head in the Nakajima order")
    minus = []
    plus = []
    for (j, u), v in sorted(path.items()):
        if j == i:
            minus.extend([-u] * v)
            plus.extend([u] * v)
    return {"minus_roots": sorted(minus), "plus_roots": sorted(plus)}
