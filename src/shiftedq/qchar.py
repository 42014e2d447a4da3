"""q-characters as multiplicity maps over l-weights.

Infinite characters are represented by depth-truncated slices: every
retained term sits at A^{-1}-distance <= depth from the head, and identity
checks only compare inside the guaranteed margin.  The node-wise sl2
completion (fm_expand) works over Y-exponent keys; the Langlands-dual
characters read its multiplicities directly, and qc_frenkel_mukhin turns
its terms into l-weights.  It is contract-restricted to KR/fundamental
heads; other dominant heads are accepted but flagged heuristic.
"""

from __future__ import annotations

from fractions import Fraction

from .cartan import a_in_y
from .lweight import (
    LWeightMonomial,
    dominant_factorization,
    generator,
    is_dominant,
    leq_certificate,
    y_monomial,
)


class FMError(RuntimeError):
    pass


class FMBudgetError(FMError):
    """Expansion did not close within the depth budget."""


class QCharacter:
    def __init__(self, cd, head, terms, depth, complete, paths=None, heuristic=False):
        self.cd = cd
        self.head = head
        self.terms = terms  # LWeightMonomial -> positive multiplicity
        self.depth = depth
        self.complete = complete
        self.paths = paths or {}
        self.heuristic = heuristic
        if terms.get(head, 0) != 1:
            raise ValueError("head must appear with multiplicity 1")

    def __len__(self):
        return len(self.terms)

    def dim(self):
        return sum(self.terms.values())

    def term_distance(self, m):
        """A^{-1}-distance of a term from the head."""
        p = self.paths.get(m)
        if p is None:
            p = leq_certificate(m, self.head)
            if p is None:
                return None
            self.paths[m] = p
        return sum(p.values())

    def restrict(self, depth):
        """Exact restriction to terms at distance <= depth."""
        terms = {}
        paths = {}
        for m, c in self.terms.items():
            d = self.term_distance(m)
            if d is not None and d <= depth:
                terms[m] = c
                paths[m] = self.paths[m]
        still_complete = self.complete and len(terms) == len(self.terms)
        return QCharacter(
            self.cd, self.head, terms, depth, still_complete, paths, self.heuristic
        )

    def scale_monomial(self, m):
        """Multiply by the one-term character [m]."""
        terms = {t * m: c for t, c in self.terms.items()}
        paths = {t * m: p for t, p in self.paths.items() if t in self.terms}
        return QCharacter(
            self.cd, self.head * m, terms, self.depth, self.complete, paths, self.heuristic
        )

    def to_json(self):
        items = sorted(
            ((t.to_json(), c) for t, c in self.terms.items()),
            key=lambda x: (x[0]["exps"], x[0]["const"]),
        )
        out = {
            "head": self.head.to_json(),
            "depth": self.depth,
            "complete": self.complete,
            "terms": [[t, c] for t, c in items],
        }
        if self.heuristic:
            out["heuristic"] = True
        return out

    @staticmethod
    def from_json(cd, data):
        terms = {}
        for t, c in data["terms"]:
            terms[LWeightMonomial.from_json(cd, t)] = int(c)
        return QCharacter(
            cd,
            LWeightMonomial.from_json(cd, data["head"]),
            terms,
            int(data["depth"]),
            bool(data["complete"]),
            heuristic=bool(data.get("heuristic", False)),
        )

    def __repr__(self):
        flag = "complete" if self.complete else f"depth={self.depth}"
        return f"QCharacter({len(self.terms)} terms, {flag})"


def qc_one(cd):
    return qc_monomial(LWeightMonomial(cd))


def qc_monomial(m, depth=0):
    return QCharacter(m.cd, m, {m: 1}, depth, True, {m: {}})


def qc_mul(x1, x2):
    """Convolution product; heads multiply, margins take the minimum."""
    if x1.cd != x2.cd:
        raise ValueError("characters over different Cartan data")
    head = x1.head * x2.head
    if x1.complete and x2.complete:
        depth = x1.depth + x2.depth
    elif x1.complete:
        depth = x2.depth
    elif x2.complete:
        depth = x1.depth
    else:
        depth = min(x1.depth, x2.depth)
    terms = {}
    paths = {}
    for m1, c1 in x1.terms.items():
        p1 = x1.paths.get(m1)
        for m2, c2 in x2.terms.items():
            m = m1 * m2
            terms[m] = terms.get(m, 0) + c1 * c2
            p2 = x2.paths.get(m2)
            if p1 is not None and p2 is not None and m not in paths:
                p = dict(p1)
                for k, v in p2.items():
                    p[k] = p.get(k, 0) + v
                paths[m] = p
    out = QCharacter(
        x1.cd, head, terms, depth, x1.complete and x2.complete, paths,
        x1.heuristic or x2.heuristic,
    )
    if not out.complete:
        out = out.restrict(depth)
    return out


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

def _ladder(cd, head, i, r, depth, step):
    """head * sum_m prod_{l<m} A_{i, r - l*step}^{-1}, m = 0..depth."""
    terms = {head: 1}
    paths = {head: {}}
    cur = head
    path = {}
    for m in range(1, depth + 1):
        a = generator(cd, "A", i, r - (m - 1) * step)
        cur = cur.combine(a, -1)
        path = dict(path)
        path[(i, r - (m - 1) * step)] = 1
        terms[cur] = 1
        paths[cur] = path
    return terms, paths


def qc_closed_form(cd, kind, i, r, depth):
    if kind == "pos_prefund":
        return qc_monomial(generator(cd, "Psi", i, r), depth)
    if kind == "neg_prefund_sl2":
        if cd.n != 1:
            raise ValueError("neg_prefund_sl2 needs rank 1")
        head = generator(cd, "Psi", i, r).pow(-1)
        terms, paths = _ladder(cd, head, i, r, depth, 2)
        return QCharacter(cd, head, terms, depth, False, paths)
    if kind == "psitilde":
        head = generator(cd, "PsiTilde", i, r)
        terms, paths = _ladder(cd, head, i, r, depth, 2 * cd.ri(i))
        return QCharacter(cd, head, terms, depth, False, paths)
    if kind == "psistar":
        head = generator(cd, "PsiStar", i, r)
        a = generator(cd, "A", i, r)
        low = head.combine(a, -1)
        return QCharacter(
            cd, head, {head: 1, low: 1}, max(depth, 1), True,
            {head: {}, low: {(i, r): 1}},
        )
    raise ValueError(f"unknown closed form {kind!r}")


# ---------------------------------------------------------------------------
# node-wise sl2 completion from a dominant head
# ---------------------------------------------------------------------------

def _strings(uexps, step):
    """Greedy maximal q-strings of a nonnegative exponent map {shift: mult}.

    Returns a list of (top_shift, length); the canonical factorization into
    pairwise general-position strings.
    """
    u = dict(uexps)
    out = []
    while u:
        t = max(u)
        k = 0
        s = t
        while u.get(s, 0) > 0:
            u[s] -= 1
            if not u[s]:
                del u[s]
            k += 1
            s -= step
        out.append((t, k))
    return out


def _string_eigen_terms(top, k, step):
    """sl2-character of one string as A^{-1}-shift lists.

    Term j (0 <= j <= k) multiplies by A^{-1} at shifts
    top + step/2, top + step/2 - step, ... (j factors).
    """
    half = step // 2
    out = []
    for j in range(k + 1):
        out.append([top + half - l * step for l in range(j)])
    return out


def _string_products(factors, cap):
    """Products of one term per string, each string given as its list of
    A^{-1}-shift lists (_string_eigen_terms).

    Returns ({sorted shifts: multiplicity}, dropped): the products of at most
    cap shifts, keyed in itertools.product order, and whether any product was
    longer than cap.
    """
    combos = [()]
    dropped = False
    for options in factors:
        nxt = []
        for base in combos:
            for shifts in options:
                if len(base) + len(shifts) > cap:
                    dropped = True
                else:
                    nxt.append(base + tuple(shifts))
        combos = nxt
    out = {}
    for shifts in combos:
        key = tuple(sorted(shifts))
        out[key] = out.get(key, 0) + 1
    return out, dropped


def fm_expand(cd, head_y, depth, require_complete=False):
    """Node-wise sl2 completion from a dominant Y-monomial head, over
    Y-exponent keys.

    head_y: {(i, t): exp >= 0} meaning prod Y_{i,q^t}^{exp}, every i a node
    of cd (FMError otherwise).  Returns (state, complete): state maps the
    sorted Y-exponent tuple of each term, head first, to [multiplicity,
    {(i, t): exp}, A^{-1}-path {(i, s): count}, A^{-1}-distance from the
    head]; complete is False when a string product longer than the
    remaining depth was dropped, which raises FMBudgetError under
    require_complete.

    Each term's sorted key is read once, grouped by node, and every node
    without a negative exponent is expanded by its q-string products.  A
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
    state = {head_key: [1, dict(head_y), {}, 0]}
    frontier = [head_key]
    truncated = False
    while frontier:
        new_frontier = []
        queued = set()
        for k in frontier:
            mult, y, path, w = state[k]
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
                products, dropped = _string_products(
                    [_string_eigen_terms(top, kk, step) for top, kk in _strings(u, step)],
                    depth - w,
                )
                truncated = truncated or dropped
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
                        state[nk] = [need, ny, npath, w + len(shifts)]
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


def qc_frenkel_mukhin(cd, head_y, depth, require_complete=False):
    """fm_expand as a QCharacter over l-weights.

    lweight.y_monomial turns each term's sorted Y-key into its l-weight;
    lweight.expand_in_basis(cd, "Y", y) is the oracle it is tested against.
    Guaranteed for KR/fundamental heads; anything else is flagged heuristic.
    """
    state, complete = fm_expand(cd, head_y, depth, require_complete)
    terms = {}
    paths = {}
    for k, (mult, _y, path, _w) in state.items():
        m = y_monomial(cd, k)
        terms[m] = mult  # Y-exponents determine the monomial injectively
        paths[m] = path

    # KR/fundamental contract on the head (the first state, zero exponents
    # dropped): one node, one maximal string
    head_y = next(iter(state.values()))[1]
    nodes_used = {i for (i, _) in head_y}
    heuristic = True
    if len(nodes_used) <= 1:
        if not head_y:
            heuristic = False
        else:
            (i0,) = nodes_used
            u = {t: e for (_, t), e in head_y.items()}
            heuristic = not (
                all(e == 1 for e in u.values())
                and len(_strings(u, 2 * cd.ri(i0))) == 1
            )
    return QCharacter(cd, next(iter(terms)), terms, depth, complete, paths,
                      heuristic)


def qc_kr(cd, i, top_shift, k, depth=None, require_complete=True):
    """Kirillov-Reshetikhin character with head Y_{i,s}...Y_{i,s+2r_i(k-1)},
    top Y at top_shift."""
    ri = cd.ri(i)
    head = {(i, top_shift - 2 * ri * l): 1 for l in range(k)}
    if depth is None:
        depth = 2 * k * sum(cd.r) * cd.n + 4
    return qc_frenkel_mukhin(cd, head, depth, require_complete)


def qc_kr_chains(cd, chains):
    """Product of the complete KR characters of the Y-tilde chains (i, s, k)
    of dominant_factorization."""
    out = qc_one(cd)
    for (i, s, k) in chains:
        out = qc_mul(out, qc_kr(cd, i, s + (2 * k - 1) * cd.ri(i), k))
    return out


def qc_neg_prefund_limit(cd, i, r, depth):
    """Depth slice of chi_q(L^-_{i,q^r}) as the stabilized, head-normalized
    KR character at k = depth+1 (two consecutive slices must agree).

    The terms are the KR terms times Psi_{i,r}^{-1} / head, in the order of
    their sorted A^{-1}-paths."""
    prev = None
    for k in range(depth + 1, depth + 5):
        x = qc_kr(cd, i, r - cd.ri(i), k, depth=depth, require_complete=False)
        order = sorted(x.paths, key=lambda m: sorted(x.paths[m].items()))
        sl = [(x.paths[m], x.terms[m]) for m in order]
        if sl == prev:
            head = generator(cd, "Psi", i, r).pow(-1)
            scale = head.combine(x.head, -1)
            terms = {}
            paths = {}
            for m in order:
                t = m * scale
                terms[t] = x.terms[m]
                paths[t] = x.paths[m]
            return QCharacter(cd, head, terms, depth, False, paths)
        prev = sl
    raise FMError(
        f"negative prefundamental slice at node {i} did not stabilize"
    )


# ---------------------------------------------------------------------------
# rank-1 exact classification
# ---------------------------------------------------------------------------

def qc_simple_sl2(psi):
    """Exact complete character of L(psi) for rank 1, psi dominant:
    factorize into KR and positive prefundamental factors and multiply."""
    cd = psi.cd
    if cd.n != 1:
        raise ValueError("qc_simple_sl2 needs rank 1")
    if not is_dominant(psi):
        raise ValueError("l-weight is not dominant")
    chains, leftovers = dominant_factorization(psi)
    out = qc_kr_chains(cd, chains)
    rest = LWeightMonomial(cd, dict(leftovers))
    const = psi.combine(out.head * rest, -1)
    if const.exps:
        raise AssertionError("factorization lost monomial content")
    out = out.scale_monomial(rest.with_const(const.const))
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def check_triangularity(x):
    """Every term must satisfy term <= head in the Nakajima order."""
    violations = [
        m for m in x.terms if m != x.head and leq_certificate(m, x.head) is None
    ]
    return {
        "ok": not violations,
        "checked": len(x.terms),
        "violations": [m.to_json() for m in violations],
    }


def _first_difference(a, b, name, show):
    """The first key of two multiplicity maps whose counts differ, as a
    witness {name: show(key), "lhs": ..., "rhs": ...}; None when a == b."""
    for k in set(a) | set(b):
        if a.get(k, 0) != b.get(k, 0):
            return {name: show(k), "lhs": a.get(k, 0), "rhs": b.get(k, 0)}
    return None


def _compare_on_margin(lhs, rhs, ref_head, margin):
    """Term-by-term comparison of multiplicity maps inside distance <= margin
    of ref_head. Returns (equal, witness)."""
    def slice_of(terms):
        out = {}
        for m, c in terms.items():
            p = leq_certificate(m, ref_head)
            if p is not None and sum(p.values()) <= margin:
                out[m] = c
        return out

    witness = _first_difference(slice_of(lhs), slice_of(rhs), "term",
                                LWeightMonomial.to_json)
    return witness is None, witness


def check_identity(cd, kind, i, r, depth):
    """Verify a Grothendieck-ring identity term-exactly inside the margin."""
    if depth < 2:
        raise ValueError("identity checks need depth >= 2")
    if kind == "QQtilde":
        ri = cd.ri(i)
        lhs = qc_mul(
            qc_closed_form(cd, "psitilde", i, r, depth),
            qc_monomial(generator(cd, "Psi", i, r)),
        )
        x2 = qc_mul(
            qc_closed_form(cd, "psitilde", i, r - 2 * ri, depth),
            qc_monomial(generator(cd, "Psi", i, r + 2 * ri)),
        )
        tw = LWeightMonomial(cd, {}, cd.alpha_bar(i).inv())
        x2 = x2.scale_monomial(tw)
        m2 = generator(cd, "PsiTilde", i, r) * generator(cd, "Psi", i, r)
        rhs_terms = dict(x2.terms)
        rhs_terms[m2] = rhs_terms.get(m2, 0) + 1
        margin = depth - 1
        ok, witness = _compare_on_margin(lhs.terms, rhs_terms, lhs.head, margin)
        return {"identity": "QQtilde", "ok": ok, "margin": margin, "witness": witness}
    if kind == "QQstar":
        lhs = qc_mul(
            qc_closed_form(cd, "psistar", i, r, depth),
            qc_monomial(generator(cd, "Psi", i, r)),
        )
        t1 = LWeightMonomial(cd, {}, cd.alpha_bar(i).inv())
        t2 = LWeightMonomial(cd)
        for j in cd.nodes():
            if cd.c(i, j):
                t1 = t1 * generator(cd, "Psi", j, r + cd.b(i, j))
                t2 = t2 * generator(cd, "Psi", j, r - cd.b(i, j))
        rhs_terms = {t1: 1}
        rhs_terms[t2] = rhs_terms.get(t2, 0) + 1
        witness = _first_difference(lhs.terms, rhs_terms, "term",
                                    LWeightMonomial.to_json)
        return {"identity": "QQstar", "ok": witness is None, "margin": depth,
                "witness": witness}
    if kind == "charqf_sl2":
        return _check_charqf_sl2(cd, i, r, depth)
    raise ValueError(f"unknown identity {kind!r}")


def weight_character(x):
    """Project a q-character to its weight character: ConstantFactor -> dim."""
    out = {}
    for m, c in x.terms.items():
        w = m.const
        out[w] = out.get(w, 0) + c
    return out


def _wc_mul(w1, w2):
    out = {}
    for a, ca in w1.items():
        for b, cb in w2.items():
            k = a.mul(b)
            out[k] = out.get(k, 0) + ca * cb
    return out


def _check_charqf_sl2(cd, i, r, depth):
    """chi(L^b(Psi)) = chi(L(Psi)) * chi_1^{alpha(mu)} for the rank-1 case
    Psi = Y_{1,r} * Psi_{1,r+5}, compared as weight characters.

    chi_1 is derived from the negative prefundamental character (the
    duality D preserves dimensions and characters).  The left side is
    assembled from the factorized Borel formula, the right side from the
    full rank-1 classification character.
    """
    if cd.n != 1:
        raise ValueError("charqf_sl2 needs rank 1")
    psi = generator(cd, "Y", 1, r) * generator(cd, "Psi", 1, r + 5)
    chi1 = weight_character(qc_closed_form(cd, "neg_prefund_sl2", 1, 0, depth))
    # LHS: chi(L^b(Psi)) = chi(KR-part) * [w+] * chi_1  (cform route)
    kr_w = weight_character(qc_simple_sl2(generator(cd, "Y", 1, r)))
    wplus = {generator(cd, "Psi", 1, r + 5).const: 1}
    lhs = _wc_mul(_wc_mul(kr_w, wplus), chi1)
    # RHS: chi(L(Psi)) * chi_1^{alpha_1(mu)}; alpha_1(mu) = 1 here
    full_w = weight_character(qc_simple_sl2(psi))
    rhs = _wc_mul(full_w, chi1)
    # compare on alpha-heights <= depth relative to the top weight
    top = psi.const
    def ht_slice(w):
        out = {}
        for k, c in w.items():
            d = k.mul(top, -1)
            # d must be alphabar^(-h): qexps = -h * B-row; rank 1: q^(-2h)
            h = Fraction(-d.qexps[0], 2)
            if h.denominator == 1 and 0 <= h <= depth and not any(d.zetas):
                out[k] = c
        return out

    witness = _first_difference(ht_slice(lhs), ht_slice(rhs), "weight", repr)
    return {"identity": "charqf_sl2", "ok": witness is None, "margin": depth,
            "witness": witness}
