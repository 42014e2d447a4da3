"""q-characters as multiplicity maps over l-weights.

Every QCharacter is one (l-weight key, multiplicity, A^{-1}-path) entry
per term, head first; products multiply keys.  Infinite characters are
depth-truncated slices: every retained term sits at A^{-1}-distance <=
depth from the head, and identity checks only compare inside the
guaranteed margin.  The node-wise sl2 completion runs over packed
Y-exponent keys; fm_expand decodes them, and qc_frenkel_mukhin turns them
into l-weight keys.  qc_frenkel_mukhin is contract-restricted to
KR/fundamental heads; other dominant heads are accepted but flagged
heuristic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property

from .cartan import a_in_y_table, coroot_inverse
from .lweight import (
    LWeightMonomial,
    dominant_factorization,
    factor_in_basis,
    generator,
    is_dominant,
    key_mul,
    leq_certificate,
    y_key,
)
from .scalars import json_int


class FMError(RuntimeError):
    pass


class FMBudgetError(FMError):
    """Expansion did not close within the depth budget."""


class _Texts(dict):
    """Memo of JSON texts: a missing key is rendered once by render."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _int(x):
    """x, which must be an int: "%d" would print a bool, float or Fraction
    as an int, and json.dumps refuses a Fraction."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def _coord_text(coord):
    """(num, den, zeta) of a const coordinate (q-exponent, zeta), and its
    JSON text."""
    e, s = coord
    t = (e.numerator, e.denominator, s)
    return t, "[%d,%d,%d]" % t


class QCharacter:
    """A q-character as one (LWeightMonomial.key(), multiplicity,
    A^{-1}-path) entry per term, head first: each term is the head times
    prod A_{i,q^s}^{-path[(i, s)]}.  len, dim, restrict and dumps (the
    payload writer, which to_json parses) read the entries; head, terms and
    paths are built on first access."""

    def __init__(self, cd, entries, depth, complete, heuristic=False):
        self.cd = cd
        self.entries = entries
        self.depth = depth
        self.complete = complete
        self.heuristic = heuristic
        if entries[0][1] != 1:
            raise ValueError("head must appear with multiplicity 1")

    @cached_property
    def head(self):
        return LWeightMonomial.from_key(self.cd, self.entries[0][0])

    @cached_property
    def terms(self):
        return {LWeightMonomial.from_key(self.cd, k): c for k, c, _p in self.entries}

    @cached_property
    def paths(self):
        return dict(zip(self.terms, [p for _k, _c, p in self.entries]))

    def __len__(self):
        return len(self.entries)

    def dim(self):
        return sum(c for _k, c, _p in self.entries)

    def restrict(self, depth):
        """Exact restriction to terms at distance <= depth."""
        entries = [e for e in self.entries if sum(e[2].values()) <= depth]
        still_complete = self.complete and len(entries) == len(self.entries)
        return QCharacter(self.cd, entries, depth, still_complete, self.heuristic)

    def dumps(self):
        """The canonical payload text, written from the entries: the bytes
        json.dumps(tree, sort_keys=True, separators=(",", ":")) gives for
        the tree {"complete", "depth", "head", "heuristic" (only when set),
        "terms": [[{"const": [[num, den, zeta], ...], "exps": [[i, r, e],
        ...]}, multiplicity], ...]}, terms sorted by (Psi items, const
        triples, multiplicity).  Each distinct Psi item and weight is
        rendered once.  A node, shift, exponent, zeta, multiplicity or depth
        that is not an int, or a q-exponent that is neither an int nor a
        Fraction, raises TypeError."""
        psi = _Texts(lambda item: "[%d,%d,%d]" % (*item[0], item[1]))
        coords = _Texts(_coord_text)
        weights = {}
        rows = []
        checked_z = None
        for (items, q, z), c, _p in self.entries:
            for (i, r), e in items:
                if type(i) is not int or type(r) is not int or type(e) is not int:
                    raise TypeError(f"Psi item {((i, r), e)!r} is not integral")
            for e in q:
                if type(e) is not int and type(e) is not Fraction:
                    raise TypeError(f"q-exponent {e!r} is neither an int nor a Fraction")
            if z is not checked_z:
                for s in z:
                    _int(s)
                checked_z = z
            if (w := weights.get((q, z))) is None:
                t, texts = zip(*map(coords.__getitem__, zip(q, z)))
                w = weights[q, z] = (t, "[%s]" % ",".join(texts))
            rows.append((items, w, _int(c)))
        rows.sort()
        get = psi.__getitem__
        (items, q, z), _c, _p = self.entries[0]
        return '{"complete":%s,"depth":%d,"head":{"const":%s,"exps":[%s]}%s,"terms":[%s]}' % (
            json.dumps(self.complete), _int(self.depth), weights[q, z][1],
            ",".join(map(get, items)), ',"heuristic":true' if self.heuristic else "",
            ",".join(['[{"const":%s,"exps":[%s]},%d]' % (w[1], ",".join(map(get, ps)), c)
                      for ps, w, c in rows]))

    def to_json(self):
        """The payload as a tree: dumps() parsed, so it has one writer."""
        return json.loads(self.dumps())

    @staticmethod
    def from_json(cd, data):
        """Validate outside input: every term is listed once with an integer
        multiplicity >= 1 and lies below the head, whose multiplicity must be
        1; depth is an integer >= 0 and the flags are JSON booleans; each
        path is its leq_certificate."""
        head = LWeightMonomial.from_json(cd, data["head"])
        terms = {}
        for t, c in data["terms"]:
            m = LWeightMonomial.from_json(cd, t)
            c = json_int(c, "multiplicity")
            if c < 1:
                raise ValueError(f"multiplicity {c} is below 1")
            if m in terms:
                raise ValueError(f"term {m!r} is listed twice")
            terms[m] = c
        depth = json_int(data["depth"], "depth")
        if depth < 0:
            raise ValueError(f"depth {depth} is negative")
        complete, heuristic = data["complete"], data.get("heuristic", False)
        if type(complete) is not bool or type(heuristic) is not bool:
            raise ValueError("complete and heuristic must be booleans")
        if terms.get(head) != 1:
            raise ValueError("head must appear with multiplicity 1")
        entries = [(head.key(), 1, {})]
        for m, c in terms.items():
            if m != head:
                p = leq_certificate(m, head)
                if p is None:
                    raise ValueError(f"term {m!r} is not below the head {head!r}")
                entries.append((m.key(), c, p))
        return QCharacter(cd, entries, depth, complete, heuristic)

    def __repr__(self):
        flag = "complete" if self.complete else f"depth={self.depth}"
        return f"QCharacter({len(self)} terms, {flag})"


def qc_one(cd):
    return qc_monomial(LWeightMonomial(cd))


def qc_monomial(m, depth=0):
    return QCharacter(m.cd, [(m.key(), 1, {})], depth, True)


def qc_mul(x1, x2):
    """Convolution product; heads multiply, margins take the minimum.  The
    one product of q-characters: a one-term factor is a qc_monomial.  Keys
    multiply (lweight.key_mul); no monomial is built.  Distances add, so a
    product compared on a margin m is the product of the factors restricted
    to m."""
    if x1.cd != x2.cd:
        raise ValueError("characters over different Cartan data")
    if x1.complete and x2.complete:
        depth = x1.depth + x2.depth
    else:
        depth = min(x.depth for x in (x1, x2) if not x.complete)
    # key -> [multiplicity, path]; a product's path is the sum of its
    # factors' paths, the same for every pair giving it
    acc = {}
    for k1, c1, p1 in x1.entries:
        for k2, c2, p2 in x2.entries:
            k = key_mul(k1, k2)
            cur = acc.get(k)
            if cur is None:
                p = dict(p1)
                for a, v in p2.items():
                    p[a] = p.get(a, 0) + v
                acc[k] = [c1 * c2, p]
            else:
                cur[0] += c1 * c2
    out = QCharacter(
        x1.cd, [(k, c, p) for k, (c, p) in acc.items()], depth,
        x1.complete and x2.complete, x1.heuristic or x2.heuristic,
    )
    if not out.complete:
        out = out.restrict(depth)
    return out


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

def _ladder(cd, head, i, r, depth, step):
    """The entries of head * sum_m prod_{l<m} A_{i, r - l*step}^{-1},
    m = 0..depth, in that order."""
    entries = [(head.key(), 1, {})]
    cur = head
    path = {}
    for m in range(depth):
        s = r - m * step
        cur = cur.combine(generator(cd, "A", i, s), -1)
        path = {**path, (i, s): 1}
        entries.append((cur.key(), 1, path))
    return entries


def qc_closed_form(cd, kind, i, r, depth):
    if kind == "pos_prefund":
        return qc_monomial(generator(cd, "Psi", i, r), depth)
    if kind == "neg_prefund_sl2":
        if cd.n != 1:
            raise ValueError("neg_prefund_sl2 needs rank 1")
        head = generator(cd, "Psi", i, r).pow(-1)
        return QCharacter(cd, _ladder(cd, head, i, r, depth, 2), depth, False)
    if kind == "psitilde":
        head = generator(cd, "PsiTilde", i, r)
        return QCharacter(cd, _ladder(cd, head, i, r, depth, 2 * cd.ri(i)), depth, False)
    if kind == "psistar":
        head = generator(cd, "PsiStar", i, r)
        return QCharacter(cd, _ladder(cd, head, i, r, 1, 0), max(depth, 1), True)
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
    return [[top + half - l * step for l in range(j)] for j in range(k + 1)]


def _string_products(factors, cap):
    """Products of one term per string, each string given as its list of
    A^{-1}-shift lists (_string_eigen_terms).

    Returns {sorted shifts: multiplicity}: the products of at most cap
    shifts, keyed in itertools.product order.  One was dropped exactly when
    the longest product, one longest term per string, is longer than cap.
    """
    combos = [()]
    for options in factors:
        nxt = []
        for base in combos:
            for shifts in options:
                if len(base) + len(shifts) <= cap:
                    nxt.append(base + tuple(shifts))
        combos = nxt
    out = {}
    for shifts in combos:
        key = tuple(sorted(shifts))
        out[key] = out.get(key, 0) + 1
    return out


def _node_products(part, width, step, inverse, cap):
    """The q-string products of one node part of a term, for _fm_index.

    part: the exponents of node i as width-bit digits, every one >= 0, the
    lowest nonzero at digit 0; digit t is relative shift t.  inverse: the
    change A_{i,q^{r_i}}^{-1} makes to a key whose part starts at slot 0
    (_window).  Returns [products, top, cap, reach]: products lists [shifts,
    count, len(shifts), delta] for each nonempty product of at most cap
    shifts, in _string_products order, where delta is the change
    prod_s A_{i,q^s}^{-1} makes to that key (inverse shifted to each s);
    top is the length of the longest product, kept or not (every string
    taken whole: the exponent sum); reach is the highest slot a delta
    changes (-1 with no product).

    No delta changes a slot below the part's lowest: a string's lowest
    A^{-1} shift is its lowest Y shift plus r_i, and A_{i,q^s} has its
    Y-variables at shifts s + o with |o| <= r_i, o = r_i at node i
    (cartan.a_in_y), so reach is the top Y shift plus 2 r_i.
    """
    digit = (1 << width) - 1
    u = {}
    t = 0
    while part:
        e = part & digit
        if e:
            u[t] = e
        part >>= width
        t += 1
    products = _string_products(
        [_string_eigen_terms(s, k, step) for s, k in _strings(u, step)], cap
    )
    r = step // 2
    out = []
    for shifts, c in products.items():
        if shifts:
            delta = 0
            for s in shifts:
                delta += inverse << width * (s - r)
            out.append([shifts, c, len(shifts), delta])
    # the top string's first factor alone is kept whenever any product is
    return [out, sum(u.values()), cap, t - 1 + step if out else -1]


def _window(width, size, rows):
    """(bits, mask, bias, full, inverses) of _fm_index's packing with size
    slots per node, rows the a_in_y_table rows: a node part's bits and
    mask, an all-zero part (every digit 2^(width-1)), the empty monomial's
    key, and per node i the change A_{i,q^{lo+r_i}}^{-1} makes to a key,
    which shifted by width * (s - r_i) is that of A_{i,q^{lo+s}}^{-1},
    s >= r_i."""
    bits = width * size
    mask = (1 << bits) - 1
    bias = mask // ((1 << width) - 1) << (width - 1)
    full = bias * (((1 << len(rows) * bits) - 1) // mask)
    inverses = []
    for step, items in rows:
        inverse = 0
        for (j, o), e in items:
            inverse -= e << width * ((j - 1) * size + o + step // 2)
        inverses.append(inverse)
    return bits, mask, bias, full, inverses


def _decode(x, width, slots):
    """The sorted Y-exponent tuple of x, a packed key or node part XOR its
    all-bias value, slots the (node, shift) of each slot, node-major: each
    exponent is a width-bit two's complement, so only nonzero digits are
    visited."""
    digit = (1 << width) - 1
    sign = 1 << width - 1
    out = []
    slot = 0
    while x:
        skip = ((x & -x).bit_length() - 1) // width
        x >>= width * skip
        slot += skip
        e = x & digit
        x >>= width
        out.append((slots[slot], e - (e & sign) * 2))
        slot += 1
    return tuple(out)


def _window_pad(cd, depth):
    """The slots fm_expand's window starts with above the highest head
    shift: lacing * dual Coxeter number, the span of a fundamental
    q-character, or 2 * lacing * depth, the most a term can rise, if less."""
    return min(cd.lacing * cd.dual_coxeter, 2 * cd.lacing * depth)


def fm_expand(cd, head_y, depth, require_complete=False):
    """Node-wise sl2 completion from a dominant Y-monomial head, over
    Y-exponent keys.

    head_y: {(i, t): exp >= 0} meaning prod Y_{i,q^t}^{exp}, every i a node
    of cd (FMError otherwise).  Returns (state, complete): state maps the
    sorted Y-exponent tuple of each term, head first, to [multiplicity,
    A^{-1}-path {(i, s): count}, A^{-1}-distance from the head]; complete
    is False when a string product longer than the remaining depth was
    dropped, which raises FMBudgetError under require_complete.
    """
    index, complete, (width, size, full, slots) = _fm_index(
        cd, head_y, depth, require_complete)
    return {_decode(k ^ full, width, slots): rec for k, rec in index.items()}, complete


def _fm_index(cd, head_y, depth, require_complete):
    """fm_expand's state over packed keys: (index, complete, (width, size,
    full, slots)), index mapping each key to its record, head first.

    A key is one int of width-bit digits: the exponent of Y_{j,q^t} plus
    the bias 2^(width-1) at digit (j - 1) * size + t - lo, lo the lowest
    head shift; full is the empty monomial's key and slots the (j, t) of
    each digit.  No exponent passes the
    largest head exponent plus depth times the largest |exponent| of an A_i
    in Y, which is below the bias, so no digit carries.  No shift falls
    below lo (_node_products), and a child rises at most 2 r_i above its
    parent, so size starts at the head's span plus _window_pad; a delta
    reaching past it runs the expansion again from the head in a window
    that holds it, so nothing wraps.

    Node i's part is one shift and mask of the key (all bias: absent; a
    cleared top bit: a negative exponent, skipped).  Its products depend
    only on the part up to translation, so one table per run, keyed by node
    and by the part shifted to its lowest slot, holds them (_node_products),
    enumerated at the remaining depth of the first term that meets it and
    again, wider, only for a term with more room that meets a cut one.  A
    term at distance w takes the products of at most depth - w shifts, in
    _string_products order.  Only a new child gets its path; a term reached again with a larger
    multiplicity takes it and is queued again (the `max` merge of ROADMAP
    item 1).
    """
    head_y = {k: e for k, e in head_y.items() if e}
    if any(e < 0 for e in head_y.values()):
        raise FMError("head must be a dominant Y-monomial")
    nodes = cd.nodes()
    for i, _t in head_y:
        if i not in nodes:
            raise FMError(f"head node {i} out of range for {cd.type_label}")
    rows, cmax = a_in_y_table(cd)
    factors = max(depth, 0)  # the most A^{-1} factors a term can have
    width = (max(head_y.values(), default=0) + factors * cmax).bit_length() + 1
    shifts = [t for _i, t in head_y]
    lo = min(shifts, default=0)
    pad = _window_pad(cd, factors)
    # the slots the head spans, or those a delta past the window reaches
    run = max(shifts, default=0) - lo + 1
    while isinstance(run, int):
        run = _fm_run(head_y, depth, width, lo, run + pad, rows)
    if require_complete and not run[1]:
        raise FMBudgetError(f"expansion of {head_y} did not close within depth {depth}")
    return run


def _fm_run(head_y, depth, width, lo, size, rows):
    """_fm_index's loop in a window of size slots per node: its result, or
    the slots a delta past the window needs."""
    bits, mask, bias, head, inverses = _window(width, size, rows)
    full = head
    for (i, t), e in head_y.items():
        head += e << (i - 1) * bits + width * (t - lo)
    nodes = range(1, len(rows) + 1)
    # per node: the node parts met so far, shifted to their lowest slot ->
    # _node_products entry; it lives for this run only
    tables = [{} for _ in rows]
    index = {head: [1, {}, 0]}
    frontier = [head]
    truncated = False
    while frontier:
        new_frontier = []
        queued = set()
        for k in frontier:
            mult, path, w = index[k]
            room = depth - w
            rest = k
            for i, (step, _items), inverse, table in zip(nodes, rows, inverses, tables):
                part = rest & mask
                rest >>= bits
                if part == bias or part & bias != bias:
                    continue
                part ^= bias
                p = ((part & -part).bit_length() - 1) // width
                low = part >> width * p
                entry = table.get(low)
                # enumerate again only if products this term keeps were cut
                if entry is None or entry[2] < room and entry[2] < entry[1]:
                    entry = table[low] = _node_products(low, width, step, inverse, room)
                products, top, _cap, reach = entry
                if p + reach >= size:
                    return p + reach + 1
                if top > room:
                    truncated = True
                t0 = lo + p
                at = width * p
                for shifts, c, m, delta in products:
                    if m > room:
                        continue
                    nk = k + (delta << at)
                    need = mult * c
                    cur = index.get(nk)
                    if cur is None:
                        npath = dict(path)
                        for s in shifts:
                            key = (i, s + t0)
                            npath[key] = npath.get(key, 0) + 1
                        index[nk] = [need, npath, w + m]
                    elif cur[0] < need:
                        cur[0] = need
                    else:
                        continue
                    if nk not in queued:
                        queued.add(nk)
                        new_frontier.append(nk)
        frontier = new_frontier
    slots = [(i, t) for i in nodes for t in range(lo, lo + size)]
    return index, not truncated, (width, size, full, slots)


def qc_frenkel_mukhin(cd, head_y, depth, require_complete=False):
    """fm_expand as a QCharacter, its entries in fm_expand's order.

    A packed key (_fm_index) becomes its node parts' Psi items in node
    order and their q-exponents, each distinct part decoded once per call
    (_decode, lweight.y_key).  The index is consumed as entries are built.
    Guaranteed for KR/fundamental heads; anything else is flagged heuristic.
    """
    index, complete, (width, size, full, slots) = _fm_index(
        cd, head_y, depth, require_complete)
    # KR/fundamental contract on the head: one node, one q-string (an
    # exponent above 1 starts a second)
    head = {k: e for k, e in head_y.items() if e}
    used = {i for i, _t in head}
    heuristic = len(used) > 1 or bool(head) and len(
        _strings({t: e for (_i, t), e in head.items()}, 2 * cd.ri(min(used)))) != 1
    n = cd.n
    bits = width * size
    mask = (1 << bits) - 1
    parts = [{} for _ in range(n)]
    zetas = (0,) * n
    entries = []
    while index:
        k, (mult, path, _w) = index.popitem()
        x = k ^ full
        items = ()
        q = [0] * n
        i = 0
        while x:
            if part := x & mask:
                hit = parts[i].get(part)
                if hit is None:
                    ky = y_key(cd, _decode(part, width, slots[i * size:]))
                    hit = parts[i][part] = (ky[0], ky[1][i])
                items += hit[0]
                q[i] = hit[1]
            x >>= bits
            i += 1
        entries.append(((items, tuple(q), zetas), mult, path))
    entries.reverse()
    return QCharacter(cd, entries, depth, complete, heuristic)


def _kr_distance(cd, i, k):
    """k ht(omega_i + omega_ibar) = 2k ht(omega_i) (-w_0 keeps heights), the
    A^{-1}-distance of the lowest term of W^{(i)}_k from its head; omega_i
    is row i of adj(C^T) / det C."""
    det, adj = coroot_inverse(cd)
    return 2 * k * sum(adj[i - 1]) // det


def qc_kr(cd, i, top_shift, k, depth=None, require_complete=True):
    """Kirillov-Reshetikhin character with head Y_{i,s}...Y_{i,s+2r_i(k-1)},
    top Y at top_shift.  The default depth reaches the lowest term
    (_kr_distance), and is never below 2k sum(r) n + 4."""
    ri = cd.ri(i)
    head = {(i, top_shift - 2 * ri * l): 1 for l in range(k)}
    if depth is None:
        depth = max(2 * k * sum(cd.r) * cd.n + 4, _kr_distance(cd, i, k))
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
    KR character at k = depth+1 (two consecutive slices must agree on their
    (path, multiplicity) pairs).

    The terms are the KR terms times Psi_{i,r}^{-1} / head, in the order of
    their sorted A^{-1}-paths."""
    prev = None
    for k in range(depth + 1, depth + 5):
        x = qc_kr(cd, i, r - cd.ri(i), k, depth=depth, require_complete=False)
        order = sorted(x.entries, key=lambda e: sorted(e[2].items()))
        sl = [(p, c) for _k, c, p in order]
        if sl == prev:
            scale = generator(cd, "Psi", i, r).pow(-1).combine(x.head, -1)
            return qc_mul(QCharacter(cd, order, depth, False), qc_monomial(scale))
        prev = sl
    raise FMError(f"negative prefundamental slice at node {i} did not stabilize")


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
    rest = LWeightMonomial(cd, leftovers)
    const = psi.combine(out.head * rest, -1)
    if const.exps:
        raise AssertionError("factorization lost monomial content")
    return qc_mul(out, qc_monomial(rest.with_const(const.const)))


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


def _compare_on_margin(lhs, rhs, extra, margin):
    """Term-by-term comparison of lhs with rhs plus the term extra, inside
    A^{-1}-distance <= margin of lhs.head, keyed by l-weight key; a monomial
    is built only for the witness.  Returns (equal, witness).

    A term's certificate against lhs.head (leq_certificate) is its path for
    lhs; for rhs it is its path plus d, the signed A-factorization of
    lhs.head / rhs.head (none: no rhs term is below lhs.head); extra takes
    one leq_certificate."""
    def slice_of(x, d):
        if d is None:
            return {}
        low = [(a, -e) for a, e in d.items() if e < 0]
        room = margin - sum(d.values())
        return {k: c for k, c, p in x.entries
                if sum(p.values()) <= room and all(p.get(a, 0) >= e for a, e in low)}

    left = slice_of(lhs, {})
    right = slice_of(rhs, factor_in_basis(lhs.head.combine(rhs.head, -1), "A"))
    cert = leq_certificate(extra, lhs.head)
    if cert is not None and sum(cert.values()) <= margin:
        k = extra.key()
        right[k] = right.get(k, 0) + 1
    witness = _first_difference(left, right, "term",
                                lambda k: LWeightMonomial.from_key(lhs.cd, k).to_json())
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
        tw = LWeightMonomial(cd, {}, cd.alpha_bar(i).inv())
        x2 = qc_mul(
            qc_closed_form(cd, "psitilde", i, r - 2 * ri, depth),
            qc_monomial(generator(cd, "Psi", i, r + 2 * ri) * tw),
        )
        m2 = generator(cd, "PsiTilde", i, r) * generator(cd, "Psi", i, r)
        margin = depth - 1
        ok, witness = _compare_on_margin(lhs, x2, m2, margin)
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
        out[m.const] = out.get(m.const, 0) + c
    return out


def _check_charqf_sl2(cd, i, r, depth):
    """chi(L^b(Psi)) = chi(L(Psi)) * chi_1^{alpha(mu)} for the rank-1 case
    Psi = Y_{1,r} * Psi_{1,r+5}, compared as weight characters.

    chi_1 is derived from the negative prefundamental character (the
    duality D preserves dimensions and characters).  The left side is
    assembled from the factorized Borel formula, the right side from the
    full rank-1 classification character.  Both are q-character products
    projected once: in rank 1 a term's A^{-1}-distance is its alpha-height,
    so qc_mul's restriction to depth keeps every weight ht_slice reads.
    """
    if cd.n != 1:
        raise ValueError("charqf_sl2 needs rank 1")
    psi = generator(cd, "Y", 1, r) * generator(cd, "Psi", 1, r + 5)
    chi1 = qc_closed_form(cd, "neg_prefund_sl2", 1, 0, depth)
    # LHS: chi(L^b(Psi)) = chi(KR-part) * [w+] * chi_1  (cform route)
    kr = qc_simple_sl2(generator(cd, "Y", 1, r))
    wplus = qc_monomial(generator(cd, "Psi", 1, r + 5))
    lhs = weight_character(qc_mul(qc_mul(kr, wplus), chi1))
    # RHS: chi(L(Psi)) * chi_1^{alpha_1(mu)}; alpha_1(mu) = 1 here
    rhs = weight_character(qc_mul(qc_simple_sl2(psi), chi1))
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
