"""Truncation data, descent tests, finite enumeration, exact sl2 classification.

TruncationData holds (lambda, Z-root multisets on the q-lattice): node i
carries shifts m with Z_i(z) = prod_k (1 - q_i z q^{m_{i,k}}), so the
polynomial zeros sit at shifts s = m + r_i.  Highest l-weights of simples
of the truncation are searched as Z * prod Lambda^{-v} with v >= 0.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

from .cartan import basis_generator, build_cartan, coroot_inverse
from .kernel import exps_combine
from .lweight import (
    LWeightMonomial,
    generator,
    is_dominant,
    leq_certificate,
    node_sums,
    pair_class,
    residue_classes,
)
from .qchar import (
    _string_eigen_terms,
    _string_products,
    qc_monomial,
    qc_mul,
    qc_neg_prefund_limit,
    qc_one,
    qc_simple_sl2,
)
from .scalars import ConstantFactor

STATUS_NECESSARY = "NecessaryOnly"
STATUS_STRONG = "StrongCandidate"
STATUS_REFUTED = "Refuted"
STATUS_CONFIRMED = "ConfirmedByPaper"

# enumerate_candidates stops a search that takes more site-walk steps than this
MAX_STEPS = 100_000


class TruncationError(ValueError):
    pass


class TruncationData:
    def __init__(self, cd, zroots):
        self.cd = cd
        self.zroots = {
            i: tuple(sorted(zroots.get(i, ()))) for i in cd.nodes()
        }
        self.lam = tuple(len(self.zroots[i]) for i in cd.nodes())

    def z_monomial(self):
        """Z as an l-weight monomial: Psi_{i, m + r_i} per root."""
        exps = {}
        for i in self.cd.nodes():
            for m in self.zroots[i]:
                k = (i, m + self.cd.ri(i))
                exps[k] = exps.get(k, 0) + 1
        return LWeightMonomial(self.cd, exps)

    def phi_z(self, mu, a=None):
        """phi_{i,Z} = (-1)^(N_i + sum_j C_{j,i} a_j) q_i^{alpha_i(mu)} prod z_{i,k}."""
        cd = self.cd
        if a is None:
            a = truncation_shifts(self, mu)
        qexps = []
        zetas = []
        for i in cd.nodes():
            ni = self.lam[i - 1]
            ca = sum(cd.c(j, i) * a[j - 1] for j in cd.nodes())
            qexps.append(cd.ri(i) * mu[i - 1] + sum(self.zroots[i]))
            zetas.append(4 * (ni + ca))
        return ConstantFactor(qexps, zetas)

    def to_json(self):
        return {
            "type": self.cd.type_label,
            "lambda": list(self.lam),
            "zroots": {str(i): list(self.zroots[i]) for i in self.cd.nodes()},
        }

    @staticmethod
    def from_json(data):
        cd = build_cartan(data["type"])
        zroots = {int(i): list(v) for i, v in data.get("zroots", {}).items()}
        td = TruncationData(cd, zroots)
        if "lambda" in data and tuple(data["lambda"]) != td.lam:
            raise TruncationError("lambda does not match the zroot counts")
        return td

    def __repr__(self):
        return f"TruncationData({self.cd.type_label}, zroots={dict(self.zroots)})"


def fuse_truncations(z1, z2):
    """Componentwise multiset union of the zroots; lambdas add."""
    if z1.cd != z2.cd:
        raise TruncationError("truncations over different Cartan data")
    zr = {
        i: list(z1.zroots[i]) + list(z2.zroots[i]) for i in z1.cd.nodes()
    }
    return TruncationData(z1.cd, zr)


def _coroot_coordinates(cd, w):
    """The x with sum_j x_j C[j][i] = w_i for every node i, as Fractions:
    x = adj(C^T) w / det C, with (det C, adj C^T) the per-type table
    cartan.coroot_inverse (one Bareiss elimination over Z per type).  C is
    nonsingular, so every w has exactly one solution."""
    det, adj = coroot_inverse(cd)
    return [Fraction(sum(c * v for c, v in zip(row, w)), det) for row in adj]


def truncation_shifts(z, mu):
    """Solve lambda - mu = sum_i a_i alpha_i^vee for the lambda of the
    truncation data z; reject non-integral or negative a_i."""
    x = _coroot_coordinates(z.cd, [lam - m for lam, m in zip(z.lam, mu)])
    shown = "[" + ", ".join(map(str, x)) + "]"
    a = []
    for v in x:
        if v.denominator != 1:
            raise TruncationError(
                f"lambda - mu is not an integral sum of simple coroots: a = {shown}"
            )
        if v < 0:
            raise TruncationError(f"negative truncation shift a = {shown}")
        a.append(int(v))
    return tuple(a)


def required_const_class(z, mu, psi_exps, a=None):
    """Canonical constant with c_i^2 * prod_t (-q^t)^{e_{i,t}} = phi_{i,Z}.

    Solvability is automatic once deg Psi_i = alpha_i(mu); the returned
    class is defined up to a sign per node (and modules up to sign-twist).
    """
    cd = z.cd
    phi = z.phi_z(mu, a)
    qexps = []
    zetas = []
    for i in cd.nodes():
        se = sum(e for (j, t), e in psi_exps.items() if j == i)
        ste = sum(t * e for (j, t), e in psi_exps.items() if j == i)
        qexps.append(phi.qexps[i - 1] - ste)
        zetas.append(phi.zetas[i - 1] - 4 * se)
    return ConstantFactor(qexps, zetas).sqrt_class()


class Candidate:
    def __init__(self, psi, lambda_exps, mu, status, z, notes=None):
        self.psi = psi
        self.lambda_exps = dict(lambda_exps)
        self.mu = tuple(mu)
        self.status = status
        self.z = z
        self.notes = dict(notes or {})

    def to_json(self):
        return {
            "psi": self.psi.to_json(),
            "lambda_exps": [[i, u, v] for (i, u), v in sorted(self.lambda_exps.items())],
            "mu": list(self.mu),
            "status": self.status,
            "notes": self.notes,
        }

    def __repr__(self):
        return f"Candidate({self.psi!r}, status={self.status})"


def abar_eigenvalue(z, psi, i, cert=None):
    """Root multiset of Ybar^+_{i, Z Psi^{-1}}(z q_i^{-1}) and its constant class.

    Returns {"roots": [shifts], "const_qexp": Fraction, "sign": "+-"} with the
    polynomial c * prod (1 - z q^root); None when Z Psi^{-1} is not a
    nonnegative Lambda monomial.  cert, when given, is its Lambda certificate.
    """
    cd = z.cd
    v = cert if cert is not None else leq_certificate(psi, z.z_monomial(), "zorder")
    if v is None:
        return None
    roots = []
    for (j, u), e in sorted(v.items()):
        if j == i:
            roots.extend([u - cd.ri(i)] * e)
    const_qexp = -Fraction(sum(roots), 2)
    return {"roots": sorted(roots), "const_qexp": const_qexp, "sign": "+-"}


def maint_check(z, lam, mu, psi, cert=None):
    """Necessary descent conditions on a highest l-weight.

    (a) Z Psi^{-1} factors in the Lambda basis with exponents >= 0 summing
        to a_i per node; (b) the poles of Psi_i divide the corresponding
        Ybar product polynomial; (c) the constant-normalization class is
        computed (always solvable given (a)); if Psi carries constants,
        their agreement with the class (up to sign) is reported.
    """
    cd = z.cd
    if tuple(lam) != z.lam:
        raise TruncationError("lambda does not match the truncation data")
    a = truncation_shifts(z, mu)
    report = {"ok": False, "a": list(a), "clauses": {}}
    if psi.coweight() != tuple(mu):
        report["clauses"]["degree"] = False
        report["reason"] = "deg Psi_i != alpha_i(mu)"
        return report
    report["clauses"]["degree"] = True
    v = cert if cert is not None else leq_certificate(psi, z.z_monomial(), "zorder")
    if v is None:
        report["clauses"]["a_lambda_factorization"] = False
        report["reason"] = "Z Psi^{-1} is not a nonnegative Lambda monomial"
        return report
    sums = node_sums(cd, v)
    if sums != a:
        report["clauses"]["a_lambda_factorization"] = False
        report["reason"] = f"Lambda-exponent sums {list(sums)} != a {list(a)}"
        return report
    report["clauses"]["a_lambda_factorization"] = True
    report["lambda_exps"] = [[i, u, e] for (i, u), e in sorted(v.items())]
    # (b) pole divisibility
    for i in cd.nodes():
        cover = {}
        for (j, u), e in v.items():
            if j == i:
                t = u - cd.ri(i)
                cover[t] = cover.get(t, 0) + e
        for (j, t), e in psi.exps.items():
            if j == i and e < 0 and cover.get(t, 0) < -e:
                report["clauses"]["pole_divisibility"] = False
                report["reason"] = (
                    f"pole of Psi_{i} at shift {t} does not divide the "
                    "Ybar polynomial"
                )
                return report
    report["clauses"]["pole_divisibility"] = True
    # (c) constant normalization
    cls = required_const_class(z, mu, psi.exps, a)
    report["clauses"]["const_normalization_solvable"] = True
    report["const_class"] = cls.to_json()
    d = psi.const.mul(cls, -1)
    report["constants_normalized"] = d.pow(2).is_one()
    report["ok"] = True
    return report


def usable_lambda_sites(z, a):
    """The sites (i, u) that can carry a Lambda exponent v(i, u) > 0, by the
    chain argument of the finiteness proof.

    The key (i, u + r_i) of such a site is covered by a Z_i zero (u is a
    Z-root shift of node i) or by a gift from a site (j, uj) with v > 0: the
    negative entries (i, o) of the pattern of Lambda_{j,q^0} give at
    (i, uj + o), one chain step down to u = uj + o - r_i (o - r_i is -1
    in simply-laced types, -1 or -3 in B, C and F4, down to -5 in G2).
    Steps only lower the shift, so every site with v > 0 has a chain of
    sites with v > 0 back to a Z-root.  A shortest one has distinct sites,
    at most sum(a) of them, so it takes at most sum(a) - 1 steps.  The
    closure is taken level by level from the Z-roots, sum(a) - 1 levels
    deep, and each new site is expanded once.
    """
    cd = z.cd
    # a usable site (j, uj) makes (i, uj + d) usable, for (i, d) in reach[j]
    reach = {j: [(i, o - cd.ri(i))
                 for (i, o), c in basis_generator(cd, "Lambda", j)[0].items() if c < 0]
             for j in cd.nodes()}
    usable = {i: set(z.zroots[i]) for i in cd.nodes()}
    level = [(j, uj) for j in cd.nodes() for uj in usable[j]]
    for _ in range(sum(a) - 1):
        nxt = []
        for j, uj in level:
            for i, d in reach[j]:
                u = uj + d
                if u not in usable[i]:
                    usable[i].add(u)
                    nxt.append((i, u))
        level = nxt
    return {i: sorted(usable[i]) for i in cd.nodes()}


def _site_keys(cd, i, us):
    """For each site u of node i: ((i, u + r_i), the keys (j, u + o) for the
    neighbour sites (j, o) of Lambda_{i,q^0}, the negative entries of its
    pattern).  Built once per node, so every multiset shares these key
    tuples."""
    ri = cd.ri(i)
    gives = [k for k, c in basis_generator(cd, "Lambda", i)[0].items() if c < 0]
    return {u: ((i, u + ri), tuple((j, u + o) for j, o in gives)) for u in us}


def _need_gift(ms, sites, zexps):
    """Clause (b) data of one node's Lambda multiset ms, as two tuples.

    sites is _site_keys of the node i.  need lists ((i, t), v(i, t - r_i) -
    Z(i, t)) where it is positive.  gift lists each key (j, t) once per unit
    of Psi_{j,t} exponent that prod_{u in ms} Lambda_{i,u}^{-1} adds at the
    other nodes.
    """
    count = {}
    gift = []
    for u in ms:
        key, gives = sites[u]
        count[key] = count.get(key, 0) + 1
        gift.extend(gives)
    need = tuple((key, c - zexps.get(key, 0)) for key, c in count.items()
                 if c > zexps.get(key, 0))
    return need, tuple(gift)


def _gift_caps(site_keys, a, givers):
    """The most the giver nodes' Lambda sites can add at each (j, t): a_k
    from each giver k with a site giving there (the a_k sites of node k add
    at most a_k to one (j, t) in total).  site_keys[k] is _site_keys of k."""
    cap = {}
    for k in givers:
        for key in {key for _, gives in site_keys[k].values() for key in gives}:
            cap[key] = cap.get(key, 0) + a[k - 1]
    return cap


def _extend(state, need, gift, cap):
    """The search state after one more node's multiset, or None once a need
    exceeds its gifts plus cap at its key (cap is _gift_caps of the nodes
    still undecided).  Rules 1 and 2 of _covered_choices build only the
    multisets that pass.

    state is (short, given): short maps each (j, t) of a decided node to its
    need minus the gifts so far, where positive; given maps each (j, t) of
    an undecided node to the gifts so far.  need and gift are _need_gift of
    the multiset.
    """
    short, given = state
    short = dict(short)
    for key, n in need:
        n -= given.get(key, 0)
        if n > 0:
            short[key] = n
    given = dict(given)
    for key in gift:
        if key in short:
            short[key] -= 1
        else:
            given[key] = given.get(key, 0) + 1
    short = {key: n for key, n in short.items() if n > 0}
    if any(n > cap.get(key, 0) for key, n in short.items()):
        return None
    return short, given


def _covered_choices(site_keys, a, zexps, caps):
    """Depth-first over one a_i-multiset per node, in itertools.product order
    of the nodes' combinations_with_replacement of their sites.  Yields each
    choice in which every need is covered by the gifts of the other nodes.

    Node d + 1's multiset is built one site at a time in nondecreasing
    order, less the partial multisets that _extend would reject whatever
    their rest:

    1. a count at a site's own key (i, u + r_i) above Z, the decided gifts
       and caps[d] there (the most the later nodes can give at each key):
       counts only grow, and a node gives nothing to its own keys;
    2. a decided shortage above caps[d] plus the sites still to choose: a
       site gives at most once to a key, so each site that does not give
       there uses up one unit of the slack cap + k - shortage.  Once a
       slack is 0, only the sites giving at its key are tried.

    Each whole multiset goes through _extend against caps[d], and the
    search descends into the next node before it builds the next multiset.
    Every entry into a site walk is one step; past MAX_STEPS the search
    raises TruncationError.
    """
    steps = 0

    def node(d, state, chosen):
        sites = site_keys[d + 1]
        k = a[d]
        short, given = state
        cap = caps[d]
        us = [(u, room, gives) for u, (key, gives) in sites.items()
              if (room := zexps.get(key, 0) + given.get(key, 0) + cap.get(key, 0))]
        keys = list(short)
        giving = {key: [idx for idx, (_, _, gives) in enumerate(us) if key in gives]
                  for key in keys}

        def walk(start, ms, slack):
            nonlocal steps
            steps += 1
            if steps > MAX_STEPS:
                raise TruncationError(f"candidate search passed {MAX_STEPS} steps "
                                      f"at node {d + 1}; narrow the window")
            if len(ms) == k:
                nxt = _extend(state, *_need_gift(ms, sites, zexps), cap)
                if nxt is None:
                    return
                if d + 1 == len(a):
                    yield chosen + (ms,)
                else:
                    yield from node(d + 1, nxt, chosen + (ms,))
                return
            tight = next((key for key, n in zip(keys, slack) if not n), None)
            for idx in range(start, len(us)) if tight is None else giving[tight]:
                if idx < start:
                    continue
                u, room, gives = us[idx]
                if ms.count(u) >= room:
                    continue
                left = [n - (key not in gives) for key, n in zip(keys, slack)]
                if -1 in left:
                    continue
                yield from walk(idx, ms + (u,), left)

        yield from walk(0, (), [cap.get(key, 0) + k - short[key] for key in keys])
        del walk

    # walk and node refer to themselves through their closures; the dels
    # break those cycles, so each search state is freed as soon as it is
    # done, not left to the cycle collector
    yield from node(0, ({}, {}), ())
    del node


def enumerate_candidates(z, lam, mu):
    """Exhaustive finite search for descent candidates.

    Searches Lambda-exponent maps v >= 0 with per-node sums a_i, supported
    on the usable sites (usable_lambda_sites: within sum(a) - 1 chain steps
    of a Z-root), and keeps those passing the necessary conditions (status
    NecessaryOnly), canonically ordered.  Distinct maps give distinct Psi,
    since the Lambda pattern matrix is nonsingular, so no candidate comes
    out twice.

    With psi = Z prod Lambda^{-v}, clause (b) (every pole e < 0 of psi at
    (j, t) has v(j, t + r_j) >= -e) is equivalent to

        need_j(t) := v(j, t - r_j) - Z(j, t) <= N_j(t)  for every (j, t),

    where N_j(t) >= 0 is what the other nodes' Lambda sites give at (j, t)
    through their Lambda patterns.  need_j depends on node j's multiset
    only and N_j grows as sites are chosen, so the search takes the nodes
    depth-first in order and builds each node's a_i-multiset site by site,
    in nondecreasing order (_covered_choices), dropping a partial multiset
    once its own need or a decided need exceeds what the decided gifts, the
    sites still to choose and the gift caps of the undecided nodes
    (_gift_caps, one per depth) can cover.  The maps come out in the order
    of the full product of per-node multisets.  The search counts its
    steps, one per entry into a site walk, and raises TruncationError once
    they pass MAX_STEPS.
    """
    cd = z.cd
    if tuple(lam) != z.lam:
        raise TruncationError("lambda does not match the truncation data")
    a = truncation_shifts(z, mu)
    zmono = z.z_monomial()
    if not any(a):
        cls = required_const_class(z, mu, zmono.exps, a)
        return [Candidate(zmono.with_const(cls), {}, mu, STATUS_NECESSARY, z)]
    usable = usable_lambda_sites(z, a)
    zexps = zmono.exps
    site_keys = {i: _site_keys(cd, i, usable[i]) for i in cd.nodes()}
    caps = [_gift_caps(site_keys, a, range(i + 1, cd.n + 1)) for i in cd.nodes()]

    pat = {}  # Lambda patterns of the chosen sites
    out = []
    for choice in _covered_choices(site_keys, a, zexps, caps):
        combo = []
        for i, ms in zip(cd.nodes(), choice):
            acc = {}
            vloc = {}
            for u in ms:
                if (i, u) not in pat:
                    pat[(i, u)] = generator(cd, "Lambda", i, u).exps
                acc = exps_combine(acc, pat[(i, u)], 1)
                vloc[(i, u)] = vloc.get((i, u), 0) + 1
            combo.append((vloc, acc))
        lam_exps = combo[0][1]
        for _, acc in combo[1:]:
            lam_exps = exps_combine(lam_exps, acc, 1)
        psi = LWeightMonomial(cd, exps_combine(zexps, lam_exps, -1))
        v = {}
        for vloc, _ in combo:
            v.update(vloc)
        rep = maint_check(z, lam, mu, psi, cert=v)
        if not rep["ok"]:
            continue
        cls = ConstantFactor.from_json(rep["const_class"])
        out.append(Candidate(psi.with_const(cls), v, mu, STATUS_NECESSARY, z,
                             notes={"maint": "pass"}))
    return sorted(out, key=lambda c: c.psi.exps_key())


def sl2_classify(z, lam, mu):
    """Exact rank-1 classification: candidates are in bijection with the
    degree-a divisors of Z(z q^{-2}); statuses ConfirmedByPaper."""
    cd = z.cd
    if cd.n != 1:
        raise TruncationError("sl2_classify needs rank 1")
    if tuple(lam) != z.lam:
        raise TruncationError("lambda does not match the truncation data")
    (a,) = truncation_shifts(z, mu)
    # zeros of Z(z q^{-2}) sit at shifts m + r - 2 = m - 1
    roots = sorted(m - 1 for m in z.zroots[1])
    zmono = z.z_monomial()
    out = {}
    for pick in set(combinations(roots, a)):
        v = {}
        for s in pick:
            v[(1, s + 1)] = v.get((1, s + 1), 0) + 1
        psi = zmono
        for (i, u), e in v.items():
            psi = psi.combine(generator(cd, "Lambda", i, u).pow(e), -1)
        psi = psi.monomial_part()
        if psi.coweight() != tuple(mu):
            continue
        rep = maint_check(z, lam, mu, psi, cert=v)
        if not rep["ok"]:
            raise AssertionError("sl2 divisor candidate failed maint_check")
        cls = ConstantFactor.from_json(rep["const_class"])
        cand = Candidate(psi.with_const(cls), v, mu, STATUS_CONFIRMED, z,
                         notes={"divisor_shifts": list(pick)})
        out.setdefault(cand.psi.exps_key(), cand)
    return sorted(out.values(), key=lambda c: c.psi.exps_key())


def _character_slice(cand, depth):
    """A chi_q slice for candidates made of prefundamental weights only,
    rank-1 dominant weights, or the trivial case; None when unavailable."""
    psi = cand.psi
    cd = psi.cd
    if all(e > 0 for e in psi.exps.values()):
        return qc_monomial(psi)
    if all(e < 0 for e in psi.exps.values()):
        x = qc_one(cd)
        for (i, t), e in sorted(psi.exps.items()):
            f = qc_neg_prefund_limit(cd, i, t, depth)
            for _ in range(-e):
                x = qc_mul(x, f)
        const = psi.combine(x.head, -1)
        return x.scale_monomial(LWeightMonomial(cd, {}, const.const))
    if cd.n == 1 and is_dominant(psi):
        return qc_simple_sl2(psi)
    return None


def _node_rank1_paths(exps_i, ri, depth):
    """A-site paths (shifts at one node) of the rank-1 character of a node
    component, per residue class: negative prefundamental ladders for an
    all-negative class, KR string characters for a dominant one.  Classes
    in distinct q^{2r_i Z}-cosets are always in general position, so the
    character multiplies.  None when some class is mixed non-dominant."""
    step = 2 * ri
    factors = []
    for seq in residue_classes(exps_i, step):
        if all(e < 0 for _, e in seq):
            for t, e in seq:
                ladders = [[t - step * l for l in range(k)] for k in range(depth + 1)]
                factors.extend([ladders] * (-e))
            continue
        # extract Ytilde chains by LIFO matching; leftovers are 1-dim
        paired = pair_class(seq)
        if paired is None:
            return None  # mixed non-dominant class: character unknown
        for s, t, k in paired[0]:
            factors.extend([_string_eigen_terms(t - ri, (t - s) // step, step)] * k)
    products, _ = _string_products(factors, depth)
    return [Counter(shifts) for shifts in products]


def _check_term_paths(z, cand, paths, node=None):
    """Update the Lambda certificate along A^{-1} paths; a negative exponent
    refutes the candidate (returns the witness path)."""
    cd = cand.psi.cd
    base = dict(cand.lambda_exps)
    for path in paths:
        vt = dict(base)
        ok = True
        for key, e in path.items():
            (i, u) = key if node is None else (node, key)
            ri = cd.ri(i)
            vt[(i, u - ri)] = vt.get((i, u - ri), 0) + e
            vt[(i, u + ri)] = vt.get((i, u + ri), 0) - e
        if any(v < 0 for v in vt.values()):
            return path
    return None


def descent_refine(z, cand, depth):
    """Check the l-weight terms of the candidate's computable character
    slices against the zorder condition (Refuted on violation).

    Full slices are available for all-prefundamental or rank-1 dominant
    candidates (StrongCandidate on a clean pass); for every candidate the
    node-wise rank-1 submodule ladders are checked as well, which can
    refute mixed candidates whose full character is out of reach.
    """
    cd = cand.psi.cd
    if cand.status == STATUS_NECESSARY and _is_fundamental_psitilde_case(z, cand):
        cand.status = STATUS_CONFIRMED
        cand.notes["confirmed_by"] = "unique psitilde module of the fundamental truncation"
    # node-wise rank-1 submodule checks (always applicable)
    for i in cd.nodes():
        exps_i = cand.psi.node_exps(i)
        paths = _node_rank1_paths(exps_i, cd.ri(i), depth)
        if paths is None:
            continue
        bad = _check_term_paths(z, cand, paths, node=i)
        if bad is not None:
            cand.status = STATUS_REFUTED
            cand.notes["witness_node_path"] = [
                [i, u, e] for u, e in sorted(bad.items())
            ]
            return cand
    x = _character_slice(cand, depth)
    if x is None:
        if cd.n == 1:
            # rank 1: the necessary conditions are sufficient
            cand.status = STATUS_CONFIRMED
            cand.notes["confirmed_by"] = "rank-1 sufficiency of the descent conditions"
        else:
            cand.notes["descent_refine"] = "chi_q slice unavailable; node ladders pass"
        return cand
    for m in x.terms:
        path = x.paths.get(m)
        if path is None:
            bad = leq_certificate(m, z.z_monomial(), "zorder") is None
        else:
            bad = _check_term_paths(z, cand, [path]) is not None
        if bad:
            cand.status = STATUS_REFUTED
            cand.notes["witness"] = m.to_json()
            cand.notes["witness_repr"] = repr(m)
            return cand
    if cand.status != STATUS_CONFIRMED:
        cand.status = STATUS_STRONG
        if not any(node_sums(cd, cand.lambda_exps)):
            cand.status = STATUS_CONFIRMED  # lambda = mu (semisimple case)
    cand.notes["descent_depth"] = depth
    cand.notes["terms_checked"] = len(x.terms)
    return cand


def _is_fundamental_psitilde_case(z, cand):
    """lambda = omega_i, mu = lambda - alpha_i^vee, with the candidate the
    psitilde l-weight at the matching spectral parameter."""
    cd = cand.psi.cd
    if sum(z.lam) != 1:
        return False
    i = next(j for j in cd.nodes() if z.lam[j - 1])
    a = node_sums(cd, cand.lambda_exps)
    if any(a[j - 1] != (1 if j == i else 0) for j in cd.nodes()):
        return False
    (m,) = z.zroots[i]
    return cand.psi.exps == generator(cd, "PsiTilde", i, m - cd.ri(i)).exps
