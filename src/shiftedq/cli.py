"""Command-line front end with canonical JSON reports.

Exit codes: 0 success, 1 mathematical rejection (e.g. a factorization that
does not exist, a failed relation suite, a Z-order bound violation), a
candidate search stopped by its step budget (truncation.MAX_STEPS) or a
Frenkel-Mukhin expansion that fails or does not close within its depth
(qchar.FMError, FMBudgetError), 2 usage
error (argparse errors and UsageError: malformed monomial JSON or integer
lists, a non-integer in monomial JSON, a wrong-length coweight, a --lambda
that differs from the --zroots counts, an unknown --type, a node out of
range, a --depth below 0, a rank-1 --family with a --type of higher rank).
Identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cartan import CartanError, build_cartan
from .langlands import (
    LanglandsError,
    conjecture_report,
    truncfd_Z_for,
)
from .lweight import LWeightMonomial, factor_in_basis, is_dominant
from .modrep import build_module, check_coproduct, check_relations
from .qchar import (
    FMError,
    qc_closed_form,
    qc_frenkel_mukhin,
    qc_neg_prefund_limit,
    qc_simple_sl2,
)
from .truncation import (
    TruncationData,
    TruncationError,
    descent_refine,
    enumerate_candidates,
    sl2_classify,
    truncation_shifts,
)


class UsageError(Exception):
    """An argument the parser accepted but the command cannot use (exit 2)."""


def _emit(args, payload, text_lines):
    """Write the text lines under --text, the canonical JSON otherwise.

    payload and text_lines are callables returning the JSON payload and the
    lines, so that each is built only when it is printed.  A payload is
    either its canonical text already (QCharacter.dumps) or a freshly built
    tree, never cyclic, so json skips its cycle check.
    """
    if args.text:
        sys.stdout.write("\n".join(text_lines()) + "\n")
        return
    out = payload()
    if not isinstance(out, str):
        out = json.dumps(out, sort_keys=True, separators=(",", ":"), check_circular=False)
    sys.stdout.write(out + "\n")


def _cartan_of(args):
    try:
        return build_cartan(args.type)
    except CartanError as e:
        raise UsageError(f"--type: {e}") from None


def _check_node(cd, i):
    if i not in cd.nodes():
        raise UsageError(f"--node: node {i} out of range for {cd.type_label}")


def _check_depth(depth):
    if depth < 0:
        raise UsageError("--depth must be >= 0")


def _int(tok, what):
    try:
        return int(tok)
    except ValueError:
        raise UsageError(f"{what}: {tok.strip()!r} is not an integer") from None


def _parse_zroots(cd, spec):
    """Grammar 'node:shift,shift;node:...' with polynomial shifts s, so that
    Z_i(z) = prod (1 - z q^s); stored internally as m = s - r_i."""
    zroots = {i: [] for i in cd.nodes()}
    if spec:
        for block in spec.split(";"):
            block = block.strip()
            if not block:
                continue
            node_s, _, shifts = block.partition(":")
            i = _int(node_s, "--zroots")
            if i not in zroots:
                raise UsageError(f"--zroots: node {i} out of range")
            for tok in shifts.split(","):
                if tok.strip():
                    zroots[i].append(_int(tok, "--zroots") - cd.ri(i))
    return TruncationData(cd, zroots)


def _parse_intlist(s, n, what):
    vals = [_int(x, what) for x in s.split(",")]
    if len(vals) != n:
        raise UsageError(f"{what} needs {n} comma-separated integers")
    return tuple(vals)


def _lambda_arg(z, s):
    """--lambda, which must equal the Z-root count of every node."""
    lam = _parse_intlist(s, z.cd.n, "--lambda")
    if lam != z.lam:
        raise UsageError(
            f"--lambda {','.join(map(str, lam))} does not match the --zroots "
            f"counts {','.join(map(str, z.lam))}"
        )
    return lam


def _monomial_arg(cd, s, what="--monomial"):
    try:
        return LWeightMonomial.from_json(cd, json.loads(s))
    except (ValueError, KeyError, TypeError) as e:
        raise UsageError(f"{what}: {e}") from None


def _candidate_lines(cands):
    lines = [f"{len(cands)} candidate(s)"]
    for c in cands:
        lines.append(f"  {c.status:16s} {c.psi!r}")
    return lines


def cmd_factor(args):
    cd = _cartan_of(args)
    m = _monomial_arg(cd, args.monomial)
    basis = {"a": "A", "lambda": "Lambda"}[args.basis]
    v = factor_in_basis(m, basis)
    if v is None:
        _emit(args, lambda: {"basis": basis, "factorizable": False},
              lambda: ["not factorizable"])
        return 1
    exps = sorted(v.items())
    _emit(args, lambda: {"basis": basis, "factorizable": True,
                         "exponents": [[i, u, e] for (i, u), e in exps]},
          lambda: [f"{basis}-exponents: " + " ".join(
              f"({i},{u})^{e}" for (i, u), e in exps) if v else "empty certificate"])
    return 0


def cmd_dominant(args):
    cd = _cartan_of(args)
    m = _monomial_arg(cd, args.monomial)
    d = is_dominant(m)
    _emit(args, lambda: {"dominant": d}, lambda: ["dominant" if d else "not dominant"])
    return 0


# The flags each qchar --family and verify-relations --kind reads, and the
# defaults of all such flags.  A flag the choice does not read is a usage
# error when it is given, so the argparse default of each of them is None.
_CLOSED_FORM_FLAGS = ("node", "shift", "depth")
_QCHAR_FLAGS = {
    "pos_prefund": _CLOSED_FORM_FLAGS,
    "neg_prefund_sl2": _CLOSED_FORM_FLAGS,
    "psitilde": _CLOSED_FORM_FLAGS,
    "psistar": _CLOSED_FORM_FLAGS,
    "neg_prefund": _CLOSED_FORM_FLAGS,
    "fm": ("head", "depth"),
    "simple_sl2": ("monomial",),
}
_QCHAR_DEFAULTS = {"node": 1, "shift": 0, "depth": 4, "head": "", "monomial": ""}
_COPRODUCT_FLAGS = ("gamma_exp", "beta_exp", "cutoff")
_VERIFY_FLAGS = {
    "osc_verma_plus": ("gamma_exp", "cutoff"),
    "osc_verma_minus": ("gamma_exp", "cutoff"),
    "eval_sl2": ("gamma_exp", "shift", "cutoff", "window"),
    "psitilde": ("type", "node", "shift", "cutoff", "window"),
    "psistar": ("type", "node", "shift", "window"),
    "coproduct_plus": _COPRODUCT_FLAGS,
    "coproduct_minus": _COPRODUCT_FLAGS,
}
_VERIFY_DEFAULTS = {"type": "A1", "cutoff": 8, "window": 4, "gamma_exp": 0,
                    "beta_exp": 0, "node": 1, "shift": 0}


def _read_flags(args, what, reads, defaults):
    """Fill in the defaults; a flag given that `what` does not read exits 2."""
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest not in reads:
            raise UsageError(f"--{dest.replace('_', '-')} is not read by {what}")


def cmd_qchar(args):
    fam = args.family
    _read_flags(args, f"--family {fam}", _QCHAR_FLAGS[fam], _QCHAR_DEFAULTS)
    _check_depth(args.depth)
    cd = _cartan_of(args)
    if fam in ("neg_prefund_sl2", "simple_sl2") and cd.n != 1:
        raise UsageError(f"--family {fam} needs rank 1, not --type {cd.type_label}")
    if fam in ("pos_prefund", "neg_prefund_sl2", "psitilde", "psistar"):
        _check_node(cd, args.node)
        x = qc_closed_form(cd, fam, args.node, args.shift, args.depth)
    elif fam == "neg_prefund":
        _check_node(cd, args.node)
        x = qc_neg_prefund_limit(cd, args.node, args.shift, args.depth)
    elif fam == "fm":
        head = {}
        for block in args.head.split(";"):
            i, _, t = block.partition(":")
            key = (_int(i, "--head"), _int(t, "--head"))
            if key[0] not in cd.nodes():
                raise UsageError(f"--head: node {key[0]} out of range")
            head[key] = head.get(key, 0) + 1
        x = qc_frenkel_mukhin(cd, head, args.depth)
    elif fam == "simple_sl2":
        x = qc_simple_sl2(_monomial_arg(cd, args.monomial))
    def lines():
        flag = ", heuristic" if x.heuristic else ""
        out = [f"{len(x.terms)} term(s), depth={x.depth}, complete={x.complete}{flag}"]
        for m in sorted(x.terms, key=lambda t: t.key()):
            out.append(f"  {x.terms[m]} * {m!r}")
        return out

    _emit(args, x.dumps, lines)
    return 0


def cmd_verify_relations(args):
    _read_flags(args, f"--kind {args.kind}", _VERIFY_FLAGS[args.kind], _VERIFY_DEFAULTS)
    for flag in ("cutoff", "window"):
        if getattr(args, flag) < 1:
            raise UsageError(f"--{flag} must be >= 1")
    if args.kind in ("coproduct_plus", "coproduct_minus"):
        rep = check_coproduct(
            1 if args.kind.endswith("plus") else -1,
            args.gamma_exp, args.beta_exp, cutoff=args.cutoff,
        )
    else:
        if args.kind in ("psitilde", "psistar"):
            _check_node(_cartan_of(args), args.node)
        params = {
            "gamma_exp": args.gamma_exp,
            "shift": args.shift,
            "node": args.node,
            "type": args.type,
        }
        mod = build_module(args.kind, params, cutoff=args.cutoff,
                           mode_window=args.window)
        rep = check_relations(mod)
    def lines():
        out = [f"{args.kind}: {'PASS' if rep['ok'] else 'FAIL'}"]
        for fam in rep["families"]:
            status = "ok" if not fam["failures"] else f"FAIL {fam['failures'][:1]}"
            if fam.get("unchecked"):
                status += f", {fam['unchecked']} unchecked"
            out.append(f"  {fam['family']:8s} x{fam['instances']:<5d} {status}")
        return out

    _emit(args, lambda: rep, lines)
    return 0 if rep["ok"] else 1


def cmd_truncate(args):
    _check_depth(args.depth)
    cd = _cartan_of(args)
    z = _parse_zroots(cd, args.zroots)
    lam = _lambda_arg(z, args.lam)
    mu = _parse_intlist(args.mu, cd.n, "--mu")
    cands = enumerate_candidates(z, lam, mu)
    cands = [descent_refine(z, c, args.depth) for c in cands]
    _emit(args, lambda: {
        "truncation": z.to_json(),
        "mu": list(mu),
        "a": list(truncation_shifts(z, mu)),
        "candidates": [c.to_json() for c in cands],
    }, lambda: _candidate_lines(cands))
    return 0


def cmd_classify_sl2(args):
    cd = build_cartan("A1")
    z = _parse_zroots(cd, args.zroots)
    lam = _lambda_arg(z, args.lam)
    mu = _parse_intlist(args.mu, 1, "--mu")
    cands = sl2_classify(z, lam, mu)
    _emit(args, lambda: {
        "truncation": z.to_json(),
        "mu": list(mu),
        "modules": [c.to_json() for c in cands],
    }, lambda: _candidate_lines(cands))
    return 0


def cmd_conjecture(args):
    _check_depth(args.depth)
    cd = _cartan_of(args)
    z = _parse_zroots(cd, args.zroots)
    lam = _lambda_arg(z, args.lam) if args.lam else z.lam
    rep = conjecture_report(z, lam, depth=args.depth)
    def lines():
        out = [f"chi_L terms: {rep['chi_L_terms']}  ok={rep['ok']}"]
        for w in rep["weights"]:
            out.append(
                f"  mu={w['mu']}: monomials={len(w['monomials'])} "
                f"matched={w['matched']} surplus={len(w.get('unconfirmed_surplus', []))} "
                f"discrepancies={len(w['discrepancies'])}"
            )
        return out

    _emit(args, lambda: rep, lines)
    if rep["zorder_violations"]:
        return 1
    return 0 if rep["ok"] else 1


def cmd_truncfd(args):
    cd = _cartan_of(args)
    psi = _monomial_arg(cd, args.psi, "--psi")
    z, cert = truncfd_Z_for(psi)
    _emit(args, lambda: {"truncation": z.to_json(), "certificate": cert}, lambda: [
        f"Z roots: {dict((i, list(v)) for i, v in z.zroots.items())}",
        f"certificate holds: {cert['holds']}",
    ])
    return 0 if cert["holds"] else 1


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(
        prog="shiftedq",
        description="Exact l-weight/q-character combinatorics of shifted "
        "quantum affine algebras and their truncations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--type", default="A1", help="finite type, e.g. B2")
        sp.add_argument("--json", dest="text", action="store_false",
                        default=False, help="JSON output (default)")
        sp.add_argument("--text", dest="text", action="store_true",
                        help="human-readable output")

    sp = sub.add_parser("factor", help="factor a monomial in the A or Lambda basis")
    common(sp)
    sp.add_argument("--basis", choices=("a", "lambda"), required=True)
    sp.add_argument("--monomial", required=True, help="l-weight monomial JSON")
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("dominant", help="dominance test for an l-weight monomial")
    common(sp)
    sp.add_argument("--monomial", required=True)
    sp.set_defaults(func=cmd_dominant)

    sp = sub.add_parser("qchar", help="q-character families and expansions")
    common(sp)
    sp.add_argument("--family", required=True, choices=tuple(_QCHAR_FLAGS))
    sp.add_argument("--node", type=int)
    sp.add_argument("--shift", type=int)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--head", help="fm head, e.g. '1:0;2:3'")
    sp.add_argument("--monomial", help="for simple_sl2")
    sp.set_defaults(func=cmd_qchar)

    sp = sub.add_parser("verify-relations", help="exact relation suite on a built-in module")
    common(sp)
    sp.add_argument("--kind", required=True, choices=tuple(_VERIFY_FLAGS))
    sp.add_argument("--cutoff", type=int)
    sp.add_argument("--window", type=int)
    sp.add_argument("--gamma-exp", type=int)
    sp.add_argument("--beta-exp", type=int)
    sp.add_argument("--node", type=int)
    sp.add_argument("--shift", type=int)
    sp.set_defaults(func=cmd_verify_relations, type=None)

    sp = sub.add_parser("truncate", help="enumerate + refine descent candidates")
    common(sp)
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="N_i per node, e.g. 0,1")
    sp.add_argument("--zroots", required=True,
                    help="'node:s,s;node:s' with Z_i = prod (1 - z q^s)")
    sp.add_argument("--mu", required=True, help="coweight, e.g. 0,0")
    sp.add_argument("--depth", type=int, default=3)
    sp.set_defaults(func=cmd_truncate)

    sp = sub.add_parser("classify-sl2", help="exact rank-1 classification")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--zroots", required=True)
    sp.add_argument("--mu", required=True)
    sp.add_argument("--json", dest="text", action="store_false", default=False)
    sp.add_argument("--text", dest="text", action="store_true")
    sp.set_defaults(func=cmd_classify_sl2)

    sp = sub.add_parser("conjecture", help="Langlands-dual parametrization report")
    common(sp)
    sp.add_argument("--lambda", dest="lam", default="")
    sp.add_argument("--zroots", required=True)
    sp.add_argument("--depth", type=int, default=3)
    sp.set_defaults(func=cmd_conjecture)

    sp = sub.add_parser("truncfd", help="descent truncation for a dominant l-weight")
    common(sp)
    sp.add_argument("--psi", required=True, help="dominant l-weight monomial JSON")
    sp.set_defaults(func=cmd_truncfd)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (CartanError, TruncationError, LanglandsError, FMError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
