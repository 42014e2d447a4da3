"""Per-layer tracing from outside the library.

The tracer wraps public functions of the ``shiftedq`` modules while it is
installed and restores the originals afterwards; nothing under ``src/`` is
edited.  A function bound by name at import time (``from .kernel import
poly_mul``) is replaced in every module namespace that holds it.

Coarse layers (one call does a lot of work) get one span per call: name,
start, end and the enclosing coarse span.  Fine layers (called 10^5-10^6
times per job) only get aggregate counters.  Every wrapped call, coarse or
fine, records its self time: its duration minus the time of the wrapped
calls made inside it.  A wrapped call counts in its parent's child time from
the moment its wrapper is entered until it returns, hooks and bookkeeping
included, so the cost of tracing lands in no layer's self time.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

# (layer name, module, attribute, coarse?)  Class attributes are "Class.attr".
LAYERS = [
    ("kernel.poly_mul", "shiftedq.kernel", "poly_mul", False),
    ("kernel.poly_addsub", "shiftedq.kernel", "poly_add", False),
    ("kernel.poly_addsub", "shiftedq.kernel", "poly_sub", False),
    ("kernel.exps_combine", "shiftedq.kernel", "exps_combine", False),
    ("scalars.ExactScalar", "shiftedq.scalars", "ExactScalar.__add__", False),
    ("scalars.ExactScalar", "shiftedq.scalars", "ExactScalar.__radd__", False),
    ("scalars.ExactScalar", "shiftedq.scalars", "ExactScalar.__sub__", False),
    ("scalars.ExactScalar", "shiftedq.scalars", "ExactScalar.__rsub__", False),
    ("scalars.ExactScalar", "shiftedq.scalars", "ExactScalar.__mul__", False),
    ("scalars.ExactScalar", "shiftedq.scalars", "ExactScalar.__rmul__", False),
    ("scalars.ExactScalar", "shiftedq.scalars", "ExactScalar.__truediv__", False),
    ("scalars.ExactScalar", "shiftedq.scalars", "ExactScalar.__rtruediv__", False),
    ("scalars.ExactScalar", "shiftedq.scalars", "ExactScalar.__neg__", False),
    ("scalars.ConstantFactor", "shiftedq.scalars", "ConstantFactor.__init__", False),
    ("smith.solve_rational", "shiftedq.smith", "solve_rational", True),
    ("lweight.factor_in_basis", "shiftedq.lweight", "factor_in_basis", True),
    ("lweight.generator", "shiftedq.lweight", "generator", False),
    ("lweight.expand_in_basis", "shiftedq.lweight", "expand_in_basis", False),
    ("qchar.qc_frenkel_mukhin", "shiftedq.qchar", "qc_frenkel_mukhin", True),
    ("qchar.qc_mul", "shiftedq.qchar", "qc_mul", True),
    ("modrep.build_module", "shiftedq.modrep", "build_module", True),
    ("modrep.check_relations", "shiftedq.modrep", "check_relations", True),
    ("modrep.check_coproduct", "shiftedq.modrep", "check_coproduct", True),
    ("modrep.apply_word", "shiftedq.modrep", "ExplicitModule.apply_word", False),
    ("truncation.enumerate_candidates", "shiftedq.truncation", "enumerate_candidates", True),
    ("truncation.descent_refine", "shiftedq.truncation", "descent_refine", True),
    ("truncation.maint_check", "shiftedq.truncation", "maint_check", True),
    ("langlands.conjecture_report", "shiftedq.langlands", "conjecture_report", True),
    ("langlands.chi_L_standard", "shiftedq.langlands", "chi_L_standard", True),
    ("langlands.truncfd_Z_for", "shiftedq.langlands", "truncfd_Z_for", True),
    ("cli.main", "shiftedq.cli", "main", True),
]

LAYER_NAMES = sorted({name for name, _, _, _ in LAYERS})


class _Frame:
    __slots__ = ("name", "child_s", "dense")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.dense = False  # a factor_in_basis call that reached solve_rational


class Tracer:
    """Collects spans and counters for one traced pass over a job list."""

    def __init__(self):
        self.active = False
        self.stack = []
        self.span_stack = []  # ids of the open coarse spans
        self.spans = []  # [id, name, start, end, parent id or None]
        self.calls = {name: 0 for name in LAYER_NAMES}
        self.self_s = {name: 0.0 for name in LAYER_NAMES}
        self.counts = {
            "kernel.poly_mul.term_products": 0,
            "smith.solve_rational.cells": 0,
            "lweight.factor_in_basis.rejected": 0,
            "lweight.factor_in_basis.dense": 0,
            "qchar.qc_frenkel_mukhin.terms": 0,
            "qchar.qc_mul.terms": 0,
            "modrep.check_relations.instances": 0,
            "truncation.enumerate_candidates.space": 0,
            "truncation.enumerate_candidates.candidates": 0,
            "truncation.enumerate_candidates.refused": 0,
            "truncation.descent_refine.refuted": 0,
            "cli.stdout_bytes": 0,
        }
        self._cli_pos = []
        self._t0 = perf_counter()
        self._patches = []

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap every layer in every shiftedq namespace that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "shiftedq" or n.startswith("shiftedq.")]
        for name, modname, attr, coarse in LAYERS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, coarse))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, coarse)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        self._t0 = perf_counter()
        self.active = True

    def uninstall(self):
        self.active = False
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches = []

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name, fn, coarse):
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            # from here on, all of the wrapper counts as the parent's child time
            entry = perf_counter()
            parent_frame = tracer.stack[-1] if tracer.stack else None
            if before is not None:
                before(tracer, args, kwargs)
            span_id = None
            if coarse:
                span_id = len(tracer.spans)
                parent = tracer.span_stack[-1] if tracer.span_stack else None
                tracer.spans.append([span_id, name, 0.0, 0.0, parent])
                tracer.span_stack.append(span_id)
            frame = _Frame(name)
            tracer.stack.append(frame)
            result = None
            error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                tracer.stack.pop()
                if coarse:
                    tracer.span_stack.pop()
                    span = tracer.spans[span_id]
                    span[2] = t0 - tracer._t0
                    span[3] = t1 - tracer._t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - frame.child_s
                if after is not None:
                    after(tracer, frame, args, result, error)
                if parent_frame is not None:
                    parent_frame.child_s += perf_counter() - entry

        return wrapper

    # -- results -------------------------------------------------------------
    def metrics(self):
        """Per-layer numbers of this pass, keyed by metric name."""
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["scalars.ExactScalar.ops"] = out.pop("scalars.ExactScalar.calls")
        out["scalars.ConstantFactor.created"] = out.pop("scalars.ConstantFactor.calls")
        out.update(self.counts)
        calls = self.calls["lweight.factor_in_basis"]
        out["lweight.factor_in_basis.dense_ratio"] = (
            self.counts["lweight.factor_in_basis.dense"] / calls if calls else 0.0
        )
        space = self.counts["truncation.enumerate_candidates.space"]
        out["truncation.enumerate_candidates.candidate_ratio"] = (
            self.counts["truncation.enumerate_candidates.candidates"] / space
            if space else 0.0
        )
        return out


# -- counter hooks ---------------------------------------------------------

def _before_poly_mul(tracer, args, kwargs):
    tracer.counts["kernel.poly_mul.term_products"] += len(args[0]) * len(args[1])


def _before_solve_rational(tracer, args, kwargs):
    A = args[0]
    tracer.counts["smith.solve_rational.cells"] += len(A) * (len(A[0]) if A else 0)
    for frame in reversed(tracer.stack):
        if frame.name == "lweight.factor_in_basis":
            frame.dense = True
            break


def _after_factor(tracer, frame, args, result, error):
    if error is None and result is None:
        tracer.counts["lweight.factor_in_basis.rejected"] += 1
    if frame.dense:
        tracer.counts["lweight.factor_in_basis.dense"] += 1


def _after_terms(key):
    def hook(tracer, frame, args, result, error):
        if error is None:
            tracer.counts[key] += len(result.terms)
    return hook


def _after_check_relations(tracer, frame, args, result, error):
    if error is None:
        tracer.counts["modrep.check_relations.instances"] += sum(
            f["instances"] for f in result["families"]
        )


def _before_enumerate(tracer, args, kwargs):
    """Size of the Cartesian product the enumeration walks: the product over
    nodes of the number of a_i-multisets of usable Lambda sites.  Computed
    with tracing suspended, so the library calls it makes are not counted."""
    from shiftedq import truncation

    z, mu = args[0], args[2]
    tracer.active = False
    try:
        a = truncation.truncation_shifts(z, mu)
        space = 1
        if any(a):
            usable = truncation.usable_lambda_sites(z, a)
            for i in z.cd.nodes():
                k = a[i - 1]
                if k:
                    space *= math.comb(len(usable[i]) + k - 1, k)
        tracer.counts["truncation.enumerate_candidates.space"] += space
    except truncation.TruncationError:
        pass
    finally:
        tracer.active = True


def _after_enumerate(tracer, frame, args, result, error):
    from shiftedq import truncation

    if error is None:
        tracer.counts["truncation.enumerate_candidates.candidates"] += len(result)
    elif isinstance(error, truncation.TruncationError):
        tracer.counts["truncation.enumerate_candidates.refused"] += 1


def _after_descent(tracer, frame, args, result, error):
    if error is None and result.status == "Refuted":
        tracer.counts["truncation.descent_refine.refuted"] += 1


def _before_cli(tracer, args, kwargs):
    tracer._cli_pos.append(sys.stdout.tell())


def _after_cli(tracer, frame, args, result, error):
    tracer.counts["cli.stdout_bytes"] += sys.stdout.tell() - tracer._cli_pos.pop()


_BEFORE = {
    "kernel.poly_mul": _before_poly_mul,
    "smith.solve_rational": _before_solve_rational,
    "truncation.enumerate_candidates": _before_enumerate,
    "cli.main": _before_cli,
}
_AFTER = {
    "lweight.factor_in_basis": _after_factor,
    "qchar.qc_frenkel_mukhin": _after_terms("qchar.qc_frenkel_mukhin.terms"),
    "qchar.qc_mul": _after_terms("qchar.qc_mul.terms"),
    "modrep.check_relations": _after_check_relations,
    "truncation.enumerate_candidates": _after_enumerate,
    "truncation.descent_refine": _after_descent,
    "cli.main": _after_cli,
}
