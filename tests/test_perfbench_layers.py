"""The library names that the benchmark tracer (perfbench/tracer.py) wraps,
and the package attributes that the benchmark worker (perfbench/worker.py)
reads.

The tracer patches every (module, attribute) of its LAYERS table and calls a
few truncation helpers from its enumeration hook.  A rename or deletion in
the library breaks only traced benchmark runs, so it is caught here.  The
tracer's source is read and executed in a fresh module object, and the
worker's source is only parsed; nothing under perfbench/ is written.
"""

import ast
import importlib
import os
import types

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")
WORKER = os.path.join(PERFBENCH, "worker.py")


def _load_tracer():
    mod = types.ModuleType("perfbench_tracer")
    with open(TRACER) as f:
        exec(compile(f.read(), TRACER, "exec"), mod.__dict__)
    return mod


LAYERS = _load_tracer().LAYERS


@pytest.mark.parametrize(
    "modname,attr", [(m, a) for _, m, a, _ in LAYERS],
    ids=[f"{m}.{a}" for _, m, a, _ in LAYERS],
)
def test_layer_resolves(modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_enumeration_hook_names():
    from shiftedq import truncation

    assert callable(truncation.truncation_shifts)
    assert callable(truncation.usable_lambda_sites)
    assert issubclass(truncation.TruncationError, Exception)


def test_worker_package_attributes_resolve():
    # every shiftedq.<name> the worker reads (the run record's backend, for
    # one); a missing one fails every benchmark run, traced or not
    import shiftedq

    with open(WORKER) as f:
        tree = ast.parse(f.read(), WORKER)
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "shiftedq"}
    for name in sorted(names):
        assert hasattr(shiftedq, name), name
