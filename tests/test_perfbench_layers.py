"""The library names that the benchmark tracer (perfbench/tracer.py) wraps.

The tracer patches every (module, attribute) of its LAYERS table and calls a
few truncation helpers from its enumeration hook.  A rename or deletion in
the library breaks only traced benchmark runs, so it is caught here.  The
tracer's source is read and executed in a fresh module object; nothing under
perfbench/ is written.
"""

import importlib
import os
import types

import pytest

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracer.py",
)


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
