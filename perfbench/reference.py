"""Machine-speed reference for the benchmark.

On a shared 2-core VM the cores changed speed by up to 1.9x for spells of
seconds to minutes (process CPU time moved with wall time).  run.py reports
times scaled to the speed at which ``reference_work()`` takes
``REFERENCE_S``, using the median reference time measured alongside the
work.  The reference uses nothing from shiftedq, so a change to the program
moves the scaled times in full.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# reference_work() time on an unloaded core of the 2-core VM the benchmark
# was tuned on
REFERENCE_S = 0.0035
# time from spawning ``python3 perfbench/reference.py`` until it prints
# ``ready``, on the same VM when its cores ran at their faster speed
REFERENCE_START_S = 0.1


class _Small:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = tuple(Fraction(x) for x in a)
        self.b = tuple(b)


def reference_work():
    """A fixed pure-Python task that uses nothing from shiftedq: a sparse
    product of Fraction-coefficient dicts, sums over tuple-keyed int maps and
    small-object creation.  Timing it before every job gives the speed of the
    machine at that moment."""
    a = {e: Fraction(e % 7 - 3, 1 + e % 3) for e in range(-20, 20)}
    b = {e: Fraction(2 * e + 1, 5) for e in range(-12, 12)}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    m = {}
    for k in range(600):
        key = (k % 5, k % 61 - 30)
        m[key] = m.get(key, 0) + (1 if k % 3 else -1)
        if not m[key]:
            del m[key]
    return out, m, [_Small((k, -k, 2 * k), (k % 8, 0, 1)) for k in range(150)]


def time_reference():
    """Seconds one reference_work() takes now.  The cyclic collector is off
    meanwhile, so the size of the caller's heap does not enter."""
    gc.disable()
    try:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0
    finally:
        gc.enable()


if __name__ == "__main__":
    # A reference start, for scaling set-up times: a fresh interpreter loads
    # the standard modules the workload set-up loads and does fixed work,
    # but nothing from shiftedq.
    import argparse, contextlib, hashlib, io, json, random  # noqa: E401,F401

    for _ in range(8):
        reference_work()
    print("ready", flush=True)
