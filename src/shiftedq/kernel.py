"""Kernels for sparse Laurent-polynomial dictionaries.

A polynomial in one variable is a dict {exponent: coefficient} with int
exponents and nonzero rational coefficients (int, or Fraction where a
division needs one).  These functions are the hot inner loops of the exact
arithmetic.
"""

# Reported in benchmark run records; this is the only kernel.
BACKEND = "python"


def poly_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def poly_sub(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = -c
        else:
            s = s - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def poly_neg(a):
    return {e: -c for e, c in a.items()}


def poly_mul(a, b):
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            p = ca * cb
            s = out.get(e)
            if s is None:
                out[e] = p
            else:
                s = s + p
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def poly_scale(a, c, shift=0):
    """c * v**shift * a, dropping zeros."""
    if not c:
        return {}
    return {e + shift: co * c for e, co in a.items()}


def exps_combine(a, b, sign):
    """Exponent-map sum a + sign*b for sparse int-valued dicts."""
    out = dict(a)
    if sign == 1:
        for k, e in b.items():
            s = out.get(k, 0) + e
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    else:
        for k, e in b.items():
            s = out.get(k, 0) - e
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out
