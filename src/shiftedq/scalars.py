"""Exact scalars for the coefficient field Q(v) with v**2 = q.

ExactScalar is an immutable fraction of sparse Laurent polynomials in v over
Q; only reduced() takes a gcd.  Its coefficients are plain ints; a Fraction
appears only where a division by a coefficient other than +-1 needs one.
pack / unpack / packed_mul / packed_add give the same field as plain ints by
Kronecker substitution at v = 2**PACK_WIDTH, read back only where a carried
coefficient bound proves them exact (see the comment above PACK_WIDTH); the
relation verifier of modrep walks this form.  ConstantFactor is the group
(C*)^I restricted to coordinates zeta**k * q**e with e rational and zeta a fixed
primitive 8th root of unity (ZETA_ORDER): the exact home of the constants
omega-bar(w) appearing on l-weights.  Only the coordinates with zeta**k = +-1
are scalars of Q(v).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import poly_add, poly_mul, poly_neg, poly_scale, poly_sub

ZETA_ORDER = 8


def _inv_coeff(c):
    """1/c; a unit of Z stays an int, anything else becomes a Fraction."""
    if c == 1 or c == -1:
        return int(c)
    return 1 / Fraction(c)


def _poly_to_list(p):
    """Dense coefficient list of v**min_exp * (c0 + c1 v + ...), plus min_exp."""
    lo = min(p)
    hi = max(p)
    out = [0] * (hi - lo + 1)
    for e, c in p.items():
        out[e - lo] = c
    return out, lo


def _list_to_poly(lst, shift=0):
    return {i + shift: c for i, c in enumerate(lst) if c}


def _list_divmod(a, b):
    """Polynomial divmod on dense lists over the coefficient field."""
    a = list(a)
    db = len(b) - 1
    inv_lead = _inv_coeff(b[-1])
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if not c:
            continue
        f = c * inv_lead
        q[i - db] = f
        for j, bc in enumerate(b):
            a[i - db + j] = a[i - db + j] - f * bc
    while a and not a[-1]:
        a.pop()
    return q, a


def _list_gcd(a, b):
    """Monic gcd of dense polynomial lists (field coefficients)."""
    a = [c for c in a]
    b = [c for c in b]
    while b and not b[-1]:
        b.pop()
    while a and not a[-1]:
        a.pop()
    while b:
        _, r = _list_divmod(a, b)
        a, b = b, r
        while b and not b[-1]:
            b.pop()
    if not a:
        return [1]
    inv = _inv_coeff(a[-1])
    return [c * inv for c in a]


_TRIVIAL_DEN = {0: 1}  # shared read-only by convention


class ExactScalar:
    """Fraction num/den of Laurent polynomials in v (v**2 = q).

    An immutable value: every result goes through the constructor, which
    keeps the denominator normalized (its lowest term is exactly v**0 with
    coefficient 1).  Arithmetic is lazy (no gcd); zero tests and equality are
    exact via cross-multiplication, and the coprime form is computed on
    demand by reduced(), which key / hash / repr / evaluate read.  No num or
    den dict is mutated once built, so values share them.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = _TRIVIAL_DEN
        if not den:
            raise ZeroDivisionError("ExactScalar with zero denominator")
        if not num:
            num, den = {}, _TRIVIAL_DEN
        else:
            # den becomes a polynomial with den[0] = 1; the shift and leading
            # constant are pushed into num.  Every den of 1 is one shared
            # dict: most matrix entries have it.
            lo = min(den)
            c0 = den[lo]
            if lo != 0 or c0 != 1:
                inv = _inv_coeff(c0)
                den = poly_scale(den, inv, -lo)
                num = poly_scale(num, inv, -lo)
            if len(den) == 1:
                den = _TRIVIAL_DEN
        self.num = num
        self.den = den

    def reduced(self):
        """The coprime form: a new value, or self when the gcd is 1."""
        if len(self.den) == 1:  # a normalized one-term den is 1; zero has it
            return self
        nl, nlo = _poly_to_list(self.num)
        dl, dlo = _poly_to_list(self.den)
        g = _list_gcd(nl, dl)
        if len(g) == 1:
            return self
        nq, nr = _list_divmod(nl, g)
        dq, dr = _list_divmod(dl, g)
        assert not nr and not dr
        return ExactScalar(_list_to_poly(nq, nlo), _list_to_poly(dq, dlo))

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_int(k):
        """The constant k, an int or a Fraction."""
        return ExactScalar({0: k} if k else {})

    @staticmethod
    def q_power(e):
        """q**e for rational e; requires 2e integral (v = q**(1/2))."""
        if type(e) is int:
            return ExactScalar({2 * e: 1})
        ve = 2 * Fraction(e)
        if ve.denominator != 1:
            raise ValueError(f"q**{e} is not in Q(v): needs v**{ve}")
        return ExactScalar({int(ve): 1})

    # -- ring ops ------------------------------------------------------
    def __add__(self, other):
        o = _coerce_scalar(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return ExactScalar(poly_add(self.num, o.num), self.den)
        num = poly_add(poly_mul(self.num, o.den), poly_mul(o.num, self.den))
        return ExactScalar(num, poly_mul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce_scalar(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return ExactScalar(poly_sub(self.num, o.num), self.den)
        num = poly_sub(poly_mul(self.num, o.den), poly_mul(o.num, self.den))
        return ExactScalar(num, poly_mul(self.den, o.den))

    def __rsub__(self, other):
        o = _coerce_scalar(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _coerce_scalar(other)
        if o is None:
            return NotImplemented
        return ExactScalar(poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce_scalar(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("ExactScalar division by zero")
        return ExactScalar(poly_mul(self.num, o.den), poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = _coerce_scalar(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return ExactScalar(poly_neg(self.num), self.den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = _coerce_scalar(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return self.num == o.num
        return poly_mul(self.num, o.den) == poly_mul(o.num, self.den)

    def __hash__(self):
        return hash(self.key())

    def key(self):
        # equal ints and Fractions compare and hash alike
        r = self.reduced()
        return (tuple(sorted(r.num.items())), tuple(sorted(r.den.items())))

    def evaluate(self, v0):
        """Exact value at a rational v0 != 0, as a Fraction."""
        r = self.reduced()
        v0 = Fraction(v0)
        num = sum(c * v0**e for e, c in r.num.items())
        den = sum(c * v0**e for e, c in r.den.items())
        return num / den

    def __repr__(self):
        r = self.reduced()

        def side(p):
            if not p:
                return "0"
            return " + ".join(f"{c}*v^{e}" for e, c in sorted(p.items()))

        if len(r.den) == 1:
            return f"({side(r.num)})"
        return f"({side(r.num)}) / ({side(r.den)})"


def _coerce_scalar(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar.from_int(x)
    return None


ZERO = ExactScalar.from_int(0)
ONE = ExactScalar.from_int(1)


def qnum(m, r=1):
    """Quantum number [m]_{q^r} as a Laurent polynomial in v (sum form)."""
    if m == 0:
        return ExactScalar.from_int(0)
    s = 1 if m > 0 else -1
    m = abs(m)
    num = {}
    for k in range(m):
        num[2 * r * (m - 1 - 2 * k)] = s
    return ExactScalar(num)


def qbinom(n, k, r=1):
    """Quantum binomial [n choose k]_{q^r} for 0 <= k <= n."""
    out = ONE
    for j in range(1, k + 1):
        out = out * qnum(n - j + 1, r) / qnum(j, r)
    return out


# -- packed Q(v): Kronecker substitution at v = 2**W -------------------------
#
# A packed value is the int tuple (e, N, D, B) of the scalar v**e * n(v)/d(v)
# with n, d in Z[v], N = n(2**W), D = d(2**W) and B >= max(||n||_1, ||d||_1),
# B >= 1.  Evaluation at 2**W is a ring homomorphism, so packed_mul and
# packed_add are exact on the ints, and a nonzero N always means a nonzero
# value.  While B < 2**(W-1) every coefficient of n and d is a signed
# base-2**W digit of N and D: only then does N == 0 mean zero, and only then
# can unpack read n/d.  A result whose B reaches 2**(W-1) is not read: its
# inputs are packed again at fit_width(B) and it is computed again.  B never
# grows with W (a wider width takes every common-denominator sum a narrower
# one takes), so that second pass can always be read.

PACK_WIDTH = 32  # W


def fit_width(bound):
    """The width at which values of this bound can be read."""
    return max(PACK_WIDTH, bound.bit_length() + 1)


def _eval_at(p, width, shift):
    return sum(c << (width * (e - shift)) for e, c in p.items())


def pack(s, width=PACK_WIDTH):
    """The ExactScalar s as (e, N, D, B) at v = 2**width.

    The Fraction coefficients of s are cleared by the lcm of their
    denominators, and n and d start at v**0: for a normalized s.den, d is
    s.den times that lcm.  Zero packs as (0, 0, 1, 1).
    """
    num, den = s.num, s.den
    if not num:
        return (0, 0, 1, 1)
    lcm = math.lcm(*[c.denominator for p in (num, den) for c in p.values()])
    num = {e: c.numerator * (lcm // c.denominator) for e, c in num.items()}
    den = {e: c.numerator * (lcm // c.denominator) for e, c in den.items()}
    nlo, dlo = min(num), min(den)
    bound = max(sum(map(abs, num.values())), sum(map(abs, den.values())))
    return (nlo - dlo, _eval_at(num, width, nlo), _eval_at(den, width, dlo), bound)


def _digits(x, width, shift):
    """The polynomial with signed base-2**width digits x, times v**shift."""
    out = {}
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    while x:
        c = x & mask
        if c >= half:
            c -= 1 << width
        if c:
            out[shift] = c
        x = (x - c) >> width
        shift += 1
    return out


def unpack(p, width=PACK_WIDTH):
    """The ExactScalar of a packed value; its bound must be below 2**(W-1)."""
    e, n, d, bound = p
    if bound >> (width - 1):
        raise ValueError(f"packed bound {bound} does not fit width {width}")
    return ExactScalar(_digits(n, width, e), _digits(d, width, 0))


def packed_mul(a, b):
    """a * b."""
    return (a[0] + b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3])


def packed_add(a, b, width=PACK_WIDTH):
    """a + b: e aligned by a left shift; the N's add over a common D when
    both bounds prove the D's equal as polynomials, else cross-multiply."""
    if a[0] > b[0]:
        a, b = b, a
    e, an, ad, ab = a
    be, bn, bd, bb = b
    shift = width * (be - e)
    if ad == bd and not (ab | bb) >> (width - 1):
        return (e, an + (bn << shift), ad, ab + bb)
    return (e, an * bd + ((bn * ad) << shift), ad * bd, 2 * ab * bb)


_ZETA_SCALARS = {0: ONE, 4: ExactScalar.from_int(-1)}  # the zeta-powers in Q


def json_int(x, what):
    """An integer read from outside JSON: an int or an integral float, not a
    boolean (bool is a subclass of int)."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValueError(f"{what} {x!r} is not an integer")


class ConstantFactor:
    """A point of (C*)^I with coordinates zeta**k * q**e, e in Q, k in Z/8.

    Coordinates are trusted: q-exponents are ints or Fractions (halving goes
    through Fraction(e, 2), never e / 2) and zeta exponents are ints, stored
    reduced mod ZETA_ORDER; the reduction runs only when some zeta is
    nonzero.  Outside input is validated once, in from_json.
    """

    __slots__ = ("qexps", "zetas")

    def __init__(self, qexps, zetas):
        self.qexps = tuple(qexps)
        zetas = tuple(zetas)
        self.zetas = tuple([z % ZETA_ORDER for z in zetas]) if any(zetas) else zetas
        if len(self.qexps) != len(self.zetas):
            raise ValueError("coordinate length mismatch")

    @staticmethod
    def one(n):
        return ConstantFactor((0,) * n, (0,) * n)

    @property
    def n(self):
        return len(self.qexps)

    def mul(self, other, sign=1):
        if self.n != other.n:
            raise ValueError("incompatible constant groups")
        if sign == 1:
            return ConstantFactor(
                [a + b for a, b in zip(self.qexps, other.qexps)],
                [a + b for a, b in zip(self.zetas, other.zetas)],
            )
        return ConstantFactor(
            [a - b for a, b in zip(self.qexps, other.qexps)],
            [a - b for a, b in zip(self.zetas, other.zetas)],
        )

    def inv(self):
        return ConstantFactor([-e for e in self.qexps], [-z for z in self.zetas])

    def pow(self, k):
        """Integer power."""
        return ConstantFactor([e * k for e in self.qexps], [z * k for z in self.zetas])

    def is_one(self):
        return all(e == 0 for e in self.qexps) and all(z == 0 for z in self.zetas)

    def __eq__(self, other):
        return (
            isinstance(other, ConstantFactor)
            and self.qexps == other.qexps
            and self.zetas == other.zetas
        )

    def __hash__(self):
        return hash((self.qexps, self.zetas))

    def coordinate_scalar(self, j):
        """Coordinate j as an ExactScalar; needs zeta-power 1 or -1."""
        z = self.zetas[j]
        if z not in _ZETA_SCALARS:
            raise ValueError(f"constant zeta^{z} is outside Q(v)")
        return _ZETA_SCALARS[z] * ExactScalar.q_power(self.qexps[j])

    def sqrt_class(self):
        """A square root in the same group, when one exists (zeta-parts even).

        Returns the canonical root; the other root differs by -1 per node.
        """
        for z in self.zetas:
            if z % 2 != 0:
                raise ValueError(
                    f"no square root of zeta^{z} in the zeta_{ZETA_ORDER} group"
                )
        return ConstantFactor(
            [Fraction(e, 2) for e in self.qexps], [z // 2 for z in self.zetas]
        )

    def to_json(self):
        return [
            [e.numerator, e.denominator, z]
            for e, z in zip(self.qexps, self.zetas)
        ]

    @staticmethod
    def from_json(data):
        """Validate outside input: [[num, den, zeta], ...] with integer
        entries and nonzero denominators."""
        qexps = []
        zetas = []
        for a, b, z in data:
            a = json_int(a, "q-exponent numerator")
            b = json_int(b, "q-exponent denominator")
            if not b:
                raise ValueError("q-exponent denominator is zero")
            qexps.append(Fraction(a, b))
            zetas.append(json_int(z, "zeta exponent"))
        return ConstantFactor(qexps, zetas)

    def __repr__(self):
        parts = []
        for e, z in zip(self.qexps, self.zetas):
            s = ""
            if z:
                s += f"zeta^{z}"
            if e:
                s += f"q^{e}"
            parts.append(s or "1")
        return "(" + ", ".join(parts) + ")"
