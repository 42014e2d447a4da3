import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftedq.kernel import poly_mul
from shiftedq.scalars import (
    PACK_WIDTH,
    ZETA_ORDER,
    ConstantFactor,
    ExactScalar,
    ONE,
    ZERO,
    fit_width,
    pack,
    packed_add,
    packed_mul,
    qbinom,
    qnum,
    unpack,
)
from support import pack_reference

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def scalars(draw):
    num = draw(
        st.dictionaries(st.integers(-5, 5), coeffs, max_size=4)
    )
    den = draw(
        st.dictionaries(st.integers(-3, 3), coeffs, min_size=0, max_size=3)
    )
    den = {e: c for e, c in den.items() if c}
    if not den:
        den = {0: Fraction(1)}
    return ExactScalar({e: c for e, c in num.items() if c}, den)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) - b == a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a / b) * b == a
    assert a + ExactScalar.from_int(0) == a
    assert a * ONE == a


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), st.sampled_from([Fraction(2), Fraction(1, 3), Fraction(-3, 2)]))
def test_evaluation_commutes(a, b, v0):
    try:
        ea, eb = a.evaluate(v0), b.evaluate(v0)
    except ZeroDivisionError:
        return
    assert (a + b).evaluate(v0) == ea + eb
    assert (a * b).evaluate(v0) == ea * eb


def _normalized(s):
    """The denominator invariant: lowest term exactly v**0 with coefficient
    1, and the zero scalar over 1."""
    return min(s.den) == 0 and s.den[0] == 1 and (bool(s.num) or s.den == {0: 1})


@settings(max_examples=80, deadline=None)
@given(scalars(), scalars(), st.integers(-3, 3))
def test_ring_ops_keep_denominators_normalized(a, b, k):
    results = [a + b, a - b, a * b, -a, a + k, k - a, a * k, a * a,
               a * ExactScalar.q_power(k), a + a, a - a]
    if b:
        results.append(a / b)
    for r in results:
        assert _normalized(r)
        again = ExactScalar(dict(r.num), dict(r.den))
        assert (again.num, again.den) == (r.num, r.den)
        assert again == r


@given(st.integers(-40, 40))
def test_q_power_matches_fraction_path(k):
    for e, ve in ((k, 2 * k), (Fraction(k), 2 * k), (Fraction(2 * k + 1, 2), 2 * k + 1)):
        got = ExactScalar.q_power(e)
        assert (got.num, got.den) == ({ve: 1}, {0: 1})
        assert _coeff_types(got) == {int}
        assert got == ExactScalar({ve: Fraction(1)})
    h = ExactScalar.q_power(Fraction(2 * k + 1, 2))
    assert h * h == ExactScalar.q_power(2 * k + 1)


def test_qnum_basics():
    # [2]_q = q + q^{-1}; [-1]_q = -1; [3]_q = q^2 + 1 + q^{-2}
    assert qnum(2) == ExactScalar.q_power(1) + ExactScalar.q_power(-1)
    assert qnum(-1) == ExactScalar.from_int(-1)
    assert qnum(3) == (
        ExactScalar.q_power(2) + ONE + ExactScalar.q_power(-2)
    )
    # [m]_u = (u^m - u^{-m})/(u - u^{-1})
    for m in (-3, -1, 1, 2, 5):
        for r in (1, 2, 3):
            u = ExactScalar.q_power(r)
            lhs = qnum(m, r) * (u - 1 / u)
            pw = ExactScalar.q_power(r * m)
            assert lhs == pw - 1 / pw


def test_qbinom():
    assert qbinom(2, 1) == qnum(2)
    assert qbinom(4, 2) == qnum(4) * qnum(3) / qnum(2)


def test_half_integer_q_powers():
    v = ExactScalar.q_power(Fraction(1, 2))
    assert v * v == ExactScalar.q_power(1)
    with pytest.raises(ValueError):
        ExactScalar.q_power(Fraction(1, 3))


def test_lazy_reduction_equality():
    q = ExactScalar.q_power(1)
    a = (q * q - 1) / (q - 1)  # unreduced fraction
    assert a == q + 1
    assert len(a.reduced().den) == 1


def test_constant_factor_group():
    c = ConstantFactor([Fraction(1, 2), 2], [2, 4])
    d = c.mul(c.inv())
    assert d.is_one()
    assert c.pow(2) == c.mul(c)
    r = c.pow(2).sqrt_class()
    assert r.pow(2) == c.pow(2)
    with pytest.raises(ValueError):
        ConstantFactor([0], [1]).sqrt_class()
    back = ConstantFactor.from_json(c.to_json())
    assert back == c


def test_constant_factor_scalar_coordinates():
    assert ConstantFactor([Fraction(3, 2)], [0]).coordinate_scalar(0) == ExactScalar({3: 1})
    # zeta^4 = -1
    s = ConstantFactor([Fraction(3, 2)], [4]).coordinate_scalar(0)
    assert s == -ExactScalar({3: 1})
    # every other zeta-power (i = zeta^2 included) lies outside Q(v)
    for z in (1, 2, 3, 5, 6, 7):
        with pytest.raises(ValueError, match="outside Q\\(v\\)"):
            ConstantFactor([0], [z]).coordinate_scalar(0)


def _ref_mul(a, b, sign):
    return ([x + sign * y for x, y in zip(a[0], b[0])],
            [(x + sign * y) % 8 for x, y in zip(a[1], b[1])])


def _assert_matches(c, ref):
    """c equals the Fraction-only reference; q-exponents are never floats."""
    assert all(type(e) in (int, Fraction) for e in c.qexps)
    assert all(type(z) is int and 0 <= z < 8 for z in c.zetas)
    assert [Fraction(e) for e in c.qexps] == ref[0]
    assert list(c.zetas) == ref[1]


def test_constant_factor_matches_fraction_reference():
    assert ZETA_ORDER == 8
    rng = random.Random(5)

    def rand_coord():
        # int and Fraction q-exponents, zeta exponents outside [0, 8)
        e = rng.choice([rng.randint(-6, 6), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
        return e, rng.randint(-20, 20)

    for _ in range(300):
        n = rng.randint(1, 4)
        pool = []
        for _ in range(3):
            coords = [rand_coord() for _ in range(n)]
            c = ConstantFactor([e for e, _ in coords], [z for _, z in coords])
            ref = ([Fraction(e) for e, _ in coords], [z % 8 for _, z in coords])
            _assert_matches(c, ref)
            pool.append((c, ref))
        for _ in range(8):
            (a, ra), (b, rb) = rng.sample(pool, 2)
            op = rng.choice(["mul", "div", "inv", "pow", "sqrt", "json"])
            if op in ("mul", "div"):
                sign = 1 if op == "mul" else -1
                out, ref = a.mul(b, sign), _ref_mul(ra, rb, sign)
            elif op == "inv":
                out, ref = a.inv(), ([-x for x in ra[0]], [-z % 8 for z in ra[1]])
            elif op == "pow":
                k = rng.randint(-3, 3)
                out, ref = a.pow(k), ([x * k for x in ra[0]], [z * k % 8 for z in ra[1]])
            elif op == "sqrt":
                sq = a.pow(2)
                out = sq.sqrt_class()
                ref = ([x for x in ra[0]], [z % 4 for z in ra[1]])
                assert out.pow(2) == sq
                if any(z % 2 for z in a.zetas):
                    with pytest.raises(ValueError):
                        a.sqrt_class()
            else:
                out, ref = ConstantFactor.from_json(a.to_json()), ra
                assert out == a and hash(out) == hash(a)
            _assert_matches(out, ref)
            pool.append((out, ref))


def test_constant_factor_int_and_fraction_coordinates_agree():
    a = ConstantFactor([1, -2, 0], [3, 0, 9])
    b = ConstantFactor([Fraction(1), Fraction(-2), Fraction(0)], [3, 8, 1])
    assert a == b and hash(a) == hash(b)
    assert a.to_json() == b.to_json() == [[1, 1, 3], [-2, 1, 0], [0, 1, 1]]
    assert repr(a) == repr(b)
    # halving an int coordinate gives an exact rational, not a float
    h = ConstantFactor([3, 4], [0, 2]).sqrt_class()
    assert h.qexps == (Fraction(3, 2), 2) and type(h.qexps[0]) is Fraction
    assert h.zetas == (0, 1)


@pytest.mark.parametrize(
    "data",
    [[[1, 0, 0]], [[0, 1, 1.5]], [[1.5, 1, 0]], [["1", 1, 0]], [[0, 1]],
     [[False, True, 0]], [[0, 1, True]]],
)
def test_constant_factor_from_json_rejects(data):
    with pytest.raises(ValueError):
        ConstantFactor.from_json(data)


def test_constant_factor_from_json_accepts_integral_floats():
    assert ConstantFactor.from_json([[3.0, 2, 10.0]]) == ConstantFactor([Fraction(3, 2)], [2])


def _as_fractions(s):
    return ExactScalar({e: Fraction(c) for e, c in s.num.items()},
                       {e: Fraction(c) for e, c in s.den.items()})


def _random_int_scalar(rng):
    num = {rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}
    den = {rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
    num = {e: c for e, c in num.items() if c}
    den = {e: c for e, c in den.items() if c} or {0: 1}
    return ExactScalar(num, den)


def _same(a, b):
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert a.key() == b.key()
    assert repr(a) == repr(b)


def test_int_coefficients_match_fraction_coefficients():
    rng = random.Random(11)
    for _ in range(200):
        a, b = _random_int_scalar(rng), _random_int_scalar(rng)
        fa, fb = _as_fractions(a), _as_fractions(b)
        assert all(type(c) is Fraction for c in fa.num.values())
        _same(a, fa)
        _same(a + b, fa + fb)
        _same(a - b, fa - fb)
        _same(a * b, fa * fb)
        if b:
            _same(a / b, fa / fb)
            _same((a / b).reduced(), fa / fb)


def _coeff_types(s):
    return {type(c) for p in (s.num, s.den) for c in p.values()}


def test_integral_ring_ops_stay_int():
    v = ExactScalar({1: 1})
    a = 3 * v * v - 2 + 5 * ExactScalar({-3: 1})
    b = qnum(3) * (v - 1)
    unit_low = 1 - 2 * v + 7 * v * v  # lowest denominator coefficient 1
    neg_low = -v + 4 * v * v  # lowest coefficient -1
    for s in (a + b, a - b, a * b, -a, a / unit_low, a / neg_low,
              b / unit_low * neg_low, a / ExactScalar.from_int(-1),
              qbinom(5, 2), ConstantFactor([Fraction(3, 2)], [4]).coordinate_scalar(0)):
        assert _coeff_types(s) == {int}, s
        assert _coeff_types(s.reduced()) <= {int}, s
    # dividing by a non-unit constant is where a Fraction is needed
    assert (a / 2).num[2] == Fraction(3, 2)


def test_evaluate_is_exact_for_int_arguments():
    r = ExactScalar({-1: 1}).evaluate(2)
    assert r == Fraction(1, 2) and type(r) is Fraction
    assert qnum(2).evaluate(1) == 2 and type(qnum(2).evaluate(1)) is Fraction
    assert (ExactScalar({2: 1}) / (1 + 3 * ExactScalar({1: 1}))).evaluate(-2) == Fraction(-4, 5)


def _random_mixed_scalar(rng):
    """int and Fraction coefficients over a denominator of one to three terms."""
    def coeff():
        return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))])

    num = {rng.randint(-4, 4): coeff() for _ in range(rng.randint(0, 3))}
    den = {rng.randint(-2, 2): coeff() for _ in range(rng.randint(1, 3))}
    return ExactScalar({e: c for e, c in num.items() if c},
                       {e: c for e, c in den.items() if c} or {0: 1})


def test_monomial_mul_matches_general_product():
    rng = random.Random(8)
    for _ in range(400):
        x = _random_mixed_scalar(rng)
        e = rng.randint(-5, 5)
        c = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
        # c*v**e written three ways: plain, over Fraction(1), over d*v**k
        d, k = rng.choice([1, -2, Fraction(3, 2)]), rng.randint(-2, 2)
        for m in (ExactScalar({e: c}), ExactScalar({e: c}, {0: Fraction(1)}),
                  ExactScalar({e + k: c * d}, {k: d})):
            assert len(m.num) == 1 and len(m.den) == 1
            general = ExactScalar(poly_mul(x.num, m.num), poly_mul(x.den, m.den))
            _same(x * m, general)
            _same(m * x, general)
        assert ONE * x == x and x * ONE == x
        assert not ZERO * x and not x * ZERO
        assert not ExactScalar.from_int(0) * ExactScalar({e: c})



def _random_laurent_fraction(rng):
    """A Laurent fraction with negative exponents, a denominator of one to
    three terms, int or Fraction coefficients and, now and then, one at or
    past 2**(PACK_WIDTH - 1); zero one time in ten."""
    def coeff():
        if rng.random() < 0.08:
            return rng.choice([1, -1]) * 2 ** rng.randint(PACK_WIDTH - 1, 2 * PACK_WIDTH)
        return rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])

    if rng.randrange(10) == 0:
        return ZERO
    num = {rng.randint(-6, 6): coeff() for _ in range(rng.randint(1, 4))}
    den = {rng.randint(-4, 4): coeff() for _ in range(rng.randint(1, 3))}
    return ExactScalar({e: c for e, c in num.items() if c},
                       {e: c for e, c in den.items() if c} or {0: 1})


def _packed_result(op, xs, width=PACK_WIDTH):
    """op on the packed xs, read by the exactness rule: a result whose bound
    reaches 2**(W-1) is computed again from xs packed at fit_width."""
    p = op(*[pack(x, width) for x in xs], width)
    if p[3] >> (width - 1):
        return _packed_result(op, xs, fit_width(p[3]))
    return unpack(p, width), width


def _packed_id(x, width):
    return x


def _packed_mul(x, y, width):
    return packed_mul(x, y)


def test_packed_ops_match_exact_scalar():
    rng = random.Random(15)
    widened = Counter()
    for _ in range(250):
        a, b = _random_laurent_fraction(rng), _random_laurent_fraction(rng)
        cases = [
            ("unpack", _packed_id, (a,), a),
            ("mul", _packed_mul, (a, b), a * b),
            ("add", packed_add, (a, b), a + b),
            ("common D", packed_add, (a, a), a + a),
            ("cancel", packed_add, (a, -a), ZERO),
        ]
        for name, op, xs, want in cases:
            got, width = _packed_result(op, xs)
            _same(got, want)
            widened[name] += width > PACK_WIDTH
            # evaluation is a ring homomorphism: zero packs to N == 0 at any
            # width, and N == 0 with a readable bound is zero
            p = op(*[pack(x) for x in xs], PACK_WIDTH)
            if not want:
                assert p[1] == 0
            elif not p[1]:
                assert p[3] >> (PACK_WIDTH - 1)
    # every operation is read both at PACK_WIDTH and, after the wide
    # coefficients, at fit_width
    assert all(30 <= n <= 220 for n in widened.values()), widened


def test_pack_int_fast_path_matches_lcm_clearing():
    # a scalar with only int coefficients skips the lcm clearing, and packs
    # to the tuple the clearing gives; Fraction coefficients still clear
    rng = random.Random(33)
    dens = [{0: 1}, {0: 1, 4: -1}, {0: 1, 1: 3, 3: -2}]
    ints = 0
    for _ in range(400):
        s = _random_laurent_fraction(rng)
        if s and rng.random() < 0.5:
            s = ExactScalar({e: rng.randint(1, 9) * rng.choice((1, -1)) for e in s.num},
                            rng.choice(dens))
        ints += all(type(c) is int for p in (s.num, s.den) for c in p.values())
        for w in (PACK_WIDTH, PACK_WIDTH + 9):
            assert pack(s, w) == pack_reference(s, w), s
    assert 150 < ints < 350, ints


def test_packed_format():
    assert pack(ZERO) == (0, 0, 1, 1)
    # v**-3 (2 - v/3) / (1 + 2v): cleared by 3, n = 6 - v, d = 3 + 6v
    s = ExactScalar({-3: 2, -2: Fraction(-1, 3)}, {0: 1, 1: 2})
    w = PACK_WIDTH
    assert pack(s) == (-3, 6 - 2 ** w, 3 + 6 * 2 ** w, 9)
    assert unpack(pack(s)) == s
    # a coefficient of 2**(W-1) cannot be read at W; it can at fit_width
    big = ExactScalar.from_int(2 ** (w - 1))
    with pytest.raises(ValueError):
        unpack(pack(big))
    assert fit_width(2 ** (w - 1)) == w + 1 and fit_width(5) == w
    assert unpack(pack(big, w + 1), w + 1) == big
