import random
from fractions import Fraction

from shiftedq import kernel as k


def rand_poly(rng, size=6):
    return {
        rng.randint(-8, 8): Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        for _ in range(rng.randint(0, size))
    }


def test_ring_axioms():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert k.poly_add(a, b) == k.poly_add(b, a)
        assert k.poly_mul(a, b) == k.poly_mul(b, a)
        left = k.poly_mul(a, k.poly_add(b, c))
        right = k.poly_add(k.poly_mul(a, b), k.poly_mul(a, c))
        assert left == right
        assert k.poly_sub(a, a) == {}
        assert k.poly_add(a, k.poly_neg(a)) == {}


def test_no_stored_zeros():
    a = {0: Fraction(1), 1: Fraction(2)}
    b = {0: Fraction(-1), 1: Fraction(-2)}
    assert k.poly_add(a, b) == {}
    assert k.poly_scale(a, Fraction(0)) == {}
    assert k.poly_scale(a, Fraction(2), 3) == {3: Fraction(2), 4: Fraction(4)}
