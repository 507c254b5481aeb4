import random
from math import gcd

import pytest

from ffconsensus import (
    PolyFF,
    factor,
    is_irreducible,
    order_of_x_mod,
    split_nilpotent_bijective,
)
from ffconsensus.poly import pow_x_mod

from conftest import F2, F3, F5


def random_poly(rng, field, max_deg):
    deg = rng.randrange(max_deg + 1)
    return PolyFF(field, [rng.randrange(field.p) for _ in range(deg + 1)])


# ---------------------------------------------------------
# Ring arithmetic
# ---------------------------------------------------------

def test_mul_by_one_and_hand_example():
    f = PolyFF(F3, [1, 2, 1])
    assert f * PolyFF.one(F3) == f
    # (x + 1)(x + 2) = x^2 + 2 over F_3
    assert PolyFF(F3, [1, 1]) * PolyFF(F3, [2, 1]) == PolyFF(F3, [2, 0, 1])


def test_canonical_form_strips_zeros():
    assert PolyFF(F3, [1, 2, 0, 0]).coeffs == (1, 2)
    assert PolyFF(F3, [0, 0]).is_zero
    assert PolyFF(F3, [3, 6]).is_zero  # reduced mod 3


def test_divmod_reconstruction_random():
    rng = random.Random(7)
    for field in (F2, F3, F5):
        for _ in range(80):
            f = random_poly(rng, field, 8)
            g = random_poly(rng, field, 5)
            if g.is_zero:
                continue
            q, r = divmod(f, g)
            assert g * q + r == f
            assert r.degree < g.degree


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divmod(PolyFF(F3, [1, 1]), PolyFF.zero(F3))


def test_gcd_monic_and_zero_case():
    f = PolyFF(F3, [2, 2])  # 2x + 2 = 2(x + 1)
    assert f.gcd(PolyFF.zero(F3)) == PolyFF(F3, [1, 1])
    a = PolyFF(F3, [1, 1]) * PolyFF(F3, [2, 1])
    b = PolyFF(F3, [1, 1]) * PolyFF(F3, [1, 0, 1])
    assert a.gcd(b) == PolyFF(F3, [1, 1])


def test_eval_horner():
    f = PolyFF(F5, [1, 2, 3])  # 3x^2 + 2x + 1
    for v in range(5):
        assert f.eval(v) == (3 * v * v + 2 * v + 1) % 5


# ---------------------------------------------------------
# Nilpotent/bijective split
# ---------------------------------------------------------

def test_split_pure_power():
    for n in range(1, 5):
        s, q = split_nilpotent_bijective(PolyFF.monomial(F3, n))
        assert s == n and q == PolyFF.one(F3)


def test_split_no_zero_root():
    f = PolyFF(F3, [2, 0, 1])
    s, q = split_nilpotent_bijective(f)
    assert s == 0 and q == f


def test_split_reference_char_poly():
    cp = PolyFF(F3, [0, 1, 2, 0, 1, 1])
    s, q = split_nilpotent_bijective(cp)
    assert s == 1
    assert q.degree == 4 and q.eval(0) != 0
    assert PolyFF.monomial(F3, s) * q == cp


def test_split_rejects_zero():
    with pytest.raises(ValueError):
        split_nilpotent_bijective(PolyFF.zero(F3))


def test_split_property_random():
    rng = random.Random(13)
    for field in (F2, F3, F5):
        for _ in range(60):
            f = random_poly(rng, field, 7)
            if f.is_zero:
                continue
            s, q = split_nilpotent_bijective(f)
            assert q.eval(0) != 0
            assert PolyFF.monomial(field, s) * q == f


# ---------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------

def _irreducible_by_frobenius(f: PolyFF) -> bool:
    """Independent oracle: f (monic, deg m) is irreducible iff
    x^(p^m) = x mod f and gcd(x^(p^(m/q)) - x, f) = 1 for prime q | m."""
    f = f.monic()
    p = f.field.p
    m = f.degree
    x = PolyFF.x(f.field)
    if pow_x_mod(p**m, f) != x % f:
        return False
    for q in {d for d in range(2, m + 1) if m % d == 0 and all(d % e for e in range(2, d))}:
        g = (pow_x_mod(p ** (m // q), f) - x).gcd(f)
        if g.degree != 0:
            return False
    return True


def test_degree_one_always_irreducible():
    for field in (F2, F3, F5):
        for c in range(field.p):
            assert is_irreducible(PolyFF(field, [c, 1]))


def test_quadratic_without_roots_over_f3():
    f = PolyFF(F3, [1, 0, 1])  # x^2 + 1: no roots in F_3
    assert all(f.eval(v) != 0 for v in range(3))
    assert is_irreducible(f)


def test_reference_quartic_irreducible():
    q = PolyFF(F3, [1, 2, 0, 1, 1])
    assert is_irreducible(q)


def test_constant_rejected():
    with pytest.raises(ValueError):
        is_irreducible(PolyFF.one(F3))


def test_irreducibility_matches_frobenius_oracle():
    rng = random.Random(17)
    for field in (F2, F3):
        for _ in range(60):
            f = random_poly(rng, field, 5)
            if f.degree < 1:
                continue
            assert is_irreducible(f) == _irreducible_by_frobenius(f)


# ---------------------------------------------------------
# Factorization
# ---------------------------------------------------------

def test_factor_irreducible_is_itself():
    f = PolyFF(F3, [2, 4, 0, 2, 2])  # 2 * (monic quartic)
    unit, factors = factor(f)
    reconstructed = PolyFF(F3, [unit])
    for g, e in factors:
        assert is_irreducible(g) and g.is_monic
        reconstructed = reconstructed * g**e
    assert reconstructed == f


def test_factor_hand_examples():
    unit, factors = factor(PolyFF(F2, [1, 0, 1]))  # x^2 + 1 = (x + 1)^2 over F_2
    assert unit == 1
    assert factors == [(PolyFF(F2, [1, 1]), 2)]

    g = PolyFF(F3, [1, 0, 1])  # irreducible
    unit, factors = factor(PolyFF.monomial(F3, 2) * g)
    assert factors == [(PolyFF.x(F3), 2), (g, 1)]


def test_factor_roundtrip_random():
    rng = random.Random(19)
    for field in (F2, F3, F5):
        for _ in range(40):
            f = random_poly(rng, field, 8)
            if f.is_zero:
                continue
            unit, factors = factor(f)
            rebuilt = PolyFF(field, [unit])
            for g, e in factors:
                assert g.is_monic
                rebuilt = rebuilt * g**e
            assert rebuilt == f


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(PolyFF.zero(F3))


# ---------------------------------------------------------
# Multiplicative order of x
# ---------------------------------------------------------

def test_order_x_minus_one():
    assert order_of_x_mod(PolyFF(F3, [-1, 1])) == 1


def test_order_reference_quartic_is_20():
    q = PolyFF(F3, [1, 2, 0, 1, 1])
    t = order_of_x_mod(q)
    assert t == 20
    # cross-check by repeated modular multiplication
    cur = PolyFF.x(F3) % q
    seen = 1
    while cur != PolyFF.one(F3):
        cur = (cur * PolyFF.x(F3)) % q
        seen += 1
    assert seen == 20


def test_order_f2_trinomial():
    assert order_of_x_mod(PolyFF(F2, [1, 1, 1])) == 3  # = 2^2 - 1


def test_order_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        order_of_x_mod(PolyFF(F3, [0, 1, 1]))


def test_order_divides_group_order_and_is_minimal():
    rng = random.Random(29)
    checked = 0
    while checked < 25:
        field = (F2, F3)[rng.randrange(2)]
        deg = rng.randrange(2, 5)
        f = PolyFF(field, [rng.randrange(field.p) for _ in range(deg)] + [1])
        if f.eval(0) == 0 or not is_irreducible(f):
            continue
        t = order_of_x_mod(f)
        group = field.p**f.degree - 1
        assert group % t == 0
        assert pow_x_mod(t, f) == PolyFF.one(field)
        for d in range(1, t):
            if t % d == 0:
                assert pow_x_mod(d, f) != PolyFF.one(field)
        checked += 1


def test_order_on_reducible_modulus():
    # f = (x+1)(x+2) over F_3: orders mod each factor are 1 and 2 -> lcm 2
    f = PolyFF(F3, [1, 1]) * PolyFF(F3, [2, 1])
    t = order_of_x_mod(f)
    assert pow_x_mod(t, f) == PolyFF.one(F3)
    for d in range(1, t):
        assert pow_x_mod(d, f) != PolyFF.one(F3)


# ---------------------------------------------------------
# Display
# ---------------------------------------------------------

def test_format_strings():
    assert PolyFF(F3, [1, 2, 0, 1, 1]).format() == "λ^4+λ^3+2λ+1"
    assert PolyFF(F3, [2, 1, 0, 2, 1]).format() == "λ^4+2λ^3+λ+2"
    assert PolyFF.zero(F3).format() == "0"
    assert PolyFF.zero(F3).coefficient_list() == [0]
