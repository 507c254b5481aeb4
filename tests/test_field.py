import random

import pytest

from ffconsensus import PrimeField, is_prime
from ffconsensus.field import PRIMALITY_BOUND

AXIOM_PRIMES = [2, 3, 5, 7, 31, 97]


# ---------------------------------------------------------
# Construction
# ---------------------------------------------------------

def test_composite_moduli_rejected():
    for bad in [0, 1, 4, 6, 9, 91, 2**10]:
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_prime_moduli_accepted():
    for p in AXIOM_PRIMES:
        assert PrimeField(p).p == p


def test_is_prime_small_range():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == known


def test_is_prime_matches_trial_division_below_1e5():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit, q)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to base 2; to 2, 3, 5, 7; to the primes up to 31;
    # and to the primes up to 37 (why the 13th base, 41, is needed)
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_large_primes():
    for p in (2**31 - 1, 2**61 - 1, 2**79 - 67):
        assert is_prime(p)
        assert PrimeField(p).p == p
    assert not is_prime((2**61 - 1) * (2**19 - 1))
    assert not is_prime(561)  # Carmichael


def test_is_prime_refuses_above_its_proven_bound():
    with pytest.raises(ValueError, match="cannot be certified"):
        is_prime(PRIMALITY_BOUND)
    with pytest.raises(ValueError):
        PrimeField(2**89 - 1)


def test_canonical_residues():
    f = PrimeField(7)
    assert f.scalar(10).value == 3
    assert f.scalar(-1).value == 6
    assert f.scalar(0).value == 0


# ---------------------------------------------------------
# Frozen operation examples
# ---------------------------------------------------------

def test_add_two_plus_two_mod_three():
    f = PrimeField(3)
    assert f.scalar(2) + f.scalar(2) == f.scalar(1)


def test_add_identity_and_char2():
    f = PrimeField(2)
    assert f.scalar(1) + f.scalar(1) == f.scalar(0)
    for p in AXIOM_PRIMES:
        fp = PrimeField(p)
        for a in fp.elements():
            assert a + fp.zero == a


def test_mul_examples():
    f3, f5 = PrimeField(3), PrimeField(5)
    assert f3.scalar(2) * f3.scalar(2) == 1  # brute force: 4 mod 3
    assert f5.scalar(3) * f5.scalar(4) == 2  # 12 mod 5
    for a in f5.elements():
        assert a * f5.one == a


def test_inv_examples_against_brute_force():
    # independent oracle: search for the inverse
    def brute_inv(p, a):
        return next(c for c in range(p) if (a * c) % p == 1)

    f3, f7 = PrimeField(3), PrimeField(7)
    assert f3.scalar(2).inv() == brute_inv(3, 2) == 2
    assert f7.scalar(3).inv() == brute_inv(7, 3) == 5
    assert f7.one.inv() == 1


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).zero.inv()


def test_neg_and_pow_examples():
    f = PrimeField(3)
    assert -f.scalar(1) == 2
    assert f.scalar(2) ** 2 == 1
    for p in [2, 5, 31]:
        fp = PrimeField(p)
        for a in fp.elements():
            assert a**0 == fp.one


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        PrimeField(3).scalar(2) ** -1


def test_modulus_mismatch_rejected():
    a = PrimeField(3).scalar(1)
    b = PrimeField(5).scalar(1)
    for op in (lambda: a + b, lambda: a * b, lambda: a - b):
        with pytest.raises(ValueError):
            op()


# ---------------------------------------------------------
# Field axioms (random triples per prime, exhaustive inverses)
# ---------------------------------------------------------

@pytest.mark.parametrize("p", AXIOM_PRIMES)
def test_field_axioms_random_triples(p):
    f = PrimeField(p)
    rng = random.Random(p * 1000 + 1)
    for _ in range(200):
        a, b, c = (f.random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a + f.zero == a
        assert a * f.one == a
        assert a + (-a) == f.zero
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p", AXIOM_PRIMES)
def test_inverses_exhaustive(p):
    f = PrimeField(p)
    for a in f.elements():
        if a.value:
            assert a.inv() * a == f.one


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_no_zero_divisors(p):
    f = PrimeField(p)
    for a in f.elements():
        for b in f.elements():
            if a * b == f.zero:
                assert a == f.zero or b == f.zero
