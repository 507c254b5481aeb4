import random

import pytest

from ffconsensus import (
    EdgeError,
    LinearSystemFF,
    MatrixFF,
    PolyFF,
    PrimeField,
    VectorFF,
    WeightedDigraphFF,
    deadbeat_gain,
    is_prime,
    kalman_decompose,
)
from ffconsensus.field import PRIMALITY_BOUND, _randbelow

from conftest import mat_power

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
    assert f.scalar(10) == 3
    assert f.scalar(-1) == 6
    assert f.scalar(0) == 0


# ---------------------------------------------------------
# The element rule: every constructor that takes field elements from
# outside accepts an int other than a bool and keeps it mod p
# ---------------------------------------------------------

F5 = PrimeField(5)


def _weight(v):
    try:
        return WeightedDigraphFF(F5, 1, [(0, 1, v)]).weight(0, 1)
    except EdgeError as exc:  # a weight of 0 mod p is no edge
        assert "weight 0" in str(exc)
        return 0


def _deadbeat_degree(v):
    # x -> x + u: the gain for degree d is K = [1/d], so d = 1/K
    dec = kalman_decompose(LinearSystemFF(MatrixFF(F5, [[1]]), MatrixFF(F5, [[1]])))
    try:
        k = deadbeat_gain(dec, v).entry_int(0, 0)
    except ValueError as exc:
        assert "nonzero degree" in str(exc)
        return 0
    return pow(k, F5.p - 2, F5.p)


ELEMENT_RULE = {
    "PrimeField.scalar": F5.scalar,
    "MatrixFF": lambda v: MatrixFF(F5, [[v]]).entry_int(0, 0),
    "MatrixFF.column": lambda v: MatrixFF.column(F5, [v]).entry_int(0, 0),
    "MatrixFF.row_vector": lambda v: MatrixFF.row_vector(F5, [v]).entry_int(0, 0),
    "MatrixFF.scale": lambda v: MatrixFF(F5, [[1]]).scale(v).entry_int(0, 0),
    "VectorFF": lambda v: VectorFF(F5, [v]).entries[0],
    "PolyFF": lambda v: PolyFF(F5, [v])[0],
    "WeightedDigraphFF.weight": _weight,
    "deadbeat_gain.d": _deadbeat_degree,
}


@pytest.mark.parametrize("make", ELEMENT_RULE.values(), ids=ELEMENT_RULE.keys())
def test_element_rule(make):
    for bad in (1.5, "2", True, None):
        with pytest.raises(TypeError):
            make(bad)
    for v in (-1, F5.p, 10**30 + 1):
        assert make(v) == v % F5.p


# ---------------------------------------------------------
# Frozen operation examples.  Elements are ints and their arithmetic
# is carried by the containers, so the examples and the axioms below
# run on 1 x 1 matrices: products go through matmul, inverses through
# the shared elimination routine.
# ---------------------------------------------------------

def e(field, v):
    return MatrixFF(field, [[v]])


def test_add_two_plus_two_mod_three():
    f = PrimeField(3)
    assert e(f, 2) + e(f, 2) == e(f, 1)


def test_add_identity_and_char2():
    f = PrimeField(2)
    assert e(f, 1) + e(f, 1) == e(f, 0)
    for p in AXIOM_PRIMES:
        fp = PrimeField(p)
        for a in range(p):
            assert e(fp, a) + e(fp, 0) == e(fp, a)


def test_mul_examples():
    f3, f5 = PrimeField(3), PrimeField(5)
    assert e(f3, 2) @ e(f3, 2) == e(f3, 1)  # brute force: 4 mod 3
    assert e(f5, 3) @ e(f5, 4) == e(f5, 2)  # 12 mod 5
    assert e(f5, 3).scale(4) == e(f5, 2)
    for a in range(5):
        assert e(f5, a) @ e(f5, 1) == e(f5, a)


def test_inv_examples_against_brute_force():
    # independent oracle: search for the inverse
    def brute_inv(p, a):
        return next(c for c in range(p) if (a * c) % p == 1)

    f3, f7 = PrimeField(3), PrimeField(7)
    assert e(f3, 2).inverse() == e(f3, brute_inv(3, 2)) == e(f3, 2)
    assert e(f7, 3).inverse() == e(f7, brute_inv(7, 3)) == e(f7, 5)
    assert e(f7, 1).inverse() == e(f7, 1)


def test_inv_zero_rejected():
    with pytest.raises(ValueError, match="singular"):
        e(PrimeField(5), 0).inverse()


def test_neg_and_pow_examples():
    f = PrimeField(3)
    assert e(f, 0) - e(f, 1) == e(f, 2)
    assert mat_power(e(f, 2), 2) == e(f, 1)
    for p in [2, 5, 31]:
        fp = PrimeField(p)
        for a in range(p):
            assert mat_power(e(fp, a), 0) == e(fp, 1)


def test_modulus_mismatch_rejected():
    a = e(PrimeField(3), 1)
    b = e(PrimeField(5), 1)
    for op in (lambda: a + b, lambda: a @ b, lambda: a - b):
        with pytest.raises(ValueError):
            op()


# ---------------------------------------------------------
# Field axioms (random triples per prime, exhaustive inverses)
# ---------------------------------------------------------

@pytest.mark.parametrize("p", AXIOM_PRIMES)
def test_field_axioms_random_triples(p):
    f = PrimeField(p)
    rng = random.Random(p * 1000 + 1)
    zero, one = e(f, 0), e(f, 1)
    for _ in range(200):
        a, b, c = (e(f, rng.randrange(p)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a @ b) @ c == a @ (b @ c)
        assert a + b == b + a
        assert a @ b == b @ a
        assert a + zero == a
        assert a @ one == a
        assert a + (zero - a) == zero
        assert a @ (b + c) == a @ b + a @ c


@pytest.mark.parametrize("p", AXIOM_PRIMES)
def test_inverses_exhaustive(p):
    f = PrimeField(p)
    for a in range(1, p):
        assert e(f, a).inverse() @ e(f, a) == e(f, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_no_zero_divisors(p):
    f = PrimeField(p)
    for a in range(p):
        for b in range(p):
            if (e(f, a) @ e(f, b)).is_zero():
                assert a == 0 or b == 0


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 101, 65537, 1000003, 2**64 + 13])
def test_randbelow_draws_what_randrange_draws(k):
    """``_randbelow`` gives the values of as many ``randrange(k)`` calls and
    leaves the generator in the same state, on every supported version of
    Python (the initial states of ``simulate`` and random switching rest on
    it), for counts that include 0."""
    for seed, count in ((0, 0), (1, 1), (2, 17), (3, 1000)):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _randbelow(ours, k, count) == [theirs.randrange(k) for _ in range(count)]
        assert ours.getstate() == theirs.getstate()


def test_randbelow_refuses_an_empty_range():
    # randrange(0) raises; an endless rejection loop would hang instead
    assert _randbelow(random.Random(0), 0, 0) == []
    with pytest.raises(ValueError, match="range"):
        _randbelow(random.Random(0), 0, 3)
