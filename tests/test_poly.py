import itertools
import random
from collections import Counter
from math import gcd, prod

import pytest

from ffconsensus import (
    PolyFF,
    PrimeField,
    factor,
    is_irreducible,
    is_prime,
    order_of_x_mod,
    split_nilpotent_bijective,
)
from ffconsensus import poly
from ffconsensus.field import PRIMALITY_BOUND
from ffconsensus.poly import _group_order_primes, _prime_factors, pow_x_mod

from conftest import (
    F2,
    F3,
    F5,
    M7,
    M7_MINUS_ONE,
    P7_PRIMES,
    list_add,
    list_divmod,
    list_gcd,
    list_monic,
    list_mul,
    list_sub,
    list_trim,
    naive_x_power_mod,
    pocklington_holds,
    reference_factor,
    reference_powmod,
)


def random_poly(rng, field, max_deg):
    deg = rng.randrange(max_deg + 1)
    return PolyFF(field, [rng.randrange(field.p) for _ in range(deg + 1)])


def product_of(field, *fs):
    """The product of the polynomials fs over field (1 for none), by the
    list reference's product."""
    out = [1]
    for f in fs:
        out = list_mul(out, f.coeffs, field.p)
    return PolyFF.from_residues(field, out)


def expand(field, unit, factors):
    """unit * prod g^e over the (g, e) of a factorization."""
    return product_of(field, PolyFF(field, [unit]), *(g for g, e in factors for _ in range(e)))


def monic_of(f):
    return PolyFF.from_residues(f.field, list_monic(f.coeffs, f.field.p))


# ---------------------------------------------------------
# Arithmetic core, division and evaluation
# ---------------------------------------------------------

def test_mul_by_one_and_hand_example():
    f = PolyFF(F3, [1, 2, 1])
    assert product_of(F3, f, PolyFF(F3, [1])) == f
    # (x + 1)(x + 2) = x^2 + 2 over F_3
    assert poly._mul((1, 1), (2, 1), 3) == [2, 0, 1]


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
            assert list_add(product_of(field, g, q).coeffs, r.coeffs, field.p) == list(f.coeffs)
            assert r.degree < g.degree


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divmod(PolyFF(F3, [1, 1]), PolyFF(F3))


def test_gcd_monic_and_zero_case():
    ring = poly._Ring(3, 3)
    assert ring.gcd(ring.pack([2, 2]), 0) == ring.pack([1, 1])  # 2x + 2 = 2(x + 1)
    a = ring.pack(poly._mul([1, 1], [2, 1], 3))
    b = ring.pack(poly._mul([1, 1], [1, 0, 1], 3))
    assert ring.gcd(a, b) == ring.gcd(b, a) == ring.pack([1, 1])


def test_eval_horner():
    f = PolyFF(F5, [1, 2, 3])  # 3x^2 + 2x + 1
    for v in range(5):
        assert f.eval(v) == (3 * v * v + 2 * v + 1) % 5


# ---------------------------------------------------------
# Nilpotent/bijective split
# ---------------------------------------------------------

def test_split_pure_power():
    for n in range(1, 5):
        s, q = split_nilpotent_bijective(PolyFF(F3, [0] * n + [1]))
        assert s == n and q == PolyFF(F3, [1])


def test_split_no_zero_root():
    f = PolyFF(F3, [2, 0, 1])
    s, q = split_nilpotent_bijective(f)
    assert s == 0 and q == f


def test_split_reference_char_poly():
    cp = PolyFF(F3, [0, 1, 2, 0, 1, 1])
    s, q = split_nilpotent_bijective(cp)
    assert s == 1
    assert q.degree == 4 and q.eval(0) != 0
    assert product_of(F3, *[PolyFF.x(F3)] * s, q) == cp


def test_split_rejects_zero():
    with pytest.raises(ValueError):
        split_nilpotent_bijective(PolyFF(F3))


def test_split_property_random():
    rng = random.Random(13)
    for field in (F2, F3, F5):
        for _ in range(60):
            f = random_poly(rng, field, 7)
            if f.is_zero:
                continue
            s, q = split_nilpotent_bijective(f)
            assert q.eval(0) != 0
            assert product_of(field, *[PolyFF.x(field)] * s, q) == f


# ---------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------

def _irreducible_by_frobenius(f: PolyFF) -> bool:
    """Independent oracle: f (monic, deg m) is irreducible iff
    x^(p^m) = x mod f and gcd(x^(p^(m/q)) - x, f) = 1 for prime q | m."""
    f = monic_of(f)
    p = f.field.p
    m = f.degree
    x = PolyFF.x(f.field)
    if pow_x_mod(p**m, f) != divmod(x, f)[1]:
        return False
    for q in {d for d in range(2, m + 1) if m % d == 0 and all(d % e for e in range(2, d))}:
        g = list_gcd(list_sub(pow_x_mod(p ** (m // q), f).coeffs, x.coeffs, p), f.coeffs, p)
        if len(g) != 1:
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
        is_irreducible(PolyFF(F3, [1]))


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
    for g, e in factors:
        assert is_irreducible(g) and g.leading == 1
    assert expand(F3, unit, factors) == f


def test_factor_hand_examples():
    unit, factors = factor(PolyFF(F2, [1, 0, 1]))  # x^2 + 1 = (x + 1)^2 over F_2
    assert unit == 1
    assert factors == [(PolyFF(F2, [1, 1]), 2)]

    g = PolyFF(F3, [1, 0, 1])  # irreducible
    unit, factors = factor(PolyFF(F3, [0, 0, 1, 0, 1]))  # x^2 (x^2 + 1)
    assert factors == [(PolyFF.x(F3), 2), (g, 1)]


def test_factor_roundtrip_random():
    rng = random.Random(19)
    for field in (F2, F3, F5):
        for _ in range(40):
            f = random_poly(rng, field, 8)
            if f.is_zero:
                continue
            unit, factors = factor(f)
            assert all(g.leading == 1 for g, _ in factors)
            assert expand(field, unit, factors) == f


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(PolyFF(F3))


def monic_polys(field, degree):
    """All monic polynomials of the given degree, ordered by their
    ascending coefficient tuples."""
    for tail in itertools.product(range(field.p), repeat=degree):
        yield PolyFF(field, tail + (1,))


def smallest_irreducible_divisor(g):
    # any divisor of minimal degree is automatically irreducible
    for d in range(1, g.degree // 2 + 1):
        for cand in monic_polys(g.field, d):
            if divmod(g, cand)[1].is_zero:
                return cand
    return g  # no proper divisor: g itself is irreducible


def trial_division_factor(f):
    """Independent oracle: strip the smallest irreducible divisor, found
    among all p^d monic candidates of increasing degree d."""
    unit, g, factors = f.leading, monic_of(f), []
    while g.degree >= 1:
        h = smallest_irreducible_divisor(g)
        mult = 0
        while (qr := divmod(g, h))[1].is_zero:
            g, mult = qr[0], mult + 1
        factors.append((h, mult))
    return unit, factors


def _random_factored(rng, field, max_deg):
    """A random unit times powers of random polynomials of degree <= 3."""
    f = PolyFF(field, [rng.randrange(1, field.p)])
    while True:
        g = random_poly(rng, field, 3)
        e = rng.randint(1, 3)
        if g.degree < 1 or f.degree + g.degree * e > max_deg:
            return f
        f = product_of(field, f, *[g] * e)


def test_factor_matches_trial_division_oracle():
    """Factors and their order, against trial division, at p <= 7 and
    degree <= 10: random, repeated-factor and p-th-power inputs."""
    rng = random.Random(41)
    seen = Counter()
    for field, count in ((F2, 300), (F3, 150), (F5, 80), (PrimeField(7), 60)):
        p = field.p
        for _ in range(count):
            kind = rng.choice(("random", "repeated", "pth_power"))
            if kind == "random":
                f = random_poly(rng, field, 10)
            elif kind == "repeated":
                f = _random_factored(rng, field, 10)
            else:
                f = product_of(field, *[_random_factored(rng, field, 10 // p)] * p, _random_factored(rng, field, 10 % p))
            if f.is_zero:
                continue
            unit, factors = trial_division_factor(f)
            assert factor(f) == (unit, factors)
            seen[kind] += 1
            mults = [e for _, e in factors]
            same_degree = Counter((g.degree, e) for g, e in factors)
            seen["repeated factor"] += any(e > 1 for e in mults)
            seen["multiplicity divisible by p"] += any(e % p == 0 for e in mults)
            seen["f' = 0"] += f.degree > 0 and all(k % p == 0 for k, c in enumerate(f.coeffs) if c)
            seen["equal-degree split"] += max(same_degree.values(), default=0) > 1
            seen["trace split (p = 2)"] += p == 2 and max(same_degree.values(), default=0) > 1
            seen["irreducible of degree >= 4"] += any(g.degree >= 4 for g, _ in factors)
    print(f"branches hit: {dict(seen)}")
    assert min(seen.values()) >= 10, seen


def certified_primes(t, p, d):
    """The primes of t, a divisor of p^k (p^d - 1): each prime of
    p^d - 1 is certified by is_prime, and together with p they divide t
    down to 1, so none is missing."""
    primes = [q for q in [p] + _group_order_primes(p, d) if t % q == 0]
    assert all(is_prime(q) for q in primes)
    rest = t
    for q in primes:
        while rest % q == 0:
            rest //= q
    assert rest == 1
    return primes


def test_factor_product_and_minimal_orders_at_larger_p():
    """At p in {101, 10007}: the factors rebuild f, are monic,
    irreducible (by the Frobenius oracle) and sorted, and the order t of x
    modulo each power g^e satisfies x^t = 1 and x^(t/q) != 1 for every
    prime q | t; at p = 101 and degree <= 2 it is also checked by
    stepping x^k until it returns to 1."""
    rng = random.Random(43)
    seen = Counter()
    for field in (PrimeField(101), PrimeField(10007)):
        one = PolyFF(field, [1])
        for _ in range(30):
            f = _random_factored(rng, field, 8) if rng.random() < 0.5 else random_poly(rng, field, 8)
            if f.degree < 1:
                continue
            unit, factors = factor(f)
            assert expand(field, unit, factors) == f
            assert [(g.degree, g.coeffs) for g, _ in factors] == sorted((g.degree, g.coeffs) for g, _ in factors)
            for g, e in factors:
                assert g.leading == 1 and _irreducible_by_frobenius(g)
                if g.eval(0) == 0:
                    continue
                mod = product_of(field, *[g] * e)
                t = order_of_x_mod(mod)
                assert pow_x_mod(t, mod) == one
                for q in certified_primes(t, field.p, g.degree):
                    assert pow_x_mod(t // q, mod) != one
                seen[f"p = {field.p}"] += 1
                seen["power e > 1"] += e > 1
                seen["degree >= 3"] += g.degree >= 3
                if field.p == 101 and mod.degree <= 2:
                    cur, steps = divmod(PolyFF.x(field), mod)[1], 1
                    while cur != one:  # cur * x is a shift of the coefficients
                        cur, steps = divmod(PolyFF(field, (0,) + cur.coeffs), mod)[1], steps + 1
                    assert steps == t
                    seen["stepped"] += 1
    print(f"branches hit: {dict(seen)}")
    assert min(seen.values()) >= 10, seen


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
    cur = divmod(PolyFF.x(F3), q)[1]
    seen = 1
    while cur != PolyFF(F3, [1]):  # cur * x is a shift of the coefficients
        cur = divmod(PolyFF(F3, (0,) + cur.coeffs), q)[1]
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
        assert pow_x_mod(t, f) == PolyFF(field, [1])
        for d in range(1, t):
            if t % d == 0:
                assert pow_x_mod(d, f) != PolyFF(field, [1])
        checked += 1


def trial_division_primes(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    return out + [n] if n > 1 else out


def _random_prime(rng, lo, hi):
    while True:
        q = rng.randrange(lo, hi)
        if is_prime(q):
            return q


def test_prime_factors_against_trial_division(monkeypatch):
    """Pollard-Brent factoring, against trial division on random n <
    10^12 and semiprimes, and against the known primes of larger
    semiprimes and prime squares."""
    rng = random.Random(47)
    seen = Counter()
    rho_calls = []
    real_rho = poly._rho
    monkeypatch.setattr(poly, "_rho", lambda n: rho_calls.append(n) or real_rho(n))

    def check(n, expected, kind):
        rho_calls.clear()
        assert _prime_factors(n) == expected
        seen[kind] += 1
        seen["rho split a composite"] += bool(rho_calls)

    for _ in range(40):
        n = rng.randrange(1, 10**12)
        check(n, trial_division_primes(n), "random n < 10^12")
    for _ in range(15):
        q1, q2 = _random_prime(rng, 53, 10**6), _random_prime(rng, 53, 10**6)
        check(q1 * q2, trial_division_primes(q1 * q2), "semiprime < 10^12")
    for _ in range(10):
        q1, q2 = _random_prime(rng, 10**8, 10**9), _random_prime(rng, 10**11, 10**12)
        m = rng.choice((1, 2, 3 * 97))
        check(q1 * q2 * m, sorted({q1, q2, *trial_division_primes(m)}), "large semiprime")
        q = _random_prime(rng, 10**8, 10**9)
        check(q * q, [q], "prime square")
    print(f"branches hit: {dict(seen)}")
    assert min(seen.values()) >= 10, seen


def test_pocklington_certifies_primes_above_the_bound():
    # the cofactor of Phi_7(1000003) above the bound, with base 2; 2^89 - 1
    # needs base 3 for every prime of m - 1 but 89, as 2 has order 89
    assert M7 > PRIMALITY_BOUND and pocklington_holds(M7, M7_MINUS_ONE, 2)
    assert prod(q**e for q, e in P7_PRIMES.items()) == 1000003**7 - 1
    assert _prime_factors(M7) == [M7] and _prime_factors(3 * M7) == [3, M7]
    assert _group_order_primes(1000003, 7) == sorted(P7_PRIMES)
    m89 = 2**89 - 1
    primes89 = {q: 1 for q in (2, 3, 5, 17, 23, 89, 353, 397, 683, 2113, 2931542417)}
    assert not pocklington_holds(m89, primes89, 2) and pocklington_holds(m89, primes89, 3)
    assert _prime_factors(m89) == [m89]
    assert _prime_factors(1000003 * M7) == [1000003, M7]
    # a Carmichael number above the bound passes base 2 but not the
    # criterion, and rho splits it: Chernick's (6k+1)(12k+1)(18k+1)
    k = 14000240
    chernick = [6 * k + 1, 12 * k + 1, 18 * k + 1]
    assert all(map(is_prime, chernick)) and prod(chernick) > PRIMALITY_BOUND
    assert pow(2, prod(chernick) - 1, prod(chernick)) == 1
    assert _prime_factors(prod(chernick)) == chernick


def test_prime_factors_fail_cleanly(monkeypatch):
    # without rho steps, the composite m - 1 of a prime above the bound
    # cannot be split, and the error says so
    monkeypatch.setattr(poly, "RHO_BUDGET", 0)
    with pytest.raises(ValueError, match="rho found no factor of the composite .* within 0 steps"):
        _prime_factors(2**89 - 1)
    with pytest.raises(ValueError, match="cannot factor the group order 1000003\\^7 - 1: Pollard-Brent rho"):
        _group_order_primes(1000003, 7)
    # with 2 the only base, no prime q of m - 1 is served for 2^89 - 1
    monkeypatch.setattr(poly, "RHO_BUDGET", 1 << 21)
    monkeypatch.setattr(poly, "_SMALL_PRIMES", (2,))
    with pytest.raises(ValueError, match=r"cannot certify the factor 618970019642690137449562111 as prime: "
                                         r"no base up to 2 proves it by Pocklington's criterion for the prime 2"):
        _prime_factors(2**89 - 1)


def test_group_order_primes_split_cyclotomically():
    # 65537^16 - 1 as one number leaves a composite that rho cannot split
    # within its budget; its cyclotomic factors Phi_k(65537), k | 16, can
    p, d = 65537, 16
    with pytest.raises(ValueError, match="rho found no factor"):
        _prime_factors(p**d - 1)
    primes = _group_order_primes(p, d)
    rest = p**d - 1
    for q in primes:
        assert rest % q == 0
        while rest % q == 0:
            rest //= q
    assert rest == 1


def test_packed_powmod_matches_schoolbook_references():
    """a^e mod f on packed ints (``_Ring.powmod``, one modulus per f)
    against schoolbook products with long division, and x^e against
    ``naive_x_power_mod``: monic and non-monic f of degree 1..20, e in
    {0, 1, 2, p, random up to 64 bits}, for x, a random a of degree up to
    2 deg f and the all-(p-1) a and f, whose unreduced slots are the
    largest."""
    rng = random.Random(2805)
    kinds = Counter()
    for p in (2, 3, 5, 7, 101, 65537, 1000003):
        for m in range(1, 21):
            ring = poly._Ring(p, m)
            for monic in (True, False) if p > 2 else (True,):
                lead = 1 if monic else rng.randrange(2, p)
                f = [rng.randrange(p) for _ in range(m)] + [lead]
                mods = {tuple(g): ring.modulus(ring.pack(g)) for g in (f, [p - 1] * m + [lead])}
                for e in (0, 1, 2, p, rng.getrandbits(rng.randint(3, 64))):
                    random_a = list_trim([rng.randrange(p) for _ in range(rng.randint(0, 2 * m + 1))])
                    for a, g in (([0, 1], f), (random_a, f), ([p - 1] * m, [p - 1] * m + [lead])):
                        base = ring.rem(ring.pack(a), ring.pack(g))
                        got = ring.unpack(ring.powmod(base, e, mods[tuple(g)]))
                        assert got == reference_powmod(a, e, g, p), (a, e, g, p)
                    if monic and m >= 2:
                        got = ring.unpack(ring.powmod(1 << ring.w, e, mods[tuple(f)]))
                        assert got + [0] * (m - len(got)) == naive_x_power_mod(e, f, p)
                        kinds["naive"] += 1
                    kinds["monic" if monic else "non-monic"] += 1
                    kinds["e=p" if e == p else f"e={e}" if e < 3 else "e random"] += 1
    assert kinds["naive"] >= 600 and kinds["non-monic"] >= 500, kinds
    assert min(kinds[k] for k in ("e=0", "e=1", "e=2", "e=p", "e random")) >= 220, kinds
    # the degree-0 modulus leaves nothing, as division by a unit does
    ring = poly._Ring(5, 0)
    mod = ring.modulus(2)
    base = ring.rem(ring.pack([1, 2]), 2)
    assert base == 0 and ring.powmod(base, 3, mod) == 0 and ring.powmod(base, 0, mod) == 0


def _random_list(rng, p, degree):
    """Ascending residues of the given degree (a nonzero leading one)."""
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)] if degree >= 0 else []


def test_packed_core_matches_list_references():
    """Division, gcd, monic, difference and product of the packed core
    against the list references of conftest, at p in {2, 3, 5, 7, 101,
    65537, 1000003} (slots wider than 64 bits at the last two) and degrees
    0-20; the division runs in the narrowest ring its divisor allows, and
    the gcds include pairs with a common factor."""
    rng = random.Random(3202)
    seen = Counter()
    for p in (2, 3, 5, 7, 101, 65537, 1000003):
        for _ in range(60):
            a = _random_list(rng, p, rng.randint(-1, 20))
            b = _random_list(rng, p, rng.randint(0, 20))
            ring = poly._Ring(p, len(b) - 1)
            q, r = ring.divmod(ring.pack(a), ring.pack(b))
            assert [ring.unpack(q), ring.unpack(r)] == list(list_divmod(a, b, p)), (a, b, p)
            assert ring.rem(ring.pack(a), ring.pack(b)) == r and ring.quo(ring.pack(a), ring.pack(b)) == q
            common = _random_list(rng, p, rng.randint(0, 6))
            u, v = list_mul(a, common, p), list_mul(b, common, p)
            ring = poly._Ring(p, max(len(u), len(v)))
            expected = list_gcd(u, v, p)
            assert ring.unpack(ring.gcd(ring.pack(u), ring.pack(v))) == expected, (u, v, p)
            assert ring.unpack(ring.monic(ring.pack(u))) == list_monic(u, p)
            assert ring.unpack(ring.sub(ring.pack(u), ring.pack(v))) == list_sub(u, v, p)
            assert poly._mul(a, b, p) == list_mul(a, b, p)
            seen[p] += 1
            seen["quotient of degree >= 10"] += len(a) - len(b) >= 10
            seen["constant divisor"] += len(b) == 1
            seen["gcd of degree >= 3"] += len(expected) > 3
    print(f"cases hit: {dict(seen)}")
    assert min(seen.values()) >= 10, seen


def test_factor_matches_list_reference():
    """``factor`` on packed ints against the list pipeline of conftest,
    exactly, at p in {2, 3, 5, 7, 101, 65537, 1000003} and degrees 0-20:
    random polynomials and products of powers of small ones."""
    rng = random.Random(3203)
    seen = Counter()
    for p, count in ((2, 40), (3, 40), (5, 30), (7, 30), (101, 20), (65537, 12), (1000003, 12)):
        field = PrimeField(p)
        for t in range(count):
            f = PolyFF(field, _random_list(rng, p, rng.randint(0, 20))) if t % 2 else _random_factored(rng, field, 20)
            if f.is_zero:
                continue
            unit, factors = factor(f)
            assert unit == f.leading
            assert [(list(g.coeffs), e) for g, e in factors] == reference_factor(f.coeffs, p), (f, p)
            seen[p] += 1
            seen["repeated factor"] += any(e > 1 for _, e in factors)
            seen["degree >= 15"] += f.degree >= 15
    print(f"cases hit: {dict(seen)}")
    assert min(seen.values()) >= 10, seen


def test_squarefree_fast_path_and_pth_root(monkeypatch):
    """gcd(f, f') = 1 returns f at once, with no division; f' = 0 takes the
    p-th root: x^4 + x^2 + 1 = (x^2 + x + 1)^2 over F_2, x^6 + x^3 + 1 =
    (x + 2)^6 and (x^3 + 1)(x^2 + 1) = (x^2 + 1)(x + 1)^3 over F_3."""
    quotients = []
    real_quo = poly._Ring.quo
    monkeypatch.setattr(poly._Ring, "quo", lambda self, a, b: quotients.append(b) or real_quo(self, a, b))

    def squarefree(p, coeffs):
        ring = poly._Ring(p, len(coeffs) - 1)
        return [(ring.unpack(g), m) for g, m in poly._squarefree(ring, ring.pack(coeffs))]

    for p, f in ((2, [1, 1, 0, 1]), (3, [1, 0, 1]), (101, [5, 0, 7, 3, 1]), (65537, [1, 2])):
        assert squarefree(p, f) == [(f, 1)] and quotients == []
    assert squarefree(3, [1]) == []
    assert squarefree(2, [1, 0, 1, 0, 1]) == [([1, 1, 1], 2)]
    assert squarefree(3, [1, 0, 0, 1, 0, 0, 1]) == [([2, 1], 6)]
    assert squarefree(3, list_mul([1, 0, 0, 1], [1, 0, 1], 3)) == [([1, 0, 1], 1), ([1, 1], 3)]
    assert quotients


def test_one_modulus_per_polynomial(monkeypatch):
    """Within a ``factor`` call every modulus used is built once, also when
    a distinct-degree block is all of f and goes on to the equal-degree
    split; an order descent builds one modulus for all its powers."""
    built, used = [], []
    real_modulus, real_mulmod = poly._Ring.modulus, poly._Ring.mulmod
    monkeypatch.setattr(poly._Ring, "modulus", lambda self, f: built.append(f) or real_modulus(self, f))
    monkeypatch.setattr(poly._Ring, "mulmod", lambda self, u, v, mod: used.append(mod[0]) or real_mulmod(self, u, v, mod))
    rng = random.Random(3204)
    seen = Counter()
    for p in (2, 3, 5, 101):
        field = PrimeField(p)
        for t in range(25):
            f = PolyFF(field, _random_list(rng, p, rng.randint(4, 16))) if t % 2 else _random_factored(rng, field, 16)
            built.clear(), used.clear()
            factor(f)
            assert len(built) == len(set(built)) and set(used) <= set(built), f
            seen["two or more moduli"] += len(built) >= 2
        # two irreducibles of degree d: the block of degree d is all of f
        d = 3 if p == 2 else 2
        g = product_of(field, *[PolyFF(field, c) for c in _two_irreducibles(field, d)])
        built.clear(), used.clear()
        assert [h.degree for h, _ in factor(g)[1]] == [d, d]
        assert len(built) == len(set(built)) == 1 and set(used) == set(built)
        for h, _ in factor(g)[1]:
            built.clear(), used.clear()
            poly._order_mod_irreducible(h)
            assert len(built) == 1 and set(used) <= set(built)
            seen["order descent"] += 1
    print(f"cases hit: {dict(seen)}")
    assert min(seen.values()) >= 4, seen


def _two_irreducibles(field, degree):
    """The first two monic irreducibles of degree 2 or 3 (those without a
    root), by coefficients."""
    return [list(g.coeffs) for g in itertools.islice(
        (g for g in monic_polys(field, degree) if all(map(g.eval, range(field.p)))), 2)]


def test_pow_x_mod_is_canonical_when_x_is_nilpotent():
    # x^k = 0 modulo c x^s once k >= s: the result is the zero polynomial
    for s in (1, 2, 3):
        f = PolyFF(F3, [0] * s + [2])
        for e in range(s, s + 4):
            r = pow_x_mod(e, f)
            assert r == PolyFF(F3) and r.is_zero and r.degree == -1
        assert pow_x_mod(0, f) == divmod(PolyFF(F3, [1]), f)[1]


def test_rho_budget_exhausted_raises(monkeypatch):
    q1, q2 = 1000003, 1000033
    assert _prime_factors(q1 * q2) == [q1, q2]
    monkeypatch.setattr(poly, "RHO_BUDGET", 0)
    with pytest.raises(ValueError, match=f"rho found no factor of the composite {q1 * q2} within 0 steps"):
        _prime_factors(q1 * q2)


def test_order_on_reducible_modulus():
    # f = (x+1)(x+2) over F_3: orders mod each factor are 1 and 2 -> lcm 2
    f = product_of(F3, PolyFF(F3, [1, 1]), PolyFF(F3, [2, 1]))
    t = order_of_x_mod(f)
    assert pow_x_mod(t, f) == PolyFF(F3, [1])
    for d in range(1, t):
        assert pow_x_mod(d, f) != PolyFF(F3, [1])


def test_order_mod_prime_power_matches_stepping():
    # ord(x mod g^k) = ord(x mod g) * p^j, p^j >= k minimal, against the
    # first t with x^t = 1 mod g^k found by stepping x^t
    rng = random.Random(157)
    seen = Counter()
    for p in (2, 3, 5):
        field = PrimeField(p)
        x = PolyFF.x(field)
        irreducibles = [
            g for d in (1, 2, 3) for g in (PolyFF(field, list(c) + [1]) for c in itertools.product(range(p), repeat=d))
            if g.eval(0) and is_irreducible(g)
        ]
        for g in rng.sample(irreducibles, min(8, len(irreducibles))):
            base = poly._order_mod_irreducible(g)
            for k in range(1, 6):
                mod = product_of(field, *[g] * k)
                t, power = 1, divmod(x, mod)[1]
                while power != PolyFF(field, [1]):  # power * x is a shift of the coefficients
                    t, power = t + 1, divmod(PolyFF(field, (0,) + power.coeffs), mod)[1]
                assert poly._lift_order(base, p, k) == order_of_x_mod(mod) == t, (g, k)
                seen[(p, "lifted" if t > base else "base")] += 1
    print(f"cases hit: {dict(seen)}")
    assert min(seen.values()) >= 4 and len(seen) == 6, seen


# ---------------------------------------------------------
# Display
# ---------------------------------------------------------

def test_format_strings():
    assert PolyFF(F3, [1, 2, 0, 1, 1]).format() == "λ^4+λ^3+2λ+1"
    assert PolyFF(F3, [2, 1, 0, 2, 1]).format() == "λ^4+2λ^3+λ+2"
    assert PolyFF(F3).format() == "0"
    assert PolyFF(F3).coefficient_list() == [0]
