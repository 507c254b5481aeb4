"""Univariate polynomials over F_p.

Coefficients are stored ascending (constant term first) in canonical form:
no zero above the leading coefficient, the zero polynomial is the empty
tuple.  Beside division and evaluation, this module provides the
structural tools used by the dynamics analysis: splitting off the power
of x that carries the transient part, irreducibility testing, full
factorization, and the multiplicative order of x modulo a polynomial
(the cycle-length source).

All arithmetic runs on one core over ascending lists of canonical
residues (``_mul``, ``_divmod``, ``_rem``, ``_mulmod``, ``_powmod``,
``_gcd``, ``_monic``); ``PolyFF.from_residues`` wraps its results
unchecked.  Factoring is square-free, distinct-degree, then equal-degree
splitting (Cantor and Zassenhaus, Math. Comp. 36, 1981) with a fixed-seed
``random.Random``; the factors are sorted, so the result never depends on
the draws.  Orders of x need the primes of p^d - 1, found by Pollard-Brent
rho (Brent, BIT 20, 1980) within ``RHO_BUDGET`` steps and certified by
``is_prime``, or above its bound by Pocklington's criterion; when either
fails, ValueError names the factor at fault.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from math import gcd, lcm, prod

from .field import PRIMALITY_BOUND, PrimeField, is_prime

# rho steps allowed per composite: about 1.1 s (Python 3.11 on a
# 2-core VM); rho takes ~1.2 sqrt(q) steps to find a prime factor q, so
# the budget covers factors up to ~10^12
RHO_BUDGET = 1 << 21
_RHO_BATCH = 128  # differences multiplied together between two gcds
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_FACTOR_SEED = 0x5EED


# ----------------------------------------------------------------------
# Core: ascending lists of canonical residues mod a prime p.  Inputs are
# sequences with a nonzero last entry (or empty); results are fresh lists
# in the same form, except that _monic and _gcd may return their input.
# ----------------------------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % p for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return _trim(out)


def _sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _add(a, [-y % p for y in b], p)


def _mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    # the leading product is nonzero mod a prime: no trim needed
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    nb = len(b)
    for i, x in enumerate(a):
        if x:
            out[i : i + nb] = [o + x * y for o, y in zip(out[i : i + nb], b)]
    return [c % p for c in out]


def _divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by the nonzero b."""
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    r = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = r[k + db] * inv % p
        if c:
            q[k] = c
            r[k : k + db] = [x - c * y for x, y in zip(r[k : k + db], b)]
    return q, _trim([x % p for x in r[:db]])


def _rem(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _divmod(a, b, p)[1]


def _mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    return _rem(_mul(a, b, p), f, p)


def _powmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    """a^e mod f, left-to-right binary."""
    a = _rem(a, f, p)
    if not e:
        return _rem([1], f, p)
    result = a
    for bit in bin(e)[3:]:
        result = _mulmod(result, result, f, p)
        if bit == "1":
            result = _mulmod(result, a, f, p)
    return result


def _monic(a: Sequence[int], p: int) -> Sequence[int]:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: Sequence[int], b: Sequence[int], p: int) -> Sequence[int]:
    """Monic gcd; the gcd with 0 is the monic of the other argument."""
    while b:
        a, b = b, _rem(a, b, p)
    return _monic(a, p)


class PolyFF:
    """Polynomial over F_p with ascending canonical coefficients; each
    given coefficient passes ``PrimeField.scalar``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int] = ()):
        self.field = field
        self.coeffs = tuple(_trim(list(map(field.scalar, coeffs))))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_residues(cls, field: PrimeField, coeffs: Iterable[int]) -> "PolyFF":
        """Wrap ascending canonical residues with a nonzero last entry as
        they are, without checking them (the results of arithmetic)."""
        f = object.__new__(cls)
        f.field = field
        f.coeffs = tuple(coeffs)
        return f

    @classmethod
    def x(cls, field: PrimeField) -> "PolyFF":
        return cls(field, (0, 1))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- division and evaluation --------------------------------------

    def __divmod__(self, other: "PolyFF") -> tuple["PolyFF", "PolyFF"]:
        if not isinstance(other, PolyFF):
            raise TypeError("expected a PolyFF")
        if other.field != self.field:
            raise ValueError("modulus mismatch between polynomials")
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q, r = _divmod(self.coeffs, other.coeffs, self.field.p)
        return PolyFF.from_residues(self.field, q), PolyFF.from_residues(self.field, r)

    def eval(self, point: int) -> int:
        """Horner evaluation at a field element."""
        a = self.field.scalar(point)
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % p
        return acc

    # -- comparisons / display ----------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyFF)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def coefficient_list(self) -> list[int]:
        """Ascending coefficients; [0] for the zero polynomial."""
        return list(self.coeffs) if self.coeffs else [0]

    def format(self) -> str:
        """Human-readable form such as ``λ^4+λ^3+2λ+1``."""
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}λ" + (f"^{k}" if k > 1 else ""))
        return "+".join(terms)

    def __repr__(self) -> str:
        return f"PolyFF(p={self.field.p}, {self.coefficient_list()})"


# ----------------------------------------------------------------------
# Structural operations
# ----------------------------------------------------------------------


def split_nilpotent_bijective(f: PolyFF) -> tuple[int, PolyFF]:
    """Write f = x^s * Q with Q(0) != 0; returns (s, Q).

    s is the multiplicity of the root 0; it separates the transient
    (nilpotent) part of a linear map's dynamics from the bijective part.
    """
    if f.is_zero:
        raise ValueError("cannot split the zero polynomial")
    s = 0
    while f.coeffs[s] == 0:
        s += 1
    return s, PolyFF.from_residues(f.field, f.coeffs[s:])


def is_irreducible(f: PolyFF) -> bool:
    """True iff f is irreducible: its factorization is f's monic, once."""
    if f.degree < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    _, factors = factor(f)
    return [(g.degree, e) for g, e in factors] == [(f.degree, 1)]


def factor(f: PolyFF) -> tuple[int, list[tuple[PolyFF, int]]]:
    """Factor f into (leading unit, [(monic irreducible, multiplicity)]).

    The product of the unit and all factor powers reconstructs f exactly.
    The factors are sorted by degree, then by their ascending
    coefficients, so the order does not depend on the random draws of
    the equal-degree split.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    p = f.field.p
    rng = random.Random(_FACTOR_SEED)
    found = [
        (g, m)
        for part, m in _squarefree(_monic(f.coeffs, p), p)
        for block, d in _distinct_degree(part, p)
        for g in _equal_degree(block, d, p, rng)
    ]
    found.sort(key=lambda gm: (len(gm[0]), tuple(gm[0])))
    return f.leading, [(PolyFF.from_residues(f.field, g), m) for g, m in found]


def _squarefree(f: Sequence[int], p: int) -> list[tuple[Sequence[int], int]]:
    """[(g, m)] with f = prod g^m for the monic f; the g are monic,
    square-free, pairwise coprime and of degree >= 1."""
    out = []
    c = _gcd(f, _trim([k * a % p for k, a in enumerate(f)][1:]), p)
    w = _divmod(f, c, p)[0]
    m = 1
    while len(w) > 1:  # w: the factors of multiplicity >= m and prime to p
        y = _gcd(w, c, p)
        g = _divmod(w, y, p)[0]
        if len(g) > 1:
            out.append((g, m))
        w, c, m = y, _divmod(c, y, p)[0], m + 1
    if len(c) > 1:  # c = h^p: every exponent of c is a multiple of p
        out += [(g, k * p) for g, k in _squarefree(c[::p], p)]
    return out


def _distinct_degree(f: Sequence[int], p: int) -> list[tuple[Sequence[int], int]]:
    """[(g, d)]: g is the product of the irreducible factors of degree d
    of the square-free monic f (x^(p^d) - x is the product of all monic
    irreducibles of degree dividing d)."""
    out = []
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: Sequence[int], d: int, p: int, rng: random.Random) -> list[Sequence[int]]:
    """The monic irreducible factors of f, a product of distinct monic
    irreducibles of degree d, by random splits: a^((p^d - 1)/2) - 1
    for odd p, the trace a + a^2 + ... + a^(2^(d-1)) for p = 2."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = _mulmod(t, t, f, p)
                b = _add(b, t, p)
        else:
            b = _sub(_powmod(a, (p**d - 1) // 2, f, p), [1], p)
        g = _gcd(f, b, p)
        if 1 < len(g) < len(f):
            h = _divmod(f, g, p)[0]
            return _equal_degree(g, d, p, rng) + _equal_degree(h, d, p, rng)


def pow_x_mod(e: int, f: PolyFF) -> PolyFF:
    """x^e reduced modulo f, by square-and-multiply."""
    if f.degree < 1:
        raise ValueError("modulus polynomial must have degree >= 1")
    return PolyFF.from_residues(f.field, _powmod((0, 1), e, f.coeffs, f.field.p))


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending: trial division by small
    primes, then Pollard-Brent rho; each certified by ``is_prime`` or ``_pocklington``."""
    out = set()
    for q in _SMALL_PRIMES:
        if n % q == 0:
            out.add(q)
            while n % q == 0:
                n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if (is_prime(m) if m < PRIMALITY_BOUND else pow(2, m - 1, m) == 1 and _pocklington(m)):
            out.add(m)
        else:
            d = _rho(m)
            stack += [d, m // d]
    return sorted(out)


def _pocklington(m: int) -> bool:
    """Whether m, odd and free of small primes, is prime, by Pocklington's
    criterion (Proc. Camb. Phil. Soc. 18, 1914) over the primes of m - 1
    (``_prime_factors``, recursively): True when each prime q of m - 1 has
    a base a in 2, 3, 5, ... with a^(m-1) = 1 mod m and
    gcd(a^((m-1)/q) - 1, m) = 1, False when some a^(m-1) != 1 mod m or
    such a gcd is a proper factor of m.  Proof: for a prime r | m and q^e
    exactly dividing m - 1, the order of a mod r divides m - 1 but not
    (m - 1)/q, so q^e divides it, and it divides r - 1: m - 1 | r - 1, so
    r = m.  Raises ValueError when no base serves some q.
    """
    for q in _prime_factors(m - 1):
        for a in _SMALL_PRIMES:
            x = pow(a, (m - 1) // q, m)
            g = gcd(x - 1, m)
            if pow(x, q, m) != 1 or 1 < g < m:
                return False
            if g == 1:
                break
        else:
            raise ValueError(
                f"cannot certify the factor {m} as prime: no base up to {a} proves it "
                f"by Pocklington's criterion for the prime {q} of m - 1"
            )
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Brent's cycle-finding
    variant of Pollard's rho, with differences batched between gcds."""
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # the round below takes at most 2r steps
            if steps > RHO_BUDGET:
                raise ValueError(
                    f"Pollard-Brent rho found no factor of the composite {n} "
                    f"within {RHO_BUDGET} steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch passed the collision: step back singly
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError("unreachable: some c splits a composite")


def _group_order_primes(p: int, d: int) -> list[int]:
    """The primes dividing p^d - 1, from its far smaller cyclotomic
    factors: p^d - 1 = prod over k | d of Phi_k(p).  Rho on p^d - 1 as a
    whole can meet a composite it cannot split within its budget
    (65537^16 - 1), which the Phi_k(p) split in milliseconds."""
    phi: dict[int, int] = {}
    try:
        for k in range(1, d + 1):
            if d % k == 0:
                phi[k] = (p**k - 1) // prod(v for j, v in phi.items() if k % j == 0)
        return sorted(set().union(*map(_prime_factors, phi.values())))
    except ValueError as exc:
        raise ValueError(f"cannot factor the group order {p}^{d} - 1: {exc}") from None


def _order_mod_irreducible(g: PolyFF) -> int:
    """Order of x in the field F_p[x]/(g), g irreducible with g(0) != 0.

    The order divides p^m - 1; descend through that group order's prime
    factors until no factor can be removed.
    """
    t = g.field.p**g.degree - 1
    for q in _group_order_primes(g.field.p, g.degree):
        while t % q == 0 and pow_x_mod(t // q, g).coeffs == (1,):
            t //= q
    return t


def _lift_order(base: int, p: int, e: int) -> int:
    """Order of x modulo g^e, from its order ``base`` modulo the
    irreducible g with g(0) != 0: base * p^j with j the least integer
    such that p^j >= e (Lidl and Niederreiter, *Finite Fields*, Thm 3.8)."""
    q = 1
    while q < e:
        q *= p
    return base * q


def order_of_x_mod(f: PolyFF) -> int:
    """Smallest t >= 1 with x^t = 1 modulo f; requires f(0) != 0.

    For irreducible f this is the divisor-descent computation on
    p^deg(f) - 1; otherwise the order is the lcm over the factors g^e of
    f of the order modulo g lifted to g^e in closed form.  Raises ValueError when a prime
    factor of some p^d - 1 cannot be found or certified (see
    ``_prime_factors``).
    """
    if f.degree < 1:
        raise ValueError("order is defined modulo polynomials of degree >= 1")
    if f.eval(0) == 0:
        raise ValueError("x is not invertible modulo f when f(0) = 0")
    _, factors = factor(f)
    return lcm(*(_lift_order(_order_mod_irreducible(g), f.field.p, e) for g, e in factors))
