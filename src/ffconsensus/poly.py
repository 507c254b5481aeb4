"""Univariate polynomials over F_p.

Coefficients are stored ascending (constant term first) in canonical form:
no zero above the leading coefficient, the zero polynomial is the empty
tuple.  Beside division and evaluation, this module provides the
structural tools used by the dynamics analysis: splitting off the power
of x that carries the transient part, irreducibility testing, full
factorization, and the multiplicative order of x modulo a polynomial
(the cycle-length source).

All arithmetic runs on one packed core, ``_Ring``: a polynomial is one
int with coefficient i in slot i (Kronecker substitution), every slot
reduced mod p at once by ``field._slot_reduction``.  A product is one
big-int multiply; division, gcd and monic cost a few big-int operations
per quotient term; products mod f reduce by f's Barrett quotient, built
once per f.  ``factor`` packs f once, at the slot width of its degree,
runs square-free, distinct-degree and equal-degree splitting (Cantor and
Zassenhaus, Math. Comp. 36, 1981, with a fixed-seed ``random.Random``)
on ints and unpacks only the factors, which are sorted, so the result
never depends on the draws; ``PolyFF.from_residues`` wraps them
unchecked.  The order of x modulo a factor raises x under one modulus.
It needs the primes of p^d - 1, found by Pollard-Brent rho (Brent, BIT
20, 1980) within ``RHO_BUDGET`` steps and certified by ``is_prime``, or
above its bound by Pocklington's criterion; when either fails,
ValueError names the factor at fault.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from math import gcd, lcm, prod

from .field import PRIMALITY_BOUND, PrimeField, _randbelow, _slot_reduction, is_prime

# rho steps allowed per composite: about 1.1 s (Python 3.11 on a
# 2-core VM); rho takes ~1.2 sqrt(q) steps to find a prime factor q, so
# the budget covers factors up to ~10^12
RHO_BUDGET = 1 << 21
_RHO_BATCH = 128  # differences multiplied together between two gcds
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_FACTOR_SEED = 0x5EED


# ----------------------------------------------------------------------
# Core: a polynomial is one int holding coefficient i in slot i, bits
# [w i, w (i+1)), each a canonical residue; 0 is the zero polynomial.
# Results are canonical; dividends and gcd arguments must be.
# ----------------------------------------------------------------------


class _Ring:
    """Packed polynomials over F_p whose divisors and moduli have degree at
    most m, at one slot width w.

    A slot may hold a residue plus m products of two residues, below
    top = m (p-1)^2 + p, before ``reduce`` (``field._slot_reduction``, over
    2m slots) takes every slot mod p in a few big-int operations.  Every
    step stays below it: a product of two polynomials of degree < m sums
    at most m products a slot, and so do the Barrett quotient and its
    product with f in ``mulmod``; long division by b adds c (-b_j) to a
    slot of the dividend once for each quotient term c whose shift of b's
    tail covers the slot, at most deg b times; a monic or a difference
    holds at most (p-1)^2 + p - 1, so m is at least 1.
    """

    __slots__ = ("p", "w", "mask", "_s", "_M", "_LOW")

    def __init__(self, p: int, m: int):
        m = max(m, 1)
        self.p = p
        self.w, self._s, self._M, self._LOW = _slot_reduction(m * (p - 1) ** 2 + p, p, 2 * m)
        self.mask = (1 << self.w) - 1

    def reduce(self, v: int) -> int:
        return v - self.p * (((v * self._M) >> self._s) & self._LOW)

    def pack(self, coeffs: Sequence[int]) -> int:
        w = self.w
        return sum(c << (w * i) for i, c in enumerate(coeffs))

    def unpack(self, v: int) -> list[int]:
        """Ascending coefficients, empty for 0."""
        w, mask = self.w, self.mask
        return [v >> (w * i) & mask for i in range(self.degree(v) + 1)]

    def degree(self, v: int) -> int:
        """Degree; -1 for 0."""
        return (v.bit_length() - 1) // self.w

    def monic(self, a: int) -> int:
        lead = a >> (self.w * max(self.degree(a), 0))
        return a if lead < 2 else self.reduce(a * pow(lead, -1, self.p))

    def sub(self, a: int, b: int) -> int:
        return self.reduce(a + (self.p - 1) * b)

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """(quotient, remainder) of a by the nonzero b, one quotient term c
        at a time, read off the slot that b's top would cancel; c (-tail
        of b), shifted, is added unreduced and the read slots are left as
        they are, so one mask and one reduction end it."""
        w, p, mask, M, s, LOW = self.w, self.p, self.mask, self._M, self._s, self._LOW
        top = (b.bit_length() - 1) // w * w
        lead = b >> top
        inv = pow(lead, -1, p)
        neg = (b ^ (lead << top)) * (p - 1)
        neg -= p * (((neg * M) >> s) & LOW)
        q = 0
        for k in range((a.bit_length() - 1) // w * w - top, -1, -w):
            c = (a >> (top + k) & mask) * inv % p
            if c:
                a += c * neg << k
                q |= c << k
        a &= (1 << top) - 1
        return q, a - p * (((a * M) >> s) & LOW)

    def quo(self, a: int, b: int) -> int:
        return self.divmod(a, b)[0]

    def rem(self, a: int, b: int) -> int:
        return self.divmod(a, b)[1]

    def gcd(self, a: int, b: int) -> int:
        """Monic gcd; the gcd with 0 is the monic of the other argument."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a)

    def modulus(self, f: int) -> tuple:
        """f's Barrett modulus for products mod f of degree m >= 0, as
        (f, w m, w k, the mask of the slots below m, mu, -f below x^m) with
        k = max(m - 2, 0) and mu = floor(x^(m+k) / f).

        For c of degree <= m + k, write c = c1 x^m + c0 with deg c0 < m.
        The polynomial part of a quotient of Laurent series in 1/x is
        linear, and c0 / f and c1 (x^(m+k) - mu f) / (f x^k) have negative
        degree, so floor(c / f) = floor(c1 x^m / f) = floor(c1 mu / x^k)
        exactly, and c mod f = c0 - floor(c1 mu / x^k) f below x^m."""
        w, m = self.w, self.degree(f)
        cut, shift = w * m, w * max(m - 2, 0)
        low = (1 << cut) - 1
        return (f, cut, shift, low, self.quo(1 << (cut + shift), f), self.reduce((f & low) * (self.p - 1)))

    def mulmod(self, u: int, v: int, mod: tuple) -> int:
        """u v mod f for u, v of degree < m = deg f, by f's Barrett modulus:
        three products, each reduced."""
        p, M, s, LOW = self.p, self._M, self._s, self._LOW
        _, cut, shift, low, mu, neg = mod
        v *= u
        v -= p * (((v * M) >> s) & LOW)
        q = (v >> cut) * mu
        q -= p * (((q * M) >> s) & LOW)
        v = (v & low) + ((q >> shift) * neg & low)
        return v - p * (((v * M) >> s) & LOW)

    def powmod(self, a: int, e: int, mod: tuple) -> int:
        """a^e mod f for a of degree < m, by left-to-right binary."""
        if not e:
            return self.rem(1, mod[0])
        result = a
        for bit in bin(e)[3:]:
            result = self.mulmod(result, result, mod)
            if bit == "1":
                result = self.mulmod(result, a, mod)
        return result


def _mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """The product of two ascending lists of residues, packed."""
    ring = _Ring(p, max(len(a), len(b)))
    return ring.unpack(ring.reduce(ring.pack(a) * ring.pack(b)))


class PolyFF:
    """Polynomial over F_p with ascending canonical coefficients; each
    given coefficient passes ``PrimeField.scalar``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int] = ()):
        self.field = field
        coeffs = list(map(field.scalar, coeffs))
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

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
        ring = _Ring(self.field.p, other.degree)
        q, r = ring.divmod(ring.pack(self.coeffs), ring.pack(other.coeffs))
        return PolyFF.from_residues(self.field, ring.unpack(q)), PolyFF.from_residues(self.field, ring.unpack(r))

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
    the equal-degree split.  f is packed once, at the slot width of its
    degree, and only the factors are unpacked.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    ring = _Ring(f.field.p, f.degree)
    rng = random.Random(_FACTOR_SEED)
    found = [
        (ring.unpack(g), m)
        for part, m in _squarefree(ring, ring.monic(ring.pack(f.coeffs)))
        for block, d, mod in _distinct_degree(ring, part)
        for g in _equal_degree(ring, block, d, rng, mod)
    ]
    found.sort(key=lambda gm: (len(gm[0]), gm[0]))
    return f.leading, [(PolyFF.from_residues(f.field, g), m) for g, m in found]


def _squarefree(ring: _Ring, f: int) -> list[tuple[int, int]]:
    """[(g, m)] with f = prod g^m for the monic f; the g are monic,
    square-free, pairwise coprime and of degree >= 1."""
    p = ring.p
    c = ring.gcd(f, ring.pack([k * a % p for k, a in enumerate(ring.unpack(f))][1:]))
    if c == 1:  # f is square-free
        return [(f, 1)] if f != 1 else []
    out, w, m = [], ring.quo(f, c), 1
    while w != 1:  # w: the factors of multiplicity >= m and prime to p
        y = ring.gcd(w, c)
        g = ring.quo(w, y)
        if g != 1:
            out.append((g, m))
        w, c, m = y, ring.quo(c, y), m + 1
    if c != 1:  # c = h^p: every exponent of c is a multiple of p
        out += [(g, k * p) for g, k in _squarefree(ring, ring.pack(ring.unpack(c)[::p]))]
    return out


def _distinct_degree(ring: _Ring, f: int) -> list[tuple[int, int, tuple | None]]:
    """[(g, d, modulus of g or None)]: g is the product of the irreducible
    factors of degree d of the square-free monic f (x^(p^d) - x is the
    product of all monic irreducibles of degree dividing d).  Each f has
    one modulus, passed on with g when g is all of f."""
    x = 1 << ring.w
    out, h, d, mod = [], x, 0, None
    while ring.degree(f) >= 2 * (d + 1):
        d += 1
        mod = mod or ring.modulus(f)
        h = ring.powmod(h, ring.p, mod)
        g = ring.gcd(f, ring.sub(h, x))
        if g != 1:
            f = ring.quo(f, g)
            out.append((g, d, mod if f == 1 else None))
            h, mod = ring.rem(h, f), None
    if f != 1:
        out.append((f, ring.degree(f), None))
    return out


def _equal_degree(ring: _Ring, f: int, d: int, rng: random.Random, mod: tuple | None = None) -> list[int]:
    """The monic irreducible factors of f, a product of distinct monic
    irreducibles of degree d, by random splits: a^((p^d - 1)/2) - 1
    for odd p, the trace a + a^2 + ... + a^(2^(d-1)) for p = 2.  ``mod``
    is f's modulus, built here when None."""
    n, p = ring.degree(f), ring.p
    if n == d:
        return [f]
    if mod is None and (p > 2 or d > 1):  # a trace of degree 1 is a itself
        mod = ring.modulus(f)
    while True:
        a = ring.pack(_randbelow(rng, p, n))
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = ring.mulmod(t, t, mod)
                b ^= t  # slots of 0s and 1s: the sum mod 2
        else:
            b = ring.sub(ring.powmod(a, (p**d - 1) // 2, mod), 1)
        g = ring.gcd(f, b)
        if 0 < ring.degree(g) < n:
            return _equal_degree(ring, g, d, rng) + _equal_degree(ring, ring.quo(f, g), d, rng)


def _powers_of_x(f: PolyFF) -> tuple[_Ring, tuple, int]:
    """(ring, modulus, x mod f) for powers of x modulo f, deg f >= 1."""
    ring = _Ring(f.field.p, f.degree)
    mod = ring.modulus(ring.pack(f.coeffs))
    return ring, mod, ring.rem(1 << ring.w, mod[0])


def pow_x_mod(e: int, f: PolyFF) -> PolyFF:
    """x^e reduced modulo f, by square-and-multiply."""
    if f.degree < 1:
        raise ValueError("modulus polynomial must have degree >= 1")
    ring, mod, x = _powers_of_x(f)
    return PolyFF.from_residues(f.field, ring.unpack(ring.powmod(x, e, mod)))


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
    ring, mod, x = _powers_of_x(g)
    t = g.field.p**g.degree - 1
    for q in _group_order_primes(g.field.p, g.degree):
        while t % q == 0 and ring.powmod(x, t // q, mod) == 1:
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
