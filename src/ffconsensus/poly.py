"""Univariate polynomials over F_p.

Coefficients are stored ascending (constant term first) in canonical form:
no zero above the leading coefficient, the zero polynomial is the empty
tuple.  Beyond ring arithmetic this module provides the structural tools
used by the dynamics analysis: splitting off the power of x that carries
the transient part, irreducibility testing, full factorization, and the
multiplicative order of x modulo a polynomial (the cycle-length source).

Factorization and order computation use exhaustive trial division.  It
is exact, but factoring tries all p^d monic candidates of each degree d,
so its cost grows with p^d: small fields are fast (p <= 7 at degree <= 8
takes milliseconds), while at p = 1000003 ``cycles --poly`` on a 5 x 5
matrix does not finish within 30 s, although ``cycles`` suggests the
polynomial route whenever p^n passes 10^6 states.  Orders likewise
need p^deg below ~10^7.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Iterable, Iterator

from .field import PrimeField, Scalar


def _canonical(coeffs: Iterable[int], p: int) -> tuple[int, ...]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class PolyFF:
    """Polynomial over F_p with ascending canonical coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int] = ()):
        self.field = field
        vals = []
        for c in coeffs:
            if isinstance(c, Scalar):
                if c.field != field:
                    raise ValueError("coefficient from a different field")
                vals.append(c.value)
            else:
                vals.append(int(c))
        self.coeffs = _canonical(vals, field.p)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "PolyFF":
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "PolyFF":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: PrimeField) -> "PolyFF":
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field: PrimeField, degree: int, coeff: int = 1) -> "PolyFF":
        return cls(field, (0,) * degree + (coeff,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Scalar:
        if self.is_zero:
            return self.field.zero
        return Scalar(self.field, self.coeffs[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "PolyFF":
        if self.is_zero or self.is_monic:
            return self
        inv = pow(self.coeffs[-1], self.field.p - 2, self.field.p)
        return PolyFF(self.field, (c * inv for c in self.coeffs))

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- ring arithmetic ----------------------------------------------

    def _check(self, other: "PolyFF") -> None:
        if not isinstance(other, PolyFF):
            raise TypeError("expected a PolyFF")
        if other.field != self.field:
            raise ValueError("modulus mismatch between polynomials")

    def __add__(self, other: "PolyFF") -> "PolyFF":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyFF(self.field, (self[k] + other[k] for k in range(n)))

    def __sub__(self, other: "PolyFF") -> "PolyFF":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyFF(self.field, (self[k] - other[k] for k in range(n)))

    def __neg__(self) -> "PolyFF":
        return PolyFF(self.field, (-c for c in self.coeffs))

    def __mul__(self, other) -> "PolyFF":
        if isinstance(other, (int, Scalar)):
            c = other.value if isinstance(other, Scalar) else other
            return PolyFF(self.field, (c * v for v in self.coeffs))
        self._check(other)
        if self.is_zero or other.is_zero:
            return PolyFF.zero(self.field)
        p = self.field.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % p
        return PolyFF(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "PolyFF":
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = PolyFF.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "PolyFF") -> tuple["PolyFF", "PolyFF"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.field.p
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return PolyFF.zero(self.field), self
        quot = [0] * (dq + 1)
        inv_lead = pow(other.coeffs[-1], p - 2, p)
        d = other.degree
        for k in range(dq, -1, -1):
            c = (rem[k + d] * inv_lead) % p
            if c:
                quot[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = (rem[k + j] - c * b) % p
        return PolyFF(self.field, quot), PolyFF(self.field, rem)

    def __floordiv__(self, other: "PolyFF") -> "PolyFF":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyFF") -> "PolyFF":
        return divmod(self, other)[1]

    def divides(self, other: "PolyFF") -> bool:
        return (other % self).is_zero

    def gcd(self, other: "PolyFF") -> "PolyFF":
        """Monic greatest common divisor (gcd with 0 is the monic of self)."""
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def __call__(self, point) -> Scalar:
        return self.eval(point)

    def eval(self, point) -> Scalar:
        """Horner evaluation at a scalar point."""
        a = self.field.scalar(point if isinstance(point, int) else point.value)
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a.value + c) % p
        return Scalar(self.field, acc)

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

    def __str__(self) -> str:
        return self.format()

    def format(self, var: str = "λ") -> str:
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
                terms.append(f"{head}{var}" + (f"^{k}" if k > 1 else ""))
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
    return s, PolyFF(f.field, f.coeffs[s:])


def _monic_polys(field: PrimeField, degree: int) -> Iterator[PolyFF]:
    """All monic polynomials of the given degree, in a fixed order."""
    for tail in itertools.product(range(field.p), repeat=degree):
        yield PolyFF(field, tail + (1,))


def is_irreducible(f: PolyFF) -> bool:
    """Trial division against every monic divisor of degree <= deg(f)/2."""
    if f.degree < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    g = f.monic()
    if g.degree == 1:
        return True
    for d in range(1, g.degree // 2 + 1):
        for cand in _monic_polys(f.field, d):
            if (g % cand).is_zero:
                return False
    return True


def factor(f: PolyFF) -> tuple[Scalar, list[tuple[PolyFF, int]]]:
    """Factor f into (leading unit, [(monic irreducible, multiplicity)]).

    The product of the unit and all factor powers reconstructs f exactly.
    Factors are found by trial division in increasing degree, so the
    result order is deterministic.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.leading
    g = f.monic()
    factors: list[tuple[PolyFF, int]] = []
    while g.degree >= 1:
        h = _smallest_irreducible_divisor(g)
        mult = 0
        while (g % h).is_zero:
            g = g // h
            mult += 1
        factors.append((h, mult))
    return unit, factors


def _smallest_irreducible_divisor(g: PolyFF) -> PolyFF:
    # any divisor of minimal degree is automatically irreducible
    for d in range(1, g.degree // 2 + 1):
        for cand in _monic_polys(g.field, d):
            if (g % cand).is_zero:
                return cand
    return g  # no proper divisor: g itself is irreducible


def pow_x_mod(e: int, f: PolyFF) -> PolyFF:
    """x^e reduced modulo f, by square-and-multiply."""
    if f.degree < 1:
        raise ValueError("modulus polynomial must have degree >= 1")
    result = PolyFF.one(f.field)
    base = PolyFF.x(f.field) % f
    while e:
        if e & 1:
            result = (result * base) % f
        base = (base * base) % f
        e >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _order_mod_irreducible(g: PolyFF) -> int:
    """Order of x in the field F_p[x]/(g), g irreducible with g(0) != 0.

    The order divides p^m - 1; descend through that group order's prime
    factors until no factor can be removed.
    """
    p = g.field.p
    t = p**g.degree - 1
    one = PolyFF.one(g.field)
    for q in _prime_factors(t):
        while t % q == 0 and pow_x_mod(t // q, g) == one:
            t //= q
    return t


def _order_mod_prime_power(g: PolyFF, e: int) -> int:
    """Order of x modulo g^e for irreducible g; lift the base order by p."""
    t = _order_mod_irreducible(g)
    if e == 1:
        return t
    mod = g**e
    one = PolyFF.one(g.field)
    while pow_x_mod(t, mod) != one:
        t *= g.field.p
    return t


def order_of_x_mod(f: PolyFF) -> int:
    """Smallest t >= 1 with x^t = 1 modulo f; requires f(0) != 0.

    For irreducible f this is the divisor-descent computation on
    p^deg(f) - 1; otherwise the order is assembled as the lcm over the
    irreducible-power factors of f.
    """
    if f.degree < 1:
        raise ValueError("order is defined modulo polynomials of degree >= 1")
    if f.eval(0).value == 0:
        raise ValueError("x is not invertible modulo f when f(0) = 0")
    _, factors = factor(f)
    return lcm(*(_order_mod_prime_power(g, e) for g, e in factors))
