"""Exact arithmetic in prime fields F_p = {0, 1, ..., p-1}.

Every value is kept in canonical residue form after each operation, so
equality of scalars is plain structural equality.  Only prime moduli are
accepted; the containers in the rest of the package carry one shared
``PrimeField`` per object and reject mixed-modulus operations.
"""

from __future__ import annotations

from typing import Iterator


# Miller-Rabin with the first 13 primes as bases is deterministic below
# this bound, the least composite that passes all of them (Sorenson and
# Webster, Math. Comp. 2017).  The first 12 bases alone are fooled by
# 318665857834031151167461.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < PRIMALITY_BOUND.

    Raises ValueError for larger n, where these bases prove nothing.
    """
    if n >= PRIMALITY_BOUND:
        raise ValueError(
            f"primality of {n} cannot be certified (the test is proven below "
            f"{PRIMALITY_BOUND})"
        )
    if n < 2:
        return False
    for q in MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no prime factor up to 41, so none at all
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p.  Instances compare equal iff they share p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise ValueError(f"modulus must be a prime integer, got {p!r}")
        self.p = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def scalar(self, value: int) -> "Scalar":
        """Canonical residue of ``value`` as an element of this field."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise ValueError("scalar belongs to a different field")
            return value
        return Scalar(self, value % self.p)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def elements(self) -> Iterator["Scalar"]:
        for v in range(self.p):
            yield Scalar(self, v)

    def random_scalar(self, rng) -> "Scalar":
        return Scalar(self, rng.randrange(self.p))


def _coerce(a: "Scalar", other) -> int:
    """Residue of ``other`` in a's field; rejects foreign-field scalars."""
    if isinstance(other, Scalar):
        if other.field != a.field:
            raise ValueError(
                f"modulus mismatch: F_{a.field.p} vs F_{other.field.p}"
            )
        return other.value
    if isinstance(other, int) and not isinstance(other, bool):
        return other % a.field.p
    return NotImplemented


class Scalar:
    """An element of F_p in canonical form (0 <= value < p)."""

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        self.field = field
        self.value = value % field.p

    def __add__(self, other) -> "Scalar":
        v = _coerce(self, other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, (self.value + v) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        v = _coerce(self, other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, (self.value - v) % self.field.p)

    def __rsub__(self, other) -> "Scalar":
        v = _coerce(self, other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, (v - self.value) % self.field.p)

    def __mul__(self, other) -> "Scalar":
        v = _coerce(self, other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, (self.value * v) % self.field.p)

    __rmul__ = __mul__

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, -self.value % self.field.p)

    def __pow__(self, e: int) -> "Scalar":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return Scalar(self.field, pow(self.value, e, self.field.p))

    def inv(self) -> "Scalar":
        """Multiplicative inverse via Fermat exponentiation; rejects zero."""
        if self.value == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return Scalar(self.field, pow(self.value, self.field.p - 2, self.field.p))

    def __truediv__(self, other) -> "Scalar":
        v = _coerce(self, other)
        if v is NotImplemented:
            return NotImplemented
        return self * Scalar(self.field, v).inv()

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.p})"
