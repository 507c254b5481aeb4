"""Prime fields F_p = {0, 1, ..., p-1}.

An element of F_p is a plain int in canonical residue form, 0 <= v < p;
there is no scalar type.  ``PrimeField.scalar`` is the one rule for an
element arriving from outside (an int other than a bool, reduced mod p);
every container of the package applies it to the entries it is given
and keeps its results canonical, so equality of elements is int
equality.  Only prime moduli are accepted; the containers carry one
shared ``PrimeField`` per object and reject mixed-modulus operations.
"""

from __future__ import annotations

from itertools import islice, repeat


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


def _randbelow(rng, k: int, count: int) -> list[int]:
    """``count`` draws uniform in range(k) from the ``random.Random`` rng:
    the values of as many ``rng.randrange(k)`` calls, leaving rng in the
    same state, as ``randrange`` draws ``getrandbits(k.bit_length())`` and
    rejects values >= k (CPython 3.10-3.13), here in C-level iterators.
    Like ``randrange``, it raises ValueError for a draw below k < 1."""
    if k < 1 and count:
        raise ValueError(f"no integer in range({k}) to draw")
    return list(islice(filter(k.__gt__, map(rng.getrandbits, repeat(k.bit_length()))), count))


def _slot_reduction(top: int, p: int, slots: int, widths: tuple[int, ...] = ()):
    """(w, s, M, LOW) to reduce mod p every slot of a packed int at once.

    Slot j is bits [w*j, w*(j+1)) and must hold 0 <= v_j <= top: (p-1)^2 times
    max(n, 2) or max(n+1, N+1), plus 1, for an n-slot row of ``matrix`` or a
    step of ``sim``; (p-1)^2 times m or n, plus p, for ``poly``'s ring of
    degree m or the leading-block recurrence of ``char_poly``.  w is the
    smallest of ``widths`` that is at least the minimum width, else the minimum.
    v - p * (((v * M) >> s) & LOW) leaves v_j mod p in every slot (Granlund and
    Montgomery's division by an invariant integer).  Exact: with s the bit
    length of top*p and M = ceil(2^s / p), slot j's quotient is
    q_j = floor(v_j M / 2^s) = floor(v_j / p).  Write e = M p - 2^s, so
    0 <= e < p and v_j M / 2^s = v_j / p + v_j e / (p 2^s).  As v_j e < top p
    < 2^s, the second term is below 1/p, which cannot lift v_j / p past the
    next integer.  No carry crosses a slot: v_j M <= top M < 2^(w-1), so the
    products stay in their slots; after the shift by s, slot j holds q_j in
    its low w - s - 1 bits and slot j+1's remainder v_(j+1) M mod 2^s in its
    top s bits, which the mask LOW (the low w - s bits of every slot) clears;
    and v_j - p q_j >= 0 borrows nothing.
    """
    s = (top * p).bit_length()
    M = -(-(1 << s) // p)
    w = (top * M).bit_length() + 1
    w = next((width for width in widths if width >= w), w)
    LOW = ((1 << (w - s)) - 1) * (((1 << (w * slots)) - 1) // ((1 << w) - 1))
    return w, s, M, LOW


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

    def scalar(self, value: int) -> int:
        """The element ``value`` as its canonical residue, ``value % p``.

        This is the package's one rule for an element arriving from
        outside: any int except a bool is accepted and reduced, and
        anything else raises TypeError.
        """
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.p
        raise TypeError(f"field elements must be integers, got {type(value).__name__}")


class _Record:
    """Base of the package's records: plain classes whose fields are their
    ``_fields``, in constructor order, with value ``==`` and ``repr``
    over them.  ``_fields`` is the ``__slots__`` unless a class names its
    fields itself (one read through a property, say).  A record equals
    only records of its own class; a mutable one is unhashable.

    A class without an ``__init__`` of its own takes its ``__slots__`` by
    position, then by keyword; a field named in ``_defaults`` may be left
    out, or given as None, and is then made by its factory there
    (``dict``: a new dict per record)."""

    __slots__ = ()
    __hash__ = None
    _defaults: dict = {}

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __init__(self, *values, **named):
        names, defaults = self.__slots__, self._defaults
        if named or len(values) != len(names):
            rest = names[len(values):]
            if len(values) > len(names) or not set(rest) - set(defaults) <= set(named) <= set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
            values += tuple(map(named.get, rest))
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        if defaults:
            for name, factory in defaults.items():
                if getattr(self, name) is None:
                    object.__setattr__(self, name, factory())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle through __init__, past a frozen __setattr__
        return type(self), self._values()


class _FrozenRecord(_Record):
    """An immutable record, hashed by value.  Assigning or deleting a field
    raises AttributeError, so ``__init__`` sets them with
    ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
