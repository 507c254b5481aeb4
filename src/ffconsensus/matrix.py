"""Dense matrices and vectors over F_p.

Matrices are immutable row-major tuples of canonical residues; every
operation returns a new value, reduced mod p once, in ``from_flat``.
Rank, inverse, and determinant read one Gauss-Jordan elimination routine,
``_echelon``, with exact field division (the pivot is always the first
nonzero entry in column order, so results are deterministic).  The
characteristic polynomial is computed with the Berkowitz algorithm, which
is division-free and therefore valid over any F_p regardless of how few
elements the field has.  Nilpotency is decided from matrix powers, never
from eigenvalues: F_p is not algebraically closed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import PrimeField, Scalar
from .poly import PolyFF


def _as_int(field: PrimeField, v) -> int:
    if isinstance(v, Scalar):
        if v.field != field:
            raise ValueError("entry from a different field")
        return v.value
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"matrix entries must be integers, got {type(v).__name__}")
    return v % field.p


class VectorFF:
    """Column vector over F_p."""

    __slots__ = ("field", "entries")

    def __init__(self, field: PrimeField, entries: Iterable[int]):
        self.field = field
        self.entries = tuple(_as_int(field, v) for v in entries)

    @classmethod
    def from_flat(cls, field: PrimeField, entries: Iterable[int]) -> "VectorFF":
        """Trusted constructor for integer entries: reduces each mod p once
        and skips the type checks of ``__init__``."""
        v = object.__new__(cls)
        v.field = field
        v.entries = tuple(x % field.p for x in entries)
        return v

    @property
    def dim(self) -> int:
        return len(self.entries)

    def _check(self, other: "VectorFF") -> None:
        if not isinstance(other, VectorFF):
            raise TypeError("expected a VectorFF")
        if other.field != self.field:
            raise ValueError("modulus mismatch")
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "VectorFF") -> "VectorFF":
        self._check(other)
        return VectorFF.from_flat(self.field, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "VectorFF") -> "VectorFF":
        self._check(other)
        return VectorFF.from_flat(self.field, (a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "VectorFF":
        cv = _as_int(self.field, c)
        return VectorFF.from_flat(self.field, (cv * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def as_column(self) -> "MatrixFF":
        return MatrixFF(self.field, [[a] for a in self.entries])

    def __getitem__(self, i: int) -> Scalar:
        return Scalar(self.field, self.entries[i])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorFF)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.entries))

    def to_ints(self) -> list[int]:
        return list(self.entries)

    def __repr__(self) -> str:
        return f"VectorFF(p={self.field.p}, {list(self.entries)})"


class MatrixFF:
    """Immutable rows x cols matrix over F_p (zero-dimension shapes allowed
    so block decompositions can carry empty controllable/uncontrollable
    parts)."""

    __slots__ = ("field", "rows", "cols", "_e")

    def __init__(self, field: PrimeField, rows: Sequence[Sequence[int]]):
        self.field = field
        self.rows = len(rows)
        self.cols = len(rows[0]) if self.rows else 0
        flat = []
        for r in rows:
            if len(r) != self.cols:
                raise ValueError("ragged rows")
            flat.extend(_as_int(field, v) for v in r)
        self._e = tuple(flat)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_flat(cls, field: PrimeField, rows: int, cols: int, flat: Sequence[int]) -> "MatrixFF":
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._e = tuple(v % field.p for v in flat)
        if len(m._e) != rows * cols:
            raise ValueError("entry count does not match shape")
        return m

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "MatrixFF":
        return cls.from_flat(field, n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "MatrixFF":
        return cls.from_flat(field, rows, cols, [0] * (rows * cols))

    @classmethod
    def column(cls, field: PrimeField, entries: Iterable[int]) -> "MatrixFF":
        vals = [_as_int(field, v) for v in entries]
        return cls.from_flat(field, len(vals), 1, vals)

    @classmethod
    def row_vector(cls, field: PrimeField, entries: Iterable[int]) -> "MatrixFF":
        vals = [_as_int(field, v) for v in entries]
        return cls.from_flat(field, 1, len(vals), vals)

    # -- access -----------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return Scalar(self.field, self._e[i * self.cols + j])

    def entry_int(self, i: int, j: int) -> int:
        return self._e[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self._e[i * c : (i + 1) * c]) for i in range(self.rows)]

    def col(self, j: int) -> VectorFF:
        return VectorFF.from_flat(self.field, self._e[j :: self.cols])

    def row(self, i: int) -> VectorFF:
        return VectorFF.from_flat(self.field, self._e[i * self.cols : (i + 1) * self.cols])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(v == 0 for v in self._e)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixFF)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.rows, self.cols, self._e))

    def __repr__(self) -> str:
        return f"MatrixFF(p={self.field.p}, {self.to_rows()})"

    # -- arithmetic ---------------------------------------------------------

    def _check_same_field(self, other: "MatrixFF") -> None:
        if not isinstance(other, MatrixFF):
            raise TypeError("expected a MatrixFF")
        if other.field != self.field:
            raise ValueError("modulus mismatch")

    def __add__(self, other: "MatrixFF") -> "MatrixFF":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch for addition")
        return MatrixFF.from_flat(
            self.field, self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)]
        )

    def __sub__(self, other: "MatrixFF") -> "MatrixFF":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch for subtraction")
        return MatrixFF.from_flat(
            self.field, self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)]
        )

    def __neg__(self) -> "MatrixFF":
        return MatrixFF.from_flat(self.field, self.rows, self.cols, [-a for a in self._e])

    def scale(self, c) -> "MatrixFF":
        cv = _as_int(self.field, c)
        return MatrixFF.from_flat(self.field, self.rows, self.cols, [cv * a for a in self._e])

    def __mul__(self, other) -> "MatrixFF":
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, VectorFF):
            if other.field != self.field:
                raise ValueError("modulus mismatch")
            if other.dim != self.cols:
                raise ValueError("shape mismatch for matrix-vector product")
            e = self._e
            c = self.cols
            v = other.entries
            return VectorFF.from_flat(
                self.field, (sum(e[i * c + k] * v[k] for k in range(c)) for i in range(self.rows))
            )
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch for matrix product")
        n, m, q = self.rows, self.cols, other.cols
        a, b = self._e, other._e
        out = [0] * (n * q)
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            orow = out
            base = i * q
            for k in range(m):
                aik = arow[k]
                if aik:
                    brow = b[k * q : (k + 1) * q]
                    for j in range(q):
                        orow[base + j] += aik * brow[j]
        return MatrixFF.from_flat(self.field, n, q, out)

    def __pow__(self, k: int) -> "MatrixFF":
        """Repeated squaring; the 0th power is the identity."""
        if not self.is_square:
            raise ValueError("matrix power requires a square matrix")
        if not isinstance(k, int) or k < 0:
            raise ValueError("matrix power requires a nonnegative integer exponent")
        result = MatrixFF.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def transpose(self) -> "MatrixFF":
        return MatrixFF.from_flat(
            self.field, self.cols, self.rows,
            [self._e[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    # -- elimination-based queries -------------------------------------

    def rank(self) -> int:
        return len(_echelon(self.to_rows(), self.field.p)[1])

    def determinant(self) -> Scalar:
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        _, pivots, det = _echelon(self.to_rows(), self.field.p)
        return Scalar(self.field, det if len(pivots) == self.rows else 0)

    def inverse(self) -> "MatrixFF":
        """Gauss-Jordan elimination of [M | I]: M is invertible iff the
        pivots are columns 0..n-1, and then the right half is M^-1."""
        if not self.is_square:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.to_rows())]
        reduced, pivots, _ = _echelon(aug, self.field.p)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return MatrixFF.from_flat(self.field, n, n, [x for row in reduced for x in row[n:]])

    # -- characteristic polynomial & nilpotency -------------------------

    def char_poly(self) -> PolyFF:
        """Characteristic polynomial det(xI - A), by the Berkowitz method.

        Division-free: only ring operations are used, so small p needs no
        special casing.  Returns a monic polynomial of degree n.
        """
        if not self.is_square:
            raise ValueError("characteristic polynomial requires a square matrix")
        n = self.rows
        p = self.field.p
        if n == 0:
            return PolyFF.one(self.field)
        M = self.to_rows()
        # descending coefficients, starting from the 1x1 principal minor
        poly = [1, -M[0][0] % p]
        for k in range(1, n):
            a = M[k][k]
            R = M[k][:k]
            C = [M[i][k] for i in range(k)]
            sub = [M[i][:k] for i in range(k)]
            # items: first column of the (k+2) x (k+1) Toeplitz transform
            items = [1, -a % p, (-sum(R[i] * C[i] for i in range(k))) % p]
            v = C
            for _ in range(k - 1):
                v = [sum(sub[i][j] * v[j] for j in range(k)) % p for i in range(k)]
                items.append((-sum(R[i] * v[i] for i in range(k))) % p)
            new = [0] * (k + 2)
            for j, pj in enumerate(poly):
                if pj:
                    for t in range(k + 2 - j):
                        new[j + t] = (new[j + t] + items[t] * pj) % p
            poly = new
        return PolyFF(self.field, reversed(poly))

    def is_nilpotent(self) -> bool:
        """A is nilpotent iff A^n vanishes (n the dimension)."""
        if not self.is_square:
            raise ValueError("nilpotency requires a square matrix")
        if self.rows == 0:
            return True
        return (self ** self.rows).is_zero()

    def nilpotent_degree(self) -> int | None:
        """Smallest k with A^k = 0, or None when A is not nilpotent.

        The degree of an empty (0x0) matrix is 0.
        """
        if not self.is_square:
            raise ValueError("nilpotency requires a square matrix")
        if self.rows == 0:
            return 0
        power = self
        for k in range(1, self.rows):
            if power.is_zero():
                return k
            power = power @ self
        return self.rows if power.is_zero() else None


def _echelon(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int], int]:
    """Gauss-Jordan elimination of integer rows of residues mod p.

    Returns (reduced rows, pivot columns, det).  Each column's pivot is
    the first nonzero entry at or below the current row, so the result is
    deterministic.  det is the product of the pivots and the swap sign:
    the determinant of a square matrix whenever its rank is full.  The
    list ``rows`` is reordered in place.
    """
    pivots: list[int] = []
    det = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        det = det * rows[r][col] % p
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = pivot_row = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        pivots.append(col)
    return rows, pivots, det % p


def kron(a: MatrixFF, b: MatrixFF) -> MatrixFF:
    """Kronecker product: block (i, j) is a[i][j] * B."""
    if a.field != b.field:
        raise ValueError("modulus mismatch")
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    flat = [0] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.entry_int(i, j)
            if not aij:
                continue
            for bi in range(b.rows):
                base = (i * b.rows + bi) * cols + j * b.cols
                for bj in range(b.cols):
                    flat[base + bj] = aij * b.entry_int(bi, bj)
    return MatrixFF.from_flat(a.field, rows, cols, flat)


def permute_similarity(a: MatrixFF, perm: Sequence[int]) -> MatrixFF:
    """Conjugate A by the permutation matrix of ``perm``.

    The result B satisfies B[i][j] = A[perm[i]][perm[j]], i.e. B = PAP^-1
    where P picks coordinate perm[i] into slot i.
    """
    if not a.is_square:
        raise ValueError("similarity transform requires a square matrix")
    n = a.rows
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return MatrixFF.from_flat(
        a.field, n, n,
        [a.entry_int(perm[i], perm[j]) for i in range(n) for j in range(n)],
    )
