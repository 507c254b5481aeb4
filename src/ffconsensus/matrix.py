"""Dense matrices and vectors over F_p.

Matrices and vectors are immutable tuples of canonical int residues.
Entries given from outside pass ``PrimeField.scalar`` (an int other
than a bool, reduced mod p); ``MatrixFF.from_flat`` reduces the raw
integer results of matrix arithmetic once, and ``VectorFF.from_flat``
takes residues that are already canonical.
Rank and inverse read one Gauss-Jordan elimination routine, ``_echelon``,
with exact field division (the pivot is always the first nonzero entry
in column order, so results are deterministic).  The characteristic
polynomial comes from a reduction to Hessenberg form by similarities and
the recurrence over its leading blocks, O(n^3) with field division.
Nilpotency is decided from matrix powers, never from eigenvalues: F_p is
not algebraically closed.  The powers are computed on packed rows, one
int per row, and each row is reduced mod p slot by slot in a few
big-int operations (``_slot_reduction``, shared with the simulator).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import mul

from .field import PrimeField
from .poly import PolyFF


class VectorFF:
    """Column vector over F_p: the value of ``MatrixFF.col`` and of a
    matrix-vector product."""

    __slots__ = ("field", "entries")

    def __init__(self, field: PrimeField, entries: Iterable[int]):
        self.field = field
        self.entries = tuple(map(field.scalar, entries))

    @classmethod
    def from_flat(cls, field: PrimeField, entries: Iterable[int]) -> "VectorFF":
        """Trusted constructor for entries that are already canonical
        residues: neither checks nor reduces them."""
        v = object.__new__(cls)
        v.field = field
        v.entries = tuple(entries)
        return v

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorFF)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.entries))

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
            flat.extend(map(field.scalar, r))
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
        vals = list(map(field.scalar, entries))
        return cls.from_flat(field, len(vals), 1, vals)

    @classmethod
    def row_vector(cls, field: PrimeField, entries: Iterable[int]) -> "MatrixFF":
        vals = list(map(field.scalar, entries))
        return cls.from_flat(field, 1, len(vals), vals)

    # -- access -----------------------------------------------------------

    def entry_int(self, i: int, j: int) -> int:
        return self._e[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self._e[i * c : (i + 1) * c]) for i in range(self.rows)]

    def col(self, j: int) -> VectorFF:
        return VectorFF.from_flat(self.field, self._e[j :: self.cols])

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

    def scale(self, c: int) -> "MatrixFF":
        cv = self.field.scalar(c)
        return MatrixFF.from_flat(self.field, self.rows, self.cols, [cv * a for a in self._e])

    def __matmul__(self, other):
        if isinstance(other, VectorFF):
            if other.field != self.field:
                raise ValueError("modulus mismatch")
            if other.dim != self.cols:
                raise ValueError("shape mismatch for matrix-vector product")
            e = self._e
            c = self.cols
            v = other.entries
            p = self.field.p
            return VectorFF.from_flat(
                self.field, (sum(e[i * c + k] * v[k] for k in range(c)) % p for i in range(self.rows))
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

    # -- elimination-based queries -------------------------------------

    def rank(self) -> int:
        return len(_echelon(self.to_rows(), self.field.p)[1])

    def inverse(self) -> "MatrixFF":
        """Gauss-Jordan elimination of [M | I]: M is invertible iff the
        pivots are columns 0..n-1, and then the right half is M^-1."""
        if not self.is_square:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.to_rows())]
        reduced, pivots = _echelon(aug, self.field.p)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return MatrixFF.from_flat(self.field, n, n, [x for row in reduced for x in row[n:]])

    # -- characteristic polynomial & nilpotency -------------------------

    def char_poly(self) -> PolyFF:
        """Characteristic polynomial det(xI - A), monic of degree n, in O(n^3).

        Similarities bring A to upper Hessenberg form H (swap rows and
        columns m and piv; row i -= u * row m, column m += u * column i),
        and the characteristic polynomials P_k of H's leading k x k blocks
        obey (1-based) P_k = (x - h_kk) P_(k-1)
        - sum_(i<k) h_ik h_(i+1,i) ... h_(k,k-1) P_(i-1).
        """
        if not self.is_square:
            raise ValueError("characteristic polynomial requires a square matrix")
        n = self.rows
        p = self.field.p
        H = self.to_rows()
        for m in range(1, n - 1):
            piv = next((i for i in range(m, n) if H[i][m - 1]), None)
            if piv is None:
                continue
            if piv != m:
                H[m], H[piv] = H[piv], H[m]
                for row in H:
                    row[m], row[piv] = row[piv], row[m]
            inv = pow(H[m][m - 1], p - 2, p)
            for i in range(m + 1, n):
                u = H[i][m - 1] * inv % p
                if u:
                    H[i] = [(a - u * b) % p for a, b in zip(H[i], H[m])]
                    for row in H:
                        row[m] = (row[m] + u * row[i]) % p
        P = [[1]]  # ascending coefficients of P_0, P_1, ...
        for k in range(1, n + 1):
            new = [0] + P[-1]
            c = H[k - 1][k - 1]
            for t, v in enumerate(P[-1]):
                new[t] -= c * v
            prod = 1
            for i in range(k - 1, 0, -1):
                prod = prod * H[i][i - 1] % p
                if not prod:
                    break
                coef = H[i - 1][k - 1] * prod
                for t, v in enumerate(P[i - 1]):
                    new[t] -= coef * v
            P.append([v % p for v in new])
        return PolyFF.from_residues(self.field, P[n])

    def is_nilpotent(self) -> bool:
        """A is nilpotent iff some power A^k with k <= n vanishes."""
        return self.nilpotent_degree() is not None

    def nilpotent_degree(self) -> int | None:
        """Smallest k <= n with A^k = 0, or None when A is not nilpotent.

        The degree of an empty (0x0) matrix is 0.
        """
        if not self.is_square:
            raise ValueError("nilpotency requires a square matrix")
        n = self.rows
        if n == 0:
            return 0
        for k, power in enumerate(_packed_powers(self.to_rows(), self.field.p), 1):
            if not any(power):
                return k
            if k == n:
                return None


def _slot_reduction(top: int, p: int, slots: int, widths: tuple[int, ...] = ()):
    """(w, s, M, LOW) to reduce mod p every slot of a packed int at once.

    Slot j is bits [w*j, w*(j+1)) and must hold 0 <= v_j < top (n (p-1)^2
    + 1 for a row of a matrix power, max(n+1, N+1) (p-1)^2 + 1 for a
    step of the simulator); w is the smallest of ``widths`` that is at
    least the minimum width, else the minimum.  v - p * (((v * M) >> s)
    & LOW) leaves v_j mod p in every slot (Granlund and Montgomery's
    division by an invariant integer).  Exact: with s the bit length of
    top*p and M = ceil(2^s / p), slot j's quotient is q_j = floor(v_j M
    / 2^s) = floor(v_j / p).  Write e = M p - 2^s, so 0 <= e < p and
    v_j M / 2^s = v_j / p + v_j e / (p 2^s).  As v_j e < top p < 2^s,
    the second term is below 1/p, which cannot lift v_j / p past the
    next integer.  No carry crosses a slot: v_j M < top M < 2^(w-1), so
    the products stay in their slots; after the shift by s, slot j holds
    q_j in its low w - s - 1 bits and slot j+1's remainder v_(j+1) M
    mod 2^s in its top s bits, which the mask LOW (the low w - s bits of
    every slot) clears; and v_j - p q_j >= 0 borrows nothing.
    """
    s = (top * p).bit_length()
    M = -(-(1 << s) // p)
    w = (top * M).bit_length() + 1
    w = next((width for width in widths if width >= w), w)
    LOW = sum(((1 << (w - s)) - 1) << (w * j) for j in range(slots))
    return w, s, M, LOW


def _packed_powers(rows: list[list[int]], p: int):
    """Yield A, A^2, A^3, ... for the n x n residue rows of A, without end.

    Row i of A^k is one int with entry j in slot j, and row i of A^(k+1)
    is sum_j a_ij (row j of A^k) over the nonzero a_ij, then reduced.
    """
    n = len(rows)
    w, s, M, LOW = _slot_reduction(n * (p - 1) ** 2 + 1, p, n)
    # each row of A as its nonzero scalars and their columns
    terms = [([a for a in row if a], [j for j, a in enumerate(row) if a]) for row in rows]
    power = [sum(a << (w * j) for j, a in enumerate(row)) for row in rows]
    while True:
        yield power
        nxt = []
        for coeffs, cols in terms:
            v = sum(map(mul, coeffs, map(power.__getitem__, cols)))
            nxt.append(v - p * (((v * M) >> s) & LOW))
        power = nxt


def _echelon(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination of integer rows of residues mod p.

    Returns (reduced rows, pivot columns).  Each column's pivot is the
    first nonzero entry at or below the current row, so the result is
    deterministic.  The list ``rows`` is reordered in place.
    """
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = pivot_row = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        pivots.append(col)
    return rows, pivots


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

