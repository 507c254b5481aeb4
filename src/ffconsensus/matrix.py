"""Dense matrices and vectors over F_p.

Matrices and vectors are immutable tuples of canonical int residues.
Entries given from outside pass ``PrimeField.scalar`` (an int other
than a bool, reduced mod p); ``MatrixFF.from_flat`` reduces the raw
integer results of matrix arithmetic once, and takes entries that
``min``/``max`` show to be residues as they are; ``VectorFF.from_flat``
takes residues that are already canonical.
The characteristic polynomial comes from a reduction to Hessenberg form
by similarities on lists and the recurrence over its leading blocks on
packed polynomials (coefficient t in slot t), O(n^3) with field
division.  Nilpotency is decided from matrix powers, never from
eigenvalues: F_p is not algebraically closed.  Powers, a polynomial in
A, the rank and the inverse run on packed rows, one int per row reduced
mod p slot by slot in a few big-int operations (``field._slot_reduction``);
the rank and the inverse read one reduced row echelon form, ``_echelon``,
which ``linsys`` reads too.  Products and ``kron`` are plain list code for
the library and the dense error matrix (``consensus.error_dynamics_matrix``);
no command runs them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import mul

from .field import PrimeField, _slot_reduction
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
        """The matrix of the int entries ``flat``, row after row, reduced mod
        p entry by entry only when ``min``/``max`` find one outside 0..p-1."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        p = field.p
        m._e = tuple(flat) if flat and min(flat) >= 0 and max(flat) < p else tuple(v % p for v in flat)
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
            p = self.field.p
            return VectorFF.from_flat(self.field, [sum(map(mul, row, other.entries)) % p for row in self.to_rows()])
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch for matrix product")
        cols = [other._e[j :: other.cols] for j in range(other.cols)]
        return MatrixFF.from_flat(self.field, self.rows, other.cols,
                                  [sum(map(mul, row, col)) for row in self.to_rows() for col in cols])

    # -- elimination-based queries -------------------------------------

    def rank(self) -> int:
        w = _row_reduction(self.cols, self.field.p)[0]
        rows = [sum(a << (w * j) for j, a in enumerate(row)) for row in self.to_rows()]
        return len(_echelon(rows, self.field.p, self.cols)[0])

    def inverse(self) -> "MatrixFF":
        """The reduced echelon form of [M | I]: M is invertible iff the
        pivots are columns 0..n-1, and then the right half is M^-1."""
        if not self.is_square:
            raise ValueError("inverse requires a square matrix")
        n, p = self.rows, self.field.p
        w = _row_reduction(2 * n, p)[0]
        rows = [sum(a << (w * j) for j, a in enumerate(row)) + (1 << w * (n + i)) for i, row in enumerate(self.to_rows())]
        pivots, reduced = _echelon(rows, p, 2 * n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return MatrixFF.from_flat(self.field, n, n, [v >> (w * j) & (1 << w) - 1 for v in reduced for j in range(n, 2 * n)])

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
        # P_k packed, coefficient t in slot t: x P_(k-1) and k multiples of
        # some P_i by a residue sum to less than n (p-1)^2 + p a slot
        w, s, M, LOW = _slot_reduction(n * (p - 1) ** 2 + p, p, n + 1)
        P = [1]
        for k in range(1, n + 1):
            new = (P[-1] << w) + -H[k - 1][k - 1] % p * P[-1]
            prod = 1
            for i in range(k - 1, 0, -1):
                prod = prod * H[i][i - 1] % p
                if not prod:
                    break
                new += -H[i - 1][k - 1] * prod % p * P[i - 1]
            P.append(new - p * (((new * M) >> s) & LOW))
        mask = (1 << w) - 1
        return PolyFF.from_residues(self.field, [P[n] >> (w * t) & mask for t in range(n + 1)])

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


def _row_reduction(n: int, p: int):
    """``_slot_reduction`` for rows of n slots holding at most max(n, 2) (p-1)^2 + 1."""
    return _slot_reduction(max(n, 2) * (p - 1) ** 2 + 1, p, n)


def _packed_powers(rows: list[list[int]], p: int, coeffs: Sequence[int] = (0, 1)):
    """Yield B, B^2, B^3, ... without end, for B = g(A): A given by n x n
    residue rows, g by ascending ``coeffs`` (x by default, deg g < max(n, 2)).

    Row i of B^k is one int with entry j in slot j, and row i of B^(k+1) is
    sum_j b_ij (row j of B^k) over the nonzero b_ij, then reduced; B is
    sum_k c_k A^k over A's packed powers, at most (deg g + 1) (p-1)^2 a slot.
    """
    n = len(rows)
    w, s, M, LOW = _row_reduction(n, p)
    if tuple(coeffs) != (0, 1):
        acc = [coeffs[0] << (w * i) for i in range(n)]
        for c, power in zip(coeffs[1:], _packed_powers(rows, p)):
            acc = [x + c * y for x, y in zip(acc, power)]
        rows = [[v >> (w * j) & ((1 << w) - 1) for j in range(n)] for v in (v - p * (((v * M) >> s) & LOW) for v in acc)]
    # each row of B as its nonzero scalars and their columns
    terms = [([a for a in row if a], [j for j, a in enumerate(row) if a]) for row in rows]
    power = [sum(a << (w * j) for j, a in enumerate(row)) for row in rows]
    while True:
        yield power
        nxt = []
        for coeffs, cols in terms:
            v = sum(map(mul, coeffs, map(power.__getitem__, cols)))
            nxt.append(v - p * (((v * M) >> s) & LOW))
        power = nxt


def _echelon(rows: list[int], p: int, cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of rows of ``cols`` packed residues (entry j
    in slot j of ``_row_reduction(cols, p)``'s width): the pivot columns and
    the reduced pivot rows, in column order.  The form is unique, so the
    order in which rows become pivots does not change it.

    A row is reduced only when it becomes a pivot, at its lowest nonzero
    slot; it is scaled to a leading 1 (at most (p-1)^2 a slot), reduced
    again, and clears that slot of every other row, pivots included.  The
    pivots are reduced once more at the end.  From its last reduction on,
    slot j of a row takes at most (p-1)^2 from each pivot found before the
    one at column j (from each of the at most cols - 1 pivots if there is
    none), at most p-1 from that pivot (its slot j is 1) and nothing after
    it (later pivots are 0 there), so it holds at most 2(p-1) + (cols-1)
    (p-1)^2 = cols (p-1)^2 + 1 - (p-2)^2, within ``_row_reduction``'s top.
    """
    w, s, M, LOW = _row_reduction(cols, p)
    mask, pivots, rows = (1 << w) - 1, [], list(rows)
    while len(rows) > len(pivots):  # the pivots first, in the order they are found
        v = rows.pop()
        v -= p * (((v * M) >> s) & LOW)
        if v:
            at = ((v & -v).bit_length() - 1) // w * w
            v *= pow(v >> at & mask, -1, p)
            v -= p * (((v * M) >> s) & LOW)
            rows = [u + -(u >> at & mask) % p * v for u in rows]
            rows.insert(len(pivots), v)
            pivots.append(at // w)
    done = sorted(zip(pivots, rows))
    return [j for j, _ in done], [v - p * (((v * M) >> s) & LOW) for _, v in done]


def kron(a: MatrixFF, b: MatrixFF) -> MatrixFF:
    """Kronecker product: block (i, j) is a[i][j] * B."""
    if a.field != b.field:
        raise ValueError("modulus mismatch")
    return MatrixFF.from_flat(a.field, a.rows * b.rows, a.cols * b.cols,
                              [x * y for arow in a.to_rows() for brow in b.to_rows() for x in arow for y in brow])
