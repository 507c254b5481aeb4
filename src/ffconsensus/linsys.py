"""Single-input linear systems (A, b) over F_p.

Provides the controllability analysis used by the consensus conditions:
the Krylov controllability matrix, a deterministic decomposition into a
controller-companion block plus an uncontrollable block, stabilizability
(the uncontrollable block must be nilpotent), deadbeat gain synthesis,
and the cycle/tree structure of the autonomous map x -> Ax.

The decomposition basis is built greedily: the Krylov chain
b, Ab, A^2 b, ... is kept while independent, then extended with the first
standard basis vectors that remain independent, so the transform Q is
reproducible run to run.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import lcm

from .field import PrimeField
from .matrix import MatrixFF, VectorFF
from .poly import PolyFF, factor, split_nilpotent_bijective, _order_mod_prime_power

DEFAULT_STATE_BOUND = 10**6
_PACK_SLICE = 4096


@dataclass(frozen=True)
class LinearSystemFF:
    """System pair x(k+1) = A x(k) + b u(k) with a single input column."""

    A: MatrixFF
    b: MatrixFF

    def __post_init__(self):
        if not self.A.is_square:
            raise ValueError("A must be square")
        if self.b.cols != 1 or self.b.rows != self.A.rows:
            raise ValueError("b must be a single column of matching dimension")
        if self.A.field != self.b.field:
            raise ValueError("A and b must share a modulus")

    @property
    def field(self) -> PrimeField:
        return self.A.field

    @property
    def dim(self) -> int:
        return self.A.rows


@dataclass(frozen=True)
class ControllabilityDecomposition:
    """Change of coordinates x^c = Q x exposing the controllable block.

    Q A Q^-1 = [[A_c, A_cc], [0, A_uc]] and Q b = [b_c; 0], where A_c is
    s x s in controller companion form (superdiagonal ones, bottom row
    ``companion_coeffs``) and b_c is the last standard basis vector.
    """

    Q: MatrixFF
    s: int
    A_c: MatrixFF
    A_cc: MatrixFF
    A_uc: MatrixFF
    b_c: MatrixFF
    companion_coeffs: tuple[int, ...]

    def assemble(self) -> MatrixFF:
        """The block matrix [[A_c, A_cc], [0, A_uc]]."""
        field = self.Q.field
        n = self.Q.rows
        s = self.s
        rows = []
        for i in range(s):
            rows.append(
                [self.A_c.entry_int(i, j) for j in range(s)]
                + [self.A_cc.entry_int(i, j) for j in range(n - s)]
            )
        for i in range(n - s):
            rows.append([0] * s + [self.A_uc.entry_int(i, j) for j in range(n - s)])
        return MatrixFF(field, rows) if rows else MatrixFF.zeros(field, 0, 0)


def controllability_matrix(sys: LinearSystemFF) -> MatrixFF:
    """The n x n Krylov matrix [b, Ab, ..., A^(n-1) b]."""
    n = sys.dim
    cols = [sys.b.col(0)]
    for _ in range(n - 1):
        cols.append(sys.A @ cols[-1])
    return MatrixFF(sys.field, [[cols[j].entries[i] for j in range(n)] for i in range(n)])


class _Echelon:
    """Incremental independence test over F_p (row echelon accumulator)."""

    def __init__(self, field: PrimeField, n: int):
        self.p = field.p
        self.n = n
        self.pivots: dict[int, list[int]] = {}

    def try_add(self, vec: list[int]) -> bool:
        v = [x % self.p for x in vec]
        for col, row in self.pivots.items():
            if v[col]:
                f = v[col]
                v = [(a - f * b) % self.p for a, b in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = pow(v[lead], self.p - 2, self.p)
        self.pivots[lead] = [(x * inv) % self.p for x in v]
        return True


def kalman_decompose(sys: LinearSystemFF) -> ControllabilityDecomposition:
    """Deterministic controllability decomposition of a single-input pair."""
    field = sys.field
    n = sys.dim

    # 1. independent Krylov vectors b, Ab, ... (stops at the first dependence)
    chain: list[VectorFF] = []
    ech = _Echelon(field, n)
    v = sys.b.col(0)
    while ech.try_add(list(v.entries)):
        chain.append(v)
        v = sys.A @ v
    s = len(chain)

    # 2. extend with standard basis vectors to a full basis V (columns)
    basis = list(chain)
    for i in range(n):
        if len(basis) == n:
            break
        e = VectorFF(field, [1 if j == i else 0 for j in range(n)])
        if ech.try_add(list(e.entries)):
            basis.append(e)
    V = MatrixFF(field, [[basis[j].entries[i] for j in range(n)] for i in range(n)])
    V_inv = V.inverse()
    A_V = (V_inv @ sys.A) @ V

    if s == 0:
        Q = V_inv
        return ControllabilityDecomposition(
            Q=Q,
            s=0,
            A_c=MatrixFF.zeros(field, 0, 0),
            A_cc=MatrixFF.zeros(field, 0, n),
            A_uc=A_V,
            b_c=MatrixFF.zeros(field, 0, 1),
            companion_coeffs=(),
        )

    # 3. controller companion form inside the controllable coordinates:
    #    with A1 the leading s x s block and b1 = e_1, take q = last row of
    #    ctrb(A1, b1)^-1 and stack q, qA1, ..., qA1^(s-1); this sends b1 to
    #    e_s and A1 to companion form with superdiagonal ones.
    A1 = MatrixFF(field, [[A_V.entry_int(i, j) for j in range(s)] for i in range(s)])
    b1 = MatrixFF.column(field, [1] + [0] * (s - 1))
    W1 = controllability_matrix(LinearSystemFF(A1, b1))
    q = W1.inverse().row(s - 1)
    t_rows = []
    row = q
    for _ in range(s):
        t_rows.append(list(row.entries))
        row = VectorFF(field, ((A1.transpose()) @ row).entries)
    T = MatrixFF(field, t_rows)

    # full transform: companion change on the controllable block only
    full_rows = []
    for i in range(s):
        full_rows.append(t_rows[i] + [0] * (n - s))
    for i in range(n - s):
        full_rows.append([0] * s + [1 if j == i else 0 for j in range(n - s)])
    Q = MatrixFF(field, full_rows) @ V_inv

    A_Q = (Q @ sys.A) @ Q.inverse()
    A_c = MatrixFF(field, [[A_Q.entry_int(i, j) for j in range(s)] for i in range(s)])
    A_cc = (
        MatrixFF(field, [[A_Q.entry_int(i, j) for j in range(s, n)] for i in range(s)])
        if n > s
        else MatrixFF.zeros(field, s, 0)
    )
    A_uc = (
        MatrixFF(field, [[A_Q.entry_int(i, j) for j in range(s, n)] for i in range(s, n)])
        if n > s
        else MatrixFF.zeros(field, 0, 0)
    )
    b_c = MatrixFF.column(field, [0] * (s - 1) + [1])
    coeffs = tuple(A_c.entry_int(s - 1, j) for j in range(s))
    return ControllabilityDecomposition(
        Q=Q, s=s, A_c=A_c, A_cc=A_cc, A_uc=A_uc, b_c=b_c, companion_coeffs=coeffs
    )


def is_stabilizable(sys: LinearSystemFF) -> bool:
    """True iff the uncontrollable block is nilpotent (vacuous when s = n)."""
    decomp = kalman_decompose(sys)
    return decomp.A_uc.is_nilpotent()


def deadbeat_gain(decomp: ControllabilityDecomposition, d) -> MatrixFF:
    """Gain K (1 x n) making A - d*b*K nilpotent, for nonzero d.

    On the companion coordinates the gain cancels the bottom row:
    k'_l = a_l * d^-1 for l = 1..s, zero on the uncontrollable
    coordinates; K is mapped back through Q.  Rejects d = 0 and systems
    whose uncontrollable block is not nilpotent.
    """
    field = decomp.Q.field
    d_s = field.scalar(d)
    if d_s.value == 0:
        raise ValueError("deadbeat gain requires a nonzero degree d")
    if not decomp.A_uc.is_nilpotent():
        raise ValueError("system is not stabilizable: uncontrollable block is not nilpotent")
    n = decomp.Q.rows
    d_inv = d_s.inv().value
    kc = [(a * d_inv) % field.p for a in decomp.companion_coeffs] + [0] * (n - decomp.s)
    return MatrixFF.row_vector(field, kc) @ decomp.Q


# ----------------------------------------------------------------------
# Cycle / tree structure of x -> Ax
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CycleStructure:
    """Decomposition of the autonomous dynamics into transients and cycles.

    ``cycles`` maps cycle length -> number of cycles of that length.
    ``tree_depth`` is the number of steps after which every state has
    entered a cycle.  Both modes are exact and return the same fields,
    except ``factor_orders``, which only polynomial mode fills.
    """

    method: str
    tree_depth: int
    cycles: dict[int, int]
    total_states: int
    transient_states: int
    factor_orders: tuple[tuple[PolyFF, int, int], ...] | None = None

    def cycle_lengths(self) -> list[int]:
        """Expanded sorted list of cycle lengths (one entry per cycle)."""
        out: list[int] = []
        for length in sorted(self.cycles):
            out.extend([length] * self.cycles[length])
        return out


def autonomous_cycle_structure(
    A: MatrixFF, mode: str = "enumeration", state_bound: int = DEFAULT_STATE_BOUND
) -> CycleStructure:
    """Cycle multiset and transient depth of the map x -> Ax on F_p^n.

    Enumeration mode evaluates A x for all p^n states and walks the
    functional graph; it requires p^n <= state_bound.  Polynomial mode
    derives the same structure from the factors of the characteristic
    polynomial and the kernel dimensions of their powers evaluated at A
    (see ``_cycles_by_polynomial``); its cost does not grow with p^n.
    """
    if not A.is_square:
        raise ValueError("cycle structure requires a square matrix")
    if mode == "enumeration":
        return _cycles_by_enumeration(A, state_bound)
    if mode == "polynomial":
        return _cycles_by_polynomial(A)
    raise ValueError(f"unknown mode {mode!r}")


def _successor_table(A: MatrixFF) -> list[int]:
    """succ[x] = A x for every state of F_p^n, packed base p.

    Coordinate j of a state is its digit j.  The table is built one output
    coordinate at a time: by linearity, the values of (A x)_i over the
    states of digits 0..j are p copies of its values over the states of
    digits 0..j-1, copy d shifted by a_ij * d.  Each coordinate is then
    folded into the packed successor Horner-style.
    """
    p = A.field.p
    n = A.rows
    total = p**n
    rows = A.to_rows()
    wrap = list(range(p)) * 2  # wrap[c : c + p][v] == (v + c) % p

    succ = [0]  # the single state when n = 0
    for i in range(n - 1, -1, -1):
        first, *rest = rows[i]
        vals = [first * d % p for d in range(p)]
        for a in rest:
            shifted = [wrap[c : c + p] for c in [a * d % p for d in range(p)]]
            vals = [t[v] for t in shifted for v in vals]
        if i == n - 1:
            succ = vals
            continue
        # fold in slices, so that no second full table of packed ints is
        # alive at once
        for lo in range(0, total, _PACK_SLICE):
            hi = lo + _PACK_SLICE
            succ[lo:hi] = [s * p + v for s, v in zip(succ[lo:hi], vals[lo:hi])]
    return succ


def _cycles_by_enumeration(A: MatrixFF, state_bound: int) -> CycleStructure:
    """Cycle structure from the successor table of all p^n states.

    Tree depth is the number of rounds needed to peel the states that
    have no predecessor left; the states that are never peeled lie on
    cycles and are walked once.
    """
    total = A.field.p ** A.rows
    if total > state_bound:
        raise ValueError(
            f"state space size {total} exceeds the enumeration bound {state_bound}"
        )
    succ = _successor_table(A)

    indeg = [0] * total
    for y in succ:
        indeg[y] += 1
    frontier = array("l", (x for x in range(total) if not indeg[x]))
    depth = 0
    transient = 0
    while frontier:
        depth += 1
        transient += len(frontier)
        peeled = array("l")
        for x in frontier:
            y = succ[x]
            indeg[y] -= 1
            if not indeg[y]:
                peeled.append(y)
        frontier = peeled

    # the states with predecessors left are exactly those on cycles
    cycles: dict[int, int] = {}
    for start in range(total):
        if indeg[start]:
            length = 0
            v = start
            while indeg[v]:
                indeg[v] = 0
                v = succ[v]
                length += 1
            cycles[length] = cycles.get(length, 0) + 1

    return CycleStructure(
        method="enumeration",
        tree_depth=depth,
        cycles=cycles,
        total_states=total,
        transient_states=transient,
    )


def _kernel_dims(g: PolyFF, A: MatrixFF, e: int) -> list[int]:
    """dim ker g(A)^k for k = 0..e, where g^e exactly divides charpoly(A).

    ker g(A)^e is the whole g-primary component, of dimension
    deg(g) * e, so only the powers below e are computed.
    """
    dims = [0]
    if e > 1:
        eye = MatrixFF.identity(A.field, A.rows)
        gA = MatrixFF.zeros(A.field, A.rows, A.rows)
        for c in reversed(g.coeffs):  # Horner
            gA = gA @ A + eye.scale(c)
        power = eye
        for _ in range(e - 1):
            power = power @ gA
            dims.append(A.rows - power.rank())
    return dims + [g.degree * e]


def _cycles_by_polynomial(A: MatrixFF) -> CycleStructure:
    """Exact cycle structure from the primary decomposition of F_p^n.

    Write the characteristic polynomial as x^s * prod g^e over monic
    irreducibles g with g(0) != 0.  The states on cycles form the
    bijective part, the direct sum of the primary components ker g(A)^e
    (dimension deg(g) * e each), and every other state is transient, so
    p^n - p^(n-s) states are transient.  The tree depth is the first k
    with rank A^k = rank A^(k+1), i.e. with nullity(A^k) = s.  Inside a
    primary component, a state whose annihilator is exactly g^k has
    period order(x mod g^k), and there are
    p^nullity(g(A)^k) - p^nullity(g(A)^(k-1)) such states; periods of a
    sum over components combine by lcm.  The nullities come from the
    matrix, not from the polynomial, so the count holds whether or not
    the minimal and characteristic polynomials agree (Elspas 1959).
    """
    p = A.field.p
    n = A.rows
    s, Q = split_nilpotent_bijective(A.char_poly())
    _, factors = factor(Q)

    # x reaches a cycle within k steps iff its component in ker A^s (the
    # x-primary part) lies in ker A^k: the depth is the first k with dim s
    depth = _kernel_dims(PolyFF.x(A.field), A, s).index(s)

    acc: dict[int, int] = {1: 1}
    table: list[tuple[PolyFF, int, int]] = []
    for g, e in factors:
        dims = _kernel_dims(g, A, e)
        local: dict[int, int] = {1: 1}  # the zero element
        for k in range(1, e + 1):
            count = p ** dims[k] - p ** dims[k - 1]
            if count:
                order = _order_mod_prime_power(g, k)
                local[order] = local.get(order, 0) + count
                if k == 1:
                    table.append((g, e, order))
        new: dict[int, int] = {}
        for l1, c1 in acc.items():
            for l2, c2 in local.items():
                key = lcm(l1, l2)
                new[key] = new.get(key, 0) + c1 * c2
        acc = new

    cycles: dict[int, int] = {}
    for length, count in acc.items():
        if count % length:
            raise AssertionError("period counting produced a non-integral cycle count")
        cycles[length] = count // length
    total = p**n
    transient = total - p ** (n - s)
    return CycleStructure(
        method="polynomial",
        tree_depth=depth,
        cycles=cycles,
        total_states=total,
        transient_states=transient,
        factor_orders=tuple(table),
    )
