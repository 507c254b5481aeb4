"""Single-input linear systems (A, b) over F_p.

Provides the controllability analysis used by the consensus conditions:
the Krylov controllability matrix, a deterministic decomposition into a
controller-companion block plus an uncontrollable block, stabilizability
(the uncontrollable block must be nilpotent), deadbeat gain synthesis,
and the cycle/tree structure of the autonomous map x -> Ax, counted from
the factors of the characteristic polynomial.

The decomposition basis is the pivot columns of [ctrb(A, b) | I]: the
Krylov chain b, Ab, A^2 b, ... while independent, then the first
standard basis vectors that remain independent, so the transform Q is
reproducible run to run.  One Gauss-Jordan elimination of that matrix
yields the basis and its inverse, and the companion block is read off
the first Krylov dependence (see ``kalman_decompose``).
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .field import PrimeField, _FrozenRecord
from .matrix import MatrixFF, _echelon
from .poly import PolyFF, factor, split_nilpotent_bijective, _lift_order, _order_mod_irreducible


class LinearSystemFF(_FrozenRecord):
    """System pair x(k+1) = A x(k) + b u(k) with a single input column."""

    __slots__ = ("A", "b")

    def __init__(self, A: MatrixFF, b: MatrixFF):
        if not A.is_square:
            raise ValueError("A must be square")
        if b.cols != 1 or b.rows != A.rows:
            raise ValueError("b must be a single column of matching dimension")
        if A.field != b.field:
            raise ValueError("A and b must share a modulus")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def field(self) -> PrimeField:
        return self.A.field

    @property
    def dim(self) -> int:
        return self.A.rows


class ControllabilityDecomposition(_FrozenRecord):
    """Change of coordinates x^c = Q x exposing the controllable block.

    Q A Q^-1 = [[A_c, A_cc], [0, A_uc]] and Q b = [b_c; 0], where A_c is
    s x s in controller companion form (superdiagonal ones, bottom row
    ``companion_coeffs``) and b_c is the last standard basis vector.
    """

    __slots__ = ("Q", "s", "A_c", "A_cc", "A_uc", "b_c", "companion_coeffs")

    def __init__(self, Q: MatrixFF, s: int, A_c: MatrixFF, A_cc: MatrixFF, A_uc: MatrixFF,
                 b_c: MatrixFF, companion_coeffs: tuple[int, ...]):
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "A_c", A_c)
        object.__setattr__(self, "A_cc", A_cc)
        object.__setattr__(self, "A_uc", A_uc)
        object.__setattr__(self, "b_c", b_c)
        object.__setattr__(self, "companion_coeffs", companion_coeffs)


def controllability_matrix(sys: LinearSystemFF) -> MatrixFF:
    """The n x n Krylov matrix [b, Ab, ..., A^(n-1) b]."""
    n = sys.dim
    cols = [sys.b.col(0)]
    for _ in range(n - 1):
        cols.append(sys.A @ cols[-1])
    return MatrixFF.from_flat(sys.field, n, n, [cols[j].entries[i] for i in range(n) for j in range(n)])


def kalman_decompose(sys: LinearSystemFF) -> ControllabilityDecomposition:
    """Deterministic controllability decomposition of a single-input pair.

    The basis V is the pivot columns of [ctrb(A, b) | I]: the Krylov
    vectors b, Ab, ..., A^(s-1) b, independent up to the first dependence
    A^s b = sum_j c_j A^j b, followed by the first standard vectors
    independent of them.  Gauss-Jordan elimination turns those pivot
    columns into I, so it leaves V^-1 in the right half.  In that basis
    V^-1 b = e_1 and

        V^-1 A V = [[A1, X], [0, Y]],

    where A1 maps e_j to e_(j+1) and e_s to c (ones below the diagonal,
    last column c).  Let T be the s x s matrix whose rows are e_s A1^i for
    i < s.  Then T e_1 = e_s, and T A1 = C T, where C is the companion of
    c (ones above the diagonal, bottom row c): row i of T A1 is row i + 1
    of T, and the last is e_s A1^s = sum_j c_j e_s A1^j by Cayley-Hamilton.
    So Q = diag(T, I) V^-1 gives A_c = C, A_cc = T X, A_uc = Y and
    b_c = e_s.  c is the top of V^-1 A (A^(s-1) b), and since
    Q A V = [[T A1, T X], [0, Y]], A_cc and A_uc are the columns of Q A at
    the chosen standard vectors.
    """
    field, p, n = sys.field, sys.field.p, sys.dim
    ctrb = controllability_matrix(sys)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(ctrb.to_rows())]
    reduced, pivots = _echelon(aug, p)
    s = sum(j < n for j in pivots)
    std = [j - n for j in pivots[s:]]
    V_inv = MatrixFF.from_flat(field, n, n, [x for row in reduced for x in row[n:]])
    c = (V_inv @ (sys.A @ ctrb.col(s - 1))).entries[:s] if s else ()

    t_rows = []
    t = [0] * (s - 1) + [1]
    for _ in range(s):
        t_rows.append(t)
        t = t[1:] + [sum(map(mul, t, c)) % p]
    diag_T_I = MatrixFF.from_flat(
        field, n, n,
        [x for row in t_rows for x in row + [0] * (n - s)]
        + [int(j == i) for i in range(s, n) for j in range(n)],
    )
    Q = diag_T_I @ V_inv
    QA = (Q @ sys.A).to_rows() if s < n else []  # s = n: A_cc and A_uc are empty
    return ControllabilityDecomposition(
        Q=Q,
        s=s,
        A_c=MatrixFF.from_flat(
            field, s, s, [int(j == i + 1) for i in range(s - 1) for j in range(s)] + list(c)
        ),
        A_cc=MatrixFF.from_flat(field, s, n - s, [QA[i][j] for i in range(s) for j in std]),
        A_uc=MatrixFF.from_flat(field, n - s, n - s, [QA[i][j] for i in range(s, n) for j in std]),
        b_c=MatrixFF.from_flat(field, s, 1, [int(i == s - 1) for i in range(s)]),
        companion_coeffs=c,
    )


def is_stabilizable(sys: LinearSystemFF) -> bool:
    """True iff the uncontrollable block is nilpotent (vacuous when s = n)."""
    decomp = kalman_decompose(sys)
    return decomp.A_uc.is_nilpotent()


def deadbeat_gain(decomp: ControllabilityDecomposition, d: int) -> MatrixFF:
    """Gain K (1 x n) making A - d*b*K nilpotent, for nonzero d.

    On the companion coordinates the gain cancels the bottom row:
    k'_l = a_l * d^-1 for l = 1..s, zero on the uncontrollable
    coordinates; K is mapped back through Q.  Rejects d = 0 and systems
    whose uncontrollable block is not nilpotent.
    """
    field = decomp.Q.field
    d = field.scalar(d)
    if d == 0:
        raise ValueError("deadbeat gain requires a nonzero degree d")
    if not decomp.A_uc.is_nilpotent():
        raise ValueError("system is not stabilizable: uncontrollable block is not nilpotent")
    n = decomp.Q.rows
    d_inv = pow(d, field.p - 2, field.p)
    kc = [(a * d_inv) % field.p for a in decomp.companion_coeffs] + [0] * (n - decomp.s)
    return MatrixFF.row_vector(field, kc) @ decomp.Q


# ----------------------------------------------------------------------
# Cycle / tree structure of x -> Ax
# ----------------------------------------------------------------------


class CycleStructure(_FrozenRecord):
    """Decomposition of the autonomous dynamics into transients and cycles.

    ``cycles`` maps cycle length -> number of cycles of that length.
    ``tree_depth`` is the number of steps after which every state has
    entered a cycle.  ``factor_orders`` lists (g, multiplicity, order of
    x mod g) for each irreducible factor g != x of the characteristic
    polynomial; it is empty when A is nilpotent.
    """

    __slots__ = ("tree_depth", "cycles", "total_states", "transient_states", "factor_orders")

    def __init__(self, tree_depth: int, cycles: dict[int, int], total_states: int, transient_states: int,
                 factor_orders: tuple[tuple[PolyFF, int, int], ...] = ()):
        object.__setattr__(self, "tree_depth", tree_depth)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "total_states", total_states)
        object.__setattr__(self, "transient_states", transient_states)
        object.__setattr__(self, "factor_orders", factor_orders)


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


def autonomous_cycle_structure(A: MatrixFF) -> CycleStructure:
    """Cycle multiset and transient depth of the map x -> Ax on F_p^n,
    exactly, from the primary decomposition of F_p^n.

    Write the characteristic polynomial as x^s * prod g^e over monic
    irreducibles g with g(0) != 0.  The states on cycles form the
    bijective part, the direct sum of the primary components ker g(A)^e
    (dimension deg(g) * e each), and every other state is transient, so
    p^n - p^(n-s) states are transient.  The tree depth is the first k
    with rank A^k = rank A^(k+1), i.e. with nullity(A^k) = s.  Inside a
    primary component, a state whose annihilator is exactly g^k has
    period order(x mod g^k) = order(x mod g) * p^j, p^j >= k minimal
    (``_lift_order``), so one order per factor serves every k, and there
    are p^nullity(g(A)^k) - p^nullity(g(A)^(k-1)) such states; periods of
    a sum over components combine by lcm.  The nullities come from the
    matrix, not from the polynomial, so the count holds whether or not
    the minimal and characteristic polynomials agree (Elspas 1959).  The
    cost is polynomial in n and log p, not in p^n.  Raises ValueError when
    A is not square, or when the order of x modulo some factor cannot be
    certified (a prime of p^d - 1 not found or not proven).
    """
    if not A.is_square:
        raise ValueError("cycle structure requires a square matrix")
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
        base = _order_mod_irreducible(g)
        table.append((g, e, base))
        local: dict[int, int] = {1: 1}  # the zero element
        for k in range(1, e + 1):
            count = p ** dims[k] - p ** dims[k - 1]
            if count:
                order = _lift_order(base, p, k)
                local[order] = local.get(order, 0) + count
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
        tree_depth=depth,
        cycles=cycles,
        total_states=total,
        transient_states=transient,
        factor_orders=tuple(table),
    )
