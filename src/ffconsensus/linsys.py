"""Single-input linear systems (A, b) over F_p.

Provides the controllability analysis used by the consensus conditions:
the Krylov controllability matrix, a deterministic decomposition into a
controller-companion block plus an uncontrollable block, stabilizability
(the uncontrollable block must be nilpotent), deadbeat gain synthesis,
and the cycle/tree structure of the autonomous map x -> Ax, counted from
the factors of the characteristic polynomial.

Every fact about the pair is read off the reduced row echelon form of
[b, Ab, ..., A^n b | I] (``_krylov``), whose pivots fix a basis that is
reproducible run to run.  The cycle structure's nullities of g(A)^k come
from ``matrix``'s packed powers and the same packed elimination.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .field import PrimeField, _FrozenRecord
from .matrix import MatrixFF, _echelon, _packed_powers, _row_reduction
from .poly import PolyFF, factor, split_nilpotent_bijective, _lift_order, _mul, _order_mod_irreducible


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


def _combine(u, rows, p: int) -> list[int]:
    """The row u times the first len(u) of ``rows``, mod p."""
    return [sum(map(mul, u, col)) % p for col in zip(*rows)]


def _t_rows(c, p: int) -> list[list[int]]:
    """The rows e_s A1^i, i < s, of T (``kalman_decompose``)."""
    rows, t = [], [0] * (len(c) - 1) + [1]
    for _ in c:
        rows.append(t)
        t = t[1:] + [sum(map(mul, t, c)) % p]
    return rows


class _Krylov(_FrozenRecord):
    """What ``_krylov`` reads off the pair (A, b)."""

    __slots__ = ("field", "vectors", "s", "c", "v_inv", "a_std", "chi", "stabilizable")

    def gain_change(self, k) -> list[int]:
        """r = chi_(A - bK) - chi_A for the gain row k, ascending: r_t =
        sum_(j<n-t) a_(t+j+1) K A^j b with chi_A = sum_i a_i x^i, in O(n^2).

        As bK has rank at most one, det(xI - A + bK) = chi_A + K adj(xI - A) b
        (matrix determinant lemma), and adj(xI - A) = sum_(j<n) B_j A^j with
        B_j = sum_(i>j) a_i x^(i-j-1): x B_0 = chi_A - a_0, x B_j - B_(j-1) =
        -a_j for 0 < j < n and B_(n-1) = 1, so (xI - A) sum_j B_j A^j =
        chi_A I - chi_A(A) = chi_A I by Cayley-Hamilton.  The coefficient of
        x^t in sum_j B_j K A^j b is r_t (i = t + j + 1).
        """
        p, a = self.field.p, self.chi
        kv = [sum(map(mul, k, v)) for v in self.vectors[:-1]]  # K A^j b, j < n
        return [sum(map(mul, a[t + 1:], kv)) % p for t in range(len(kv))]

    def deadbeat(self, d: int) -> list[int]:
        """The deadbeat gain row for a nonzero residue d of a stabilizable pair:
        (kc T) V^-1[:s] with kc = c / d, ``deadbeat_gain``'s kc Q[:s]."""
        p = self.field.p
        kc = [a * pow(d, p - 2, p) % p for a in self.c]
        return _combine(_combine(kc, _t_rows(self.c, p), p), self.v_inv, p)


def _krylov(sys: LinearSystemFF) -> _Krylov:
    """The pair (A, b) from the reduced row echelon form of
    [b, Ab, ..., A^n b | I], on packed rows (``matrix._echelon``).

    The pivots are the Krylov vectors b, ..., A^(s-1) b, independent up to
    the first dependence A^s b = sum_j c_j A^j b, then the first standard
    vectors independent of them (``std``): the basis V.  Elimination turns
    V into I, which leaves V^-1 in the right half and c in the column of
    A^s b.  V^-1 A V = [[A1, X], [0, A_uc]] with A1 the companion of
    mu_b = x^s - sum_j c_j x^j, so chi_A = mu_b chi_(A_uc), and the pair
    is stabilizable iff chi_(A_uc) = x^(n-s): the one characteristic
    polynomial computed, and only when s < n.  The record keeps b, ...,
    A^n b, s, c, V^-1, V^-1 A[:, std] (X over A_uc) and chi_A, ascending.
    """
    field, p, n = sys.field, sys.field.p, sys.dim
    a_rows = sys.A.to_rows()
    vectors = [[x for (x,) in sys.b.to_rows()]]
    for _ in range(n):
        vectors.append([sum(map(mul, row, vectors[-1])) % p for row in a_rows])
    w = _row_reduction(2 * n + 1, p)[0]
    aug = [sum(a << (w * j) for j, a in enumerate(row)) + (1 << w * (n + 1 + i)) for i, row in enumerate(zip(*vectors))]
    pivots, reduced = _echelon(aug, p, 2 * n + 1)
    s = sum(j <= n for j in pivots)
    a_cols = [[row[j - n - 1] for j in pivots[s:]] for row in a_rows]
    v_inv = [[v >> (w * j) & (1 << w) - 1 for j in range(n + 1, 2 * n + 1)] for v in reduced]
    a_std = [_combine(v, a_cols, p) for v in v_inv]
    c = tuple(v >> (w * s) & (1 << w) - 1 for v in reduced[:s])
    chi_uc = MatrixFF.from_flat(field, n - s, n - s, sum(a_std[s:], [])).char_poly().coeffs if s < n else (1,)
    chi = _mul([-x % p for x in c] + [1], chi_uc, p)
    return _Krylov(field, vectors, s, c, v_inv, a_std, chi, not any(chi_uc[:-1]))


def controllability_matrix(sys: LinearSystemFF) -> MatrixFF:
    """The n x n Krylov matrix [b, Ab, ..., A^(n-1) b]."""
    n = sys.dim
    return MatrixFF.from_flat(sys.field, n, n, sum(map(list, zip(*_krylov(sys).vectors[:n])), []))


def kalman_decompose(sys: LinearSystemFF) -> ControllabilityDecomposition:
    """Deterministic controllability decomposition of a single-input pair.

    With V, A1, X and A_uc of ``_krylov`` (V^-1 b = e_1; A1 has ones below
    the diagonal and last column c), let T be the s x s matrix whose rows
    are e_s A1^i, i < s.  Then T e_1 = e_s and T A1 = C T, with C the
    companion of c (ones above the diagonal, bottom row c): row i of T A1
    is row i + 1 of T, and the last is e_s A1^s = sum_j c_j e_s A1^j by
    Cayley-Hamilton.  So Q = diag(T, I) V^-1 gives A_c = C, A_cc = T X,
    A_uc and b_c = e_s.
    """
    kr = _krylov(sys)
    field, p, n, s, c = kr.field, kr.field.p, sys.dim, kr.s, kr.c
    t_rows = _t_rows(c, p)
    return ControllabilityDecomposition(
        MatrixFF.from_flat(field, n, n, sum([_combine(t, kr.v_inv, p) for t in t_rows] + kr.v_inv[s:], [])),
        s,
        MatrixFF.from_flat(field, s, s, [int(j == i + 1) for i in range(s - 1) for j in range(s)] + list(c)),
        MatrixFF.from_flat(field, s, n - s, sum([_combine(t, kr.a_std, p) for t in t_rows], [])),
        MatrixFF.from_flat(field, n - s, n - s, sum(kr.a_std[s:], [])),
        MatrixFF.from_flat(field, s, 1, [int(i == s - 1) for i in range(s)]),
        c,
    )


def is_stabilizable(sys: LinearSystemFF) -> bool:
    """True iff the uncontrollable block is nilpotent (vacuous when s = n)."""
    return _krylov(sys).stabilizable


def deadbeat_gain(decomp: ControllabilityDecomposition, d: int) -> MatrixFF:
    """Gain K (1 x n) making A - d*b*K nilpotent, for nonzero d.

    On the companion coordinates the gain cancels the bottom row:
    k'_l = a_l * d^-1 for l = 1..s, zero on the uncontrollable
    coordinates; K is mapped back through Q.  Rejects d = 0 and systems
    whose uncontrollable block is not nilpotent.
    """
    field, p = decomp.Q.field, decomp.Q.field.p
    if field.scalar(d) == 0:
        raise ValueError("deadbeat gain requires a nonzero degree d")
    if not decomp.A_uc.is_nilpotent():
        raise ValueError("system is not stabilizable: uncontrollable block is not nilpotent")
    kc = [a * pow(d, p - 2, p) % p for a in decomp.companion_coeffs]
    return MatrixFF.row_vector(field, _combine(kc, decomp.Q.to_rows(), p))


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


def _kernel_dims(g: PolyFF, A: MatrixFF, e: int) -> list[int]:
    """dim ker g(A)^k for k = 0..e, where g^e exactly divides charpoly(A).

    ker g(A)^e is the whole g-primary component, of dimension
    deg(g) * e, so only the powers below e are computed, none past the
    first that fills it, all packed (``_packed_powers``: deg g < n as e > 1).
    """
    n, p, full, dims = A.rows, A.field.p, g.degree * e, [0]
    powers = _packed_powers(A.to_rows(), p, g.coeffs) if e > 1 else None
    while len(dims) < e and dims[-1] < full:
        dims.append(n - len(_echelon(next(powers), p, n)[0]))
    return dims + [full] * (e + 1 - len(dims))


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
    return CycleStructure(depth, cycles, p**n, p**n - p ** (n - s), tuple(table))
