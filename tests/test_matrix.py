import itertools
import random
from collections import Counter
from operator import mul

import pytest

from ffconsensus import (
    LeaderFollowerNetwork,
    LinearSystemFF,
    MatrixFF,
    PolyFF,
    PrimeField,
    VectorFF,
    WeightedDigraphFF,
    error_dynamics_matrix,
    kron,
)
from ffconsensus.matrix import _echelon, _row_reduction

from conftest import (
    F2,
    F3,
    F5,
    REF_A_ROWS,
    REF_B,
    REF_GAIN,
    STRUCTURED_KINDS,
    block_diag,
    mat_power,
    random_invertible,
    random_matrix,
    random_nilpotent,
    reference_kron,
    reference_matmul,
    reference_echelon,
    reference_rank,
    list_add,
    list_mul,
    list_sub,
    structured_matrix,
)


def cofactor_char_poly(m: MatrixFF) -> PolyFF:
    """Independent oracle: expand det(xI - A) over the polynomial ring, on
    ascending coefficient lists with the list references of conftest."""
    field = m.field
    n, p = m.rows, field.p

    def det(rows: list[list[list[int]]]) -> list[int]:
        if len(rows) == 1:
            return rows[0][0]
        acc = []
        for i, row in enumerate(rows):
            minor = [r[1:] for k, r in enumerate(rows) if k != i]
            term = list_mul(row[0], det(minor), p)
            acc = list_add(acc, term, p) if i % 2 == 0 else list_sub(acc, term, p)
        return acc

    entries = [
        [
            PolyFF(field, [-m.entry_int(i, j), 1] if i == j else [-m.entry_int(i, j)]).coeffs
            for j in range(n)
        ]
        for i in range(n)
    ]
    return PolyFF.from_residues(field, det(entries))


# ---------------------------------------------------------
# Products and shape/modulus contracts
# ---------------------------------------------------------

def test_product_identity_and_zero():
    a = MatrixFF(F3, [[1, 2], [2, 0]])
    eye = MatrixFF.identity(F3, 2)
    zero = MatrixFF.zeros(F3, 2, 2)
    assert a @ eye == a
    assert zero @ a == zero


def test_product_hand_example():
    a = MatrixFF(F3, [[1, 2], [2, 0]])
    b = MatrixFF(F3, [[2, 1], [1, 1]])
    assert (a @ b).to_rows() == [[1, 0], [1, 2]]


def test_shape_and_modulus_mismatch_rejected():
    a = MatrixFF(F3, [[1, 2], [2, 0]])
    with pytest.raises(ValueError):
        a @ MatrixFF(F3, [[1, 2, 0]])
    with pytest.raises(ValueError):
        a + MatrixFF(F3, [[1, 2, 0]])
    with pytest.raises(ValueError):
        a @ MatrixFF(F5, [[1, 2], [2, 0]])


def test_entries_reduced_on_construction():
    m = MatrixFF(F3, [[4, -1], [3, 2]])
    assert m.to_rows() == [[1, 2], [0, 2]]


# ---------------------------------------------------------
# Powers
# ---------------------------------------------------------

def test_strictly_upper_triangular_nth_power_vanishes():
    rng = random.Random(5)
    for n in range(2, 6):
        strict = MatrixFF(
            F3, [[rng.randrange(3) if j > i else 0 for j in range(n)] for i in range(n)]
        )
        assert mat_power(strict, n).is_zero()


def test_reference_closed_loop_fifth_power_vanishes():
    a = MatrixFF(F3, REF_A_ROWS)
    b = MatrixFF.column(F3, REF_B)
    k = MatrixFF.row_vector(F3, REF_GAIN)
    closed = a - b @ k
    assert mat_power(closed, 5).is_zero()


# ---------------------------------------------------------
# Rank / inverse, and the determinant as char_poly's constant term
# ---------------------------------------------------------

def test_rank_identity():
    for n in range(1, 6):
        assert MatrixFF.identity(F3, n).rank() == n


def test_reference_controllability_matrix_rank():
    a = MatrixFF(F3, REF_A_ROWS)
    cols = [REF_B]
    v = MatrixFF.column(F3, REF_B)
    for _ in range(4):
        v = a @ v
        cols.append([v.entry_int(i, 0) for i in range(5)])
    ctrb = MatrixFF(F3, [[cols[j][i] for j in range(5)] for i in range(5)])
    assert ctrb.rank() == 4


def test_det_multiplicative_with_inverse():
    rng = random.Random(11)
    for p in [2, 3, 5]:
        field = PrimeField(p)
        for n in range(1, 5):
            q = random_invertible(rng, field, n)
            assert leibniz_det(q) * leibniz_det(q.inverse()) % p == 1
            assert q @ q.inverse() == MatrixFF.identity(field, n)


def test_inverse_of_singular_rejected():
    with pytest.raises(ValueError):
        MatrixFF(F3, [[1, 2], [2, 1]]).inverse()  # det = 1 - 4 = 0 mod 3


def test_det_matches_char_poly_constant_term():
    # two independent routes: the Leibniz sum vs det(xI - A) at x = 0
    rng = random.Random(29)
    for p in [2, 3, 5]:
        field = PrimeField(p)
        for n in range(1, 6):
            for _ in range(8):
                m = random_matrix(rng, field, n, n)
                sign = (-1) ** n % p
                assert leibniz_det(m) == (sign * m.char_poly().eval(0)) % p


def brute_rank(m: MatrixFF) -> int:
    """r with p^r = the number of vectors in the row space."""
    p = m.field.p
    rows = m.to_rows()
    span = {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(m.cols))
        for coeffs in itertools.product(range(p), repeat=m.rows)
    }
    return next(r for r in range(m.rows + 1) if p**r == len(span))


def leibniz_det(m: MatrixFF) -> int:
    total = 0
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m.entry_int(i, j)
        total += term
    return total % m.field.p


def test_rank_det_inverse_consistency_random():
    # random matrices, every 2x2 matrix over F_2 and F_3, and the 0x0 one,
    # against brute force; the inverse is searched over all matrices of
    # its size where there are at most 81 of them
    rng = random.Random(23)
    cases = []
    for _ in range(120):
        field = random.Random(rng.random()).choice([F2, F3, F5])
        n = rng.randrange(1, 5)
        cases.append(random_matrix(rng, field, n, n))
    for field in (F2, F3):
        for entries in itertools.product(range(field.p), repeat=4):
            cases.append(MatrixFF(field, [entries[:2], entries[2:]]))
    cases.append(MatrixFF.zeros(F3, 0, 0))
    for m in cases:
        n, field = m.rows, m.field
        assert m.rank() == brute_rank(m)
        det = leibniz_det(m)
        assert (-1) ** n * m.char_poly().eval(0) % field.p == det
        full = m.rank() == n
        assert (det != 0) == full
        if not full:
            with pytest.raises(ValueError):
                m.inverse()
            continue
        inv = m.inverse()
        eye = MatrixFF.identity(field, n)
        if field.p ** (n * n) <= 81:
            [found] = [
                c
                for entries in itertools.product(range(field.p), repeat=n * n)
                if m @ (c := MatrixFF.from_flat(field, n, n, entries)) == eye
            ]
            assert inv == found
        assert m @ inv == inv @ m == eye


# ---------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------

def test_char_poly_zero_matrix():
    for n in range(1, 5):
        cp = MatrixFF.zeros(F3, n, n).char_poly()
        assert cp == PolyFF(F3, [0] * n + [1])


def test_char_poly_2x2_companion():
    # companion with bottom row (a1, a2) has char poly x^2 - a2 x - a1
    for a1 in range(3):
        for a2 in range(3):
            comp = MatrixFF(F3, [[0, 1], [a1, a2]])
            assert comp.char_poly() == PolyFF(F3, [-a1, -a2, 1])


def test_char_poly_reference_matrix():
    cp = MatrixFF(F3, REF_A_ROWS).char_poly()
    assert cp.coefficient_list() == [0, 1, 2, 0, 1, 1]


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(37)
    for p in [2, 3, 5]:
        field = PrimeField(p)
        for n in range(1, 6):
            for _ in range(6):
                m = random_matrix(rng, field, n, n)
                assert m.char_poly() == cofactor_char_poly(m)
    # one 6x6 spot check per field
    for p in [2, 3]:
        field = PrimeField(p)
        m = random_matrix(rng, field, 6, 6)
        assert m.char_poly() == cofactor_char_poly(m)


def test_char_poly_hessenberg_cases_match_cofactor_oracle():
    """The Hessenberg reduction's cases against the cofactor oracle: a
    first column with no pivot below the subdiagonal, a pivot that needs
    a row and column swap, upper triangular matrices (every subdiagonal
    entry zero) and sparse ones, up to p = 1000003 (the packed recurrence's
    slots wider than 64 bits)."""
    rng = random.Random(53)
    seen = Counter()
    for p in (2, 3, 5, 101, 65537, 1000003):
        field = PrimeField(p)
        for n in range(1, 7):
            for shape in ("dense", "sparse", "no pivot", "swap", "triangular"):
                density = 0.3 if shape == "sparse" else 1.0
                rows = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
                for i in range(1, n):
                    if shape == "no pivot" or (shape == "swap" and i < n - 1):
                        rows[i][0] = 0
                    if shape == "triangular":
                        rows[i][:i] = [0] * i
                if shape == "swap" and n >= 3:
                    rows[n - 1][0] = rng.randrange(1, p)
                m = MatrixFF(field, rows)
                assert m.char_poly() == cofactor_char_poly(m)
                seen[shape if n >= 3 else "n <= 2"] += 1
    print(f"cases hit: {dict(seen)}")
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------
# Nilpotency
# ---------------------------------------------------------

def test_nilpotency_basics():
    z = MatrixFF.zeros(F3, 3, 3)
    assert z.is_nilpotent() and z.nilpotent_degree() == 1
    eye = MatrixFF.identity(F3, 3)
    assert not eye.is_nilpotent() and eye.nilpotent_degree() is None


def test_reference_closed_loop_degree():
    a = MatrixFF(F3, REF_A_ROWS)
    b = MatrixFF.column(F3, REF_B)
    closed = a - b @ MatrixFF.row_vector(F3, REF_GAIN)
    assert closed.is_nilpotent()
    assert closed.nilpotent_degree() == 4  # smallest k with (A - bK)^k = 0


def test_nilpotency_three_way_agreement():
    rng = random.Random(41)
    cases = []
    for p in [2, 3]:
        field = PrimeField(p)
        for n in range(1, 5):
            cases.extend(random_matrix(rng, field, n, n) for _ in range(10))
            cases.append(random_nilpotent(rng, field, n))
            cases.append(MatrixFF.identity(field, n))
        cases.append(MatrixFF.zeros(field, 0, 0))
    for m in cases:
        n = m.rows
        by_power = mat_power(m, n).is_zero()
        by_charpoly = m.char_poly() == PolyFF(m.field, [0] * n + [1])
        assert m.is_nilpotent() == by_power == by_charpoly
        # the degree is the smallest k with A^k = 0
        assert m.nilpotent_degree() == next((k for k in range(n + 1) if mat_power(m, k).is_zero()), None)


def test_nilpotency_rejects_non_square():
    for m in (MatrixFF(F3, [[1, 2, 0]]), MatrixFF.zeros(F3, 3, 2)):
        with pytest.raises(ValueError, match="square"):
            m.is_nilpotent()
        with pytest.raises(ValueError, match="square"):
            m.nilpotent_degree()


def conjugated_shifts(rng: random.Random, field: PrimeField, sizes: list[int]) -> MatrixFF:
    """T J T^-1 for J the direct sum of nilpotent shift blocks of the given
    sizes and T a random invertible matrix: its degree is max(sizes)."""
    n = sum(sizes)
    starts = set(itertools.accumulate([0] + sizes[:-1]))
    shift = MatrixFF(field, [[int(j == i + 1 and j not in starts) for j in range(n)] for i in range(n)])
    t = random_invertible(rng, field, n)
    return (t @ shift) @ t.inverse()


def test_packed_powers_match_products_on_every_degree():
    """Packed powers, reduced slot by slot, against ``@`` powers and the
    characteristic polynomial: every degree 1..n, non-nilpotent matrices,
    and the all-(p-1) matrix whose unreduced slots are the largest."""
    rng = random.Random(1409)
    degrees = Counter()
    for p in (2, 3, 5, 101, 1000003):
        field = PrimeField(p)
        for n in range(1, 13):
            cases = []
            for d in range(1, n + 1):
                sizes = [d]
                while sum(sizes) < n:
                    sizes.append(rng.randint(1, min(d, n - sum(sizes))))
                rng.shuffle(sizes)
                cases.append(conjugated_shifts(rng, field, sizes))
            cases.extend(random_matrix(rng, field, n, n) for _ in range(3))
            cases.append(MatrixFF.identity(field, n))
            cases.append(MatrixFF.zeros(field, n, n))
            cases.append(MatrixFF(field, [[p - 1] * n for _ in range(n)]))
            for m in cases:
                degree = m.nilpotent_degree()
                assert degree == next((k for k in range(n + 1) if mat_power(m, k).is_zero()), None)
                assert m.is_nilpotent() == (m.char_poly() == PolyFF(field, [0] * n + [1]))
                degrees[degree] += 1
    assert all(degrees[d] >= 5 for d in range(1, 13)), degrees
    assert degrees[None] >= 250, degrees


def assert_echelon_matches_reference(m: MatrixFF) -> int:
    """The packed ``_echelon`` of m's rows against list Gauss-Jordan: the
    same pivots, the same reduced rows, the reference's other rows zero;
    returns the rank, which ``MatrixFF.rank`` must also give."""
    p = m.field.p
    w = _row_reduction(m.cols, p)[0]
    pivots, packed = _echelon([sum(a << (w * j) for j, a in enumerate(row)) for row in m.to_rows()], p, m.cols)
    reduced, ref_pivots = reference_echelon(m.to_rows(), p)
    assert pivots == ref_pivots, m
    assert [[v >> (w * j) & (1 << w) - 1 for j in range(m.cols)] for v in packed] == reduced[:len(pivots)], m
    assert not any(map(any, reduced[len(pivots):])), m
    assert m.rank() == len(pivots) == reference_rank(m), m
    return len(pivots)


def test_packed_rank_matches_echelon_reference():
    """The packed reduced echelon form against list Gauss-Jordan, pivots and
    every reduced row: structured n x n matrices (n <= 16), their squares
    and (n-1)-th powers, row blocks of them (wide and tall shapes with
    dependent rows), Krylov-shaped [b, ..., A^n b | I] with b in an
    invariant subspace (s < n), tall all-(p-1) matrices whose non-pivot rows
    take every pivot's clearing (the largest slots), and empty shapes; for
    p up to 1000003, whose slots are wider than 64 bits."""
    rng = random.Random(2806)
    kinds, deficient = Counter(), 0
    for t in range(252):
        kind = STRUCTURED_KINDS[t % len(STRUCTURED_KINDS)]
        field = PrimeField((2, 3, 5, 7, 101, 65537, 1000003)[t // len(STRUCTURED_KINDS) % 7])
        n = rng.randint(3, 16)
        a = structured_matrix(rng, kind, field, n)
        rows = a.to_rows()
        k = rng.randint(1, n)
        wide = MatrixFF(field, rows[:k] + rows[:k])
        tall = MatrixFF(field, [row[:k] for row in rows] + [row[:k] for row in rows])
        for m in (a, a @ a, mat_power(a, n - 1), wide, tall):
            rank = assert_echelon_matches_reference(m)
            deficient += rank < min(m.rows, m.cols)
        kinds[kind] += 1
    assert min(kinds.values()) >= 42, kinds
    assert deficient >= 600, deficient
    for p in (2, 3, 5, 7, 101, 65537, 1000003):
        field = PrimeField(p)
        for n in (1, 2, 5, 9, 16):
            # [b, Ab, ..., A^n b | I] for A = diag(X, Y), b zero below X: s <= k < n if n > 1
            k = rng.randint(1, max(n - 1, 1))
            a = block_diag(field, [random_matrix(rng, field, k, k), random_matrix(rng, field, n - k, n - k)])
            vectors = [[rng.randrange(p) for _ in range(k)] + [0] * (n - k)]
            for _ in range(n):
                vectors.append([sum(map(mul, row, vectors[-1])) % p for row in a.to_rows()])
            krylov = MatrixFF(field, [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(zip(*vectors))])
            assert_echelon_matches_reference(krylov)
            # p-1 on and above the diagonal of an n x n block, under and over n all-(p-1) rows
            upper = [[p - 1 if j >= i else 0 for j in range(n)] for i in range(n)]
            for rows in (upper + [[p - 1] * n] * n, [[p - 1] * n] * n + upper):
                assert assert_echelon_matches_reference(MatrixFF(field, rows)) == n
            assert MatrixFF(field, [[p - 1] * n for _ in range(n)]).rank() == 1
            assert MatrixFF(field, [[p - 1] * n]).rank() == MatrixFF.column(field, [p - 1] * n).rank() == 1
    for rows, cols in ((0, 0), (0, 3), (3, 0), (0, 4), (4, 0)):
        assert assert_echelon_matches_reference(MatrixFF.from_flat(F3, rows, cols, [])) == 0


def test_packed_nilpotency_on_large_matrices():
    """A conjugated 40 x 40 shift at p = 101 has degree 40; the 100 x 100
    error matrix of a 20-follower ring with the reference A and gain is
    not nilpotent, by packed powers and by the characteristic polynomial."""
    rng = random.Random(40)
    m = conjugated_shifts(rng, PrimeField(101), [40])
    assert m.nilpotent_degree() == 40 and m.is_nilpotent()
    assert not mat_power(m, 39).is_zero() and mat_power(m, 40).is_zero()

    ring = [(0, 1, 1), (20, 1, 1)] + [(i, i + 1, 2) for i in range(1, 20)]
    net = LeaderFollowerNetwork(
        sys=LinearSystemFF(MatrixFF(F3, REF_A_ROWS), MatrixFF.column(F3, REF_B)),
        graphs=(WeightedDigraphFF(F3, 20, ring),),
        gain=MatrixFF.row_vector(F3, REF_GAIN),
    )
    block = error_dynamics_matrix(net)
    assert block.rows == 100
    assert not block.is_nilpotent()
    assert block.char_poly() != PolyFF(F3, [0] * 100 + [1])


# ---------------------------------------------------------
# Kronecker product
# ---------------------------------------------------------

def test_kron_identity_blocks():
    b = MatrixFF(F3, [[1, 2], [0, 1]])
    assert kron(MatrixFF.identity(F3, 1), b) == b
    two_blocks = kron(MatrixFF.identity(F3, 2), b)
    assert two_blocks.to_rows() == [
        [1, 2, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 2],
        [0, 0, 0, 1],
    ]


def test_kron_scalar_block():
    assert kron(MatrixFF(F3, [[2]]), MatrixFF(F3, [[1, 2], [0, 1]])).to_rows() == [
        [2, 1],
        [0, 2],
    ]


def test_kron_mixed_product_property():
    rng = random.Random(43)
    for _ in range(25):
        field = [F2, F3, F5][rng.randrange(3)]
        r1, c1, r2, c2 = (rng.randrange(1, 4) for _ in range(4))
        k1, k2 = rng.randrange(1, 4), rng.randrange(1, 4)
        a = random_matrix(rng, field, r1, c1)
        c = random_matrix(rng, field, c1, k1)
        b = random_matrix(rng, field, r2, c2)
        d = random_matrix(rng, field, c2, k2)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


# ---------------------------------------------------------
# Vectors
# ---------------------------------------------------------

def test_products_and_kron_match_index_by_index_references():
    """Matrix and matrix-vector products and Kronecker products, on random
    shapes with empty ones (0 x k, k x 0) included, equal the entries
    summed or filled index by index."""
    rng = random.Random(20261020)

    def draw(field, rows, cols):
        return MatrixFF.from_flat(field, rows, cols, [rng.randrange(field.p) for _ in range(rows * cols)])

    for field in (F2, F3, PrimeField(101), PrimeField(65537)):
        for _ in range(60):
            n, m, q = (rng.randint(0, 5) for _ in range(3))
            a, b = draw(field, n, m), draw(field, m, q)
            product = a @ b
            assert (product.rows, product.cols) == (n, q)
            assert product == MatrixFF.from_flat(field, n, q, sum(reference_matmul(a, b), []))
            v = draw(field, m, 1)
            column = lambda rows: VectorFF(field, [x for (x,) in rows])
            assert a @ column(v.to_rows()) == column(reference_matmul(a, v))
            c = draw(field, rng.randint(0, 3), rng.randint(0, 3))
            k = kron(a, c)
            assert (k.rows, k.cols) == (n * c.rows, m * c.cols)
            assert k == MatrixFF.from_flat(field, k.rows, k.cols, sum(reference_kron(a, c), []))


def test_vector_arithmetic_and_matvec():
    from ffconsensus import VectorFF

    v = VectorFF(F3, [1, 2])
    m = MatrixFF(F3, [[1, 2], [0, 1]])
    assert m @ v == VectorFF(F3, [(1 + 4) % 3, 2])
    assert m.col(1) == VectorFF(F3, [2, 1])
    with pytest.raises(ValueError):
        m @ VectorFF(F3, [1, 2, 0])
    with pytest.raises(ValueError):
        m @ VectorFF(F5, [1, 2])


# ---------------------------------------------------------
# Permutation similarity
# ---------------------------------------------------------

def test_permute_similarity_preserves_char_poly_and_degree():
    rng = random.Random(47)
    for _ in range(20):
        field = [F2, F3][rng.randrange(2)]
        n = rng.randrange(2, 5)
        m = random_nilpotent(rng, field, n) if rng.random() < 0.5 else random_matrix(rng, field, n, n)
        perm = list(range(n))
        rng.shuffle(perm)
        # P M P^-1 for the permutation matrix P picking coordinate perm[i] into slot i
        conj = MatrixFF(field, [[m.entry_int(perm[i], perm[j]) for j in range(n)] for i in range(n)])
        assert conj.char_poly() == m.char_poly()
        assert conj.nilpotent_degree() == m.nilpotent_degree()

