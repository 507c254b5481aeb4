import itertools
import random

import pytest

from ffconsensus import MatrixFF, PolyFF, PrimeField, kron, permute_similarity

from conftest import (
    F2,
    F3,
    F5,
    REF_A_ROWS,
    REF_B,
    REF_GAIN,
    random_invertible,
    random_matrix,
    random_nilpotent,
)


def cofactor_char_poly(m: MatrixFF) -> PolyFF:
    """Independent oracle: expand det(xI - A) over the polynomial ring."""
    field = m.field
    n = m.rows

    def det(rows: list[list[PolyFF]]) -> PolyFF:
        if len(rows) == 1:
            return rows[0][0]
        acc = PolyFF.zero(field)
        for i, row in enumerate(rows):
            minor = [r[1:] for k, r in enumerate(rows) if k != i]
            term = row[0] * det(minor)
            acc = acc + (term if i % 2 == 0 else -term)
        return acc

    entries = [
        [
            PolyFF(field, [-m.entry_int(i, j), 1] if i == j else [-m.entry_int(i, j)])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det(entries)


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

def test_power_zero_is_identity():
    a = MatrixFF(F5, [[1, 2], [3, 4]])
    assert a**0 == MatrixFF.identity(F5, 2)


def test_strictly_upper_triangular_nth_power_vanishes():
    rng = random.Random(5)
    for n in range(2, 6):
        strict = MatrixFF(
            F3, [[rng.randrange(3) if j > i else 0 for j in range(n)] for i in range(n)]
        )
        assert (strict**n).is_zero()


def test_reference_closed_loop_fifth_power_vanishes():
    a = MatrixFF(F3, REF_A_ROWS)
    b = MatrixFF.column(F3, REF_B)
    k = MatrixFF.row_vector(F3, REF_GAIN)
    closed = a - b @ k
    assert (closed**5).is_zero()


def test_power_rejects_bad_input():
    a = MatrixFF(F3, [[1, 2], [2, 0]])
    with pytest.raises(ValueError):
        a ** -1
    with pytest.raises(ValueError):
        MatrixFF(F3, [[1, 2, 0]]) ** 2


# ---------------------------------------------------------
# Rank / inverse / determinant
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
            assert q.determinant() * q.inverse().determinant() == field.one
            assert q @ q.inverse() == MatrixFF.identity(field, n)


def test_inverse_of_singular_rejected():
    with pytest.raises(ValueError):
        MatrixFF(F3, [[1, 2], [2, 1]]).inverse()  # det = 1 - 4 = 0 mod 3


def test_det_matches_char_poly_constant_term():
    # two independent routes: Gaussian elimination vs det(xI - A) at x = 0
    rng = random.Random(29)
    for p in [2, 3, 5]:
        field = PrimeField(p)
        for n in range(1, 6):
            for _ in range(8):
                m = random_matrix(rng, field, n, n)
                sign = (-1) ** n % p
                assert m.determinant() == (sign * m.char_poly().eval(0).value) % p


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
        assert m.determinant().value == leibniz_det(m)
        full = m.rank() == n
        assert (m.determinant().value != 0) == full
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
        assert cp == PolyFF.monomial(F3, n)


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
        by_power = (m**n).is_zero()
        by_charpoly = m.char_poly() == PolyFF.monomial(m.field, n)
        assert m.is_nilpotent() == by_power == by_charpoly
        # the degree is the smallest k with A^k = 0
        assert m.nilpotent_degree() == next((k for k in range(n + 1) if (m**k).is_zero()), None)


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

def test_vector_arithmetic_and_matvec():
    from ffconsensus import VectorFF

    v = VectorFF(F3, [1, 2])
    w = VectorFF(F3, [2, 2])
    assert (v + w).to_ints() == [0, 1]
    assert (v - w).to_ints() == [2, 0]
    assert v.scale(2).to_ints() == [2, 1]
    m = MatrixFF(F3, [[1, 2], [0, 1]])
    assert (m @ v).to_ints() == [(1 + 4) % 3, 2]
    assert v.as_column().to_rows() == [[1], [2]]
    with pytest.raises(ValueError):
        v + VectorFF(F3, [1, 2, 0])
    with pytest.raises(ValueError):
        v + VectorFF(F5, [1, 2])


# ---------------------------------------------------------
# Permutation similarity
# ---------------------------------------------------------

def test_permute_similarity_identity_and_swap():
    a = MatrixFF(F3, [[1, 2], [0, 1]])
    assert permute_similarity(a, [0, 1]) == a
    swapped = permute_similarity(a, [1, 0])
    assert swapped.to_rows() == [[1, 0], [2, 1]]


def test_permute_similarity_reversal_triangularizes():
    lower = MatrixFF(F3, [[0, 0, 0], [2, 0, 0], [1, 2, 0]])
    rev = permute_similarity(lower, [2, 1, 0])
    assert all(rev.entry_int(i, j) == 0 for i in range(3) for j in range(i + 1))


def test_permute_similarity_preserves_char_poly_and_degree():
    rng = random.Random(47)
    for _ in range(20):
        field = [F2, F3][rng.randrange(2)]
        n = rng.randrange(2, 5)
        m = random_nilpotent(rng, field, n) if rng.random() < 0.5 else random_matrix(rng, field, n, n)
        perm = list(range(n))
        rng.shuffle(perm)
        conj = permute_similarity(m, perm)
        assert conj.char_poly() == m.char_poly()
        assert conj.nilpotent_degree() == m.nilpotent_degree()


def test_permute_similarity_rejects_bad_perm():
    a = MatrixFF(F3, [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        permute_similarity(a, [0, 0])
