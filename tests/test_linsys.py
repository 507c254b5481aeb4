import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from ffconsensus import (
    LinearSystemFF,
    MatrixFF,
    PrimeField,
    autonomous_cycle_structure,
    controllability_matrix,
    deadbeat_gain,
    is_stabilizable,
    kalman_decompose,
)
from ffconsensus.linsys import _kernel_dims, _krylov
from ffconsensus.poly import PolyFF, factor, split_nilpotent_bijective
from conftest import (
    F2,
    F3,
    F5,
    REF_A_ROWS,
    REF_B,
    STRUCTURED_KINDS,
    block_diag,
    companion,
    naive_cycle_structure,
    random_invertible,
    random_matrix,
    random_nilpotent,
    reference_deadbeat_gain,
    reference_kalman_decompose,
    reference_kernel_dims,
    structured_matrix,
    successors_by_matmul,
)


def make_sys(field, a_rows, b_entries):
    return LinearSystemFF(MatrixFF(field, a_rows), MatrixFF.column(field, b_entries))


def random_system(rng, field, n):
    return make_sys(
        field,
        [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)],
        [rng.randrange(field.p) for _ in range(n)],
    )


# ---------------------------------------------------------
# Controllability matrix
# ---------------------------------------------------------

def test_ctrb_zero_dynamics():
    sys_ = make_sys(F3, [[0, 0], [0, 0]], [1, 2])
    assert controllability_matrix(sys_).to_rows() == [[1, 0], [2, 0]]


def test_ctrb_companion_full_rank():
    comp = [[0, 1, 0], [0, 0, 1], [1, 2, 1]]
    sys_ = make_sys(F3, comp, [0, 0, 1])
    assert controllability_matrix(sys_).rank() == 3


def test_ctrb_reference_rank():
    sys_ = make_sys(F3, REF_A_ROWS, REF_B)
    assert controllability_matrix(sys_).rank() == 4


# ---------------------------------------------------------
# Kalman decomposition
# ---------------------------------------------------------

def check_decomposition(sys_, dec):
    n = sys_.dim
    rows = ((dec.Q @ sys_.A) @ dec.Q.inverse()).to_rows()
    s = dec.s  # Q A Q^-1 = [[A_c, A_cc], [0, A_uc]]
    assert [r[:s] for r in rows[:s]] == dec.A_c.to_rows()
    assert [r[s:] for r in rows[:s]] == dec.A_cc.to_rows()
    assert [r[:s] for r in rows[s:]] == [[0] * s] * (n - s)
    assert [r[s:] for r in rows[s:]] == dec.A_uc.to_rows()
    qb = dec.Q @ sys_.b
    expected_qb = [[0]] * n
    if dec.s:
        expected_qb = [[0]] * (dec.s - 1) + [[1]] + [[0]] * (n - dec.s)
    assert qb.to_rows() == expected_qb
    # companion shape: superdiagonal ones, zeros elsewhere above the bottom row
    for i in range(dec.s - 1):
        for j in range(dec.s):
            assert dec.A_c.entry_int(i, j) == (1 if j == i + 1 else 0)
    assert tuple(dec.A_c.entry_int(dec.s - 1, j) for j in range(dec.s)) == dec.companion_coeffs
    assert dec.s == controllability_matrix(sys_).rank()


def test_decompose_already_companion():
    comp = [[0, 1], [2, 1]]
    sys_ = make_sys(F3, comp, [0, 1])
    dec = kalman_decompose(sys_)
    assert dec.s == 2
    assert dec.A_c.to_rows() == comp
    check_decomposition(sys_, dec)


def test_decompose_zero_input():
    sys_ = make_sys(F3, [[1, 2], [0, 1]], [0, 0])
    dec = kalman_decompose(sys_)
    assert dec.s == 0
    assert dec.A_uc == sys_.A
    check_decomposition(sys_, dec)


def test_decompose_reference_system():
    sys_ = make_sys(F3, REF_A_ROWS, REF_B)
    dec = kalman_decompose(sys_)
    assert dec.s == 4
    assert dec.A_uc.to_rows() == [[0]]
    check_decomposition(sys_, dec)


def test_decompose_roundtrip_random():
    rng = random.Random(61)
    for field in (F2, F3, F5):
        for n in range(1, 7):
            for _ in range(8):
                sys_ = random_system(rng, field, n)
                check_decomposition(sys_, kalman_decompose(sys_))


# kalman_decompose outputs recorded for 340 seeded pairs (p in {2, 3, 5,
# 7, 101}, n <= 7): random pairs, b = 0, pairs made uncontrollable by a
# random invariant subspace, and identity, zero and shift matrices.  Q
# fixes every synthesized gain, so the basis must not drift.
DECOMPOSE_GOLDEN = json.loads((Path(__file__).parent / "data" / "decompose_golden.json").read_text())


def test_decompose_matches_recording():
    for case in DECOMPOSE_GOLDEN:
        field = PrimeField(case["p"])
        dec = kalman_decompose(make_sys(field, case["A"], case["b"]))
        got = {
            "s": dec.s,
            "Q": dec.Q.to_rows(),
            "A_c": dec.A_c.to_rows(),
            "A_cc": dec.A_cc.to_rows(),
            "A_uc": dec.A_uc.to_rows(),
            "b_c": dec.b_c.to_rows(),
            "coeffs": list(dec.companion_coeffs),
        }
        assert got == {key: case[key] for key in got}, (case["A"], case["b"])
        rest = dec.Q.rows - dec.s
        assert (dec.A_c.rows, dec.A_cc.cols, dec.A_uc.rows) == (dec.s, rest, rest)


def random_pair(rng, field, n, kind):
    """A pair of the given kind: "random", "zero_b", "nilpotent_a", or
    "uncontrollable_nil" / "uncontrollable" (A leaves the span of the
    first s0 < n vectors of a random basis invariant and b lies in it;
    the complement block is nilpotent for the first, random for the
    second)."""
    p = field.p
    if kind == "random":
        return random_system(rng, field, n)
    if kind == "zero_b":
        return LinearSystemFF(random_matrix(rng, field, n, n), MatrixFF.zeros(field, n, 1))
    if kind == "nilpotent_a":
        return LinearSystemFF(random_nilpotent(rng, field, n), random_matrix(rng, field, n, 1))
    s0 = rng.randrange(1, n)
    m = n - s0
    y = random_nilpotent(rng, field, m) if kind == "uncontrollable_nil" else random_matrix(rng, field, m, m)
    block = [[rng.randrange(p) for _ in range(n)] for _ in range(s0)]
    block += [[0] * s0 + row for row in y.to_rows()]
    basis = random_invertible(rng, field, n)
    a = basis @ MatrixFF(field, block) @ basis.inverse()
    b = basis @ MatrixFF.column(field, [rng.randrange(p) for _ in range(s0)] + [0] * m)
    return LinearSystemFF(a, b)


def test_krylov_elimination_matches_dense_reference():
    """Every decomposition field, chi_A, stabilizability and the deadbeat
    gain, read off the one Krylov elimination, equal the dense products
    of ``reference_kalman_decompose`` on 3,000 seeded pairs, with a
    minimum count per branch."""
    rng = random.Random(89)
    kinds = ("random", "zero_b", "nilpotent_a", "uncontrollable_nil", "uncontrollable")
    branches = Counter()
    for i in range(3000):
        field = PrimeField((2, 3, 5, 7, 101)[rng.randrange(5)])
        n = rng.randint(1, 8)
        kind = kinds[i % 5] if n > 1 else kinds[i % 3]
        sys_ = random_pair(rng, field, n, kind)
        ref = reference_kalman_decompose(sys_)
        dec = kalman_decompose(sys_)
        assert dec == ref, (sys_, dec, ref)
        kr = _krylov(sys_)
        stabilizable = ref.A_uc.is_nilpotent()
        assert (kr.s, kr.c, kr.stabilizable) == (ref.s, ref.companion_coeffs, stabilizable)
        assert is_stabilizable(sys_) == stabilizable
        assert kr.chi == list(sys_.A.char_poly().coeffs)
        if stabilizable:
            d = rng.randrange(1, field.p)
            k = reference_deadbeat_gain(ref, d)
            assert deadbeat_gain(dec, d) == k
            assert kr.deadbeat(d) == k.to_rows()[0]
            assert (sys_.A - (sys_.b @ k).scale(d)).is_nilpotent()
        else:
            with pytest.raises(ValueError):
                deadbeat_gain(dec, 1)
        if ref.s == 0:
            branches["s = 0"] += 1
        elif ref.s == n:
            branches["s = n"] += 1
        else:
            branches["s < n, stabilizable" if stabilizable else "s < n, not stabilizable"] += 1
        branches["A nilpotent"] += sys_.A.is_nilpotent()
    assert min(branches.values()) >= 300 and len(branches) == 5, branches


def test_gain_change_is_the_char_poly_difference():
    """r = chi_(A - bK) - chi_A from the Krylov vectors equals the
    difference of the two characteristic polynomials, for random K, the
    zero K and, when there is one, the deadbeat K."""
    rng = random.Random(97)
    for i in range(600):
        field = PrimeField((2, 3, 5, 7, 101)[rng.randrange(5)])
        n = rng.randint(1, 8)
        kind = ("random", "zero_b", "nilpotent_a", "uncontrollable")[i % 4] if n > 1 else "random"
        sys_ = random_pair(rng, field, n, kind)
        kr = _krylov(sys_)
        gains = [[rng.randrange(field.p) for _ in range(n)], [0] * n]
        if kr.stabilizable:
            gains.append(kr.deadbeat(rng.randrange(1, field.p)))
        for k in gains:
            closed = (sys_.A - sys_.b @ MatrixFF.row_vector(field, k)).char_poly().coeffs
            expected = [(u - v) % field.p for u, v in zip(closed, sys_.A.char_poly().coeffs[:-1])]
            assert kr.gain_change(k) == expected, (sys_, k)


# ---------------------------------------------------------
# Stabilizability
# ---------------------------------------------------------

def test_controllable_implies_stabilizable():
    sys_ = make_sys(F3, [[0, 1], [2, 1]], [0, 1])
    assert is_stabilizable(sys_)


def test_identity_with_zero_input_not_stabilizable():
    for n in range(1, 4):
        sys_ = make_sys(F3, [[1 if i == j else 0 for j in range(n)] for i in range(n)], [0] * n)
        assert not is_stabilizable(sys_)


def test_reference_stabilizable():
    assert is_stabilizable(make_sys(F3, REF_A_ROWS, REF_B))


# ---------------------------------------------------------
# Deadbeat gain
# ---------------------------------------------------------

def test_deadbeat_on_companion_cancels_bottom_row():
    comp = [[0, 1, 0], [0, 0, 1], [2, 1, 2]]
    sys_ = make_sys(F3, comp, [0, 0, 1])
    dec = kalman_decompose(sys_)
    k = deadbeat_gain(dec, 1)
    closed = sys_.A - sys_.b @ k
    assert closed.is_nilpotent()
    assert closed.nilpotent_degree() == 3  # shift matrix


def test_deadbeat_inverse_degree_scaling():
    # with d = 2 over F_3, the companion gain is 2^-1 * a = 2 * a
    comp = [[0, 1], [1, 2]]
    sys_ = make_sys(F3, comp, [0, 1])
    dec = kalman_decompose(sys_)
    k = deadbeat_gain(dec, 2)
    closed = sys_.A - (sys_.b @ k).scale(2)
    assert closed.is_nilpotent()
    assert k.to_rows()[0] == [(2 * a) % 3 for a in dec.companion_coeffs]


def test_deadbeat_nilpotent_a_allows_zero_gain():
    sys_ = make_sys(F3, [[0, 1], [0, 0]], [1, 0])
    zero_gain = MatrixFF.zeros(F3, 1, 2)
    assert (sys_.A - (sys_.b @ zero_gain)).is_nilpotent()


def test_deadbeat_rejections():
    sys_ = make_sys(F3, [[0, 1], [2, 1]], [0, 1])
    dec = kalman_decompose(sys_)
    with pytest.raises(ValueError):
        deadbeat_gain(dec, 0)
    bad = make_sys(F3, [[1, 0], [0, 1]], [0, 0])
    with pytest.raises(ValueError):
        deadbeat_gain(kalman_decompose(bad), 1)


def test_deadbeat_postcondition_random():
    rng = random.Random(67)
    done = 0
    while done < 60:
        field = (F2, F3, F5)[rng.randrange(3)]
        n = rng.randrange(1, 6)
        sys_ = random_system(rng, field, n)
        if not is_stabilizable(sys_):
            continue
        d = rng.randrange(1, field.p)
        k = deadbeat_gain(kalman_decompose(sys_), d)
        assert (sys_.A - (sys_.b @ k).scale(d)).is_nilpotent()
        done += 1


def test_non_stabilizable_has_no_nilpotent_gain_exhaustive():
    # over all gains K in F_p^(1 x n): A - d*bK is never nilpotent
    rng = random.Random(71)
    found = 0
    while found < 12:
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 4)
        if field.p**n > 3**5:
            continue
        sys_ = random_system(rng, field, n)
        if is_stabilizable(sys_):
            continue
        found += 1
        for d in range(1, field.p):
            for kvals in itertools.product(range(field.p), repeat=n):
                k = MatrixFF.row_vector(field, kvals)
                assert not (sys_.A - (sys_.b @ k).scale(d)).is_nilpotent()


# ---------------------------------------------------------
# Cycle structure
# ---------------------------------------------------------

def test_zero_map_single_fixed_point():
    cs = autonomous_cycle_structure(MatrixFF.zeros(F3, 1, 1))
    assert cs.tree_depth == 1
    assert cs.cycles == {1: 1}
    assert cs.transient_states == 2


def test_identity_map_all_fixed():
    cs = autonomous_cycle_structure(MatrixFF.identity(F3, 1))
    assert cs.cycles == {1: 3}
    assert cs.tree_depth == 0
    assert cs.transient_states == 0


def test_reference_cycle_structure():
    cs = autonomous_cycle_structure(MatrixFF(F3, REF_A_ROWS))
    assert cs.total_states == 243
    assert cs.cycles == {1: 1, 20: 4}
    assert cs.tree_depth == 1
    assert cs.transient_states == 162


def test_enumeration_accounts_for_all_states():
    rng = random.Random(73)
    for _ in range(20):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 5)
        m = random_matrix(rng, field, n, n)
        cs = autonomous_cycle_structure(m)
        on_cycles = sum(length * count for length, count in cs.cycles.items())
        assert on_cycles + cs.transient_states == field.p**n == cs.total_states


def test_cycle_multiset_similarity_invariant():
    rng = random.Random(79)
    for _ in range(12):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(2, 5)
        m = random_matrix(rng, field, n, n)
        t = random_invertible(rng, field, n)
        conj = (t @ m) @ t.inverse()
        assert autonomous_cycle_structure(m).cycles == autonomous_cycle_structure(conj).cycles


def test_polynomial_mode_matches_enumeration_on_companions():
    # companion matrices have minimal = characteristic polynomial
    rng = random.Random(83)
    for _ in range(20):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(2, 5)
        bottom = [rng.randrange(field.p) for _ in range(n)]
        comp = MatrixFF(
            field,
            [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)] + [bottom],
        )
        assert_matches_naive(comp)


def test_nilpotent_map_depth_equals_degree():
    rng = random.Random(89)
    for _ in range(10):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 5)
        m = random_nilpotent(rng, field, n)
        cs = autonomous_cycle_structure(m)
        assert cs.cycles == {1: 1}  # only the origin survives
        assert cs.tree_depth == m.nilpotent_degree()
        assert cs.factor_orders == ()


# ---------------------------------------------------------
# Differential tests against the naive walk over every state
# ---------------------------------------------------------

F7 = PrimeField(7)
CYCLE_KINDS = ("identity", "zero", "nilpotent", "diag_bb", "permutation", "singular", "random")


def cycle_test_matrix(rng, kind, field, n):
    """A seeded n x n matrix of the given kind (n >= 2 for diag_bb, singular)."""
    if kind == "identity":
        return MatrixFF.identity(field, n)
    if kind == "zero":
        return MatrixFF.zeros(field, n, n)
    if kind == "nilpotent":
        return random_nilpotent(rng, field, n)
    if kind == "permutation":
        perm = list(range(n))
        rng.shuffle(perm)
        return MatrixFF(field, [[int(j == perm[i]) for j in range(n)] for i in range(n)])
    if kind == "random":
        return random_matrix(rng, field, n, n)
    if kind == "diag_bb":  # B repeated, plus a random scalar when n is odd
        b = random_matrix(rng, field, n // 2, n // 2)
        m = block_diag(field, [b, b] + [random_matrix(rng, field, 1, 1)] * (n % 2))
    else:  # singular, not nilpotent: an invertible block beside a nilpotent one
        r = rng.randrange(1, n)
        m = block_diag(field, [random_invertible(rng, field, r), random_nilpotent(rng, field, n - r)])
    t = random_invertible(rng, field, n)
    return (t @ m) @ t.inverse()


def assert_matches_naive(a, context=None):
    """The structure of x -> Ax equals the naive walk's; returns the latter."""
    depth, cycles, transient = naive_cycle_structure(successors_by_matmul(a))
    cs = autonomous_cycle_structure(a)
    assert (cs.tree_depth, cs.cycles, cs.transient_states) == (depth, cycles, transient), (context, a)
    assert cs.total_states == a.field.p**a.rows
    return depth, cycles, transient


def test_enumeration_matches_naive_walker():
    rng = random.Random(97)
    kinds: dict[str, int] = {}
    fields: dict[int, int] = {}
    depths, lengths = set(), set()
    for t in range(336):
        kind = CYCLE_KINDS[t % len(CYCLE_KINDS)]
        field = (F2, F3, F5, F7)[t // len(CYCLE_KINDS) % 4]
        p = field.p
        n = rng.randrange(2 if kind in ("diag_bb", "singular") else 1, 6)
        while p**n > 2500:
            n -= 1
        depth, cycles, _ = assert_matches_naive(cycle_test_matrix(rng, kind, field, n), kind)
        kinds[kind] = kinds.get(kind, 0) + 1
        fields[p] = fields.get(p, 0) + 1
        depths.add(depth)
        lengths.update(cycles)
    assert min(kinds.values()) >= 48 and min(fields.values()) >= 84
    assert {0, 1, 2, 3} <= depths and max(lengths) > 20


def test_enumeration_across_pack_slices():
    # larger state spaces: 2^13, 3^9 and 7^5 states
    rng = random.Random(103)
    for field, n in ((F2, 13), (F3, 9), (F7, 5)):
        assert_matches_naive(random_matrix(rng, field, n, n))


# Moduli from 11 to 1009 (one, two and three coordinates), and state
# spaces of up to 2^16 and 3^10 states over F_2 and F_3.
GROUP_SHAPES = [
    (11, 3), (13, 3), (17, 3), (251, 2),
    (257, 1), (257, 2), (1009, 1),
    (2, 8), (2, 9), (2, 16), (3, 5), (3, 6), (3, 10),
]


@pytest.mark.parametrize("p,n", GROUP_SHAPES)
def test_enumeration_across_group_shapes(p, n):
    field = PrimeField(p)
    rng = random.Random(1000 * p + n)
    kinds = CYCLE_KINDS if p**n <= 3000 else ("random", "singular")
    for kind in kinds:
        if n < 2 and kind in ("diag_bb", "singular"):
            continue
        assert_matches_naive(cycle_test_matrix(rng, kind, field, n), kind)


def minimal_poly_degree(a):
    """Rank of I, A, ..., A^(n-1) as vectors: n iff A is cyclic."""
    power = MatrixFF.identity(a.field, a.rows)
    flat = []
    for _ in range(a.rows):
        flat.append([v for row in power.to_rows() for v in row])
        power = power @ a
    return MatrixFF(a.field, flat).rank()


def test_polynomial_mode_matches_enumeration():
    rng = random.Random(101)
    non_cyclic = 0
    for t in range(420):
        kind = CYCLE_KINDS[t % len(CYCLE_KINDS)]
        field = (F2, F3)[t // len(CYCLE_KINDS) % 2]
        n = rng.randrange(2 if kind in ("diag_bb", "singular") else 1, 7)
        a = cycle_test_matrix(rng, kind, field, n)
        assert_matches_naive(a, kind)
        non_cyclic += minimal_poly_degree(a) < n
    assert non_cyclic >= 105


def test_polynomial_mode_non_cyclic_regressions():
    # the identity and zero maps, whose minimal polynomial is not x^n or (x-1)^n
    ident = autonomous_cycle_structure(MatrixFF.identity(F3, 2))
    assert (ident.cycles, ident.tree_depth, ident.transient_states) == ({1: 9}, 0, 0)
    zero = autonomous_cycle_structure(MatrixFF.zeros(F3, 3, 3))
    assert (zero.cycles, zero.tree_depth, zero.transient_states) == ({1: 1}, 1, 26)


def test_polynomial_mode_computes_one_base_order_per_factor(monkeypatch):
    # [[B, I], [0, B]] over F_3 with chi_B = (x - 1)(x^2 + 1): two factors of
    # multiplicity 2 whose squares both carry states, so orders mod g and
    # mod g^2 are both needed; the latter lifts the former
    from ffconsensus import linsys

    b = [[0, 1, 0], [0, 0, 1], [1, 2, 1]]  # companion of x^3 - x^2 + x - 1
    a = MatrixFF(F3, [row + [int(i == j) for j in range(3)] for i, row in enumerate(b)]
                 + [[0] * 3 + row for row in b])
    calls = []
    original = linsys._order_mod_irreducible
    monkeypatch.setattr(linsys, "_order_mod_irreducible", lambda g: calls.append(g) or original(g))
    depth, cycles, _ = assert_matches_naive(a)
    assert len(calls) == 2
    assert (cycles, depth) == ({1: 3, 3: 2, 4: 6, 12: 58}, 0)


def test_packed_kernel_dims_match_matrix_references():
    """Nullities of g(A)^k from packed powers and packed elimination against
    Horner on MatrixFF products and list ranks, for x^s and every factor g^e
    of chi_A, n <= 16; the packed path stops at the first nullity that fills
    the g-primary component, which the references never do."""
    rng = random.Random(2803)
    kinds, deep, stopped = Counter(), 0, 0
    for t in range(192):
        kind = STRUCTURED_KINDS[t % len(STRUCTURED_KINDS)]
        field = (F2, F3, F5, F7)[t // len(STRUCTURED_KINDS) % 4]
        a = structured_matrix(rng, kind, field, rng.randint(3, 16))
        s, q = split_nilpotent_bijective(a.char_poly())
        for g, e in [(PolyFF.x(field), s)] + factor(q)[1]:
            dims = reference_kernel_dims(g, a, e)
            assert _kernel_dims(g, a, e) == dims, (kind, a, g, e)
            deep += e >= 3
            stopped += g.degree * e in dims[1:-2]
        kinds[kind] += 1
    assert min(kinds.values()) >= 32, kinds
    assert deep >= 120 and stopped >= 100, (deep, stopped)


def test_cycle_structure_takes_no_matrix_product(monkeypatch):
    # the nullities of g(A)^k come from packed rows: no MatrixFF product and
    # no list rank, on diag(B, B) (g^2 for each factor g of chi_B) and on a
    # matrix with an x^2 factor (depth 2), as on the rest of the sweep
    rng = random.Random(2804)
    b = random_matrix(rng, F3, 3, 3)
    t = random_invertible(rng, F3, 6)
    cases = [
        (t @ block_diag(F3, [b, b])) @ t.inverse(),
        (t @ block_diag(F3, [companion(F3, [0, 0, 1]), random_invertible(rng, F3, 4)])) @ t.inverse(),
    ]
    naive = [naive_cycle_structure(successors_by_matmul(a)) for a in cases]
    calls = []
    for name in ("__matmul__", "rank"):
        real = getattr(MatrixFF, name)
        monkeypatch.setattr(MatrixFF, name, lambda *args, _real=real: calls.append(args) or _real(*args))
    found = [autonomous_cycle_structure(a) for a in cases]
    assert not calls
    assert [(cs.tree_depth, cs.cycles, cs.transient_states) for cs in found] == naive
    assert found[1].tree_depth == 2 and any(e == 2 for _, e, _ in found[0].factor_orders)


def test_empty_matrix_cycle_structure():
    empty = MatrixFF.zeros(F3, 0, 0)
    assert assert_matches_naive(empty) == (0, {1: 1}, 0)
    assert autonomous_cycle_structure(empty).factor_orders == ()


def shift_matrix(field, n):
    """The nilpotent shift e_(j+1) -> e_j: depth n, kernel of dimension 1."""
    return MatrixFF(field, [[int(j == i + 1) for j in range(n)] for i in range(n)])


# Deep transients: a shift of size k beside an invertible block of size r,
# conjugated by a random basis, has tree depth k and p^(k+r) - p^r
# transient states.
@pytest.mark.parametrize(
    "field,k,r",
    [(F2, 14, 0), (F3, 4, 5), (F7, 3, 2)],
    ids=["shift14_F2", "shift4_inv5_F3", "shift3_inv2_F7"],
)
def test_enumeration_deep_transients_on_folded_tables(field, k, r):
    p, n = field.p, k + r
    rng = random.Random(100 * p + n)
    blocks = [shift_matrix(field, k)]
    if r:
        blocks.append(random_invertible(rng, field, r))
    t = random_invertible(rng, field, n)
    depth, _, transient = assert_matches_naive((t @ block_diag(field, blocks)) @ t.inverse())
    assert (depth, transient) == (k, p**n - p**r)
