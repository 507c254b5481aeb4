import itertools
import json
import random
from pathlib import Path

import pytest

from ffconsensus import (
    LinearSystemFF,
    MatrixFF,
    PrimeField,
    VectorFF,
    autonomous_cycle_structure,
    controllability_matrix,
    deadbeat_gain,
    is_stabilizable,
    kalman_decompose,
)
from ffconsensus.linsys import _successor_table

from conftest import (
    F2,
    F3,
    F5,
    REF_A_ROWS,
    REF_B,
    random_invertible,
    random_matrix,
    random_nilpotent,
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
    q_inv = dec.Q.inverse()
    assert (dec.Q @ sys_.A) @ q_inv == dec.assemble()
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
        enum = autonomous_cycle_structure(comp, mode="enumeration")
        poly = autonomous_cycle_structure(comp, mode="polynomial")
        assert enum.cycles == poly.cycles
        assert enum.transient_states == poly.transient_states


def test_enumeration_bound_guard():
    big = MatrixFF.identity(F5, 10)
    with pytest.raises(ValueError):
        autonomous_cycle_structure(big, state_bound=10**4)


def test_nilpotent_map_depth_equals_degree():
    rng = random.Random(89)
    for _ in range(10):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 5)
        m = random_nilpotent(rng, field, n)
        cs = autonomous_cycle_structure(m)
        assert cs.cycles == {1: 1}  # only the origin survives
        assert cs.tree_depth == m.nilpotent_degree()


# ---------------------------------------------------------
# Differential tests of both cycle-structure modes
# ---------------------------------------------------------

F7 = PrimeField(7)
CYCLE_KINDS = ("identity", "zero", "nilpotent", "diag_bb", "permutation", "singular", "random")


def block_diag(field, blocks):
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b.to_rows()):
            rows[at + i][at : at + b.rows] = row
        at += b.rows
    return MatrixFF(field, rows)


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


def unpack(x, p, n):
    return [x // p**j % p for j in range(n)]


def naive_cycle_structure(succ):
    """Iterate every state until it repeats or meets a known cycle state."""
    cycle_len: dict[int, int] = {}  # state on a cycle -> its cycle's length
    depth = 0
    for x in range(len(succ)):
        seen: dict[int, int] = {}  # state -> steps from x
        v = x
        while v not in seen and v not in cycle_len:
            seen[v] = len(seen)
            v = succ[v]
        if v in seen:  # a new cycle, entered seen[v] steps from x
            tail = seen[v]
            for u, k in seen.items():
                if k >= tail:
                    cycle_len[u] = len(seen) - tail
        else:
            tail = len(seen)
        depth = max(depth, tail)
    cycles: dict[int, int] = {}
    for length in cycle_len.values():
        cycles[length] = cycles.get(length, 0) + 1
    return depth, {l: c // l for l, c in cycles.items()}, len(succ) - len(cycle_len)


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
        a = cycle_test_matrix(rng, kind, field, n)
        expected = []
        for x in range(p**n):
            y = (a @ VectorFF(field, unpack(x, p, n))).to_ints()
            expected.append(sum(c * p**j for j, c in enumerate(y)))
        assert _successor_table(a) == expected, (kind, a)

        cs = autonomous_cycle_structure(a)
        depth, cycles, transient = naive_cycle_structure(expected)
        assert (cs.tree_depth, cs.cycles, cs.transient_states) == (depth, cycles, transient), (kind, a)
        assert cs.total_states == p**n
        kinds[kind] = kinds.get(kind, 0) + 1
        fields[p] = fields.get(p, 0) + 1
        depths.add(depth)
        lengths.update(cycles)
    assert min(kinds.values()) >= 48 and min(fields.values()) >= 84
    assert {0, 1, 2, 3} <= depths and max(lengths) > 20


def test_enumeration_across_pack_slices():
    # state spaces larger than one packing slice (linsys._PACK_SLICE states)
    rng = random.Random(103)
    for field, n in ((F2, 13), (F3, 9), (F7, 5)):
        p = field.p
        a = random_matrix(rng, field, n, n)
        expected = []
        for x in range(p**n):
            y = (a @ VectorFF(field, unpack(x, p, n))).to_ints()
            expected.append(sum(c * p**j for j, c in enumerate(y)))
        assert _successor_table(a) == expected
        cs = autonomous_cycle_structure(a)
        assert (cs.tree_depth, cs.cycles, cs.transient_states) == naive_cycle_structure(expected)


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
        enum = autonomous_cycle_structure(a, mode="enumeration")
        poly = autonomous_cycle_structure(a, mode="polynomial")
        assert (poly.tree_depth, poly.cycles, poly.transient_states, poly.total_states) == (
            enum.tree_depth, enum.cycles, enum.transient_states, enum.total_states
        ), (kind, a)
        non_cyclic += minimal_poly_degree(a) < n
    assert non_cyclic >= 105


def test_polynomial_mode_non_cyclic_regressions():
    # the identity and zero maps, whose minimal polynomial is not x^n or (x-1)^n
    ident = autonomous_cycle_structure(MatrixFF.identity(F3, 2), mode="polynomial")
    assert (ident.cycles, ident.tree_depth, ident.transient_states) == ({1: 9}, 0, 0)
    zero = autonomous_cycle_structure(MatrixFF.zeros(F3, 3, 3), mode="polynomial")
    assert (zero.cycles, zero.tree_depth, zero.transient_states) == ({1: 1}, 1, 26)


def test_empty_matrix_cycle_structure():
    empty = MatrixFF.zeros(F3, 0, 0)
    for mode in ("enumeration", "polynomial"):
        cs = autonomous_cycle_structure(empty, mode=mode)
        assert (cs.cycles, cs.tree_depth, cs.total_states, cs.transient_states) == ({1: 1}, 0, 1, 0)
