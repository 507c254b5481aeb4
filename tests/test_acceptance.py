"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact (finite-field arithmetic has no tolerance);
criteria with a runtime budget assert it.
"""

import itertools
import random
import time

from ffconsensus import (
    LeaderFollowerNetwork,
    LinearSystemFF,
    MatrixFF,
    NetworkState,
    SwitchingSignal,
    VectorFF,
    WeightedDigraphFF,
    autonomous_cycle_structure,
    blockwise_nilpotency_check,
    convergence_bound,
    error_dynamics_matrix,
    exhaustive_consensus_oracle,
    is_irreducible,
    is_stabilizable,
    kalman_decompose,
    kron,
    order_of_x_mod,
    random_state,
    simulate,
    split_nilpotent_bijective,
    synthesize_gain,
)

from conftest import (
    F2,
    F3,
    REF_A_ROWS,
    REF_B,
    REF_GAIN,
    error_vectors,
    mat_power,
    naive_cycle_structure,
    random_matrix,
    random_network,
    random_nilpotent,
    successors_by_matmul,
)


def _criterion(num: int, label: str, problems: list[str]) -> None:
    ok = not problems
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {problems[:5]}"


def ref_sys():
    return LinearSystemFF(MatrixFF(F3, REF_A_ROWS), MatrixFF.column(F3, REF_B))


def ref_graphs():
    g1 = WeightedDigraphFF(F3, 4, [(0, 1, 1), (1, 2, 2), (0, 2, 2), (2, 3, 1), (3, 4, 1)])
    g2 = WeightedDigraphFF(F3, 4, [(0, 1, 1), (0, 2, 1), (1, 4, 2), (2, 4, 2), (1, 3, 1)])
    return g1, g2


# ---------------------------------------------------------------------
# Criterion 1: characteristic structure of the reference system
# ---------------------------------------------------------------------

def test_criterion_1_characteristic_structure():
    problems = []
    start = time.perf_counter()

    a = MatrixFF(F3, REF_A_ROWS)
    cp = a.char_poly()
    s, q = split_nilpotent_bijective(cp)
    if s != 1:
        problems.append(f"multiplicity of the zero root is {s}, expected 1")
    if q.degree != 4:
        problems.append(f"bijective factor has degree {q.degree}, expected 4")
    if q.eval(0) == 0:
        problems.append("bijective factor vanishes at 0")
    if not is_irreducible(q):
        problems.append(f"bijective factor {q.format()} is reducible")
    if order_of_x_mod(q) != 20:
        problems.append(f"order of x mod {q.format()} is {order_of_x_mod(q)}, expected 20")

    cs = autonomous_cycle_structure(a)
    if cs.total_states != 243:
        problems.append(f"counted {cs.total_states} states, expected 3^5 = 243")
    # the bijective part has 3^4 = 81 states: the origin plus
    # (81 - 1) / 20 = 4 cycles of length 20
    if cs.cycles != {1: 1, 20: 4}:
        problems.append(f"cycle multiset {cs.cycles}, expected one fixed point and four 20-cycles")
    on_cycles = sum(length * count for length, count in cs.cycles.items())
    if on_cycles != 81:
        problems.append(f"{on_cycles} states on cycles, expected 81")
    if naive_cycle_structure(successors_by_matmul(a)) != (cs.tree_depth, cs.cycles, cs.transient_states):
        problems.append("the structure disagrees with the naive walk over all 243 states")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _criterion(1, "characteristic structure: x*Q(x), Q irreducible quartic, "
                  "order 20, cycles {1} + 4 x {20}", problems)


# ---------------------------------------------------------------------
# Criterion 2: stabilizability and gains
# ---------------------------------------------------------------------

def test_criterion_2_stabilizability_and_gain():
    problems = []
    start = time.perf_counter()

    sys_ = ref_sys()
    if not is_stabilizable(sys_):
        problems.append("reference pair reported not stabilizable")
    dec = kalman_decompose(sys_)
    if dec.s != 4:
        problems.append(f"controllable dimension {dec.s}, expected 4")
    if dec.A_uc.to_rows() != [[0]]:
        problems.append(f"uncontrollable block {dec.A_uc.to_rows()}, expected [[0]]")

    handcrafted = MatrixFF.row_vector(F3, REF_GAIN)
    if not mat_power(sys_.A - sys_.b @ handcrafted, 5).is_zero():
        problems.append("(A - bK)^5 != 0 for the handcrafted gain")

    g1, g2 = ref_graphs()
    net = LeaderFollowerNetwork(sys=sys_, graphs=(g1, g2))
    synthesized = synthesize_gain(net)  # common degree d = 1
    if not mat_power(sys_.A - sys_.b @ synthesized, 5).is_zero():
        problems.append("(A - bK')^5 != 0 for the synthesized gain")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _criterion(2, "stabilizable, s = 4 with 1x1 zero uncontrollable block, "
                  "both gains deadbeat within 5 steps", problems)


# ---------------------------------------------------------------------
# Criterion 3: switching consensus at reference scale
# ---------------------------------------------------------------------

def test_criterion_3_switching_consensus_within_bound():
    problems = []
    start = time.perf_counter()

    g1, g2 = ref_graphs()
    net = LeaderFollowerNetwork(sys=ref_sys(), graphs=(g1, g2))
    net = net.with_gain(synthesize_gain(net))
    t_bound = convergence_bound(net)
    horizon = t_bound + 5

    rng = random.Random(2024)
    for trial in range(100):
        init = random_state(F3, 5, 4, rng)
        signal = SwitchingSignal(kind="random", num_graphs=2, seed=rng.randrange(10**9))
        traj = simulate(net, init, signal=signal, horizon=horizon)
        if traj.consensus_step is None or traj.consensus_step > t_bound:
            problems.append(
                f"trial {trial}: consensus step {traj.consensus_step} exceeds bound {t_bound}"
            )
            continue
        for k in range(t_bound, horizon + 1):
            if any(traj.errors[k]):
                problems.append(f"trial {trial}: error resurfaced at step {k}")
                break

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _criterion(3, f"100 random inits x random switching all reach zero error "
                  f"by T = {t_bound} and stay there", problems)


# ---------------------------------------------------------------------
# Criterion 4: achievability characterization, exhaustively checked
# ---------------------------------------------------------------------

def _all_dag_follower_supports(num_followers):
    pairs = [
        (i, j)
        for i in range(1, num_followers + 1)
        for j in range(1, num_followers + 1)
        if i != j
    ]
    supports = []
    for bits in range(1 << len(pairs)):
        chosen = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        probe = WeightedDigraphFF(F2, num_followers, [(s, t, 1) for s, t in chosen])
        if probe.is_dag():
            supports.append(chosen)
    return supports


def _gain_exists(sys_, graph, p, n):
    eye = MatrixFF.identity(graph.field, graph.num_followers)
    i_kron_a = kron(eye, sys_.A)
    a_bar, d_bar = graph.adjacency_matrices()
    coupling = a_bar - d_bar
    for kvals in itertools.product(range(p), repeat=n):
        bk = sys_.b @ MatrixFF.row_vector(graph.field, kvals)
        m = i_kron_a + kron(coupling, bk)
        if m.is_nilpotent():
            return True
    return False


def _one_nonzero_degree(graph):
    """The paper's graph condition for an acyclic graph: every follower
    has the same in-degree, and it is nonzero mod p."""
    degrees = set(graph.in_degrees().values())
    return len(degrees) == 1 and 0 not in degrees


def _achievability_predicted(sys_, graph):
    if sys_.A.is_nilpotent():
        return True
    return is_stabilizable(sys_) and _one_nonzero_degree(graph)


def test_criterion_4_achievability_iff():
    problems = []
    start = time.perf_counter()

    # F_2: the product space is below 1e5, enumerate it completely
    checked = 0
    for n in (1, 2):
        systems = [
            LinearSystemFF(
                MatrixFF(F2, [list(row[i * n : (i + 1) * n]) for i in range(n)]),
                MatrixFF.column(F2, bvals),
            )
            for row in [list(bits) for bits in itertools.product(range(2), repeat=n * n)]
            for bvals in itertools.product(range(2), repeat=n)
        ]
        sys_facts = [(s, _achievability_predicted_parts(s)) for s in systems]
        for num_followers in (1, 2, 3):
            supports = _all_dag_follower_supports(num_followers)
            for chosen in supports:
                for leader_w in itertools.product(range(2), repeat=num_followers):
                    edges = [(s, t, 1) for s, t in chosen] + [
                        (0, i + 1, w) for i, w in enumerate(leader_w) if w
                    ]
                    graph = WeightedDigraphFF(F2, num_followers, edges)
                    deg_ok = _one_nonzero_degree(graph)
                    for sys_, (a_nil, stab) in sys_facts:
                        predicted = a_nil or (stab and deg_ok)
                        found = _gain_exists(sys_, graph, 2, sys_.dim)
                        checked += 1
                        if predicted != found:
                            problems.append(
                                f"F_2 mismatch: A={sys_.A.to_rows()} b={sys_.b.to_rows()} "
                                f"graph={graph.edges()} predicted={predicted} found={found}"
                            )
    f2_count = checked

    # F_3: the product space exceeds 1e5, use a seeded sample
    rng = random.Random(424242)
    for _ in range(1200):
        n = rng.randrange(1, 3)
        num_followers = rng.randrange(1, 4)
        sys_ = LinearSystemFF(
            random_matrix(rng, F3, n, n),
            MatrixFF.column(F3, [rng.randrange(3) for _ in range(n)]),
        )
        while True:
            edges = []
            order = list(range(1, num_followers + 1))
            rng.shuffle(order)
            for i in range(num_followers):
                for j in range(i + 1, num_followers):
                    if rng.random() < 0.5:
                        edges.append((order[i], order[j], rng.randrange(1, 3)))
            for i in range(1, num_followers + 1):
                w = rng.randrange(3)
                if w:
                    edges.append((0, i, w))
            graph = WeightedDigraphFF(F3, num_followers, edges)
            if graph.is_dag():
                break
        predicted = _achievability_predicted(sys_, graph)
        found = _gain_exists(sys_, graph, 3, n)
        checked += 1
        if predicted != found:
            problems.append(
                f"F_3 mismatch: A={sys_.A.to_rows()} b={sys_.b.to_rows()} "
                f"graph={graph.edges()} predicted={predicted} found={found}"
            )

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 60s")
    _criterion(4, f"gain exists iff A nilpotent or (stabilizable and uniform "
                  f"nonzero degree): {f2_count} exhaustive F_2 + "
                  f"{checked - f2_count} sampled F_3 instances, zero mismatches", problems)


def _achievability_predicted_parts(sys_):
    return sys_.A.is_nilpotent(), is_stabilizable(sys_)


# ---------------------------------------------------------------------
# Criterion 5: structural nilpotency suite
# ---------------------------------------------------------------------

def _assemble_blocks(field, blocks):
    """Block upper-triangular matrix from a dict {(i, j): MatrixFF}."""
    s = max(i for i, _ in blocks) + 1
    n = blocks[(0, 0)].rows
    rows = [[0] * (n * s) for _ in range(n * s)]
    for (bi, bj), blk in blocks.items():
        for i in range(n):
            for j in range(n):
                rows[bi * n + i][bj * n + j] = blk.entry_int(i, j)
    return MatrixFF(field, rows)


def test_criterion_5_structural_nilpotency():
    problems = []
    rng = random.Random(555)

    # (a) block-triangular pairs: degree of the composite <= k1 + k2
    for trial in range(1000):
        field = (F2, F3)[rng.randrange(2)]
        n1, n2 = rng.randrange(1, 4), rng.randrange(1, 4)
        a1, a3 = random_nilpotent(rng, field, n1), random_nilpotent(rng, field, n2)
        x = random_matrix(rng, field, n1, n2)
        rows = [
            [a1.entry_int(i, j) for j in range(n1)] + [x.entry_int(i, j) for j in range(n2)]
            for i in range(n1)
        ] + [[0] * n1 + [a3.entry_int(i, j) for j in range(n2)] for i in range(n2)]
        composite = MatrixFF(field, rows)
        k = composite.nilpotent_degree()
        k1, k2 = a1.nilpotent_degree(), a3.nilpotent_degree()
        if k is None or k > k1 + k2:
            problems.append(f"pair trial {trial}: degree {k} vs bound {k1}+{k2}")

    # (b) one block matrix with s nilpotent diagonal blocks: degree <= n*s
    for trial in range(200):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 3)
        s = rng.randrange(2, 5)
        blocks = {}
        for i in range(s):
            blocks[(i, i)] = random_nilpotent(rng, field, n)
            for j in range(i + 1, s):
                blocks[(i, j)] = random_matrix(rng, field, n, n)
        composite = _assemble_blocks(field, blocks)
        k = composite.nilpotent_degree()
        if k is None or k > n * s:
            problems.append(f"block-matrix trial {trial}: degree {k} vs bound {n * s}")

    _criterion(5, "block-triangular degree bounds: "
                  "1000 pairs, 200 block matrices, "
                  "zero violations", problems)


# ---------------------------------------------------------------------
# Criterion 6: cross-representation consistency
# ---------------------------------------------------------------------

def test_criterion_6_cross_representation_consistency():
    problems = []
    rng = random.Random(666)

    for trial in range(200):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 4)
        nf = rng.randrange(1, 4)
        q = rng.randrange(1, 3)
        net = random_network(rng, field, n=n, num_followers=nf, num_graphs=q)
        mats = [error_dynamics_matrix(net, i) for i in range(q)]

        # stepwise simulation vs matrix products, every step
        init = random_state(field, n, nf, rng)
        signal = (
            SwitchingSignal(kind="random", num_graphs=q, seed=rng.randrange(10**6))
            if q > 1
            else None
        )
        traj = simulate(net, init, signal=signal, horizon=6)
        delta = []
        for d in error_vectors(traj.states[0], field.p):
            delta.extend(d)
        for k in range(1, 7):
            m = mats[traj.signal_indices[k - 1]]
            delta = [
                sum(m.entry_int(i, j) * delta[j] for j in range(len(delta))) % field.p
                for i in range(len(delta))
            ]
            observed = []
            for d in error_vectors(traj.states[k], field.p):
                observed.extend(d)
            if delta != observed:
                problems.append(f"trial {trial}: simulation diverges from matrix product at step {k}")
                break

        # blockwise check vs direct nilpotency (graphs are DAGs by construction)
        for gi in range(q):
            block = all(blockwise_nilpotency_check(net, gi).values())
            direct = mats[gi].is_nilpotent()
            if block != direct:
                problems.append(f"trial {trial} graph {gi}: blockwise {block} vs direct {direct}")

        # exhaustive oracle vs nilpotency, static case within bounds
        if field.p ** (n * nf) <= 3**5:
            static_net = LeaderFollowerNetwork(sys=net.sys, graphs=(net.graphs[0],), gain=net.gain)
            oracle = exhaustive_consensus_oracle(static_net, horizon=max(1, nf * n))
            if oracle != mats[0].is_nilpotent():
                problems.append(f"trial {trial}: oracle {oracle} vs nilpotency {mats[0].is_nilpotent()}")

    _criterion(6, "200 random networks: simulation = matrix products, "
                  "blockwise = direct, oracle = nilpotency", problems)


# ---------------------------------------------------------------------
# Criterion 7: negative control in place of the unpublishable trace plot
# ---------------------------------------------------------------------

def test_criterion_7_negative_control_on_cycle():
    problems = []
    a = MatrixFF(F3, REF_A_ROWS)
    sys_ = ref_sys()
    g1, _ = ref_graphs()
    net = LeaderFollowerNetwork(sys=sys_, graphs=(g1,), gain=MatrixFF.zeros(F3, 1, 5))

    if a.is_nilpotent():
        problems.append("control requires a non-nilpotent A")

    # project an arbitrary state into the bijective part: it lies on a cycle
    seed_vec = VectorFF(F3, [1, 0, 0, 0, 0])
    cycle_state = mat_power(a, 5) @ seed_vec
    if cycle_state == VectorFF(F3, [0] * 5):
        problems.append("projected state collapsed to zero; pick a different seed vector")
    if not (mat_power(a, 20) @ cycle_state) == cycle_state:
        problems.append("projected state is not periodic with period dividing 20")

    zero = (0,) * 5
    init = NetworkState(step=0, leader=zero, followers=(cycle_state.entries, zero, zero, zero))
    horizon = 10 * (4 * 5)  # ten times the static degree bound
    traj = simulate(net, init, horizon=horizon)
    if traj.consensus_step is not None:
        problems.append(f"zero-gain network converged at step {traj.consensus_step}")
    if not all(e[0] for e in traj.errors):
        problems.append("error of the cycle-seeded follower vanished at some step")

    _criterion(7, "with zero gain and non-nilpotent A, a cycle-seeded error "
                  f"never dies within {horizon} steps", problems)
