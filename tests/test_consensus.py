import collections
import itertools
import math
import random

import pytest

from ffconsensus import (
    LeaderFollowerNetwork,
    LinearSystemFF,
    MatrixFF,
    PrimeField,
    WeightedDigraphFF,
    analyze,
    blockwise_nilpotency_check,
    check_static,
    check_switching,
    consensus,
    controllability_matrix,
    convergence_bound,
    deadbeat_gain,
    error_dynamics_matrix,
    exhaustive_consensus_oracle,
    is_stabilizable,
    kalman_decompose,
    kron,
    synthesize_gain,
    union,
)
from ffconsensus.consensus import GainSynthesisError
from ffconsensus.linsys import _krylov

from conftest import (
    F2,
    F3,
    F5,
    REF_GAIN,
    mat_power,
    random_dag_graph,
    random_invertible,
    random_matrix,
    random_network,
    random_nilpotent,
    random_scc_graph,
    reference_reached,
)


def single_graph_net(field, a_rows, b_entries, edges, num_followers, gain=None):
    sys_ = LinearSystemFF(MatrixFF(field, a_rows), MatrixFF.column(field, b_entries))
    g = WeightedDigraphFF(field, num_followers, edges)
    k = MatrixFF.row_vector(field, gain) if gain is not None else None
    return LeaderFollowerNetwork(sys=sys_, graphs=(g,), gain=k)


# ---------------------------------------------------------
# Error dynamics matrix
# ---------------------------------------------------------

def test_error_matrix_isolated_follower_is_a():
    net = single_graph_net(F3, [[1, 1], [0, 1]], [0, 1], [], 1, gain=[1, 2])
    assert error_dynamics_matrix(net) == net.sys.A


def test_error_matrix_single_leader_edge():
    d = 2
    net = single_graph_net(F3, [[1, 1], [0, 1]], [0, 1], [(0, 1, d)], 1, gain=[1, 2])
    expected = net.sys.A - (net.sys.b @ net.gain).scale(d)
    assert error_dynamics_matrix(net) == expected


def test_error_matrix_requires_gain():
    net = single_graph_net(F3, [[1]], [1], [(0, 1, 1)], 1)
    with pytest.raises(ValueError):
        error_dynamics_matrix(net)


def test_error_matrix_structure_against_kron_assembly():
    rng = random.Random(101)
    for _ in range(20):
        net = random_network(rng, F3, n=2, num_followers=3)
        g = net.graphs[0]
        a_bar, d_bar = g.adjacency_matrices()
        expected = kron(MatrixFF.identity(F3, 3), net.sys.A) + kron(
            a_bar - d_bar, net.sys.b @ net.gain
        )
        assert error_dynamics_matrix(net) == expected


# ---------------------------------------------------------
# Blockwise nilpotency
# ---------------------------------------------------------

def test_blockwise_all_true_by_construction(ref_network):
    k = synthesize_gain(ref_network)
    net = ref_network.with_gain(k)
    assert all(blockwise_nilpotency_check(net, 0).values())
    assert all(blockwise_nilpotency_check(net, 1).values())


def test_reference_error_matrices_vanish_within_size(ref_network):
    net = ref_network.with_gain(synthesize_gain(ref_network))
    for gi in range(2):
        m = error_dynamics_matrix(net, gi)
        assert m.rows == 20  # N*n stacked errors
        assert mat_power(m, 20).is_zero()


def test_blockwise_zero_gain_non_nilpotent_a():
    net = single_graph_net(F3, [[1, 0], [0, 1]], [0, 1], [(0, 1, 1)], 1, gain=[0, 0])
    assert blockwise_nilpotency_check(net) == {1: False}


def test_blockwise_rejects_cyclic_graph():
    net = single_graph_net(F3, [[1]], [1], [(1, 2, 1), (2, 1, 1)], 2, gain=[1])
    with pytest.raises(ValueError):
        blockwise_nilpotency_check(net)


def test_blockwise_agrees_with_direct_nilpotency():
    rng = random.Random(103)
    for _ in range(40):
        field = (F2, F3)[rng.randrange(2)]
        net = random_network(rng, field, n=rng.randrange(1, 4), num_followers=rng.randrange(1, 5))
        block = all(blockwise_nilpotency_check(net, 0).values())
        direct = error_dynamics_matrix(net, 0).is_nilpotent()
        assert block == direct


def test_blockwise_tests_each_distinct_block_once(monkeypatch):
    # a 40-follower chain with one degree has 40 equal blocks A - d bK,
    # decided by comparing the scalars H_ii and mu*, with no matrix test
    net = single_graph_net(
        F3, [[1, 1], [0, 1]], [0, 1], [(0, 1, 1)] + [(i, i + 1, 1) for i in range(1, 40)], 40,
        gain=[1, 2],
    )
    calls = []
    original = MatrixFF.is_nilpotent
    monkeypatch.setattr(MatrixFF, "is_nilpotent", lambda m: calls.append(m.rows) or original(m))
    assert blockwise_nilpotency_check(net) == {i: True for i in range(1, 41)}
    assert calls == []
    # 20 chained 2-cycles with the one block H_SS = [[1, 2], [1, 0]] (d = 2):
    # one 2 x 2 test of H_SS - 2 I, the eigenvalue's, with or without a gain.
    # The gain is never tested on its own: the graph passes under the deadbeat
    # gain [2, 1] as its (d, S) is (mu*, None) = (2, None), and fails under
    # [1, 2], whose mu* = 1 is not d
    pairs = WeightedDigraphFF(F3, 40, [e for k in range(1, 21)
                                       for e in ((2 * k, 2 * k - 1, 1), (2 * k - 1, 2 * k, 2), (2 * k - 2, 2 * k, 1))])
    for gain, verdict, tests in ((None, "inconclusive", [2]), ([2, 1], "guaranteed", [2]), ([1, 2], "impossible", [2])):
        calls.clear()
        k = None if gain is None else MatrixFF.row_vector(F3, gain)
        assert analyze(LeaderFollowerNetwork(sys=net.sys, graphs=(pairs,), gain=k)).verdict == verdict
        assert calls == tests


def test_ring_gain_decided_without_kronecker_blocks(ref_system, monkeypatch):
    # a leader edge into follower 1 and a directed ring of N = 80 followers,
    # all in-degrees 2: one cyclic SCC whose dense error block has N*n = 400
    # rows; the rule needs the 5 x 5 char polys and one N x N test
    N = 80
    g = WeightedDigraphFF(F3, N, [(0, 1, 1), (N, 1, 1)] + [(i, i + 1, 2) for i in range(1, N)])
    net = LeaderFollowerNetwork(sys=ref_system, graphs=(g,), gain=MatrixFF.row_vector(F3, REF_GAIN))

    def no_kron(*args):
        raise AssertionError("kron called")

    monkeypatch.setattr(consensus, "kron", no_kron)
    sizes = []
    original = MatrixFF.nilpotent_degree
    monkeypatch.setattr(MatrixFF, "nilpotent_degree", lambda m: sizes.append(m.rows) or original(m))
    report = analyze(net)
    assert report.verdict == "impossible"
    assert report.diagnostics["error_matrix_blocks"] == {"count": 1, "max_dim": N * 5}
    assert max(sizes, default=0) <= N, sizes


def _graph_with_laplacian(rng, field, h):
    """A follower graph with H = Dbar - Abar = h: the edge j -> i carries
    -h_ij and the leader edge into i the row sum of h; self-loops, which
    change neither, are sprinkled."""
    p, N = field.p, h.rows
    h = h.to_rows()
    edges = [(j + 1, i + 1, -h[i][j] % p) for i in range(N) for j in range(N) if i != j and h[i][j]]
    edges += [(0, i + 1, sum(h[i]) % p) for i in range(N) if sum(h[i]) % p]
    edges += [(i, i, rng.randrange(1, p)) for i in range(1, N + 1) if rng.random() < 0.3]
    g = WeightedDigraphFF(field, N, edges)
    a_bar, d_bar = g.adjacency_matrices()
    assert (d_bar - a_bar).to_rows() == h
    return g


def _one_eigenvalue(rng, field, N, mu):
    """T (mu I + strictly upper) T^-1 for a random invertible T."""
    t = random_invertible(rng, field, N)
    upper = MatrixFF(field, [[mu if j == i else rng.randrange(field.p) if j > i else 0 for j in range(N)]
                             for i in range(N)])
    return t @ upper @ t.inverse()


def test_eigenvalue_read_off_chi_when_p_divides_the_block():
    """d = -c_(m-q) / m' for a block of size m = q m', q the power of p in
    m, on strongly connected graphs whose H is T (d I + strictly upper)
    T^-1 (one eigenvalue d, 0 included); with one diagonal entry of
    d I + strictly upper changed (two eigenvalues) some SCC fails, the
    whole graph's when it is strongly connected."""
    rng = random.Random(3301)
    for field, m in ((F2, 2), (F2, 4), (F2, 6), (F2, 8), (F3, 3), (F3, 6), (F3, 9), (F5, 5), (F5, 10)):
        p, comp = field.p, tuple(range(1, m + 1))
        for d in range(p):
            for _ in range(3):
                g = _graph_with_laplacian(rng, field, _one_eigenvalue(rng, field, m, d))
                while len(g.strongly_connected_components()) > 1:  # rare for a random conjugate
                    g = _graph_with_laplacian(rng, field, _one_eigenvalue(rng, field, m, d))
                assert consensus._eigenvalue(g) == (d, None)
            upper = [[d if j == i else rng.randrange(p) if j > i else 0 for j in range(m)] for i in range(m)]
            upper[0][0] = (d + rng.randrange(1, p)) % p
            t = random_invertible(rng, field, m)
            g = _graph_with_laplacian(rng, field, t @ MatrixFF(field, upper) @ t.inverse())
            failing = consensus._eigenvalue(g)[1]
            assert failing is not None
            if len(g.strongly_connected_components()) == 1:
                assert failing == comp


def test_scc_block_verdicts_match_dense_error_matrix():
    """The SCC-block decision of analyze against the Nn x Nn definition,
    on random small networks with cyclic follower graphs, on single-
    eigenvalue cycles with their deadbeat gain, and on gains with
    chi_(A - bK) = chi_A (r = 0) although bK != 0."""
    rng = random.Random(2718)
    seen = {"multi_scc_cyclic": 0, "self_loop": 0, "leaderless": 0, "zero_degree": 0,
            "switching": 0, "nilpotent": 0, "not_nilpotent": 0, "nilpotent_coupled_cycle": 0,
            "single_eigenvalue_cycle": 0, "r_zero": 0, "mu passes": 0}

    def check(net):
        graphs = net.graphs
        dense = [error_dynamics_matrix(net, gi).is_nilpotent() for gi in range(len(graphs))]
        seen["switching"] += not net.is_static
        report = analyze(net)
        assert [entry["supplied_gain_nilpotent"] for entry in report.checks["graphs"]] == dense
        # claims 2-3 of _gain_results: mu* is null iff r = 0, and a
        # graph passes iff A is nilpotent (r = 0), or its eigenvalue is mu*
        # and A - mu* bK is nilpotent
        mu, a, bk = report.checks["supplied_gain_mu"], net.sys.A, net.sys.b @ net.gain
        assert (mu is None) == (a.char_poly() == (a - bk).char_poly())
        for entry, nil in zip(report.checks["graphs"], dense):
            if mu is None:
                assert nil == a.is_nilpotent()
            else:
                assert nil == (entry["eigenvalue"] == mu and (a - bk.scale(mu)).is_nilpotent())
                seen["mu passes"] += nil
        blocks = report.diagnostics["error_matrix_blocks"]
        comps = [g.strongly_connected_components() for g in graphs]
        assert blocks == {"count": sum(map(len, comps)),
                          "max_dim": net.sys.dim * max(len(c) for cs in comps for c in cs)}
        return dense, comps

    for _ in range(2000):
        field = (F2, F3, F5)[rng.randrange(3)]
        n, N = rng.randint(1, 3), rng.randint(1, 5)
        a = random_nilpotent(rng, field, n) if rng.random() < 0.3 else random_matrix(rng, field, n, n)
        sys_ = LinearSystemFF(a, random_matrix(rng, field, n, 1))
        graphs = tuple(random_scc_graph(rng, field, N) for _ in range(1 if rng.random() < 0.8 else 2))
        gain = random_matrix(rng, field, 1, n) if rng.random() < 0.8 else MatrixFF.zeros(field, 1, n)
        net = LeaderFollowerNetwork(sys=sys_, graphs=graphs, gain=gain)
        dense, comps = check(net)
        coupled = not (sys_.b @ gain).is_zero()
        for g, cs, nil in zip(graphs, comps, dense):
            seen["nilpotent_coupled_cycle"] += nil and coupled and any(len(c) > 1 for c in cs)
            seen["multi_scc_cyclic"] += len(cs) > 1 and any(len(c) > 1 for c in cs)
            seen["self_loop"] += any(g.weight(i, i) for i in range(1, N + 1))
            seen["leaderless"] += any(not g.weight(0, i) for i in range(1, N + 1))
            seen["zero_degree"] += 0 in g.in_degrees().values()
        seen["nilpotent" if all(dense) else "not_nilpotent"] += 1

    # a graph whose H has the one eigenvalue mu: the deadbeat gain for mu passes
    for _ in range(80):
        field = (F2, F3, F5)[rng.randrange(3)]
        n, N = rng.randint(1, 3), rng.randint(2, 4)
        sys_ = LinearSystemFF(random_matrix(rng, field, n, n), random_matrix(rng, field, n, 1))
        decomp = kalman_decompose(sys_)
        if not decomp.A_uc.is_nilpotent():
            continue
        mu = rng.randrange(1, field.p)
        g = _graph_with_laplacian(rng, field, _one_eigenvalue(rng, field, N, mu))
        net = LeaderFollowerNetwork(sys=sys_, graphs=(g,), gain=deadbeat_gain(decomp, mu))
        dense, [cs] = check(net)
        assert dense == [True]
        coupled = not (sys_.b @ net.gain).is_zero()
        seen["single_eigenvalue_cycle"] += coupled and any(len(c) > 1 for c in cs)

    # K in the left null space of the Krylov matrix [b, Ab, ...]: in
    # coordinates z = T x, A = [[A_1, A_12], [0, A_2]], b = [b_1; 0] and
    # K = [0, k_2], so K A^k b = 0 for every k and chi_(A - bK) = chi_A
    for _ in range(40):
        field = (F2, F3, F5)[rng.randrange(3)]
        p = field.p
        n, N = rng.randint(2, 3), rng.randint(1, 4)
        s = rng.randint(1, n - 1)
        nilpotent = rng.random() < 0.4
        a = MatrixFF(field, [[rng.randrange(p) if (j > i or not nilpotent) and (j >= s or i < s) else 0
                              for j in range(n)] for i in range(n)])
        b = MatrixFF.column(field, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(s - 1)] + [0] * (n - s))
        k = MatrixFF.row_vector(field, [0] * (n - 1) + [rng.randrange(1, p)])
        t = random_invertible(rng, field, n)
        t_inv = t.inverse()
        sys_ = LinearSystemFF(t_inv @ a @ t, t_inv @ b)
        gain = k @ t
        assert (gain @ controllability_matrix(sys_)).is_zero() and not (sys_.b @ gain).is_zero()
        assert (sys_.A - sys_.b @ gain).char_poly() == sys_.A.char_poly()
        graphs = tuple(random_scc_graph(rng, field, N) for _ in range(1 if rng.random() < 0.8 else 2))
        dense, _ = check(LeaderFollowerNetwork(sys=sys_, graphs=graphs, gain=gain))
        assert all(dense) == sys_.A.is_nilpotent()
        seen["r_zero"] += 1
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------
# Static analysis verdicts
# ---------------------------------------------------------

def test_static_guaranteed_uniform_degree(ref_system):
    g = WeightedDigraphFF(F3, 2, [(0, 1, 1), (1, 2, 2), (0, 2, 2)])
    net = LeaderFollowerNetwork(sys=ref_system, graphs=(g,))
    report = check_static(net)
    assert report.verdict == "guaranteed"
    assert report.checks["stabilizable"]
    assert report.checks["graphs"] == [{"shape": "dag", "eigenvalue": 1, "failing_scc": None}]
    assert report.bounds["static"] == 2 * 5
    assert "synthesized_gain" in report.witness


def test_static_impossible_unequal_degrees_exhaustive_gains():
    # two followers with degrees 1 and 2 over F_3, A not nilpotent:
    # no gain at all achieves nilpotent error dynamics
    net = single_graph_net(F3, [[1, 1], [0, 2]], [0, 1], [(0, 1, 1), (0, 2, 2)], 2)
    report = check_static(net)
    assert report.verdict == "impossible"
    for kvals in itertools.product(range(3), repeat=2):
        trial = net.with_gain(MatrixFF.row_vector(F3, kvals))
        assert not error_dynamics_matrix(trial).is_nilpotent()


def test_static_impossible_zero_degree():
    net = single_graph_net(F3, [[1, 1], [0, 2]], [0, 1], [(0, 1, 1)], 2)
    report = check_static(net)
    assert report.verdict == "impossible"
    assert report.checks["graphs"][0]["eigenvalue"] is None  # H = diag(1, 0)


def test_static_impossible_not_stabilizable():
    net = single_graph_net(F3, [[1, 0], [0, 1]], [0, 0], [(0, 1, 1), (0, 2, 1)], 2)
    report = check_static(net)
    assert report.verdict == "impossible"
    assert not report.checks["stabilizable"]


def test_static_nilpotent_a_always_guaranteed():
    # even with a cyclic follower graph and unequal degrees
    net = single_graph_net(F3, [[0, 1], [0, 0]], [1, 0], [(1, 2, 1), (2, 1, 2)], 2)
    report = check_static(net)
    assert report.verdict == "guaranteed"
    assert report.witness["synthesized_gain"] == [0, 0]
    assert report.witness["gain_certificate_degree"] == 2  # A's, the zero gain's closed loop


def test_static_cyclic_graph_with_gain_decided_directly():
    a = [[1]]
    net = single_graph_net(F3, a, [1], [(1, 2, 1), (2, 1, 1), (0, 1, 1), (0, 2, 1)], 2, gain=[2])
    report = check_static(net)
    assert report.verdict in ("guaranteed", "impossible")
    assert report.verdict == (
        "guaranteed" if error_dynamics_matrix(net).is_nilpotent() else "impossible"
    )


def test_static_cyclic_graph_without_gain_inconclusive():
    # H = Dbar - Abar = [[0, 1], [2, 1]] has the one eigenvalue 2
    net = single_graph_net(F3, [[1]], [1], [(0, 1, 1), (1, 2, 1), (2, 1, 2)], 2)
    report = check_static(net)
    assert report.verdict == "inconclusive" and report.checks["graphs"][0]["eigenvalue"] == 2
    assert "the one eigenvalue d = 2" in report.reason and "not supported yet" in report.reason


def test_static_verdict_consistent_with_checks():
    rng = random.Random(107)
    for _ in range(30):
        field = (F2, F3)[rng.randrange(2)]
        net = random_network(
            rng, field, n=rng.randrange(1, 3), num_followers=rng.randrange(1, 4),
            with_gain=rng.random() < 0.5,
        )
        report = check_static(net)
        c = report.checks
        [graph] = c["graphs"]
        if net.gain is not None:
            # a supplied gain is judged on its own; whether some gain
            # exists still shows as the witness gain
            ok = graph["supplied_gain_nilpotent"]
            assert report.verdict == ("guaranteed" if ok else "impossible")
            if c["a_nilpotent"] or c["union_shape"] == "dag":
                exists = c["a_nilpotent"] or (c["stabilizable"] and graph["eigenvalue"] not in (None, 0))
                assert ("synthesized_gain" in report.witness) == exists
                assert exists or not ok
        elif c["a_nilpotent"]:
            assert report.verdict == "guaranteed"
        elif not c["stabilizable"] or graph["eigenvalue"] in (None, 0):
            assert report.verdict == "impossible"
        else:
            assert report.verdict == ("guaranteed" if c["union_shape"] == "dag" else "inconclusive")


def test_facts_a_degree_matches_direct_nilpotent_degree():
    # the facts read A's nilpotency off the Kalman decomposition (zero
    # companion row and nilpotent A_uc) and compute its degree only then
    rng = random.Random(1601)
    counts = dict.fromkeys(("b_zero", "partial", "full", "nilpotent", "not_nilpotent"), 0)
    for trial in range(240):
        field = (F2, F3, F5)[trial % 3]
        n = rng.randint(1, 5)
        a = random_nilpotent(rng, field, n) if rng.random() < 0.4 else random_matrix(rng, field, n, n)
        b = [0] * n if rng.random() < 0.2 else [rng.randrange(field.p) for _ in range(n)]
        g = WeightedDigraphFF(field, 1, [(0, 1, 1)])
        net = LeaderFollowerNetwork(sys=LinearSystemFF(a, MatrixFF.column(field, b)), graphs=(g,))
        facts = consensus._facts(net)
        expected = a.nilpotent_degree()
        assert facts.a_degree == expected, (field.p, a.to_rows(), b)
        s = facts.decomp.s
        counts["b_zero"] += not any(b)
        counts["partial"] += 0 < s < n
        counts["full"] += s == n
        counts["nilpotent"] += expected is not None
        counts["not_nilpotent"] += expected is None
    assert min(counts.values()) >= 50, counts


# ---------------------------------------------------------
# Switching analysis
# ---------------------------------------------------------

def test_switching_guaranteed_reference(ref_network):
    report = check_switching(ref_network)
    assert report.verdict == "guaranteed"
    assert report.checks["union_shape"] == "dag"
    assert [graph["eigenvalue"] for graph in report.checks["graphs"]] == [1, 1]
    assert report.bounds["switching"] is not None


def test_switching_union_cycle_inconclusive():
    g1 = WeightedDigraphFF(F3, 2, [(0, 1, 1), (1, 2, 1)])
    g2 = WeightedDigraphFF(F3, 2, [(2, 1, 1), (0, 2, 1)])  # acyclic, both share d = 1
    sys_ = LinearSystemFF(MatrixFF(F3, [[1]]), MatrixFF.column(F3, [1]))
    net = LeaderFollowerNetwork(sys=sys_, graphs=(g1, g2))
    report = check_switching(net)
    assert report.verdict == "inconclusive"
    assert report.checks["union_shape"] == "cyclic"
    assert report.diagnostics["per_graph_static"] == [
        {"graph": 0, "verdict": "guaranteed"}, {"graph": 1, "verdict": "guaranteed"}]


def test_switching_degree_mismatch_across_graphs_impossible():
    # a gain working for d = 1 and d = 2 would leave chi_A = x - 1 unchanged
    g1 = WeightedDigraphFF(F3, 1, [(0, 1, 1)])
    g2 = WeightedDigraphFF(F3, 1, [(0, 1, 2)])
    sys_ = LinearSystemFF(MatrixFF(F3, [[1]]), MatrixFF.column(F3, [1]))
    net = LeaderFollowerNetwork(sys=sys_, graphs=(g1, g2))
    report = check_switching(net)
    assert report.verdict == "impossible"
    assert "eigenvalues [1, 2] differ" in report.reason
    assert [graph["eigenvalue"] for graph in report.checks["graphs"]] == [1, 2]


def _with_degree(field, graph, d):
    """The graph with its leader weights reset so that every follower has
    in-degree d (the leader edge is dropped where d is met without it)."""
    edges = [(s, t, w) for s, t, w in graph.edges() if s != 0]
    for i in range(1, graph.num_followers + 1):
        w = (d - sum(w for _, t, w in edges if t == i)) % field.p
        if w:
            edges.append((0, i, w))
    return WeightedDigraphFF(field, graph.num_followers, edges)


def test_analyze_matches_the_oracle():
    """analyze against exhaustive_consensus_oracle (every initial state,
    every switching sequence): a guaranteed verdict converges by its
    bound, an impossible one never does (for the supplied gain, or for
    every gain), an inconclusive one with a gain converges on each graph
    alone, and any witness gain converges within N*n.  Cyclic networks
    have two followers or more: one follower's only cycle is a self-loop,
    decided like an acyclic graph."""
    rng = random.Random(4093)
    seen = {"guaranteed": 0, "impossible": 0, "inconclusive": 0, "static": 0, "switching": 0,
            "cyclic": 0, "acyclic": 0, "nilpotent_a": 0, "no_gain": 0, "random_gain": 0,
            "deadbeat_gain": 0}
    for _ in range(1440):
        field = (F2, F3)[rng.randrange(2)]
        cyclic = rng.random() < 0.4
        n, N = rng.randint(1, 2), rng.randint(1 + cyclic, 3)
        a = random_nilpotent(rng, field, n) if rng.random() < 0.25 else random_matrix(rng, field, n, n)
        sys_ = LinearSystemFF(a, random_matrix(rng, field, n, 1))
        d = rng.randrange(1, field.p)
        graphs = []
        for _ in range(rng.randint(1, 2)):
            if cyclic and rng.random() < 0.3:  # H with the one eigenvalue d
                graphs.append(_graph_with_laplacian(rng, field, _one_eigenvalue(rng, field, N, d)))
                continue
            g = random_scc_graph(rng, field, N) if cyclic else random_dag_graph(rng, field, N)
            graphs.append(_with_degree(field, g, d) if rng.random() < 0.7 else g)
        kind = ("no_gain", "random_gain", "deadbeat_gain")[rng.randrange(3)]
        decomp = kalman_decompose(sys_)
        if kind == "deadbeat_gain" and decomp.A_uc.is_nilpotent():
            gain = deadbeat_gain(decomp, d)
        else:
            kind = "random_gain" if kind == "deadbeat_gain" else kind
            gain = None if kind == "no_gain" else random_matrix(rng, field, 1, n)
        net = LeaderFollowerNetwork(sys=sys_, graphs=tuple(graphs), gain=gain)
        report = analyze(net)

        def works(k, horizon, graph_list=net.graphs):
            trial = LeaderFollowerNetwork(sys=sys_, graphs=tuple(graph_list), gain=k)
            return exhaustive_consensus_oracle(trial, horizon, all_signals=True)

        verdict = report.verdict
        if verdict == "guaranteed":
            k = gain if gain is not None else MatrixFF.row_vector(field, report.witness["synthesized_gain"])
            assert works(k, report.bounds[report.mode]), report.to_dict()
        elif verdict == "impossible" and gain is not None:
            assert not works(gain, N * n), report.to_dict()
            assert "supplied gain" in report.reason
            assert ("synthesized_gain" in report.witness) == ("witness.synthesized_gain" in report.reason)
        elif verdict == "impossible":
            assert not any(works(MatrixFF.row_vector(field, k), N * n)
                           for k in itertools.product(range(field.p), repeat=n))
        elif gain is not None:
            assert all(works(gain, N * n, [g]) for g in net.graphs), report.to_dict()
        if "synthesized_gain" in report.witness:
            assert works(MatrixFF.row_vector(field, report.witness["synthesized_gain"]), N * n)
        seen[verdict] += 1
        seen["static" if net.is_static else "switching"] += 1
        seen["cyclic" if cyclic else "acyclic"] += 1
        seen["nilpotent_a"] += a.is_nilpotent()
        seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def _small_network(rng, gain_kind):
    """A network small enough to brute-force every gain: p <= 5, n <= 3,
    N <= 3 and 1-3 graphs, each acyclic with one in-degree (mostly a
    shared d), some with a back edge or self-loop or one leader weight
    changed.  ``gain_kind``: "none", "random", or "r0", a gain with r = 0
    over a nilpotent A (None when none is found)."""
    while True:
        field = (F2, F3, F5)[rng.randrange(3)]
        n, N = rng.randint(1, 3), rng.randint(1, 3)
        if field.p ** (n * (N + 1)) <= 2187:
            break
    p = field.p
    a = random_nilpotent(rng, field, n) if gain_kind == "r0" or rng.random() < 0.2 else random_matrix(rng, field, n, n)
    b = random_matrix(rng, field, n, 1)
    if rng.random() < 0.15:
        b = a @ b  # a smaller Krylov space
    sys_ = LinearSystemFF(a, b)
    d = rng.randrange(1, p)
    graphs = []
    for _ in range(rng.randint(1, 3)):
        g = _with_degree(field, random_dag_graph(rng, field, N), rng.choice((d, rng.randrange(1, p))))
        edges = list(g.edges())
        u = rng.random()
        if u < 0.25:
            src, tgt, w = rng.randint(1, N), rng.randint(1, N), rng.randrange(1, p)
        elif u < 0.6:
            src, tgt, w = 0, rng.randint(1, N), rng.randrange(p)
        if u < 0.6:
            edges = [e for e in edges if e[:2] != (src, tgt)] + ([(src, tgt, w)] if w else [])
        graphs.append(WeightedDigraphFF(field, N, edges))
    gain = None if gain_kind == "none" else random_matrix(rng, field, 1, n)
    if gain_kind == "r0":
        kr = consensus._krylov(sys_)
        gain = next((k for k in (random_matrix(rng, field, 1, n) for _ in range(50))
                     if not any(kr.gain_change(k.to_rows()[0]))), None)
    return LeaderFollowerNetwork(sys=sys_, graphs=tuple(graphs), gain=gain)


def _p_cycle_graph(rng, field, N):
    """Directed cycles of p followers (p dividing N) with chords back
    along each cycle and forward to later followers, self-loops and
    leader edges: every SCC is one of the cycles, so p divides every |S|."""
    p, edges = field.p, {}
    for start in range(1, N + 1, p):
        cycle = list(range(start, start + p))
        edges.update({(s, t): rng.randrange(1, p) for s, t in zip(cycle, cycle[1:] + cycle[:1])})
        edges.update({(t, s): rng.randrange(1, p) for s, t in zip(cycle, cycle[1:]) if rng.random() < 0.3})
        edges.update({(s, t): rng.randrange(1, p) for s in cycle for t in range(start + p, N + 1)
                      if rng.random() < 0.3})
    edges.update({(v, v): rng.randrange(1, p) for v in range(1, N + 1) if rng.random() < 0.2})
    edges.update({(0, v): rng.randrange(1, p) for v in range(1, N + 1) if rng.random() < 0.6})
    return WeightedDigraphFF(field, N, [(s, t, w) for (s, t), w in edges.items()])


def _small_cyclic_network(rng):
    """A network without a gain, over a stabilizable pair with A not
    nilpotent, of one or two follower graphs with cycles, small enough to brute-force every gain (p^(n(N+1)) <= 2187),
    all its graphs of one kind: several SCCs with self-loops and
    cancelling in-degrees (``random_scc_graph``); an H with the one
    eigenvalue mu, a random residue per graph, so that mu = 0, a shared
    mu and differing ones all occur; or directed cycles of p followers
    with chords, leader edges and self-loops, so that p divides every
    |S|."""
    kind = (0, 1, 1, 2)[rng.randrange(4)]
    while True:
        field = (F2, F3, F5)[rng.randrange(3)]
        n, N = rng.randint(1, 3), rng.randint(2, 4)
        if field.p ** (n * (N + 1)) <= 2187 and (kind < 2 or N % field.p == 0):
            break
    p = field.p
    graphs = []
    for _ in range(rng.randint(1, 2)):
        if kind == 0:
            graphs.append(random_scc_graph(rng, field, N))
        elif kind == 1:
            graphs.append(_graph_with_laplacian(rng, field, _one_eigenvalue(rng, field, N, rng.randrange(p))))
        else:
            graphs.append(_p_cycle_graph(rng, field, N))
    while True:
        sys_ = LinearSystemFF(random_matrix(rng, field, n, n), random_matrix(rng, field, n, 1))
        if is_stabilizable(sys_) and not sys_.A.is_nilpotent():
            return LeaderFollowerNetwork(sys=sys_, graphs=tuple(graphs))


def test_no_gain_impossible_verdicts_fail_for_every_gain():
    """Differential test of the rule without a gain: every impossible
    verdict, static or switching, is confirmed by brute force over all
    p^n gains and every switching sequence at horizon N*n, for each
    branch (unstabilizable pair, a graph failing on its own, graphs whose
    one eigenvalues differ), over nearly acyclic graphs
    (``_small_network``) and cyclic ones (``_small_cyclic_network``):
    a cyclic graph failing alone, d = 0, differing d across cyclic graphs,
    and graphs in which p divides the size of every SCC."""
    rng = random.Random(2521)
    seen, cases = collections.Counter(), collections.Counter()
    nets = [_small_network(rng, "none") for _ in range(800)]
    nets += [_small_cyclic_network(rng) for _ in range(700)]
    for net in nets:
        report = analyze(net)
        if report.verdict != "impossible":
            continue
        p, n, N = net.field.p, net.sys.dim, net.num_followers
        reason = report.reason
        branch = ("unstabilizable" if "not stabilizable" in reason
                  else "alone" if "no single nonzero eigenvalue" in reason
                  else "differing" if "eigenvalues" in reason and "differ" in reason
                  else reason)
        seen[branch, report.mode] += 1
        eigen = consensus._facts(net).eigen
        cyclic = [not g.is_dag() for g in net.graphs]
        p_divides = [all(len(c) % p == 0 for c in g.strongly_connected_components()) for g in net.graphs]
        if branch == "alone":
            gi = next(gi for gi, (d, failing) in enumerate(eigen) if failing is not None or not d)
            cases["cyclic graph fails alone", report.mode] += cyclic[gi]
            cases["d = 0"] += not eigen[gi][0]
            cases["p divides every |S|"] += p_divides[gi]
        elif branch == "differing":
            cases["differing d across cyclic graphs"] += all(cyclic)
            cases["p divides every |S|"] += any(p_divides)
        for k in itertools.product(range(p), repeat=n):
            trial = net.with_gain(MatrixFF.row_vector(net.field, k))
            assert not exhaustive_consensus_oracle(trial, N * n, all_signals=True), (k, report.to_dict())
    assert set(seen) == {(b, m) for b in ("unstabilizable", "alone", "differing") for m in ("static", "switching")
                         if (b, m) != ("differing", "static")}, seen
    assert len(cases) == 5 and min(seen.values()) >= 15 and min(cases.values()) >= 15, (seen, cases)


def test_guaranteed_bounds_hold_and_stay_within_n_n():
    """Differential test of the bound: for every guaranteed network the
    oracle confirms the witness or supplied gain at T over every switching
    sequence, and T <= N*n; supplied gains include r = 0 over cyclic
    unions, guaranteed only since the bound covers them."""
    rng = random.Random(2677)
    seen = collections.Counter()
    for i in range(400):
        kind = ("none", "random", "random", "r0")[i % 4]
        net = _small_network(rng, kind)
        if kind != "none" and net.gain is None:
            continue
        report = analyze(net)
        if report.verdict != "guaranteed":
            continue
        T, N, n = report.bounds[report.mode], net.num_followers, net.sys.dim
        k = net.gain if net.gain is not None else MatrixFF.row_vector(net.field, report.witness["synthesized_gain"])
        assert T <= N * n and exhaustive_consensus_oracle(net.with_gain(k), T, all_signals=True), report.to_dict()
        seen[kind, report.mode, "acyclic" if report.checks["union_shape"] == "dag" else "cyclic"] += 1
    assert min(seen[kind, mode, "acyclic"] for kind in ("none", "random", "r0") for mode in ("static", "switching")) >= 10, seen
    assert seen["r0", "switching", "cyclic"] >= 20, seen


# ---------------------------------------------------------
# Gain synthesis
# ---------------------------------------------------------

def test_synthesize_zero_gain_for_nilpotent_a():
    net = single_graph_net(F3, [[0, 1], [0, 0]], [1, 0], [(0, 1, 1)], 1)
    assert synthesize_gain(net).is_zero()


def test_synthesize_reference_gain(ref_network, ref_system):
    k = synthesize_gain(ref_network)
    closed = ref_system.A - ref_system.b @ k
    assert closed.is_nilpotent()
    assert mat_power(closed, 5).is_zero()
    # the handcrafted gain is also accepted as a user-supplied alternative
    closed_ref = ref_system.A - ref_system.b @ MatrixFF.row_vector(F3, REF_GAIN)
    assert closed_ref.is_nilpotent()


def test_synthesize_refuses_cyclic_follower_graph():
    net = single_graph_net(F3, [[1]], [1], [(1, 2, 1), (2, 1, 1), (0, 1, 1), (0, 2, 1)], 2)
    with pytest.raises(GainSynthesisError):
        synthesize_gain(net)


def test_synthesize_refuses_unstabilizable():
    net = single_graph_net(F3, [[1, 0], [0, 1]], [0, 0], [(0, 1, 1), (0, 2, 1)], 2)
    with pytest.raises(GainSynthesisError):
        synthesize_gain(net)


def test_synthesize_refuses_degree_failures():
    unequal = single_graph_net(F3, [[1, 1], [0, 2]], [0, 1], [(0, 1, 1), (0, 2, 2)], 2)
    with pytest.raises(GainSynthesisError):
        synthesize_gain(unequal)
    cross = LeaderFollowerNetwork(
        sys=unequal.sys,
        graphs=(
            WeightedDigraphFF(F3, 1, [(0, 1, 1)]),
            WeightedDigraphFF(F3, 1, [(0, 1, 2)]),
        ),
    )
    with pytest.raises(GainSynthesisError):
        synthesize_gain(cross)


# ---------------------------------------------------------
# Bounds
# ---------------------------------------------------------

def test_convergence_bound_static(ref_system):
    g = WeightedDigraphFF(F3, 2, [(0, 1, 1), (1, 2, 2), (0, 2, 2)])
    net = LeaderFollowerNetwork(sys=ref_system, graphs=(g,))
    assert convergence_bound(net) == 10  # N*n = 2*5


def test_convergence_bound_switching_uses_block_degrees(ref_network):
    with_ref_gain = ref_network.with_gain(MatrixFF.row_vector(F3, REF_GAIN))
    assert convergence_bound(with_ref_gain) == 16  # 4 agents x degree 4
    synthesized = ref_network.with_gain(synthesize_gain(ref_network))
    closed = ref_network.sys.A - ref_network.sys.b @ synthesized.gain
    assert convergence_bound(synthesized) == 4 * closed.nilpotent_degree()


def test_convergence_bound_requires_guaranteed():
    net = single_graph_net(F3, [[1]], [1], [(1, 2, 1), (2, 1, 1)], 2)
    with pytest.raises(ValueError):
        convergence_bound(net)


def test_switching_bound_reads_the_scc_order_and_stays_sound():
    """A nilpotent A with r = 0: the bound max(deg A, s + kappa) = 2 is the
    true worst-case time (a product over the union's order once gave 5)."""
    sys_ = LinearSystemFF(MatrixFF.zeros(F2, 3, 3), MatrixFF.column(F2, [0, 1, 0]))
    graphs = (
        WeightedDigraphFF(F2, 3, [(0, 1, 1), (2, 1, 1)]),
        WeightedDigraphFF(F2, 3, [(0, 2, 1), (2, 1, 1), (3, 1, 1)]),
    )
    net = LeaderFollowerNetwork(sys=sys_, graphs=graphs, gain=MatrixFF.row_vector(F2, [0, 0, 1]))
    report = check_switching(net)
    assert report.verdict == "guaranteed"
    assert report.checks["union_shape"] == "dag"
    assert union(list(graphs)).strongly_connected_components() == [(3,), (2,), (1,)]
    assert report.bounds["switching"] == 2
    assert exhaustive_consensus_oracle(net, 2, all_signals=True)
    assert not exhaustive_consensus_oracle(net, 1, all_signals=True)


def test_analyze_runs_tarjan_once_per_graph(monkeypatch):
    # shapes, SCC blocks and the switching bound all read one memoized
    # Tarjan pass per graph object
    runs = []
    original = WeightedDigraphFF._tarjan
    monkeypatch.setattr(WeightedDigraphFF, "_tarjan", lambda g: runs.append(id(g)) or original(g))
    checks = []
    scan = WeightedDigraphFF._scan
    monkeypatch.setattr(WeightedDigraphFF, "_scan", staticmethod(lambda *args: checks.append(args) or scan(*args)))
    rng = random.Random(151)
    cases = itertools.product((1, 2), (False, True), (random_dag_graph, random_scc_graph), range(5))
    for num_graphs, with_gain, make, _ in cases:
        field = (F2, F3)[rng.randrange(2)]
        n, N = rng.randint(1, 3), rng.randint(1, 5)
        net = LeaderFollowerNetwork(
            sys=LinearSystemFF(random_matrix(rng, field, n, n), random_matrix(rng, field, n, 1)),
            graphs=tuple(make(rng, field, N) for _ in range(num_graphs)),
            gain=random_matrix(rng, field, 1, n) if with_gain else None,
        )
        runs.clear()
        checks.clear()
        analyze(net)
        # each graph, and the union under switching, at most once
        assert runs and len(runs) == len(set(runs)) <= num_graphs + (num_graphs > 1)
        # the union is the one graph that is not an input: one Tarjan pass,
        # and no edge check, as it is built from the inputs' checked edges
        assert len(set(runs) - set(map(id, net.graphs))) == (num_graphs > 1)
        assert not checks


# large-static's ls0-chain-p101-n5-N36 (seed 41, pass 0): a controllable
# pair whose characteristic polynomial has no zero coefficient, and a chain
# leader -> 1 -> 35 -> ... -> 12 with every weight d = 32
LS0_A = [[58, 7, 29, 9, 19], [88, 61, 58, 96, 22], [88, 86, 72, 55, 97], [98, 10, 97, 42, 29],
         [66, 55, 20, 24, 9]]
LS0_B = [3, 28, 100, 62, 58]
LS0_CHAIN = [1, 35, 15, 27, 17, 19, 13, 21, 10, 29, 22, 5, 34, 11, 3, 33, 6, 28, 24, 26, 4, 36, 8, 14,
             32, 16, 25, 2, 31, 20, 23, 30, 9, 7, 18, 12]


def test_analyze_with_the_witness_gain_computes_its_loop_degree_once(monkeypatch):
    # the supplied gain is the witness gain, so (K, mu*) = (k, d): the bound
    # reuses the witness's certificate instead of recomputing it
    field = PrimeField(101)
    graph = WeightedDigraphFF(field, 36, [(s, t, 32) for s, t in zip([0] + LS0_CHAIN, LS0_CHAIN)])
    pair = LinearSystemFF(MatrixFF(field, LS0_A), MatrixFF.column(field, LS0_B))
    gain = synthesize_gain(LeaderFollowerNetwork(sys=pair, graphs=(graph,)))
    calls = []
    original = consensus._loop_degree
    monkeypatch.setattr(consensus, "_loop_degree", lambda *args: calls.append(args[2:]) or original(*args))
    report = analyze(LeaderFollowerNetwork(sys=pair, graphs=(graph,), gain=gain))
    assert calls == [(gain.to_rows()[0], 32)]
    assert report.verdict == "guaranteed"
    assert report.witness["synthesized_gain"] == gain.to_rows()[0]
    assert report.bounds["static"] == 36 * report.witness["gain_certificate_degree"] == 36 * 5


def _random_pair(rng, field, n):
    """(A, b): random, with a nilpotent A, or with b in an A-invariant
    subspace (s < n), its complement's block nilpotent half the time."""
    roll = rng.random()
    if roll < 0.3:
        return random_matrix(rng, field, n, n), random_matrix(rng, field, n, 1)
    if roll < 0.45:
        return random_nilpotent(rng, field, n), random_matrix(rng, field, n, 1)
    m = rng.randint(0, n - 1)
    low = random_nilpotent(rng, field, n - m) if rng.random() < 0.5 else random_matrix(rng, field, n - m, n - m)
    rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(m)]
    rows += [[0] * m + row for row in low.to_rows()]
    t = random_invertible(rng, field, n)
    a = t @ MatrixFF(field, rows) @ t.inverse()
    b = t @ MatrixFF.column(field, [rng.randrange(field.p) for _ in range(m)] + [0] * (n - m))
    return a, b


def test_loop_degree_matches_dense_nilpotent_degree():
    """The nilpotent degree of A - mu bK from b as a cyclic vector (s = n)
    or from F's rows (s < n) equals that of the matrix built by MatrixFF
    products, None included, for deadbeat, random and zero gains."""
    rng = random.Random(20261023)
    seen = collections.Counter()
    fields = [PrimeField(p) for p in (2, 3, 5, 7, 101)]
    for _ in range(2400):
        field, n = rng.choice(fields), rng.randint(1, 8)
        a, b = _random_pair(rng, field, n)
        net = LeaderFollowerNetwork(sys=LinearSystemFF(a, b), graphs=(WeightedDigraphFF(field, 1, [(0, 1, 1)]),))
        kr = _krylov(net.sys)
        mu = rng.randrange(field.p)
        kind = rng.choice(("deadbeat", "random", "zero"))
        if kind == "deadbeat" and mu:
            k = kr.deadbeat(mu)
        elif kind == "zero":
            k = [0] * n
        else:
            kind, k = "random", [rng.randrange(field.p) for _ in range(n)]
        want = (a - (b @ MatrixFF.row_vector(field, k)).scale(mu)).nilpotent_degree()
        assert consensus._loop_degree(net, kr, k, mu) == want, (a, b, k, mu)
        seen["s = n" if kr.s == n else "s < n"] += 1
        seen[(kind, want is not None)] += 1
    print(f"cases hit: {dict(seen)}")
    assert seen["s = n"] >= 200 and seen["s < n"] >= 200, seen
    assert all(seen[(kind, ok)] >= 50 for kind in ("deadbeat", "random", "zero") for ok in (True, False)), seen


def test_worst_degree_bounds_mixed_closed_loops_when_k_c_is_zero():
    """Two distinct degrees can both pass only with A nilpotent and a gain
    that is zero on the controllable coordinates; the closed loops
    A - d*bK then differ per degree, and every product of them vanishes
    after the largest single degree, which is what the switching bound
    takes per follower."""
    rng = random.Random(131)
    checked = 0
    while checked < 60:
        field = (F3, F5)[rng.randrange(2)]
        n = rng.randint(2, 3)
        sys_ = LinearSystemFF(random_nilpotent(rng, field, n), random_matrix(rng, field, n, 1))
        decomp = kalman_decompose(sys_)
        if not 0 < decomp.s < n:
            continue
        coords = [0] * decomp.s + [rng.randrange(field.p) for _ in range(n - decomp.s)]
        bk = sys_.b @ (MatrixFF.row_vector(field, coords) @ decomp.Q)
        loops = [sys_.A - bk.scale(d) for d in rng.sample(range(field.p), 3)]
        if len(set(loops)) < 3:
            continue
        worst = max(m.nilpotent_degree() for m in loops)
        for seq in itertools.product(loops, repeat=worst):
            prod = MatrixFF.identity(field, n)
            for m in seq:
                prod = prod @ m
            assert prod.is_zero()
        checked += 1


# ---------------------------------------------------------
# Structural nilpotency facts behind the bounds
# ---------------------------------------------------------

def _block_triangular(field, a1, x, a3):
    n1, n2 = a1.rows, a3.rows
    rows = []
    for i in range(n1):
        rows.append([a1.entry_int(i, j) for j in range(n1)] + [x.entry_int(i, j) for j in range(n2)])
    for i in range(n2):
        rows.append([0] * n1 + [a3.entry_int(i, j) for j in range(n2)])
    return MatrixFF(field, rows)


def test_block_triangular_degree_bound():
    rng = random.Random(113)
    for _ in range(100):
        field = (F2, F3)[rng.randrange(2)]
        n1, n2 = rng.randrange(1, 4), rng.randrange(1, 4)
        a1, a3 = random_nilpotent(rng, field, n1), random_nilpotent(rng, field, n2)
        x = random_matrix(rng, field, n1, n2)
        composite = _block_triangular(field, a1, x, a3)
        k = composite.nilpotent_degree()
        assert k is not None
        assert k <= a1.nilpotent_degree() + a3.nilpotent_degree()


# ---------------------------------------------------------
# Graphs whose only cycles are self-loops
# ---------------------------------------------------------

def _self_loop_graph(rng, field, N, d):
    """A random follower DAG with self-loops on some followers, its leader
    weights set so that most followers have H_ii = d_i - w_ii = d (the
    in-weight from every other node) and some keep a random H_ii."""
    g = random_dag_graph(rng, field, N)
    edges = [(s, t, w) for s, t, w in g.edges() if s != 0]
    edges += [(v, v, rng.randrange(1, field.p)) for v in range(1, N + 1) if rng.random() < 0.5]
    loops = [v for s, v, _ in edges if s == v] or [rng.randint(1, N)]
    if not any(s == t for s, t, _ in edges):
        edges.append((loops[0], loops[0], rng.randrange(1, field.p)))
    for i in range(1, N + 1):
        target = d if rng.random() < 0.9 else rng.randrange(field.p)
        w = (target - sum(w for s, t, w in edges if t == i and s != i)) % field.p
        if w:
            edges.append((0, i, w))
    return WeightedDigraphFF(field, N, edges)


def test_self_loop_chain_has_the_deadbeat_gain():
    # the pair A = [[1, 1], [0, 1]], b = [0, 1] over F_3 and the chain
    # 0 -> 1 -> 2 with a self-loop of weight 2 on follower 2: H = [[1, 0], [-1, 1]]
    # has the one eigenvalue d = 1, so the deadbeat gain for d = 1 works
    net = single_graph_net(F3, [[1, 1], [0, 1]], [0, 1], [(0, 1, 1), (1, 2, 1), (2, 2, 2)], 2)
    report = analyze(net)
    assert report.verdict == "guaranteed"
    assert report.checks["union_shape"] == "loops"
    k = MatrixFF.row_vector(F3, report.witness["synthesized_gain"])
    assert synthesize_gain(net) == k
    assert exhaustive_consensus_oracle(net.with_gain(k), report.bounds["static"], all_signals=True)
    assert convergence_bound(net) == report.bounds["static"] == 2 * report.witness["gain_certificate_degree"]


def test_self_loop_graphs_match_the_oracle():
    """Graphs and unions whose SCCs are single followers with self-loops
    are decided like acyclic ones (H triangular in the SCC order), against
    the all-signals oracle: a guaranteed verdict converges by its bound, an
    impossible one never does for any gain (no gain) or for the supplied
    gain, and an inconclusive one (a cyclic union of two triangular
    graphs) converges on each graph alone, under the supplied gain or the
    deadbeat gain for the shared d."""
    rng = random.Random(2917)
    seen = collections.Counter()
    for _ in range(500):
        while True:
            field = (F2, F3, F5)[rng.randrange(3)]
            n, N = rng.randint(1, 2), rng.randint(1, 3)
            if field.p ** (n * (N + 1)) <= 2187:
                break
        p = field.p
        while True:
            sys_ = LinearSystemFF(random_matrix(rng, field, n, n), random_matrix(rng, field, n, 1))
            if not sys_.A.is_nilpotent():
                break
        d = rng.randrange(1, p)
        graphs = tuple(_self_loop_graph(rng, field, N, d) for _ in range(rng.randint(1, 2)))
        kind = ("none", "random", "deadbeat")[rng.randrange(3)]
        gain = None
        if kind != "none":
            kr = _krylov(sys_)
            gain = MatrixFF.row_vector(field, kr.deadbeat(d)) if kind == "deadbeat" and kr.stabilizable else (
                random_matrix(rng, field, 1, n))
        net = LeaderFollowerNetwork(sys=sys_, graphs=graphs, gain=gain)
        f = consensus._facts(net)
        assert "cyclic" not in f.shapes and "loops" in f.shapes
        report = analyze(net)

        def works(k, horizon, graph_list=graphs):
            trial = LeaderFollowerNetwork(sys=sys_, graphs=tuple(graph_list), gain=k)
            return exhaustive_consensus_oracle(trial, horizon, all_signals=True)

        verdict = report.verdict
        if verdict == "guaranteed":
            k = gain if gain is not None else MatrixFF.row_vector(field, report.witness["synthesized_gain"])
            assert works(k, report.bounds[report.mode]), report.to_dict()
            assert convergence_bound(net) == report.bounds[report.mode]
        elif verdict == "impossible" and gain is None:
            assert not any(works(MatrixFF.row_vector(field, k), N * n)
                           for k in itertools.product(range(p), repeat=n))
        elif verdict == "impossible":
            assert not works(gain, N * n), report.to_dict()
        else:
            assert f.union_shape == "cyclic", report.to_dict()
            k = gain if gain is not None else MatrixFF.row_vector(field, f.decomp.deadbeat(f.eigen[0][0]))
            assert all(works(k, N * n, [g]) for g in graphs), report.to_dict()
        if "synthesized_gain" in report.witness:
            assert works(MatrixFF.row_vector(field, report.witness["synthesized_gain"]), N * n)
        seen[verdict] += 1
        if verdict != "inconclusive":
            seen[verdict, kind] += 1
        seen[f.union_shape] += 1
    assert len(seen) == 11 and min(seen.values()) >= 5, seen


# ---------------------------------------------------------
# A supplied gain whose mu* is not the graph's eigenvalue
# ---------------------------------------------------------

def test_gain_off_the_eigenvalue_runs_one_test_per_cyclic_block(ref_system, monkeypatch):
    # CI's ring of N = 400 followers (leader edge into follower 1, all
    # in-degrees 2) with K = [2, 1, 2, 0, 1]: mu* = 1 and d = 2, so the
    # graph fails under K from d alone, and the one 400 x 400 test is the
    # eigenvalue's, H_SS - 2 I
    N = 400
    g = WeightedDigraphFF(F3, N, [(0, 1, 1), (N, 1, 1)] + [(i, i + 1, 2) for i in range(1, N)])
    net = LeaderFollowerNetwork(sys=ref_system, graphs=(g,), gain=MatrixFF.row_vector(F3, REF_GAIN))
    sizes = []
    original = MatrixFF.is_nilpotent
    monkeypatch.setattr(MatrixFF, "is_nilpotent", lambda m: sizes.append(m.rows) or original(m))
    report = analyze(net)
    assert sizes == [N]
    assert report.verdict == "impossible"
    assert report.checks["graphs"][0]["supplied_gain_nilpotent"] is False
    f = consensus._facts(net)
    assert (f.mu, f.eigen[0][0], f.passes) == (1, 2, (False,))


def _random_cyclic_graph(rng, field, N):
    """A random SCC graph, a graph whose H has one eigenvalue, or, when p
    divides N, one whose SCCs all have p followers."""
    p = field.p
    return (lambda: random_scc_graph(rng, field, N),
            lambda: _graph_with_laplacian(rng, field, _one_eigenvalue(rng, field, N, rng.randrange(p))),
            lambda: _p_cycle_graph(rng, field, N))[rng.randrange(2 if N % p else 3)]()


def test_a_supplied_gain_adds_no_nilpotency_test(monkeypatch):
    """analyze with a supplied gain runs exactly the MatrixFF.is_nilpotent
    tests, of the same sizes, as analyze of the same network without it:
    each graph's verdict under the gain is read off its (d, S)."""
    rng = random.Random(3313)
    sizes = []
    original = MatrixFF.is_nilpotent
    monkeypatch.setattr(MatrixFF, "is_nilpotent", lambda m: sizes.append(m.rows) or original(m))
    tested = 0
    for _ in range(200):
        field = (F2, F3, F5)[rng.randrange(3)]
        p, n = field.p, rng.randint(1, 3)
        N = p * rng.randint(1, 5 // p) if rng.random() < 0.3 else rng.randint(2, 5)
        sys_ = LinearSystemFF(random_matrix(rng, field, n, n), random_matrix(rng, field, n, 1))
        kr = _krylov(sys_)
        d = rng.randrange(1, p)
        gain = MatrixFF.row_vector(field, kr.deadbeat(d)) if kr.stabilizable and rng.random() < 0.5 else (
            random_matrix(rng, field, 1, n))
        graphs = tuple(_random_cyclic_graph(rng, field, N) for _ in range(rng.randint(1, 2)))
        net = LeaderFollowerNetwork(sys=sys_, graphs=graphs, gain=gain)
        sizes.clear()
        analyze(LeaderFollowerNetwork(sys=sys_, graphs=net.graphs))
        bare = list(sizes)
        sizes.clear()
        analyze(net)
        assert sizes == bare
        tested += bool(bare)
    assert tested >= 50, tested


def test_graphs_off_mu_star_fail_like_the_dense_test():
    """Each graph's verdict under a supplied gain (``_gain_results``) against
    the dense error matrix: with r != 0 and some mu* making A - mu* bK
    nilpotent, a graph passes iff its (d, S) is (mu*, None); else every
    graph passes iff r = 0 and A is nilpotent.  On random SCC graphs,
    graphs with one eigenvalue and graphs whose SCCs all have p
    followers, under random, zero and deadbeat gains."""
    rng = random.Random(3307)
    seen = collections.Counter()
    for _ in range(300):
        field = (F2, F3, F5)[rng.randrange(3)]
        p, n = field.p, rng.randint(1, 3)
        N = p * rng.randint(1, 5 // p) if rng.random() < 0.3 else rng.randint(2, 5)
        graphs = tuple(_random_cyclic_graph(rng, field, N) for _ in range(rng.randint(1, 2)))
        a = random_nilpotent(rng, field, n) if rng.random() < 0.2 else random_matrix(rng, field, n, n)
        sys_ = LinearSystemFF(a, random_matrix(rng, field, n, 1))
        kr, d0 = _krylov(sys_), consensus._eigenvalue(graphs[0])[0]
        gain = [random_matrix(rng, field, 1, n), MatrixFF.zeros(field, 1, n),
                MatrixFF.row_vector(field, kr.deadbeat(d0)) if kr.stabilizable and d0 else None][rng.randrange(3)]
        if gain is None:
            continue
        net = LeaderFollowerNetwork(sys=sys_, graphs=graphs, gain=gain)
        f = consensus._facts(net)
        some_mu = (a - (sys_.b @ gain).scale(f.mu)).is_nilpotent()
        entries = analyze(net).checks["graphs"]
        for gi, (g, (d, failing)) in enumerate(zip(graphs, f.eigen)):
            dense = error_dynamics_matrix(net, gi).is_nilpotent()
            assert f.passes[gi] == entries[gi]["supplied_gain_nilpotent"] == dense
            if not any(f.r):
                assert dense == a.is_nilpotent()
                seen["r = 0"] += 1
            elif not some_mu:
                assert not dense
                seen["no mu"] += 1
            else:
                assert dense == (d == f.mu and failing is None)
                seen["d != mu*" if d != f.mu else "d = mu*, fails" if failing else "d = mu*, passes"] += 1
            seen["p divides every |S|"] += all(len(c) % p == 0 for c in g.strongly_connected_components())
    assert len(seen) == 6 and min(seen.values()) >= 10, seen


def test_convergence_bound_reads_the_facts_without_a_report(monkeypatch):
    """convergence_bound against analyze's bound on random networks, with
    and without gains, one graph or two, acyclic, with self-loops or
    cyclic (H with one eigenvalue or not): the same value, or the same
    ValueError text, and no report."""
    rng = random.Random(4111)
    reports = []
    for name in ("check_static", "check_switching"):
        real = getattr(consensus, name)
        monkeypatch.setattr(consensus, name, lambda net, _real=real: reports.append(net) or _real(net))
    seen = collections.Counter()
    for _ in range(300):
        field = (F2, F3, F5)[rng.randrange(3)]
        n, N = rng.randint(1, 3), rng.randint(1, 4)
        d = rng.randrange(1, field.p)
        make = (lambda: random_dag_graph(rng, field, N), lambda: _self_loop_graph(rng, field, N, d),
                lambda: random_scc_graph(rng, field, N),
                lambda: _graph_with_laplacian(rng, field, _one_eigenvalue(rng, field, N, d)))[rng.randrange(4)]
        a = random_nilpotent(rng, field, n) if rng.random() < 0.2 else random_matrix(rng, field, n, n)
        sys_ = LinearSystemFF(a, random_matrix(rng, field, n, 1))
        kr = _krylov(sys_)
        gain = (None, random_matrix(rng, field, 1, n),
                MatrixFF.row_vector(field, kr.deadbeat(d)) if kr.stabilizable else None)[rng.randrange(3)]
        net = LeaderFollowerNetwork(sys=sys_, graphs=tuple(make() for _ in range(rng.randint(1, 2))), gain=gain)
        reports.clear()
        try:
            bound = convergence_bound(net)
        except ValueError as exc:
            bound = str(exc)
        assert reports == []
        report = analyze(net)
        if report.verdict == "guaranteed":
            assert bound == report.bounds[report.mode]
        else:
            assert bound == ("convergence bound requires a consensus-guaranteed network "
                             f"(verdict: {report.verdict})")
        seen[report.verdict, gain is None] += 1
    assert len(seen) == 6 and min(seen.values()) >= 5, seen


# ---------------------------------------------------------
# The report's per-graph facts
# ---------------------------------------------------------

def _power_of_x_minus(c, N, p):
    """Ascending coefficients of (x - c)^N mod p."""
    return [math.comb(N, k) * (-c) ** (N - k) % p for k in range(N + 1)]


def _failing_blocks(field, h, comps, d):
    """Per SCC, whether its block of the dense H minus d I is not nilpotent."""
    p = field.p
    return [not MatrixFF(field, [[(h[i - 1][j - 1] - d * (i == j)) % p for j in comp] for i in comp]).is_nilpotent()
            for comp in comps]


def test_per_graph_facts_match_dense_h():
    """Each graph's eigenvalue and failing_scc against H = Dbar - Abar from
    ``adjacency_matrices``: eigenvalue == c iff chi_H = (x - c)^N, and the
    block of failing_scc minus d I (d the graph's candidate) is not
    nilpotent while every earlier SCC's block is; on graphs with cycles
    and self-loops, p in {2, 3, 5, 7} and N <= 6, some with p dividing
    every |S|, so that d is read off a block's characteristic polynomial."""
    rng = random.Random(3109)
    seen = collections.Counter()
    for _ in range(900):
        field = (F2, F3, F5, PrimeField(7))[rng.randrange(4)]
        p, kind = field.p, rng.randrange(3)
        if kind == 2 and p <= 5:
            N = p * rng.randint(1, 6 // p)
            g = _p_cycle_graph(rng, field, N)
        elif kind == 1:
            N = rng.randint(1, 6)
            g = _graph_with_laplacian(rng, field, _one_eigenvalue(rng, field, N, rng.randrange(p)))
        else:
            N = rng.randint(1, 6)
            g = random_scc_graph(rng, field, N)
        n = rng.randint(1, 2)
        sys_ = LinearSystemFF(random_matrix(rng, field, n, n), random_matrix(rng, field, n, 1))
        net = LeaderFollowerNetwork(sys=sys_, graphs=(g,))
        [entry] = analyze(net).checks["graphs"]
        [(d, _)] = consensus._facts(net).eigen
        a_bar, d_bar = g.adjacency_matrices()
        h = d_bar - a_bar
        chi = list(h.char_poly().coeffs)
        for c in range(p):
            assert (entry["eigenvalue"] == c) == (chi == _power_of_x_minus(c, N, p)), (g, entry)
        comps = g.strongly_connected_components()
        fails = _failing_blocks(field, h.to_rows(), comps, d)
        failing = entry["failing_scc"]
        assert (failing is None) == (entry["eigenvalue"] is not None)
        if failing is None:
            assert not any(fails), (g, entry)
        else:
            k = comps.index(tuple(failing))
            assert fails[k] and not any(fails[:k]), (g, entry)
            seen["fails after the first SCC"] += k > 0
        seen["p divides every |S|", failing is None] += all(len(c) % p == 0 for c in comps)
        seen["one eigenvalue", failing is None] += 1
        seen["self-loop"] += any(g.weight(i, i) for i in range(1, N + 1))
        seen["cyclic"] += any(len(c) > 1 for c in comps)
    assert len(seen) == 7 and min(seen.values()) >= 40, seen


def test_follower_the_leader_misses_fails_by_the_spectrum():
    """Leader reachability needs no check of its own.  The first SCC that
    the leader does not reach has no edge in from outside it (a source of
    the condensation), so H_SS 1 = 0, and H has the eigenvalue 0.  On
    random networks with a stabilizable pair and A not nilpotent, a graph
    with such a follower makes analyze impossible; its H has no single
    nonzero eigenvalue, and its failing_scc is that SCC or an earlier one
    unless its candidate d is 0."""
    rng = random.Random(3119)
    seen = collections.Counter()
    while min(seen.get(k, 0) for k in ("unreached", "earlier", "d = 0")) < 25:
        field = (F2, F3, F5)[rng.randrange(3)]
        n, N = rng.randint(1, 3), rng.randint(1, 6)
        sys_ = LinearSystemFF(random_matrix(rng, field, n, n), random_matrix(rng, field, n, 1))
        if not is_stabilizable(sys_) or sys_.A.is_nilpotent():
            continue
        graphs = tuple((random_dag_graph, random_scc_graph)[rng.randrange(2)](rng, field, N)
                       for _ in range(rng.randint(1, 2)))
        missed = [set(range(N + 1)) - reference_reached(g) for g in graphs]
        if not any(missed):
            continue
        net = LeaderFollowerNetwork(sys=sys_, graphs=graphs)
        report = analyze(net)
        assert report.verdict == "impossible", report.to_dict()
        for g, out, entry, (d, _) in zip(graphs, missed, report.checks["graphs"], consensus._facts(net).eigen):
            if not out:
                continue
            assert entry["eigenvalue"] in (None, 0)
            comps = g.strongly_connected_components()
            first = next(c for c in comps if out.issuperset(c))
            h = g.adjacency_matrices()
            h = (h[1] - h[0]).to_rows()
            assert not any(sum(h[i - 1][j - 1] for j in first) % field.p for i in first)
            if not d:
                seen["d = 0"] += 1
                continue
            failing = tuple(entry["failing_scc"])
            assert comps.index(failing) <= comps.index(first), (g, entry)
            seen["unreached" if failing == first else "earlier"] += 1
