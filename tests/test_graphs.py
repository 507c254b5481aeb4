import random
from collections import Counter

import pytest

from ffconsensus import (
    EdgeError,
    WeightedDigraphFF,
    union,
)

from conftest import (
    F2, F3, F5, per_entry_edges, random_dag_graph, random_scc_graph, reference_in_degrees, reference_sccs,
    reference_successors,
)


# ---------------------------------------------------------
# Construction rules
# ---------------------------------------------------------

def test_zero_weight_rejected():
    with pytest.raises(ValueError):
        WeightedDigraphFF(F3, 2, [(0, 1, 3)])  # 3 = 0 mod 3


def test_edges_into_leader_rejected():
    with pytest.raises(ValueError):
        WeightedDigraphFF(F3, 2, [(1, 0, 1)])


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        WeightedDigraphFF(F3, 2, [(1, 2, 1), (1, 2, 2)])


def test_out_of_range_nodes_rejected():
    with pytest.raises(ValueError):
        WeightedDigraphFF(F3, 2, [(3, 1, 1)])
    with pytest.raises(ValueError):
        WeightedDigraphFF(F3, 2, [(0, 3, 1)])


@pytest.mark.parametrize("edges, index", [
    ([(0, 1, 1), (3, 1, 1)], 1),  # source out of range
    ([(0, 1, 1), (1, 2, 1), (2, 0, 1)], 2),  # edge into the leader
    ([(0, 1, 3)], 0),  # weight 0 mod 3
    ([(0, 1, 1), (1, 2, 1), (0, 1, 2)], 2),  # duplicate of edge 0
])
def test_edge_error_names_the_offending_edge(edges, index):
    with pytest.raises(EdgeError) as exc:
        WeightedDigraphFF(F3, 2, edges)
    assert exc.value.index == index


@pytest.mark.parametrize("edges", [
    [(1.0, 2, 1), (0, 1, 1)],  # a float source
    [(True, 2, 1)],  # a bool source, not follower 1
], ids=["float", "bool"])
def test_node_that_is_not_an_int_is_a_type_error(edges):
    with pytest.raises(TypeError, match=r"^edge 0 \((1\.0|True)->2\): nodes must be integers$"):
        WeightedDigraphFF(F3, 2, edges)


def _graph_outcome(build, field, num_followers, edges):
    """The sorted edge list ``build`` gives, or the error it raises."""
    try:
        return "ok", build(field, num_followers, edges)
    except EdgeError as exc:
        return "EdgeError", exc.index, str(exc)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _random_edge(rng, N, p):
    """Mostly a valid triple; sometimes a node or weight out of range, a
    bool, float or str entry, or a container of the wrong length."""
    edge = [rng.randint(0, N), rng.randint(1, N), rng.randrange(-p, 2 * p)]
    roll = rng.random()
    if roll < 0.04:
        edge[rng.randrange(3)] = rng.choice((True, False, 1.0, 2.5, "1", -1, N + 1, 0))
    elif roll < 0.06:
        edge = edge[:rng.randint(0, 2)] if rng.random() < 0.5 else edge + [1]
    return rng.choice((tuple, list))(edge)


def test_whole_list_edge_checks_match_per_entry_reference():
    """Same edges, or the same EdgeError index and message, or the same
    TypeError or ValueError, as checking the edges one at a time."""
    def build(field, N, edges):
        return WeightedDigraphFF(field, N, edges).edges()

    def reference(field, N, edges):
        return [(s, t, w) for (s, t), w in per_entry_edges(field, N, edges).items()]

    rng = random.Random(20261019)
    kinds = Counter()
    for _ in range(3000):
        field = rng.choice((F2, F3, F5))
        N = rng.randint(1, 5)
        edges = [_random_edge(rng, N, field.p) for _ in range(rng.randint(0, 8))]
        if edges and rng.random() < 0.3:
            edges.insert(rng.randrange(len(edges)), rng.choice(edges))
        if rng.random() < 0.3:
            rng.shuffle(edges)
        got = _graph_outcome(build, field, N, edges)
        assert got == _graph_outcome(reference, field, N, edges), edges
        kinds[got[0]] += 1
    assert kinds["ok"] > 300 and kinds["EdgeError"] > 300 and kinds["TypeError"] > 30, kinds


def test_residue_constructor_matches_per_entry_reference():
    """The config loader's constructor, given int triples with weights in
    0..p-1, checks only ranges, zero weights and repeated pairs: the same
    edges or the same EdgeError as checking the edges one at a time."""
    def build(field, N, edges):
        return WeightedDigraphFF._of_residues(field, N, edges).edges()

    def reference(field, N, edges):
        return [(s, t, w) for (s, t), w in per_entry_edges(field, N, edges).items()]

    rng = random.Random(20261020)
    kinds = Counter()
    for _ in range(2000):
        field = rng.choice((F2, F3, F5))
        N = rng.randint(1, 5)
        edges = [(rng.randint(-1, N + 1) if rng.random() < 0.05 else rng.randint(0, N),
                  rng.randint(0, N + 1) if rng.random() < 0.05 else rng.randint(1, N),
                  rng.randrange(field.p) if rng.random() < 0.1 else rng.randrange(1, field.p))
                 for _ in range(rng.randint(0, 8))]
        got = _graph_outcome(build, field, N, edges)
        assert got == _graph_outcome(reference, field, N, edges), edges
        if got[0] == "ok":
            assert WeightedDigraphFF._of_residues(field, N, edges) == WeightedDigraphFF(field, N, edges)
        kinds[got[0]] += 1
    assert kinds["ok"] > 300 and kinds["EdgeError"] > 300, kinds


def test_weights_reduced_canonically():
    g = WeightedDigraphFF(F3, 2, [(0, 1, 4)])
    assert g.weight(0, 1) == 1


# ---------------------------------------------------------
# Adjacency and degrees
# ---------------------------------------------------------

def test_empty_graph_matrices():
    g = WeightedDigraphFF(F3, 3)
    a_bar, d_bar = g.adjacency_matrices()
    assert a_bar.is_zero() and d_bar.is_zero()


def test_single_leader_edge():
    g = WeightedDigraphFF(F3, 3, [(0, 1, 2)])
    a_bar, d_bar = g.adjacency_matrices()
    assert a_bar.is_zero()
    assert d_bar.to_rows() == [[2, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_degree_wraps_mod_p():
    # two in-edges of weight 2 each: 2 + 2 = 1 mod 3
    g = WeightedDigraphFF(F3, 2, [(0, 1, 2), (2, 1, 2)])
    assert g.in_degrees()[1] == 1


def test_degrees_match_adjacency_row_sums():
    rng = random.Random(3)
    for _ in range(25):
        field = (F2, F3, F5)[rng.randrange(3)]
        g = random_dag_graph(rng, field, rng.randrange(1, 7))
        a_bar, d_bar = g.adjacency_matrices()
        degs = g.in_degrees()
        for i in range(1, g.num_followers + 1):
            row_sum = g.weight(0, i) + sum(a_bar.entry_int(i - 1, j) for j in range(g.num_followers))
            assert degs[i] == d_bar.entry_int(i - 1, i - 1) == row_sum % field.p


# ---------------------------------------------------------
# DAG detection and the component order
# ---------------------------------------------------------

def test_chain_is_dag():
    g = WeightedDigraphFF(F3, 3, [(1, 2, 1), (2, 3, 1)])
    assert g.is_dag()
    assert g.strongly_connected_components() == [(1,), (2,), (3,)]


def test_two_cycle_not_dag():
    g = WeightedDigraphFF(F3, 2, [(1, 2, 1), (2, 1, 1)])
    assert not g.is_dag()
    assert g.strongly_connected_components() == [(1, 2)]


def test_self_loop_not_dag():
    g = WeightedDigraphFF(F3, 2, [(1, 1, 1)])
    assert not g.is_dag()
    assert g.strongly_connected_components() == [(2,), (1,)]  # no edge orders them


def test_edgeless_graph_is_dag():
    g = WeightedDigraphFF(F3, 3)
    assert g.is_dag()
    assert g.strongly_connected_components() == [(3,), (2,), (1,)]


def test_scc_order_triangularizes_random_dags():
    # claim 1 of consensus._gain_results: with rows and columns in
    # the component order, the follower adjacency (entry (i, j) the weight
    # of j -> i) is strictly lower triangular, as every follower edge runs
    # from a component to a later one
    rng = random.Random(7)
    for _ in range(40):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 9)
        g = random_dag_graph(rng, field, n, edge_prob=0.6)
        order = [node for (node,) in g.strongly_connected_components()]
        assert sorted(order) == list(range(1, n + 1))
        a_bar = g.adjacency_matrices()[0]
        assert not any(a_bar.entry_int(i - 1, j - 1) for k, i in enumerate(order) for j in order[k:])


def test_cycle_witness_is_a_cycle():
    # is_dag is False exactly when some strongly connected component
    # carries a cycle: a mutually reachable set of followers with more
    # than one member, or one follower with a self-loop
    g = WeightedDigraphFF(F3, 4, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (0, 4, 1)])
    assert not g.is_dag() and (1, 2, 3) in g.strongly_connected_components()
    rng = random.Random(139)
    seen = Counter()
    for _ in range(200):
        g = random_scc_graph(rng, (F2, F3, F5)[rng.randrange(3)], rng.randint(1, 8))
        cyclic = [c for c in g.strongly_connected_components() if len(c) > 1 or g.weight(c[0], c[0])]
        assert g.is_dag() == (not cyclic)
        for named in cyclic:
            if len(named) == 1:
                seen["self-loop"] += 1
            else:
                assert all(set(named) <= _reachable(g, v) for v in named)
                seen["cycle"] += 1
    print(f"cases hit: {dict(seen)}")
    assert min(seen["self-loop"], seen["cycle"]) >= 10, seen


def _support_nilpotent(g):
    """Is the 0/1 adjacency of the follower support nilpotent over the integers?"""
    N = g.num_followers
    adj = [[int(g.weight(j, i) != 0) for j in range(1, N + 1)] for i in range(1, N + 1)]
    power = adj
    for _ in range(N - 1):
        power = [[sum(r[k] * adj[k][j] for k in range(N)) for j in range(N)] for r in power]
    return not any(map(any, power))


def test_is_dag_matches_support_nilpotency():
    rng = random.Random(149)
    seen = Counter()
    for trial in range(300):
        field = (F2, F3, F5)[rng.randrange(3)]
        n = rng.randint(1, 7)
        kind = ("dag", "self-loop", "2-cycle", "random")[trial % 4]
        g = random_dag_graph(rng, field, n, edge_prob=0.5)
        edges = {(s, t): w for s, t, w in g.edges()}
        if kind == "self-loop":
            v = rng.randint(1, n)
            edges[(v, v)] = 1
        elif kind == "2-cycle":
            forward = [(s, t) for s, t in edges if s >= 1]
            if forward:
                s, t = rng.choice(forward)
                edges[(t, s)] = 1
        elif kind == "random":
            g = random_scc_graph(rng, field, n)
            edges = {(s, t): w for s, t, w in g.edges()}
        g = WeightedDigraphFF(field, n, [(s, t, w) for (s, t), w in edges.items()])
        acyclic = _support_nilpotent(g)
        assert g.is_dag() == acyclic, g
        seen[(kind, "dag" if acyclic else "cyclic")] += 1
    print(f"cases hit: {dict(seen)}")
    for kind in ("self-loop", "random"):
        assert seen[(kind, "cyclic")] >= 20, seen
    assert seen[("dag", "dag")] >= 50 and seen[("2-cycle", "cyclic")] >= 50, seen
    assert seen[("random", "dag")] >= 5, seen


# ---------------------------------------------------------
# Strongly connected components
# ---------------------------------------------------------

def _reachable(g, src):
    succ = reference_successors(g)
    seen, frontier = {src}, [src]
    while frontier:
        for t in succ[frontier.pop()]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def test_scc_matches_mutual_reachability_and_orders_edges_forward():
    rng = random.Random(131)
    for _ in range(200):
        field = (F2, F3, F5)[rng.randrange(3)]
        g = random_scc_graph(rng, field, rng.randint(1, 8))
        comps = g.strongly_connected_components()
        assert sorted(v for c in comps for v in c) == list(range(1, g.num_followers + 1))
        reach = {v: _reachable(g, v) for v in range(1, g.num_followers + 1)}
        position = {}
        for k, comp in enumerate(comps):
            assert list(comp) == sorted(comp)
            for v in comp:
                position[v] = k
                assert {u for u in reach if v in reach[u] and u in reach[v]} == set(comp)
        for src, tgt, _ in g.edges():
            if src >= 1:
                assert position[src] <= position[tgt]


def test_scc_of_dag_is_singletons_and_self_loop_is_singleton():
    rng = random.Random(137)
    for _ in range(20):
        g = random_dag_graph(rng, F3, rng.randint(1, 8))
        assert all(len(c) == 1 for c in g.strongly_connected_components())
    g = WeightedDigraphFF(F3, 3, [(1, 1, 1), (1, 2, 1), (2, 3, 1), (3, 2, 2)])
    assert g.strongly_connected_components() == [(1,), (2, 3)]


def test_scc_long_chain_is_iterative():
    n = 5000  # far past the default recursion limit
    g = WeightedDigraphFF(F2, n, [(i, i + 1, 1) for i in range(1, n)] + [(n, 1, 1), (0, 1, 1)])
    assert g.strongly_connected_components() == [tuple(range(1, n + 1))]
    chain = WeightedDigraphFF(F2, n, [(i, i + 1, 1) for i in range(n)])
    assert chain.strongly_connected_components() == [(i,) for i in range(1, n + 1)]


def _with_isolated(rng, g, extra):
    """g with ``extra`` followers that have no edge at all, its followers
    moved to random labels among the N + extra."""
    N = g.num_followers + extra
    labels = [0] + rng.sample(range(1, N + 1), g.num_followers)
    return WeightedDigraphFF(g.field, N, [(labels[s], labels[t], w) for s, t, w in g.edges()])


def _support_cases(rng, count):
    for k in range(count):
        field = (F2, F3, F5)[rng.randrange(3)]
        make = (random_dag_graph, random_scc_graph)[k % 2]
        g = make(rng, field, rng.randint(1, 9))
        yield _with_isolated(rng, g, rng.randint(1, 3)) if k % 3 == 0 else g


def test_support_facts_match_dict_references():
    """The cached in-degree and successor lists and the list-based Tarjan
    pass agree with the dict-based code, SCC order included, on DAGs, SCC
    graphs with self-loops and graphs with isolated followers."""
    rng = random.Random(20261021)
    seen = Counter()
    for g in _support_cases(rng, 600):
        N = g.num_followers
        degs, succ = g._support()
        assert len(degs) == len(succ) == N + 1 and degs[0] == 0
        assert g.in_degrees() == reference_in_degrees(g) == dict(zip(range(1, N + 1), degs[1:]))
        assert dict(enumerate(succ)) == reference_successors(g, leader=True)
        comps = g.strongly_connected_components()
        assert comps == reference_sccs(g)
        assert g.strongly_connected_components() == comps and g._support() == (degs, succ)
        assert g.is_dag() == all(len(c) == 1 and c[0] not in succ[c[0]] for c in comps)
        seen["dag" if g.is_dag() else "cyclic"] += 1
        seen["self-loop"] += any(i in succ[i] for i in range(1, N + 1))
        seen["isolated"] += any(not succ[i] and not any(i in t for t in succ) for i in range(1, N + 1))
    assert min(seen.values()) >= 50, seen


# ---------------------------------------------------------
# Union
# ---------------------------------------------------------

def test_union_idempotent_support():
    g = WeightedDigraphFF(F3, 2, [(1, 2, 1), (0, 1, 2)])
    u = union([g, g])
    assert {(s, t) for s, t, _ in u.edges()} == {(s, t) for s, t, _ in g.edges()}


def test_union_combines_supports():
    g1 = WeightedDigraphFF(F3, 3, [(1, 2, 1)])
    g2 = WeightedDigraphFF(F3, 3, [(2, 3, 2)])
    u = union([g1, g2])
    assert {(s, t) for s, t, _ in u.edges()} == {(1, 2), (2, 3)}
    assert u.is_dag()


def test_union_detects_cross_graph_cycle():
    g1 = WeightedDigraphFF(F3, 2, [(1, 2, 1)])
    g2 = WeightedDigraphFF(F3, 2, [(2, 1, 1)])
    assert g1.is_dag() and g2.is_dag()
    assert not union([g1, g2]).is_dag()


def test_union_commutative_associative_support():
    rng = random.Random(11)
    for _ in range(15):
        gs = [random_dag_graph(rng, F3, 4) for _ in range(3)]
        support = lambda g: {(s, t) for s, t, _ in g.edges()}
        assert support(union([gs[0], gs[1]])) == support(union([gs[1], gs[0]]))
        assert support(union([union(gs[:2]), gs[2]])) == support(union([gs[0], union(gs[1:])]))


def test_union_equals_the_validating_constructor():
    """union() takes the inputs' checked edge maps as they are: its graph
    equals the one the constructor validates from the merged edges, first
    graph's weights kept, by ==, hash, edges() and SCCs."""
    rng = random.Random(20261022)
    for _ in range(300):
        field = (F2, F3, F5)[rng.randrange(3)]
        N = rng.randint(1, 8)
        gs = [(random_dag_graph, random_scc_graph)[rng.randrange(2)](rng, field, N) for _ in range(rng.randint(1, 3))]
        merged = {}
        for g in gs:
            for src, tgt, w in g.edges():
                merged.setdefault((src, tgt), w)
        edges = [(s, t, w) for (s, t), w in merged.items()]
        rng.shuffle(edges)
        ref = WeightedDigraphFF(field, N, edges)
        u = union(gs)
        assert u == ref and hash(u) == hash(ref) and u.edges() == ref.edges()
        assert u.strongly_connected_components() == ref.strongly_connected_components() == reference_sccs(ref)
        assert u.in_degrees() == ref.in_degrees()


def test_union_mismatched_inputs_rejected():
    with pytest.raises(ValueError):
        union([WeightedDigraphFF(F3, 2), WeightedDigraphFF(F3, 3)])
    with pytest.raises(ValueError):
        union([WeightedDigraphFF(F3, 2), WeightedDigraphFF(F5, 2)])
