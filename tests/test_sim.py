import copy
import random
from collections import Counter
from itertools import product

import pytest

from ffconsensus import sim
from ffconsensus import (
    LeaderFollowerNetwork,
    LinearSystemFF,
    MatrixFF,
    NetworkState,
    PrimeField,
    SwitchingSignal,
    Trajectory,
    VectorFF,
    WeightedDigraphFF,
    convergence_bound,
    error_dynamics_matrix,
    exhaustive_consensus_oracle,
    random_state,
    simulate,
    step,
    synthesize_gain,
)
from ffconsensus.consensus import GainSynthesisError

from conftest import (
    F2,
    F3,
    F5,
    REF_A_ROWS,
    REF_B,
    error_vectors,
    mat_power,
    per_agent_errors,
    per_agent_stepper,
    random_matrix,
    random_network,
    random_nilpotent,
    random_scc_graph,
)


def vec(field, *entries):
    """An agent state: a tuple of residues."""
    return tuple(map(field.scalar, entries))


def apply(m: MatrixFF, x: tuple[int, ...]) -> tuple[int, ...]:
    """The matrix m times the agent state x."""
    return (m @ VectorFF(m.field, x)).entries


def stacked_error(state, p: int) -> list[int]:
    return [c for d in error_vectors(state, p) for c in d]


# ---------------------------------------------------------
# Single step semantics
# ---------------------------------------------------------

def test_equal_states_stay_equal():
    rng = random.Random(1)
    net = random_network(rng, F3, n=3, num_followers=3)
    x = vec(F3, 1, 2, 0)
    st = NetworkState(step=0, leader=x, followers=(x, x, x))
    nxt = step(net, st)
    assert nxt.leader == apply(net.sys.A, x)
    assert all(f == nxt.leader for f in nxt.followers)


def test_single_follower_error_recurrence():
    d = 2
    sys_ = LinearSystemFF(MatrixFF(F3, [[1, 1], [0, 1]]), MatrixFF.column(F3, [0, 1]))
    g = WeightedDigraphFF(F3, 1, [(0, 1, d)])
    net = LeaderFollowerNetwork(sys=sys_, graphs=(g,), gain=MatrixFF.row_vector(F3, [1, 2]))
    closed = sys_.A - (sys_.b @ net.gain).scale(d)
    st = NetworkState(step=0, leader=vec(F3, 1, 0), followers=(vec(F3, 2, 2),))
    delta0 = error_vectors(st, 3)[0]
    nxt = step(net, st)
    assert error_vectors(nxt, 3)[0] == apply(closed, delta0)


def test_step_requires_gain():
    rng = random.Random(2)
    net = random_network(rng, F3, n=2, num_followers=2, with_gain=False)
    with pytest.raises(ValueError):
        step(net, random_state(F3, 2, 2, rng))


def test_states_that_do_not_fit_the_network_are_rejected():
    # zip would cut a wrong agent count or dimension short, and a value
    # out of range would be compared unreduced: each is refused
    rng = random.Random(3)
    net = random_network(rng, F3, n=2, num_followers=2)
    x = vec(F3, 1, 1)
    for followers in ((x,), (x, (1, 1, 2)), (x, (4, 1)), (x, (True, 1))):
        st = NetworkState(step=0, leader=x, followers=followers)
        with pytest.raises(ValueError, match="3 agent states of 2 residues in 0..2"):
            simulate(net, st, horizon=2)
        with pytest.raises(ValueError, match="3 agent states of 2 residues in 0..2"):
            step(net, st)


def test_step_uses_pre_step_states():
    # chain 0 -> 1 -> 2: follower 2 must react to follower 1's OLD state
    sys_ = LinearSystemFF(MatrixFF(F2, [[1]]), MatrixFF.column(F2, [1]))
    g = WeightedDigraphFF(F2, 2, [(0, 1, 1), (1, 2, 1)])
    net = LeaderFollowerNetwork(sys=sys_, graphs=(g,), gain=MatrixFF.row_vector(F2, [1]))
    st = NetworkState(step=0, leader=vec(F2, 0), followers=(vec(F2, 1), vec(F2, 0)))
    nxt = step(net, st)
    # u_2 = K * a_21 (x_1 - x_2) with the old x_1 = 1: x_2' = x_2 + 1 = 1
    assert nxt.followers[1] == vec(F2, 1)


# ---------------------------------------------------------
# Trajectories
# ---------------------------------------------------------

def test_zero_error_init_consensus_step_zero(ref_network):
    net = ref_network.with_gain(synthesize_gain(ref_network))
    x = vec(F3, 1, 2, 0, 1, 2)
    st = NetworkState(step=0, leader=x, followers=(x, x, x, x))
    traj = simulate(net, st, horizon=6)
    assert traj.consensus_step == 0
    assert all(not any(e) for e in traj.errors)


def test_consensus_within_bound_random_trials(ref_network):
    net = ref_network.with_gain(synthesize_gain(ref_network))
    bound = convergence_bound(net)
    rng = random.Random(3)
    for trial in range(20):
        init = random_state(F3, 5, 4, rng)
        sig = SwitchingSignal(kind="random", num_graphs=2, seed=1000 + trial)
        traj = simulate(net, init, signal=sig, horizon=bound + 5)
        assert traj.consensus_step is not None
        assert traj.consensus_step <= bound
        for k in range(bound, bound + 6):
            assert not any(traj.errors[k])


def test_errors_recomputed_from_states_match():
    rng = random.Random(5)
    net = random_network(rng, F3, n=2, num_followers=3)
    traj = simulate(net, random_state(F3, 2, 3, rng), horizon=8)
    for st, stored in zip(traj.states, traj.errors):
        assert tuple(st.errors()) == stored


def test_error_metric_zero_iff_componentwise_equal():
    st = NetworkState(
        step=0, leader=vec(F3, 1, 2), followers=(vec(F3, 1, 2), vec(F3, 2, 2))
    )
    errs = st.errors()
    assert errs[0] == 0
    assert errs[1] == 1  # |2 - 1| on residues, ordinary integer arithmetic


def test_no_consensus_with_zero_gain_on_cycle_state():
    # place the initial error on a genuine cycle of the autonomous map
    a = MatrixFF(F3, REF_A_ROWS)
    sys_ = LinearSystemFF(a, MatrixFF.column(F3, REF_B))
    g = WeightedDigraphFF(F3, 1, [(0, 1, 1)])
    net = LeaderFollowerNetwork(sys=sys_, graphs=(g,), gain=MatrixFF.zeros(F3, 1, 5))
    seed_vec = vec(F3, 1, 0, 0, 0, 0)
    cyc = apply(mat_power(a, 5), seed_vec)  # lands on the bijective part
    assert any(cyc)
    st = NetworkState(step=0, leader=vec(F3, 0, 0, 0, 0, 0), followers=(cyc,))
    traj = simulate(net, st, horizon=50)
    assert traj.consensus_step is None
    assert all(any(e) for e in traj.errors)


# ---------------------------------------------------------
# Simulation vs matrix product (the two error routes agree)
# ---------------------------------------------------------

def test_simulation_matches_matrix_products():
    rng = random.Random(7)
    for _ in range(30):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 4)
        nf = rng.randrange(1, 4)
        q = rng.randrange(1, 3)
        net = random_network(rng, field, n=n, num_followers=nf, num_graphs=q)
        mats = [error_dynamics_matrix(net, i) for i in range(q)]
        init = random_state(field, n, nf, rng)
        sig = (
            SwitchingSignal(kind="random", num_graphs=q, seed=rng.randrange(10**6))
            if q > 1
            else None
        )
        traj = simulate(net, init, signal=sig, horizon=7)
        delta = stacked_error(traj.states[0], field.p)
        for k in range(1, 8):
            m = mats[traj.signal_indices[k - 1]]
            delta = [
                sum(m.entry_int(i, j) * delta[j] for j in range(len(delta))) % field.p
                for i in range(len(delta))
            ]
            assert delta == stacked_error(traj.states[k], field.p)


def test_errors_stay_zero_once_reached():
    rng = random.Random(11)
    hits = 0
    while hits < 10:
        net = random_network(rng, F2, n=2, num_followers=2)
        traj = simulate(net, random_state(F2, 2, 2, rng), horizon=10)
        if traj.consensus_step is None:
            continue
        hits += 1
        for k in range(traj.consensus_step, traj.horizon + 1):
            assert not any(traj.errors[k])


# ---------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------

def test_oracle_true_for_nilpotent_error_matrix():
    sys_ = LinearSystemFF(MatrixFF(F2, [[1]]), MatrixFF.column(F2, [1]))
    g = WeightedDigraphFF(F2, 2, [(0, 1, 1), (1, 2, 1)])
    net = LeaderFollowerNetwork(sys=sys_, graphs=(g,), gain=MatrixFF.row_vector(F2, [1]))
    assert error_dynamics_matrix(net).is_nilpotent()
    assert exhaustive_consensus_oracle(net, horizon=2)


def test_oracle_false_when_not_nilpotent():
    sys_ = LinearSystemFF(MatrixFF(F2, [[1]]), MatrixFF.column(F2, [1]))
    g = WeightedDigraphFF(F2, 2, [(0, 1, 1), (1, 2, 1)])
    net = LeaderFollowerNetwork(sys=sys_, graphs=(g,), gain=MatrixFF.zeros(F2, 1, 1))
    assert not error_dynamics_matrix(net).is_nilpotent()
    assert not exhaustive_consensus_oracle(net, horizon=8)


def test_oracle_matches_nilpotency_random():
    rng = random.Random(13)
    for _ in range(25):
        field = (F2, F3)[rng.randrange(2)]
        n = rng.randrange(1, 3)
        nf = rng.randrange(1, 3)
        net = random_network(rng, field, n=n, num_followers=nf)
        m = error_dynamics_matrix(net)
        horizon = max(1, nf * n)
        assert exhaustive_consensus_oracle(net, horizon=horizon) == m.is_nilpotent()


def test_oracle_all_signals_switching():
    sys_ = LinearSystemFF(MatrixFF(F2, [[1]]), MatrixFF.column(F2, [1]))
    g1 = WeightedDigraphFF(F2, 2, [(0, 1, 1), (1, 2, 1)])
    g2 = WeightedDigraphFF(F2, 2, [(0, 1, 1), (0, 2, 1)])
    net = LeaderFollowerNetwork(sys=sys_, graphs=(g1, g2), gain=MatrixFF.row_vector(F2, [1]))
    t = convergence_bound(net)
    assert exhaustive_consensus_oracle(net, horizon=t, all_signals=True)
    # one step before the bound there exists a surviving sequence or not;
    # either way the bound itself must win, and a broken gain must fail
    bad = net.with_gain(MatrixFF.zeros(F2, 1, 1))
    assert not exhaustive_consensus_oracle(bad, horizon=6, all_signals=True)


def test_oracle_bound_guard():
    rng = random.Random(17)
    net = random_network(rng, F3, n=3, num_followers=3)
    with pytest.raises(ValueError):
        exhaustive_consensus_oracle(net, horizon=2, state_bound=10)


def test_simulate_makes_no_weight_lookups(ref_network, monkeypatch):
    net = ref_network.with_gain(synthesize_gain(ref_network))

    def no_lookup(self, src, tgt):
        raise AssertionError("simulate looked up an edge weight")

    monkeypatch.setattr(WeightedDigraphFF, "weight", no_lookup)
    sig = SwitchingSignal(kind="random", num_graphs=2, seed=4)
    traj = simulate(net, random_state(F3, 5, 4, random.Random(4)), signal=sig, horizon=20)
    assert traj.consensus_step is not None


def test_stepper_routes_agree_on_cyclic_networks():
    """simulate and the oracle, along one signal (under the default and
    the least state bound) and over all signals, against the error
    matrices, on follower graphs with cycles, self-loops and zero
    in-degrees."""
    rng = random.Random(23)
    seen = Counter()
    for _ in range(100):
        field = (F2, F3)[rng.randrange(2)]
        p = field.p
        n = rng.randint(1, 2)
        N = rng.randint(1, 3 if p ** (2 * n) <= 16 else 2)
        a = random_nilpotent(rng, field, n) if rng.random() < 0.4 else random_matrix(rng, field, n, n)
        graphs = tuple(random_scc_graph(rng, field, N) for _ in range(rng.randint(1, 2)))
        gain = random_matrix(rng, field, 1, n) if rng.random() < 0.8 else MatrixFF.zeros(field, 1, n)
        net = LeaderFollowerNetwork(sys=LinearSystemFF(a, random_matrix(rng, field, n, 1)),
                                    graphs=graphs, gain=gain)
        q = len(graphs)
        mats = [error_dynamics_matrix(net, gi) for gi in range(q)]
        horizon = N * n
        sig = SwitchingSignal(kind="random", num_graphs=q, seed=rng.randrange(10**6))

        traj = simulate(net, random_state(field, n, N, rng), signal=sig, horizon=horizon)
        delta = stacked_error(traj.states[0], p)
        for k in range(1, horizon + 1):
            m = mats[traj.signal_indices[k - 1]]
            delta = [
                sum(m.entry_int(i, j) * delta[j] for j in range(len(delta))) % p
                for i in range(len(delta))
            ]
            assert delta == stacked_error(traj.states[k], field.p)

        along_signal = MatrixFF.identity(field, N * n)
        for gi in sig.realize(horizon):
            along_signal = mats[gi] @ along_signal
        products = {MatrixFF.identity(field, N * n)}
        for _ in range(horizon):
            products = {m @ prod for prod in products for m in mats}
        if q == 1:  # a power N*n of an N*n x N*n matrix vanishes iff it is nilpotent
            assert along_signal.is_zero() == mats[0].is_nilpotent()
        assert exhaustive_consensus_oracle(net, horizon, signal=sig) == along_signal.is_zero()
        assert exhaustive_consensus_oracle(
            net, horizon, signal=sig, state_bound=p ** (n * N)
        ) == along_signal.is_zero()
        assert exhaustive_consensus_oracle(net, horizon, all_signals=True) == all(
            prod.is_zero() for prod in products
        )

        seen["consensus" if along_signal.is_zero() else "no_consensus"] += 1
        seen["switching"] += q > 1
        for g in graphs:
            seen["cyclic"] += any(len(c) > 1 for c in g.strongly_connected_components())
            seen["self_loop"] += any(g.weight(i, i) for i in range(1, N + 1))
            seen["zero_degree"] += 0 in g.in_degrees().values()
    assert min(seen.values()) >= 15, seen


def test_simulate_matches_stepping_every_agent(monkeypatch):
    """simulate, which stops stepping the followers once they agree with
    the leader, against ``step`` on every agent at every step; the
    per-graph steppers run exactly until agreement."""
    rng = random.Random(29)
    seen = Counter()
    real_stepper = sim._Packing.stepper
    calls = Counter()

    def counting_stepper(packing, gi):
        advance = real_stepper(packing, gi)

        def counted(X):
            calls[gi] += 1
            return advance(X)

        return counted

    monkeypatch.setattr(sim._Packing, "stepper", counting_stepper)
    for _ in range(300):
        field = (F2, F3, F5)[rng.randrange(3)]
        n = rng.randint(1, 3)
        N = rng.randint(1, 4)
        a = random_nilpotent(rng, field, n) if rng.random() < 0.4 else random_matrix(rng, field, n, n)
        graphs = tuple(random_scc_graph(rng, field, N) for _ in range(rng.randint(1, 2)))
        gain = random_matrix(rng, field, 1, n) if rng.random() < 0.8 else MatrixFF.zeros(field, 1, n)
        net = LeaderFollowerNetwork(sys=LinearSystemFF(a, random_matrix(rng, field, n, 1)),
                                    graphs=graphs, gain=gain)
        q = len(graphs)
        horizon = rng.randint(1, N * n + 5)
        if rng.random() < 0.5:
            sig = SwitchingSignal(kind="random", num_graphs=q, seed=rng.randrange(10**6))
        else:
            sig = SwitchingSignal(kind="explicit", num_graphs=q,
                                  sequence=tuple(rng.randrange(q) for _ in range(horizon)))
        init = random_state(field, n, N, rng)
        if rng.random() < 0.15:
            init = NetworkState(step=3, leader=init.leader, followers=(init.leader,) * N)

        calls.clear()
        traj = simulate(net, init, signal=sig, horizon=horizon)
        stepped = Counter(traj.signal_indices[: traj.consensus_step])
        assert calls == stepped

        states = [init]
        for gi in traj.signal_indices:
            states.append(step(net, states[-1], gi))
        errors = [tuple(st.errors()) for st in states]
        agreed = [k for k in range(horizon + 1) if not any(errors[k])]
        consensus_step = agreed[0] if agreed else None
        if agreed:  # absorbing in the reference too
            assert agreed == list(range(consensus_step, horizon + 1))
        assert traj.signal_indices == tuple(sig.realize(horizon))
        assert traj.states == tuple(states)
        assert traj.errors == tuple(errors)
        assert traj.consensus_step == consensus_step

        seen[f"{q}_graphs"] += 1
        seen[sig.kind] += 1
        seen["self_loop"] += any(g.weight(i, i) for g in graphs for i in range(1, N + 1))
        cyclic = any(len(c) > 1 for g in graphs for c in g.strongly_connected_components())
        seen["cyclic"] += cyclic
        seen["cyclic_agrees_later"] += cyclic and bool(consensus_step)
        if consensus_step is None:
            seen["never_agrees"] += 1
        elif consensus_step == 0:
            seen["agrees_initially"] += 1
        else:
            seen["agrees_later"] += 1
    assert min(seen.values()) >= 25 and len(seen) == 10, seen


# ---------------------------------------------------------
# Packed stepper against the per-agent rule
# ---------------------------------------------------------

WIDTH_PRIMES = (2, 3, 7, 101, 8191, 65537, 1000003)


def extreme_network(field, n: int, N: int, num_graphs: int) -> LeaderFollowerNetwork:
    """A, b, K and every edge weight all p - 1, on complete graphs with
    leader edges and self-loops: the largest unreduced slots."""
    top = field.p - 1
    edges = [(s, t, top) for t in range(1, N + 1) for s in range(N + 1)]
    return LeaderFollowerNetwork(
        sys=LinearSystemFF(MatrixFF(field, [[top] * n] * n), MatrixFF.column(field, [top] * n)),
        graphs=(WeightedDigraphFF(field, N, edges),) * num_graphs,
        gain=MatrixFF.row_vector(field, [top] * n),
    )


def matvec_mod(m: MatrixFF, v: list[int], p: int) -> list[int]:
    rows = m.to_rows()
    return [sum(a * x for a, x in zip(row, v)) % p for row in rows]


def test_packed_stepper_matches_per_agent_rule_on_every_width():
    """simulate's states and errors and ``step`` under each graph against
    the per-agent rule and the error matrices, for p from 2 to 1000003
    and N up to 40, so that every slot width is used: 1, 2, 4 and 8
    bytes, and wider slots unpacked by shift and mask."""
    rng = random.Random(37)
    seen = Counter()
    for case in range(300):
        p = WIDTH_PRIMES[case % len(WIDTH_PRIMES)]
        field = PrimeField(p)
        n = rng.randint(1, 4)
        N = rng.randint(1, rng.choice((3, 10, 40)))
        q = rng.randint(1, 3)
        if rng.random() < 0.15:
            net = extreme_network(field, n, N, q)
            init = NetworkState(0, (p - 1,) * n, ((0,) * n,) * N)
        else:
            a = random_nilpotent(rng, field, n) if rng.random() < 0.3 else random_matrix(rng, field, n, n)
            graphs = tuple(random_scc_graph(rng, field, N) for _ in range(q))
            gain = random_matrix(rng, field, 1, n) if rng.random() < 0.9 else MatrixFF.zeros(field, 1, n)
            net = LeaderFollowerNetwork(sys=LinearSystemFF(a, random_matrix(rng, field, n, 1)),
                                        graphs=graphs, gain=gain)
            init = random_state(field, n, N, rng)
        if rng.random() < 0.4:  # some followers start at the leader's state
            init = NetworkState(0, init.leader, tuple(
                init.leader if rng.random() < 0.5 else f for f in init.followers))
        horizon = rng.randint(1, 6)
        sig = SwitchingSignal(kind="random", num_graphs=q, seed=rng.randrange(10**6))
        traj = simulate(net, init, signal=sig, horizon=horizon)

        advances = [per_agent_stepper(net, gi) for gi in range(q)]
        agents = (init.leader,) + init.followers
        expected = [agents]
        for gi in traj.signal_indices:
            agents = advances[gi](agents)
            expected.append(agents)
        assert [(st.leader,) + st.followers for st in traj.states] == expected
        assert [st.step for st in traj.states] == list(range(horizon + 1))
        assert traj.errors == tuple(map(per_agent_errors, expected))
        agreed = [k for k, errs in enumerate(traj.errors) if not any(errs)]
        assert traj.consensus_step == (agreed[0] if agreed and agreed[-1] == horizon else None)
        for gi in range(q):
            nxt = step(net, init, gi)
            assert (nxt.leader,) + nxt.followers == advances[gi](expected[0])
            assert nxt.step == 1

        if N * n <= 48:
            mats = [error_dynamics_matrix(net, gi) for gi in range(q)]
            delta = stacked_error(traj.states[0], p)
            for k, gi in enumerate(traj.signal_indices, 1):
                delta = matvec_mod(mats[gi], delta, p)
                assert delta == stacked_error(traj.states[k], p)
            seen["error_matrix"] += 1

        width = sim._Packing(net).width
        seen[f"{width // 8}_bytes" if width <= 64 else "shift_mask"] += 1
        seen["self_loop"] += any(g.weight(i, i) for g in net.graphs for i in range(1, N + 1))
        seen["zero_degree"] += any(0 in g.in_degrees().values() for g in net.graphs)
        seen["follower_at_leader"] += init.leader in init.followers
        seen["agrees_later"] += bool(traj.consensus_step)
        seen["N_over_24"] += N > 24
    assert min(seen.values()) >= 15 and len(seen) == 11, seen


def test_oracle_routes_match_per_agent_rule():
    """The oracle's one route (errors with the leader pinned at 0), under
    one signal and under all switching sequences, against the per-agent
    rule run on full network states and on errors, and against the error
    matrices."""
    rng = random.Random(41)
    seen = Counter()
    for _ in range(60):
        field = (F2, F3)[rng.randrange(2)]
        p = field.p
        n = rng.randint(1, 2)
        N = rng.randint(1, 3 if p ** (2 * n) <= 16 else 2)
        q = rng.randint(1, 2)
        a = random_nilpotent(rng, field, n) if rng.random() < 0.5 else random_matrix(rng, field, n, n)
        graphs = tuple(random_scc_graph(rng, field, N) for _ in range(q))
        net = LeaderFollowerNetwork(sys=LinearSystemFF(a, random_matrix(rng, field, n, 1)),
                                    graphs=graphs, gain=random_matrix(rng, field, 1, n))
        horizon = N * n
        sig = SwitchingSignal(kind="random", num_graphs=q, seed=rng.randrange(10**6))
        advances = [per_agent_stepper(net, gi) for gi in range(q)]
        cells = list(product(range(p), repeat=n))

        def reaches(agents):
            for gi in sig.realize(horizon):
                agents = advances[gi](agents)
            return all(x == agents[0] for x in agents)

        full = all(map(reaches, product(cells, repeat=N + 1)))
        errors = all(reaches(((0,) * n,) + d) for d in product(cells, repeat=N))
        current = {((0,) * n,) + d for d in product(cells, repeat=N)}
        for _ in range(horizon):
            current = {adv(agents) for agents in current for adv in advances}
        every_signal = current == {((0,) * n,) * (N + 1)}

        mats = [error_dynamics_matrix(net, gi) for gi in range(q)]
        along = MatrixFF.identity(field, N * n)
        for gi in sig.realize(horizon):
            along = mats[gi] @ along
        assert full == errors == along.is_zero()
        assert exhaustive_consensus_oracle(net, horizon, signal=sig) == full
        assert exhaustive_consensus_oracle(net, horizon, signal=sig, state_bound=p ** (n * N)) == errors
        assert exhaustive_consensus_oracle(net, horizon, all_signals=True) == every_signal
        seen["consensus" if full else "no_consensus"] += 1
        seen["every_signal" if every_signal else "some_signal_fails"] += 1
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------
# States built on first read
# ---------------------------------------------------------

def eager_states(net: LeaderFollowerNetwork, init: NetworkState, indices) -> list[NetworkState]:
    """Every agent stepped by ``step`` until agreement, then the leader's
    orbit A x_0 shared by every agent."""
    states = [init]
    for gi in indices:
        last = states[-1]
        if any(last.errors()):
            states.append(step(net, last, gi))
        else:
            x0 = apply(net.sys.A, last.leader)
            states.append(NetworkState(last.step + 1, x0, (x0,) * net.num_followers))
    return states


def lazy_case(rng: random.Random, case: int):
    """A seeded network, initial state, signal and horizon; the cases
    cycle through p (1000003 last: slots wider than 64 bits) and the
    three signal kinds."""
    p = (2, 3, 5, 101, 1000003)[case % 5]
    field = PrimeField(p)
    n, N, q = rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 3)
    graphs = tuple(random_scc_graph(rng, field, N) for _ in range(q))
    nilpotent = rng.random() < 0.5
    a = random_nilpotent(rng, field, n) if nilpotent else random_matrix(rng, field, n, n)
    # with a zero gain every agent advances by A alone: a nilpotent A agrees within n steps, for any p
    zero_gain = nilpotent and rng.random() < 0.5
    gain = MatrixFF.zeros(field, 1, n) if zero_gain else random_matrix(rng, field, 1, n)
    net = LeaderFollowerNetwork(sys=LinearSystemFF(a, random_matrix(rng, field, n, 1)), graphs=graphs, gain=gain)
    horizon = 1 if case % 7 == 0 else rng.randint(2, 2 * n + 4)
    kind = ("periodic", "random", "explicit")[case % 3]
    if kind == "periodic":
        sig = SwitchingSignal(kind, q, sequence=tuple(rng.randrange(q) for _ in range(rng.randint(1, 3))))
    elif kind == "random":
        sig = SwitchingSignal(kind, q, seed=rng.randrange(10**6))
    else:
        sig = SwitchingSignal(kind, q, sequence=tuple(rng.randrange(q) for _ in range(horizon + rng.randint(0, 2))))
    init = random_state(field, n, N, rng)
    if rng.random() < 0.2:
        init = NetworkState(0, init.leader, (init.leader,) * N)
    if rng.random() < 0.5:
        init = NetworkState(rng.randint(1, 50), init.leader, init.followers)
    return net, init, sig, horizon


def test_lazy_states_match_eager_stepping():
    """simulate's states, built on first read from the packed columns it
    recorded, against stepping every agent with ``step`` until agreement
    and the leader-only tail after it."""
    rng = random.Random(53)
    seen = Counter()
    for case in range(300):
        net, init, sig, horizon = lazy_case(rng, case)
        traj = simulate(net, init, signal=sig, horizon=horizon)
        assert traj.horizon == horizon
        assert traj.signal_indices == tuple(sig.realize(horizon))
        expected = eager_states(net, init, traj.signal_indices)
        assert traj.states == tuple(expected)
        assert traj.states is traj.states  # built once
        assert [st.step for st in traj.states] == list(range(init.step, init.step + horizon + 1))
        assert traj.errors == tuple(tuple(st.errors()) for st in expected)
        agreed = [k for k, errs in enumerate(traj.errors) if not any(errs)]
        assert traj.consensus_step == (agreed[0] if agreed else None)

        cs = traj.consensus_step
        seen[f"{len(net.graphs)}_graphs"] += 1
        seen[sig.kind] += 1
        seen["never_agrees" if cs is None else "agrees_initially" if cs == 0
             else "agrees_mid_horizon" if cs < horizon else "agrees_at_horizon"] += 1
        seen["horizon_1"] += horizon == 1
        seen["step_offset"] += init.step != 0
        seen["shift_mask"] += sim._Packing(net).width > 64
    assert min(seen.values()) >= 10 and len(seen) == 13, seen


def test_record_contract_before_and_after_states_are_read(monkeypatch):
    """A trajectory from simulate, its states unread and read, against one
    built from its materialized states: ==, hash, repr, copy and pickle,
    and read-only fields.  Until ``states`` is read no NetworkState is
    made: ``horizon``, ``errors`` and the CSV writer read the errors."""
    import copy
    import pickle

    from ffconsensus.cli import _traj_csv

    def hash_or_error(obj):
        try:
            return hash(obj)
        except TypeError as exc:
            return f"TypeError: {exc}"

    def refuse(*args):
        raise AssertionError("a NetworkState was built")

    rng = random.Random(59)
    for case in range(30):
        net, init, sig, horizon = lazy_case(rng, case)
        run = lambda: simulate(net, init, signal=sig, horizon=horizon, metadata={"case": case})
        read = run()
        eager = Trajectory(read.states, read.errors, read.consensus_step, read.signal_indices, read.metadata)
        for fresh in (run, lambda: read):
            assert fresh() == eager and eager == fresh() and not fresh() != eager
            assert hash_or_error(fresh()) == hash_or_error(eager)
            assert repr(fresh()) == repr(eager)
            for twin in (copy.copy(fresh()), copy.deepcopy(fresh()), pickle.loads(pickle.dumps(fresh()))):
                assert type(twin) is Trajectory and twin == eager and repr(twin) == repr(eager)
            unread = fresh()
            for name in ("states", "errors", "consensus_step", "signal_indices", "metadata"):
                with pytest.raises(AttributeError):
                    setattr(unread, name, None)
                with pytest.raises(AttributeError):
                    delattr(unread, name)
            assert unread == eager

        unread = run()
        with monkeypatch.context() as patched:
            patched.setattr(sim, "NetworkState", refuse)
            assert unread.horizon == horizon
            assert unread.errors == eager.errors
            _traj_csv(unread)
        assert unread.states == eager.states


# ---------------------------------------------------------
# Switching signals
# ---------------------------------------------------------

def test_signal_kinds_realize():
    assert SwitchingSignal(kind="explicit", num_graphs=2, sequence=(0, 1, 1)).realize(3) == [0, 1, 1]
    assert SwitchingSignal(kind="periodic", num_graphs=2, sequence=(0, 1)).realize(5) == [0, 1, 0, 1, 0]
    r1 = SwitchingSignal(kind="random", num_graphs=3, seed=9).realize(20)
    r2 = SwitchingSignal(kind="random", num_graphs=3, seed=9).realize(20)
    assert r1 == r2
    assert all(0 <= i < 3 for i in r1)


def test_signal_validation():
    with pytest.raises(ValueError):
        SwitchingSignal(kind="explicit", num_graphs=2, sequence=(0, 2))
    with pytest.raises(ValueError):
        SwitchingSignal(kind="explicit", num_graphs=2, sequence=())
    with pytest.raises(ValueError):
        SwitchingSignal(kind="random", num_graphs=2)
    with pytest.raises(ValueError):
        SwitchingSignal(kind="explicit", num_graphs=2, sequence=(0, 1)).realize(3)


# ---------------------------------------------------------
# Packed error sums and one packing per network
# ---------------------------------------------------------

ERROR_PRIMES = (2, 3, 101, 65537, 1000003)


def chain_network(rng, field, n: int, N: int) -> LeaderFollowerNetwork:
    """A random pair over the chain 0 -> 1 -> ... -> N of one weight d,
    with the deadbeat gain for d when the pair has one (the followers then
    agree within N*n steps), else a random gain."""
    d = rng.randrange(1, field.p)
    g = WeightedDigraphFF(field, N, [(i, i + 1, d) for i in range(N)])
    net = LeaderFollowerNetwork(
        sys=LinearSystemFF(random_matrix(rng, field, n, n), random_matrix(rng, field, n, 1)), graphs=(g,))
    try:
        return net.with_gain(synthesize_gain(net))
    except GainSynthesisError:
        return net.with_gain(random_matrix(rng, field, 1, n))


def test_packed_errors_match_the_states_and_step():
    """simulate's packed error sums against ``NetworkState.errors`` over
    the states it builds and over the states ``step`` gives, for p from 2
    to 1000003 (every slot width, and shift and mask above 64 bits), N up
    to 30 and n up to 6, with horizons past agreement and agents at 0,
    p - 1, the leader's state and next to it (both signs in every slot)."""
    rng = random.Random(53)
    seen = Counter()
    for case in range(120):
        field = PrimeField(ERROR_PRIMES[case % len(ERROR_PRIMES)])
        p = field.p
        n, N = rng.randint(1, 6), rng.choice((rng.randint(1, 5), rng.randint(20, 30)))
        if rng.random() < 0.6:
            net = chain_network(rng, field, n, N)
            horizon = N * n + rng.randint(1, 5)
        else:
            net = LeaderFollowerNetwork(
                sys=LinearSystemFF(random_matrix(rng, field, n, n), random_matrix(rng, field, n, 1)),
                graphs=tuple(random_scc_graph(rng, field, N) for _ in range(rng.randint(1, 2))),
                gain=random_matrix(rng, field, 1, n))
            horizon = rng.randint(1, 8)
        leader = tuple(rng.choice((0, p - 1, rng.randrange(p))) for _ in range(n))
        near = lambda x: rng.choice((0, p - 1, x, (x + 1) % p, (x - 1) % p, rng.randrange(p)))
        followers = tuple(leader if rng.random() < 0.1 else tuple(map(near, leader)) for _ in range(N))
        if rng.random() < 0.05:
            followers = (leader,) * N
        init = NetworkState(0, leader, followers)
        sig = SwitchingSignal(kind="random", num_graphs=len(net.graphs), seed=rng.randrange(10**6))
        traj = simulate(net, init, signal=sig, horizon=horizon)

        states = [init]
        for gi in traj.signal_indices:
            states.append(step(net, states[-1], gi))
        errors = tuple(tuple(st.errors()) for st in states)
        assert traj.errors == errors
        assert tuple(tuple(st.errors()) for st in traj.states) == errors
        assert traj.states == tuple(states)
        agreed = [k for k, errs in enumerate(errors) if not any(errs)]
        assert traj.consensus_step == (agreed[0] if agreed else None)

        width = sim._Packing(net).width
        seen[f"{width // 8}_bytes" if width <= 64 else "shift_mask"] += 1
        seen["agrees_initially" if traj.consensus_step == 0 else "agrees_later" if traj.consensus_step
             else "never_agrees"] += 1
        seen["past_agreement"] += traj.consensus_step is not None and traj.consensus_step < horizon
        seen["N_over_24"] += N > 24
        seen["n_6"] += n == 6
    assert len(seen) == 11 and min(seen.values()) >= 5, seen


def test_one_packing_and_one_stepper_per_graph_per_network(monkeypatch):
    """Trials, ``step`` and the oracle on one network share one packing and
    one stepper per graph, kept outside the record's fields: equality, hash,
    repr and copies do not see it."""
    built, steppers = [], []
    real_init, real_stepper = sim._Packing.__init__, sim._Packing.stepper
    monkeypatch.setattr(sim._Packing, "__init__", lambda self, net: built.append(net) or real_init(self, net))
    monkeypatch.setattr(sim._Packing, "stepper", lambda self, gi: steppers.append(gi) or real_stepper(self, gi))
    rng = random.Random(59)
    net = random_network(rng, F3, n=2, num_followers=2, num_graphs=2)
    twin = LeaderFollowerNetwork(sys=net.sys, graphs=net.graphs, gain=net.gain)
    for trial in range(3):
        sig = SwitchingSignal(kind="random", num_graphs=2, seed=trial)
        simulate(net, random_state(F3, 2, 2, rng), signal=sig, horizon=6)
    for gi in (0, 1):
        step(net, random_state(F3, 2, 2, rng), gi)
    exhaustive_consensus_oracle(net, 3, all_signals=True)
    assert len(built) == 1 and sorted(steppers) == [0, 1]
    assert net._packing is not None and twin._packing is None
    assert net == twin and hash(net) == hash(twin) and repr(net) == repr(twin)
    assert copy.copy(net) == net and copy.copy(net)._packing is None
