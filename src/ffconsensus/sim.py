"""Exact discrete-time simulation of leader-follower networks over F_p.

All updates are synchronous: every agent reads the pre-step states, the
leader evolves autonomously, and each follower applies the relative-state
control u_i = K * sum_j a_ij (x_j - x_i) before advancing.  Tracking
errors are reported with ordinary integer arithmetic on the canonical
residues (e_i = sum of componentwise absolute differences), so e_i = 0
exactly when the follower matches the leader componentwise.

The update rule is written once, in ``_stepper``: built once per graph,
it advances a tuple of N+1 integer agent states, leader first.
``simulate``, ``step`` and every route of the brute-force oracle use it.
The oracle's error route needs no second stepper.  Pinned at 0, the
leader stays there (A 0 = 0), so each follower's state is its error
delta_i = x_i - x_0, and since x_0 - x_i = -delta_i and d_i counts the
leader edge, the rule reads delta_i' = A delta_i + bK (sum_{j>=1} abar_ij
delta_j - d_i delta_i): the recurrence whose stacked matrix is the error
matrix I_N (x) A + (Abar - Dbar) (x) bK.

Agreement is absorbing under every graph: if x_i = x_0 for every
follower, every difference x_j - x_i in u_i = K sum_j a_ij (x_j - x_i)
(the leader's j = 0 and self-loops included) is x_0 - x_0 = 0, so
u_i = 0 and every agent advances by A alone, to the same A x_0 (in
error form: every error matrix fixes delta = 0).  ``simulate`` therefore
stops stepping the followers at the first step where they all equal the
leader and from there computes only the leader's orbit.  The oracle and
``step`` deliberately step every agent on every step: they are the
independent reference that the shortcut, and the argument itself, are
tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import product
from operator import mul, sub

from .consensus import LeaderFollowerNetwork, SwitchingSignal
from .field import PrimeField

DEFAULT_ORACLE_BOUND = 10**6


@dataclass(frozen=True)
class NetworkState:
    """Snapshot at one step: the leader's state and every follower's, each
    a tuple of n canonical residues."""

    step: int
    leader: tuple[int, ...]
    followers: tuple[tuple[int, ...], ...]

    def errors(self) -> list[int]:
        """Integer error e_i per follower (componentwise |x_i - x_0| sums)."""
        return list(_errors((self.leader,) + self.followers))


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: states, per-step errors, and the consensus step."""

    states: tuple[NetworkState, ...]
    errors: tuple[tuple[int, ...], ...]
    consensus_step: int | None
    signal_indices: tuple[int, ...]
    metadata: dict = dc_field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return len(self.states) - 1


def random_state(field: PrimeField, n: int, num_followers: int, rng: random.Random) -> NetworkState:
    """Uniform initial condition over F_p^n per agent."""
    draw = lambda: tuple(rng.randrange(field.p) for _ in range(n))
    return NetworkState(step=0, leader=draw(), followers=tuple(draw() for _ in range(num_followers)))


def _stepper(net: LeaderFollowerNetwork, graph_index: int):
    """The agent update rule under one graph, on integer tables.

    Returns ``advance``, which maps a tuple of N+1 agent states (leader
    first, each a tuple of n residues) to the next one.  In-edges come
    from ``g.edges()``, leader edges and self-loops included (a self-loop
    adds w (x_i - x_i) = 0).  u_i = K sum_j a_ij (x_j - x_i) is evaluated
    as sum_j a_ij (K x_j - K x_i), so each agent's K x is formed once.
    """
    if net.gain is None:
        raise ValueError("stepping requires a gain K")
    p = net.field.p
    a_rows = net.sys.A.to_rows()
    b = net.sys.b.col(0).entries
    k_row = net.gain.to_rows()[0]
    in_edges: list[list[tuple[int, int]]] = [[] for _ in range(net.num_followers + 1)]
    for src, tgt, w in net.graphs[graph_index].edges():
        in_edges[tgt].append((src, w))

    def advance(states: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
        kx = [sum(map(mul, k_row, s)) for s in states]
        out = [_apply(a_rows, states[0], p)]
        for i in range(1, len(states)):
            x_i = states[i]
            u = sum(w * (kx[j] - kx[i]) for j, w in in_edges[i]) % p
            out.append(tuple(
                (sum(map(mul, row, x_i)) + bt * u) % p for row, bt in zip(a_rows, b)
            ))
        return tuple(out)

    return advance


def _apply(rows: list[list[int]], x: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The matrix with integer ``rows`` times x, over F_p."""
    return tuple(sum(map(mul, row, x)) % p for row in rows)


def _errors(agents: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """e_i = sum_c |x_i[c] - x_0[c]| per follower, on integer agent states
    (leader first), with ordinary integer arithmetic on the residues."""
    x0 = agents[0]
    return tuple(sum(map(abs, map(sub, x, x0))) for x in agents[1:])


def _agents(net: LeaderFollowerNetwork, state: NetworkState) -> tuple[tuple[int, ...], ...]:
    """The agent states of ``state``, leader first, once checked: one per
    agent of ``net``, each n canonical residues mod p."""
    agents = (tuple(state.leader),) + tuple(map(tuple, state.followers))
    n, p = net.sys.dim, net.field.p
    if len(agents) != net.num_followers + 1 or any(
        len(x) != n or not all(type(v) is int and 0 <= v < p for v in x) for x in agents
    ):
        raise ValueError(
            f"a network state needs {net.num_followers + 1} agent states of {n} residues in 0..{p - 1}"
        )
    return agents


def step(net: LeaderFollowerNetwork, state: NetworkState, graph_index: int = 0) -> NetworkState:
    """One synchronous update under the chosen graph."""
    agents = _stepper(net, graph_index)(_agents(net, state))
    return NetworkState(state.step + 1, agents[0], agents[1:])


def simulate(
    net: LeaderFollowerNetwork,
    init: NetworkState,
    signal: SwitchingSignal | None = None,
    horizon: int = 1,
    metadata: dict | None = None,
) -> Trajectory:
    """Run ``horizon`` steps, recording states, errors, and the first step
    from which every error stays zero through the horizon (None if the
    errors are still nonzero at the end).

    Agreement is absorbing (see the module docstring), so the agents are
    stepped only until every follower equals the leader; after that only
    the leader's A x_0 is computed, and that one tuple stands for the
    leader and every follower."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if signal is None:
        signal = SwitchingSignal.constant(0)
    indices = signal.realize(horizon)
    bad = [i for i in indices if not (0 <= i < len(net.graphs))]
    if bad:
        raise ValueError(f"switching signal emitted invalid graph indices {bad}")

    steppers = [_stepper(net, gi) for gi in range(len(net.graphs))]
    agents = _agents(net, init)
    states = [init]
    errors = [_errors(agents)]
    k = 0
    while k < horizon and any(errors[-1]):
        agents = steppers[indices[k]](agents)
        k += 1
        states.append(NetworkState(init.step + k, agents[0], agents[1:]))
        errors.append(_errors(agents))

    consensus_step: int | None = None
    if not any(errors[-1]):
        consensus_step = k
        a_rows = net.sys.A.to_rows()
        x0, zero = agents[0], errors[-1]
        for k in range(consensus_step + 1, horizon + 1):
            x0 = _apply(a_rows, x0, net.field.p)
            states.append(NetworkState(init.step + k, x0, (x0,) * len(zero)))
            errors.append(zero)
    meta = dict(metadata or {})
    meta.setdefault("signal_kind", signal.kind)
    if signal.seed is not None:
        meta.setdefault("signal_seed", signal.seed)
    return Trajectory(
        states=tuple(states),
        errors=tuple(errors),
        consensus_step=consensus_step,
        signal_indices=tuple(indices),
        metadata=meta,
    )


# ----------------------------------------------------------------------
# Brute-force oracle
# ----------------------------------------------------------------------


def exhaustive_consensus_oracle(
    net: LeaderFollowerNetwork,
    horizon: int,
    signal: SwitchingSignal | None = None,
    all_signals: bool = False,
    state_bound: int = DEFAULT_ORACLE_BOUND,
) -> bool:
    """True iff EVERY initial condition reaches zero error within horizon.

    The zero error state is absorbing, so the check reduces to "is the
    error zero at the horizon".  With ``all_signals`` the reachable error
    sets are advanced under every graph at every step, which decides all
    q^horizon switching sequences at once without enumerating them.

    Enumerates full network states (leader included) when p^(n(N+1))
    fits the bound, otherwise the errors directly, as follower states
    under a leader pinned at 0 (see the module docstring); every route
    runs the agent update rule, independent of the Kronecker-assembled
    error matrix.
    """
    steppers = [_stepper(net, gi) for gi in range(len(net.graphs))]
    p = net.field.p
    n = net.sys.dim
    N = net.num_followers
    full_count = p ** (n * (N + 1))
    delta_count = p ** (n * N)
    cells = list(product(range(p), repeat=n))
    zero = (0,) * n
    error_starts = lambda: ((zero,) + deltas for deltas in product(cells, repeat=N))

    if all_signals:
        if delta_count > state_bound:
            raise ValueError(
                f"error state space {delta_count} exceeds the oracle bound {state_bound}"
            )
        current = set(error_starts())
        for _ in range(horizon):
            current = {adv(agents) for agents in current for adv in steppers}
        return current == {(zero,) * (N + 1)}

    if signal is None:
        signal = SwitchingSignal.constant(0)
    indices = signal.realize(horizon)
    if full_count <= state_bound:
        starts = product(cells, repeat=N + 1)
    elif delta_count <= state_bound:
        starts = error_starts()
    else:
        raise ValueError(
            f"state space sizes {full_count} / {delta_count} exceed the oracle bound {state_bound}"
        )
    for agents in starts:
        for gi in indices:
            agents = steppers[gi](agents)
        if any(x != agents[0] for x in agents[1:]):
            return False
    return True
