"""Exact discrete-time simulation of leader-follower networks over F_p.

All updates are synchronous: every agent reads the pre-step states, the
leader evolves autonomously, and each follower applies the relative-state
control u_i = K * sum_j a_ij (x_j - x_i) before advancing.  Tracking
errors are reported with ordinary integer arithmetic on the canonical
residues (e_i = sum of componentwise absolute differences), so e_i = 0
exactly when the follower matches the leader componentwise.

The update rule is written once, in ``_Packing.stepper``, and steps all
agents at once.  A state is n ints: X_c holds coordinate c of agent i in
slot i (bits [w*i, w*(i+1)), the leader in slot 0).  With C the coupling
matrix (a_ij off the diagonal, minus agent i's in-weights from other
agents on it, so self-loops add nothing, and a zero leader row), a step
reduces KX = sum_c k_c X_c and unpacks it into the values K x_j, reduces
U = sum_j (K x_j) col_j(C), and reduces each X'_r = sum_c a_rc X_c +
b_r U: n+2 slotwise reductions (``field._slot_reduction``) for any N.
No slot carries into the next: every coefficient is a residue, so a slot
holds at most max(n+1, N+1) products of two residues, below the bound
top of the reduction.  The width is rounded up to 1, 2, 4 or 8 bytes and
a reduced int unpacked by ``to_bytes`` and a native ``memoryview`` cast;
wider slots (p = 65537, say) are unpacked by shift and mask.
``simulate``, ``step`` and the brute-force oracle run it; the oracle's
states are tuples of packed ints.  A network's packing and its per-graph
steppers are built once, on first use, and kept on the network
(``_packing``), so every trial and every ``step`` on it shares them.

The errors are summed on the packed columns too (``_Packing.error``):
per coordinate, |x_i - x_0| in every slot at once with a few big-int
operations, summed over the n columns into one int E whose slot i is e_i.
One unpack of E gives the error tuple, and the followers agree with the
leader exactly when E = 0.

The oracle enumerates errors and needs no second stepper.  Pinned at
0, the leader stays there (A 0 = 0), so each follower's state is its
error delta_i = x_i - x_0, and since x_0 - x_i = -delta_i and d_i counts
the leader edge, the rule reads delta_i' = A delta_i + bK (sum_{j>=1}
abar_ij delta_j - d_i delta_i): the recurrence whose stacked matrix is
the error matrix I_N (x) A + (Abar - Dbar) (x) bK.

Agreement is absorbing under every graph: if x_i = x_0 for every
follower, every difference x_j - x_i in u_i = K sum_j a_ij (x_j - x_i)
(the leader's j = 0 and self-loops included) is x_0 - x_0 = 0, so
u_i = 0 and every agent advances by A alone, to the same A x_0 (in
error form: every error matrix fixes delta = 0).  ``simulate`` therefore
stops stepping at the first step where every follower equals the
leader.  Per step it records the errors and the packed columns X (n
ints), nothing else: the CSV output reads the errors only, and the agreed
tail costs one list extend of the zero error tuple.  ``Trajectory.states``
is built on first read (the JSON output reads it) from those columns,
and after agreement from the leader's orbit alone.  The oracle and
``step`` deliberately step every agent on every step: they are the
independent reference that the shortcut, and the argument itself, are
tested against.
"""

from __future__ import annotations

import random
import sys
from itertools import chain, product, repeat
from operator import lshift, mul, sub

from .consensus import LeaderFollowerNetwork, SwitchingSignal
from .field import PrimeField, _FrozenRecord, _randbelow, _slot_reduction

_ORDER = 1 if sys.byteorder == "little" else -1  # slot order of a native cast

DEFAULT_ORACLE_BOUND = 10**6


class NetworkState(_FrozenRecord):
    """Snapshot at one step: the leader's state and every follower's, each
    a tuple of n canonical residues."""

    __slots__ = ("step", "leader", "followers")

    def errors(self) -> list[int]:
        """Integer error e_i per follower (componentwise |x_i - x_0| sums)."""
        return [sum(map(abs, map(sub, x, self.leader))) for x in self.followers]


class Trajectory(_FrozenRecord):
    """Recorded run: states, per-step errors, and the consensus step.

    A trajectory from ``simulate`` builds ``states`` on first read, from
    the packed columns it recorded per step, and keeps them; until then
    it holds n ints per step up to agreement and no ``NetworkState``."""

    __slots__ = ("_states", "errors", "consensus_step", "signal_indices", "metadata", "_build")
    _fields = ("states", "errors", "consensus_step", "signal_indices", "metadata")
    __hash__ = None  # ``metadata`` is a dict, so no trajectory hashes; the TypeError names the record

    def __init__(self, states: tuple[NetworkState, ...], errors: tuple[tuple[int, ...], ...],
                 consensus_step: int | None, signal_indices: tuple[int, ...], metadata: dict | None = None):
        object.__setattr__(self, "_states", states)
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "consensus_step", consensus_step)
        object.__setattr__(self, "signal_indices", signal_indices)
        object.__setattr__(self, "metadata", {} if metadata is None else metadata)
        object.__setattr__(self, "_build", None)

    @classmethod
    def _recorded(cls, build, errors, consensus_step, signal_indices, metadata) -> "Trajectory":
        """A trajectory whose states ``build()`` returns when first read."""
        traj = cls(None, errors, consensus_step, signal_indices, metadata)
        object.__setattr__(traj, "_build", build)
        return traj

    @property
    def states(self) -> tuple[NetworkState, ...]:
        if self._build is not None:
            object.__setattr__(self, "_states", self._build())
            object.__setattr__(self, "_build", None)
        return self._states

    @property
    def horizon(self) -> int:
        return len(self.errors) - 1


def random_state(field: PrimeField, n: int, num_followers: int, rng: random.Random) -> NetworkState:
    """Uniform initial condition over F_p^n per agent, leader first."""
    draws = _randbelow(rng, field.p, n * (num_followers + 1))
    agents = [tuple(draws[i * n:(i + 1) * n]) for i in range(num_followers + 1)]
    return NetworkState(0, agents[0], tuple(agents[1:]))


class _Packing:
    """One network's packed states (see the module docstring), its update
    rule under each graph and its packed error sum.

    The error sum needs no slot wider than the stepper's: the width w of
    ``_slot_reduction`` has p <= 2^(w-1) and n(p-1) < 2^w.  Proof: with
    top = max(n+1, N+1)(p-1)^2 + 1, s the bit length of top*p and
    M = ceil(2^s / p), w is at least the bit length of top*M plus 1, and
    rounding w up to 8, 16, 32 or 64 bits, or keeping the minimum above
    64 (then unpacked by shift and mask), only widens it.  As
    2^s > top*p, top*M >= top 2^s / p > top^2 >= top, so
    2^(w-1) > top > (n+1)(p-1)^2, which is at least p - 1 and at least
    n(p-1).

    ``error``: for a column X (slot i holds x_i, slot 0 the leader's x_0),
    let G set bit w-1 of every slot and ONES bit 0.  Slot i of
    D = X + G - x_0 ONES is 2^(w-1) + x_i - x_0, in [1, 2^w) as
    |x_i - x_0| <= p - 1 < 2^(w-1), so nothing carries or borrows across
    slots, and its bit w-1 is set iff x_i >= x_0.  With that bit as
    S = (D >> (w-1)) & ONES and the sign mask Sm = S (2^w - 1),
    |x_i - x_0| = (D & Sm) - (G & Sm) + (G & ~Sm) - (D & ~Sm) slotwise;
    as G & Sm = S << (w-1), G & ~Sm = G - (S << (w-1)) and
    D & ~Sm = D - (D & Sm), that is 2 (D & Sm) - (S << w) + G - D, with
    G - D = x_0 ONES - X.  These are integer identities over the slots, so
    the packed result holds |x_i - x_0| in slot i and 0 in slot 0, and the
    sum over the n columns holds e_i <= n(p-1) < 2^w in slot i.
    """

    def __init__(self, net: LeaderFollowerNetwork):
        if net.gain is None:
            raise ValueError("stepping requires a gain K")
        p, n, slots = net.field.p, net.sys.dim, net.num_followers + 1
        self.p, self.graphs, self.k_row = p, net.graphs, net.gain.to_rows()[0]
        self.a_b = list(zip(net.sys.A.to_rows(), [x for (x,) in net.sys.b.to_rows()]))
        top = max(n + 1, slots) * (p - 1) ** 2 + 1
        self.width, self._s, self._M, self._LOW = _slot_reduction(top, p, slots, (8, 16, 32, 64))
        w = self.width
        self._shifts = shifts = [w * i for i in range(slots)]
        if w <= 64:
            size, fmt = slots * w // 8, {8: "B", 16: "H", 32: "I", 64: "Q"}[w]
            self.unpack = lambda v: memoryview(v.to_bytes(size, sys.byteorder)).cast(fmt)[::_ORDER]
        else:
            mask = (1 << w) - 1
            self.unpack = lambda v: [(v >> sh) & mask for sh in shifts]
        ones = ((1 << (w * slots)) - 1) // ((1 << w) - 1)
        high, low, wm1 = ones << (w - 1), (1 << w) - 1, w - 1

        def error(X: tuple[int, ...]) -> int:
            E = 0
            for col in X:
                z = (col & low) * ones
                D = col + high - z
                S = (D >> wm1) & ones
                Sw = S << w
                E += ((D & (Sw - S)) << 1) - Sw + z - col
            return E

        self.error = error
        self._steppers = None

    def steppers(self) -> list:
        """Every graph's ``stepper``, built on first use and kept."""
        if self._steppers is None:
            self._steppers = [self.stepper(gi) for gi in range(len(self.graphs))]
        return self._steppers

    def stepper(self, graph_index: int):
        """``advance``: a packed state to the next one under the graph."""
        w, N = self.width, len(self._shifts) - 1
        p, s, M, LOW, unpack = self.p, self._s, self._M, self._LOW, self.unpack
        k_row, a_b = self.k_row, self.a_b
        lcols = [0] * (N + 1)  # the columns of C
        degree = [0] * (N + 1)
        for src, tgt, wt in self.graphs[graph_index].edges():
            if src != tgt:
                lcols[src] += wt << (w * tgt)
                degree[tgt] += wt
        for i in range(1, N + 1):  # row 0, the leader's, stays zero
            lcols[i] += (-degree[i] % p) << (w * i)

        def advance(X: tuple[int, ...]) -> tuple[int, ...]:
            kx = sum(map(mul, k_row, X))
            U = sum(map(mul, unpack(kx - p * (((kx * M) >> s) & LOW)), lcols))
            U -= p * (((U * M) >> s) & LOW)
            return tuple(
                v - p * (((v * M) >> s) & LOW)
                for v in (sum(map(mul, row, X)) + bt * U for row, bt in a_b)
            )

        return advance

    def pack(self, agents: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        return tuple(sum(map(lshift, col, self._shifts)) for col in zip(*agents))


def _packing(net: LeaderFollowerNetwork) -> _Packing:
    """The network's ``_Packing``, built on first use and kept on it: the
    network is immutable, and every trial, ``step`` and oracle round on
    it then shares one packing and one stepper per graph."""
    if net._packing is None:
        object.__setattr__(net, "_packing", _Packing(net))
    return net._packing


def _agents(net: LeaderFollowerNetwork, state: NetworkState) -> tuple[tuple[int, ...], ...]:
    """The agent states of ``state``, leader first, once checked: one per
    agent of ``net``, each n canonical residues mod p."""
    agents = (tuple(state.leader),) + tuple(map(tuple, state.followers))
    n, p = net.sys.dim, net.field.p
    values = list(chain.from_iterable(agents))
    if (len(agents) != net.num_followers + 1 or set(map(len, agents)) != {n}
            or set(map(type, values)) != {int} or min(values) < 0 or max(values) >= p):
        raise ValueError(
            f"a network state needs {net.num_followers + 1} agent states of {n} residues in 0..{p - 1}"
        )
    return agents


def step(net: LeaderFollowerNetwork, state: NetworkState, graph_index: int = 0) -> NetworkState:
    """One synchronous update under the chosen graph."""
    packing = _packing(net)
    X = packing.steppers()[graph_index](packing.pack(_agents(net, state)))
    agents = tuple(zip(*map(packing.unpack, X)))
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
    stepped only until every follower equals the leader, and the rest of
    ``errors`` is that step's zero tuple repeated.  The states are built
    when ``Trajectory.states`` is first read: each recorded step unpacked,
    then only the leader's A x_0, one tuple that stands for the leader
    and every follower."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if signal is None:
        signal = SwitchingSignal.constant(0)
    indices = signal.realize(horizon)
    q = len(net.graphs)
    if min(indices) < 0 or max(indices) >= q:
        raise ValueError(f"switching signal emitted invalid graph indices {[i for i in indices if not 0 <= i < q]}")

    packing = _packing(net)
    steppers, unpack, error = packing.steppers(), packing.unpack, packing.error
    X = packing.pack(_agents(net, init))
    snapshots = [X]
    E = error(X)
    errors = [tuple(unpack(E)[1:])]
    k = 0
    while k < horizon and E:
        X = steppers[indices[k]](X)
        k += 1
        snapshots.append(X)
        E = error(X)
        errors.append(tuple(unpack(E)[1:]))
    consensus_step = None if E else k
    if consensus_step is not None:
        errors.extend(repeat(errors[-1], horizon - k))

    def build() -> tuple[NetworkState, ...]:
        states = [init]
        for j, X in enumerate(snapshots[1:], init.step + 1):
            agents = tuple(zip(*map(unpack, X)))
            states.append(NetworkState(j, agents[0], agents[1:]))
        if consensus_step is not None:
            a_rows, p, N = net.sys.A.to_rows(), net.field.p, net.num_followers
            x0 = next(zip(*map(unpack, snapshots[-1])))
            for j in range(init.step + consensus_step + 1, init.step + horizon + 1):
                x0 = tuple(sum(map(mul, row, x0)) % p for row in a_rows)
                states.append(NetworkState(j, x0, (x0,) * N))
        return tuple(states)

    meta = dict(metadata or {})
    meta.setdefault("signal_kind", signal.kind)
    if signal.seed is not None:
        meta.setdefault("signal_seed", signal.seed)
    return Trajectory._recorded(build, tuple(errors), consensus_step, tuple(indices), meta)


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

    The errors are enumerated directly, as follower states under a leader
    pinned at 0 (see the module docstring), and advanced as one set by the
    agent update rule, independent of the Kronecker-assembled error
    matrix: under the signal's graph at each step or, with
    ``all_signals``, under every graph, which decides all q^horizon
    switching sequences at once without enumerating them.  Zero error is
    absorbing, so the answer is whether only the zero state is left.
    """
    p, n, N = net.field.p, net.sys.dim, net.num_followers
    if p ** (n * N) > state_bound:
        raise ValueError(f"error state space {p ** (n * N)} exceeds the oracle bound {state_bound}")
    packing = _packing(net)
    steppers = packing.steppers()
    if all_signals:
        rounds = repeat(steppers, horizon)
    else:
        signal = SwitchingSignal.constant(0) if signal is None else signal
        rounds = ([steppers[gi]] for gi in signal.realize(horizon))
    cells = list(product(range(p), repeat=n))
    zero = (0,) * n
    current = {packing.pack((zero,) + deltas) for deltas in product(cells, repeat=N)}
    for advances in rounds:
        current = {adv(X) for X in current for adv in advances}
    return current == {zero}
