import importlib.util
import json
import random
import sys
from math import gcd, prod
from operator import mul
from pathlib import Path

import pytest

from ffconsensus import (
    ControllabilityDecomposition,
    EdgeError,
    LeaderFollowerNetwork,
    LinearSystemFF,
    MatrixFF,
    PolyFF,
    PrimeField,
    SwitchingSignal,
    WeightedDigraphFF,
    is_prime,
)
from ffconsensus.cli import ConfigError

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


# ---------------------------------------------------------------------
# Reference scenario: the five-dimensional F_3 system used throughout
# the worked examples, plus a graph pair where every follower has
# in-degree 1 mod 3 in each graph (one degree is realized as 2+2 = 1)
# and the union of follower supports is acyclic.
# ---------------------------------------------------------------------

REF_A_ROWS = [
    [0, 0, 1, 1, 1],
    [2, 0, 0, 1, 2],
    [0, 2, 2, 2, 0],
    [0, 0, 1, 1, 2],
    [2, 0, 1, 2, 2],
]
REF_B = [1, 1, 2, 2, 1]
REF_GAIN = [2, 1, 2, 0, 1]  # known handcrafted deadbeat gain for d = 1

REF_GRAPH1_EDGES = [(0, 1, 1), (1, 2, 2), (0, 2, 2), (2, 3, 1), (3, 4, 1)]
REF_GRAPH2_EDGES = [(0, 1, 1), (0, 2, 1), (1, 4, 2), (2, 4, 2), (1, 3, 1)]


@pytest.fixture
def f3():
    return F3


@pytest.fixture
def ref_system():
    return LinearSystemFF(MatrixFF(F3, REF_A_ROWS), MatrixFF.column(F3, REF_B))


@pytest.fixture
def ref_graphs():
    return (
        WeightedDigraphFF(F3, 4, REF_GRAPH1_EDGES),
        WeightedDigraphFF(F3, 4, REF_GRAPH2_EDGES),
    )


@pytest.fixture
def ref_network(ref_system, ref_graphs):
    return LeaderFollowerNetwork(sys=ref_system, graphs=ref_graphs)


def mat_power(m: MatrixFF, k: int) -> MatrixFF:
    """m^k by repeated squaring with ``@`` (the 0th power is the
    identity): the oracle for the nilpotency tests."""
    result = MatrixFF.identity(m.field, m.rows)
    while k:
        if k & 1:
            result = result @ m
        m = m @ m
        k >>= 1
    return result


def successors_by_matmul(a: MatrixFF) -> list[int]:
    """A @ v for every state v (one product with all states as columns),
    packed base p: state x has coordinate j equal to its digit j."""
    p, n = a.field.p, a.rows
    total = p**n
    states = MatrixFF(a.field, [[x // p**j % p for x in range(total)] for j in range(n)])
    packed = [0] * total
    for row in reversed((a @ states).to_rows()):
        packed = [s * p + v for s, v in zip(packed, row)]
    return packed


def naive_cycle_structure(succ: list[int]) -> tuple[int, dict[int, int], int]:
    """(tree depth, {cycle length: count}, transient states) of the map
    x -> succ[x]: iterate every state until it repeats or meets a known
    cycle state.  The oracle for ``autonomous_cycle_structure``."""
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


# ---------------------------------------------------------------------
# Random generators (seeded by the caller)
# ---------------------------------------------------------------------


def per_agent_stepper(net: LeaderFollowerNetwork, graph_index: int):
    """The agent update rule under one graph, one agent at a time: the
    reference for the packed stepper of ``sim``.

    ``advance`` maps a tuple of N+1 agent states (leader first, each a
    tuple of n residues) to the next one.  In-edges come from
    ``g.edges()``, leader edges and self-loops included (a self-loop adds
    w (x_i - x_i) = 0).  u_i = K sum_j a_ij (x_j - x_i) is evaluated as
    sum_j a_ij (K x_j - K x_i), so each agent's K x is formed once.
    """
    p = net.field.p
    a_rows = net.sys.A.to_rows()
    b = net.sys.b.col(0).entries
    k_row = net.gain.to_rows()[0]
    in_edges: list[list[tuple[int, int]]] = [[] for _ in range(net.num_followers + 1)]
    for src, tgt, w in net.graphs[graph_index].edges():
        in_edges[tgt].append((src, w))

    def advance(states: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
        kx = [sum(map(mul, k_row, s)) for s in states]
        out = [tuple(sum(map(mul, row, states[0])) % p for row in a_rows)]
        for i in range(1, len(states)):
            x_i = states[i]
            u = sum(w * (kx[j] - kx[i]) for j, w in in_edges[i]) % p
            out.append(tuple(
                (sum(map(mul, row, x_i)) + bt * u) % p for row, bt in zip(a_rows, b)
            ))
        return tuple(out)

    return advance


def reference_kalman_decompose(sys_: LinearSystemFF) -> ControllabilityDecomposition:
    """The decomposition by dense products: Gauss-Jordan elimination of
    [ctrb(A, b) | I], then c from V^-1 A A^(s-1) b, Q = diag(T, I) V^-1 and
    Q A as n x n products.  The reference for the decomposition and the
    facts that the package reads off one Krylov elimination.

    The basis V is the pivot columns of [ctrb(A, b) | I]: the Krylov
    vectors b, Ab, ..., A^(s-1) b, then the first standard vectors
    independent of them; the right half of the reduced matrix is V^-1.
    With T the s x s matrix of rows e_s A1^i, i < s, Q = diag(T, I) V^-1
    puts A in controller companion form, and A_cc and A_uc are the
    columns of Q A at the chosen standard vectors.
    """
    field, p, n = sys_.field, sys_.field.p, sys_.dim
    cols = [sys_.b.col(0)]
    for _ in range(n - 1):
        cols.append(sys_.A @ cols[-1])
    ctrb = MatrixFF.from_flat(field, n, n, [cols[j].entries[i] for i in range(n) for j in range(n)])
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(ctrb.to_rows())]
    reduced, pivots = reference_echelon(aug, p)
    s = sum(j < n for j in pivots)
    std = [j - n for j in pivots[s:]]
    V_inv = MatrixFF.from_flat(field, n, n, [x for row in reduced for x in row[n:]])
    c = (V_inv @ (sys_.A @ ctrb.col(s - 1))).entries[:s] if s else ()

    t_rows = []
    t = [0] * (s - 1) + [1]
    for _ in range(s):
        t_rows.append(t)
        t = t[1:] + [sum(map(mul, t, c)) % p]
    diag_T_I = MatrixFF.from_flat(
        field, n, n,
        [x for row in t_rows for x in row + [0] * (n - s)]
        + [int(j == i) for i in range(s, n) for j in range(n)],
    )
    Q = diag_T_I @ V_inv
    QA = (Q @ sys_.A).to_rows() if s < n else []
    return ControllabilityDecomposition(
        Q=Q,
        s=s,
        A_c=MatrixFF.from_flat(
            field, s, s, [int(j == i + 1) for i in range(s - 1) for j in range(s)] + list(c)
        ),
        A_cc=MatrixFF.from_flat(field, s, n - s, [QA[i][j] for i in range(s) for j in std]),
        A_uc=MatrixFF.from_flat(field, n - s, n - s, [QA[i][j] for i in range(s, n) for j in std]),
        b_c=MatrixFF.from_flat(field, s, 1, [int(i == s - 1) for i in range(s)]),
        companion_coeffs=c,
    )


def reference_deadbeat_gain(decomp: ControllabilityDecomposition, d: int) -> MatrixFF:
    """The deadbeat gain row(c / d, 0) Q of a stabilizable pair, for d != 0
    mod p, as one 1 x n by n x n product: the reference for
    ``deadbeat_gain`` and the gain that ``analyze`` reads off the Krylov
    elimination."""
    field, n = decomp.Q.field, decomp.Q.rows
    d_inv = pow(d, field.p - 2, field.p)
    kc = [(a * d_inv) % field.p for a in decomp.companion_coeffs] + [0] * (n - decomp.s)
    return MatrixFF.row_vector(field, kc) @ decomp.Q


def per_entry_edges(field: PrimeField, num_followers: int, edges) -> dict[tuple[int, int], int]:
    """The edge rules of ``WeightedDigraphFF`` checked one edge at a time:
    the reference for its whole-list checks.  Returns the sorted
    {(source, target): weight mod p} map, or raises the EdgeError (with
    the edge's index) or TypeError of the first bad edge."""
    edge_map: dict[tuple[int, int], int] = {}
    for index, (src, tgt, w) in enumerate(edges):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (src, tgt)):
            raise TypeError(f"edge {index} ({src!r}->{tgt!r}): nodes must be integers")
        if not (0 <= src <= num_followers):
            raise EdgeError(index, f"edge source {src} out of range 0..{num_followers}")
        if not (1 <= tgt <= num_followers):
            raise EdgeError(index, f"edge target {tgt} invalid: targets must be followers 1..{num_followers}")
        wv = field.scalar(w)
        if wv == 0:
            raise EdgeError(index, f"edge ({src}->{tgt}) has weight 0 mod {field.p}: not an edge")
        if (src, tgt) in edge_map:
            raise EdgeError(index, f"duplicate edge ({src}->{tgt})")
        edge_map[(src, tgt)] = wv
    return dict(sorted(edge_map.items()))


def reference_in_degrees(g: WeightedDigraphFF) -> dict[int, int]:
    """Leader-inclusive in-degree of each follower mod p, from a dict of
    totals: the reference for the graph's cached in-degree list."""
    totals = {i: 0 for i in range(1, g.num_followers + 1)}
    for _, tgt, w in g.edges():
        totals[tgt] += w
    return {i: v % g.field.p for i, v in totals.items()}


def reference_successors(g: WeightedDigraphFF, leader: bool = False) -> dict[int, list[int]]:
    """Each follower's successors (and the leader's, with ``leader``), in
    edge order, as a dict: the reference for the cached successor lists."""
    succ: dict[int, list[int]] = {i: [] for i in range(0 if leader else 1, g.num_followers + 1)}
    for src, tgt, _ in g.edges():
        if src in succ:
            succ[src].append(tgt)
    return succ


def reference_sccs(g: WeightedDigraphFF) -> list[tuple[int, ...]]:
    """Tarjan's components on dicts and a set, sources first: the
    reference for the graph's list-based pass, order included."""
    succ = reference_successors(g)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            for t in targets:
                if t not in index:
                    index[t] = low[t] = len(index)
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter(succ[t])))
                    break
                if t in on_stack:
                    low[v] = min(low[v], index[t])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        t = stack.pop()
                        on_stack.discard(t)
                        component.append(t)
                        if t == v:
                            break
                    components.append(tuple(sorted(component)))
    components.reverse()
    return components


def reference_reached(g: WeightedDigraphFF) -> set[int]:
    """The nodes the leader reaches, itself included, by a search over a set."""
    succ = reference_successors(g, leader=True)
    seen, frontier = {0}, [0]
    while frontier:
        for t in succ[frontier.pop()]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def _require(cond, field_path, message):
    if not cond:
        raise ConfigError(field_path, message)


def _int_at(value, field_path):
    _require(isinstance(value, int) and not isinstance(value, bool), field_path, "expected an integer")
    return value


def _per_entry_residues(values, length, field, field_path):
    _require(isinstance(values, list) and len(values) == length, field_path, f"expected {length} entries")
    out = []
    for i, v in enumerate(values):
        _require(isinstance(v, int) and not isinstance(v, bool), f"{field_path}[{i}]", "expected an integer")
        r = field.scalar(v)
        if r != v:
            print(f"warning: {field_path}[{i}]: reduced {v} to {r} (mod {field.p})", file=sys.stderr)
        out.append(r)
    return out


def per_entry_config(doc) -> dict:
    """A scenario config validated and reduced one entry at a time, as
    the canonical dict ``ScenarioConfig.doc`` holds: the reference
    for the loader's whole-list checks.  Warnings go to stderr in entry
    order; a bad entry raises the ConfigError that names it."""
    _require(isinstance(doc, dict), "<root>", "config must be a JSON object")
    for key in ("p", "n", "N", "A", "b", "graphs"):
        _require(key in doc, key, "required field is missing")
    p = _int_at(doc["p"], "p")
    try:
        field = PrimeField(p)
    except ValueError as exc:
        raise ConfigError("p", str(exc)) from exc
    n = _int_at(doc["n"], "n")
    _require(n >= 1, "n", "state dimension must be >= 1")
    N = _int_at(doc["N"], "N")
    _require(N >= 1, "N", "follower count must be >= 1")
    _require(isinstance(doc["A"], list) and len(doc["A"]) == n, "A", f"expected {n} rows")
    out = {"p": p, "n": n, "N": N, "A": [_per_entry_residues(row, n, field, f"A[{i}]") for i, row in enumerate(doc["A"])],
           "b": _per_entry_residues(doc["b"], n, field, "b")}
    if doc.get("K") is not None:
        out["K"] = _per_entry_residues(doc["K"], n, field, "K")

    graphs_in = doc["graphs"]
    _require(isinstance(graphs_in, list) and len(graphs_in) >= 1, "graphs", "expected a nonempty list")
    out["graphs"] = []
    for gi, edges in enumerate(graphs_in):
        _require(isinstance(edges, list), f"graphs[{gi}]", "expected an edge list")
        triples = []
        for ei, e in enumerate(edges):
            _require(isinstance(e, list) and len(e) == 3, f"graphs[{gi}][{ei}]", "expected [source, target, weight]")
            for j, v in enumerate(e):
                _int_at(v, f"graphs[{gi}][{ei}][{j}]")
            w = field.scalar(e[2])
            if w != e[2]:
                print(f"warning: graphs[{gi}][{ei}]: reduced weight {e[2]} to {w} (mod {p})", file=sys.stderr)
            triples.append((e[0], e[1], w))
        try:
            per_entry_edges(field, N, triples)
        except EdgeError as exc:
            raise ConfigError(f"graphs[{gi}][{exc.index}]", str(exc)) from exc
        out["graphs"].append(triples)

    spec = {"kind": "periodic", "sequence": [0]} if len(graphs_in) == 1 else {"kind": "random", "seed": 0}
    if doc.get("switching") is not None:
        sw = doc["switching"]
        _require(isinstance(sw, dict), "switching", "expected an object")
        kind = sw.get("kind")
        _require(kind in SwitchingSignal.KINDS, "switching.kind", "expected one of " + "|".join(SwitchingSignal.KINDS))
        if kind == "random":
            spec = {"kind": kind, "seed": _int_at(sw.get("seed", 0), "switching.seed")}
        else:
            seq = sw.get("sequence")
            _require(isinstance(seq, list), "switching.sequence", "expected a list")
            for i, v in enumerate(seq):
                _int_at(v, f"switching.sequence[{i}]")
            spec = {"kind": kind, "sequence": list(seq)}
        out["switching"] = spec
    try:
        SwitchingSignal(kind=spec["kind"], num_graphs=len(graphs_in),
                        sequence=tuple(spec.get("sequence", ())), seed=spec.get("seed"))
    except ValueError as exc:
        raise ConfigError("switching.sequence", str(exc)) from exc

    if doc.get("steps") is not None:
        out["steps"] = _int_at(doc["steps"], "steps")
        _require(out["steps"] >= 1, "steps", "horizon must be >= 1")
    if doc.get("init") is not None:
        raw = doc["init"]
        _require(isinstance(raw, dict), "init", "expected an object")
        if "states" in raw:
            st = raw["states"]
            _require(isinstance(st, dict), "init.states", "expected an object")
            lead = _per_entry_residues(st.get("leader"), n, field, "init.states.leader")
            followers = st.get("followers")
            _require(isinstance(followers, list) and len(followers) == N, "init.states.followers", f"expected {N} rows")
            fols = [_per_entry_residues(row, n, field, f"init.states.followers[{fi}]")
                    for fi, row in enumerate(followers)]
            out["init"] = {"states": {"leader": lead, "followers": fols}}
        elif "seed" in raw:
            out["init"] = {"seed": _int_at(raw["seed"], "init.seed")}
        else:
            raise ConfigError("init", "expected either 'states' or 'seed'")
    # the canonical key order of ScenarioConfig.to_dict
    order = ("p", "n", "N", "A", "b", "K", "graphs", "switching", "steps", "init")
    return {key: out[key] for key in order if key in out}


# p^7 - 1 at p = 1000003, and the one prime of it above the proven bound of
# is_prime: the cofactor of Phi_7(p), with the primes of its m - 1
P7_PRIMES = {2: 1, 3: 1, 29: 1, 46229: 1, 166667: 1, 745926016100507625084977262373: 1}
M7 = 745926016100507625084977262373
M7_MINUS_ONE = {2: 2, 3: 1, 7: 1, 11: 1, 47: 2, 283: 1, 397: 1, 30133: 1, 735431: 1, 146779979: 1}


def pocklington_holds(m, primes_of_m_minus_one, base):
    """Pocklington's criterion for m with one base for every prime q of
    m - 1, given as {q: exponent} and checked to rebuild m - 1."""
    assert prod(q**e for q, e in primes_of_m_minus_one.items()) == m - 1
    assert all(map(is_prime, primes_of_m_minus_one))
    return pow(base, m - 1, m) == 1 and all(
        gcd(pow(base, (m - 1) // q, m) - 1, m) == 1 for q in primes_of_m_minus_one)


def naive_x_power_mod(e: int, g: list[int], p: int) -> list[int]:
    """x^e modulo the monic g (ascending coefficients, degree d >= 2) as its
    d ascending residues, by square-and-multiply on schoolbook products:
    the reference for the package's polynomial arithmetic."""
    d = len(g) - 1

    def mulmod(a, b):
        out = [0] * (2 * d - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        for k in range(2 * d - 2, d - 1, -1):  # x^k = x^(k-d) (x^d - g)
            c = out[k] % p
            for j in range(d + 1):
                out[k - d + j] -= c * g[j]
        return [v % p for v in out[:d]]

    result, base = [1] + [0] * (d - 1), [0, 1] + [0] * (d - 2)
    while e:
        if e & 1:
            result = mulmod(result, base)
        base, e = mulmod(base, base), e >> 1
    return result


# ---------------------------------------------------------------------
# List references for the packed polynomial core (``poly._Ring``): ascending
# lists of canonical residues with a nonzero last entry, [] for zero, one
# Python operation per coefficient.  The factoring below is the list-core
# pipeline that ``poly.factor`` ran before it moved to packed ints.
# ---------------------------------------------------------------------


def list_trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def list_add(a, b, p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % p for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return list_trim(out)


def list_sub(a, b, p: int) -> list[int]:
    return list_add(a, [-y % p for y in b], p)


def list_mul(a, b, p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def list_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by the nonzero b, by long division."""
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    r, inv = list(a), pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = q[k] = r[k + db] * inv % p
        r[k : k + db + 1] = [x - c * y for x, y in zip(r[k : k + db + 1], b)]
    return q, list_trim([x % p for x in r[:db]])


def list_rem(a, b, p: int) -> list[int]:
    return list_divmod(a, b, p)[1]


def list_monic(a, p: int) -> list[int]:
    inv = pow(a[-1], -1, p) if a else 0
    return [c * inv % p for c in a]


def list_gcd(a, b, p: int) -> list[int]:
    """Monic gcd; the gcd with 0 is the monic of the other argument."""
    while b:
        a, b = b, list_rem(a, b, p)
    return list_monic(a, p)


def reference_powmod(a, e: int, f, p: int) -> list[int]:
    """a^e mod f by left-to-right binary on schoolbook list products and
    long division: the reference for the packed ``poly._Ring.powmod``."""
    a = list_rem(a, f, p)
    if not e:
        return list_rem([1], f, p)
    result = a
    for bit in bin(e)[3:]:
        result = list_rem(list_mul(result, result, p), f, p)
        if bit == "1":
            result = list_rem(list_mul(result, a, p), f, p)
    return result


def reference_factor(f, p: int) -> list[tuple[list[int], int]]:
    """The monic irreducible factors of the nonzero f with their
    multiplicities, sorted by degree and coefficients: square-free,
    distinct-degree and Cantor-Zassenhaus equal-degree splitting on lists."""
    def squarefree(f):
        out, m = [], 1
        c = list_gcd(f, list_trim([k * a % p for k, a in enumerate(f)][1:]), p)
        w = list_divmod(f, c, p)[0]
        while len(w) > 1:
            y = list_gcd(w, c, p)
            g = list_divmod(w, y, p)[0]
            if len(g) > 1:
                out.append((g, m))
            w, c, m = y, list_divmod(c, y, p)[0], m + 1
        if len(c) > 1:
            out += [(g, k * p) for g, k in squarefree(c[::p])]
        return out

    def distinct_degree(f):
        out, h, d = [], [0, 1], 0
        while len(f) - 1 >= 2 * (d + 1):
            d += 1
            h = reference_powmod(h, p, f, p)
            g = list_gcd(f, list_sub(h, [0, 1], p), p)
            if len(g) > 1:
                out.append((g, d))
                f = list_divmod(f, g, p)[0]
                h = list_rem(h, f, p)
        return out + [(f, len(f) - 1)] if len(f) > 1 else out

    def equal_degree(f, d, rng):
        n = len(f) - 1
        if n == d:
            return [f]
        while True:
            a = list_trim([rng.randrange(p) for _ in range(n)])
            if p == 2:
                b = t = a
                for _ in range(d - 1):
                    t = reference_powmod(t, 2, f, p)
                    b = list_add(b, t, p)
            else:
                b = list_sub(reference_powmod(a, (p**d - 1) // 2, f, p), [1], p)
            g = list_gcd(f, b, p)
            if 1 < len(g) < len(f):
                return equal_degree(g, d, rng) + equal_degree(list_divmod(f, g, p)[0], d, rng)

    rng = random.Random(1)
    found = [(g, m) for part, m in squarefree(list_monic(f, p))
             for block, d in distinct_degree(part) for g in equal_degree(block, d, rng)]
    return sorted(found, key=lambda gm: (len(gm[0]), gm[0]))


def reference_matmul(a: MatrixFF, b: MatrixFF) -> list[list[int]]:
    """The rows of a @ b, entry (i, j) summed index by index over k: the
    reference for ``MatrixFF.__matmul__``."""
    p = a.field.p
    return [[sum(a.entry_int(i, k) * b.entry_int(k, j) for k in range(a.cols)) % p for j in range(b.cols)]
            for i in range(a.rows)]


def reference_kron(a: MatrixFF, b: MatrixFF) -> list[list[int]]:
    """The rows of the Kronecker product, entry (i * b.rows + k, j * b.cols
    + l) = a_ij b_kl filled index by index: the reference for ``kron``."""
    rows = [[0] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for l in range(b.cols):
                    rows[i * b.rows + k][j * b.cols + l] = a.entry_int(i, j) * b.entry_int(k, l) % a.field.p
    return rows


def reference_echelon(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination of integer rows of residues mod p: the
    reference for the packed ``matrix._echelon``.

    Returns (reduced rows, pivot columns).  Each column's pivot is the
    first nonzero entry at or below the current row, so the result is
    deterministic.  The list ``rows`` is reordered in place.
    """
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = pivot_row = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        pivots.append(col)
    return rows, pivots


def reference_rank(m: MatrixFF) -> int:
    """Rank by Gauss-Jordan elimination on lists (``reference_echelon``):
    the reference for the packed ``MatrixFF.rank``."""
    return len(reference_echelon(m.to_rows(), m.field.p)[1])


def reference_kernel_dims(g: PolyFF, a: MatrixFF, e: int) -> list[int]:
    """dim ker g(A)^k for k = 0..e (g^e exactly dividing chi_A): g(A) by
    Horner on ``MatrixFF`` products, every power below e by a product and
    its rank by ``reference_rank``; the reference for the packed
    ``linsys._kernel_dims``."""
    dims = [0]
    if e > 1:
        eye = MatrixFF.identity(a.field, a.rows)
        ga = MatrixFF.zeros(a.field, a.rows, a.rows)
        for c in reversed(g.coeffs):
            ga = ga @ a + eye.scale(c)
        power = eye
        for _ in range(e - 1):
            power = power @ ga
            dims.append(a.rows - reference_rank(power))
    return dims + [g.degree * e] if e else dims


def block_diag(field: PrimeField, blocks) -> MatrixFF:
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b.to_rows()):
            rows[at + i][at : at + b.rows] = row
        at += b.rows
    return MatrixFF(field, rows)


def companion(field: PrimeField, coeffs) -> MatrixFF:
    """Companion matrix of the monic polynomial with ascending ``coeffs``."""
    m = len(coeffs) - 1
    return MatrixFF(field, [[int(j == i + 1) for j in range(m)] for i in range(m - 1)]
                    + [[-c for c in coeffs[:-1]]])


STRUCTURED_KINDS = ("diag_bb", "g_power", "jordan", "identity", "zero", "random")


def structured_matrix(rng: random.Random, kind: str, field: PrimeField, n: int) -> MatrixFF:
    """A seeded n x n matrix (n >= 3) whose nullities and ranks are
    structured: diag(B, B), plus a scalar when n is odd; the companions of
    g^(e_i) for one irreducible g with g(0) != 0 (of degree <= 3 without a
    root, or 1 when p > 101) and sum e_i = e >= 3, beside a random block; nilpotent Jordan blocks
    of random sizes; the identity, zero or a random matrix.  The first
    three are conjugated by a random basis."""
    p = field.p
    if kind == "identity":
        return MatrixFF.identity(field, n)
    if kind == "zero":
        return MatrixFF.zeros(field, n, n)
    if kind == "random":
        return random_matrix(rng, field, n, n)
    if kind == "diag_bb":
        b = random_matrix(rng, field, n // 2, n // 2)
        blocks = [b, b] + [random_matrix(rng, field, 1, 1)] * (n % 2)
    elif kind == "jordan":
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, n - sum(sizes)))
        blocks = [MatrixFF(field, [[int(j == i + 1) for j in range(k)] for i in range(k)]) for k in sizes]
    else:
        d = rng.randint(1, min(3 if p <= 101 else 1, n // 3))
        while True:
            g = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)] + [1]
            if d == 1 or all(map(PolyFF(field, g).eval, range(p))):
                break
        e, exps = rng.randint(3, n // d), []
        while sum(exps) < e:
            exps.append(rng.randint(1, e - sum(exps)))
        powers = []
        for k in exps:
            power = [1]
            for _ in range(k):
                power = list_mul(power, g, p)
            powers.append(companion(field, power))
        blocks = powers + [random_matrix(rng, field, n - d * e, n - d * e)]
    t = random_invertible(rng, field, n)
    return (t @ block_diag(field, blocks)) @ t.inverse()


def per_agent_errors(agents: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """e_i = sum_c |x_i[c] - x_0[c]| per follower, agent by agent."""
    return tuple(sum(abs(a - b) for a, b in zip(x, agents[0])) for x in agents[1:])


def error_vectors(state, p: int) -> list[tuple[int, ...]]:
    """Follower-minus-leader differences over F_p (the stacked error state)."""
    return [tuple((a - b) % p for a, b in zip(f, state.leader)) for f in state.followers]


def random_matrix(rng: random.Random, field: PrimeField, rows: int, cols: int) -> MatrixFF:
    return MatrixFF(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng: random.Random, field: PrimeField, n: int) -> MatrixFF:
    while True:
        m = random_matrix(rng, field, n, n)
        if m.rank() == n:
            return m


def random_nilpotent(rng: random.Random, field: PrimeField, n: int) -> MatrixFF:
    """Random strictly upper-triangular matrix conjugated by a random basis."""
    strict = MatrixFF(
        field,
        [[rng.randrange(field.p) if j > i else 0 for j in range(n)] for i in range(n)],
    )
    t = random_invertible(rng, field, n)
    return (t @ strict) @ t.inverse()


def random_dag_graph(
    rng: random.Random,
    field: PrimeField,
    num_followers: int,
    edge_prob: float = 0.5,
    leader_prob: float = 0.7,
) -> WeightedDigraphFF:
    """Random follower DAG (random topological order) with random leader edges."""
    order = list(range(1, num_followers + 1))
    rng.shuffle(order)
    edges = []
    for i in range(num_followers):
        for j in range(i + 1, num_followers):
            if rng.random() < edge_prob:
                edges.append((order[i], order[j], rng.randrange(1, field.p)))
    for i in range(1, num_followers + 1):
        if rng.random() < leader_prob:
            edges.append((0, i, rng.randrange(1, field.p)))
    return WeightedDigraphFF(field, num_followers, edges)


def random_network(
    rng: random.Random,
    field: PrimeField,
    n: int,
    num_followers: int,
    num_graphs: int = 1,
    with_gain: bool = True,
) -> LeaderFollowerNetwork:
    sys_pair = LinearSystemFF(
        random_matrix(rng, field, n, n),
        MatrixFF.column(field, [rng.randrange(field.p) for _ in range(n)]),
    )
    graphs = tuple(random_dag_graph(rng, field, num_followers) for _ in range(num_graphs))
    gain = (
        MatrixFF.row_vector(field, [rng.randrange(field.p) for _ in range(n)])
        if with_gain
        else None
    )
    return LeaderFollowerNetwork(sys=sys_pair, graphs=graphs, gain=gain)


def random_scc_graph(rng: random.Random, field: PrimeField, num_followers: int) -> WeightedDigraphFF:
    """Random follower graph with several strongly connected parts.

    The followers are split, in random order, into groups of up to three;
    most groups are closed into a directed cycle, edges run forward
    between groups, and an occasional random edge may merge groups.
    Self-loops and leader edges are sprinkled (some followers get no
    leader edge), and sometimes one follower's in-weights are made to
    cancel to in-degree 0 mod p.
    """
    p = field.p
    nodes = list(range(1, num_followers + 1))
    rng.shuffle(nodes)
    groups = []
    i = 0
    while i < num_followers:
        size = rng.randint(1, min(3, num_followers - i))
        groups.append(nodes[i : i + size])
        i += size
    edges: dict[tuple[int, int], int] = {}

    def add(src, tgt):
        edges[(src, tgt)] = rng.randrange(1, p)

    for grp in groups:
        if len(grp) > 1 and rng.random() < 0.8:
            for src, tgt in zip(grp, grp[1:] + grp[:1]):
                add(src, tgt)
    for a in range(num_followers):
        for b in range(a + 1, num_followers):
            if rng.random() < 0.3:
                add(nodes[a], nodes[b])
    if rng.random() < 0.3:
        add(rng.choice(nodes), rng.choice(nodes))
    for v in nodes:
        if rng.random() < 0.2:
            add(v, v)
        if rng.random() < 0.6:
            add(0, v)
    if rng.random() < 0.3:
        v = rng.choice(nodes)
        others = sum(w for (src, tgt), w in edges.items() if tgt == v and src != 0) % p
        if others:
            edges[(0, v)] = -others % p
        else:
            edges.pop((0, v), None)
    return WeightedDigraphFF(field, num_followers, [(s, t, w) for (s, t), w in edges.items()])


# ---------------------------------------------------------------------
# CI's configs and the first config of each sweep kind (perfbench/gen.py,
# seed 1, pass 0): every command runs on them in the command-path and
# report tests.
# ---------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

RING = 400
CONFIGS = {
    "leader_f3": json.loads((ROOT / "configs" / "leader_f3.json").read_text()),
    "leader_f3_k": {**json.loads((ROOT / "configs" / "leader_f3.json").read_text()), "K": [2, 1, 2, 0, 1]},
    "p2_chain": {"p": 2, "n": 3, "N": 6, "A": [[1, 1, 0], [0, 1, 1], [0, 0, 1]], "b": [0, 0, 1],
                 "graphs": [[[i, i + 1, 1] for i in range(6)]]},
    "p1000003": {"p": 1000003, "n": 2, "N": 30, "A": [[1, 1], [0, 1]], "b": [0, 1], "K": [1, 2],
                 "graphs": [[[i, i + 1, 1] for i in range(30)]]},
    "uncontrollable": {"p": 5, "n": 4, "N": 3, "A": [[2, 0, 0, 2], [1, 4, 4, 0], [3, 2, 2, 0], [2, 1, 1, 3]],
                       "b": [2, 2, 1, 1], "graphs": [[[0, 1, 2], [1, 2, 2], [2, 3, 2]]]},
    "ring400": {"p": 3, "n": 5, "N": RING, "A": REF_A_ROWS, "b": REF_B, "K": [2, 1, 2, 0, 1],
                "graphs": [[[0, 1, 1], [RING, 1, 1]] + [[i, i + 1, 2] for i in range(1, RING)]]},
    # nilpotent A and K b = 0, so r = 0: the bound's kappa, the first j with K A^j = 0, is 2
    "r0_gain": {"p": 3, "n": 3, "N": 2, "A": [[0, 1, 0], [0, 0, 1], [0, 0, 0]], "b": [1, 0, 0], "K": [0, 1, 2],
                "graphs": [[[0, 1, 1], [1, 2, 2]]]},
}
for _item in gen.sweep_pass(1, 0):
    CONFIGS.setdefault(f"sweep_{_item['expect']['kind']}", _item["config"])

