"""Seeded input generators for the benchmark workloads (stdlib only).

Every workload is a list of passes.  A pass is one run of the workload's
whole command list; pass ``k`` of seed ``s`` draws its random values from
``random.Random(f"{workload}/{s}/{k}")``, so the same seed gives
byte-identical configs and no config repeats between passes.  The
structural parameters of each item (p, n, N, graph count, kind, factor
pattern) are fixed per stratum by the tables below; the seed only draws
values (matrices, weights, gains, signals), so passes and seeds stay
comparable in cost.

The generator never imports the program under test: systems, graphs and
matrices are built by construction with the small F_p helpers here, and
each item carries the facts its construction guarantees ("expect"), which
the output checks use as the reference.
"""

from __future__ import annotations

import random

# ----------------------------------------------------------------------
# Strata
# ----------------------------------------------------------------------

# large-static: (graph, p, n, N).  Chains and complete DAGs with one uniform
# in-degree and a controllable pair whose characteristic polynomial has
# no zero coefficient, so every config is achievable (analyze, synthesize,
# analyze with the gain) and a chain's error matrix has the largest
# nilpotency index N*n; with zero coefficients the index, and the cost of
# the dense test, varied fourfold between draws.  N stays at 40 or below
# so that no single command runs much over a second (see CYCLES_STRATA).
LARGE_STATIC_STRATA = [
    ("chain", 101, 5, 36),
    ("chain", 3, 5, 40),
    ("chain", 101, 10, 16),
    ("dense", 101, 5, 24),
    ("dense", 3, 5, 32),
    ("dense", 101, 10, 12),
    ("dense", 3, 10, 16),
]

# sweep: one scenario per (N band, graph count, kind); p and n cycle
# through fixed lists by slot index so every pass holds the same grid.
SWEEP_N_BANDS = {"S": (2, 3, 4), "M": (6, 8, 10, 12), "L": (16, 20, 24)}
SWEEP_GRAPH_COUNTS = (1, 2, 3)
SWEEP_KINDS = (
    "achievable",      # acyclic, uniform nonzero degree, controllable pair
    "supplied_k",      # as achievable, plus a user-supplied K that works
    "unequal",         # acyclic, one follower's degree differs (or is 0)
    "cyclic",          # follower graph with a directed cycle, no K
    "cyclic_k",        # cyclic follower graph with a random K
    "unstabilizable",  # uncontrollable block is invertible
    "nilpotent",       # nilpotent A on a cyclic graph
    "explicit",        # achievable, explicit switching at least as long as
                       # the horizon, its length drawn apart from it
)
# Whether a gain exists, by construction (None: depends on the drawn K).
ACHIEVABLE = {
    "achievable": True, "supplied_k": True, "unequal": False, "cyclic": None,
    "cyclic_k": None, "unstabilizable": False, "nilpotent": True, "explicit": True,
    "random_k": None, "explicit_short": True,
}
SWEEP_PRIMES = (2, 3, 5, 7, 101)
SWEEP_DIMS = (2, 3, 4, 5, 6)
SWEEP_TRIALS = 2

# cycles: (kind, p, n, pattern, poly_only).  For "cyclic" the pattern is
# the factor-degree list of the characteristic polynomial (0 = a factor x,
# nonzero degrees are distinct random irreducibles, "d^" the square of
# one); the matrix is a conjugated companion matrix, so its minimal and
# characteristic polynomials agree.  The non-cyclic kinds are a
# block-diagonal diag(B, B), the identity and zero; they run by
# enumeration only (--poly is wrong on them, see KNOWN_DEFECTS_CYCLES).
# The identity and zero are single matrices, so they run in pass 0 only,
# as no config may repeat within a run.  Enumeration stops at about 6e4 states: one command of
# several seconds (3^11, 3^12) is longer than the machine's speed can be
# followed by the calibration in worker.py.
CYCLES_STRATA = [
    ("cyclic", 3, 9, (0, 1, 3, 4), False),
    ("cyclic", 5, 6, (1, 2, 3), False),
    ("cyclic", 7, 5, (0, 0, 3), False),
    ("cyclic", 11, 4, (1, 3), False),
    ("cyclic", 2, 14, (0, 3, 4, 6), False),
    ("cyclic", 2, 15, (1, 2, 5, 7), False),
    ("cyclic", 3, 10, ("2^", 1, 5), False),
    ("cyclic", 3, 10, (0, 0, 2, 6), False),
    ("repeated", 3, 8, (4,), False),
    ("repeated", 5, 6, (3,), False),
    ("repeated", 2, 14, (7,), False),
    ("repeated", 3, 10, (5,), False),
    ("identity", 3, 9, (), False),
    ("zero", 2, 14, (), False),
    ("cyclic", 7, 16, (0, 2, 3, 4, 6), True),
    ("cyclic", 5, 14, ("3^", 2, 6), True),
    ("cyclic", 3, 16, (0, 4, 5, 6), True),
    ("cyclic", 7, 8, (1, 3, 4), True),
]

# known-defects: inputs on which this version of the program fails a
# check.  The measured workloads above must have no failing operation, so
# these run apart, as the workload "known-defects" that BENCHMARK.json
# does not list; its fail_ratio goes to 0 as the defects are fixed.
#   random_k:       a random supplied K on an achievable config is called
#                   guaranteed though it does not work (ROADMAP item 2)
#   explicit_short: an explicit switching sequence shorter than the
#                   horizon raises ValueError in simulate (item 5)
#   non-cyclic:     cycles --poly disagrees with enumeration (item 4)
# Sweep entries are (kind, N, q, n, p); cycles entries as CYCLES_STRATA.
KNOWN_DEFECTS_SWEEP = [
    ("random_k", 4, 1, 3, 3),
    ("random_k", 10, 2, 5, 101),
    ("random_k", 6, 3, 3, 101),
    ("explicit_short", 3, 2, 3, 5),
    ("explicit_short", 8, 2, 6, 5),
    ("explicit_short", 10, 3, 6, 2),
]
KNOWN_DEFECTS_CYCLES = [
    ("repeated", 3, 8, (4,), False),
    ("repeated", 5, 6, (3,), False),
    ("repeated", 2, 10, (5,), False),
    ("identity", 3, 6, (), False),
    ("zero", 2, 10, (), False),
]

# The worked example shipped as configs/leader_f3.json.
REFERENCE_CONFIG = {
    "p": 3,
    "n": 5,
    "N": 4,
    "A": [
        [0, 0, 1, 1, 1],
        [2, 0, 0, 1, 2],
        [0, 2, 2, 2, 0],
        [0, 0, 1, 1, 2],
        [2, 0, 1, 2, 2],
    ],
    "b": [1, 1, 2, 2, 1],
    "graphs": [
        [[0, 1, 1], [1, 2, 2], [0, 2, 2], [2, 3, 1], [3, 4, 1]],
        [[0, 1, 1], [0, 2, 1], [1, 4, 2], [2, 4, 2], [1, 3, 1]],
    ],
    "switching": {"kind": "random", "seed": 7},
    "steps": 25,
    "init": {"seed": 1},
}

# ----------------------------------------------------------------------
# F_p linear algebra (lists of rows of ints in 0..p-1)
# ----------------------------------------------------------------------


def mat_mul(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def mat_inv(a, p):
    """Inverse by Gauss-Jordan elimination, or None when singular."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_pow_is_zero(a, k, p):
    """True iff a^k == 0."""
    m = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        m = mat_mul(m, a, p)
    return not any(any(row) for row in m)


def random_invertible(rng, n, p):
    while True:
        t = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        t_inv = mat_inv(t, p)
        if t_inv is not None:
            return t, t_inv


def companion(coeffs, p):
    """Controller companion form: superdiagonal ones, bottom row ``coeffs``.

    Its characteristic polynomial is x^n - sum_i coeffs[i] x^i, and
    (companion, e_n) is a controllable pair.
    """
    n = len(coeffs)
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    rows.append([c % p for c in coeffs])
    return rows


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def conjugate(m, rng, p):
    """T m T^-1 for a random invertible T; returns (matrix, T)."""
    t, t_inv = random_invertible(rng, len(m), p)
    return mat_mul(mat_mul(t, m, p), t_inv, p), t


# ----------------------------------------------------------------------
# Polynomials over F_p (ascending coefficient lists, trimmed)
# ----------------------------------------------------------------------


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def poly_mod(f, g, p):
    f = list(f)
    inv = pow(g[-1], p - 2, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        for j, b in enumerate(g):
            f[shift + j] = (f[shift + j] - c * b) % p
        _trim(f)
    return f


def poly_gcd(f, g, p):
    while g:
        f, g = g, poly_mod(f, g, p)
    return f


def is_irreducible(f, p):
    """Ben-Or test: gcd(f, x^(p^i) - x) = 1 for i = 1..deg(f)/2."""
    m = len(f) - 1
    xp = [0, 1]
    for _ in range(m // 2):
        acc = [1]
        for _ in range(p):
            acc = poly_mod(poly_mul(acc, xp, p), f, p)
        xp = acc
        diff = list(xp) + [0] * max(0, 2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if len(poly_gcd(f, _trim(diff), p)) > 1:
            return False
    return True


def random_irreducible(rng, degree, p, avoid):
    """Monic irreducible of the given degree with nonzero constant term."""
    while True:
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        if f[0] and tuple(f) not in avoid and is_irreducible(f, p):
            avoid.add(tuple(f))
            return f


def char_poly_from_pattern(rng, pattern, p):
    """Product of x (for each 0) and distinct random irreducibles."""
    f = [1]
    used: set = set()
    for part in pattern:
        if part == 0:
            g = [0, 1]
        elif isinstance(part, str):  # "d^": an irreducible of degree d, squared
            g = random_irreducible(rng, int(part[:-1]), p, used)
            g = poly_mul(g, g, p)
        else:
            g = random_irreducible(rng, part, p, used)
        f = poly_mul(f, g, p)
    return f


def companion_of(f, p):
    """Companion matrix whose characteristic polynomial is the monic f."""
    return companion([-c % p for c in f[:-1]], p)


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------


def _weights_summing_to(rng, k, d, p):
    """k nonzero weights in F_p with sum d (mod p); k >= 1."""
    if p == 2:
        return [1] * k  # caller arranges k = d (mod 2)
    while True:
        ws = [rng.randrange(1, p) for _ in range(k - 1)]
        last = (d - sum(ws)) % p
        if last:
            return ws + [last]


def _in_edges(rng, order, pos, density, d, p):
    """Random in-edges for the follower at position ``pos`` of ``order``,
    with leader-inclusive in-degree d (mod p)."""
    node = order[pos]
    cands = [0] + order[:pos]
    srcs = [c for c in cands if rng.random() < density] or [rng.choice(cands)]
    if p == 2 and len(srcs) % 2 != d % 2:
        spare = [c for c in cands if c not in srcs]
        if spare:
            srcs.append(rng.choice(spare))
        elif len(srcs) > 1:
            srcs.pop()
        else:
            srcs = []
    if not srcs:
        return []
    ws = _weights_summing_to(rng, len(srcs), d, p)
    return [[s, node, w] for s, w in zip(srcs, ws)]


def dag_graph(rng, order, d, p, density):
    """Acyclic follower graph on ``order`` with every in-degree d."""
    edges = []
    for pos in range(len(order)):
        edges.extend(_in_edges(rng, order, pos, density, d, p))
    return sorted(edges)


def chain_graph(order, d):
    """Leader -> order[0] -> order[1] -> ..., every weight d."""
    srcs = [0] + order[:-1]
    return sorted([s, t, d] for s, t in zip(srcs, order))


def add_cycle(rng, edges, order, p):
    """Close a directed cycle: ensure an edge a -> b between two followers
    in topological order and add the back edge b -> a."""
    i, j = sorted(rng.sample(range(len(order)), 2))
    a, b = order[i], order[j]
    extra = [[b, a, rng.randrange(1, p)]]
    if not any(s == a and t == b for s, t, _ in edges):
        extra.append([a, b, rng.randrange(1, p)])
    return sorted(edges + extra)


# ----------------------------------------------------------------------
# Systems
# ----------------------------------------------------------------------


def controllable_pair(rng, n, p, full=False):
    """Random controllable (A, b) with A not nilpotent, and the gain K1
    that makes A - b K1 nilpotent (d^-1 K1 does so for A - d b K); with
    ``full`` no coefficient of the characteristic polynomial is zero."""
    while True:
        coeffs = [rng.randrange(1 if full else 0, p) for _ in range(n)]
        if any(coeffs):
            break
    a, t = conjugate(companion(coeffs, p), rng, p)
    # A - b K1 = T (C - e_n coeffs) T^-1, a conjugated shift matrix
    k1 = mat_mul([coeffs], mat_inv(t, p), p)[0]
    return a, [row[-1] for row in t], k1


def nilpotent_pair(rng, n, p):
    a, t = conjugate(companion([0] * n, p), rng, p)
    return a, [row[-1] for row in t]


def unstabilizable_pair(rng, n, p):
    """Controllable s-block plus an invertible uncontrollable block."""
    s = rng.randint(1, n - 1)
    c = companion([rng.randrange(p) for _ in range(s)], p)
    u, _ = random_invertible(rng, n - s, p)
    m = block_diag(c, u)
    for i in range(s):
        for j in range(s, n):
            m[i][j] = rng.randrange(p)
    a, t = conjugate(m, rng, p)
    return a, [row[s - 1] for row in t]


# ----------------------------------------------------------------------
# Workload items
# ----------------------------------------------------------------------


def _rng(workload, seed, k):
    return random.Random(f"{workload}/{seed}/{k}")


def _perm(rng, N):
    order = list(range(1, N + 1))
    rng.shuffle(order)
    return order


def large_static_pass(seed, k):
    rng = _rng("large-static", seed, k)
    items = []
    for si, (graph, p, n, N) in enumerate(LARGE_STATIC_STRATA):
        a, b, _ = controllable_pair(rng, n, p, full=True)
        d = rng.randrange(1, p)
        order = _perm(rng, N)
        edges = chain_graph(order, d) if graph == "chain" else dag_graph(rng, order, d, p, 1.0)
        cfg = {"p": p, "n": n, "N": N, "A": a, "b": b, "graphs": [edges]}
        items.append({
            "name": f"ls{si}-{graph}-p{p}-n{n}-N{N}",
            "plan": "synth-analyze",
            "config": cfg,
            "expect": {"achievable": True},
        })
    return items


def _sweep_scenario(rng, kind, N, q, n, p):
    d = rng.randrange(1, p)
    order = _perm(rng, N)
    expect = {"kind": kind, "achievable": ACHIEVABLE[kind]}
    K = None
    if kind == "unstabilizable":
        a, b = unstabilizable_pair(rng, n, p)
    elif kind == "nilpotent":
        a, b = nilpotent_pair(rng, n, p)
    else:
        a, b, k1 = controllable_pair(rng, n, p)

    density = min(1.0, 2.5 / N)
    graphs = [dag_graph(rng, order, d, p, density) for _ in range(q)]
    if kind == "unequal":
        gi = rng.randrange(q)
        pos = rng.randrange(N)
        other = 0 if p == 2 else rng.choice([v for v in range(p) if v != d])
        node = order[pos]
        kept = [e for e in graphs[gi] if e[1] != node]
        if other:
            kept += _in_edges(rng, order, pos, density, other, p)
        graphs[gi] = sorted(kept)
    if kind in ("cyclic", "cyclic_k", "nilpotent"):
        gi = rng.randrange(q)
        graphs[gi] = add_cycle(rng, graphs[gi], order, p)
    if kind == "supplied_k":
        K = [x * pow(d, p - 2, p) % p for x in k1]
    elif kind in ("cyclic_k", "random_k"):
        K = [rng.randrange(p) for _ in range(n)]

    cfg = {"p": p, "n": n, "N": N, "A": a, "b": b}
    if K is not None:
        cfg["K"] = K
    cfg["graphs"] = graphs
    steps = N * n + 5  # every proven bound is at most N*n
    if kind in ("explicit", "explicit_short"):
        length = rng.randint(steps, 2 * steps) if kind == "explicit" else rng.randint(1, steps - 1)
        cfg["switching"] = {"kind": "explicit", "sequence": [rng.randrange(q) for _ in range(length)]}
    elif q > 1:
        cfg["switching"] = {"kind": "random", "seed": rng.randrange(10**6)}
    cfg["steps"] = steps
    cfg["init"] = {"seed": rng.randrange(10**6)}
    return cfg, expect


def sweep_pass(seed, k):
    rng = _rng("sweep", seed, k)
    items = []
    slot = 0
    for band, n_values in SWEEP_N_BANDS.items():
        for q in SWEEP_GRAPH_COUNTS:
            for ki, kind in enumerate(SWEEP_KINDS):
                if kind == "explicit" and (q == 1 or band == "L"):
                    continue
                N = n_values[(ki + q) % len(n_values)]
                p = SWEEP_PRIMES[slot % len(SWEEP_PRIMES)]
                n = SWEEP_DIMS[(slot // len(SWEEP_PRIMES) + slot) % len(SWEEP_DIMS)]
                slot += 1
                cfg, expect = _sweep_scenario(rng, kind, N, q, n, p)
                items.append({
                    "name": f"sw-{band}-q{q}-{kind}-p{p}-n{n}-N{N}",
                    "plan": "synth-simulate",
                    "config": cfg,
                    "expect": expect,
                })
    if k == 0:  # a single config: once per run
        items.append({
            "name": "sw-reference",
            "plan": "synth-simulate",
            "config": REFERENCE_CONFIG,
            "expect": {"kind": "reference", "achievable": True},
        })
    return items


def cycles_matrix(rng, kind, p, n, pattern):
    if kind == "identity":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    if kind == "repeated":
        (m,) = pattern
        f = char_poly_from_pattern(rng, (m,), p)
        blk, _ = conjugate(companion_of(f, p), rng, p)
        return block_diag(blk, blk)
    f = char_poly_from_pattern(rng, pattern, p)
    assert len(f) - 1 == n, (pattern, n)
    a, _ = conjugate(companion_of(f, p), rng, p)
    return a


def _cycles_items(rng, k, strata, prefix, enum_noncyclic):
    items = []
    for si, (kind, p, n, pattern, poly_only) in enumerate(strata):
        if kind in ("identity", "zero") and k > 0:
            continue
        a = cycles_matrix(rng, kind, p, n, pattern)
        cfg = {"p": p, "n": n, "N": 1, "A": a, "b": [1] + [0] * (n - 1), "graphs": [[[0, 1, 1]]]}
        if poly_only:
            plan = "poly"
        elif kind != "cyclic" and enum_noncyclic:
            plan = "enum"
        else:
            plan = "cycles"
        items.append({
            "name": f"{prefix}{si}-{kind}-p{p}-n{n}",
            "plan": plan,
            "config": cfg,
            "expect": {"kind": kind},
        })
    return items


def cycles_pass(seed, k):
    return _cycles_items(_rng("cycles", seed, k), k, CYCLES_STRATA, "cy", enum_noncyclic=True)


def known_defects_pass(seed, k):
    rng = _rng("known-defects", seed, k)
    items = []
    for si, (kind, N, q, n, p) in enumerate(KNOWN_DEFECTS_SWEEP):
        cfg, expect = _sweep_scenario(rng, kind, N, q, n, p)
        items.append({
            "name": f"kd{si}-q{q}-{kind}-p{p}-n{n}-N{N}",
            "plan": "synth-simulate",
            "config": cfg,
            "expect": expect,
        })
    return items + _cycles_items(rng, k, KNOWN_DEFECTS_CYCLES, "kdc", enum_noncyclic=False)


PASS_BUILDERS = {
    "large-static": large_static_pass,
    "sweep": sweep_pass,
    "cycles": cycles_pass,
    "known-defects": known_defects_pass,
}
WORKLOADS = ("large-static", "sweep", "cycles")  # the measured ones, in BENCHMARK.json
