"""Consensus analysis and gain synthesis for leader-follower networks.

The stacked follower-minus-leader errors evolve linearly:

    delta(k+1) = [I_N (X) A  +  (Abar - Dbar) (X) bK] delta(k)

with (X) the Kronecker product, Abar the follower adjacency and Dbar the
diagonal of leader-inclusive in-degrees.  Consensus from every initial
condition is exactly nilpotency of that error matrix M.

No Kronecker block is built on the analysis paths.  Ordered by the
strongly connected components (SCCs) of the follower support, M is
block-triangular with one diagonal block I (X) A - H_SS (X) bK per SCC
S (H = Dbar - Abar, the grounded Laplacian); as bK has rank one, chi_A,
r = chi_(A - bK) - chi_A and at most one |S| x |S| nilpotency test of
H_SS - mu* I per distinct block decide M (``_error_block_results``).

``error_dynamics_matrix`` builds the full Nn x Nn matrix; it is the
definition that the spectral rule is checked against.

Every verdict, witness gain and bound comes from one pass of facts
(``_facts``: one Krylov elimination of (A, b), ``linsys._krylov``, for
chi_A, stabilizability, A nilpotent and the deadbeat gain; each graph's
DAG flag and SCC blocks H_SS, built once, with the one eigenvalue d of H
they allow; the union of the follower supports; and under a supplied
gain r, mu* and the blocks' verdicts) and one rule over them
(``_decide``), for any number of graphs.  A single graph is the static
case.  Without a gain:

  * A nilpotent: guaranteed, the zero gain works under any graphs;
  * (A, b) not stabilizable, a graph whose H has no single nonzero
    eigenvalue (it fails on its own), or graphs whose d differ:
    impossible;
  * acyclic graphs sharing d over an acyclic union: guaranteed, the
    deadbeat gain for d is the witness;
  * anything else is inconclusive: a cyclic graph whose H has the one
    eigenvalue d (synthesis over cyclic graphs is not supported yet),
    or a cyclic union of acyclic graphs that share d.

With a supplied gain K the verdict is about K:

  * some graph's error matrix under K is not nilpotent: impossible (the
    signal that stays on that graph never converges); the reason points
    to ``witness.synthesized_gain`` when some other gain works;
  * otherwise guaranteed when there is one graph, r = 0 or the union is
    acyclic, and inconclusive when r != 0 over a cyclic union.

One bound for any number of graphs (``_bound``): N*f, f the nilpotent
degree of A - mu* bK, when r != 0; max(deg A, s + kappa) when r = 0.
``simulate``'s default horizon is the bound plus 5.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from operator import mul

from .field import PrimeField, _FrozenRecord, _Record
from .graphs import WeightedDigraphFF, union
from .linsys import LinearSystemFF, _Krylov, _krylov
from .matrix import MatrixFF, kron


class GainSynthesisError(ValueError):
    """Raised when no gain can be synthesized for the requested network."""


class LeaderFollowerNetwork(_FrozenRecord):
    """Shared dynamics (A, b), optional gain K (1 x n), and one or more
    interaction graphs (a single graph is the static case)."""

    __slots__ = ("sys", "graphs", "gain")

    def __init__(self, sys: LinearSystemFF, graphs: tuple[WeightedDigraphFF, ...], gain: MatrixFF | None = None):
        if not graphs:
            raise ValueError("at least one interaction graph is required")
        N = graphs[0].num_followers
        for g in graphs:
            if g.field != sys.field:
                raise ValueError("graph modulus differs from the system modulus")
            if g.num_followers != N:
                raise ValueError("all graphs must have the same follower count")
        if gain is not None:
            if gain.rows != 1 or gain.cols != sys.dim:
                raise ValueError("gain must be a 1 x n row")
            if gain.field != sys.field:
                raise ValueError("gain modulus differs from the system modulus")
        object.__setattr__(self, "sys", sys)
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "gain", gain)

    @property
    def num_followers(self) -> int:
        return self.graphs[0].num_followers

    @property
    def field(self) -> PrimeField:
        return self.sys.field

    @property
    def is_static(self) -> bool:
        return len(self.graphs) == 1

    def with_gain(self, gain: MatrixFF) -> "LeaderFollowerNetwork":
        return LeaderFollowerNetwork(sys=self.sys, graphs=self.graphs, gain=gain)


class SwitchingSignal(_FrozenRecord):
    """Map from time step to active graph index (0-based).

    kinds: "explicit" uses ``sequence`` verbatim and must cover the
    horizon; "periodic" repeats ``sequence``; "random" draws uniformly
    with the given seed (reproducible).
    """

    KINDS = ("explicit", "periodic", "random")

    __slots__ = ("kind", "num_graphs", "sequence", "seed")

    def __init__(self, kind: str, num_graphs: int, sequence: tuple[int, ...] = (), seed: int | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown switching kind {kind!r}")
        if kind in ("explicit", "periodic"):
            if not sequence:
                raise ValueError(f"{kind} switching requires a nonempty sequence")
            bad = [i for i in sequence if not (0 <= i < num_graphs)]
            if bad:
                raise ValueError(f"switching sequence contains invalid graph indices {bad}")
        if kind == "random" and seed is None:
            raise ValueError("random switching requires a seed")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "num_graphs", num_graphs)
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "seed", seed)

    @classmethod
    def constant(cls, index: int = 0) -> "SwitchingSignal":
        return cls(kind="periodic", num_graphs=index + 1, sequence=(index,))

    def realize(self, horizon: int) -> list[int]:
        """Graph index for each step 0..horizon-1."""
        if self.kind == "explicit":
            if len(self.sequence) < horizon:
                raise ValueError(
                    f"explicit switching sequence has {len(self.sequence)} entries "
                    f"but the horizon is {horizon}"
                )
            return list(self.sequence[:horizon])
        if self.kind == "periodic":
            reps = -(-horizon // len(self.sequence))
            return list(self.sequence * reps)[:horizon]
        rng = random.Random(self.seed)
        return [rng.randrange(self.num_graphs) for _ in range(horizon)]


# ----------------------------------------------------------------------
# Error dynamics
# ----------------------------------------------------------------------


def error_dynamics_matrix(net: LeaderFollowerNetwork, graph_index: int = 0) -> MatrixFF:
    """The Nn x Nn matrix driving the stacked errors for one graph."""
    if net.gain is None:
        raise ValueError("error dynamics require a gain K")
    g = net.graphs[graph_index]
    a_bar, d_bar = g.adjacency_matrices()
    bk = net.sys.b @ net.gain
    eye = MatrixFF.identity(net.field, net.num_followers)
    return kron(eye, net.sys.A) + kron(a_bar - d_bar, bk)


def _scc_blocks(g: WeightedDigraphFF) -> list[tuple[tuple[int, ...], int | tuple]]:
    """The diagonal blocks H_SS of H = Dbar - Abar, one per SCC of the
    follower support, sources first, as (followers, H_SS): a singleton's
    as the int H_ii = d_i - w_ii, a larger block as its rows mod p."""
    degs, p, w = g._support()[0], g.field.p, g.weight
    return [
        (comp, (degs[comp[0]] - w(comp[0], comp[0])) % p if len(comp) == 1 else tuple(
            tuple(((degs[i] if i == j else 0) - w(j, i)) % p for j in comp) for i in comp))
        for comp in g.strongly_connected_components()
    ]


def _shifted_nilpotent(field: PrimeField, h: int | tuple, c: int, cache: dict) -> bool:
    """Whether the block H_SS - c I is nilpotent: a singleton by comparing
    scalars, a larger block by one test per distinct shifted block
    (``cache``, shared across an analysis)."""
    if type(h) is int:
        return h == c
    p = field.p
    key = tuple(tuple((v - c) % p if i == j else v for j, v in enumerate(row)) for i, row in enumerate(h))
    if key not in cache:
        cache[key] = MatrixFF(field, key).is_nilpotent()
    return cache[key]


def _eigenvalue(field: PrimeField, blocks: list, cache: dict) -> tuple[int, tuple[int, ...] | None]:
    """(d, S): the one eigenvalue d that H = Dbar - Abar can have, read
    off its SCC blocks (``_scc_blocks``), and the first SCC S whose block
    H_SS - d I is not nilpotent (None when H has the one eigenvalue d).

    If H_SS has the one eigenvalue d, then tr H_SS = |S| d, which gives d
    from the first SCC with p not dividing |S| (every singleton does).
    When p divides every |S|, write |S| = q m' with q the power of p in
    |S|: in characteristic p, chi = (x - d)^|S| = (x^q - d)^m' (d^q = d
    in F_p), whose coefficient of x^(|S| - q) is -m' d, so d is read off
    the first block's chi.  H has one eigenvalue iff every block minus
    d I is nilpotent.
    """
    p = field.p
    for comp, h in blocks:
        m = len(comp)
        if m % p:
            d = (h if m == 1 else sum(row[i] for i, row in enumerate(h))) * pow(m, p - 2, p) % p
            break
    else:
        comp, h = blocks[0]
        m = m1 = len(comp)
        while m1 % p == 0:
            m1 //= p
        d = -MatrixFF(field, h).char_poly()[m - m // m1] * pow(m1, p - 2, p) % p
    return d, next((comp for comp, h in blocks if not _shifted_nilpotent(field, h, d, cache)), None)


def _error_block_results(net: LeaderFollowerNetwork, kr: _Krylov, graph_blocks: list, cache: dict
                         ) -> tuple[list, int, list]:
    """r and mu* of claim 2 (mu* = 0 when r = 0) and, per graph's SCC
    blocks (``_scc_blocks``), the diagonal blocks of its error matrix as
    (followers, nilpotent) pairs, sources first; none is built.

    Claim 1: list the followers SCC by SCC, S_1, ..., S_m in a
    topological order of the condensation (Tarjan, SIAM J. Comput. 1,
    1972), a permutation similarity.  With H = Dbar - Abar, M is then
    block lower triangular with diagonal blocks I (X) A - H_SS (X) bK, so
    M is nilpotent iff every such M_SS is.  Proof: block (i, j) of M is
    [i = j] A - H_ij bK, and H_ij != 0 for i != j only if the edge j -> i
    exists, so that j's SCC is i's or precedes it.  A block-triangular
    matrix's characteristic polynomial is the product of its diagonal
    blocks', and a matrix is nilpotent iff its characteristic polynomial
    is x^dim.  H keeps the leader-inclusive in-degrees and the self-loops
    (H_ii = d_i - w_ii).

    Claim 2: with r = chi_(A - bK) - chi_A, M_SS is nilpotent iff r = 0
    and A is nilpotent, or H_SS - mu* I is nilpotent for the one mu* in
    F_p with chi_A - x^n + mu* r = 0.  Proof: bK has rank at most one, so
    by the matrix determinant lemma det(xI - A + mu bK) = chi_A +
    mu K adj(xI - A) b = chi_A + mu r for every mu in the algebraic
    closure: A - mu bK is nilpotent for every mu or none if r = 0, else
    at most for mu* = -c_t / r_t (r_t the lowest nonzero coefficient of
    r, c_t that of chi_A), which lies in F_p (``_Krylov.gain_change``
    reads r off the Krylov vectors).  Triangularize
    H_SS = Q T Q^-1 over the closure; Q (X) I_n takes M_SS to
    I (X) A - T (X) bK, block triangular with diagonal blocks A - mu_i bK
    over the eigenvalues mu_i of H_SS.  By claim 1's argument M_SS is
    nilpotent iff each A - mu_i bK is, which for r != 0 means that every
    mu_i is mu*, that is, H_SS - mu* I is nilpotent.

    Each distinct block H_SS - mu* I costs at most one |S| x |S| test
    (``_shifted_nilpotent``), shared with the eigenvalue tests.
    """
    if net.gain is None:
        raise ValueError("error dynamics require a gain K")
    p, chi_a = net.field.p, kr.chi[:-1]  # chi_A - x^n, ascending
    r = kr.gain_change(net.gain.to_rows()[0])
    t = next((k for k, v in enumerate(r) if v), None)
    mu = 0 if t is None else -chi_a[t] * pow(r[t], p - 2, p) % p
    if any((u + mu * v) % p for u, v in zip(chi_a, r)):
        every = False  # no mu makes A - mu bK nilpotent
    else:
        every = True if t is None else None  # every mu does (r = 0), or mu* alone
    per_graph = [
        [(comp, every if every is not None else _shifted_nilpotent(net.field, h, mu, cache)) for comp, h in blocks]
        for blocks in graph_blocks
    ]
    return r, mu, per_graph


def blockwise_nilpotency_check(net: LeaderFollowerNetwork, graph_index: int = 0) -> dict[int, bool]:
    """Per-follower nilpotency of A - d_i * bK.

    Valid as a consensus test only over an acyclic follower graph (the
    error matrix is then block-triangular with exactly these diagonal
    blocks); rejects cyclic graphs, whose SCC blocks are not per-follower
    (``analyze`` decides those).
    """
    g = net.graphs[graph_index]
    if not g.is_dag():
        raise ValueError(
            "blockwise check requires an acyclic follower graph; "
            "use is_nilpotent(error_dynamics_matrix(...)) instead"
        )
    _, _, [blocks] = _error_block_results(net, _krylov(net.sys), [_scc_blocks(g)], {})
    return {i: ok for (i,), ok in sorted(blocks)}


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------


def convergence_bound(net: LeaderFollowerNetwork) -> int:
    """Steps after which every admissible trajectory has zero error: the
    bound of the network's ``analyze`` report, which must be guaranteed."""
    report = analyze(net)
    if report.verdict != "guaranteed":
        raise ValueError(f"convergence bound requires a consensus-guaranteed network (verdict: {report.verdict})")
    return report.bounds["static" if net.is_static else "switching"]


# ----------------------------------------------------------------------
# Facts and the decision
# ----------------------------------------------------------------------


class _Facts(_FrozenRecord):
    """Everything the consensus rule reads, computed once per network: A's
    nilpotent degree (None unless A is nilpotent), the Krylov record, per
    graph the DAG flag and (d, the first SCC failing at d), the union (the
    graph itself when there is one) and its DAG flag, and under a supplied
    gain r, mu* and, per graph, the SCC blocks as (followers, nilpotent)."""

    __slots__ = ("a_degree", "decomp", "dags", "eigen", "union", "union_dag", "r", "mu", "blocks")


def _facts(net: LeaderFollowerNetwork) -> _Facts:
    graphs = net.graphs
    u = graphs[0] if net.is_static else union(list(graphs))
    union_dag = u.is_dag()
    graph_blocks = [_scc_blocks(g) for g in graphs]
    cache: dict = {}  # H_SS - c I -> nilpotent, for the eigenvalue and the gain's tests
    kr = _krylov(net.sys)
    r, mu, blocks = (None,) * 3 if net.gain is None else _error_block_results(net, kr, graph_blocks, cache)
    # chi_A = mu_b chi_(A_uc) is x^n iff c = 0 and the pair is stabilizable;
    # only then is A's degree computed
    return _Facts(
        net.sys.A.nilpotent_degree() if kr.stabilizable and not any(kr.c) else None,
        kr,
        # every subgraph of an acyclic union is acyclic
        (union_dag,) * len(graphs) if union_dag or net.is_static else tuple(g.is_dag() for g in graphs),
        tuple(_eigenvalue(net.field, b, cache) for b in graph_blocks),
        u, union_dag, r, mu, blocks,
    )


class _Decision(_FrozenRecord):
    """The verdict ("guaranteed" | "impossible" | "inconclusive"), its reason
    and the witness gain: 0 the zero gain, d the deadbeat gain for d, None
    no gain."""

    __slots__ = ("verdict", "reason", "witness_degree")


def _decide(f: _Facts, graph_indices: Sequence[int]) -> _Decision:
    """The consensus rule (module docstring) for the listed graphs, one
    or many.  Without a gain, once A is not nilpotent:

    * (A, b) not stabilizable: the uncontrollable coordinates of every
      error evolve by A_uc, whatever K and graphs;
    * take any K.  If r = 0, A - mu bK is nilpotent for no mu, as A is
      not.  If r != 0, it fixes one mu*, and mu* != 0, as mu* = 0 would
      give chi_A = x^n (claim 2 of ``_error_block_results``).  By claim
      2 a graph passes under K iff all its blocks have H_SS - mu* I
      nilpotent, that is, iff its d (``_eigenvalue``) is mu*.  So a
      graph whose H has no single nonzero eigenvalue fails under every
      K, and so does the signal that stays on it, and graphs whose d
      differ never all pass under one K;
    * the deadbeat gain for a d shared over an acyclic union works
      (``_bound``); over cyclic graphs no gain is synthesized yet.

    A supplied gain K is judged on its own:

    * a graph whose error matrix is not nilpotent never converges under
      the signal that stays on it, so no signal family containing it
      converges: impossible;
    * every graph passes, and there is one graph, r = 0 or an acyclic
      union: guaranteed (``_bound``);
    * a cyclic union with r != 0 is inconclusive: each graph converging
      alone does not make the switched products vanish.
    """
    one = len(graph_indices) == 1
    alone = next((gi for gi in graph_indices if f.eigen[gi][1] is not None or not f.eigen[gi][0]), None)
    ds = sorted({f.eigen[gi][0] for gi in graph_indices})
    cyclic = [gi for gi in graph_indices if not f.dags[gi]]

    if f.a_degree is not None:
        scope = "regardless of the graphs" if one else "under any switching"
        base = _Decision("guaranteed", f"A is nilpotent: the zero gain synchronizes every agent {scope}", 0)
    elif not f.decomp.stabilizable:
        base = _Decision("impossible", (
            "pair (A, b) is not stabilizable: the uncontrollable block is not "
            "nilpotent, so no gain can make the error dynamics nilpotent"
        ), None)
    elif alone is not None:
        d, comp = f.eigen[alone]
        where = "" if one else f"graph {alone} fails on its own: "
        why = "H is nilpotent" if comp is None else f"H_SS - {d} I is not nilpotent on the SCC of followers {list(comp)}"
        base = _Decision("impossible", (
            f"{where}H = Dbar - Abar has no single nonzero eigenvalue ({why}), "
            "so no gain makes the error matrix nilpotent"
        ), None)
    elif len(ds) > 1:
        base = _Decision("impossible", (
            f"each graph's H = Dbar - Abar has one nonzero eigenvalue, but the eigenvalues {ds} differ: "
            "a gain working for two of them leaves chi_A unchanged, and A is not nilpotent"
        ), None)
    elif not cyclic and (one or f.union_dag):
        [d] = ds
        if one:
            reason = (
                f"acyclic follower graph with uniform nonzero in-degree {d} and a stabilizable "
                "pair: a gain making the error dynamics nilpotent exists"
            )
        else:
            reason = (
                "union of follower supports is acyclic, the pair is stabilizable, and "
                f"every follower has in-degree {d} in every graph: one gain makes "
                "all error matrices simultaneously block-triangular and nilpotent"
            )
        base = _Decision("guaranteed", reason, d)
    elif cyclic:
        what = "cyclic follower graph" if one else f"cyclic follower graphs {cyclic}"
        base = _Decision("inconclusive", (
            f"{what} without a supplied gain, where H = Dbar - Abar has the one eigenvalue d = {ds[0]}: "
            "synthesis over cyclic follower graphs is not supported yet"
        ), None)
    else:
        base = _Decision("inconclusive", (
            "sufficiency conditions not met: union of follower supports has a directed cycle"
        ), None)
    if f.blocks is None:
        return base

    pointer = "; the gain in witness.synthesized_gain works" if base.witness_degree is not None else ""
    failing = [gi for gi in graph_indices if not all(ok for _, ok in f.blocks[gi])]
    if failing:
        head = "error matrix is not" if one else f"error matrices of graphs {failing} are not"
        if base.verdict == "impossible":
            tail = f"; no gain works: {base.reason}"
        elif base.verdict == "guaranteed" or not one:
            tail = pointer
        else:
            tail = " (verdict is for this gain; synthesis over cyclic follower graphs is not supported)"
        reason = f"{head} nilpotent for the supplied gain: some initial error recurs forever{tail}"
        return _Decision("impossible", reason, base.witness_degree)
    if one or not any(f.r) or f.union_dag:
        # a gain passing with r = 0 (A nilpotent) or over an acyclic union
        # shows that the base is guaranteed
        reason = base.reason if base.verdict == "guaranteed" else (
            "supplied gain makes the error matrix nilpotent (cyclic follower graph decided directly)"
        )
        return _Decision("guaranteed", reason, base.witness_degree)
    return _Decision("inconclusive", (
        "the supplied gain makes every graph's error matrix nilpotent, but bK != 0 and the union "
        "of follower supports has a directed cycle: switched products are not decided" + pointer
    ), base.witness_degree)


def _loop_degree(net: LeaderFollowerNetwork, kr: _Krylov, k: list[int], mu: int) -> int | None:
    """The nilpotent degree of F = A - mu bK for the gain row k, or None.

    When s = n, b is a cyclic vector of F: as F v = A v - mu (K v) b,
    F^j b = A^j b + a combination of b, ..., A^(j-1) b, so b, Fb, ...,
    F^(n-1) b is a basis like b, ..., A^(n-1) b; F^n = 0 iff F^n b = 0
    (F^n F^j b = F^j F^n b), and F^(n-1) b != 0.  So F is nilpotent iff n
    steps v <- A v - mu (K v) b on A's rows end at 0, and its degree is
    then exactly n.  When s < n, F's rows are built and their powers taken.
    """
    p, n, a_rows, b = net.field.p, net.sys.dim, net.sys.A.to_rows(), kr.vectors[0]
    if kr.s == n:
        v = b
        for _ in range(n):
            kv = mu * sum(map(mul, k, v))
            v = [(sum(map(mul, row, v)) - kv * bi) % p for row, bi in zip(a_rows, b)]
        return None if any(v) else n
    f_rows = [a - mu * bi * kj for row, bi in zip(a_rows, b) for a, kj in zip(row, k)]
    return MatrixFF.from_flat(net.field, n, n, f_rows).nilpotent_degree()


def _witness_gain(net: LeaderFollowerNetwork, f: _Facts, dec: _Decision) -> tuple[MatrixFF, int | None]:
    """The decision's witness gain and the nilpotent degree of its closed
    loop: A's for the zero gain, A - d*bK's for a deadbeat gain (None if,
    against the construction, that loop is not nilpotent)."""
    d = dec.witness_degree
    if d == 0:
        return MatrixFF.zeros(net.field, 1, net.sys.dim), f.a_degree
    k = f.decomp.deadbeat(d)
    return MatrixFF.row_vector(net.field, k), _loop_degree(net, f.decomp, k, d)


def _bound(net: LeaderFollowerNetwork, f: _Facts, witness: tuple | None) -> int:
    """Convergence bound of a guaranteed network, one graph or many, for the
    supplied gain or else the witness, ``witness`` = (k, d, certificate: the
    degree of A - d bK, which serves K = k as mu* = d).  Graph sigma's error
    matrix is M_sigma = I (X) A - H_sigma (X) bK (``_error_block_results``).

    r != 0: T = N*f, f the nilpotent degree of F = A - mu* bK.  Write
    M_sigma = I (X) F - N_sigma (X) bK, N_sigma = H_sigma - mu* I.  The
    N_sigma are jointly nilpotent of index <= N: one graph's is (its
    blocks H_SS - mu* I are), and under switching they are strictly
    triangular in the acyclic union's order (every in-degree is mu*).
    A product of L >= N*f factors expands into terms P (X) Q, P a
    product of N_sigma's and identities, Q of bK's and F's in the same
    places: P vanishes with N factors N_sigma, else Q has at most N - 1
    factors bK, so a run of f factors F = 0.  The witness's F is its
    deadbeat loop (mu* = d), so f is its certificate; f = n when s = n
    (``_loop_degree``).

    r = 0: T = max(deg A, s + kappa), kappa the first j with K A^j = 0.
    A gain passing with r = 0 needs A nilpotent (claim 2 of
    ``_error_block_results``), so chi_A = x^n and r_t = K A^(n-1-t) b
    (``_Krylov.gain_change``): K A^j b = 0 for every j, bK A^j bK = 0,
    and no term has two factors bK.  The term with none is I (X) A^L,
    zero for L >= deg A; one with a single bK has the factor A^i bK A^j,
    i + j = L - 1, zero once i >= s (A^s b = 0) or j >= kappa, as
    L >= s + kappa forces.  s + kappa <= n: the independent rows K A^j,
    j < kappa, annihilate the Krylov space of b.  The zero gain has
    kappa = 0 and s <= deg A, so its bound is deg A, its certificate.
    """
    N = net.num_followers
    if net.gain is None:
        return witness[2] if f.a_degree is not None else N * witness[2]
    if any(f.r):
        k = net.gain.to_rows()[0]
        return N * (witness[2] if witness and witness[:2] == (k, f.mu) else _loop_degree(net, f.decomp, k, f.mu))
    k, kappa = net.gain, 0
    while not k.is_zero():
        k, kappa = k @ net.sys.A, kappa + 1
    return max(f.a_degree, f.decomp.s + kappa)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


class AnalysisReport(_Record):
    """Structured verdict: what was checked and what follows from it."""

    __slots__ = ("verdict", "mode", "reason", "checks", "bounds", "witness", "diagnostics")

    def __init__(self, verdict: str, mode: str, reason: str, checks: dict, bounds: dict, witness: dict,
                 diagnostics: dict | None = None):
        self.verdict = verdict  # "guaranteed" | "impossible" | "inconclusive"
        self.mode = mode  # "static" | "switching"
        self.reason = reason
        self.checks = checks
        self.bounds = bounds
        self.witness = witness
        self.diagnostics = {} if diagnostics is None else diagnostics

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


def analyze(net: LeaderFollowerNetwork) -> AnalysisReport:
    """Dispatch to the static or switching analysis."""
    return check_static(net) if net.is_static else check_switching(net)


def _report(net: LeaderFollowerNetwork, mode: str, f: _Facts, checks: dict, witness: dict) -> AnalysisReport:
    """Complete a mode's checks and witness with the decision over all the
    network's graphs, its witness gain, the bound and the diagnostics."""
    everything = range(len(net.graphs))
    dec = _decide(f, everything)
    diagnostics: dict = {}
    if net.gain is not None:
        witness["supplied_gain"] = net.gain.to_rows()[0]
        diagnostics["error_matrix_blocks"] = {
            "count": sum(len(blocks) for blocks in f.blocks),
            "max_dim": max(len(comp) for blocks in f.blocks for comp, _ in blocks) * net.sys.dim,
        }
    loop = None
    if dec.witness_degree is not None:
        gain, certificate = _witness_gain(net, f, dec)
        loop = (gain.to_rows()[0], dec.witness_degree, certificate)
        witness["synthesized_gain"], witness["gain_certificate_degree"] = loop[0], certificate
    bounds: dict = {"static": None, "switching": None}
    if dec.verdict == "guaranteed":
        bounds[mode] = _bound(net, f, loop)
    if mode == "switching" and dec.verdict == "inconclusive":
        diagnostics["per_graph_static"] = [
            {"graph": gi, "verdict": _decide(f, [gi]).verdict} for gi in everything
        ]
    return AnalysisReport(
        verdict=dec.verdict,
        mode=mode,
        reason=dec.reason,
        checks=checks,
        bounds=bounds,
        witness=witness,
        diagnostics=diagnostics,
    )


def check_static(net: LeaderFollowerNetwork) -> AnalysisReport:
    """Decide consensus for a network with one fixed graph."""
    [g] = net.graphs
    f = _facts(net)
    checks: dict = {
        "a_nilpotent": f.a_degree is not None,
        "follower_graph_dag": f.union_dag,
        "stabilizable": f.decomp.stabilizable,
        "eigenvalue": f.eigen[0][0] if f.eigen[0][1] is None else None,
    }
    if net.gain is not None:
        [blocks] = f.blocks
        checks["supplied_gain_error_matrix_nilpotent"] = all(ok for _, ok in blocks)
        if f.union_dag:
            checks["per_agent_nilpotent"] = {str(i): ok for (i,), ok in sorted(blocks)}
    witness: dict = {
        "in_degrees": {str(i): v for i, v in g.in_degrees().items()},
        "leader_globally_reachable": g.leader_globally_reachable(),
    }
    if f.union_dag:
        witness["topo_permutation"] = g.topo_permutation()
    return _report(net, "static", f, checks, witness)


def check_switching(net: LeaderFollowerNetwork) -> AnalysisReport:
    """Analysis under arbitrary switching between the graphs; when it is
    inconclusive, the diagnostics carry each graph's static verdict."""
    f = _facts(net)
    checks: dict = {
        "a_nilpotent": f.a_degree is not None,
        "union_dag": f.union_dag,
        "stabilizable": f.decomp.stabilizable,
        "per_graph_eigenvalue": [d if failing is None else None for d, failing in f.eigen],
    }
    if net.gain is not None:
        checks["supplied_gain_error_matrices_nilpotent"] = [
            all(ok for _, ok in blocks) for blocks in f.blocks
        ]
    witness: dict = {
        "per_graph_in_degrees": [{str(i): v for i, v in g.in_degrees().items()} for g in net.graphs],
    }
    if f.union_dag:
        witness["union_topo_permutation"] = f.union.topo_permutation()
    return _report(net, "switching", f, checks, witness)


def synthesize_gain(net: LeaderFollowerNetwork) -> MatrixFF:
    """The witness gain of the network analysed without its gain: zero for
    a nilpotent A, else the deadbeat gain for the shared degree d.
    Raises GainSynthesisError with the decision's reason when the rule
    names no gain; the closed loop's nilpotency is verified."""
    bare = LeaderFollowerNetwork(sys=net.sys, graphs=net.graphs)
    f = _facts(bare)
    dec = _decide(f, range(len(net.graphs)))
    if dec.witness_degree is None:
        raise GainSynthesisError(dec.reason)
    k, certificate = _witness_gain(bare, f, dec)
    if certificate is None:
        raise AssertionError("postcondition failed: deadbeat closed loop is not nilpotent")
    return k
