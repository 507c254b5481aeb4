"""Consensus analysis and gain synthesis for leader-follower networks.

The stacked follower-minus-leader errors evolve linearly:

    delta(k+1) = [I_N (X) A  +  (Abar - Dbar) (X) bK] delta(k)

with (X) the Kronecker product, Abar the follower adjacency and Dbar the
diagonal of leader-inclusive in-degrees.  Consensus from every initial
condition is exactly nilpotency of that error matrix M.

No Kronecker block is built on the analysis paths.  Ordered by the
strongly connected components (SCCs) of the follower support, M is
block-triangular with one diagonal block I (X) A - H_SS (X) bK per SCC
S (H = Dbar - Abar, the grounded Laplacian); as bK has rank one, two
n x n characteristic polynomials and at most one |S| x |S| nilpotency
test of H_SS - mu* I per distinct block decide M (``_error_block_results``).

``error_dynamics_matrix`` builds the full Nn x Nn matrix; it is the
definition that the spectral rule is checked against.

Every verdict, witness gain and bound comes from one pass of facts
(``_facts``: A nilpotent, one Kalman decomposition of (A, b), each
graph's DAG flag and in-degrees, the union of the follower supports,
and the SCC blocks under a supplied gain) and one rule over them
(``_decide``).  A single graph is the static case.  Without a gain:

  * A nilpotent: guaranteed, the zero gain works under any graphs;
  * acyclic graph (union of the graphs), (A, b) stabilizable and one
    nonzero in-degree d shared by every follower in every graph:
    guaranteed, the deadbeat gain for d is the witness;
  * otherwise one acyclic graph is impossible (the conditions above are
    also necessary there), and anything else is inconclusive: cyclic
    graphs are not synthesized, and for several graphs the conditions
    are only sufficient.

With a supplied gain K the verdict is about K:

  * some graph's error matrix under K is not nilpotent: impossible (the
    signal that stays on that graph never converges); the reason points
    to ``witness.synthesized_gain`` when some other gain works;
  * otherwise guaranteed when there is one graph, bK = 0 or the union is
    acyclic, and inconclusive when bK != 0 over a cyclic union.

Bounds: N*n for one graph; under switching, ``product_vanishing_bound``
of the per-follower closed-loop degrees in the order of the union's
strongly connected components, the same Tarjan pass that gives the DAG
flags and the SCC blocks (each graph object computes it once).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .field import PrimeField, _FrozenRecord, _Record
from .graphs import DegreeCheck, WeightedDigraphFF, union
from .linsys import ControllabilityDecomposition, LinearSystemFF, deadbeat_gain, kalman_decompose
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


def _error_block_results(net: LeaderFollowerNetwork, graph_indices) -> list[list]:
    """For each listed graph, the diagonal blocks of its error matrix as
    (followers, nilpotent) pairs, one per strongly connected component of
    the follower support, sources first.  No block is built.

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
    r, c_t that of chi_A), which lies in F_p.  Triangularize
    H_SS = Q T Q^-1 over the closure; Q (X) I_n takes M_SS to
    I (X) A - T (X) bK, block triangular with diagonal blocks A - mu_i bK
    over the eigenvalues mu_i of H_SS.  By claim 1's argument M_SS is
    nilpotent iff each A - mu_i bK is, which for r != 0 means that every
    mu_i is mu*, that is, H_SS - mu* I is nilpotent.

    Each distinct block, keyed on H_SS - mu* I mod p, costs at most one
    |S| x |S| test across all listed graphs.
    """
    if net.gain is None:
        raise ValueError("error dynamics require a gain K")
    p = net.field.p
    A = net.sys.A
    chi_a = A.char_poly().coeffs[:-1]  # chi_A - x^n, ascending
    r = [(u - v) % p for u, v in zip((A - net.sys.b @ net.gain).char_poly().coeffs, chi_a)]
    t = next((k for k, v in enumerate(r) if v), None)
    mu = 0 if t is None else -chi_a[t] * pow(r[t], p - 2, p) % p
    if any((u + mu * v) % p for u, v in zip(chi_a, r)):
        every = False  # no mu makes A - mu bK nilpotent
    else:
        every = True if t is None else None  # every mu does (r = 0), or mu* alone
    results: dict = {}
    per_graph = []
    for gi in graph_indices:
        g = net.graphs[gi]
        degs = g.in_degrees()
        blocks = []
        for comp in g.strongly_connected_components():
            key = tuple(
                tuple(((degs[i] - mu if i == j else 0) - g.weight(j, i)) % p for j in comp)
                for i in comp
            )
            if key not in results:
                results[key] = every if every is not None else MatrixFF(net.field, key).is_nilpotent()
            blocks.append((comp, results[key]))
        per_graph.append(blocks)
    return per_graph


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
    [blocks] = _error_block_results(net, [graph_index])
    return {i: ok for (i,), ok in sorted(blocks)}


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------


def product_vanishing_bound(degrees: Sequence[int]) -> int:
    """Steps after which every product of conformant block-triangular
    matrices with these diagonal nilpotent degrees is zero.

    T = sum over l of min(max(k_1..k_{s+1-l}), max(k_l..k_s)); for equal
    degrees k this collapses to s*k.
    """
    ks = list(degrees)
    s = len(ks)
    if s == 0 or any(k < 0 for k in ks):
        raise ValueError("degrees must be a nonempty list of nonnegative integers")
    total = 0
    for ell in range(1, s + 1):
        total += min(max(ks[0 : s + 1 - ell]), max(ks[ell - 1 : s]))
    return total


def convergence_bound(net: LeaderFollowerNetwork) -> int:
    """Steps after which every admissible trajectory has zero error: the
    bound of the network's ``analyze`` report, which must be guaranteed."""
    report = analyze(net)
    if report.verdict != "guaranteed":
        raise ValueError(
            f"convergence bound requires a consensus-guaranteed network "
            f"(verdict: {report.verdict})"
        )
    return report.bounds["static" if net.is_static else "switching"]


# ----------------------------------------------------------------------
# Facts and the decision
# ----------------------------------------------------------------------


class _Facts(_FrozenRecord):
    """Everything the consensus rule reads, computed once per network."""

    __slots__ = ("a_degree", "decomp", "stabilizable", "dags", "degrees", "union", "union_dag",
                 "shared_degree", "bk_zero", "blocks")

    def __init__(self, a_degree: int | None, decomp: ControllabilityDecomposition, stabilizable: bool,
                 dags: tuple[bool, ...], degrees: tuple[DegreeCheck, ...], union: WeightedDigraphFF,
                 union_dag: bool, shared_degree: int | None, bk_zero: bool, blocks: list[list] | None):
        object.__setattr__(self, "a_degree", a_degree)  # A's nilpotent degree, None when A is not nilpotent
        object.__setattr__(self, "decomp", decomp)
        object.__setattr__(self, "stabilizable", stabilizable)
        object.__setattr__(self, "dags", dags)  # per graph
        object.__setattr__(self, "degrees", degrees)  # per graph
        object.__setattr__(self, "union", union)  # the graph itself when there is one
        object.__setattr__(self, "union_dag", union_dag)
        object.__setattr__(self, "shared_degree", shared_degree)  # one nonzero in-degree of every follower
        object.__setattr__(self, "bk_zero", bk_zero)
        # per graph, the supplied gain's SCC blocks as (followers, nilpotent)
        object.__setattr__(self, "blocks", blocks)


def _facts(net: LeaderFollowerNetwork) -> _Facts:
    graphs = net.graphs
    u = graphs[0] if net.is_static else union(list(graphs))
    union_dag = u.is_dag()
    degrees = tuple(g.common_degree() for g in graphs)
    values = {dc.degree for dc in degrees if dc.ok}
    decomp = kalman_decompose(net.sys)
    stabilizable = decomp.A_uc.is_nilpotent()
    # Q A Q^-1 is block upper triangular, so charpoly(A) = charpoly(A_c) *
    # charpoly(A_uc), and it is x^n iff both factors are powers of x: A is
    # nilpotent iff the companion row is zero and A_uc is nilpotent.  Only
    # then is A's degree computed.
    a_nilpotent = stabilizable and not any(decomp.companion_coeffs)
    return _Facts(
        a_degree=net.sys.A.nilpotent_degree() if a_nilpotent else None,
        decomp=decomp,
        stabilizable=stabilizable,
        # every subgraph of an acyclic union is acyclic
        dags=(union_dag,) * len(graphs) if union_dag or net.is_static
        else tuple(g.is_dag() for g in graphs),
        degrees=degrees,
        union=u,
        union_dag=union_dag,
        shared_degree=values.pop() if len(values) == 1 and all(dc.ok for dc in degrees) else None,
        bk_zero=net.gain is not None and (net.sys.b.is_zero() or net.gain.is_zero()),
        blocks=None if net.gain is None else _error_block_results(net, range(len(graphs))),
    )


class _Decision(_FrozenRecord):
    __slots__ = ("verdict", "reason", "witness_degree")

    def __init__(self, verdict: str, reason: str, witness_degree: int | None):
        object.__setattr__(self, "verdict", verdict)  # "guaranteed" | "impossible" | "inconclusive"
        object.__setattr__(self, "reason", reason)
        # the witness gain: 0 the zero gain, d the deadbeat gain for d, None no gain
        object.__setattr__(self, "witness_degree", witness_degree)


def _decide(f: _Facts, graph_indices: Sequence[int]) -> _Decision:
    """The consensus rule (module docstring) for the listed graphs.

    Without a gain it is the paper's characterization: exact for one
    graph, sufficient for several.  A supplied gain K is judged on its
    own; the argument for each case:

    * a graph whose error matrix is not nilpotent never converges under
      the signal that stays on it, so no signal family containing it
      converges: impossible;
    * one graph whose error matrix is nilpotent converges within N*n;
    * bK = 0: every error matrix is I (X) A, nilpotent since it passed;
    * acyclic union: every error matrix is block-triangular in the
      union's topological order with per-follower diagonal blocks
      A - d*bK, all nilpotent.  The input is single, so in Kalman
      coordinates (K -> [k, c]) A - d*bK is [[A_c - d*e_s*k, A_cc - d*e_s*c],
      [0, A_uc]] with A_c a companion matrix whose bottom row a - d*k must
      vanish.  If two degrees d != d' pass, then k = 0 and a = 0, so A_c
      is the shift J, and a product of m such blocks has corner
      sum_j J^(j-1) (A_cc - d_j*e_s*c) A_uc^(m-j); the vectors J^(j-1) e_s
      are independent, so once the constant products of length m vanish
      every term does, and so do the mixed ones.  Otherwise all blocks
      share one d.  Either way every product of a follower's blocks
      vanishes after its worst degree, and ``product_vanishing_bound``
      applies;
    * a cyclic union with bK != 0 is inconclusive: each graph converging
      alone does not make the switched products vanish.
    """
    one = len(graph_indices) == 1
    if one:
        [gi] = graph_indices
        acyclic, dc = f.dags[gi], f.degrees[gi]
        d = dc.degree if dc.ok else None
    else:
        acyclic, d = f.union_dag, f.shared_degree

    if f.a_degree is not None:
        scope = "regardless of the graphs" if one else "under any switching"
        base = _Decision("guaranteed", f"A is nilpotent: the zero gain synchronizes every agent {scope}", 0)
    elif acyclic and f.stabilizable and d is not None:
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
    elif one and acyclic:
        if not f.stabilizable:
            reason = (
                "pair (A, b) is not stabilizable: the uncontrollable block is not "
                "nilpotent, so no gain can make the error dynamics nilpotent"
            )
        elif dc.reason == "zero_degree":
            reason = (
                f"followers {list(dc.offenders)} have in-degree 0 mod p: "
                "their error blocks reduce to the non-nilpotent A for every gain"
            )
        else:
            reason = (
                f"follower in-degrees differ (offenders {list(dc.offenders)}): "
                "no single gain can cancel distinct degrees over a field "
                "without zero divisors"
            )
        base = _Decision("impossible", reason, None)
    elif one:
        base = _Decision("inconclusive", (
            "cyclic follower graph without a supplied gain: synthesis would "
            "require solving multivariate polynomial systems and is not supported"
        ), None)
    else:
        failed = []
        if not acyclic:
            failed.append("union of follower supports has a directed cycle")
        if not f.stabilizable:
            failed.append("pair (A, b) is not stabilizable")
        if d is None:
            failed.append("no single nonzero in-degree is shared by all followers in all graphs")
        base = _Decision("inconclusive", "sufficiency conditions not met: " + "; ".join(failed), None)
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
    if one or f.bk_zero or f.union_dag:
        # a gain passing over an acyclic union shows that the base is guaranteed
        reason = base.reason if base.verdict == "guaranteed" else (
            "supplied gain makes the error matrix nilpotent (cyclic follower graph decided directly)"
        )
        return _Decision("guaranteed", reason, base.witness_degree)
    return _Decision("inconclusive", (
        "the supplied gain makes every graph's error matrix nilpotent, but bK != 0 and the union "
        "of follower supports has a directed cycle: switched products are not decided" + pointer
    ), base.witness_degree)


def _witness_gain(net: LeaderFollowerNetwork, f: _Facts, dec: _Decision) -> tuple[MatrixFF, int | None]:
    """The decision's witness gain and the nilpotent degree of its closed
    loop: A's for the zero gain, A - d*bK's for a deadbeat gain (None if,
    against the construction, that loop is not nilpotent)."""
    d = dec.witness_degree
    if d == 0:
        return MatrixFF.zeros(net.field, 1, net.sys.dim), f.a_degree
    k = deadbeat_gain(f.decomp, d)
    return k, (net.sys.A - (net.sys.b @ k).scale(d)).nilpotent_degree()


def _bound(net: LeaderFollowerNetwork, f: _Facts, certificate: int | None) -> int:
    """Convergence bound of a guaranteed network (``certificate``: the
    witness closed loop's degree).  With a supplied gain over an acyclic
    union the followers are taken in the union's SCC order, sources first;
    ``product_vanishing_bound`` depends on which topological order it
    reads, and every one gives a sound bound."""
    if net.is_static:
        return net.num_followers * net.sys.dim
    if net.gain is not None and not f.bk_zero:
        # acyclic union (``_decide``): follower i's block in each graph is the
        # nilpotent A - d_i*bK; take each follower's worst closed-loop degree
        bk = net.sys.b @ net.gain
        ds = {d for dc in f.degrees for d in dc.degrees.values()}
        loop = {d: (net.sys.A - bk.scale(d)).nilpotent_degree() for d in ds}
        order = [node for (node,) in f.union.strongly_connected_components()]
        return product_vanishing_bound([max(loop[dc.degrees[node]] for dc in f.degrees) for node in order])
    # every diagonal block is one closed loop: the witness's A - d*bK, or A
    # itself under the zero gain or bK = 0 (which passes only for a nilpotent
    # A, whose witness is the zero gain); the bound for s equal degrees k is s*k
    return net.num_followers * certificate


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
    if net.is_static:
        return check_static(net)
    return check_switching(net)


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
    certificate = None
    if dec.witness_degree is not None:
        gain, certificate = _witness_gain(net, f, dec)
        witness["synthesized_gain"] = gain.to_rows()[0]
        witness["gain_certificate_degree"] = certificate
    bounds: dict = {"static": None, "switching": None}
    if dec.verdict == "guaranteed":
        bounds[mode] = _bound(net, f, certificate)
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
        "stabilizable": f.stabilizable,
        "common_degree": f.degrees[0].to_dict(),
    }
    if net.gain is not None:
        [blocks] = f.blocks
        checks["supplied_gain_error_matrix_nilpotent"] = all(ok for _, ok in blocks)
        if f.union_dag:
            checks["per_agent_nilpotent"] = {str(i): ok for (i,), ok in sorted(blocks)}
    witness: dict = {
        "in_degrees": {str(i): v for i, v in f.degrees[0].degrees.items()},
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
        "stabilizable": f.stabilizable,
        "per_graph_common_degree": [dc.to_dict() for dc in f.degrees],
        "uniform_degree_across_graphs": f.shared_degree is not None,
    }
    if f.shared_degree is not None:
        checks["common_degree_value"] = f.shared_degree
    if net.gain is not None:
        checks["supplied_gain_error_matrices_nilpotent"] = [
            all(ok for _, ok in blocks) for blocks in f.blocks
        ]
    witness: dict = {
        "per_graph_in_degrees": [{str(i): v for i, v in dc.degrees.items()} for dc in f.degrees],
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
