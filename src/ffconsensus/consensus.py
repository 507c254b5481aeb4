"""Consensus analysis and gain synthesis for leader-follower networks.

The stacked follower-minus-leader errors evolve linearly:

    delta(k+1) = [I_N (X) A  +  (Abar - Dbar) (X) bK] delta(k)

with (X) the Kronecker product, Abar the follower adjacency and Dbar the
diagonal of leader-inclusive in-degrees.  Consensus from every initial
condition is exactly nilpotency of that error matrix M.

M is never built on the analysis paths: ordered by the strongly
connected components (SCCs) of the follower support, M is block-
triangular with one diagonal block I (X) A + (Abar_SS - Dbar_SS) (X) bK
per SCC S, so M is nilpotent iff every SCC block is (proof at
``_error_block_results``).  Each distinct block is tested once.  An
acyclic follower graph has only singleton SCCs with blocks A - d_i * bK,
which reduces the network question to small n x n checks and yields the
achievability characterization:

  * A nilpotent: the zero gain always works, any graphs;
  * otherwise, over an acyclic follower graph, a suitable gain exists
    iff (A, b) is stabilizable and all followers share one nonzero
    in-degree d; the deadbeat gain for that d is a constructive witness;
  * cyclic follower graphs are only decided when a gain is supplied
    (one |S|n x |S|n nilpotency test per distinct SCC block); synthesis
    for them is refused.

``error_dynamics_matrix`` builds the full Nn x Nn matrix; it is the
definition that the blockwise test is checked against.

For switching topologies the same data gives a sufficiency check (union
of follower supports acyclic, one degree d across all graphs and agents)
and a horizon T after which every product of error matrices vanishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .field import PrimeField
from .graphs import GraphCycleError, WeightedDigraphFF, union
from .linsys import LinearSystemFF, deadbeat_gain, kalman_decompose
from .matrix import MatrixFF, kron


class GainSynthesisError(ValueError):
    """Raised when no gain can be synthesized for the requested network."""


@dataclass(frozen=True)
class LeaderFollowerNetwork:
    """Shared dynamics (A, b), optional gain K (1 x n), and one or more
    interaction graphs (a single graph is the static case)."""

    sys: LinearSystemFF
    graphs: tuple[WeightedDigraphFF, ...]
    gain: MatrixFF | None = None

    def __post_init__(self):
        if not self.graphs:
            raise ValueError("at least one interaction graph is required")
        N = self.graphs[0].num_followers
        for g in self.graphs:
            if g.field != self.sys.field:
                raise ValueError("graph modulus differs from the system modulus")
            if g.num_followers != N:
                raise ValueError("all graphs must have the same follower count")
        if self.gain is not None:
            if self.gain.rows != 1 or self.gain.cols != self.sys.dim:
                raise ValueError("gain must be a 1 x n row")
            if self.gain.field != self.sys.field:
                raise ValueError("gain modulus differs from the system modulus")

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


@dataclass(frozen=True)
class SwitchingSignal:
    """Map from time step to active graph index (0-based).

    kinds: "explicit" uses ``sequence`` verbatim and must cover the
    horizon; "periodic" repeats ``sequence``; "random" draws uniformly
    with the given seed (reproducible).
    """

    kind: str
    num_graphs: int
    sequence: tuple[int, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("explicit", "periodic", "random"):
            raise ValueError(f"unknown switching kind {self.kind!r}")
        if self.kind in ("explicit", "periodic"):
            if not self.sequence:
                raise ValueError(f"{self.kind} switching requires a nonempty sequence")
            bad = [i for i in self.sequence if not (0 <= i < self.num_graphs)]
            if bad:
                raise ValueError(f"switching sequence contains invalid graph indices {bad}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random switching requires a seed")

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
    _, a_bar, d_bar = g.adjacency_matrices()
    bk = net.sys.b @ net.gain
    eye = MatrixFF.identity(net.field, net.num_followers)
    return kron(eye, net.sys.A) + kron(a_bar - d_bar, bk)


def _error_block_results(net: LeaderFollowerNetwork, graph_indices, test) -> list[list]:
    """For each listed graph, the diagonal blocks of its error matrix as
    (followers, test(block)) pairs, one per strongly connected component
    of the follower support, sources first.

    Claim: with S_1, ..., S_m the SCCs in a topological order of the
    condensation (Tarjan, SIAM J. Comput. 1, 1972), M is block lower
    triangular with diagonal blocks

        M_SS = I_|S| (X) A + (Abar_SS - Dbar_SS) (X) bK,

    after the followers are listed SCC by SCC (a permutation similarity
    P (X) I_n, which preserves nilpotency), so M is nilpotent iff every
    M_SS is.  Proof: the n x n block (i, j) of M is
    [i = j] A + (Abar_ij - [i = j] d_i) bK, and Abar_ij is the weight of
    the edge j -> i.  If i lies in S_a, j in S_b and that edge exists,
    then S_b = S_a or S_b precedes S_a, so b <= a: every block of M above
    the SCC block diagonal is zero.  The characteristic polynomial of a
    block-triangular matrix is the product of those of its diagonal
    blocks, and a square matrix over a field is nilpotent iff its
    characteristic polynomial is x^dim; hence the claim.  Dbar keeps the
    full leader-inclusive in-degrees, and a follower self-loop stays in
    its singleton block as Abar_ii = w_ii.

    ``test`` (for example ``MatrixFF.is_nilpotent``) runs once per
    distinct block across all listed graphs: a block is keyed on the
    entries of Abar_SS - Dbar_SS mod p, which for a singleton {i} is the
    effective diagonal w_ii - d_i.  A chain of N followers with one
    degree therefore costs a single n x n test.
    """
    if net.gain is None:
        raise ValueError("error dynamics require a gain K")
    field = net.field
    p = field.p
    A = net.sys.A
    bk = net.sys.b @ net.gain
    results: dict = {}
    per_graph = []
    for gi in graph_indices:
        g = net.graphs[gi]
        degs = g.in_degrees()
        blocks = []
        for comp in g.strongly_connected_components():
            key = tuple(
                tuple((g.weight(j, i) - (degs[i].value if i == j else 0)) % p for j in comp)
                for i in comp
            )
            if key not in results:
                block = kron(MatrixFF.identity(field, len(comp)), A) + kron(MatrixFF(field, key), bk)
                results[key] = test(block)
            blocks.append((comp, results[key]))
        per_graph.append(blocks)
    return per_graph


def blockwise_nilpotency_check(
    net: LeaderFollowerNetwork, graph_index: int = 0
) -> dict[int, bool]:
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
    [blocks] = _error_block_results(net, [graph_index], MatrixFF.is_nilpotent)
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


def static_error_degree_bound(net: LeaderFollowerNetwork) -> int:
    """Upper bound N*n on the nilpotent degree of the static error matrix."""
    return net.num_followers * net.sys.dim


def _closed_loop_block_degrees(net: LeaderFollowerNetwork) -> list[int]:
    """Per-agent nilpotent degrees of the diagonal error blocks, in the
    union graph's topological order.

    Uses the network's gain when present (raising if some block is not
    nilpotent); otherwise uses the canonical synthesized gain.  With the
    zero gain and nilpotent A every block is A itself.
    """
    work = net if net.gain is not None else net.with_gain(synthesize_gain(net))
    bk = work.sys.b @ work.gain
    if bk.is_zero():
        # error matrices are block diagonal with every block equal to A:
        # no ordering is needed and A itself must be nilpotent
        k = work.sys.A.nilpotent_degree()
        if k is None:
            raise ValueError("zero coupling with a non-nilpotent A never converges")
        return [k] * net.num_followers
    order = union(list(net.graphs)).topological_order()  # raises GraphCycleError when cyclic
    # the union is acyclic, so every graph's blocks are the singletons A - d_i bK
    worst: dict[int, int] = {}
    for blocks in _error_block_results(work, range(len(net.graphs)), MatrixFF.nilpotent_degree):
        for (node,), k in blocks:
            if k is None:
                raise ValueError(f"closed loop A - d_i*bK for follower {node} is not nilpotent")
            worst[node] = max(worst.get(node, 0), k)
    return [worst[node] for node in order]


def convergence_bound(net: LeaderFollowerNetwork) -> int:
    """Steps after which every admissible trajectory has zero error.

    Static case: N*n.  Switching case: the product-vanishing bound over
    the per-agent closed-loop degrees taken in the union graph's
    topological order.  Requires the consensus hypotheses to hold.
    """
    report = analyze(net)
    if report.verdict != "guaranteed":
        raise ValueError(
            f"convergence bound requires a consensus-guaranteed network "
            f"(verdict: {report.verdict})"
        )
    if net.is_static:
        return static_error_degree_bound(net)
    return product_vanishing_bound(_closed_loop_block_degrees(net))


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass
class AnalysisReport:
    """Structured verdict: what was checked and what follows from it."""

    verdict: str  # "guaranteed" | "impossible" | "inconclusive"
    mode: str  # "static" | "switching"
    reason: str
    checks: dict
    bounds: dict
    witness: dict
    diagnostics: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "reason": self.reason,
            "checks": self.checks,
            "bounds": self.bounds,
            "witness": self.witness,
            "diagnostics": self.diagnostics,
        }


def analyze(net: LeaderFollowerNetwork) -> AnalysisReport:
    """Dispatch to the static or switching analysis."""
    if net.is_static:
        return check_static(net)
    return check_switching(net)


def _supplied_gain_blocks(net: LeaderFollowerNetwork, graph_indices, diagnostics: dict) -> list[list]:
    """Nilpotency of each SCC block of the listed graphs' error matrices
    under the supplied gain, recording the block count and largest block
    dimension under ``diagnostics["error_matrix_blocks"]``."""
    per_graph = _error_block_results(net, graph_indices, MatrixFF.is_nilpotent)
    diagnostics["error_matrix_blocks"] = {
        "count": sum(len(blocks) for blocks in per_graph),
        "max_dim": max(len(comp) for blocks in per_graph for comp, _ in blocks) * net.sys.dim,
    }
    return per_graph


def check_static(net: LeaderFollowerNetwork, graph_index: int = 0) -> AnalysisReport:
    """Decide consensus achievability for a single fixed graph."""
    g = net.graphs[graph_index]
    checks: dict = {}
    witness: dict = {}
    diagnostics: dict = {}

    a_nil = net.sys.A.is_nilpotent()
    checks["a_nilpotent"] = a_nil
    dag = g.is_dag()
    checks["follower_graph_dag"] = dag
    decomp = kalman_decompose(net.sys)
    stab = decomp.A_uc.is_nilpotent()
    checks["stabilizable"] = stab
    deg = g.common_degree()
    checks["common_degree"] = deg.to_dict()
    witness["in_degrees"] = {str(i): d.value for i, d in g.in_degrees().items()}
    witness["leader_globally_reachable"] = g.leader_globally_reachable()
    if dag:
        witness["topo_permutation"] = g.topo_permutation()

    supplied_ok = None
    if net.gain is not None:
        [blocks] = _supplied_gain_blocks(net, [graph_index], diagnostics)
        supplied_ok = all(ok for _, ok in blocks)
        checks["supplied_gain_error_matrix_nilpotent"] = supplied_ok
        if dag:
            checks["per_agent_nilpotent"] = {str(i): ok for (i,), ok in sorted(blocks)}
        witness["supplied_gain"] = net.gain.to_rows()[0]

    bounds: dict = {"static": None, "switching": None}

    if a_nil:
        verdict = "guaranteed"
        reason = "A is nilpotent: the zero gain synchronizes every agent regardless of the graphs"
        witness["synthesized_gain"] = [0] * net.sys.dim
        bounds["static"] = static_error_degree_bound(net)
    elif dag:
        if stab and deg.ok:
            verdict = "guaranteed"
            reason = (
                "acyclic follower graph with uniform nonzero in-degree "
                f"{deg.degree.value} and a stabilizable pair: a gain making the "
                "error dynamics nilpotent exists"
            )
            k = deadbeat_gain(decomp, deg.degree)
            witness["synthesized_gain"] = k.to_rows()[0]
            closed = net.sys.A - (net.sys.b @ k).scale(deg.degree.value)
            witness["gain_certificate_degree"] = closed.nilpotent_degree()
            bounds["static"] = static_error_degree_bound(net)
        elif not stab:
            verdict = "impossible"
            reason = (
                "pair (A, b) is not stabilizable: the uncontrollable block is not "
                "nilpotent, so no gain can make the error dynamics nilpotent"
            )
        else:
            verdict = "impossible"
            if deg.reason == "zero_degree":
                reason = (
                    f"followers {list(deg.offenders)} have in-degree 0 mod p: "
                    "their error blocks reduce to the non-nilpotent A for every gain"
                )
            else:
                reason = (
                    f"follower in-degrees differ (offenders {list(deg.offenders)}): "
                    "no single gain can cancel distinct degrees over a field "
                    "without zero divisors"
                )
    else:
        if net.gain is not None:
            if supplied_ok:
                verdict = "guaranteed"
                reason = "supplied gain makes the error matrix nilpotent (cyclic follower graph decided directly)"
                bounds["static"] = static_error_degree_bound(net)
            else:
                verdict = "impossible"
                reason = (
                    "error matrix is not nilpotent for the supplied gain: some "
                    "initial error recurs forever (verdict is for this gain; "
                    "synthesis over cyclic follower graphs is not supported)"
                )
        else:
            verdict = "inconclusive"
            reason = (
                "cyclic follower graph without a supplied gain: synthesis would "
                "require solving multivariate polynomial systems and is not supported"
            )

    return AnalysisReport(
        verdict=verdict,
        mode="static",
        reason=reason,
        checks=checks,
        bounds=bounds,
        witness=witness,
        diagnostics=diagnostics,
    )


def check_switching(net: LeaderFollowerNetwork) -> AnalysisReport:
    """Sufficiency analysis under arbitrary switching between the graphs.

    Guaranteed when A is nilpotent, or when the union of follower
    supports is acyclic, (A, b) is stabilizable, and a single nonzero
    degree d matches every follower in every graph.  The conditions are
    sufficient only, so their failure yields "inconclusive" with
    per-graph static diagnostics, never "impossible".
    """
    checks: dict = {}
    witness: dict = {}
    diagnostics: dict = {}

    a_nil = net.sys.A.is_nilpotent()
    checks["a_nilpotent"] = a_nil
    u = union(list(net.graphs))
    union_dag = u.is_dag()
    checks["union_dag"] = union_dag
    decomp = kalman_decompose(net.sys)
    stab = decomp.A_uc.is_nilpotent()
    checks["stabilizable"] = stab

    per_graph_deg = [g.common_degree() for g in net.graphs]
    degree_values = {d.degree.value for d in per_graph_deg if d.ok}
    uniform = all(d.ok for d in per_graph_deg) and len(degree_values) == 1
    checks["per_graph_common_degree"] = [d.to_dict() for d in per_graph_deg]
    checks["uniform_degree_across_graphs"] = uniform
    if uniform:
        checks["common_degree_value"] = next(iter(degree_values))
    witness["per_graph_in_degrees"] = [
        {str(i): d.value for i, d in g.in_degrees().items()} for g in net.graphs
    ]
    if union_dag:
        witness["union_topo_permutation"] = u.topo_permutation()

    if net.gain is not None:
        witness["supplied_gain"] = net.gain.to_rows()[0]
        checks["supplied_gain_error_matrices_nilpotent"] = [
            all(ok for _, ok in blocks)
            for blocks in _supplied_gain_blocks(net, range(len(net.graphs)), diagnostics)
        ]

    bounds: dict = {"static": None, "switching": None}

    if a_nil:
        verdict = "guaranteed"
        reason = "A is nilpotent: the zero gain synchronizes every agent under any switching"
        witness["synthesized_gain"] = [0] * net.sys.dim
        zero_gain = net.with_gain(MatrixFF.zeros(net.field, 1, net.sys.dim))
        if net.gain is not None:
            try:
                bounds["switching"] = product_vanishing_bound(_closed_loop_block_degrees(net))
            except (ValueError, GraphCycleError):
                bounds["switching"] = product_vanishing_bound(
                    _closed_loop_block_degrees(zero_gain)
                )
                diagnostics["bound_uses_synthesized_gain"] = True
        else:
            bounds["switching"] = product_vanishing_bound(_closed_loop_block_degrees(zero_gain))
    elif union_dag and stab and uniform:
        d_val = next(iter(degree_values))
        verdict = "guaranteed"
        reason = (
            "union of follower supports is acyclic, the pair is stabilizable, and "
            f"every follower has in-degree {d_val} in every graph: one gain makes "
            "all error matrices simultaneously block-triangular and nilpotent"
        )
        k = deadbeat_gain(decomp, d_val)
        witness["synthesized_gain"] = k.to_rows()[0]
        closed = net.sys.A - (net.sys.b @ k).scale(d_val)
        witness["gain_certificate_degree"] = closed.nilpotent_degree()
        work = net if net.gain is not None else net.with_gain(k)
        try:
            bounds["switching"] = product_vanishing_bound(_closed_loop_block_degrees(work))
        except ValueError:
            # supplied gain does not stabilize the blocks: bound from the
            # synthesized gain instead, recorded as such
            bounds["switching"] = product_vanishing_bound(
                _closed_loop_block_degrees(net.with_gain(k))
            )
            diagnostics["bound_uses_synthesized_gain"] = True
    else:
        verdict = "inconclusive"
        failed = []
        if not union_dag:
            failed.append("union of follower supports has a directed cycle")
        if not stab:
            failed.append("pair (A, b) is not stabilizable")
        if not uniform:
            failed.append("no single nonzero in-degree is shared by all followers in all graphs")
        reason = "sufficiency conditions not met: " + "; ".join(failed)
        diagnostics["per_graph_static"] = [
            {
                "graph": i,
                "verdict": check_static(
                    LeaderFollowerNetwork(sys=net.sys, graphs=(g,), gain=net.gain), 0
                ).verdict,
            }
            for i, g in enumerate(net.graphs)
        ]

    return AnalysisReport(
        verdict=verdict,
        mode="switching",
        reason=reason,
        checks=checks,
        bounds=bounds,
        witness=witness,
        diagnostics=diagnostics,
    )


def synthesize_gain(net: LeaderFollowerNetwork) -> MatrixFF:
    """Construct a gain for a network whose achievability conditions hold.

    Nilpotent A yields the zero gain.  Otherwise the follower graph (or
    union, in the switching case) must be acyclic with one nonzero shared
    degree d and a stabilizable pair; the result is the deadbeat gain for
    d.  The nilpotency postcondition is verified before returning.
    """
    A = net.sys.A
    n = net.sys.dim
    if A.is_nilpotent():
        return MatrixFF.zeros(net.field, 1, n)

    if net.is_static:
        g = net.graphs[0]
        if not g.is_dag():
            raise GainSynthesisError(
                "gain synthesis requires an acyclic follower graph "
                "(cyclic graphs need multivariate polynomial solving, unsupported)"
            )
        degree_checks = [g.common_degree()]
    else:
        if not union(list(net.graphs)).is_dag():
            raise GainSynthesisError("union of follower supports has a directed cycle")
        degree_checks = [g.common_degree() for g in net.graphs]

    if not all(dc.ok for dc in degree_checks):
        bad = next(dc for dc in degree_checks if not dc.ok)
        raise GainSynthesisError(
            f"followers do not share a nonzero in-degree ({bad.reason}: {list(bad.offenders)})"
        )
    values = {dc.degree.value for dc in degree_checks}
    if len(values) > 1:
        raise GainSynthesisError(
            f"in-degrees differ across graphs: {sorted(values)}"
        )
    d = values.pop()

    decomp = kalman_decompose(net.sys)
    if not decomp.A_uc.is_nilpotent():
        uc_deg = decomp.A_uc.rows
        raise GainSynthesisError(
            f"pair (A, b) is not stabilizable: the {uc_deg} x {uc_deg} "
            "uncontrollable block is not nilpotent"
        )
    k = deadbeat_gain(decomp, d)
    closed = A - (net.sys.b @ k).scale(d)
    if not closed.is_nilpotent():
        raise AssertionError("postcondition failed: deadbeat closed loop is not nilpotent")
    return k
