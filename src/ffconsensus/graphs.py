"""Weighted directed interaction graphs with edge weights in F_p.

Node 0 is the leader; nodes 1..N are followers.  Edges carry nonzero
weights, field elements given as ints and kept as canonical residues by
``PrimeField.scalar`` (a bool or a non-int is a TypeError; a weight of
0 mod p means "no edge" and is rejected at construction),
no edge may point into the leader, and at most one edge exists per
ordered pair.  The public constructor checks the edges one at a time;
the config loader's, ``_of_residues``, checks its int triples as whole
lists (ranges by ``min``/``max``) and scans only a list that fails, to
name the first bad edge.  The in-degree of a follower sums ALL incoming
weights, including the leader's edge, reduced mod p; this
leader-inclusive convention is what the error-dynamics derivation
requires and is used consistently everywhere in the package.

The support facts are computed at most once per graph object, lazily,
as lists indexed by node: one pass over the edges gives the in-degrees
(``in_degrees``) and the successor lists, which the strongly connected
components of the follower support (Tarjan) read.  The DAG flag is read
off the components, which depend on the edge support only, never on
mod-p weight sums.  The config loader and ``union`` hand over edges that are
already checked (``_of_residues``, ``_hold``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import lt

from .field import PrimeField
from .matrix import MatrixFF


class EdgeError(ValueError):
    """Raised for an invalid edge; carries its position in the edge list."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class WeightedDigraphFF:
    """Digraph on {0, 1, ..., N} with weights in F_p; node 0 is the leader."""

    __slots__ = ("field", "num_followers", "_edges", "_degs", "_succ", "_sccs")

    def __init__(self, field: PrimeField, num_followers: int, edges: Iterable[tuple[int, int, int]] = ()):
        if num_followers < 1:
            raise ValueError("at least one follower is required")
        self._hold(field, num_followers, edges, None)

    def _hold(self, field: PrimeField, num_followers: int, edges, edge_map: dict | None) -> None:
        """Keep ``edge_map``, or ``_scan``'s of ``edges`` when it is None."""
        self.field, self.num_followers = field, num_followers
        self._edges = self._scan(field, num_followers, edges) if edge_map is None else edge_map
        self._degs = self._succ = self._sccs = None

    @classmethod
    def _of_residues(cls, field: PrimeField, num_followers: int, edges: list[tuple[int, int, int]],
                     columns: tuple | None = None):
        """The graph on int triples with weights reduced mod p, as the config
        loader checks them: only ranges, zero weights and repeats are checked.
        ``columns``: the triples' sources, targets and weights, if split."""
        g = object.__new__(cls)
        g._hold(field, num_followers, edges, _checked_map(num_followers, *(columns or zip(*edges))) if edges else {})
        return g

    @staticmethod
    def _scan(field: PrimeField, num_followers: int, edges: Iterable) -> dict[tuple[int, int], int]:
        """The edges checked one at a time, as {(source, target): weight
        mod p} in sorted order: raises EdgeError at the first invalid edge,
        or TypeError for a node or weight that is not an int (a bool is
        not one)."""
        edge_map: dict[tuple[int, int], int] = {}
        for index, (src, tgt, w) in enumerate(edges):
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in (src, tgt)):
                raise TypeError(f"edge {index} ({src!r}->{tgt!r}): nodes must be integers")
            if not (0 <= src <= num_followers):
                raise EdgeError(index, f"edge source {src} out of range 0..{num_followers}")
            if not (1 <= tgt <= num_followers):
                raise EdgeError(
                    index, f"edge target {tgt} invalid: targets must be followers 1..{num_followers}"
                )
            wv = field.scalar(w)
            if wv == 0:
                raise EdgeError(index, f"edge ({src}->{tgt}) has weight 0 mod {field.p}: not an edge")
            if (src, tgt) in edge_map:
                raise EdgeError(index, f"duplicate edge ({src}->{tgt})")
            edge_map[(src, tgt)] = wv
        return dict(sorted(edge_map.items()))

    def edges(self) -> list[tuple[int, int, int]]:
        """Edge list as (source, target, weight), deterministically sorted."""
        return [(s, t, w) for (s, t), w in self._edges.items()]

    def weight(self, src: int, tgt: int) -> int:
        """Weight of edge src -> tgt, 0 when absent."""
        return self._edges.get((src, tgt), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedDigraphFF)
            and self.field == other.field
            and self.num_followers == other.num_followers
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.num_followers, tuple(self._edges.items())))

    def __repr__(self) -> str:
        return (
            f"WeightedDigraphFF(p={self.field.p}, N={self.num_followers}, "
            f"edges={self.edges()})"
        )

    # -- matrices and degrees -------------------------------------------

    def adjacency_matrices(self) -> tuple[MatrixFF, MatrixFF]:
        """(follower adjacency, follower degree matrix).

        Entry (i, j) of the follower adjacency is the weight of edge
        j -> i.  The degree matrix is diagonal with the leader-inclusive
        follower in-degrees d_1..d_N mod p.
        """
        N = self.num_followers
        a_bar = [[0] * N for _ in range(N)]
        for (src, tgt), w in self._edges.items():
            if src >= 1:
                a_bar[tgt - 1][src - 1] = w
        degs = self._support()[0]
        d_bar = [[degs[i + 1] if i == j else 0 for j in range(N)] for i in range(N)]
        return MatrixFF(self.field, a_bar), MatrixFF(self.field, d_bar)

    def in_degrees(self) -> dict[int, int]:
        """Leader-inclusive in-degree of each follower, mod p."""
        degs = self._support()[0]
        return {i: degs[i] for i in range(1, self.num_followers + 1)}

    # -- structure --------------------------------------------------------

    def _support(self) -> tuple[list[int], list[list[int]]]:
        """(in-degrees mod p, successor lists), indexed by node 0..N, from one
        pass over the sorted edges (the leader's in-degree is 0; successors
        ascend, a self-loop included).  Kept: the graph is immutable."""
        if self._degs is None:
            N, p = self.num_followers, self.field.p
            degs, succ = [0] * (N + 1), [[] for _ in range(N + 1)]
            for (src, tgt), w in self._edges.items():
                degs[tgt] += w
                succ[src].append(tgt)
            self._degs, self._succ = [d % p for d in degs], succ
        return self._degs, self._succ

    def strongly_connected_components(self) -> list[tuple[int, ...]]:
        """Strongly connected components of the follower support, each a
        sorted tuple, listed sources first: every follower edge runs from
        a component to itself or to a later one.

        Tarjan's algorithm (SIAM J. Comput. 1, 1972) with an explicit
        stack, so long chains cannot exhaust the recursion limit.  Tarjan
        completes a component only after every component reachable from
        it, so the completion order reversed is a topological order of
        the condensation.  A follower with a self-loop is a one-node
        component like any other; acyclic graphs give N singletons.  The
        graph is immutable, so the components are computed once and kept.
        """
        if self._sccs is None:
            self._sccs = tuple(self._tarjan())
        return list(self._sccs)

    def _tarjan(self) -> list[tuple[int, ...]]:
        """Roots and successors in ascending order; index 0: not visited yet."""
        succ, N = self._support()[1], self.num_followers
        index, low, on_stack = [0] * (N + 1), [0] * (N + 1), bytearray(N + 1)
        stack, components, visits = [], [], 0
        for root in range(1, N + 1):
            if index[root]:
                continue
            visits += 1
            index[root] = low[root] = visits
            stack.append(root)
            on_stack[root] = 1
            work = [(root, iter(succ[root]))]
            while work:
                v, targets = work[-1]
                for t in targets:
                    if not index[t]:
                        visits += 1
                        index[t] = low[t] = visits
                        stack.append(t)
                        on_stack[t] = 1
                        work.append((t, iter(succ[t])))
                        break
                    if on_stack[t] and index[t] < low[v]:
                        low[v] = index[t]
                else:
                    work.pop()
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] == index[v]:
                        component = [stack.pop()]
                        while component[-1] != v:
                            component.append(stack.pop())
                        for t in component:
                            on_stack[t] = 0
                        components.append(tuple(sorted(component)))
        components.reverse()
        return components

    def is_dag(self) -> bool:
        """True iff the follower subgraph has no directed cycle: every
        strongly connected component is one follower without a self-loop."""
        return all(len(c) == 1 and (c[0], c[0]) not in self._edges for c in self.strongly_connected_components())


def _checked_map(N: int, srcs: Sequence[int], tgts: Sequence[int], weights: Sequence[int]
                 ) -> dict[tuple[int, int], int] | None:
    """{(source, target): weight} in sorted order for int columns, weights
    reduced mod p, checked whole: sources in 0..N, targets in 1..N (by
    ``min``/``max``), no zero weight, no repeated pair; else None."""
    if min(srcs) < 0 or max(srcs) > N or min(tgts) < 1 or max(tgts) > N or 0 in weights:
        return None
    keys = list(zip(srcs, tgts))
    edge_map = dict(zip(keys, weights))
    if len(edge_map) < len(keys):
        return None
    return edge_map if all(map(lt, keys, keys[1:])) else dict(sorted(edge_map.items()))


def union(graphs: Sequence[WeightedDigraphFF]) -> WeightedDigraphFF:
    """Support-level union: an edge is present iff present in any input.

    Weights may conflict across inputs; the first graph's weight is kept
    (the union is only ever used for support questions such as DAG
    testing, where any nonzero representative is equivalent), built
    from the inputs' checked edge maps without checking them again.
    """
    if not graphs:
        raise ValueError("union of an empty graph list")
    first = graphs[0]
    for g in graphs[1:]:
        if g.field != first.field or g.num_followers != first.num_followers:
            raise ValueError("graphs must share follower count and modulus")
    merged: dict[tuple[int, int], int] = {}
    for g in reversed(graphs):  # the first graph's weights are written last
        merged.update(g._edges)
    u = object.__new__(WeightedDigraphFF)
    u._hold(first.field, first.num_followers, (), dict(sorted(merged.items())))
    return u
