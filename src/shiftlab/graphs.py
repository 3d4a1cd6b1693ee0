"""Finite presentations of Markov shifts.

A shift is presented by a finite directed graph on a named alphabet.  All
ids are dense integers ``0..V-1``; display names only matter at the document
boundary.  Everything here is immutable and pure.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from . import kernels


class GraphError(ValueError):
    """Invalid graph data (duplicate edges, reducibility, empty pruning result)."""


class BudgetExceededError(RuntimeError):
    """An enumeration hit its path budget."""


Word = tuple[int, ...]

DEFAULT_ENUMERATION_BUDGET = 2_000_000


@dataclass(frozen=True)
class Symbol:
    id: int
    name: str


@dataclass(frozen=True)
class FiniteGraph:
    """Directed graph with named vertices; edges sorted and duplicate-free."""

    names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        V = len(self.names)
        if V == 0:
            raise GraphError("graph has no vertices")
        if len(set(self.names)) != V:
            raise GraphError("vertex display names must be unique")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < V and 0 <= v < V):
                raise GraphError(f"edge ({u},{v}) out of range for {V} vertices")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def n_vertices(self) -> int:
        return len(self.names)

    @cached_property
    def alphabet(self) -> tuple[Symbol, ...]:
        return tuple(Symbol(i, name) for i, name in enumerate(self.names))

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_vertices, self.n_vertices), dtype=bool)
        for u, v in self.edges:
            a[u, v] = True
        return a

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        return kernels.csr_adjacency(self.n_vertices, self.edges)

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_set

    def successors(self, u: int) -> np.ndarray:
        indptr, indices = self.csr
        return indices[indptr[u]:indptr[u + 1]]

    def is_word(self, word) -> bool:
        word = tuple(word)
        if not word:
            return True
        if any(not (0 <= s < self.n_vertices) for s in word):
            return False
        return all(self.has_edge(word[i], word[i + 1]) for i in range(len(word) - 1))

    def words(self, length: int) -> list[Word]:
        """All admissible words of the given length, lexicographically."""
        if length == 0:
            return [()]
        out: list[Word] = []
        stack: list[Word] = [(v,) for v in range(self.n_vertices - 1, -1, -1)]
        while stack:
            w = stack.pop()
            if len(w) == length:
                out.append(w)
                continue
            for s in reversed(self.successors(w[-1])):
                stack.append(w + (int(s),))
        return out

    def word_name(self, word) -> str:
        sep = "" if all(len(n) == 1 for n in self.names) else ","
        return sep.join(self.names[s] for s in word)


@dataclass(frozen=True)
class PeriodicPoint:
    """A point of period n given by the length-n word it traverses cyclically."""

    word: Word

    @property
    def period(self) -> int:
        return len(self.word)

    def letter(self, i: int) -> int:
        return self.word[i % len(self.word)]


@dataclass(frozen=True)
class FinitePresentation:
    """Validated, pruned, irreducible finite presentation."""

    graph: FiniteGraph
    period: int
    removed: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return "finite"

    @property
    def mixing(self) -> bool:
        return self.period == 1


@dataclass(frozen=True)
class ExhaustionLevel:
    """A nested stage: ambient vertex ids plus the induced validated graph."""

    vertex_ids: tuple[int, ...]
    graph: FiniteGraph


@dataclass(frozen=True)
class ExhaustionPresentation:
    """Strictly nested irreducible subgraphs exhausting an ambient description."""

    names: tuple[str, ...]
    levels: tuple[ExhaustionLevel, ...]

    def __post_init__(self):
        if not self.levels:
            raise GraphError("exhaustion needs at least one level")
        prev_v: frozenset[int] | None = None
        prev_e: frozenset[tuple[int, int]] | None = None
        for lv in self.levels:
            vids = frozenset(lv.vertex_ids)
            amb = frozenset(
                (lv.vertex_ids[u], lv.vertex_ids[v]) for u, v in lv.graph.edges
            )
            if prev_v is not None:
                if not (prev_v <= vids and prev_e <= amb):
                    raise GraphError("exhaustion levels are not nested")
                if prev_v == vids and prev_e == amb:
                    raise GraphError("exhaustion levels must grow strictly")
            prev_v, prev_e = vids, amb
        if tuple(sorted(self.levels[-1].vertex_ids)) != tuple(range(len(self.names))):
            raise GraphError("the top level must cover the whole ambient alphabet")

    @property
    def kind(self) -> str:
        return "exhaustion"

    @property
    def period(self) -> int:
        flag, period = irreducible_and_period(self.levels[-1].graph)
        assert flag and period is not None
        return period


def build_graph(names, edges) -> FinitePresentation:
    """Validate, prune, and classify a raw vertex/edge description.

    Vertices that cannot lie on a bi-infinite path are pruned iteratively and
    reported in ``removed``.  Raises :class:`GraphError` for duplicate edges,
    an empty pruned graph, or a graph that is not irreducible (the message
    lists the strongly connected components).
    """
    names = tuple(str(n) for n in names)
    edges = [(int(u), int(v)) for u, v in edges]
    if not edges:
        raise GraphError("graph needs at least one edge")
    g = FiniteGraph(names, tuple(edges))  # validates ranges and duplicates

    alive = list(range(g.n_vertices))
    edge_set = set(g.edges)
    while True:
        outs = {u for u, _ in edge_set}
        ins = {v for _, v in edge_set}
        dead = [v for v in alive if v not in outs or v not in ins]
        if not dead:
            break
        alive = [v for v in alive if v not in dead]
        edge_set = {(u, v) for u, v in edge_set if u in alive and v in alive}
        if not alive:
            break
    if not edge_set:
        raise GraphError("graph is empty after pruning stranded vertices")

    relabel = {v: i for i, v in enumerate(alive)}
    pruned = FiniteGraph(
        tuple(names[v] for v in alive),
        tuple(sorted((relabel[u], relabel[v]) for u, v in edge_set)),
    )
    removed = tuple(names[v] for v in range(g.n_vertices) if v not in relabel)

    flag, period = irreducible_and_period(pruned)
    if not flag:
        comps = strongly_connected_components(pruned)
        comp_names = [tuple(pruned.names[v] for v in comp) for comp in comps]
        raise GraphError(f"graph is not irreducible; strongly connected components: {comp_names}")
    return FinitePresentation(graph=pruned, period=period, removed=removed)


def strongly_connected_components(g: FiniteGraph) -> list[tuple[int, ...]]:
    """The strongly connected components of ``g``.

    Tarjan's algorithm (SIAM J. Comput. 1, 1972) with an explicit stack, so
    deep graphs need no recursion.  Each component is an ascending tuple;
    components are sorted by their smallest vertex.
    """
    succ = [[int(v) for v in g.successors(u)] for u in range(g.n_vertices)]
    index = [-1] * g.n_vertices
    low = [0] * g.n_vertices
    on_stack = [False] * g.n_vertices
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    counter = 0
    for root in range(g.n_vertices):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            u, i = work.pop()
            if i == 0:
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack[u] = True
            else:
                # returning from the child succ[u][i - 1]
                low[u] = min(low[u], low[succ[u][i - 1]])
            while i < len(succ[u]):
                v = succ[u][i]
                i += 1
                if index[v] < 0:
                    work.append((u, i))
                    work.append((v, 0))
                    break
                if on_stack[v]:
                    low[u] = min(low[u], index[v])
            else:
                if low[u] == index[u]:
                    comp = []
                    while True:
                        v = stack.pop()
                        on_stack[v] = False
                        comp.append(v)
                        if v == u:
                            break
                    comps.append(tuple(sorted(comp)))
    return sorted(comps)


def irreducible_and_period(g: FiniteGraph) -> tuple[bool, int | None]:
    """Strong connectivity plus the gcd of cycle lengths.

    The period comes from a BFS layering: on a strongly connected graph it is
    the gcd of ``depth[u] + 1 - depth[v]`` over all edges (u, v).
    """
    comps = strongly_connected_components(g)
    if len(comps) != 1:
        return False, None
    depth = np.full(g.n_vertices, -1, dtype=np.int64)
    depth[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in g.successors(u):
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                queue.append(int(v))
    d = 0
    for u, v in g.edges:
        d = gcd(d, int(depth[u] + 1 - depth[v]))
    return True, abs(d) if d != 0 else 1


def enumerate_periodic(
    g: FiniteGraph,
    n: int,
    prefix=(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[PeriodicPoint, ...]:
    """The n-periodic points whose length-n word begins with ``prefix``.

    Output is ordered lexicographically.  A prefix that is not an admissible
    word yields an empty result and a warning.  Raises
    :class:`BudgetExceededError` past ``budget`` points.
    """
    if n < 1:
        raise ValueError("period length must be >= 1")
    prefix = tuple(int(s) for s in prefix)
    if not g.is_word(prefix):
        warnings.warn("prefix is not an admissible word; no periodic points", stacklevel=2)
        return ()
    if len(prefix) > n:
        # period shorter than the pinned window: the cyclic repetition of the
        # candidate must reproduce the whole prefix
        cand = prefix[:n]
        if any(prefix[i] != cand[i % n] for i in range(len(prefix))):
            return ()
        if all(g.has_edge(cand[i], cand[(i + 1) % n]) for i in range(n)):
            return (PeriodicPoint(cand),)
        return ()
    indptr, indices = g.csr
    reach = kernels.exact_reach(g.adjacency, n)
    paths, overflow = kernels.closed_paths(indptr, indices, reach, n, prefix, budget)
    if overflow:
        raise BudgetExceededError(f"more than {budget} periodic points of period {n}")
    return tuple(PeriodicPoint(tuple(row)) for row in paths.tolist())


def periodic_count_exponents(
    g: FiniteGraph,
    n: int,
    prefix=(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """Periodic points of period n aggregated by vertex-visit counts.

    Returns ``(counts, multiplicities)``: row ``i`` of the int64 array
    ``counts`` (shape ``(k, n_vertices)``) is one distinct visit-count
    vector, and ``multiplicities[i]`` is the number of points with it.  The
    points are the ones :func:`enumerate_periodic` yields, aggregated by
    :func:`~shiftlab.kernels.closed_path_count_keys`; rows follow its
    ascending key order.  Requires at most 15 vertices and ``n <= 15``.
    """
    prefix = tuple(int(s) for s in prefix)
    indptr, indices = g.csr
    reach = kernels.exact_reach(g.adjacency, n)
    keys, mult, overflow = kernels.closed_path_count_keys(indptr, indices, reach, n, prefix, budget)
    if overflow:
        raise BudgetExceededError(f"more than {budget} periodic points of period {n}")
    counts = (keys[:, None] >> (4 * np.arange(g.n_vertices, dtype=np.int64))) & 0xF
    return counts, mult


@dataclass(frozen=True)
class BlockLabeling:
    """Conjugacy data from a higher-block graph back to its base graph.

    ``symbol_map[i]`` is the base symbol written when the block vertex ``i``
    is read (the first letter of the block word).
    """

    block_words: tuple[Word, ...]
    symbol_map: tuple[int, ...]
    block_length: int

    def apply(self, word) -> Word:
        return tuple(self.symbol_map[s] for s in word)

    def block_index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.block_words)}


def higher_block(g: FiniteGraph, N: int) -> tuple[FiniteGraph, BlockLabeling]:
    """The N-block presentation together with its one-block labeling to ``g``.

    Vertices are the admissible N-words; ``u`` steps to ``v`` iff the
    (N+1)-word ``u + v[-1]`` is admissible, which for sliding windows is
    automatic.  N = 1 reproduces the input graph with identity labeling.
    """
    if N < 1:
        raise ValueError("block length must be >= 1")
    if N == 1:
        labeling = BlockLabeling(
            block_words=tuple((v,) for v in range(g.n_vertices)),
            symbol_map=tuple(range(g.n_vertices)),
            block_length=1,
        )
        return g, labeling
    blocks = g.words(N)
    assert blocks, "irreducible graphs admit words of every length"
    index = {w: i for i, w in enumerate(blocks)}
    edges = []
    for w in blocks:
        for s in g.successors(w[-1]):
            edges.append((index[w], index[w[1:] + (int(s),)]))
    names = tuple(g.word_name(w) for w in blocks)
    hb = FiniteGraph(names, tuple(sorted(edges)))
    labeling = BlockLabeling(
        block_words=tuple(blocks),
        symbol_map=tuple(w[0] for w in blocks),
        block_length=N,
    )
    return hb, labeling
