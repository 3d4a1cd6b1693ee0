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

    def is_closed_word(self, word) -> bool:
        """True when each letter of ``word`` has an edge to the next, the last to the first."""
        return self._edge_set.issuperset(zip(word, word[1:] + word[:1]))

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

    alive, edge_set = recurrent_core(g.edges)
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


def recurrent_core(edges) -> tuple[list, set]:
    """The vertices and edges of a graph that lie on a bi-infinite path.

    Vertices without an incoming or an outgoing edge are dropped until none
    is left (the essential graph of Lind and Marcus, *Symbolic Dynamics and
    Coding*, sec. 2.2).  Vertices are any sortable labels; the surviving
    ones come back sorted.  A finite graph has a cycle iff its core is
    non-empty.
    """
    edge_set = set(edges)
    alive = {v for e in edge_set for v in e}
    while True:
        keep = {u for u, _ in edge_set} & {v for _, v in edge_set}
        if keep == alive:
            return sorted(alive), edge_set
        alive = keep
        edge_set = {(u, v) for u, v in edge_set if u in alive and v in alive}


def least_accepted_path(starts, step, accept) -> list | None:
    """The states along the least accepted path of a letter-labelled automaton.

    A path begins at one of the ``(letter, state)`` pairs of ``starts`` and
    follows the ``(letter, state)`` pairs ``step(state)`` yields; it spells
    the letters of its states.  Paths are ordered by length, then by the
    word they spell.  The search runs level by level, each level kept in
    groups of states met along one word in ascending order, so it meets
    every state first along its least path and stops at the least accepted
    one.  None when no path is accepted.
    """
    parent: dict = {}

    def groups(moves):
        by_letter: dict = {}
        for letter, state, prev in moves:
            if state not in parent:
                parent[state] = prev
                by_letter.setdefault(letter, []).append(state)
        return [by_letter[a] for a in sorted(by_letter)]

    level = groups((a, s, None) for a, s in starts)
    while level:
        for group in level:
            state = next((s for s in group if accept(s)), None)
            if state is not None:
                path = [state]
                while (state := parent[state]) is not None:
                    path.append(state)
                return path[::-1]
        level = [g for group in level for g in groups((a, t, s) for s in group for a, t in step(s))]
    return None


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
    *,
    n_min: int | None = None,
    reach: np.ndarray | None = None,
) -> tuple[PeriodicPoint, ...]:
    """The periodic points of every period in [n_min, n] whose word begins with ``prefix``.

    ``n_min`` defaults to n.  Output is ordered by period, then
    lexicographically, and comes from one walk of
    :func:`~shiftlab.kernels.closed_paths`.  A window of more than one period
    must start at 1 or more and at or above the prefix length.  A prefix that
    is not an admissible word yields an empty result and a warning.  Raises
    :class:`BudgetExceededError` when any period has more than ``budget``
    points.  ``reach`` is a :func:`~shiftlab.kernels.exact_reach` table of
    ``g`` to at least n steps, built here when not given.
    """
    if n < 1:
        raise ValueError("period length must be >= 1")
    n_min = n if n_min is None else n_min
    prefix = tuple(int(s) for s in prefix)
    if n_min != n and not max(1, len(prefix)) <= n_min < n:
        raise ValueError(f"window [{n_min}, {n}] must start at 1 or more and hold the prefix length {len(prefix)}")
    if not g.is_word(prefix):
        warnings.warn("prefix is not an admissible word; no periodic points", stacklevel=2)
        return ()
    if len(prefix) > n:
        # period shorter than the pinned window: the cyclic repetition of the
        # candidate must reproduce the whole prefix
        cand = prefix[:n]
        if any(prefix[i] != cand[i % n] for i in range(len(prefix))):
            return ()
        if g.is_closed_word(cand):
            return (PeriodicPoint(cand),)
        return ()
    indptr, indices = g.csr
    paths, overflow = kernels.closed_paths(indptr, indices, _reach(g, n, reach), n, prefix, budget, n_min=n_min)
    if overflow:
        periods = f"period {n}" if n_min == n else f"a period in [{n_min}, {n}]"
        raise BudgetExceededError(f"more than {budget} periodic points of {periods}")
    # rows run by period; row i of period m holds -1 past column m
    bounds = np.searchsorted(n - (paths < 0).sum(axis=1), np.arange(n_min, n + 2)).tolist()
    return tuple(PeriodicPoint(tuple(row)) for m in range(n_min, n + 1)
                 for row in paths[bounds[m - n_min]:bounds[m - n_min + 1], :m].tolist())


def _reach(g: FiniteGraph, n: int, reach: np.ndarray | None) -> np.ndarray:
    """``reach``, checked to cover n steps of g, or a new table when it is None."""
    if reach is None:
        return kernels.exact_reach(g.adjacency, n)
    V = g.n_vertices
    if reach.ndim != 3 or reach.shape[0] <= n or reach.shape[1:] != (V, V):
        raise ValueError(f"reach table of shape {reach.shape} does not cover {n} steps on {V} vertices")
    return reach


def periodic_count_exponents(
    g: FiniteGraph,
    n: int,
    prefix=(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    *,
    n_min: int | None = None,
    reach: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Periodic points of every period in [n_min, n] aggregated by vertex-visit counts.

    ``n_min`` defaults to n.  Returns ``(counts, multiplicities)``: row ``i``
    of the int64 array ``counts`` (shape ``(k, n_vertices)``) is one
    distinct visit-count vector, and ``multiplicities[i]`` is the number of
    points with it.  A row sums to its period.  The points are the ones
    :func:`enumerate_periodic` yields for each period, aggregated by
    :func:`~shiftlab.kernels.closed_path_count_keys` in one walk; rows follow
    its order (by period, then by key), and are decoded from its fields of
    :func:`~shiftlab.kernels.count_key_width` bits.  A window of more than one
    period must start at 1 or more and at or above the prefix length.  Raises
    :class:`BudgetExceededError` when any period has more than ``budget``
    points, and ValueError when the keys do not fit: n_vertices times the
    width must be at most 63 (n <= 15 on 15 vertices, n <= 31 on 12,
    n <= 127 on 9).  ``reach`` is as for :func:`enumerate_periodic`.
    """
    n_min = n if n_min is None else n_min
    prefix = tuple(int(s) for s in prefix)
    if n_min != n and not max(1, len(prefix)) <= n_min < n:
        raise ValueError(f"window [{n_min}, {n}] must start at 1 or more and hold the prefix length {len(prefix)}")
    if n < 1 or len(prefix) > n or not g.is_word(prefix):
        # at most one point of period n, or none (with enumerate_periodic's warning)
        pts = enumerate_periodic(g, n, prefix, budget)
        counts = [np.bincount(pt.word, minlength=g.n_vertices) for pt in pts]
        return np.array(counts, dtype=np.int64).reshape(len(pts), g.n_vertices), np.ones(len(pts), dtype=np.int64)
    indptr, indices = g.csr
    keys, mult, overflow = kernels.closed_path_count_keys(
        indptr, indices, _reach(g, n, reach), n, prefix, budget, n_min=n_min
    )
    if overflow:
        raise BudgetExceededError(f"more than {budget} periodic points of a period in [{n_min}, {n}]")
    width = kernels.count_key_width(g.n_vertices, n)
    counts = (keys[:, None] >> (width * np.arange(g.n_vertices, dtype=np.int64))) & ((1 << width) - 1)
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
