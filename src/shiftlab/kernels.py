"""Hot enumeration and sampling kernels, vectorized with numpy.

All kernels work on CSR adjacency (``indptr``, ``indices`` with successor
lists sorted ascending).  Enumeration extends all partial paths together,
one step at a time, and keeps them in lexicographic order.  Pruning uses exact
k-step reachability tables, so the work done is proportional to the number
of emitted paths, not to the number of dead branches.

Closed paths have one walker, ``_closed_walk``, which owns the pruning and
the budget and tracks only each partial path's first and last vertex.  Two
accumulators consume its steps: ``closed_paths`` gathers path rows, and
``closed_path_count_keys`` gathers packed visit-count keys and never builds
a row.

Caps are hard limits on emitted paths.  On overflow the kernels return a
flag, and callers turn that into a budget error or a truncation marker.

Chain stepping makes no numpy call per step: it tabulates every state's
next state for a chunk of uniforms with one ``searchsorted`` per state,
then follows the table in a plain loop.
"""
from __future__ import annotations

import numpy as np


# --------------------------------------------------------------------------
# shared precomputation


def csr_adjacency(n_vertices: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """CSR successor lists, successors sorted ascending."""
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    for u, _ in edges:
        indptr[u + 1] += 1
    indptr = np.cumsum(indptr)
    indices = np.empty(len(edges), dtype=np.int32)
    fill = indptr[:-1].copy()
    for u, v in sorted(edges):
        indices[fill[u]] = v
        fill[u] += 1
    return indptr, indices


def _dense_adjacency(indptr, indices) -> np.ndarray:
    V = indptr.shape[0] - 1
    adj = np.zeros((V, V), dtype=bool)
    adj[np.repeat(np.arange(V), np.diff(indptr)), indices] = True
    return adj


def exact_reach(adj_bool: np.ndarray, n: int) -> np.ndarray:
    """reach[k, u, v] == True iff a path of exactly k edges runs u -> v."""
    V = adj_bool.shape[0]
    reach = np.empty((n + 1, V, V), dtype=np.bool_)
    reach[0] = np.eye(V, dtype=np.bool_)
    a = adj_bool.astype(np.int64)
    for k in range(1, n + 1):
        reach[k] = (reach[k - 1].astype(np.int64) @ a) > 0
    return reach


# --------------------------------------------------------------------------
# closed paths (periodic points)


def _closed_walk(indptr, indices, reach, n, prefix, cap):
    """The one walker behind both closed-path kernels.

    Returns ``(start, steps)``.  ``start`` holds the partial paths the walk
    begins from, one per row: the prefix, or every vertex on a closed path of
    length n when the prefix is empty.  ``steps`` yields one ``(parent,
    vertex)`` pair per further depth, in lexicographic order: partial path i
    of the new depth is partial path ``parent[i]`` of the depth before,
    extended by ``vertex[i]``.  It yields ``None`` and stops when a depth has
    more than ``cap`` candidates.  A prefix that cannot close in n steps gives
    an empty ``start`` of width n and no steps.
    """
    adj = _dense_adjacency(indptr, indices)
    prefix, cap = np.array(prefix, dtype=np.int32), int(cap)
    lp = len(prefix)
    if lp == 0:
        start = np.nonzero(reach[n].diagonal())[0].astype(np.int32).reshape(-1, 1)
    elif reach[n - (lp - 1), prefix[-1], prefix[0]]:
        start = prefix.reshape(1, -1)
    else:
        return np.empty((0, n), dtype=np.int32), iter(())

    def steps():
        first, last = start[:, 0], start[:, -1]
        for d in range(start.shape[1], n):
            # candidate successors that can still close the loop in n-d steps
            cand = adj[last] & reach[n - d][:, first].T
            if np.count_nonzero(cand) > cap:
                yield None
                return
            parent, last = np.nonzero(cand)
            last = last.astype(np.int32)
            first = first[parent]
            yield parent, last

    return start, steps()


def closed_paths(indptr, indices, reach, n, prefix, cap):
    """All closed paths of length n whose word starts with ``prefix``.

    Returns ``(paths, overflow)``; rows of ``paths`` are in lexicographic
    order, and ``paths`` is empty on overflow.
    """
    paths, steps = _closed_walk(indptr, indices, reach, n, prefix, cap)
    for step in steps:
        if step is None:
            return np.empty((0, n), dtype=np.int32), True
        parent, vertex = step
        paths = np.concatenate([paths[parent], vertex[:, None]], axis=1)
    return paths, False


def closed_path_count_keys(indptr, indices, reach, n, prefix, cap):
    """Closed paths aggregated by vertex-visit counts.

    Keys pack per-vertex visit counts in 4-bit fields, so this route requires
    ``n_vertices <= 15`` and ``n <= 15``.  Returns ``(keys, multiplicities,
    overflow)`` with keys sorted ascending.
    """
    V = indptr.shape[0] - 1
    if V > 15 or n > 15:
        raise ValueError("count-key packing requires <=15 vertices and n<=15")
    start, steps = _closed_walk(indptr, indices, reach, n, prefix, cap)
    # a vertex is visited at most n <= 15 times, so the 4-bit fields never carry
    one = np.int64(1)
    keys = (one << (4 * start.astype(np.int64))).sum(axis=1)
    for step in steps:
        if step is None:
            return np.empty(0, np.int64), np.empty(0, np.int64), True
        parent, vertex = step
        keys = keys[parent] + (one << (4 * vertex.astype(np.int64)))
    uniq, mult = np.unique(keys, return_counts=True)
    return uniq.astype(np.int64), mult.astype(np.int64), False


def unpack_count_key(key: int, n_vertices: int) -> tuple[int, ...]:
    """Inverse of the 4-bit count packing."""
    return tuple((int(key) >> (4 * v)) & 0xF for v in range(n_vertices))


# --------------------------------------------------------------------------
# first-return paths


def first_return_paths(indptr, indices, allowed, dist_end, v_start, v_end, maxlen, cap):
    """Paths v_start -> v_end of length 1..maxlen with intermediates in ``allowed``.

    ``dist_end[u]`` must lower-bound the number of steps from ``u`` to
    ``v_end`` through allowed vertices (inf when unreachable).  Returns
    ``(flat, lengths, overflow)`` where ``flat`` concatenates the paths
    without their terminal vertex, shortest paths first.
    """
    maxlen, cap = int(maxlen), int(cap)
    adj = _dense_adjacency(indptr, indices)
    flat: list[np.ndarray] = []
    lengths: list[int] = []
    total = 0
    overflow = False
    frontier = np.array([[v_start]], dtype=np.int32)
    for t in range(maxlen):
        last = frontier[:, -1]
        hits = adj[last, v_end]
        for row in frontier[hits]:
            if total == cap:
                overflow = True
                break
            flat.append(row)
            lengths.append(t + 1)
            total += 1
        if overflow or t == maxlen - 1:
            break
        ok = allowed & (dist_end <= maxlen - (t + 1))
        cand = adj[last] & ok[None, :]
        counts = cand.sum(axis=1)
        if int(counts.sum()) > cap:
            overflow = True
            break
        rows = np.repeat(np.arange(frontier.shape[0]), counts)
        cols = np.nonzero(cand)[1].astype(np.int32)
        frontier = np.concatenate([frontier[rows], cols[:, None]], axis=1)
        if frontier.shape[0] == 0:
            break
    data = np.concatenate([r for r in flat]) if flat else np.empty(0, np.int32)
    return data.astype(np.int32), np.asarray(lengths, dtype=np.int64), overflow


# --------------------------------------------------------------------------
# Markov chain stepping


# entries (states x uniforms) of one chunk's next-state table
_CHAIN_TABLE_CELLS = 1 << 20


def step_chain(cum: np.ndarray, start: int, uniforms: np.ndarray) -> np.ndarray:
    """Drive a finite chain with row-cumulative matrix ``cum`` by given uniforms.

    From state ``s`` the chain steps to the first ``j`` with
    ``cum[s, j] > u`` (the last state when there is none).  The uniform
    stream is generated by the caller, so a seeded caller gets a
    byte-identical trajectory.

    The uniforms go in chunks of about 2**20 / S for S states.  Per chunk,
    one ``searchsorted`` per state over the whole chunk fills a flat
    next-state table, and a plain loop walks it.  Memory is O(T + 2**20)
    for T uniforms; work is O(T S log S), so this suits the small chains
    of sampled transport.
    """
    cum = np.ascontiguousarray(cum, dtype=np.float64)
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
    n_states, hi = cum.shape
    T = uniforms.shape[0]
    out = np.empty(T + 1, dtype=np.int32)
    out[0] = start
    cur = int(start)
    chunk = max(1, _CHAIN_TABLE_CELLS // n_states)
    for a in range(0, T, chunk):
        u = uniforms[a:a + chunk]
        n = u.shape[0]
        table = np.empty((n_states, n), dtype=np.int64)
        for s in range(n_states):
            np.minimum(np.searchsorted(cum[s], u, side="right"), hi - 1, out=table[s])
        # table[s, t] sits at s * n + t of the flat list
        flat = table.ravel().tolist()
        steps = [0] * n
        for t in range(n):
            cur = flat[cur * n + t]
            steps[t] = cur
        out[a + 1:a + 1 + n] = steps
    return out
