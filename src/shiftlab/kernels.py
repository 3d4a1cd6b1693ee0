"""Hot enumeration and sampling kernels, vectorized with numpy.

All kernels work on CSR adjacency (``indptr``, ``indices`` with successor
lists sorted ascending).  Enumeration extends all partial paths together,
one step at a time, and keeps them in lexicographic order.  Pruning uses exact
k-step reachability tables, so the work done is proportional to the number
of emitted paths, not to the number of dead branches.

Caps are hard limits on emitted paths.  On overflow the kernels return a
flag, and callers turn that into a budget error or a truncation marker.
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


def _closed_path_rows(indptr, indices, reach, n, prefix, cap):
    # shared by both public routes, so a count-key call never passes
    # through the public ``closed_paths`` name
    adj = _dense_adjacency(indptr, indices)
    lp = len(prefix)
    if lp == 0:
        starts = np.nonzero(reach[n].diagonal())[0]
        paths = starts.reshape(-1, 1).astype(np.int32)
        lp = 1
    else:
        if not reach[n - (lp - 1), prefix[-1], prefix[0]]:
            return np.empty((0, n), dtype=np.int32), False
        paths = np.array([prefix], dtype=np.int32)
    for d in range(lp, n):
        last = paths[:, -1]
        # candidate successors that can still close the loop in n-d steps
        cand = adj[last] & reach[n - d][:, paths[:, 0]].T
        counts = cand.sum(axis=1)
        if int(counts.sum()) > cap:
            # budget exceeded; callers discard partial data on overflow
            return np.empty((0, n), dtype=np.int32), True
        rows = np.repeat(np.arange(paths.shape[0]), counts)
        cols = np.nonzero(cand)[1].astype(np.int32)
        paths = np.concatenate([paths[rows], cols[:, None]], axis=1)
    return paths, False


def closed_paths(indptr, indices, reach, n, prefix, cap):
    """All closed paths of length n whose word starts with ``prefix``.

    Returns ``(paths, overflow)``; rows of ``paths`` are in lexicographic
    order, and ``paths`` is empty on overflow.
    """
    prefix = np.asarray(prefix, dtype=np.int32)
    return _closed_path_rows(indptr, indices, reach, n, prefix, int(cap))


def closed_path_count_keys(indptr, indices, reach, n, prefix, cap):
    """Closed paths aggregated by vertex-visit counts.

    Keys pack per-vertex visit counts in 4-bit fields, so this route requires
    ``n_vertices <= 15`` and ``n <= 15``.  Returns ``(keys, multiplicities,
    overflow)`` with keys sorted ascending.
    """
    V = indptr.shape[0] - 1
    if V > 15 or n > 15:
        raise ValueError("count-key packing requires <=15 vertices and n<=15")
    prefix = np.asarray(prefix, dtype=np.int32)
    paths, overflow = _closed_path_rows(indptr, indices, reach, n, prefix, int(cap))
    if paths.shape[0] == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), overflow
    # a vertex is visited at most n <= 15 times, so the 4-bit fields never carry
    keys = (np.int64(1) << (4 * paths.astype(np.int64))).sum(axis=1)
    uniq, mult = np.unique(keys, return_counts=True)
    return uniq.astype(np.int64), mult.astype(np.int64), overflow


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


def step_chain(cum: np.ndarray, start: int, uniforms: np.ndarray) -> np.ndarray:
    """Drive a finite chain with row-cumulative matrix ``cum`` by given uniforms.

    From state ``s`` the chain steps to the first ``j`` with
    ``cum[s, j] > u`` (the last state when there is none).  The uniform
    stream is generated by the caller, so a seeded caller gets a
    byte-identical trajectory.
    """
    cum = np.ascontiguousarray(cum, dtype=np.float64)
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
    T = uniforms.shape[0]
    out = np.empty(T + 1, dtype=np.int32)
    out[0] = start
    cur = int(start)
    hi = cum.shape[1]
    for t in range(T):
        idx = int(np.searchsorted(cum[cur], uniforms[t], side="right"))
        cur = idx if idx < hi else hi - 1
        out[t + 1] = cur
    return out
