"""Hot enumeration and sampling kernels, vectorized with numpy.

All kernels work on CSR adjacency (``indptr``, ``indices`` with successor
lists sorted ascending).  Enumeration extends all partial paths together,
one step at a time, and keeps them in lexicographic order.  Pruning uses exact
k-step path counts (``exact_reach``, nonzero iff a path runs), so the work
done is proportional to the number of emitted paths, not to the number of
dead branches.

Closed paths have one walker, ``_closed_walk``, which owns the pruning and
the budget and tracks only each partial path's first and last vertex.  It
walks a window of closing lengths [n_min, n] at once, because the walks of
all those lengths share their prefixes; its budget is still that of one walk
per length, and ``overflowing_lengths`` decides it before the first step
from ``closed_path_counts``, the closed-path counts in the same table (all a
caller needs when a path's weight depends only on its length).  Two
accumulators consume its steps, each for every length of the window:
``closed_paths`` gathers the path rows, padded with -1 to the longest
length, and ``closed_path_count_keys`` gathers packed visit-count keys and
never builds a row.  A key packs one field per vertex into an int64, each
``count_key_width(V, n)`` = max(4, n.bit_length()) bits wide, so the keys of
a window up to length n need V * width <= 63: up to n = 15 on 15 vertices,
n = 31 on 12, n = 127 on 9.

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
    """reach[k, u, v]: the number of paths of exactly k edges u -> v.

    Nonzero iff such a path runs.  The counts saturate at (2^63 - 1) // V,
    so a product of a count row and A stays within int64; a saturated count
    is at least that bound.
    """
    V = adj_bool.shape[0]
    sat = (2**63 - 1) // max(V, 1)
    reach = np.empty((n + 1, V, V), dtype=np.int64)
    reach[0] = np.eye(V, dtype=np.int64)
    a = adj_bool.astype(np.int64)
    for k in range(1, n + 1):
        # entries below sat are exact: a saturated one times an edge stays >= sat
        np.minimum(reach[k - 1] @ a, sat, out=reach[k])
    return reach


# --------------------------------------------------------------------------
# closed paths (periodic points)


def closed_path_counts(reach: np.ndarray, prefix, n_min: int, n: int) -> np.ndarray:
    """``counts[m - n_min]``: the number of closed paths of length m whose word starts with ``prefix``.

    For every m in [n_min, n], with n_min at least the prefix length, read
    off an :func:`exact_reach` table: the trace of reach[m], or reach[m - len
    + 1] at (prefix[-1], prefix[0]).  A count below the table's saturation
    bound (2^63 - 1) // V is exact; one at or above it is at least that
    bound.
    """
    lp = len(prefix)
    if lp:
        return reach[n_min - lp + 1:n - lp + 2, prefix[-1], prefix[0]]
    return np.trace(reach[n_min:n + 1], axis1=1, axis2=2)


def overflowing_lengths(reach: np.ndarray, prefix, n_min: int, n: int, cap: int) -> np.ndarray:
    """``over[m - n_min]``: does the closed-path walk of length m from ``prefix`` exceed ``cap``?

    The walk of length m steps from depth max(len(prefix), 1) to m - 1, and
    each candidate of a depth extends to a distinct closed path of length m,
    so its last depth holds the most candidates: every closed path of length
    m whose word starts with ``prefix``.  It overflows iff there are more
    than ``cap`` of those, as :func:`closed_path_counts` gives them; a walk
    that takes no step never does.  A cap at or beyond the table's
    saturation bound reads as that bound.
    """
    V = reach.shape[1]
    over = closed_path_counts(reach, prefix, n_min, n) >= min(int(cap) + 1, (2**63 - 1) // max(V, 1))
    if n_min == max(len(prefix), 1):
        over[0] = False  # that walk takes no step
    return over


def _closed_walk(indptr, indices, reach, n_min, n, prefix, cap):
    """The one walker behind both closed-path kernels.

    Walks the closed paths of every length m in the window [n_min, n] whose
    word starts with ``prefix`` (of length at most n_min) together, one
    depth at a time and in lexicographic order.  A partial path survives
    while it can still close at some length of the window.  Yields one
    ``(parent, vertex, closed)`` triple per depth.  The first is the start:
    ``parent`` is None and ``vertex`` holds the starting rows (the prefix, or
    every vertex on a closed path of a length in the window when the prefix
    is empty).  After it, partial path i of the new depth is partial path
    ``parent[i]`` of the depth before, extended by ``vertex[i]``.
    ``closed`` indexes the partial paths of the depth that are closed paths
    (a full slice at depth n, where all of them are), or is None when the
    depth lies outside the window.

    The budget is that of one walk per length, decided before any step by
    :func:`overflowing_lengths`: when some length's walk would exceed
    ``cap``, the walker yields ``None`` alone.
    """
    adj = _dense_adjacency(indptr, indices)
    prefix = np.array(prefix, dtype=np.int32)
    lp = len(prefix)
    if not 1 <= n_min <= n or lp > n_min:
        raise ValueError(f"window [{n_min}, {n}] must hold the prefix length {lp} and start at 1 or more")
    if overflowing_lengths(reach, prefix, n_min, n, cap).any():
        yield None
        return
    if lp == 0:
        start = np.nonzero(reach[n_min:n + 1].diagonal(axis1=1, axis2=2).any(axis=0))[0]
        start = start.astype(np.int32).reshape(-1, 1)
    else:
        closes = closed_path_counts(reach, prefix, n_min, n).any()
        start = prefix.reshape(1, -1)[:int(closes)]
    first, last = start[:, 0], start[:, -1]

    def closed(d):
        # every partial path of the last depth closes
        if d < n_min:
            return None
        return adj[last, first] if d < n else slice(None)

    yield None, start, closed(start.shape[1])
    for d in range(start.shape[1], n):
        # a candidate closes at length m in m - d steps, m in [n_min, n] and m > d
        cand = adj[last] & reach[max(n_min - d, 1):n - d + 1].any(axis=0)[:, first].T
        parent, last = np.nonzero(cand)
        last = last.astype(np.int32)
        first = first[parent]
        yield parent, last, closed(d + 1)


def closed_paths(indptr, indices, reach, n, prefix, cap, *, n_min=None):
    """All closed paths of every length in [n_min, n] whose word starts with ``prefix``.

    ``n_min`` defaults to n.  Returns ``(paths, overflow)``.  ``paths`` has
    one row per path and n columns; a path of length m fills the first m and
    holds -1 past them.  Rows run by length, shortest first, and
    lexicographically within a length: exactly the concatenation of one call
    per length, each padded to n columns.  ``overflow`` is set when any
    length's walk has more than ``cap`` candidates at one depth, and
    ``paths`` is then empty.
    """
    found = []  # the walk's last depth is always in the window
    for step in _closed_walk(indptr, indices, reach, n if n_min is None else n_min, n, prefix, cap):
        if step is None:
            return np.empty((0, n), dtype=np.int32), True
        parent, vertex, closed = step
        paths = vertex if parent is None else np.concatenate([paths[parent], vertex[:, None]], axis=1)
        if closed is not None:
            found.append(paths[closed])
    if len(found) == 1:  # one length: the walk's own rows, not a copy
        return found[0], False
    out = np.full((sum(len(rows) for rows in found), n), -1, dtype=np.int32)
    i = 0
    for rows in found:
        out[i:i + len(rows), :rows.shape[1]] = rows
        i += len(rows)
    return out, False


def count_key_width(n_vertices: int, n: int) -> int:
    """Bits per vertex field of the count keys of closed paths up to length n.

    max(4, n.bit_length()): a vertex is visited at most n times, so a field
    never carries, and windows up to length 15 keep 4-bit fields.  Raises
    ValueError when the ``n_vertices`` fields do not fit in 63 bits.
    """
    width = max(4, int(n).bit_length())
    if n_vertices * width > 63:
        raise ValueError(f"count keys up to length {n} need {width}-bit fields; "
                         f"{n_vertices} of them exceed 63 bits")
    return width


def max_count_key_length(n_vertices: int) -> int:
    """The longest closed path whose count key fits on ``n_vertices`` vertices (0 past 15 vertices)."""
    width = 63 // max(n_vertices, 1)
    return 2**width - 1 if width >= 4 else 0


def closed_path_count_keys(indptr, indices, reach, n, prefix, cap, *, n_min=None):
    """Closed paths of every length in [n_min, n] aggregated by vertex-visit counts.

    ``n_min`` defaults to n.  A key packs the visit count of vertex v into
    bits [v w, (v + 1) w), with w = :func:`count_key_width` of the vertex
    count and n (ValueError when they do not fit).  A key's fields sum to
    its path's length, so keys of different lengths never collide.  Returns
    ``(keys, multiplicities, overflow)``: the keys of each length in
    ascending order, shortest length first, exactly the concatenation of one
    call per length when every length packs at the same width (as all up to
    15 do).  ``overflow`` is set when any length's walk has more than ``cap``
    candidates at one depth, and the arrays are then empty.
    """
    width = count_key_width(indptr.shape[0] - 1, n)
    one = np.int64(1)
    found_keys, found_mult = [], []  # the walk's last depth is always in the window
    for step in _closed_walk(indptr, indices, reach, n if n_min is None else n_min, n, prefix, cap):
        if step is None:
            return np.empty(0, np.int64), np.empty(0, np.int64), True
        parent, vertex, closed = step
        bits = one << (width * vertex.astype(np.int64))
        keys = bits.sum(axis=1) if parent is None else keys[parent] + bits
        if closed is not None:
            uniq, mult = np.unique(keys[closed], return_counts=True)
            found_keys.append(uniq.astype(np.int64))
            found_mult.append(mult.astype(np.int64))
    return np.concatenate(found_keys), np.concatenate(found_mult), False


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
