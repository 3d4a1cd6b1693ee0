"""Hot enumeration and sampling kernels, vectorized with numpy.

All kernels work on CSR adjacency (``indptr``, ``indices`` with successor
lists sorted ascending).  Enumeration extends all partial paths together,
one step at a time, and keeps them in lexicographic order.  Pruning uses exact
k-step path counts (``exact_reach``, nonzero iff a path runs), so no walk
extends a dead branch: ``closed_paths`` does work proportional to the number
of paths it emits, and ``closed_path_count_keys``, which merges equal states,
to the number of distinct states at each depth.  ``reach_within_budget``
builds that table only as far as a budget lets a table of closed paths run.

Closed paths have one walker, ``_closed_walk``, which owns the pruning and
the budget and tracks only each partial path's starting row and last vertex.
It steps on vertex bit masks built once per walk: a successor mask per last
vertex, and a closure mask per depth and starting row, read off ``reach !=
0`` by one cumulative count.  A depth is two 1-D gathers, one AND and one
unpack of the result into a flat bit array whose set bits are the children.
A mask row is V bits rounded up to a power of two bytes, so the masks take
O(n V^2 / 8) bytes, below the reach table's own size.  It walks a window of
closing lengths [n_min, n] at once, because the walks of all those lengths
share their prefixes; its budget is still that of one walk per length, and
``overflowing_lengths`` decides it before the first step from
``closed_path_counts``, the closed-path counts in the same table (all a
caller needs when a path's weight depends only on its length).  Two
accumulators consume its steps, each for every length of the window:
``closed_paths`` keeps only each depth's (parent, vertex) links, 9 bytes
per partial path up to 128 vertices, and writes each path row once at the
end, padded with -1 to the longest length, by following the links back in
blocks of about 16k rows; and
``closed_path_count_keys`` gathers packed visit-count keys and never builds a
row: at each depth with more than 64 states it merges the partial paths with
the same first vertex, last vertex and key into one state with a
multiplicity, and sends the walker back the states to extend.  A key packs
one field per vertex into an int64, each ``count_key_width(V, n)`` = max(4,
n.bit_length()) bits wide, so the keys of a window up to length n need
V * width <= 63: up to n = 15 on 15 vertices, n = 31 on 12, n = 127 on 9.

Path rows hold vertex ids in ``vertex_dtype``, the narrowest signed integer
type for the vertex count (int8 up to 128 vertices).  ``first_return_paths``
extends all partial paths together too, and emits each length's returns as
one block of frontier rows.

Caps are hard limits on emitted paths.  On overflow the kernels return a
flag, and callers turn that into a budget error or a truncation marker.

Chain stepping is one ``bisect_right`` per step on the rows of the
cumulative matrix as Python lists.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np


# --------------------------------------------------------------------------
# shared precomputation


def vertex_dtype(n_vertices: int) -> np.dtype:
    """The narrowest signed integer type that holds -1 and every vertex id below ``n_vertices``.

    int8 up to 128 vertices, int16 up to 32,768, int32 beyond: the type of
    -V holds -1 and V - 1.  Path rows are stored in it; arithmetic on them
    must widen first (int8 times a Python int past 127 raises under NEP 50).
    """
    return np.min_scalar_type(-max(int(n_vertices), 1))


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


# rows of the first reach table that a budget may end early
_REACH_ROWS = 64


def reach_within_budget(adj_bool: np.ndarray, n: int, prefix, n_min: int, cap: int) -> np.ndarray:
    """An :func:`exact_reach` table that stops where the budget ends a table of closed paths.

    It runs to n, or only to the first length m of [n_min, n] whose
    closed-path walk from ``prefix`` exceeds ``cap`` (by
    :func:`overflowing_lengths`), with rows 0..m.  It grows by doubling from
    64 rows.  Counts of closed paths never leave a strongly connected
    component, and on one the saturated reach counts are eventually periodic,
    so once the same-component part of the table repeats with no count of a
    later length over the budget, none ever will: the table is then built
    whole, and a length too large for memory raises MemoryError.
    """
    lp = len(prefix)
    m = min(n, _REACH_ROWS)
    reach = exact_reach(adj_bool, m)
    same = None
    while m < n:
        if m >= n_min and overflowing_lengths(reach, prefix, n_min, m, cap).any():
            return reach
        if same is None:
            V = adj_bool.shape[0]
            linked = (np.eye(V, dtype=np.int64) + adj_bool) > 0
            for _ in range(max(V - 1, 1).bit_length()):
                linked = (linked.astype(np.int64) @ linked) > 0
            same = linked & linked.T
        part = reach * same
        repeats = np.flatnonzero((part[:-1] == part[-1]).all(axis=(1, 2)))
        if len(repeats):
            # rows past m repeat rows [repeats[0], m); the lengths past max(m, n_min - 1) also read rows up to m
            first = max(m + 1, n_min)
            rows = reach[max(min(int(repeats[0]), first - lp + 1 if lp else first), 0):]
            counts = rows[:, prefix[-1], prefix[0]] if lp else np.trace(rows, axis1=1, axis2=2)
            if (counts < min(int(cap) + 1, (2**63 - 1) // max(adj_bool.shape[0], 1))).all():
                return exact_reach(adj_bool, n)
        m = min(2 * m, n)
        reach = exact_reach(adj_bool, m)
    return reach


def _closed_walk(indptr, indices, reach, n_min, n, prefix, cap):
    """The one walker behind both closed-path kernels.

    Walks the closed paths of every length m in the window [n_min, n] whose
    word starts with ``prefix`` (of length at most n_min) together, one
    depth at a time and in lexicographic order.  A partial path survives
    while it can still close at some length of the window.  Yields one
    ``(parent, vertex, root, closed)`` tuple per depth.  The first is the
    start: ``parent`` is None and ``vertex`` holds the starting rows (the
    prefix, or every vertex on a closed path of a length in the window when
    the prefix is empty).  After it, partial path i of the new depth is
    partial path ``parent[i]`` of the depth before, extended by
    ``vertex[i]``, and it descends from starting row ``root[i]``.
    ``closed`` is a boolean mask of the partial paths of the depth that are
    closed paths (a full slice at depth n, where all of them are), or None
    when the depth lies outside the window.  A consumer that merges partial
    paths with the same root and last vertex may send back, for a depth, the
    indices of the ones to keep; the walk then extends only those, and the
    next ``parent`` indexes the kept ones in the order sent.

    Each step works on vertex bit masks built once per walk, each a row of
    ``lanes`` bits, V rounded up to a power of two bytes: the successors of
    each last vertex, and for each depth and starting row the vertices from
    which the row's first vertex is reached in a number of steps that still
    closes a length of the window, read off ``reach != 0`` by one cumulative
    count over the lengths.  A depth gathers the two masks of every partial
    path, ANDs them and unpacks the result into one flat bit array, whose
    set bit ``p * lanes + v`` is the child of partial path p at vertex v.
    The masks take at most (n + 1) V lanes / 8 bytes with lanes <= 2V + 6,
    O(n V^2 / 8) against the reach table's 8 (n + 1) V^2.  The cumulative
    count behind them is an int32 table of at most 2n + 1 rows of V^2, freed
    before the first step.

    The budget is that of one walk per length, decided before any step by
    :func:`overflowing_lengths`: when some length's walk would exceed
    ``cap``, the walker yields ``None`` alone.
    """
    adj = _dense_adjacency(indptr, indices)
    dtype = vertex_dtype(adj.shape[0])
    prefix = np.array(prefix, dtype=dtype)
    lp = len(prefix)
    if not 1 <= n_min <= n or lp > n_min:
        raise ValueError(f"window [{n_min}, {n}] must hold the prefix length {lp} and start at 1 or more")
    if overflowing_lengths(reach, prefix, n_min, n, cap).any():
        yield None
        return
    if lp == 0:
        start = np.nonzero(reach[n_min:n + 1].diagonal(axis1=1, axis2=2).any(axis=0))[0]
        start = start.astype(dtype).reshape(-1, 1)
    else:
        closes = closed_path_counts(reach, prefix, n_min, n).any()
        start = prefix.reshape(1, -1)[:int(closes)]
    V, s0 = adj.shape[0], start.shape[1]
    # a mask row is `size` bytes, one word (8-byte words past 64 vertices): bit v is vertex v
    size = 1 << ((V + 7) // 8 - 1).bit_length()
    lanes, word = 8 * size, np.dtype(f"u{min(size, 8)}")
    shift = lanes.bit_length() - 1

    def masks(rows):
        out = np.zeros(rows.shape[:-1] + (size,), dtype=np.uint8)
        out[..., :(V + 7) // 8] = np.packbits(rows, axis=-1, bitorder="little")
        out = out.view(word)
        return out[..., 0] if size <= 8 else out

    succ = masks(adj)
    # From depth d a candidate closes a length m of the window in k = m - d
    # steps, k in (j - w, j] and k >= 1, with j = n - d and w = n - n_min + 1.
    # ever[w + j] counts the k in 1..j with a path of k steps from u to start
    # row r's first vertex, and its first w + 1 rows are zero, so a window's
    # count is ever[w + j] - ever[j]: near[i] serves depth s0 + i.
    firsts, depths, w = start[:, 0], n - s0, n - n_min + 1
    ever = np.zeros((w + 1 + depths, V, len(start)), dtype=np.int32)
    np.not_equal(reach[1:depths + 1, :, firsts], 0, out=ever[w + 1:])
    np.cumsum(ever, axis=0, out=ever)
    near = masks((ever[w + 1:] > ever[1:depths + 1]).transpose(0, 2, 1)[::-1])
    del ever
    closing = adj[:, firsts].T.ravel()  # closing[r * V + v]: v steps to row r's first vertex
    root, last = np.arange(len(start)), start[:, -1]

    def closed(d, root, last):
        # every partial path of the last depth closes
        if d < n_min:
            return None
        return closing[root * V + last] if d < n else slice(None)

    keep = yield None, start, root, closed(s0, root, last)
    for d in range(s0, n):
        if keep is not None:
            root, last = root[keep], last[keep]
        bits = np.unpackbits((succ[last] & near[d - s0][root]).view(np.uint8), bitorder="little")
        hit = bits.view(bool).nonzero()[0]
        parent, last = hit >> shift, hit & (lanes - 1)
        del bits, hit  # a suspended generator keeps its locals alive
        root = root[parent]
        keep = yield parent, last, root, closed(d + 1, root, last)


# result rows assembled at a time by ``closed_paths``
_ASSEMBLY_ROWS = 1 << 14


def closed_paths(indptr, indices, reach, n, prefix, cap, *, n_min=None):
    """All closed paths of every length in [n_min, n] whose word starts with ``prefix``.

    ``n_min`` defaults to n.  Returns ``(paths, overflow)``.  ``paths`` is a
    C-ordered array in :func:`vertex_dtype` of the vertex count, with one
    row per path and n columns; a path of length m fills the first m and
    holds -1 past them.  Rows run by length, shortest first, and
    lexicographically within a length: exactly the concatenation of one call
    per length, each padded to n columns.  ``overflow`` is set when any
    length's walk has more than ``cap`` candidates at one depth, and
    ``paths`` is then empty.

    No partial path is copied.  The walk keeps each depth's ``(parent,
    vertex)`` links, an int64 parent index (numpy gathers by intp) and a
    vertex in the rows' type per partial path, so memory is about the result
    plus 9 bytes per partial path up to 128 vertices, and each result row is
    written once.  The rows go in blocks of about 16k.  A block walks back
    once from depth n: its rows of length m join at depth m, and each
    depth's gather of links fills one column of a small column-major block,
    which is then copied into the block's rows.  Within one length the rows
    are in lexicographic order, so their ancestors at each depth are sorted;
    once a block's are all one partial path, its remaining columns are that
    path's letters.
    """
    dtype = vertex_dtype(indptr.shape[0] - 1)
    start, links, closing = None, [], []  # closing: (length, indices of the closing paths or None for all, count)
    for step in _closed_walk(indptr, indices, reach, n if n_min is None else n_min, n, prefix, cap):
        if step is None:
            return np.empty((0, n), dtype=dtype), True
        parent, vertex, _, closed = step
        if parent is None:
            start = vertex
        else:
            links.append((parent, vertex.astype(dtype)))
        if closed is not None:
            ids = None if isinstance(closed, slice) else closed.nonzero()[0]
            closing.append((start.shape[1] + len(links), ids, len(vertex) if ids is None else len(ids)))
    s0 = start.shape[1]  # column d >= s0 is links[d - s0]'s vertex, the columns before it the start row's
    ends = np.cumsum([count for _, _, count in closing]).tolist()
    out = np.empty((ends[-1], n), dtype=dtype)
    size = max(min(_ASSEMBLY_ROWS, ends[-1]), 1)
    buffer = np.empty(n * size, dtype=dtype)
    for a in range(0, ends[-1], size):
        b = min(a + size, ends[-1])
        block = buffer[:n * (b - a)].reshape(n, b - a)
        # the lengths in the block with their first row, and the indices of their rows at their depth
        parts, joins = [], {}
        for (m, ids, count), end in zip(closing, ends):
            lo, hi = max(a, end - count), min(b, end)
            if lo < hi:
                parts.append((m, lo - a))
                lo, hi = lo - end + count, hi - end + count
                joins[m] = np.arange(lo, hi) if ids is None else ids[lo:hi]
        at, d = np.empty(0, np.int64), n
        while True:
            if d in joins:
                at = np.concatenate([joins[d], at])
            if d == s0 or (len(parts) == 1 and len(at) and at[0] == at[-1]):
                break
            d -= 1
            parent, vertex = links[d - s0]
            block[d, b - a - len(at):] = vertex[at]
            at = parent[at]
        if d > s0:  # every row of the block shares its first d letters: follow that one path back
            at = int(at[0])
            for d in range(d - 1, s0 - 1, -1):
                parent, vertex = links[d - s0]
                block[d] = vertex[at]
                at = parent[at]
        out[a:b, :s0] = start[at]
        for k, (m, first) in enumerate(parts):
            last = parts[k + 1][1] if k + 1 < len(parts) else b - a
            out[a + first:a + last, s0:m] = block[s0:m, first:last].T
            out[a + first:a + last, m:] = -1
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


def _runs(values: np.ndarray) -> np.ndarray:
    """Start indices of the runs of equal entries in sorted ``values``."""
    change = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return change.nonzero()[0]


# the most states a depth of the count-key walk extends unmerged
_MERGE_STATES = 64


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

    No path is kept: at each depth of more than 64 states the partial paths
    with the same first vertex, last vertex and key merge into one state
    with a multiplicity (they close the same ways), so the work grows with
    the number of such states, not of paths, and one sort groups the closing
    states of the whole window.  A smaller depth is extended unmerged: the
    size rule reads the state count the walk holds, because a merge's ten or
    so numpy calls cost more than extending a few dozen duplicates saves
    (the walks of short exact tables hold 10-190 states a depth and merge
    away little).  The multiplicities are int64, so a window of 2^63 or more
    closed paths raises ValueError.
    """
    V = indptr.shape[0] - 1
    width = count_key_width(V, n)
    bits = np.int64(1) << (width * np.arange(V, dtype=np.int64))
    # A depth's keys all sum to the depth, so their low V - 1 fields tell them
    # apart; ends[root V + last] puts that index (below V V <= 15 * 15) in
    # the 8 bits above those fields of a uint64 (V w <= 63 with w >= 4 gives
    # (V - 1) w <= 56).  A walk has at most V starting rows.
    low = np.int64(2 ** ((V - 1) * width) - 1)
    ends = np.arange(V * V, dtype=np.uint64) << np.uint64((V - 1) * width)
    n_min = n if n_min is None else n_min
    walk = _closed_walk(indptr, indices, reach, n_min, n, prefix, cap)
    step = next(walk)
    if step is None:
        return np.empty(0, np.int64), np.empty(0, np.int64), True
    # a partial path extends to a closed path of the window, a distinct one for each
    if sum(closed_path_counts(reach, prefix, n_min, n).tolist()) >= 2**63:
        raise ValueError(f"2^63 or more closed paths of lengths [{n_min}, {n}]; multiplicities are int64")
    found = []  # (length, keys, multiplicities) of the closing states; the last depth is in the window
    while True:
        parent, vertex, root, closed = step
        keep = None
        if parent is None:
            keys, mult, depth = bits[vertex].sum(axis=1), np.ones(len(vertex), np.int64), vertex.shape[1]
        else:
            keys, mult, depth = keys[parent] + bits[vertex], mult[parent], depth + 1
            if depth < n and len(keys) > _MERGE_STATES:
                # merge the runs of equal (root, last, key) in one sort
                state = (keys & low).view(np.uint64) | ends[root * V + vertex]
                order = np.argsort(state)
                starts = _runs(state[order])
                keep = order[starts]
                keys, mult = keys[keep], np.add.reduceat(mult[order], starts)
                closed = None if closed is None else closed[keep]
        if closed is not None:
            found.append((depth, keys[closed], mult[closed]))
        try:
            step = walk.send(keep)
        except StopIteration:
            break
    lengths, keys, mult = zip(*found)
    lengths = np.repeat(lengths, [len(k) for k in keys])
    keys, mult = np.concatenate(keys), np.concatenate(mult)
    order = np.lexsort((keys, lengths))
    keys = keys[order]
    starts = _runs(keys)  # equal keys have equal lengths
    return keys[starts], np.add.reduceat(mult[order], starts), False


# --------------------------------------------------------------------------
# first-return paths


def first_return_paths(indptr, indices, allowed, dist_end, v_start, v_end, maxlen, cap):
    """Paths v_start -> v_end of length 1..maxlen with intermediates in ``allowed``.

    ``dist_end[u]`` must lower-bound the number of steps from ``u`` to
    ``v_end`` through allowed vertices (inf when unreachable).  Returns
    ``(flat, lengths, overflow)`` where ``flat`` concatenates the paths
    without their terminal vertex, shortest paths first and lexicographically
    within a length, in :func:`vertex_dtype` of the vertex count, and
    ``lengths`` (int64) holds each path's length.  The paths of one length
    are one block of frontier rows.  ``overflow`` is set when there are more
    than ``cap`` paths, which keeps the first ``cap``, or when a frontier
    would hold more than ``cap`` partial paths, which keeps the paths found
    before it.
    """
    maxlen, cap = int(maxlen), int(cap)
    adj = _dense_adjacency(indptr, indices)
    dtype = vertex_dtype(adj.shape[0])
    blocks, counts = [], []  # the closing rows of each length 1, 2, ..., raveled
    total, overflow = 0, False
    frontier = np.array([[v_start]], dtype=dtype)
    for t in range(maxlen):
        last = frontier[:, -1]
        rows = frontier[adj[last, v_end]]
        if total + len(rows) > cap:
            rows, overflow = rows[:cap - total], True
        blocks.append(rows.ravel())
        counts.append(len(rows))
        total += len(rows)
        if overflow or t == maxlen - 1:
            break
        ok = allowed & (dist_end <= maxlen - (t + 1))
        cand = adj[last] & ok[None, :]
        if int(cand.sum()) > cap:
            overflow = True
            break
        parents, cols = np.nonzero(cand)
        frontier = np.concatenate([frontier[parents], cols.astype(dtype)[:, None]], axis=1)
        if frontier.shape[0] == 0:
            break
    lengths = np.repeat(np.arange(1, len(counts) + 1, dtype=np.int64), counts)
    return (np.concatenate(blocks) if blocks else np.empty(0, dtype)), lengths, overflow


# --------------------------------------------------------------------------
# Markov chain stepping


def step_chain(cum: np.ndarray, start: int, uniforms: np.ndarray) -> np.ndarray:
    """Drive a finite chain with row-cumulative matrix ``cum`` by given uniforms.

    From state ``s`` the chain steps to the first ``j`` with
    ``cum[s, j] > u`` (the last state when there is none).  The uniform
    stream is generated by the caller, so a seeded caller gets a
    byte-identical trajectory.  One ``bisect_right`` per step, O(T log S)
    for T uniforms and S states; the result is int32 of length T + 1.
    """
    # the last column is never compared: a uniform at or past every other
    # entry of the row steps to the last state
    rows = np.asarray(cum, dtype=np.float64)[:, :-1].tolist()
    cur = int(start)
    out = [cur]
    # a memoryview yields Python floats one at a time, with no list of T floats
    for u in memoryview(np.ascontiguousarray(uniforms, dtype=np.float64)):
        cur = bisect_right(rows[cur], u)
        out.append(cur)
    return np.array(out, dtype=np.int32)
