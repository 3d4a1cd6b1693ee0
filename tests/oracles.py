"""Independent oracles the tests check library results against.

Nothing here shares algorithms with the library: periodic points and first
returns are counted by integer matrix powers or raw product filtering,
weighted sums by matrix powers over a packed-exponent semiring or in
60-digit decimal arithmetic, series by closed-form expansions, chains by
scalar comparisons, and strongly connected components by a transitive
closure.
"""
from __future__ import annotations

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from shiftlab.expsum import ExpSum


def integer_trace(adj: np.ndarray, n: int) -> int:
    """Number of closed paths of length n: trace of the n-th adjacency power."""
    m = adj.astype(object)
    out = np.linalg.matrix_power(m, n)
    return int(np.trace(out))


def brute_force_periodic(edges: set[tuple[int, int]], n_vertices: int, n: int, prefix=()):
    """All closed n-paths by filtering the full product space (tiny n only)."""
    out = []
    for cand in itertools.product(range(n_vertices), repeat=n):
        if any((cand[i], cand[(i + 1) % n]) not in edges for i in range(n)):
            continue
        if cand[: len(prefix)] != tuple(prefix):
            continue
        out.append(cand)
    return sorted(out)


def brute_force_first_returns(edges: set[tuple[int, int]], allowed, v_start: int, v_end: int, maxlen: int):
    """Paths v_start -> v_end of 1..maxlen steps through allowed vertices only.

    Each path is the word it visits before reaching ``v_end``; the list is
    ordered by length, then lexicographically.  Filters the full product of
    allowed vertices at every length (tiny graphs only).
    """
    middle = [v for v, ok in enumerate(allowed) if ok]
    out = []
    for k in range(1, maxlen + 1):
        for rest in itertools.product(middle, repeat=k - 1):
            word = (v_start, *rest)
            if all((word[i], word[i + 1]) in edges for i in range(k - 1)) and (word[-1], v_end) in edges:
                out.append(word)
    return out


def scalar_chain(cum, start: int, uniforms) -> list[int]:
    """Chain trajectory one scalar comparison at a time.

    From state s the next state is the first j with cum[s, j] > u, or the
    last state when there is none.
    """
    out = [int(start)]
    for u in uniforms:
        row = cum[out[-1]]
        out.append(next((j for j in range(len(row)) if row[j] > u), len(row) - 1))
    return out


def warshall_components(n_vertices: int, edges) -> list[tuple[int, ...]]:
    """Strongly connected components from the reflexive transitive closure.

    u and v share a component iff each reaches the other (Warshall, J. ACM 9,
    1962).  Components are ascending tuples sorted by their smallest vertex.
    """
    reach = [[u == v for v in range(n_vertices)] for u in range(n_vertices)]
    for u, v in edges:
        reach[u][v] = True
    for k in range(n_vertices):
        for i in range(n_vertices):
            if reach[i][k]:
                for j in range(n_vertices):
                    reach[i][j] = reach[i][j] or reach[k][j]
    comps = {tuple(v for v in range(n_vertices) if reach[u][v] and reach[v][u]) for u in range(n_vertices)}
    return sorted(comps)


def weighted_trace_expsum(adj: np.ndarray, values: list[Fraction], n: int) -> ExpSum:
    """Trace of the n-th power of M[u,v] = A[u,v] exp(values[u]), exactly.

    Matrix powers over the semiring of formal exp sums; exponents are packed
    as 4-bit per-vertex visit counts (so V <= 15 and n <= 15).
    """
    V = adj.shape[0]
    assert V <= 15 and n <= 15
    shifts = [np.int64(1) << np.int64(4 * v) for v in range(V)]
    # entry (u, v): keys array of packed counts, mult array
    cur: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for u in range(V):
        for v in range(V):
            if adj[u, v]:
                cur[(u, v)] = (np.array([shifts[u]], dtype=np.int64), np.array([1], dtype=np.int64))
    for _ in range(n - 1):
        nxt: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for u in range(V):
            for v in range(V):
                key_parts = []
                mult_parts = []
                for w in range(V):
                    if (u, w) in cur and adj[w, v]:
                        ks, ms = cur[(u, w)]
                        key_parts.append(ks + shifts[w])
                        mult_parts.append(ms)
                if not key_parts:
                    continue
                keys = np.concatenate(key_parts)
                mults = np.concatenate(mult_parts)
                uniq, inv = np.unique(keys, return_inverse=True)
                summed = np.zeros(len(uniq), dtype=np.int64)
                np.add.at(summed, inv, mults)
                nxt[(u, v)] = (uniq, summed)
        cur = nxt
    acc = ExpSum()
    for u in range(V):
        if (u, u) not in cur:
            continue
        keys, mults = cur[(u, u)]
        for k, m in zip(keys, mults):
            counts = [(int(k) >> (4 * v)) & 0xF for v in range(V)]
            exponent = sum(c * values[v] for v, c in enumerate(counts))
            acc.add_term(exponent, int(m))
    return acc


def decimal_weighted_traces(graph, table: dict, n_max: int) -> list[Decimal]:
    """Z_1 .. Z_n_max of a span-s word table, to 60 significant digits.

    Traces of the powers of the s-block matrix with ``B[w, w[1:] + (v,)] =
    exp(table[w])`` for each edge ``w[-1] -> v``.  Float table values
    convert to Decimal exactly, so the only rounding is at the 60th digit.
    """
    blocks = sorted(table)
    index = {w: i for i, w in enumerate(blocks)}
    with localcontext() as ctx:
        ctx.prec = 60
        weight = [Decimal(table[w]).exp() for w in blocks]
        succ = [[index[w[1:] + (v,)] for v in range(graph.n_vertices) if graph.has_edge(w[-1], v)]
                for w in blocks]
        power = [[Decimal(int(i == j)) for j in range(len(blocks))] for i in range(len(blocks))]
        out = []
        for _ in range(n_max):
            nxt = [[Decimal(0)] * len(blocks) for _ in blocks]
            for i, row in enumerate(power):
                for k, x in enumerate(row):
                    if x:
                        for j in succ[k]:
                            nxt[i][j] += x * weight[k]
            power = nxt
            out.append(sum(power[i][i] for i in range(len(blocks))))
    return out


def geometric_series_coeffs(a: Fraction, order: int) -> list[Fraction]:
    """Coefficients of 1 / (1 - a t)."""
    return [a**k for k in range(order + 1)]


def rational_series_coeffs(denominator: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients of 1 / (d0 + d1 t + d2 t^2 + ...), d0 = 1."""
    assert denominator[0] == 1
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, min(k, len(denominator) - 1) + 1):
            acc += denominator[j] * coeffs[k - j]
        coeffs.append(-acc)
    return coeffs


def lucas_numbers(count: int) -> list[int]:
    out = [1, 3]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def random_irreducible_graph(rng: np.random.Generator, max_vertices: int = 8):
    """Seeded random graph: a permutation cycle plus extra edges (irreducible)."""
    V = int(rng.integers(3, max_vertices + 1))
    perm = rng.permutation(V)
    edges = {(int(perm[i]), int(perm[(i + 1) % V])) for i in range(V)}
    for u in range(V):
        for v in range(V):
            if rng.random() < 0.22:
                edges.add((u, v))
    return [str(i) for i in range(V)], sorted(edges)


def random_rational_values(rng: np.random.Generator, count: int) -> list[Fraction]:
    return [
        Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 8)))
        for _ in range(count)
    ]
