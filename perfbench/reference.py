"""Reference values the benchmark checks shiftlab's outputs against.

Nothing here calls shiftlab or shares its algorithms.  Periodic points are
counted by exact integer matrix powers on a higher-block state space,
weighted sums by extended-precision matrix powers, Perron roots by LAPACK
eigenvalues, zeta coefficients from det(I - zA) by exact elimination, and
first returns by powers of the off-core block matrix.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# The float Z_n check compares against a sum whose own rounding must sit far
# below the error shiftlab reports (a few double-precision ulps).
_LONG_EPS = float(np.finfo(np.longdouble).eps)
if _LONG_EPS > 1e-18:
    raise RuntimeError(f"numpy longdouble has eps {_LONG_EPS:g}; the float Z_n reference needs extended precision")


def adjacency(n_vertices: int, edges) -> np.ndarray:
    a = np.zeros((n_vertices, n_vertices), dtype=np.int64)
    for u, v in edges:
        a[u, v] = 1
    return a


def block_words(adj: np.ndarray, length: int) -> list[tuple[int, ...]]:
    """Admissible words of the given length, by breadth-first extension."""
    words = [(v,) for v in range(adj.shape[0])]
    for _ in range(length - 1):
        words = [w + (int(b),) for w in words for b in np.nonzero(adj[w[-1]])[0]]
    return words


class BlockChain:
    """The L-block presentation with a vertex weight read off each block.

    States are admissible L-words; ``u -> u[1:] + (a,)`` whenever that word
    is admissible.  Periodic points of period n correspond one-to-one to
    closed walks of length n here, for every L, and a point starts with W
    when its time-0 block does (L >= |W|).
    """

    def __init__(self, adj: np.ndarray, length: int):
        self.length = length
        self.states = block_words(adj, length)
        index = {w: i for i, w in enumerate(self.states)}
        S = len(self.states)
        self.adj = np.zeros((S, S), dtype=np.int64)
        for i, w in enumerate(self.states):
            for b in np.nonzero(adj[w[-1]])[0]:
                self.adj[i, index[w[1:] + (int(b),)]] = 1

    def weights(self, table: dict, span: int) -> list:
        """Per-state weight: the potential on the state's first ``span`` letters."""
        return [table[w[:span]] for w in self.states]

    def start_mask(self, W) -> np.ndarray:
        W = tuple(W)
        return np.array([w[: len(W)] == W for w in self.states], dtype=bool)


def chain_for(adj: np.ndarray, span: int, W=()) -> BlockChain:
    return BlockChain(adj, max(1, span, len(W)))


def periodic_counts(chain: BlockChain, W, n_max: int) -> list[int]:
    """Exact number of n-periodic points starting with W, n = 1..n_max."""
    mask = chain.start_mask(W)
    a = chain.adj.astype(object)
    p = np.identity(a.shape[0], dtype=object)
    out = []
    for _ in range(n_max):
        p = p.dot(a)
        out.append(int(sum(p[i, i] for i in np.nonzero(mask)[0])))
    return out


def weighted_sums(chain: BlockChain, weights, W, n_max: int) -> list[float]:
    """sum over n-periodic points starting with W of exp(S_n f), n = 1..n_max.

    Weights are turned into exp factors and multiplied in extended precision,
    so the result's relative error is a few 1e-19 per factor.
    """
    mask = chain.start_mask(W)
    w = np.array([float(x) for x in weights], dtype=np.longdouble)
    m = chain.adj.astype(np.longdouble) * np.exp(w)[:, None]
    p = np.identity(m.shape[0], dtype=np.longdouble)
    out = []
    for _ in range(n_max):
        p = p @ m
        out.append(float(np.diagonal(p)[mask].sum()))
    return out


def log_perron_root(chain: BlockChain, weights) -> float:
    """log of the spectral radius of the weighted block matrix (LAPACK)."""
    w = np.array([float(x) for x in weights], dtype=np.float64)
    m = chain.adj.astype(np.float64) * np.exp(w)[:, None]
    return math.log(float(np.max(np.abs(np.linalg.eigvals(m)))))


def period(adj: np.ndarray) -> int:
    """gcd of the closed-walk lengths up to V, which is the gcd of all cycles."""
    V = adj.shape[0]
    reach = np.identity(V, dtype=bool)
    g = 0
    for n in range(1, V + 1):
        reach = (reach.astype(np.int64) @ adj) > 0
        if reach.diagonal().any():
            g = math.gcd(g, n)
    return g


def _det(rows: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] / m[c][c]
            if factor:
                for k in range(c, n):
                    m[r][k] -= factor * m[c][k]
    return det


def zeta_coefficients(adj: np.ndarray, order: int) -> list[Fraction]:
    """Taylor coefficients of 1/det(I - zA) up to z**order, exactly.

    det(I - zA) has degree <= V; it is evaluated at z = 0..V by exact
    elimination and interpolated, then inverted as a power series.
    """
    V = adj.shape[0]
    xs = list(range(V + 1))
    ys = [
        _det([[Fraction(int(i == j)) - z * int(adj[i, j]) for j in range(V)] for i in range(V)])
        for z in xs
    ]
    poly = [Fraction(0)] * (V + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
            denom *= xi - xj
        for k in range(V + 1):
            poly[k] += ys[i] * basis[k] / denom
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        coeffs.append(-sum(poly[j] * coeffs[k - j] for j in range(1, min(k, V) + 1)))
    return coeffs


def first_return_counts(adj: np.ndarray, W, n_max: int) -> list[int]:
    """Number of first returns of each length 1..n_max to the block W.

    In the |W|-block graph, a return of length k >= 2 leaves W, walks the
    off-core part for k - 2 steps and comes back: out . B^(k-2) . in.
    """
    chain = BlockChain(adj, len(W))
    a = chain.adj.astype(object)
    star = chain.states.index(tuple(W))
    off = [i for i in range(a.shape[0]) if i != star]
    counts = [int(a[star, star])]
    row = a[star, off]
    B = a[np.ix_(off, off)]
    col = a[off, star]
    for _ in range(2, n_max + 1):
        counts.append(int(row.dot(col)) if off else 0)
        row = row.dot(B) if off else row
    return counts


def closed_words(adj: np.ndarray, n: int) -> list[tuple[int, ...]]:
    """All closed walks of length n, as words."""
    return [w for w in block_words(adj, n) if adj[w[-1], w[0]]]


def magic_witnesses(adj: np.ndarray, W, n_max: int) -> int:
    """sum over periods p <= n_max of p * #(closed p-words that show W cyclically)."""
    W = tuple(W)
    total = 0
    for p in range(1, n_max + 1):
        for w in closed_words(adj, p):
            doubled = w * ((len(W) + p) // p + 1)
            if any(doubled[i:i + len(W)] == W for i in range(p)):
                total += p
    return total


def markov_entropy(transitions: np.ndarray, stationary: np.ndarray) -> float:
    total = 0.0
    for i, row in enumerate(transitions):
        for p in row:
            if p > 0:
                total -= float(stationary[i]) * float(p) * math.log(float(p))
    return total


def chain_trajectory(cum: np.ndarray, start: int, uniforms: np.ndarray) -> np.ndarray:
    """States of the chain driven by the uniforms: per-state next-state
    tables for every step at once, then one pass composing them."""
    hi = cum.shape[1] - 1
    nxt = [np.minimum(np.searchsorted(cum[s], uniforms, side="right"), hi).tolist()
           for s in range(cum.shape[0])]
    out = [start]
    cur = start
    for t in range(len(uniforms)):
        cur = nxt[cur][t]
        out.append(cur)
    return np.asarray(out, dtype=np.int32)
