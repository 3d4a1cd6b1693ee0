"""Independent oracles the tests check library results against.

Nothing here shares algorithms with the library: periodic points and first
returns are counted by integer matrix powers or raw product filtering,
visit-count keys by packing a tallied visit matrix, weighted sums by
matrix powers over a packed-exponent semiring or in 60-digit decimal
arithmetic, series by closed-form expansions, zeta coefficients by the
Fraction recurrence c_k = (1/k) sum_j Z_j c_{k-j} and det(I - tA) by the
Leibniz formula over polynomial entries, chains by scalar comparisons,
strongly connected components by a transitive closure, stationary
vectors by the Markov chain tree theorem in exact rationals, lifts of
periodic points by filtering products of fibers, the
source letters on preimage paths by set-based reachability, images of a
Markov measure under a sliding block map by summing its longer word
marginals over each image word, magic-word
violations by enumerating gaps and closed words letter by letter, loop-system
Z_n by a 60-digit decimal renewal over closed-orbit weights, tail
series by binomial expansions in 80 digits, zeta values minus exact
partial sums or Euler's dilogarithm reflection, two-vertex
first-return series by folding those part values in 80 digits, and Perron
roots by the trace of a rank-one matrix or the quadratic formula.
Eventually periodic points are shifted by moving their core, and compared
on a window that covers both cores and the lcm of their periods.
"""
from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from shiftlab.codes import EventuallyPeriodicPoint
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


def least_loop_collisions(labels, max_length: int) -> list:
    """The words of least length that two chains of ``labels`` spell, in ascending order.

    A chain is a sequence of label indices, and it spells the concatenation
    of its labels.  Chains are enumerated by total length up to
    ``max_length``; below the first length with a collision every word has
    one chain, so one chain per word is kept.  Empty when no chain of total
    length up to ``max_length`` collides.
    """
    spelled = [{(): ()}]  # spelled[L]: word -> its chain, over chains of total length L
    for L in range(1, max_length + 1):
        level, collisions = {}, set()
        for i, label in enumerate(labels):
            if len(label) > L:
                continue
            for word, chain in spelled[L - len(label)].items():
                word, chain = word + tuple(label), chain + (i,)
                if level.setdefault(word, chain) != chain:
                    collisions.add(word)
        if collisions:
            return sorted(collisions)
        spelled.append(level)
    return []


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


def supported_letters(code, image) -> list[list[int]] | None:
    """Per-position source letters lying on some preimage path of ``image``.

    Forward/backward reachability over the fiber automaton with one Python
    set per position; None when the image has no preimage path at all.
    """
    fibers = code.fibers()
    n = len(image)
    fwd: list[set[int]] = [set(fibers[image[0]])]
    for i in range(1, n):
        cur = set()
        for s in fibers[image[i]]:
            for p in fwd[i - 1]:
                if code.source.has_edge(p, s):
                    cur.add(s)
                    break
        fwd.append(cur)
    if not fwd[-1]:
        return None
    bwd: list[set[int]] = [set() for _ in range(n)]
    bwd[n - 1] = fwd[n - 1]
    for i in range(n - 2, -1, -1):
        cur = set()
        for s in fwd[i]:
            for q in bwd[i + 1]:
                if code.source.has_edge(s, q):
                    cur.add(s)
                    break
        bwd[i] = cur
        if not cur:
            return None
    return [sorted(b) for b in bwd]


def block_image_marginals(mu, block_words, letters, k: int) -> dict:
    """The k-word marginals of mu's image under a sliding block map.

    The map writes ``letters[i]`` wherever the N-block of the point starting
    there is ``block_words[i]``, so an image k-word sums mu's (k + N - 1)-word
    marginals over the words that slide onto it.
    """
    N = len(block_words[0])
    letter = dict(zip(block_words, letters))
    out: dict = {}
    for w, p in mu.word_distribution(k + N - 1).items():
        y = tuple(letter[w[j:j + N]] for j in range(k))
        out[y] = out.get(y, 0.0) + p
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


def _leibniz_det(m: list[list[Fraction]]) -> Fraction:
    """Determinant as the signed sum over permutations (tiny matrices only)."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def tree_theorem_stationary(P: list[list[Fraction]]) -> list[Fraction]:
    """Exact stationary vector of an irreducible stochastic matrix.

    Markov chain tree theorem: pi_i is proportional to the principal minor
    of I - P with row and column i deleted, the total weight of the spanning
    trees directed into i.  Minors are Leibniz determinants, so no
    elimination is involved.
    """
    n = len(P)
    L = [[Fraction(int(i == j)) - P[i][j] for j in range(n)] for i in range(n)]
    minors = [_leibniz_det([[L[r][c] for c in range(n) if c != i] for r in range(n) if r != i])
              for i in range(n)]
    total = sum(minors)
    return [m / total for m in minors]


def has_periodic_lift(source_edges: set[tuple[int, int]], fibers: list[list[int]], word) -> bool:
    """Does the periodic point word^inf have a preimage under a one-block code?

    A preimage exists iff a cycle of the phase-extended fiber graph does,
    and a simple one winds around the period at most max-fiber-size times.
    So it suffices to search the closed source words of length p*m,
    m <= max fiber size, letter by letter from the fibers over word.
    """
    p = len(word)
    for m in range(1, max(len(fb) for fb in fibers) + 1):
        for cand in itertools.product(*(fibers[word[i % p]] for i in range(p * m))):
            if all((cand[i], cand[(i + 1) % (p * m)]) in source_edges for i in range(p * m)):
                return True
    return False


def magic_word_violation(code, W, offset: int, depth: int):
    """The first violation of the magic-word conditions up to ``depth``.

    Gaps C with |C| <= depth go by length, then lexicographically, each
    W C W filtered from the product of target letters; it violates
    condition 1 when ``supported_letters`` leaves two letters at a window
    position.  Then closed target words of period <= depth + 2|W| whose
    periodic point shows W, checked with ``has_periodic_lift``.  Returns
    ("gap", C), ("periodic", word) or None.
    """
    edges = set(code.target.edges)
    letters = range(code.target.n_vertices)
    for d in range(depth + 1):
        for C in itertools.product(letters, repeat=d):
            image = W + C + W
            if all(e in edges for e in zip(image, image[1:])):
                support = supported_letters(code, image)
                if support is not None and any(len(s) > 1 for s in support[offset:offset + len(W) + d]):
                    return "gap", C
    source_edges, fibers = set(code.source.edges), code.fibers()
    for p in range(1, depth + 2 * len(W) + 1):
        for word in itertools.product(letters, repeat=p):
            if not all(e in edges for e in zip(word, word[1:] + word[:1])):
                continue
            unrolled = word * (len(W) // p + 2)
            shows_W = any(unrolled[i:i + len(W)] == W for i in range(p))
            if shows_W and not has_periodic_lift(source_edges, fibers, word):
                return "periodic", word
    return None


def key_width(n: int) -> int:
    """Bits per vertex of a packed visit-count vector of a path of length <= n: at least 4,
    and enough to hold n itself."""
    width = 4
    while n >= 2**width:
        width += 1
    return width


def count_keys_by_visit_matrix(paths: np.ndarray, V: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed visit-count keys of the rows of ``paths`` and their multiplicities.

    Counts are tallied into a (paths x V) visit matrix and packed with vertex
    v's count in bits [v width, (v + 1) width), so V * width <= 63.
    """
    assert V * width <= 63
    counts = np.zeros((paths.shape[0], V), dtype=np.int64)
    np.add.at(counts, (np.arange(paths.shape[0])[:, None], paths), 1)
    keys = counts @ (np.int64(1) << (width * np.arange(V, dtype=np.int64)))
    return np.unique(keys, return_counts=True)


def weighted_trace_expsum(adj: np.ndarray, values: list[Fraction], n: int) -> ExpSum:
    """Trace of the n-th power of M[u,v] = A[u,v] exp(values[u]), exactly.

    Matrix powers over the semiring of formal exp sums; exponents are packed
    as per-vertex visit counts of ``key_width(n)`` bits (so V times that width
    is at most 63: n <= 15 on 15 vertices, n <= 31 on 12).
    """
    V = adj.shape[0]
    width = key_width(n)
    assert V * width <= 63
    shifts = [np.int64(1) << np.int64(width * v) for v in range(V)]
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
            counts = [(int(k) >> (width * v)) % 2**width for v in range(V)]
            exponent = sum(c * values[v] for v, c in enumerate(counts))
            acc.add_term(exponent, int(m))
    return acc


def vertex_weighted_traces(adj: np.ndarray, numerators: list[int], n_max: int) -> list[dict[int, int]]:
    """``out[n - 1][s]``: the number of closed n-paths whose vertex numerators sum to s, for n = 1..n_max.

    The closed paths are those of :func:`brute_force_periodic`, counted by
    dynamic programming over (first vertex, last vertex, partial sum) without
    listing them.  ``numerators`` are nonnegative integers, one per vertex,
    and every count must stay below 2^62.
    """
    V = adj.shape[0]
    top = max(numerators) * n_max + 1
    a = adj.astype(np.int64)
    paths = np.zeros((V, V, top), dtype=np.int64)  # paths[first, last, s]
    for v in range(V):
        paths[v, v, numerators[v]] = 1
    out = []
    for _ in range(n_max):
        # the closing edge last -> first adds no weight
        sums = (paths * a.T[:, :, None]).sum(axis=(0, 1))
        out.append({s: int(c) for s, c in enumerate(sums.tolist()) if c})
        step = np.einsum("fus,uv->fvs", paths, a)
        paths = np.zeros_like(paths)
        for v, k in enumerate(numerators):
            paths[:, v, k:] = step[:, v, :top - k]
    assert paths.max(initial=0) < 2**62
    return out


def _dec(x) -> Decimal:
    """A float exactly, an int or Fraction to the context's precision."""
    if isinstance(x, float):
        return Decimal(x)
    x = Fraction(x)
    return Decimal(x.numerator) / Decimal(x.denominator)


def decimal_weighted_traces(graph, table: dict, n_max: int) -> list[Decimal]:
    """Z_1 .. Z_n_max of a span-s word table, to 60 significant digits.

    Traces of the powers of the s-block matrix with ``B[w, w[1:] + (v,)] =
    exp(table[w])`` for each edge ``w[-1] -> v``.  Float table values
    convert to Decimal exactly and rational ones at the 60th digit, which is
    the only other rounding.
    """
    blocks = sorted(table)
    index = {w: i for i, w in enumerate(blocks)}
    with localcontext() as ctx:
        ctx.prec = 60
        weight = [_dec(table[w]).exp() for w in blocks]
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


def decimal_loop_zn(system, n_max: int, f=None) -> list[Decimal]:
    """Z_1 .. Z_n_max of a loop system at its first vertex, to 60 digits.

    A loop weighs count * exp(log_weight), or, with a potential f, count *
    exp of the closed-orbit sum of f along its label repeated.  Floats and
    rationals convert to Decimal exactly or at the 60th digit; Z_n is the
    sum over chains of loops of total length n from vertex 1 back to 1,
    built one loop at a time.
    """
    with localcontext() as ctx:
        ctx.prec = 60

        weights = []
        for lp in system.loops:
            if f is None:
                log_weight = _dec(lp.log_weight)
            else:
                orbit = lp.label * (f.span // lp.length + 2)
                log_weight = sum((_dec(f.table[orbit[t:t + f.span]]) for t in range(lp.length)), Decimal(0))
            weights.append((lp.src, lp.dst, lp.length, lp.count * log_weight.exp()))
        # chains[n][j]: total weight of loop chains of length n from vertex 1 to j
        chains = [{1: Decimal(1)}] + [{} for _ in range(n_max)]
        for n in range(n_max):
            for src, dst, length, w in weights:
                if src in chains[n] and n + length <= n_max:
                    chains[n + length][dst] = chains[n + length].get(dst, Decimal(0)) + chains[n][src] * w
        return [chains[n].get(1, Decimal(0)) for n in range(1, n_max + 1)]


# zeta(2), zeta(3), zeta(4) to 40 digits
ZETA = {
    2: Decimal("1.644934066848226436472415166646025189219"),
    3: Decimal("1.202056903159594285399738161511449990765"),
    4: Decimal("1.082323233711138191516003696541167902775"),
}


def tail_series(kind: str, coef: float, param: float, start: int, z: float, d: int) -> Decimal | None:
    """sum_{n > start} n^d w_n z^(n-d), to 30 digits or more; None when it diverges.

    w_n = coef * param^n (geometric) or coef * n^-param (polynomial).
    Geometric tails: with x = param*z in 80 digits, x^start times the
    binomial expansion sum_{m >= 1} (start + m)^d x^m = start^d x/(1-x)
    + d x/(1-x)^2.  Polynomial tails at z = 1 (integer powers 2..4):
    zeta values minus exact partial sums.  Polynomial tails at z <= 0.9:
    summed term by term in 60 digits until the rest, at most
    coef * z^(n-d) / (1 - z), is below 1e-30 of the sum.  Polynomial tails
    at 0.9 < z < 1 with param - d = 2: Li_2(z) / z^d minus an exact partial
    sum, with Euler's reflection
    Li_2(z) = zeta(2) - ln z ln(1 - z) - Li_2(1 - z) and the fast series of
    Li_2(1 - z).
    """
    with localcontext() as ctx:
        ctx.prec = 80
        N = start
        if kind == "geometric":
            c, z_ = Decimal(coef), Decimal(z)
            x = Decimal(param) * z_
            if x >= 1:
                return None
            return c * x**N * (N**d * x / (1 - x) + d * x / (1 - x) ** 2) / z_**d
        if z == 1.0:
            q = int(param)
            assert q == param and q in (2, 3, 4)
            if q - d <= 1:
                return None
            partial = sum(Fraction(1, n ** (q - d)) for n in range(1, N + 1))
            return Decimal(coef) * (ZETA[q - d] - Decimal(partial.numerator) / Decimal(partial.denominator))
        if z > 0.9:
            assert z < 1 and param - d == 2
            z_, w = Decimal(z), 1 - Decimal(z)
            li2 = ZETA[2] - z_.ln() * w.ln() - sum(w**k / k**2 for k in range(1, 80))
            partial = sum(z_**n / n**2 for n in range(1, N + 1))
            return Decimal(coef) * (li2 - partial) / z_**d
        ctx.prec = 60
        assert z <= 0.9 and param >= d
        c, q, z_ = Decimal(coef), Decimal(param), Decimal(z)
        total, n = Decimal(0), N + 1
        while True:
            total += c * Decimal(n) ** d * Decimal(n) ** -q * z_ ** (n - d)
            n += 1
            if c * z_ ** (n - d) / (1 - z_) < Decimal("1e-30") * total:
                return total


def decimal_first_return(parts: dict, z: float, d: int) -> Decimal:
    """F(z) (d = 0) or F'(z) (d = 1) of a two-vertex loop system, in 80 digits.

    ``parts`` maps each vertex pair to ``(loops, tail)``: ``loops`` lists
    ``(length, count, log_weight)`` with a rational log weight, and ``tail``
    is ``(kind, coef, param, start)`` for :func:`tail_series` (kind "zero"
    adds nothing).  Each part and its derivative is its loops' weights
    count * exp(log_weight) times z^n (or n z^(n-1)) plus its tail series;
    the parts fold through the excursions to vertex 2:
    F = F11 + F12 F21 / (1 - F22), and
    F' = F11' + (F12' F21 + F12 F21') / (1 - F22) + F12 F21 F22' / (1 - F22)^2.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        z_ = Decimal(z)
        val = {}
        for key, (loops, (kind, coef, param, start)) in parts.items():
            for e in (0, 1):
                head = sum((n**e * count * (Decimal(w.numerator) / Decimal(w.denominator)).exp() * z_ ** (n - e)
                            for n, count, w in loops), Decimal(0))
                val[key, e] = head + (tail_series(kind, coef, param, start, z, e) if kind != "zero" else 0)
        f11, f12, f21, f22 = (val[k, 0] for k in ((1, 1), (1, 2), (2, 1), (2, 2)))
        if d == 0:
            return f11 + f12 * f21 / (1 - f22)
        g11, g12, g21, g22 = (val[k, 1] for k in ((1, 1), (1, 2), (2, 1), (2, 2)))
        return g11 + (g12 * f21 + f12 * g21) / (1 - f22) + f12 * f21 * g22 / (1 - f22) ** 2


def decimal_log_perron(adj: np.ndarray, values: list[Fraction]) -> Decimal:
    """log of the Perron root of M[u, v] = adj[u, v] exp(values[u]), to 60 digits.

    Only for matrices with a closed form: when every row of ``adj`` is all
    ones, M has rank one and its Perron root is its trace, sum exp(values);
    otherwise M must be 2x2 and the root is (t + sqrt(t^2 - 4 d)) / 2 for
    its trace t and determinant d.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        e = [(Decimal(v.numerator) / Decimal(v.denominator)).exp() for v in values]
        if adj.all():
            return sum(e, Decimal(0)).ln()
        assert adj.shape == (2, 2), "no closed form for this matrix"
        m = [[e[u] if adj[u, v] else Decimal(0) for v in range(2)] for u in range(2)]
        t, d = m[0][0] + m[1][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]
        return ((t + (t * t - 4 * d).sqrt()) / 2).ln()


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


def zeta_fraction_recurrence(zs: list[int], order: int) -> list[Fraction]:
    """Coefficients of exp(sum_n zs[n - 1] t^n / n): c_k = (1/k) sum_j Z_j c_{k-j}, all in Fractions."""
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += zs[j - 1] * coeffs[k - j]
        coeffs.append(acc / k)
    return coeffs


def det_one_minus_tA(adj: np.ndarray) -> list[Fraction]:
    """Coefficients of det(I - tA), by the Leibniz formula over degree-1 polynomial entries (tiny matrices only)."""
    V = adj.shape[0]
    total = [Fraction(0)] * (V + 1)
    for perm in itertools.permutations(range(V)):
        inversions = sum(perm[i] > perm[j] for i in range(V) for j in range(i + 1, V))
        term = [Fraction(-1 if inversions % 2 else 1)]
        for i, j in enumerate(perm):
            entry = (int(i == j), -int(adj[i, j]))  # (I - tA)[i, j] = entry[0] + entry[1] t
            term = [sum(term[a] * entry[d - a] for a in range(len(term)) if 0 <= d - a <= 1)
                    for d in range(len(term) + 1)]
        for d, c in enumerate(term):
            total[d] += c
    return total


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


def shift_point(x: EventuallyPeriodicPoint, k: int = 1) -> EventuallyPeriodicPoint:
    """The shifted point: sample(i) of the result equals x.sample(i + k)."""
    return EventuallyPeriodicPoint(left=x.left, core=x.core, right=x.right, core_start=x.core_start - k)


def points_equal(x: EventuallyPeriodicPoint, y: EventuallyPeriodicPoint) -> bool:
    """Exact equality, decided on a window long enough for both periodicities."""
    L = math.lcm(len(x.left), len(y.left))
    R = math.lcm(len(x.right), len(y.right))
    a = min(x.core_start, y.core_start) - L - 1
    b = max(x.core_end, y.core_end) + R + 1
    return x.window(a, b) == y.window(a, b)
