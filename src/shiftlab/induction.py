"""First-return (induced) presentations at distinguished words.

``induce`` rebuilds a shift as a loop system: all first-return paths between
occurrences of one or two words, enumerated exactly up to a length cap, with
the remainder summarized by a rigorous tail bound read off the off-core part
of the block graph.  Loop systems are also a direct input format (renewal
shifts), in which case per-length weights and tails are declared instead of
derived.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import kernels
from .expsum import ExpSum
from .graphs import (
    BudgetExceededError,
    FiniteGraph,
    FinitePresentation,
    GraphError,
    Word,
    higher_block,
    recurrent_core,
)
from .potentials import (
    FiniteRangePotential,
    Number,
    PotentialError,
    VariationCertificate,
    bowen_reduce,
    lift_variation,
)

_EPS = 2.2e-16


@dataclass(frozen=True)
class Loop:
    """One first-return path; ``label`` is its ambient word when known."""

    length: int
    src: int = 1
    dst: int = 1
    label: Word | None = None
    count: int = 1
    log_weight: Number = Fraction(0)

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("loops have length >= 1")
        if self.src not in (1, 2) or self.dst not in (1, 2):
            raise ValueError("distinguished vertices are numbered 1 and 2")
        if self.label is not None and len(self.label) != self.length:
            raise ValueError("label length must equal the loop length")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class TailDescriptor:
    """Aggregate weight of loops longer than ``start``.

    ``exact`` tails state the true per-length weights (zero | geometric
    coef*ratio**n | polynomial coef*n**-power); ``upper`` tails only bound
    them from above (the lower envelope is then the explicit part alone).
    """

    kind: str
    coef: float = 0.0
    ratio: float = 0.0
    power: float = 0.0
    start: int = 0
    bound: str = "exact"
    src: int = 1
    dst: int = 1

    def __post_init__(self):
        if self.kind not in ("zero", "geometric", "polynomial"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if self.bound not in ("exact", "upper"):
            raise ValueError("bound must be exact or upper")
        if self.src not in (1, 2) or self.dst not in (1, 2):
            raise ValueError("distinguished vertices are numbered 1 and 2")
        if self.start < 0:
            raise ValueError("tail start must be >= 0")
        if not all(map(math.isfinite, (self.coef, self.ratio, self.power))):
            raise ValueError("tail coef, ratio and power must be finite")
        if self.coef < 0:
            raise ValueError("tail coefficient must be >= 0")
        if self.kind == "geometric" and self.ratio <= 0 and self.coef > 0:
            raise ValueError("geometric tail needs ratio > 0")
        if self.kind == "polynomial" and self.power <= 0 and self.coef > 0:
            raise ValueError("polynomial tail needs power > 0")

    def radius(self) -> float:
        if self.kind == "zero" or self.coef == 0.0:
            return math.inf
        if self.kind == "geometric":
            return 1.0 / self.ratio
        return 1.0


@dataclass(frozen=True)
class OffCoreData:
    """Block graph minus the distinguished vertices, for weighted tail bounds."""

    block_graph: FiniteGraph
    block_words: tuple[Word, ...]
    distinguished: tuple[int, ...]  # vertex ids of W1 (and W2) in the block graph


@dataclass(frozen=True)
class LoopSystem:
    """First-return data at one or two distinguished vertices."""

    loops: tuple[Loop, ...]
    tails: tuple[TailDescriptor, ...]
    names: tuple[str, ...] | None = None
    base_words: tuple[Word, ...] = ()
    off_core: OffCoreData | None = None

    def __post_init__(self):
        labeled = [lp for lp in self.loops if lp.label is not None]
        if len({(lp.src, lp.dst, lp.label) for lp in labeled}) != len(labeled):
            raise ValueError("labeled loops must be pairwise distinct")
        pairs = [(t.src, t.dst) for t in self.tails]
        if len(set(pairs)) != len(pairs):
            raise ValueError("at most one tail per vertex pair")
        object.__setattr__(
            self,
            "loops",
            tuple(sorted(self.loops, key=lambda lp: (lp.src, lp.dst, lp.length, lp.label or ()))),
        )

    @property
    def kind(self) -> str:
        return "loops"

    @property
    def two_vertex(self) -> bool:
        verts = {lp.src for lp in self.loops} | {lp.dst for lp in self.loops}
        verts |= {t.src for t in self.tails if t.coef > 0} | {t.dst for t in self.tails if t.coef > 0}
        return 2 in verts

    @property
    def period(self) -> int:
        g = 0
        for lp in self.loops:
            g = math.gcd(g, lp.length)
        for t in self.tails:
            if t.coef > 0:
                g = math.gcd(g, math.gcd(t.start + 1, t.start + 2))
        return g if g else 1

    def max_explicit_length(self, src: int = 1, dst: int = 1) -> int:
        lens = [lp.length for lp in self.loops if lp.src == src and lp.dst == dst]
        return max(lens) if lens else 0


@dataclass(frozen=True)
class InducedPresentation:
    """A loop system together with the block code back to the ambient shift."""

    loops: LoopSystem
    source_words: tuple[Word, ...]
    offsets: tuple[int, int]  # (L, M) used for certificate lifting

    @property
    def W1(self) -> Word:
        return self.source_words[0]

    @property
    def W2(self) -> Word:
        return self.source_words[-1]


# --------------------------------------------------------------------------
# building induced presentations


def induce(
    g,
    W1,
    W2=None,
    maxlen: int = 20,
    budget: int = 500_000,
) -> InducedPresentation:
    """Enumerate the first-return structure at one or two words.

    Words must be admissible and of common length.  Explicit loops cover
    lengths up to ``maxlen``; longer returns are bounded by a geometric tail
    computed from the off-core block matrix (exactly zero when that part of
    the graph has no cycles; in that case ``maxlen`` is extended so nothing
    is truncated).
    """
    graph = g.graph if isinstance(g, FinitePresentation) else g
    W1 = tuple(int(s) for s in W1)
    W2 = W1 if W2 is None else tuple(int(s) for s in W2)
    if not W1 or not graph.is_word(W1) or not graph.is_word(W2):
        raise GraphError("distinguished words must be nonempty admissible words")
    if len(W1) != len(W2):
        raise GraphError("distinguished words must have a common length (pad the shorter)")
    N = len(W1)
    H, labeling = higher_block(graph, N)
    index = labeling.block_index()
    v1, v2 = index[W1], index[W2]
    distinct = sorted({v1, v2})

    # extend maxlen when the off-core part is acyclic: tails become exactly zero
    Vh = H.n_vertices
    off_core = [(u, v) for u, v in H.edges if u not in distinct and v not in distinct]
    nilpotent = not recurrent_core(off_core)[0]
    if nilpotent:
        maxlen = max(maxlen, Vh + 1)

    indptr, indices = H.csr
    allowed = np.ones(Vh, dtype=bool)
    for v in distinct:
        allowed[v] = False

    loops: list[Loop] = []
    sides = [(1, v1)] + ([(2, v2)] if v2 != v1 else [])
    for di, vstart in sides:
        for dj, vend in sides:
            dist = _bfs_dist_to(H, allowed, vend)
            flat, lengths, overflow = kernels.first_return_paths(
                indptr, indices, allowed, dist, vstart, vend, maxlen, budget
            )
            if overflow:
                raise BudgetExceededError(
                    f"more than {budget} first-return paths up to length {maxlen}"
                )
            pos = 0
            for k in lengths:
                k = int(k)
                path = flat[pos:pos + k]
                pos += k
                label = labeling.apply(int(s) for s in path)
                loops.append(Loop(length=k, src=di, dst=dj, label=tuple(label)))
    if not loops:
        raise GraphError("no first return found up to maxlen; increase maxlen")
    loops.sort(key=lambda lp: (lp.src, lp.dst, lp.length, lp.label))

    ones = np.ones(Vh)
    tails = [
        TailDescriptor(kind="zero", start=maxlen, src=di, dst=dj) if nilpotent
        else _weighted_tail_bound(H, distinct, vstart, vend, maxlen, ones, di, dj)
        for di, vstart in sides
        for dj, vend in sides
    ]
    system = LoopSystem(
        loops=tuple(loops),
        tails=tuple(tails),
        names=graph.names,
        base_words=(W1,) if v1 == v2 else (W1, W2),
        off_core=OffCoreData(
            block_graph=H,
            block_words=labeling.block_words,
            distinguished=tuple(distinct),
        ),
    )
    return InducedPresentation(
        loops=system,
        source_words=(W1,) if v1 == v2 else (W1, W2),
        offsets=(0, N - 1),
    )


def _structured_extensions(graph: FiniteGraph, w: Word, total: int):
    """All (a, b) with |a| + |b| = total, both nonempty, w a w b admissible."""
    for la in range(1, total):
        lb = total - la
        for a in graph.words(la):
            if not graph.is_word(w + a + w):
                continue
            for b in graph.words(lb):
                if graph.is_word(w + a + w + b):
                    yield a, b


def induce_structured(
    g,
    w1,
    w2=None,
    maxlen: int = 20,
    budget: int = 500_000,
) -> InducedPresentation:
    """Induce at doubled words W_i = w_i a_i w_i b_i of common length.

    The fillers are the shortest admissible nonempty (a_i, b_i), chosen
    lexicographically, with both W_i brought to the same total length N.
    The recorded offsets are L = |w_i| and M = N - |b| - L - 1 (minimized
    over the two sides, the conservative direction for certificate lifting).
    """
    graph = g.graph if isinstance(g, FinitePresentation) else g
    w1 = tuple(int(s) for s in w1)
    w2 = w1 if w2 is None else tuple(int(s) for s in w2)
    if len(w1) != len(w2):
        raise GraphError("base words must share a length (lengthen the shorter)")
    L = len(w1)
    ws = [w1] if w2 == w1 else [w1, w2]
    for total in range(2, 2 * graph.n_vertices + 8):
        picks = []
        for w in ws:
            found = next(iter(_structured_extensions(graph, w, total)), None)
            if found is None:
                break
            picks.append(found)
        if len(picks) != len(ws):
            continue
        words = [w + a + w + b for w, (a, b) in zip(ws, picks)]
        N = len(words[0])
        M = min(N - len(b) - L - 1 for _, b in picks)
        ind = induce(graph, words[0], words[-1], maxlen=maxlen, budget=budget)
        return replace(ind, offsets=(L, M))
    raise GraphError("no admissible doubled words found")


def _bfs_dist_to(H: FiniteGraph, allowed: np.ndarray, target: int) -> np.ndarray:
    """Min step counts to ``target`` through allowed intermediates."""
    V = H.n_vertices
    dist = np.full(V, np.inf)
    preds: dict[int, list[int]] = {v: [] for v in range(V)}
    for u, v in H.edges:
        preds[v].append(u)
    dist[target] = 0.0
    queue = [target]
    while queue:
        v = queue.pop(0)
        for u in preds[v]:
            if allowed[u] and not math.isfinite(dist[u]):
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _weighted_tail_bound(
    H: FiniteGraph,
    distinguished: tuple[int, ...],
    vstart: int,
    vend: int,
    maxlen: int,
    weights: np.ndarray,
    src: int,
    dst: int,
) -> TailDescriptor:
    """Rigorous geometric upper bound for weighted first returns past maxlen.

    First returns of length n >= 2 factor through the off-core matrix B:
    w_n = out . B^{n-2} . in.  For any positive u, rho = max_i (Bu)_i/u_i
    dominates B's Perron root and B^k in <= c u rho^k entrywise, giving
    w_n <= C rho^n.
    """
    V = H.n_vertices
    M = H.adjacency.astype(np.float64) * weights[:, None]
    mask = np.ones(V, dtype=bool)
    for v in distinguished:
        mask[v] = False
    B = M[np.ix_(mask, mask)]
    out_w = M[vstart, mask]
    in_w = M[mask, vend]
    if B.size == 0 or not out_w.any() or not in_w.any():
        return TailDescriptor(kind="zero", start=maxlen, src=src, dst=dst)
    u = np.ones(B.shape[0])
    for _ in range(200):
        nu = B @ u + u
        u = nu / nu.sum()
    if not np.all(u > 0):
        # an entry underflowed (a zero row of B stays put while the others
        # grow): u = 1 gives the largest row sum, a finite bound
        u = np.ones(B.shape[0])
    rho = float(np.max((B @ u) / u))
    if rho <= 0.0:
        return TailDescriptor(kind="zero", start=maxlen, src=src, dst=dst)
    c_in = float(np.max(np.where(u > 0, in_w / u, 0.0)))
    C = c_in * float(out_w @ u) / (rho * rho)
    C *= 1.0 + 1e-9  # float slop
    return TailDescriptor(
        kind="geometric", coef=C, ratio=rho, start=maxlen, bound="upper", src=src, dst=dst
    )


def _weigh(system: LoopSystem, f: FiniteRangePotential | None, with_tails: bool) -> LoopSystem:
    """``system`` with f's Birkhoff weights on its loops, and on its tails
    too when ``with_tails`` (which needs the off-core data of an induction).

    A loop's weight peeks into the seam word: the letters right after a loop
    are its destination word itself, whatever loop follows, so windows
    reaching past the label are still determined.  The value equals the
    closed-orbit sum of the loop, hence is invariant under composing with
    powers of the shift.  Without a potential the system comes back as is.
    """
    if f is None:
        return system
    if any(lp.label is None for lp in system.loops):
        raise PotentialError("potential given but loops carry no labels")
    if not system.base_words:
        raise PotentialError("labeled loop system needs its base words to lift a potential")
    g = bowen_reduce(f)[0] if f.left > 0 else f
    r = g.span
    dst_words = {1: system.base_words[0], 2: system.base_words[-1]}
    loops = []
    for lp in system.loops:
        dst_word = dst_words[lp.dst]
        if r > len(dst_word) + 1:
            raise PotentialError(
                f"potential span {r} too wide for induction at a word of length {len(dst_word)}"
            )
        word = lp.label + dst_word
        total: Number = Fraction(0) if g.rational else 0.0
        for t in range(lp.length):
            total = total + g.table[word[t: t + r]]
        loops.append(replace(lp, log_weight=total))
    tails = _weighted_tails(system, g) if with_tails else system.tails
    return replace(system, loops=tuple(loops), tails=tails)


def lift_potential(
    ind: InducedPresentation,
    f: FiniteRangePotential,
    cert: VariationCertificate | None = None,
):
    """Per-loop Birkhoff weights of f over the induced system, plus the lifted
    oscillation certificate (via the offsets recorded at induction time).

    Returns ``(loop_system_with_weights, lifted_certificate)``.
    """
    if ind.loops.names is None:
        raise PotentialError("loop system carries no ambient labels to lift over")
    weighted = _weigh(ind.loops, f, with_tails=True)
    L, M = ind.offsets
    lifted = lift_variation(cert, L, M) if cert is not None else None
    return weighted, lifted


def _weighted_tails(system: LoopSystem, g: FiniteRangePotential) -> tuple[TailDescriptor, ...]:
    """Tail bounds of the first returns weighted by a future-only potential g."""
    oc = system.off_core
    if oc is None:
        raise PotentialError("loop system has no off-core data; bake weights via lift_potential at induction time")
    H = oc.block_graph
    span = g.span
    N = len(oc.block_words[0])
    # Each block is weighted by the largest value of g over the
    # span-words that agree with it on their first min(span, N) symbols.
    # When span <= N that word is unique and the weight is exact; when
    # g is wider than the blocks, a product of these per-step maxima
    # bounds every path weight, so the tail stays an upper bound.
    top: dict[Word, float] = {}
    for w, v in g.table.items():
        top[w[:N]] = max(top.get(w[:N], -math.inf), float(v))
    weights = np.array([math.exp(top[bw[:span]]) for bw in oc.block_words])
    ids = {1: oc.distinguished[0], 2: oc.distinguished[-1]}
    maxlen = max((lp.length for lp in system.loops), default=0)
    if all(t.kind == "zero" for t in system.tails):
        return tuple(replace(t, start=maxlen) for t in system.tails)
    return tuple(
        _weighted_tail_bound(H, oc.distinguished, ids[t.src], ids[t.dst], maxlen, weights, t.src, t.dst)
        for t in system.tails
    )


# --------------------------------------------------------------------------
# the first-return generating series with rigorous envelopes


@dataclass
class _SeriesPart:
    explicit: dict[int, float]
    tail: TailDescriptor

    def eval(self, z: float, d: int):
        """Bracket of the d-th derivative (d in {0, 1}) at z.

        A divergent F has the upper end inf; a divergent F' gives None.
        """
        head = math.fsum(n**d * w * z ** (n - d) for n, w in self.explicit.items())
        slop = 1e-14 * (1.0 + abs(head))
        t = _tail_sum(self.tail, z, d)
        if t is None and d:
            return None
        lo, hi = t or (math.inf, math.inf)
        if self.tail.bound == "upper":
            lo = 0.0
        return head - slop + lo, head + slop + hi


def _tail_sum(t: TailDescriptor, z: float, d: int):
    """Bracket of sum_{n > start} n^d w_n z^(n-d) for the tail's weights w_n,
    d in {0, 1}: the tail of F, or of F' when d = 1.  None when it diverges.
    """
    if t.kind == "zero" or t.coef == 0.0:
        return 0.0, 0.0
    N = t.start
    if t.kind == "geometric":
        x = t.ratio * z
        if x >= 1.0:
            return None
        # sum_{n > N} n^d x^n = x^(N+1) ((N+1) - N x)^d / (1-x)^(d+1)
        val = 0.0 if d and z <= 0 else (
            (t.coef / z**d) * x ** (N + 1) * ((N + 1) - N * x) ** d / (1.0 - x) ** (d + 1))
        return val * (1 - 1e-12), val * (1 + 1e-12)
    # polynomial
    q = t.power
    if z > 1.0 or (z == 1.0 and q - d <= 1.0):
        return None
    if z == 1.0:
        M = max(N + 1, 1_000_000)
        ns = np.arange(N + 1, M + 1, dtype=np.float64)
        partial = float(np.sum(t.coef * ns ** (d - q)))
        # the rest lies between the integrals of x^(d-q) from M+1 and from M
        lo = partial + t.coef * (M + 1) ** (1 + d - q) / (q - (1 + d))
        hi = partial + t.coef * M ** (1 + d - q) / (q - (1 + d))
        slop = 8 * _EPS * partial * math.log2(M)
        return lo - slop, hi + slop
    M = max(N + 1, 4096)
    ns = np.arange(N + 1, M + 1, dtype=np.float64)
    partial = float(np.sum(t.coef * ns ** (d - q) * z ** (ns - d)))
    # the rest is at most (M+1)^-q times sum_{n > M} n^d z^(n-d)
    if d:
        rem_geom = ((M + 1) * z**M * (1 - z) + z ** (M + 1)) / (1 - z) ** 2
        rem_hi = t.coef * (M + 1) ** -q * rem_geom
    else:
        rem_hi = t.coef * (M + 1) ** -q * z ** (M + 1) / (1.0 - z)
    slop = 8 * _EPS * (partial + rem_hi + 1e-300)
    return partial - slop, partial + rem_hi + slop


@dataclass
class ReturnSeries:
    """Interval-valued F(z) for a loop system, reduced to the first vertex.

    Two-vertex systems are folded through excursions:
    ``F = F11 + F12 F21 / (1 - F22)``.
    """

    parts: dict[tuple[int, int], _SeriesPart]
    tail_exact: bool
    radius_lower: float

    def F(self, z: float) -> tuple[float, float]:
        lo11, hi11 = self.parts[(1, 1)].eval(z, 0)
        if (1, 2) not in self.parts:
            return lo11, hi11
        lo12, hi12 = self.parts[(1, 2)].eval(z, 0)
        lo21, hi21 = self.parts[(2, 1)].eval(z, 0)
        lo22, hi22 = self.parts[(2, 2)].eval(z, 0)
        hi = hi11 + (hi12 * hi21 / (1.0 - hi22) if hi22 < 1.0 else math.inf)
        lo = lo11 + (lo12 * lo21 / (1.0 - lo22) if lo22 < 1.0 else math.inf)
        return lo, hi

    def Fprime(self, z: float):
        p11 = self.parts[(1, 1)].eval(z, 1)
        if p11 is None:
            return None
        if (1, 2) not in self.parts:
            return p11
        evals = {}
        for key in ((1, 2), (2, 1), (2, 2)):
            fv = self.parts[key].eval(z, 0)
            dv = self.parts[key].eval(z, 1)
            if dv is None or fv[1] >= 1.0 and key == (2, 2):
                return None
            evals[key] = (fv, dv)
        (f12, d12), (f21, d21), (f22, d22) = evals[(1, 2)], evals[(2, 1)], evals[(2, 2)]
        # d/dz [F12 F21 / (1 - F22)], at the lower and at the upper ends
        los, his = (
            d12[e] * f21[e] / (1 - f22[e]) + f12[e] * d21[e] / (1 - f22[e])
            + f12[e] * f21[e] * d22[e] / (1 - f22[e]) ** 2
            for e in (0, 1)
        )
        return p11[0] + los, p11[1] + his

    def _root(self, pick_hi: bool, atol: float):
        """Bracket the smallest z with F_env(z) = 1, env = upper or lower.

        Returns the rigorous side: the bisection's upper end when the root
        bounds z* from above (lower envelope), its lower end otherwise.
        """

        def env(z: float) -> float:
            lo, hi = self.F(z)
            return hi if pick_hi else lo

        zr = self.radius_lower
        if math.isinf(zr):
            hi = 1.0
            while env(hi) < 1.0:
                hi *= 2.0
                if hi > 1e12:
                    return None
            lo = 0.0
        else:
            zr_in = zr * (1.0 - 1e-12)
            if env(zr_in) < 1.0:
                return None
            lo, hi = 0.0, zr_in
        for _ in range(200):
            if hi - lo <= atol:
                break
            mid = 0.5 * (lo + hi)
            if env(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        # env(lo) < 1 <= env(hi): the envelope's root lies in [lo, hi]
        return lo if pick_hi else hi

    def root_lower(self, atol: float = 1e-10):
        """A certified lower bound for z* (via the upper envelope)."""
        return self._root(True, atol)

    def root_upper(self, atol: float = 1e-10):
        """A certified upper bound for z* (via the lower envelope)."""
        return self._root(False, atol)


def return_series(loops: LoopSystem, f: FiniteRangePotential | None = None) -> ReturnSeries:
    """Aggregate explicit loop weights and tails into an evaluable series."""
    weighted = _weigh(loops, f, with_tails=True)
    explicit = _loop_weights(weighted, exact=False)
    tails = weighted.tails

    keys = {(1, 1)}
    if loops.two_vertex:
        keys |= {(1, 2), (2, 1), (2, 2)}
    parts = {}
    tail_exact = True
    radius = math.inf
    tmap = {(t.src, t.dst): t for t in tails}
    for key in keys:
        t = tmap.get(key, TailDescriptor(kind="zero", src=key[0], dst=key[1]))
        if t.coef > 0 and t.bound == "upper":
            tail_exact = False
        radius = min(radius, t.radius())
        parts[key] = _SeriesPart(explicit=explicit.get(key, {}), tail=t)
    return ReturnSeries(parts=parts, tail_exact=tail_exact, radius_lower=radius)


# --------------------------------------------------------------------------
# partition functions over loop compositions, and the coincidence check


def _loop_weights(system: LoopSystem, exact: bool) -> dict[tuple[int, int], dict]:
    """Per vertex pair and loop length, the total weight count * exp(log_weight)
    of the loops: an ExpSum when ``exact`` (rational weights only), else a float.
    """
    out: dict[tuple[int, int], dict] = {}
    for lp in system.loops:
        d = out.setdefault((lp.src, lp.dst), {})
        if not exact:
            d[lp.length] = d.get(lp.length, 0.0) + lp.count * math.exp(float(lp.log_weight))
        elif isinstance(lp.log_weight, (Fraction, int)):
            d.setdefault(lp.length, ExpSum()).add_term(Fraction(lp.log_weight), lp.count)
        else:
            raise ValueError("exact loop composition needs rational weights")
    return out


def _renewal(weights: dict[tuple[int, int], dict], n_max: int, unit, total) -> dict[int, list]:
    """Weighted counts of the loop chains of each length from vertex 1 to j.

    A closed orbit through the distinguished vertex decomposes uniquely into
    first-return loops, so ``state[j][n] = sum over i, k of state[i][n - k]
    * w_ij(k)``, summed by ``total``.  ``state[j][0]`` is ``unit`` for j = 1
    and None (nothing) otherwise.
    """
    verts = (1, 2) if any(2 in pair for pair in weights) else (1,)
    state = {j: [unit if j == 1 else None] for j in verts}
    for n in range(1, n_max + 1):
        for j in verts:
            state[j].append(total(
                state[i][n - k] * w
                for i in verts
                for k, w in weights.get((i, j), {}).items()
                if k <= n and state[i][n - k]
            ))
    return state


def _renewal_errors(system: LoopSystem, f, weights, state) -> list[float]:
    """Running error bounds for the float renewal table of ``system``
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.3).

    A log weight is off by delta: the rounding of float(log_weight), plus,
    for a float potential f, that of its Birkhoff sum of k table values
    (gamma_k * k * max|f|, as in :func:`shiftlab.thermo._zn_from_points`).
    exp turns delta into a factor within exp(+-delta); exp, the count, the
    product and the sum of the m loops of one length round by at most
    (m + 3) u more.  So each weight w^ lies within eta * w^ + tau of its
    true value, tau covering exp results that underflow.  In the recurrence
    every product and every fsum rounds by u relative plus half the
    smallest subnormal; the bound of state[j][n] adds those to the
    propagated bounds of the states it multiplies, so an underflowed state
    keeps a positive bound.  The bounds are computed in floats, hence
    raised by 32 u and a few subnormals.
    """
    u = _EPS / 2
    tiny = math.ulp(0.0)
    verts, n_max = tuple(state), len(state[1]) - 1
    fmax = 0.0 if f is None or f.rational else max(abs(float(v)) for v in f.table.values())
    delta = max(_EPS * abs(float(lp.log_weight)) + lp.length * u / (1 - lp.length * u) * lp.length * fmax
                for lp in system.loops)
    m = max(Counter((lp.src, lp.dst, lp.length) for lp in system.loops).values())
    a = delta + (m + 3) * _EPS
    if a >= 700.0:
        return [math.inf] * (n_max + 1)
    eta = math.expm1(a) * math.exp(a)
    tau = tiny * math.exp(a) * sum(lp.count + 2 for lp in system.loops)
    err = {j: [0.0] for j in verts}
    for n in range(1, n_max + 1):
        for j in verts:
            terms = [
                (eta + u) * w * state[i][n - k] + tau * state[i][n - k]
                + ((1.0 + eta) * w + tau) * err[i][n - k] + 4 * tiny
                for i in verts
                for k, w in weights.get((i, j), {}).items()
                if k <= n and (state[i][n - k] or err[i][n - k])
            ]
            bound = math.fsum(terms) + 2 * u * state[j][n] + 4 * tiny if terms else 0.0
            err[j].append(bound * (1 + 32 * u))
    return err[1]


def loop_zn_exact(loops: LoopSystem, f: FiniteRangePotential | None, n_max: int) -> list[ExpSum]:
    """Z_n at the first distinguished vertex via loop compositions, exact.

    The renewal recurrence over the first-return loops, weighted by f when
    given.  Needs rational weights (ValueError otherwise).  Loops longer
    than the explicit ones are not counted, so past the start of a nonzero
    tail each entry is a lower bound.
    """
    weighted = _weigh(loops, f, with_tails=False)
    state = _renewal(_loop_weights(weighted, exact=True), n_max, ExpSum.unit(),
                     lambda terms: sum(terms, ExpSum()))
    return state[1][1:]


def loop_partition_function(loops: LoopSystem, f: FiniteRangePotential | None, n_max: int):
    from .thermo import PartitionFunctionTable

    covered = min(
        (t.start for t in loops.tails if t.coef > 0),
        default=max((lp.length for lp in loops.loops), default=0),
    )
    note = None
    if covered < n_max:
        note = f"explicit loops cover lengths <= {covered}; entries beyond are lower bounds"
    weighted = _weigh(loops, f, with_tails=False)
    try:
        zs = loop_zn_exact(weighted, None, n_max)
        entries = {n: zs[n - 1] for n in range(1, n_max + 1)}
        exact = True
    except ValueError:
        weights = _loop_weights(weighted, exact=False)
        state = _renewal(weights, n_max, 1.0, math.fsum)
        errors = _renewal_errors(weighted, f, weights, state)
        entries = {n: (state[1][n], errors[n]) for n in range(1, n_max + 1)}
        exact = False
    base = loops.base_words[0] if loops.base_words else ()
    return PartitionFunctionTable(
        base_word=base, exact=exact, entries=entries, n_max=n_max, note=note,
    )


@dataclass(frozen=True)
class ZnCoincidenceReport:
    rows: tuple[tuple[int, str, str, bool], ...]
    all_equal: bool
    inequality_only: bool  # right side is a lower bound past the explicit tail


def verify_zn_coincidence(
    g,
    f: FiniteRangePotential,
    W,
    ind: InducedPresentation,
    n_max: int = 10,
) -> ZnCoincidenceReport:
    """Compare ambient Z_n(S, f, W) with the loop-composition Z_n, exactly."""
    from .thermo import partition_function

    if ind.loops.two_vertex:
        raise ValueError("coincidence check runs on single-word inductions")
    graph = g.graph if isinstance(g, FinitePresentation) else g
    left = partition_function(graph, f, W, n_max)
    maxlen = ind.loops.max_explicit_length()
    right = loop_zn_exact(ind.loops, f, n_max)
    rows = []
    ok = True
    truncated = maxlen < n_max and any(t.coef > 0 for t in ind.loops.tails)
    for n in range(1, n_max + 1):
        lz = left.zn_exact(n)
        rz = right[n - 1]
        if truncated and n > maxlen:
            # right side misses tail loops, so it must embed in the left multiset
            eq = all(lz.terms.get(e, 0) >= m for e, m in rz.terms.items())
        else:
            eq = lz == rz
        ok &= eq
        rows.append((n, repr(lz), repr(rz), eq))
    return ZnCoincidenceReport(rows=tuple(rows), all_equal=ok, inequality_only=truncated)


def phi_injective_on_periodic(ind: InducedPresentation, period_cap: int = 10):
    """Distinct loop compositions must spell distinct ambient words."""
    loops = [lp for lp in ind.loops.loops if lp.src == 1 and lp.dst == 1]
    if ind.loops.two_vertex:
        raise ValueError("injectivity check runs on single-word inductions")
    for n in range(1, period_cap + 1):
        seen: dict[Word, list[tuple[int, ...]]] = {}
        stack: list[tuple[Word, tuple[int, ...]]] = [((), ())]
        while stack:
            word, chain = stack.pop()
            if len(word) == n:
                seen.setdefault(word, []).append(chain)
                continue
            for i, lp in enumerate(loops):
                if len(word) + lp.length <= n and lp.label is not None:
                    stack.append((word + lp.label, chain + (i,)))
        for word, chains in seen.items():
            if len(chains) > 1:
                return False, (word, chains)
    return True, None
