"""First-return (induced) presentations at distinguished words.

``induce`` rebuilds a shift as a loop system: all first-return paths between
occurrences of one or two words, enumerated exactly up to a length cap, with
the remainder summarized by a rigorous tail bound read off the off-core part
of the block graph.  Loop systems are also a direct input format (renewal
shifts), in which case per-length weights and tails are declared instead of
derived.  Either way a tail is one :class:`TailDescriptor`, and
:func:`tail_sum` brackets its part of the first-return series F and F'.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import intervals as iv
from . import kernels
from .expsum import ExpSum
from .graphs import (
    BudgetExceededError,
    FiniteGraph,
    FinitePresentation,
    GraphError,
    Word,
    higher_block,
    least_accepted_path,
    recurrent_core,
)
from .potentials import _EPS, FiniteRangePotential, Number, PotentialError, _window_sum, bowen_reduce


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

    ``exact`` tails state the true per-length weights (zero, with coef 0 |
    geometric coef*ratio**n | polynomial coef*n**-power); ``upper`` tails
    only bound them from above (the lower envelope is then the explicit part
    alone).  :attr:`positive` says whether the tail weighs anything.
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
        if self.kind == "zero" and self.coef > 0:
            raise ValueError("a zero tail has coef 0")
        if self.kind == "geometric" and self.ratio <= 0 and self.coef > 0:
            raise ValueError("geometric tail needs ratio > 0")
        if self.kind == "polynomial" and self.power <= 0 and self.coef > 0:
            raise ValueError("polynomial tail needs power > 0")

    @property
    def positive(self) -> bool:
        """True when the tail holds loops of positive weight; a zero tail never does."""
        return self.coef > 0

    def radius(self) -> float:
        if not self.positive:
            return math.inf
        if self.kind == "geometric":
            return 1.0 / self.ratio
        return 1.0


@dataclass(frozen=True)
class OffCoreData:
    """The block graph of an induction, for weighted tail bounds."""

    block_graph: FiniteGraph
    block_words: tuple[Word, ...]


@dataclass(frozen=True)
class LoopSystem:
    """First-return data at one or two distinguished vertices.

    Loop vertex i is the block of ``base_words[i - 1]`` when the system
    comes from an induction.
    """

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
    def two_vertex(self) -> bool:
        verts = {lp.src for lp in self.loops} | {lp.dst for lp in self.loops}
        verts |= {t.src for t in self.tails if t.positive} | {t.dst for t in self.tails if t.positive}
        return 2 in verts

    @property
    def period(self) -> int:
        # a tail of positive weight has loops of every length past its start,
        # and two consecutive lengths are coprime
        if any(t.positive for t in self.tails):
            return 1
        return math.gcd(*(lp.length for lp in self.loops)) or 1

    def covered_length(self, n_max: int) -> int:
        """The longest length up to which the explicit loops are all the loops,
        or n_max when no tail says otherwise.

        A tail of positive weight holds the loops longer than its start, which
        the explicit loops miss; zero tails miss nothing.
        """
        return min((t.start for t in self.tails if t.positive), default=n_max)


@dataclass(frozen=True)
class InducedPresentation:
    """A loop system together with the block code back to the ambient shift."""

    loops: LoopSystem
    offsets: tuple[int, int]  # (0, N - 1) for words of length N; only reported

    @property
    def source_words(self) -> tuple[Word, ...]:
        return self.loops.base_words


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
    base_words = (W1,) if index[W1] == index[W2] else (W1, W2)
    ids = [index[w] for w in base_words]

    # extend maxlen when the off-core part is acyclic: tails become exactly zero
    cyclic = _off_core_cyclic(H, ids)
    if not cyclic:
        maxlen = max(maxlen, H.n_vertices + 1)

    indptr, indices = H.csr
    allowed = np.ones(H.n_vertices, dtype=bool)
    allowed[ids] = False

    loops: list[Loop] = []
    for di, vstart in enumerate(ids, start=1):
        for dj, vend in enumerate(ids, start=1):
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

    off_core = OffCoreData(block_graph=H, block_words=labeling.block_words)
    system = LoopSystem(
        loops=tuple(loops),
        tails=_tails(off_core, ids, cyclic, None, maxlen),
        names=graph.names,
        base_words=base_words,
        off_core=off_core,
    )
    return InducedPresentation(loops=system, offsets=(0, N - 1))


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


def _off_core_cyclic(H: FiniteGraph, ids) -> bool:
    """Whether the block graph minus the loop vertices ``ids`` has a cycle."""
    return bool(recurrent_core((u, v) for u, v in H.edges if u not in ids and v not in ids)[0])


def _tails(oc: OffCoreData, ids: list[int], cyclic: bool, g: FiniteRangePotential | None, start: int):
    """Tail bounds of the first returns past ``start`` between every pair of
    loop vertices, loop vertex i being block ``ids[i - 1]`` (the block of
    ``base_words[i - 1]``), weighted by the future-only potential g when given.

    Exactly zero when the off-core part has no cycle (``cyclic`` is False),
    or when B is zero because its weights underflowed.  Otherwise first
    returns of length n >= 2 factor through the off-core matrix B:
    w_n = out . B^{n-2} . in.  For any positive u, rho = max_i (Bu)_i/u_i
    dominates B's Perron root and B^k in <= c u rho^k entrywise, giving the
    geometric upper bound w_n <= C rho^n.  B and u are shared by all pairs.
    """
    H = oc.block_graph
    pairs = [(i, j) for i in range(1, len(ids) + 1) for j in range(1, len(ids) + 1)]
    zero = {p: TailDescriptor(kind="zero", start=start, src=p[0], dst=p[1]) for p in pairs}
    if not cyclic:
        return tuple(zero.values())
    weights = np.ones(H.n_vertices)
    if g is not None:
        # Each block weighs the largest value of g over the span-words that
        # agree with it on their first min(span, N) symbols.  When span <= N
        # that word is unique and the weight is exact; when g is wider than
        # the blocks, a product of these per-step maxima bounds every path
        # weight, so the tail stays an upper bound.
        N = len(oc.block_words[0])
        top: dict[Word, float] = {}
        for w, v in g.table.items():
            top[w[:N]] = max(top.get(w[:N], -math.inf), float(v))
        weights = np.array([math.exp(top[bw[:g.span]]) for bw in oc.block_words])
    M = H.adjacency.astype(np.float64) * weights[:, None]
    mask = np.ones(H.n_vertices, dtype=bool)
    mask[ids] = False
    B = M[np.ix_(mask, mask)]
    u = np.ones(B.shape[0])
    for _ in range(200):
        nu = B @ u + u
        u = nu / nu.sum()
    outs, ins = [M[v, mask] for v in ids], [M[mask, v] for v in ids]
    for u in (u, np.ones(B.shape[0])):
        # u = 1, whose ratio is B's largest row sum, when an entry of u
        # underflowed (a zero row of B stays put while the others grow) so
        # far that (B u) / u or in / u leaves the float range
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rho = float(np.max((B @ u) / u))
            c_in = [float(np.max(np.where(u > 0, in_w / u, 0.0))) for in_w in ins]
        if rho <= 0.0:
            return tuple(zero.values())  # B is zero: its weights underflowed
        coef = {(i, j): c_in[j - 1] * float(outs[i - 1] @ u) / (rho * rho) * (1.0 + 1e-9)  # float slop
                for i, j in pairs}
        if all(map(math.isfinite, [rho, *coef.values()])):
            break
    return tuple(
        TailDescriptor(kind="geometric", coef=coef[i, j], ratio=rho, start=start, bound="upper", src=i, dst=j)
        if outs[i - 1].any() and ins[j - 1].any() else zero[i, j]
        for i, j in pairs
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
    if len(system.base_words) < max((lp.dst for lp in system.loops), default=1):
        raise PotentialError("labeled loop system needs its base words to lift a potential")
    g = bowen_reduce(f)[0] if f.left > 0 else f
    r = g.span
    loops = []
    for lp in system.loops:
        dst_word = system.base_words[lp.dst - 1]
        if r > len(dst_word) + 1:
            raise PotentialError(
                f"potential span {r} too wide for induction at a word of length {len(dst_word)}"
            )
        # exact, and rounded once for a float table: its bracket is then the
        # float either side (intervals.near)
        total = _window_sum(g, lp.label + dst_word, lp.length)
        loops.append(replace(lp, log_weight=total if g.rational else float(total)))
    if not with_tails:
        return replace(system, loops=tuple(loops))
    oc = system.off_core
    if oc is None:
        raise PotentialError("loop system has no off-core data; bake weights via lift_potential at induction time")
    index = {w: v for v, w in enumerate(oc.block_words)}
    ids = [index[w] for w in system.base_words]
    longest = max((lp.length for lp in system.loops), default=0)
    tails = _tails(oc, ids, _off_core_cyclic(oc.block_graph, ids), g, longest)
    return replace(system, loops=tuple(loops), tails=tails)


def lift_potential(ind: InducedPresentation, f: FiniteRangePotential) -> LoopSystem:
    """The induced loop system with f's Birkhoff weights on its loops, and
    its tail bounds weighted by f too."""
    if ind.loops.names is None:
        raise PotentialError("loop system carries no ambient labels to lift over")
    return _weigh(ind.loops, f, with_tails=True)


# --------------------------------------------------------------------------
# the first-return generating series with rigorous envelopes


def tail_sum(tail: TailDescriptor, z: float, d: int):
    """Bracket ``(lo, hi)`` of sum_{n > start} n^d w_n z^(n-d), d in {0, 1}.

    The tail of F(z) = sum w_n z^n (of F' when d = 1) for the declared
    weights of ``tail``.  None when it diverges; z < 0 is a ValueError.
    Exact for a zero tail, and at z = 0, where only w_1 survives, in F' (up
    to the rounding of coef * ratio).  A geometric tail is its closed form in x = ratio * z, bracketed by
    :mod:`shiftlab.intervals`; it diverges iff ratio * z >= 1, decided
    exactly.  A polynomial tail is a partial sum plus an Euler-Maclaurin
    remainder at z = 1 (:func:`_polynomial_at_one`), and at z < 1 a partial
    sum plus a remainder between a lower and an upper sum over one grid of
    blocks (:func:`_polynomial_inside`).
    """
    if z < 0:
        raise ValueError(f"tail sums are evaluated at z >= 0, got {z}")
    if not tail.positive:
        return iv.ZERO
    c, N = tail.coef, tail.start
    if z == 0:
        # only n = 1 survives, in F': w_1 = coef * ratio or coef
        if not (d and N == 0):
            return iv.ZERO
        return iv.mul((c, c), (tail.ratio, tail.ratio)) if tail.kind == "geometric" else (c, c)
    if tail.kind == "geometric":
        r = tail.ratio
        if Fraction(r) * Fraction(z) >= 1:
            return None
        # sum_{n > N} n^d x^n = x^(N+1) ((N+1) - N x)^d / (1 - x)^(d+1), and x < 1
        # exactly: an upper end of x at 1 or past it, or of log x past 0, is rounding
        x = iv.mul((r, r), (z, z))
        x = (x[0], min(x[1], 1.0))
        log_x = iv.log(x)
        num = iv.mul((c, c), _exp_neg(iv.near(N + 1), (max(-log_x[1], 0.0), -log_x[0])))
        den = iv.sub(iv.ONE, x)
        if d:
            num = iv.div(iv.mul(num, iv.sub(iv.near(N + 1), iv.mul(iv.near(N), x))), (z, z))
            den = iv.mul(den, den)
        return iv.div(num, den)
    q = tail.power
    if z > 1 or (z == 1 and q - d <= 1):
        return None
    return _polynomial_at_one(c, q, N, d) if z == 1 else _polynomial_inside(c, q, N, z, d)


def _exp_neg(a: iv.Interval, b: iv.Interval) -> iv.Interval:
    """exp(-a b) for nonnegative intervals a and b."""
    e = iv.mul(a, b)
    return iv.exp((-e[1], -e[0]))


def _polynomial_at_one(c: float, q: float, N: int, d: int) -> iv.Interval:
    """sum_{n > N} c n^-s with s = q - d > 1.

    The terms below M = max(N + 1, 64), then Euler-Maclaurin from M on: the
    integral M^(1-s) / (s - 1), half of M^-s, and the Bernoulli terms
    B_2k / (2k)! (s)_(2k-1) M^(1-s-2k) for k = 1..3.  x^-s is completely
    monotone, so the rest lies between 0 and the k = 4 term (Olver,
    *Asymptotics and Special Functions*, ch. 8).
    """
    s = (q, q) if d == 0 else iv.sub((q, q), iv.ONE)
    M = max(N + 1, 64)
    m = iv.near(M)
    terms = [_exp_neg(s, iv.log((float(n),) * 2)) for n in range(N + 1, M)]
    m_s = _exp_neg(s, iv.log(m))
    terms += [iv.div(iv.mul(m_s, m), iv.sub(s, iv.ONE)), iv.mul(m_s, (0.5, 0.5))]
    # (2k)! / |B_2k| = 12, 720, 30240, 1209600; the signs alternate, + first
    rise, power, bern = s, iv.div(m_s, m), []
    for k, scale in enumerate((12.0, 720.0, 30240.0, 1209600.0)):
        if k:
            rise = iv.mul(rise, iv.mul(iv.add(s, (2.0 * k - 1,) * 2), iv.add(s, (2.0 * k,) * 2)))
            power = iv.div(power, iv.mul(m, m))
        bern.append(iv.div(iv.mul(rise, power), (scale, scale)))
    hi = iv.sub(iv.fsum(terms + bern[::2]), bern[1])
    lo = iv.sub(hi, bern[3])
    return iv.mul((c, c), (max(lo[0], 0.0), hi[1]))


def _polynomial_inside(c: float, q: float, N: int, z: float, d: int) -> iv.Interval:
    """sum_{n > N} c n^(d-q) z^(n-d) at 0 < z < 1.

    The terms up to M = max(N + 1, 4096), summed in numpy, then the rest.
    Over each block (K_{j-1}, K_j] of the grid K_j = floor(M (33/32)^j),
    n^(d-q) lies between its values at the block's two ends, times the
    block's geometric sum of z^(n-d): a lower and an upper sum.  The grid
    ends once z^(K_J-M) < e^-36, and past K_J the upper end adds
    c (K_J+1)^-q sum_{n > K_J} n^d z^(n-d).  A block is summed from its log,
    which is off by at most 4 eps (its parts' sizes + 2); a log below -700
    counts as 0 in the lower sum and as -700 in the upper one.
    """
    M = max(N + 1, 4096)
    ns = np.arange(N + 1, M + 1, dtype=np.float64)
    partial = float(np.sum(c * ns ** (d - q) * z ** (ns - d)))
    J = math.ceil(math.log1p(36 / ((1 - z) * M)) / math.log1p(1 / 32))
    K = np.floor(M * (33 / 32) ** np.arange(J + 1))
    log_z = math.log(z)
    common = [
        np.full(J, math.log(c)),
        np.full(J, -math.log(1 - z)),
        (K[:-1] + 1 - d) * log_z,
        np.log(-np.expm1(np.diff(K) * log_z)),
    ]
    left, right = (d - q) * np.log(K[:-1]), (d - q) * np.log(K[1:])
    rem = []
    for end, sign in ((np.minimum(left, right), -1), (np.maximum(left, right), 1)):
        parts = np.array(common + [end])
        logs, sizes = parts.sum(axis=0), np.abs(parts).sum(axis=0)
        if sign < 0:
            logs, sizes = logs[logs > -700], sizes[logs > -700]
        blocks = np.exp(np.maximum(logs, -700)) * (1 + sign * 4 * _EPS * (sizes + 2))
        rem.append(float(np.sum(blocks)) * (1 + sign * J * _EPS))
    KJ = K[-1]
    if d:
        past = ((KJ + 1) * z**KJ * (1 - z) + z ** (KJ + 1)) / (1 - z) ** 2
    else:
        past = z ** (KJ + 1) / (1 - z)
    rem_lo, rem_hi = rem[0], rem[1] + c * (KJ + 1) ** -q * past
    slop = 8 * _EPS * (partial + rem_hi + 1e-300)
    return partial + rem_lo - slop, partial + rem_hi + slop


@dataclass
class _SeriesPart:
    explicit: dict[int, iv.Interval]
    tail: TailDescriptor

    def eval(self, z: float, d: int):
        """Bracket of the d-th derivative (d in {0, 1}) at z.

        A divergent F has the upper end inf; a divergent F' gives None.  A
        part with no loops and a zero tail is exactly (0, 0).
        """
        if not self.explicit and not self.tail.positive:
            return iv.ZERO
        # P(z) = sum_n n^d w_n z^(n-1) by Horner; F = z P and F' = P
        head = iv.ZERO
        for n in range(max(self.explicit, default=0), 0, -1):
            head = iv.mul(head, (z, z))
            if n in self.explicit:
                w = self.explicit[n]
                head = iv.add(head, iv.mul((float(n), float(n)), w) if d else w)
        if d == 0:
            head = iv.mul(head, (z, z))
        t = tail_sum(self.tail, z, d)
        if t is None and d:
            return None
        lo, hi = t or (math.inf, math.inf)
        return iv.add(head, (0.0 if self.tail.bound == "upper" else max(lo, 0.0), hi))


_EXCURSION_PARTS = ((1, 2), (2, 1), (2, 2))


@dataclass
class ReturnSeries:
    """Interval-valued F(z) for a loop system, reduced to the first vertex.

    The excursions through vertex 2 fold in as
    ``F = F11 + F12 F21 / (1 - F22)``; for a one-vertex system the last
    three parts are exactly 0 and the fold adds exactly 0.  Every bracket
    is rounded outward by :mod:`shiftlab.intervals`.
    """

    parts: dict[tuple[int, int], _SeriesPart]
    tail_exact: bool
    radius_lower: float

    def F(self, z: float) -> iv.Interval:
        f12, f21, f22 = (self.parts[key].eval(z, 0) for key in _EXCURSION_PARTS)
        return iv.add(self.parts[(1, 1)].eval(z, 0), iv.div(iv.mul(f12, f21), iv.sub(iv.ONE, f22)))

    def Fprime(self, z: float):
        """Bracket of F'(z); None when it diverges (its lower end is inf)."""
        d11 = self.parts[(1, 1)].eval(z, 1)
        if d11 is None:
            return None
        f12, f21, f22 = (self.parts[key].eval(z, 0) for key in _EXCURSION_PARTS)
        d12, d21, d22 = (self.parts[key].eval(z, 1) or (math.inf, math.inf) for key in _EXCURSION_PARTS)
        # (F12 F21 / (1 - F22))' = (F12' F21 + F12 F21') / (1 - F22) + F12 F21 F22' / (1 - F22)^2
        den = iv.sub(iv.ONE, f22)
        lo, hi = iv.add(d11, iv.add(
            iv.div(iv.add(iv.mul(d12, f21), iv.mul(f12, d21)), den),
            iv.div(iv.div(iv.mul(iv.mul(f12, f21), d22), den), den),
        ))
        return None if lo == math.inf else (lo, hi)

    def _root(self, pick_hi: bool):
        """Bracket the smallest z < R with F_env(z) = 1, env = upper or lower,
        by bisection down to adjacent floats; None when env stays below 1.

        Returns the rigorous side: the bisection's upper end when the root
        bounds z* from above (lower envelope), its lower end otherwise.
        """

        def env(z: float) -> float:
            return self.F(z)[1 if pick_hi else 0]

        if math.isinf(self.radius_lower):
            hi = 1.0
            while env(hi) < 1.0:
                hi *= 2.0
                if hi > 1e12:
                    return None
        else:
            hi = math.nextafter(self.radius_lower, 0.0)
            if env(hi) < 1.0:
                return None
        lo = 0.0
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if env(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        # env(lo) < 1 <= env(hi): the envelope's root lies in [lo, hi]
        return lo if pick_hi else hi

    def root_lower(self):
        """A certified lower bound for z* (via the upper envelope)."""
        return self._root(True)

    def root_upper(self):
        """A certified upper bound for z* (via the lower envelope)."""
        return self._root(False)


def return_series(loops: LoopSystem, f: FiniteRangePotential | None = None) -> ReturnSeries:
    """Aggregate explicit loop weights and tails into an evaluable series."""
    weighted = _weigh(loops, f, with_tails=True)
    explicit = _loop_weights(weighted, exact=False)
    tails = {(t.src, t.dst): t for t in weighted.tails}
    parts = {
        key: _SeriesPart(explicit.get(key, {}), tails.get(key, TailDescriptor(kind="zero", src=key[0], dst=key[1])))
        for key in ((1, 1), (1, 2), (2, 1), (2, 2))
    }
    return ReturnSeries(
        parts=parts,
        tail_exact=not any(p.tail.positive and p.tail.bound == "upper" for p in parts.values()),
        radius_lower=min(p.tail.radius() for p in parts.values()),
    )


# --------------------------------------------------------------------------
# partition functions over loop compositions, and the coincidence check


def _loop_weights(system: LoopSystem, exact: bool) -> dict[tuple[int, int], dict]:
    """Per vertex pair and loop length, the total weight count * exp(log_weight)
    of the loops: an ExpSum when ``exact`` (rational weights only), else an
    interval around a log weight that is exact or rounded once.
    """
    out: dict[tuple[int, int], dict] = {}
    if exact:
        if not all(isinstance(lp.log_weight, (Fraction, int)) for lp in system.loops):
            raise ValueError("exact loop composition needs rational weights")
        # one denominator for every weight, so the renewal's sums and products share it
        q = math.lcm(*(Fraction(lp.log_weight).denominator for lp in system.loops))
    for lp in system.loops:
        d = out.setdefault((lp.src, lp.dst), {})
        if exact:
            d.setdefault(lp.length, ExpSum.from_coeffs(q, {})).add_term(lp.log_weight, lp.count)
        else:
            w = iv.mul((float(lp.count),) * 2, iv.exp(iv.near(lp.log_weight)))
            d[lp.length] = iv.add(d.get(lp.length, iv.ZERO), w)
    return out


def _renewal(weights: dict[tuple[int, int], dict], n_max: int, unit, dot) -> dict[int, list]:
    """Weighted counts of the loop chains of each length from vertex 1 to j.

    A closed orbit through the distinguished vertex decomposes uniquely into
    first-return loops, so ``state[j][n] = sum over i, k of state[i][n - k]
    * w_ij(k)``, the sum of products taken by ``dot``.  ``state[j][0]`` is
    ``unit`` for j = 1 and None (nothing) otherwise.
    """
    verts = (1, 2) if any(2 in pair for pair in weights) else (1,)
    state = {j: [unit if j == 1 else None] for j in verts}
    for n in range(1, n_max + 1):
        for j in verts:
            state[j].append(dot(
                (state[i][n - k], w)
                for i in verts
                for k, w in weights.get((i, j), {}).items()
                if k <= n and state[i][n - k]
            ))
    return state


def loop_zn_exact(loops: LoopSystem, f: FiniteRangePotential | None, n_max: int) -> list[ExpSum]:
    """Z_n at the first distinguished vertex via loop compositions, exact.

    The renewal recurrence over the first-return loops, weighted by f when
    given.  Needs rational weights (ValueError otherwise).  Loops longer
    than the explicit ones are not counted, so past the start of a nonzero
    tail each entry is a lower bound.
    """
    weighted = _weigh(loops, f, with_tails=False)
    state = _renewal(_loop_weights(weighted, exact=True), n_max, ExpSum.unit(),
                     lambda pairs: sum((a * b for a, b in pairs), ExpSum()))
    return state[1][1:]


def loop_partition_function(loops: LoopSystem, f: FiniteRangePotential | None, n_max: int):
    """Z_n at the first distinguished vertex for n <= n_max, by the renewal
    recurrence: exact for rational weights, brackets otherwise.

    Past the start s of a tail of positive weight the explicit loops give
    only lower bounds, so the table ends at s, is marked ``truncated_at``
    s + 1 and carries a note saying why.
    """
    from .thermo import PartitionFunctionTable

    if n_max < 0:
        raise ValueError(f"table length n_max = {n_max} must be at least 0")
    covered = loops.covered_length(n_max)
    truncated_at = note = None
    if covered < n_max:
        truncated_at, n_max = covered + 1, covered
        note = f"explicit loops cover lengths <= {covered}; a tail holds the longer loops, so the table ends there"
    weighted = _weigh(loops, f, with_tails=False)
    try:
        zs = loop_zn_exact(weighted, None, n_max)
        entries = {n: zs[n - 1] for n in range(1, n_max + 1)}
        exact = True
    except ValueError:
        state = _renewal(_loop_weights(weighted, exact=False), n_max, iv.ONE,
                         lambda pairs: iv.fsum(iv.mul(a, b) for a, b in pairs))
        entries = {n: iv.midrad(state[1][n]) for n in range(1, n_max + 1)}
        exact = False
    base = loops.base_words[0] if loops.base_words else ()
    return PartitionFunctionTable(
        base_word=base, exact=exact, entries=entries, n_max=n_max, truncated_at=truncated_at, note=note,
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
    covered = ind.loops.covered_length(n_max)
    right = loop_zn_exact(ind.loops, f, n_max)
    rows = []
    ok = True
    for n in range(1, n_max + 1):
        lz = left.zn_exact(n)
        rz = right[n - 1]
        if n > covered:
            # right side misses tail loops, so it must embed in the left multiset
            eq = lz.includes(rz)
        else:
            eq = lz == rz
        ok &= eq
        rows.append((n, repr(lz), repr(rz), eq))
    return ZnCoincidenceReport(rows=tuple(rows), all_equal=ok, inequality_only=covered < n_max)


def phi_injective_on_periodic(ind: InducedPresentation):
    """Distinct loop compositions must spell distinct ambient words.

    Decided on the fiber product of the loop-label automaton (one state per
    loop and position in its label) with itself: two compositions spell one
    word iff a path from (boundary, boundary) back to it passes an
    off-diagonal pair.  Returns (True, None) or (False, (word, (chain,
    chain'))) for the least such word.
    """
    if ind.loops.two_vertex:
        raise ValueError("injectivity check runs on single-word inductions")
    labels = [lp.label for lp in ind.loops.loops if lp.src == 1 and lp.dst == 1 and lp.label is not None]

    def moves(i: int, j: int):
        return [(i, j + 1)] if j + 1 < len(labels[i]) else [(k, 0) for k in range(len(labels))]

    def step(state):
        p, q, split = state
        for p2 in moves(*p):
            letter = labels[p2[0]][p2[1]]
            for q2 in moves(*q):
                if labels[q2[0]][q2[1]] == letter:
                    yield letter, (p2, q2, split or p2 != q2)

    def back_at_boundary(state):
        p, q, split = state
        return split and all(j + 1 == len(labels[i]) for i, j in (p, q))

    starts = [(a[0], ((i, 0), (k, 0), i != k))
              for i, a in enumerate(labels) for k, b in enumerate(labels) if a[0] == b[0]]
    path = least_accepted_path(starts, step, back_at_boundary)
    if path is None:
        return True, None
    word = tuple(labels[i][j] for (i, j), _, _ in path)
    chains = tuple(tuple(state[side][0] for state in path if state[side][1] == 0) for side in (0, 1))
    return False, (word, chains)
