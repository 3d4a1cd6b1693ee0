"""One-block codes, magic-word certification, and measure transport.

A magic word pins down preimages: between two of its occurrences in the
image, every preimage path must agree on an offset window.  Certification is
exhaustive to a declared depth; refutations carry a concrete witness pair.
The induced point map gamma is computed by constraint propagation over the
fiber of the code, and measures move across it either in closed form (when
both legs of an almost isomorphism are block conjugacies) or by seeded orbit
sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .graphs import (
    BlockLabeling,
    FiniteGraph,
    FinitePresentation,
    GraphError,
    PeriodicPoint,
    Word,
)
from .potentials import FiniteRangePotential, PotentialError
from .thermo import MarkovMeasure


class CodeError(ValueError):
    pass


class DomainError(ValueError):
    """Point outside the domain of the induced map (never sees the magic word)."""


@dataclass(frozen=True)
class OneBlockCode:
    """A symbol map inducing a sliding map between presentations."""

    source: FiniteGraph
    target: FiniteGraph
    symbol_map: tuple[int, ...]
    conjugacy_window: int | None = None  # block length when this is a block labeling

    def __post_init__(self):
        if len(self.symbol_map) != self.source.n_vertices:
            raise CodeError("symbol map must be total on the source alphabet")
        if any(not (0 <= t < self.target.n_vertices) for t in self.symbol_map):
            raise CodeError("symbol map hits letters outside the target alphabet")
        for u, v in self.source.edges:
            if not self.target.has_edge(self.symbol_map[u], self.symbol_map[v]):
                raise CodeError(
                    f"image of source edge ({u},{v}) is not a target edge"
                )

    def apply_word(self, word) -> Word:
        return tuple(self.symbol_map[s] for s in word)

    def apply(self, x):
        """Image of a word or periodic point, symbol by symbol."""
        if isinstance(x, PeriodicPoint):
            if not self.source.is_word(x.word) or not self.source.has_edge(x.word[-1], x.word[0]):
                raise CodeError("point is not admissible in the source")
            return PeriodicPoint(self.apply_word(x.word))
        if not self.source.is_word(tuple(x)):
            raise CodeError("word is not admissible in the source")
        return self.apply_word(x)

    def fibers(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.target.n_vertices)]
        for s, t in enumerate(self.symbol_map):
            out[t].append(s)
        return out


def labeling_code(block_graph: FiniteGraph, labeling: BlockLabeling, base: FiniteGraph) -> OneBlockCode:
    """The one-block code a higher-block labeling defines (a conjugacy)."""
    return OneBlockCode(
        source=block_graph,
        target=base,
        symbol_map=labeling.symbol_map,
        conjugacy_window=labeling.block_length,
    )


# --------------------------------------------------------------------------
# magic words


@dataclass(frozen=True)
class MagicWordCertificate:
    word: Word
    offset: int
    depth: int  # achieved depth; less than requested when the budget ran out
    status: str  # certified | refuted
    witness: tuple[Word, Word, Word] | None = None  # (C, u, u')
    periodic_failure: Word | None = None  # periodic image word with no preimage
    requested_depth: int | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def truncated(self) -> bool:
        return self.requested_depth is not None and self.depth < self.requested_depth


def _supported_letters(code: OneBlockCode, image: Word) -> list[list[int]] | None:
    """Per-position source letters lying on some preimage path of ``image``.

    Forward/backward reachability over the fiber automaton; None when the
    image has no preimage path at all.
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


def _some_preimage(code: OneBlockCode, image: Word) -> Word | None:
    support = _supported_letters(code, image)
    if support is None:
        return None
    out = [support[0][0]]
    for i in range(1, len(image)):
        nxt = next(s for s in support[i] if code.source.has_edge(out[-1], s))
        out.append(nxt)
    return tuple(out)


def _two_preimages_differing_at(code: OneBlockCode, image: Word, pos: int) -> tuple[Word, Word]:
    """Two preimage paths of ``image`` that differ at position ``pos``."""
    support = _supported_letters(code, image)
    assert support is not None and len(support[pos]) >= 2
    picks = (support[pos][0], support[pos][1])
    outs = []
    for letter in picks:
        # greedy path through the support forced to ``letter`` at pos
        path = [letter]
        for i in range(pos - 1, -1, -1):
            prev = next(s for s in support[i] if code.source.has_edge(s, path[0]))
            path.insert(0, prev)
        for i in range(pos + 1, len(image)):
            nxt = next(s for s in support[i] if code.source.has_edge(path[-1], s))
            path.append(nxt)
        outs.append(tuple(path))
    return outs[0], outs[1]


def _periodic_words_containing(g: FiniteGraph, W: Word, period: int):
    from .graphs import enumerate_periodic

    for pt in enumerate_periodic(g, period):
        doubled = pt.word * ((len(W) + period) // period + 1)
        if any(doubled[i:i + len(W)] == W for i in range(period)):
            yield pt.word


def _has_periodic_preimage(code: OneBlockCode, word: Word) -> bool:
    """Does the periodic target point of this cyclic word lift to the source?

    Equivalent to a cycle in the phase-extended fiber graph.
    """
    p = len(word)
    fibers = code.fibers()
    nodes = [(t, s) for t in range(p) for s in fibers[word[t]]]
    idx = {node: i for i, node in enumerate(nodes)}
    edges = []
    for (t, s) in nodes:
        for s2 in fibers[word[(t + 1) % p]]:
            if code.source.has_edge(s, s2):
                edges.append((idx[(t, s)], idx[(t + 1) % p, s2]))
    if not nodes or not edges:
        return False
    adj = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for a, b in edges:
        adj[a, b] = True
    power = adj.astype(np.int64)
    a64 = adj.astype(np.int64)
    for _ in range(len(nodes)):
        if power.trace() > 0:
            return True
        power = np.clip(power @ a64, 0, 1)
    return False


def verify_magic(
    code: OneBlockCode, W, offset: int, depth: int, budget: int = 1_000_000
) -> MagicWordCertificate:
    """Exhaustively check the magic-word conditions to the given depth.

    For every target word C with |C| <= depth such that W C W is admissible,
    all source paths presenting W C W must agree on the window of length
    |W| + |C| at ``offset``; and every target periodic point containing W of
    period <= depth + 2|W| must have a source preimage.  Returns a
    certificate or a refutation with the first violating pair.  ``budget``
    caps the combinatorial work; if it runs out, the certificate reports the
    depth actually completed.
    """
    W = tuple(int(s) for s in W)
    if not W or not code.target.is_word(W):
        raise CodeError("magic word candidate must be a nonempty target word")
    if not (0 <= offset <= len(W)):
        raise CodeError("offset must lie in [0, |W|] so the window is determined")
    spent = 0
    achieved = depth
    for d in range(0, depth + 1):
        gaps: list[Word] = [()] if d == 0 else code.target.words(d)
        spent += sum(2 * len(W) + d for _ in gaps)
        if spent > budget:
            achieved = d - 1
            break
        for C in gaps:
            image = W + C + W
            if not code.target.is_word(image):
                continue
            support = _supported_letters(code, image)
            if support is None:
                continue
            for i in range(offset, offset + len(W) + len(C)):
                if len(support[i]) > 1:
                    u, v = _two_preimages_differing_at(code, image, i)
                    return MagicWordCertificate(
                        word=W, offset=offset, depth=d, status="refuted",
                        witness=(C, u, v), requested_depth=depth,
                    )
    for p in range(1, achieved + 2 * len(W) + 1):
        for cyc in _periodic_words_containing(code.target, W, p):
            if not _has_periodic_preimage(code, cyc):
                return MagicWordCertificate(
                    word=W, offset=offset, depth=achieved, status="refuted",
                    periodic_failure=cyc, requested_depth=depth,
                )
    return MagicWordCertificate(
        word=W, offset=offset, depth=achieved, status="certified", requested_depth=depth
    )


# --------------------------------------------------------------------------
# almost isomorphisms and the induced point map


@dataclass(frozen=True)
class AlmostIsomorphism:
    """Common extension R with injective magic-word codes onto S and T."""

    code_s: OneBlockCode
    code_t: OneBlockCode
    cert_s: MagicWordCertificate
    cert_t: MagicWordCertificate

    def __post_init__(self):
        if self.code_s.source is not self.code_t.source:
            if (self.code_s.source.names != self.code_t.source.names
                    or self.code_s.source.edges != self.code_t.source.edges):
                raise CodeError("both codes must share the common source shift")
        for cert in (self.cert_s, self.cert_t):
            if not cert.certified:
                raise CodeError("cannot assemble an almost isomorphism from a refuted certificate")
            if cert.truncated:
                raise CodeError("certificate was truncated below its requested depth; re-verify with a larger budget")

    @property
    def common(self) -> FiniteGraph:
        return self.code_s.source

    @property
    def conjugate_legs(self) -> bool:
        return (self.code_s.conjugacy_window is not None
                and self.code_t.conjugacy_window is not None)


def assemble_ai(code_s, code_t, cert_s, cert_t) -> AlmostIsomorphism:
    return AlmostIsomorphism(code_s=code_s, code_t=code_t, cert_s=cert_s, cert_t=cert_t)


@dataclass(frozen=True)
class EventuallyPeriodicPoint:
    """left^inf . core . right^inf, the core occupying [core_start, core_start + len(core))."""

    left: Word
    core: Word
    right: Word
    core_start: int = 0

    def __post_init__(self):
        if not self.left or not self.right:
            raise ValueError("both periodic tails must be nonempty words")

    def sample(self, i: int) -> int:
        j = i - self.core_start
        c = len(self.core)
        if 0 <= j < c:
            return self.core[j]
        if j < 0:
            return self.left[j % len(self.left)]
        return self.right[(j - c) % len(self.right)]

    @property
    def core_end(self) -> int:
        return self.core_start + len(self.core)

    def window(self, a: int, b: int) -> Word:
        return tuple(self.sample(i) for i in range(a, b))

    def validate(self, g: FiniteGraph) -> None:
        a = self.core_start - 2 * len(self.left) - 1
        b = self.core_end + 2 * len(self.right) + 1
        for i in range(a, b - 1):
            if not g.has_edge(self.sample(i), self.sample(i + 1)):
                raise GraphError(f"inadmissible step at index {i}")


def from_periodic(pt: PeriodicPoint) -> EventuallyPeriodicPoint:
    return EventuallyPeriodicPoint(left=pt.word, core=(), right=pt.word)


def shift_point(x: EventuallyPeriodicPoint, k: int = 1) -> EventuallyPeriodicPoint:
    """The shifted point: sample(i) of the result equals x.sample(i + k)."""
    return EventuallyPeriodicPoint(
        left=x.left, core=x.core, right=x.right, core_start=x.core_start - k
    )


def points_equal(x: EventuallyPeriodicPoint, y: EventuallyPeriodicPoint) -> bool:
    """Exact equality, decided on a window long enough for both periodicities."""
    L = math.lcm(len(x.left), len(y.left))
    R = math.lcm(len(x.right), len(y.right))
    a = min(x.core_start, y.core_start) - L - 1
    b = max(x.core_end, y.core_end) + R + 1
    return x.window(a, b) == y.window(a, b)


def _occurrences(x: EventuallyPeriodicPoint, W: Word, a: int, b: int) -> list[int]:
    return [i for i in range(a, b - len(W) + 1) if x.window(i, i + len(W)) == W]


def gamma_on_point(ai: AlmostIsomorphism, x: EventuallyPeriodicPoint) -> EventuallyPeriodicPoint:
    """Push a point of S seeing the magic word through the almost isomorphism.

    The phi_S-preimage is pinned between consecutive magic-word occurrences
    by the certificate window, then phi_T maps it onward.  Points whose
    periodic tails never show the magic word are outside the domain.  The
    image keeps the tail periods; its core widens to absorb the zone where
    the preimage still feels the original core.
    """
    W, I = ai.cert_s.word, ai.cert_s.offset
    S = ai.code_s.target
    x.validate(S)
    lw = len(W)
    Lp, Rp = len(x.left), len(x.right)
    cs, ce = x.core_start, x.core_end
    if not _occurrences(x, W, cs - 3 * Lp - 2 * lw, cs - lw + 1):
        raise DomainError("left periodic tail never shows the magic word")
    if not _occurrences(x, W, ce, ce + 3 * Rp + 2 * lw):
        raise DomainError("right periodic tail never shows the magic word")

    margin = 4 * (Lp + Rp + lw + abs(I) + len(x.core) + 2)
    for _attempt in range(4):
        a0, b0 = cs - margin, ce + margin
        occ = _occurrences(x, W, a0, b0)
        z_letters: dict[int, int] = {}
        for a, b in zip(occ, occ[1:]):
            image = x.window(a, b + lw)
            support = _supported_letters(ai.code_s, image)
            if support is None:
                raise CodeError("image window has no preimage (magic condition 1 violated)")
            for j in range(I, I + (b - a)):
                if len(support[j]) != 1:
                    raise CodeError(
                        "preimage window not pinned; magic property fails beyond the certified depth"
                    )
                pos = a + j
                letter = support[j][0]
                if pos in z_letters and z_letters[pos] != letter:
                    raise CodeError("inconsistent preimage windows")
                z_letters[pos] = letter
        lo, hi = occ[0] + I, occ[-1] + I
        gaps = max((b - a for a, b in zip(occ, occ[1:])), default=margin)
        K_l = cs - (gaps + lw + abs(I) + 2 * Lp)  # widened core start
        K_r = ce + (gaps + lw + abs(I) + 2 * Rp)  # widened core end
        if lo <= K_l - 3 * Lp and hi >= K_r + 3 * Rp:
            break
        margin *= 2
    else:
        raise CodeError("could not cover the point with preimage windows")

    tmap = ai.code_t.symbol_map
    y_at = {i: tmap[z_letters[i]] for i in range(lo, hi)}
    for i in range(K_l - 2 * Lp, K_l):
        if y_at[i] != y_at[i - Lp]:
            raise CodeError("image failed to inherit the left period")
    for i in range(K_r, K_r + 2 * Rp):
        if y_at[i] != y_at[i + Rp]:
            raise CodeError("image failed to inherit the right period")
    y = EventuallyPeriodicPoint(
        left=tuple(y_at[i] for i in range(K_l - Lp, K_l)),
        core=tuple(y_at[i] for i in range(K_l, K_r)),
        right=tuple(y_at[i] for i in range(K_r, K_r + Rp)),
        core_start=K_l,
    )
    y.validate(ai.code_t.target)
    return y


# --------------------------------------------------------------------------
# measure transport


@dataclass(frozen=True)
class TransportReport:
    measure: MarkovMeasure
    method: str  # closed-form | sampling
    entropy_in: float
    entropy_out: float
    tv_gap: float | None = None
    seed: int | None = None
    samples: int | None = None
    confidence_width: float | None = None


def _gamma_symbol_window(ai: AlmostIsomorphism) -> int:
    assert ai.conjugate_legs
    return ai.code_s.conjugacy_window


def _sliding_gamma(ai: AlmostIsomorphism):
    """gamma as a sliding word map for conjugate legs: window width and letter map."""
    Ns = _gamma_symbol_window(ai)
    blocks = {bw: i for i, bw in enumerate(_block_words(ai.code_s))}
    tmap = ai.code_t.symbol_map

    def apply(w: Word) -> Word:
        return tuple(tmap[blocks[w[j:j + Ns]]] for j in range(len(w) - Ns + 1))

    return Ns, apply


def _block_words(code: OneBlockCode) -> list[Word]:
    """Reconstruct the block words a conjugacy labeling code encodes.

    In the block graph every successor of s carries the block shifted by
    one, so following any successor chain and reading the labels spells out
    the block word of s.
    """
    N = code.conjugacy_window
    assert N is not None
    words = []
    for s in range(code.source.n_vertices):
        cur = s
        word = [code.symbol_map[cur]]
        for _ in range(N - 1):
            cur = int(code.source.successors(cur)[0])
            word.append(code.symbol_map[cur])
        words.append(tuple(word))
    return words


def _markovize(graph: FiniteGraph, order: int, qk: dict[Word, float], qk1: dict[Word, float]) -> tuple[MarkovMeasure, float]:
    blocks = tuple(sorted(w for w, p in qk.items() if p > 0))
    idx = {w: i for i, w in enumerate(blocks)}
    P = np.zeros((len(blocks), len(blocks)))
    for w, p in qk1.items():
        if p <= 0:
            continue
        u, v = w[:-1], w[1:]
        if u in idx and v in idx:
            P[idx[u], idx[v]] += p
    rows = P.sum(axis=1)
    if np.any(rows <= 0):
        raise ValueError("degenerate block distribution; cannot markovize")
    P = P / rows[:, None]
    pi = np.array([qk[w] for w in blocks])
    pi = pi / pi.sum()
    # project onto the stationary vector of P so the invariance contract holds
    damp = 0.5 * (P + np.eye(P.shape[0]))
    for _ in range(200_000):
        nxt = pi @ damp
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) < 1e-16:
            pi = nxt
            break
        pi = nxt
    mu = MarkovMeasure(graph=graph, order=order, blocks=blocks, transitions=P, stationary=pi)
    model_qk1 = {}
    for i, u in enumerate(blocks):
        for j in np.nonzero(P[i] > 0)[0]:
            v = blocks[j]
            model_qk1[u + (v[-1],)] = pi[i] * P[i, j]
    keys = set(model_qk1) | {w for w, p in qk1.items() if p > 0}
    tv = 0.5 * sum(abs(model_qk1.get(w, 0.0) - qk1.get(w, 0.0)) for w in keys)
    return mu, tv


def transport_measure(
    ai: AlmostIsomorphism,
    mu: MarkovMeasure,
    order: int,
    samples: int | None = None,
    seed: int | None = None,
) -> TransportReport:
    """Move a fully supported Markov measure across the almost isomorphism.

    Closed form (exact block recoding) when both legs are conjugacies and no
    sample budget is forced; otherwise seeded orbit sampling through the
    magic-word windows.  Sampling requires an explicit seed.
    """
    S = ai.code_s.target
    if mu.graph.names != S.names or mu.graph.edges != S.edges:
        raise CodeError("measure does not live on the S leg of the almost isomorphism")
    if not mu.fully_supported():
        raise CodeError("transport is defined for fully supported measures")
    if samples is None and ai.conjugate_legs:
        return _transport_closed_form(ai, mu, order)
    if samples is None:
        raise CodeError("non-conjugate legs need a sampling budget and seed")
    if seed is None:
        raise CodeError("sampling transport requires an explicit seed")
    return _transport_sampling(ai, mu, order, samples, seed)


def _transport_closed_form(ai: AlmostIsomorphism, mu: MarkovMeasure, order: int) -> TransportReport:
    Ns, gamma_word = _sliding_gamma(ai)
    T = ai.code_t.target
    qk: dict[Word, float] = {}
    for w, p in mu.word_distribution(order + Ns - 1).items():
        y = gamma_word(w)
        qk[y] = qk.get(y, 0.0) + p
    qk1: dict[Word, float] = {}
    for w, p in mu.word_distribution(order + Ns).items():
        y = gamma_word(w)
        qk1[y] = qk1.get(y, 0.0) + p
    out, tv = _markovize(T, order, qk, qk1)
    return TransportReport(
        measure=out,
        method="closed-form",
        entropy_in=mu.entropy(),
        entropy_out=out.entropy(),
        tv_gap=tv,
    )


def _sample_orbit_word(mu: MarkovMeasure, n_steps: int, rng: np.random.Generator) -> Word:
    cum = np.cumsum(mu.transitions, axis=1)
    start = int(np.searchsorted(np.cumsum(mu.stationary), rng.random(), side="right"))
    start = min(start, len(mu.blocks) - 1)
    uniforms = rng.random(n_steps)
    states = kernels.step_chain(cum, start, uniforms)
    word = list(mu.blocks[states[0]])
    for t in range(1, len(states)):
        word.append(mu.blocks[states[t]][-1])
    return tuple(word)


def _gamma_finite_word(ai: AlmostIsomorphism, word: Word) -> Word:
    """gamma along a finite orbit segment, trimmed to the determined window."""
    W, I = ai.cert_s.word, ai.cert_s.offset
    lw = len(W)
    occ = [i for i in range(len(word) - lw + 1) if word[i:i + lw] == W]
    if len(occ) < 2:
        raise DomainError("orbit sample too short to pin the magic word twice")
    a, b = occ[0], occ[-1]
    image = word[a:b + lw]
    support = _supported_letters(ai.code_s, image)
    if support is None:
        raise CodeError("sampled window has no preimage")
    tmap = ai.code_t.symbol_map
    out = []
    for j in range(I, I + (b - a)):
        if len(support[j]) != 1:
            raise CodeError("sampled window not pinned by the magic word")
        out.append(tmap[support[j][0]])
    return tuple(out)


def _transport_sampling(
    ai: AlmostIsomorphism, mu: MarkovMeasure, order: int, samples: int, seed: int
) -> TransportReport:
    rng = np.random.default_rng(seed)
    word = _sample_orbit_word(mu, samples, rng)
    y = _gamma_finite_word(ai, word)
    if len(y) < order + 1:
        raise ValueError("sampling budget too small to observe any block")
    qk: dict[Word, float] = {}
    qk1: dict[Word, float] = {}
    n_k = len(y) - order + 1
    for j in range(n_k):
        w = y[j:j + order]
        qk[w] = qk.get(w, 0.0) + 1.0 / n_k
    n_k1 = len(y) - order
    for j in range(n_k1):
        w = y[j:j + order + 1]
        qk1[w] = qk1.get(w, 0.0) + 1.0 / n_k1
    out, tv = _markovize(ai.code_t.target, order, qk, qk1)
    # Wilson score half-width (Wilson, JASA 22, 1927): unlike the Wald width
    # it stays positive when every sampled block is the same word (p = 1).
    # A sum of 1/n_k1 terms can round above 1; the variance is clamped at 0
    # rather than re-summed, so the sampled frequencies stay as computed.
    z2 = 1.96**2
    width = max(
        1.96 / (1 + z2 / n_k1) * math.sqrt(max(p * (1 - p), 0.0) / n_k1 + z2 / (4 * n_k1**2))
        for p in qk1.values()
    )
    return TransportReport(
        measure=out,
        method="sampling",
        entropy_in=mu.entropy(),
        entropy_out=out.entropy(),
        tv_gap=tv,
        seed=seed,
        samples=samples,
        confidence_width=width,
    )


# --------------------------------------------------------------------------
# correspondence verification


@dataclass(frozen=True)
class CorrespondenceReport:
    pressure_s: float
    pressure_t: float
    pressure_gap: float
    pressure_tolerance: float
    witnesses_checked: int
    first_failure: tuple[Word, int] | None
    measure_block_gap: float | None
    passed: bool


def _point_value(f: FiniteRangePotential, x: EventuallyPeriodicPoint, k: int):
    window = tuple(x.sample(k - f.left + i) for i in range(f.span))
    return f.table[window]


def verify_correspondence(
    ai: AlmostIsomorphism,
    f: FiniteRangePotential,
    g: FiniteRangePotential,
    n_max: int = 10,
    tol: float = 1e-9,
) -> CorrespondenceReport:
    """Check that 'g corresponds to f' across the almost isomorphism.

    Three layers: g(gamma x) = f(x) on every eventually periodic witness of
    period <= n_max seeing the magic word; pressures agree within spectral
    tolerances; and the transported equilibrium measure of f matches the
    equilibrium measure of g block by block.
    """
    from .graphs import enumerate_periodic
    from .thermo import equilibrium_measure, pressure_spectral

    S, T = ai.code_s.target, ai.code_t.target
    if f.graph.names != S.names or g.graph.names != T.names:
        raise PotentialError("potentials must live on the two legs of the almost isomorphism")
    ps = pressure_spectral(S, f)
    pt = pressure_spectral(T, g)
    gap = abs(ps.value - pt.value)
    p_tol = ps.error + pt.error + tol

    W = ai.cert_s.word
    checked = 0
    failure = None
    exact = f.rational and g.rational
    for p in range(1, n_max + 1):
        for x0 in enumerate_periodic(S, p):
            doubled = x0.word * ((len(W) + p) // p + 1)
            if not any(doubled[i:i + len(W)] == W for i in range(p)):
                continue
            x = from_periodic(x0)
            y = gamma_on_point(ai, x)
            for k in range(p):
                fv = _point_value(f, x, k)
                gv = _point_value(g, y, k)
                ok = (fv == gv) if exact else abs(float(fv) - float(gv)) <= 1e-12
                checked += 1
                if not ok and failure is None:
                    failure = (x0.word, k)
    mu_f = equilibrium_measure(S, f)
    mu_g = equilibrium_measure(T, g)
    order = max(mu_f.order, mu_g.order)
    block_gap = None
    if ai.conjugate_legs:
        moved = transport_measure(ai, mu_f, order=order).measure
        dist_m = moved.word_distribution(order + 1)
        dist_g = mu_g.word_distribution(order + 1)
        keys = set(dist_m) | set(dist_g)
        block_gap = max(abs(dist_m.get(w, 0.0) - dist_g.get(w, 0.0)) for w in keys)
    passed = (gap <= p_tol) and failure is None and (block_gap is None or block_gap <= tol)
    return CorrespondenceReport(
        pressure_s=ps.value,
        pressure_t=pt.value,
        pressure_gap=gap,
        pressure_tolerance=p_tol,
        witnesses_checked=checked,
        first_failure=failure,
        measure_block_gap=block_gap,
        passed=passed,
    )
