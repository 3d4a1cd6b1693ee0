"""One-block codes, magic-word certification, and measure transport.

A magic word pins down preimages: between two of its occurrences in the
image, every preimage path must agree on an offset window.  Certification is
exhaustive to a declared depth; refutations carry a concrete witness pair.
The induced point map gamma = phi_T o phi_S^-1 is computed by one
forward-backward constraint pass over the fiber of phi_S between the first
and last magic-word occurrence.  Measures move across it in closed form when
phi_S is a block conjugacy, whatever phi_T is (gamma is then a sliding block
map), and otherwise by seeded orbit sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .graphs import (
    BlockLabeling,
    FiniteGraph,
    GraphError,
    PeriodicPoint,
    Word,
    enumerate_periodic,
)
from .potentials import FiniteRangePotential, PotentialError
from .thermo import MarkovMeasure, stationary_vector


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
        if self.conjugacy_window is not None:
            self._check_block_labeling()

    def _check_block_labeling(self) -> None:
        """Reject a conjugacy window unless this code is that block labeling.

        The N-block labeling sends each N-block of the target to its first
        letter.  So the source letters must spell distinct admissible
        N-words, every source edge must join overlapping blocks, and the
        target must have as many N-words as the source has letters and as
        many (N+1)-words as it has edges.  A labeling of a target that is
        not one cycle has more N-blocks than N, so N is at most the number
        of source letters.
        """
        N, V = self.conjugacy_window, self.source.n_vertices
        if not 1 <= N <= V:
            raise CodeError(f"conjugacy window must lie in [1, {V}], got {N}")
        words = self._block_words
        if len(set(words)) != V or not all(self.target.is_word(w) for w in words):
            raise CodeError(f"source letters do not spell distinct {N}-blocks of the target")
        if any(words[u][1:] != words[v][:-1] for u, v in self.source.edges):
            raise CodeError(f"a source edge joins {N}-blocks that do not overlap")
        ends = [1] * self.target.n_vertices  # paths of k letters ending at each vertex
        counts = []
        for _ in range(N + 1):
            counts.append(sum(ends))
            nxt = [0] * len(ends)
            for u, v in self.target.edges:
                nxt[v] += ends[u]
            ends = nxt
        if (counts[N - 1], counts[N]) != (V, len(self.source.edges)):
            raise CodeError(f"source is not the {N}-block graph of the target")

    @cached_property
    def _block_words(self) -> tuple[Word, ...]:
        """The word each source letter spells along any chain of successors.

        In a block graph every successor of s carries the block shifted by
        one, so these are the block words of a conjugacy labeling.
        """
        N = self.conjugacy_window
        assert N is not None
        words = []
        for s in range(self.source.n_vertices):
            cur = s
            word = [self.symbol_map[cur]]
            for _ in range(N - 1):
                cur = int(self.source.successors(cur)[0])
                word.append(self.symbol_map[cur])
            words.append(tuple(word))
        return tuple(words)

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

    @cached_property
    def _fiber_masks(self) -> tuple[int, ...]:
        """Per target letter, the bitmask of the source letters over it."""
        out = [0] * self.target.n_vertices
        for s, t in enumerate(self.symbol_map):
            out[t] |= 1 << s
        return tuple(out)

    @cached_property
    def _edge_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per source letter, the bitmasks of its successors and of its predecessors."""
        succ = [0] * self.source.n_vertices
        pred = [0] * self.source.n_vertices
        for u, v in self.source.edges:
            succ[u] |= 1 << v
            pred[v] |= 1 << u
        return tuple(succ), tuple(pred)


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


class _MaskUnion(dict):
    """Memoised union of per-letter bitmasks over the letters set in a mask."""

    def __init__(self, per_letter: tuple[int, ...]):
        super().__init__()
        self.per_letter = per_letter

    def __missing__(self, mask: int) -> int:
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            out |= self.per_letter[low.bit_length() - 1]
            rest ^= low
        self[mask] = out
        return out


def _letters(mask: int) -> list[int]:
    """The letters set in a bitmask, ascending."""
    return [s for s in range(mask.bit_length()) if mask >> s & 1]


def _supported_letters(code: OneBlockCode, image) -> list[int] | None:
    """Per-position bitmasks of the source letters on some preimage path of ``image``.

    Bit s of entry i is set iff some preimage path has letter s at position
    i.  Forward/backward reachability over the fiber automaton, one mask
    per position; None when the image has no preimage path at all.
    """
    fiber = code._fiber_masks
    succ_masks, pred_masks = code._edge_masks
    succ, pred = _MaskUnion(succ_masks), _MaskUnion(pred_masks)
    cur = fiber[image[0]]
    if not cur:
        return None
    masks = [cur]
    for i in range(1, len(image)):
        cur = succ[cur] & fiber[image[i]]
        if not cur:
            return None
        masks.append(cur)
    # every letter left at the end lies on a path; keep its ancestors
    for i in range(len(masks) - 2, -1, -1):
        cur = masks[i] & pred[cur]
        masks[i] = cur
    return masks


def _two_preimages_differing_at(code: OneBlockCode, image: Word, pos: int) -> tuple[Word, Word]:
    """Two preimage paths of ``image`` that differ at position ``pos``."""
    masks = _supported_letters(code, image)
    assert masks is not None
    support = [_letters(m) for m in masks]
    assert len(support[pos]) >= 2
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


def _periodic_points_containing(g: FiniteGraph, W: Word, period: int):
    """The points of ``g`` with least period dividing ``period`` whose orbit shows W."""
    for pt in enumerate_periodic(g, period):
        doubled = pt.word * ((len(W) + period) // period + 1)
        if any(doubled[i:i + len(W)] == W for i in range(period)):
            yield pt


def _has_periodic_preimage(code: OneBlockCode, word: Word) -> bool:
    """Does the periodic target point of this cyclic word lift to the source?

    Going once around the word maps a set of source letters over word[0]
    to the letters over word[0] that some preimage path from the set
    reaches.  Starting from the whole fiber, the sets shrink until they stop
    changing; the letters left lie on a cycle of preimage paths, that is, on
    a periodic lift, and every such lift keeps its letters in every set.
    """
    fiber = code._fiber_masks
    succ = _MaskUnion(code._edge_masks[0])
    cyclic = word[1:] + word[:1]
    mask, prev = fiber[word[0]], -1
    while mask and mask != prev:
        prev = mask
        for t in cyclic:
            mask = succ[mask] & fiber[t]
    return bool(mask)


def verify_magic(
    code: OneBlockCode, W, offset: int, depth: int, budget: int = 1_000_000
) -> MagicWordCertificate:
    """Exhaustively check the magic-word conditions to the given depth.

    For every target word C with |C| <= depth such that W C W is admissible,
    all source paths presenting W C W must agree on the window of length
    |W| + |C| at ``offset``; and every target periodic point containing W of
    period <= depth + 2|W| must have a source preimage.  Returns a
    certificate or a refutation with the first violating pair.  ``budget``
    caps the combinatorial work, counted in letters of the gap words and
    periodic points checked; if it runs out, the certificate reports the
    depth actually completed.
    """
    W = tuple(int(s) for s in W)
    if not W or not code.target.is_word(W):
        raise CodeError("magic word candidate must be a nonempty target word")
    if not (0 <= offset <= len(W)):
        raise CodeError("offset must lie in [0, |W|] so the window is determined")
    if depth < 0:
        raise CodeError(f"depth must be nonnegative, got {depth}")
    spent = 0
    achieved = depth
    for d in range(0, depth + 1):
        gaps: list[Word] = [()] if d == 0 else code.target.words(d)
        cost = len(gaps) * (2 * len(W) + d)
        if spent + cost > budget:
            achieved = d - 1
            break
        spent += cost
        for C in gaps:
            image = W + C + W
            if not code.target.is_word(image):
                continue
            masks = _supported_letters(code, image)
            if masks is None:
                continue
            for i in range(offset, offset + len(W) + len(C)):
                if masks[i] & (masks[i] - 1):
                    u, v = _two_preimages_differing_at(code, image, i)
                    return MagicWordCertificate(
                        word=W, offset=offset, depth=d, status="refuted",
                        witness=(C, u, v), requested_depth=depth,
                    )
    for p in range(1, achieved + 2 * len(W) + 1):
        points = list(_periodic_points_containing(code.target, W, p))
        if spent + p * len(points) > budget:
            # periods below p are checked, which covers this smaller depth
            achieved = p - 1 - 2 * len(W)
            break
        spent += p * len(points)
        for pt in points:
            if not _has_periodic_preimage(code, pt.word):
                return MagicWordCertificate(
                    word=W, offset=offset, depth=achieved, status="refuted",
                    periodic_failure=pt.word, requested_depth=depth,
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
        if self.code_s.source != self.code_t.source:
            raise CodeError("both codes must share the common source shift")
        for cert in (self.cert_s, self.cert_t):
            if not cert.certified:
                raise CodeError("cannot assemble an almost isomorphism from a refuted certificate")
            if cert.truncated:
                raise CodeError("certificate was truncated below its requested depth; re-verify with a larger budget")

    @property
    def common(self) -> FiniteGraph:
        return self.code_s.source


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


def _occurrences_in(seq, W: Word) -> np.ndarray:
    """Start indices of the occurrences of W in a materialised sequence, ascending."""
    seq = np.asarray(seq)
    n = seq.shape[0] - len(W) + 1
    if n <= 0:
        return np.empty(0, dtype=np.intp)
    hit = seq[:n] == W[0]
    for k in range(1, len(W)):
        hit &= seq[k:k + n] == W[k]
    return np.flatnonzero(hit)


def _pinned_gamma(ai: AlmostIsomorphism, image) -> list[int]:
    """gamma on [I, len(image) - |W| + I) of an S-word that starts and ends with W.

    One forward-backward mask pass over the fiber of phi_S pins the preimage
    there (every pinned letter is forced for all preimages); phi_T maps it.
    """
    W, I = ai.cert_s.word, ai.cert_s.offset
    masks = _supported_letters(ai.code_s, image)
    if masks is None:
        raise CodeError("image window has no preimage (magic condition 1 violated)")
    window = masks[I:I + len(image) - len(W)]
    tmap = ai.code_t.symbol_map
    image_of = {m: tmap[m.bit_length() - 1] for m in set(window)}
    if any(m & (m - 1) for m in image_of):
        raise CodeError("preimage window not pinned; magic property fails beyond the certified depth")
    return list(map(image_of.__getitem__, window))


def gamma_on_point(ai: AlmostIsomorphism, x: EventuallyPeriodicPoint) -> EventuallyPeriodicPoint:
    """Push a point of S seeing the magic word through the almost isomorphism.

    The phi_S-preimage is pinned from the first to the last magic-word
    occurrence in a window around the core, then phi_T maps it onward.
    Points whose periodic tails never show the magic word are outside the
    domain.  The image keeps the tail periods; its core widens to absorb the
    zone where the preimage still feels the original core.
    """
    W, I = ai.cert_s.word, ai.cert_s.offset
    x.validate(ai.code_s.target)
    lw = len(W)
    Lp, Rp = len(x.left), len(x.right)
    cs, ce = x.core_start, x.core_end
    if not _occurrences_in(x.window(cs - 3 * Lp - 2 * lw, cs - lw + 1), W).size:
        raise DomainError("left periodic tail never shows the magic word")
    if not _occurrences_in(x.window(ce, ce + 3 * Rp + 2 * lw), W).size:
        raise DomainError("right periodic tail never shows the magic word")

    margin = 4 * (Lp + Rp + lw + abs(I) + len(x.core) + 2)
    for _attempt in range(4):
        a0 = cs - margin
        seq = x.window(a0, ce + margin)
        occ = _occurrences_in(seq, W)
        a, b = int(occ[0]), int(occ[-1])
        lo, hi = a0 + a + I, a0 + b + I
        gaps = int(np.diff(occ).max())
        K_l = cs - (gaps + lw + abs(I) + 2 * Lp)  # widened core start
        K_r = ce + (gaps + lw + abs(I) + 2 * Rp)  # widened core end
        if lo <= K_l - 3 * Lp and hi >= K_r + 3 * Rp:
            break
        margin *= 2
    else:
        raise CodeError("could not cover the point with preimage windows")

    y_at = _pinned_gamma(ai, seq[a:b + lw])  # gamma at positions lo .. hi - 1
    kl, kr = K_l - lo, K_r - lo
    if y_at[kl - 2 * Lp:kl] != y_at[kl - 3 * Lp:kl - Lp]:
        raise CodeError("image failed to inherit the left period")
    if y_at[kr:kr + 2 * Rp] != y_at[kr + Rp:kr + 3 * Rp]:
        raise CodeError("image failed to inherit the right period")
    y = EventuallyPeriodicPoint(tuple(y_at[kl - Lp:kl]), tuple(y_at[kl:kr]), tuple(y_at[kr:kr + Rp]), K_l)
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
    # the stationary vector of P, not the block frequencies, so the
    # invariance contract holds
    pi = stationary_vector(P)
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

    Closed form when code_s is a conjugacy and no sample budget is forced:
    gamma is a sliding block map, so the image's (order+1)-word marginals
    are exact pushforwards of mu's.  The order-``order`` Markov model built
    from them reproduces them, so ``tv_gap`` is zero up to rounding; it does
    not say whether the image is Markov of that order.  Otherwise seeded
    orbit sampling through the magic-word windows, which requires an
    explicit seed.
    """
    if order < 1:
        raise CodeError(f"transport order must be at least 1, got {order}")
    if samples is not None and samples < 1:
        raise CodeError(f"sampling budget must be at least 1, got {samples}")
    S = ai.code_s.target
    if mu.graph != S:
        raise CodeError("measure does not live on the S leg of the almost isomorphism")
    if not mu.fully_supported():
        raise CodeError("transport is defined for fully supported measures")
    if samples is None and ai.code_s.conjugacy_window is not None:
        return _transport_closed_form(ai, mu, order)
    if samples is None:
        raise CodeError("code_s is not a conjugacy: transport needs a sampling budget and seed")
    if seed is None:
        raise CodeError("sampling transport requires an explicit seed")
    return _transport_sampling(ai, mu, order, samples, seed)


def _transport_closed_form(ai: AlmostIsomorphism, mu: MarkovMeasure, order: int) -> TransportReport:
    """Push mu's (k+N-1)-word marginals through the sliding map of gamma.

    With code_s the N-block labeling, phi_S^-1 reads the source letter at j
    off the N-block of S at j, so gamma_j = phi_T(that letter): only the
    symbol map of code_t enters.
    """
    N = ai.code_s.conjugacy_window
    letter = {bw: ai.code_t.symbol_map[s] for s, bw in enumerate(ai.code_s._block_words)}
    qk: dict[Word, float] = {}
    qk1: dict[Word, float] = {}
    for k, q in ((order, qk), (order + 1, qk1)):
        for w, p in mu.word_distribution(k + N - 1).items():
            y = tuple(letter[w[j:j + N]] for j in range(k))
            q[y] = q.get(y, 0.0) + p
    out, tv = _markovize(ai.code_t.target, order, qk, qk1)
    return TransportReport(
        measure=out,
        method="closed-form",
        entropy_in=mu.entropy(),
        entropy_out=out.entropy(),
        tv_gap=tv,
    )


def _sample_orbit_word(mu: MarkovMeasure, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(mu.transitions, axis=1)
    start = int(np.searchsorted(np.cumsum(mu.stationary), rng.random(), side="right"))
    start = min(start, len(mu.blocks) - 1)
    uniforms = rng.random(n_steps)
    states = kernels.step_chain(cum, start, uniforms)
    last = np.array([w[-1] for w in mu.blocks])
    return np.concatenate([np.asarray(mu.blocks[states[0]]), last[states[1:]]])


def _gamma_finite_word(ai: AlmostIsomorphism, word: np.ndarray) -> np.ndarray:
    """gamma along a finite orbit segment, trimmed to the determined window."""
    W = ai.cert_s.word
    occ = _occurrences_in(word, W)
    if len(occ) < 2:
        raise DomainError("orbit sample too short to pin the magic word twice")
    a, b = int(occ[0]), int(occ[-1])
    return np.array(_pinned_gamma(ai, word[a:b + len(W)].tolist()), dtype=np.int64)


def _block_frequencies(y: np.ndarray, k: int) -> dict[Word, float]:
    """Frequency of each k-window of y, keyed in order of first occurrence.

    Windows are numbered base |alphabet| (renumbered by rank when the
    number would pass int64) and counted with one sort.  A window seen c
    times gets 1/n added c times in sequence, as a running per-window count
    does, so the floats do not depend on how windows are grouped.
    """
    n = y.shape[0] - k + 1
    base = int(y.max()) + 1
    key = np.zeros(n, dtype=np.int64)
    bound = 1  # every key is below this
    for i in range(k):
        if bound * base >= 2**62:
            _, key = np.unique(key, return_inverse=True)
            bound = n
        key = key * base + y[i:i + n]
        bound *= base
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    step = 1.0 / n
    by_count: dict[int, float] = {}
    out: dict[Word, float] = {}
    for i in np.argsort(first):
        c = int(counts[i])
        if c not in by_count:
            by_count[c] = float(np.add.accumulate(np.full(c, step))[-1])
        j = int(first[i])
        out[tuple(y[j:j + k].tolist())] = by_count[c]
    return out


def _transport_sampling(
    ai: AlmostIsomorphism, mu: MarkovMeasure, order: int, samples: int, seed: int
) -> TransportReport:
    rng = np.random.default_rng(seed)
    word = _sample_orbit_word(mu, samples, rng)
    y = _gamma_finite_word(ai, word)
    if len(y) < order + 1:
        raise ValueError("sampling budget too small to observe any block")
    qk = _block_frequencies(y, order)
    qk1 = _block_frequencies(y, order + 1)
    n_k1 = len(y) - order
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
    equilibrium measure of g block by block.  The measure layer needs the
    closed-form transport, so it runs only when code_s is a conjugacy;
    otherwise ``measure_block_gap`` is None and the report does not pass.
    """
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
        for x0 in _periodic_points_containing(S, W, p):
            x = from_periodic(x0)
            y = gamma_on_point(ai, x)
            for k in range(p):
                fv = f.value(x.window(k - f.left, k - f.left + f.span))
                gv = g.value(y.window(k - g.left, k - g.left + g.span))
                ok = (fv == gv) if exact else abs(float(fv) - float(gv)) <= 1e-12
                checked += 1
                if not ok and failure is None:
                    failure = (x0.word, k)
    block_gap = None
    if ai.code_s.conjugacy_window is not None:
        mu_f = equilibrium_measure(S, f)
        mu_g = equilibrium_measure(T, g)
        order = max(mu_f.order, mu_g.order)
        moved = transport_measure(ai, mu_f, order=order).measure
        dist_m = moved.word_distribution(order + 1)
        dist_g = mu_g.word_distribution(order + 1)
        keys = set(dist_m) | set(dist_g)
        block_gap = max(abs(dist_m.get(w, 0.0) - dist_g.get(w, 0.0)) for w in keys)
    passed = (gap <= p_tol) and failure is None and block_gap is not None and block_gap <= tol
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
