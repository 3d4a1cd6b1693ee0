"""One-block codes, magic-word certification, and measure transport.

A magic word pins down preimages: between two of its occurrences in the
image, every preimage path must agree on an offset window.  Both magic-word
conditions are decided exactly, on the fiber product of the code with itself
and on a subset construction over its fibers; refutations carry a concrete
witness.
The induced point map gamma = phi_T o phi_S^-1 is computed by one
forward-backward constraint pass over the fiber of phi_S between the first
and last magic-word occurrence.  Measures move across it exactly by a lift
through the common extension C: a fully supported Markov measure on S is the
equilibrium state of log P, its lift is the equilibrium state of log P o phi_S
on C, and phi_T pushes the lift forward.  Seeded orbit sampling stays as a
second route, run only when a sample budget is given.
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
    Word,
    enumerate_periodic,
    irreducible_and_period,
    least_accepted_path,
    strongly_connected_components,
)
from .potentials import FiniteRangePotential, PotentialError
from .thermo import MarkovMeasure, PressureEstimate, equilibrium_measure, pressure_spectral, stationary_vector


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
        """Image of a word, symbol by symbol."""
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
    return OneBlockCode(source=block_graph, target=base, symbol_map=labeling.symbol_map)


# --------------------------------------------------------------------------
# magic words


@dataclass(frozen=True)
class MagicWordCertificate:
    """Whether ``word`` is a magic word of a code, with its window at ``offset``.

    A refutation carries a witness: the gap C and two preimages of W C W
    that differ inside the window, or a closed target word through W whose
    periodic point has no preimage.  ``depth`` records the caller's argument
    and takes no part in the decision.
    """

    word: Word
    offset: int
    depth: int
    status: str  # certified | refuted
    witness: tuple[Word, Word, Word] | None = None  # (C, u, u')
    periodic_failure: Word | None = None  # closed target word through W with no preimage

    @property
    def certified(self) -> bool:
        return self.status == "certified"


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
    """The orbit words of the points of ``g`` with least period dividing ``period`` whose orbit shows W."""
    for word in enumerate_periodic(g, period):
        doubled = word * ((len(W) + period) // period + 1)
        if any(doubled[i:i + len(W)] == W for i in range(period)):
            yield word


def _split_gap(code: OneBlockCode, W: Word, offset: int) -> Word | None:
    """The least gap C for which two preimages of W C W differ inside the window.

    Two preimages of one image are one path in the fiber product of the
    code with itself, whose states are pairs of source letters over one
    target letter.  A state adds the stage: stages 0 .. |W| - 1 read W, stage
    |W| reads any gap letter, the last |W| stages read W again; and a flag,
    set once the pair has differed inside the window.  The least accepted
    path spells W C W with the shortest, then lexicographically least, such
    C; None when there is none.
    """
    n, phi = len(W), code.symbol_map
    reads = (*W, None, *W)
    inside = [k >= offset for k in range(n)] + [True] + [j < offset for j in range(n)]
    after = [(k + 1,) for k in range(2 * n)] + [()]
    after[n - 1] = after[n] = (n, n + 1)
    succ = [list(map(int, code.source.successors(s))) for s in range(code.source.n_vertices)]

    def step(state):
        k, s, t, flag = state
        for k2 in after[k]:
            for x in succ[s]:
                if reads[k2] in (None, phi[x]):
                    for y in succ[t]:
                        if phi[y] == phi[x]:
                            yield phi[x], (k2, x, y, flag or (x != y and inside[k2]))

    over = code.fibers()[W[0]]
    starts = [(W[0], (0, s, t, s != t and inside[0])) for s in over for t in over]
    path = least_accepted_path(starts, step, lambda state: state[0] == 2 * n and state[3])
    return None if path is None else tuple(phi[s] for k, s, _, _ in path if k == n)


def _unlifted_cycle(code: OneBlockCode, W: Word) -> Word | None:
    """A closed target word through W whose periodic point has no preimage.

    A periodic point through W lacks a preimage iff some closed word starting
    with W has none (a window without a preimage sits in a power of the
    period).  A subset construction over the fibers, run on the strongly
    connected component of W[0], finds the shortest; none when W lies on no
    cycle.  Its states are a target letter and the source letters over it
    that end a preimage path of the word read so far.
    """
    fiber = code._fiber_masks
    succ = _MaskUnion(code._edge_masks[0])
    comp = set(next(c for c in strongly_connected_components(code.target) if W[0] in c))
    masks = _supported_letters(code, W)
    mask = masks[-1] if masks else 0

    def step(state):
        t, mask = state
        for a in map(int, code.target.successors(t)):
            if a in comp:
                yield a, (a, succ[mask] & fiber[a])

    path = least_accepted_path([(W[-1], (W[-1], mask))], step,
                               lambda state: not state[1] and code.target.has_edge(state[0], W[0]))
    return None if path is None else W[:-1] + tuple(t for t, _ in path)


def verify_magic(code: OneBlockCode, W, offset: int, depth: int = 0) -> MagicWordCertificate:
    """Decide whether W is a magic word of ``code`` with its window at ``offset``.

    Condition 1: for every target word C with W C W admissible, all source
    paths presenting W C W agree on the window of length |W| + |C| at
    ``offset``.  Condition 2: every periodic target point through W has a
    source preimage.  Both are decided exactly, for every C and period.  A
    refutation carries the least violating C with two preimages that differ
    at its first split window position, or a closed word through W without a
    preimage.  ``depth`` is recorded on the certificate, not searched.
    """
    W = tuple(int(s) for s in W)
    if not W or not code.target.is_word(W):
        raise CodeError("magic word candidate must be a nonempty target word")
    if not (0 <= offset <= len(W)):
        raise CodeError("offset must lie in [0, |W|] so the window is determined")
    if depth < 0:
        raise CodeError(f"depth must be nonnegative, got {depth}")
    C = _split_gap(code, W, offset)
    if C is not None:
        image = W + C + W
        masks = _supported_letters(code, image)
        i = next(i for i in range(offset, offset + len(W) + len(C)) if masks[i] & (masks[i] - 1))
        u, v = _two_preimages_differing_at(code, image, i)
        return MagicWordCertificate(word=W, offset=offset, depth=depth, status="refuted", witness=(C, u, v))
    cycle = _unlifted_cycle(code, W)
    if cycle is not None:
        return MagicWordCertificate(word=W, offset=offset, depth=depth, status="refuted", periodic_failure=cycle)
    return MagicWordCertificate(word=W, offset=offset, depth=depth, status="certified")


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
        if not irreducible_and_period(self.common)[0]:
            raise CodeError("the common extension of an almost isomorphism must be irreducible")
        for code, cert in ((self.code_s, self.cert_s), (self.code_t, self.cert_t)):
            if not cert.certified:
                raise CodeError("cannot assemble an almost isomorphism from a refuted certificate")
            # a certificate is decided for one code; it must hold for the leg it sits on
            if not verify_magic(code, cert.word, cert.offset).certified:
                raise CodeError(f"magic word {cert.word} at offset {cert.offset} is refuted on its own leg")

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


def from_periodic(word: Word) -> EventuallyPeriodicPoint:
    """The periodic point that traverses ``word``, as an eventually periodic point."""
    return EventuallyPeriodicPoint(left=word, core=(), right=word)


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
        raise CodeError("preimage window not pinned (magic condition 1 violated)")
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
    method: str  # closed-form (the exact lift through C) | sampling
    entropy_in: float
    entropy_out: float
    tv_gap: float | None = None
    seed: int | None = None
    samples: int | None = None
    confidence_width: float | None = None


def _total_variation(p: dict[Word, float], q: dict[Word, float]) -> float:
    return 0.5 * sum(abs(p.get(w, 0.0) - q.get(w, 0.0)) for w in set(p) | set(q))


def _markovize(graph: FiniteGraph, order: int, qk: dict[Word, float], qk1: dict[Word, float]) -> tuple[MarkovMeasure, float]:
    """The order-``order`` Markov model of qk, qk1, and its total variation from qk1."""
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
    return mu, _total_variation(mu.word_distribution(order + 1), qk1)


def transport_measure(
    ai: AlmostIsomorphism,
    mu: MarkovMeasure,
    order: int,
    samples: int | None = None,
    seed: int | None = None,
) -> TransportReport:
    """Move a fully supported Markov measure across the almost isomorphism.

    Exact for every almost isomorphism unless a sample budget is given: mu of
    order k is the unique equilibrium state of f = log P, which reads k + 1
    coordinates and has pressure 0.  Its lift to the common extension C is
    the equilibrium state of f o phi_S there, which phi_S pushes forward to mu,
    so the image gamma_* mu is the lift pushed forward by phi_T; its word
    marginals are the lift's grouped by phi_T.  The order-``order`` model
    reproduces the (order+1)-marginals; ``tv_gap`` compares its
    (order+2)-marginal with the image's, so it is positive when the image is
    not Markov of that order.  With ``samples``, seeded orbit sampling through
    the magic-word windows instead, which requires an explicit seed.
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
    if samples is None:
        return _transport_lift(ai, mu, order)
    if seed is None:
        raise CodeError("sampling transport requires an explicit seed")
    return _transport_sampling(ai, mu, order, samples, seed)


def _transport_lift(ai: AlmostIsomorphism, mu: MarkovMeasure, order: int) -> TransportReport:
    """Lift mu to its equilibrium state on C, then group the lift's marginals by phi_T."""
    C, phi_s, phi_t = ai.common, ai.code_s.symbol_map, ai.code_t.symbol_map
    P, idx = mu.transitions, mu.block_index
    table = {}
    for w in C.words(mu.order + 1):
        x = tuple(phi_s[c] for c in w)
        table[w] = math.log(P[idx[x[:-1]], idx[x[1:]]])
    lift = equilibrium_measure(C, FiniteRangePotential(C, 0, mu.order + 1, table))
    q: dict[int, dict[Word, float]] = {k: {} for k in (order, order + 1, order + 2)}
    for k, qk in q.items():
        for w, p in lift.word_distribution(k).items():
            y = tuple(phi_t[c] for c in w)
            qk[y] = qk.get(y, 0.0) + p
    out, _ = _markovize(ai.code_t.target, order, q[order], q[order + 1])
    return TransportReport(
        measure=out,
        method="closed-form",
        entropy_in=mu.entropy(),
        entropy_out=out.entropy(),
        tv_gap=_total_variation(out.word_distribution(order + 2), q[order + 2]),
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


# Slack on the pressure gap, and bound on the equilibrium block gap, of a
# passing correspondence (ROADMAP item 8 replaces it with derived brackets).
_CORRESPONDENCE_TOL = 1e-9


@dataclass(frozen=True)
class CorrespondenceReport:
    pressure_s: PressureEstimate
    pressure_t: PressureEstimate
    pressure_gap: float
    pressure_tolerance: float
    witnesses_checked: int
    first_failure: tuple[Word, int] | None
    measure_block_gap: float
    passed: bool


def verify_correspondence(
    ai: AlmostIsomorphism,
    f: FiniteRangePotential,
    g: FiniteRangePotential,
    n_max: int = 10,
) -> CorrespondenceReport:
    """Check that 'g corresponds to f' across the almost isomorphism.

    Three layers: g(gamma x) = f(x) on every eventually periodic witness of
    period <= n_max seeing the magic word; pressures agree within their
    spectral errors plus 1e-9; and the equilibrium measure of f, moved by
    the exact lift route of ``transport_measure``, matches the equilibrium
    measure of g block by block within 1e-9.  All three run on every almost
    isomorphism.
    """
    S, T = ai.code_s.target, ai.code_t.target
    if f.graph.names != S.names or g.graph.names != T.names:
        raise PotentialError("potentials must live on the two legs of the almost isomorphism")
    ps = pressure_spectral(S, f)
    pt = pressure_spectral(T, g)
    gap = abs(ps.value - pt.value)
    p_tol = ps.error + pt.error + _CORRESPONDENCE_TOL

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
                    failure = (x0, k)
    mu_f = equilibrium_measure(S, f)
    mu_g = equilibrium_measure(T, g)
    order = max(mu_f.order, mu_g.order)
    moved = transport_measure(ai, mu_f, order=order).measure
    dist_m = moved.word_distribution(order + 1)
    dist_g = mu_g.word_distribution(order + 1)
    keys = set(dist_m) | set(dist_g)
    block_gap = max(abs(dist_m.get(w, 0.0) - dist_g.get(w, 0.0)) for w in keys)
    passed = (gap <= p_tol) and failure is None and block_gap <= _CORRESPONDENCE_TOL
    return CorrespondenceReport(
        pressure_s=ps,
        pressure_t=pt,
        pressure_gap=gap,
        pressure_tolerance=p_tol,
        witnesses_checked=checked,
        first_failure=failure,
        measure_block_gap=block_gap,
        passed=passed,
    )
