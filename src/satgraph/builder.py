"""Randomized product extensions over a weakly saturated base.

Given a weakly n-saturated base graph on k vertices, the product graph on
k*(m+1) vertices keeps the base embedded as copy 0, forbids edges between
fibers over non-adjacent base vertices, and flips an independent fair coin
for every remaining pair.  Exact rational union bounds control the
probability that a sample fails to be n-saturated or fails the fiber
lifting guarantee; once their sum drops below 1, rejection sampling is
certified to terminate with positive per-attempt probability.  Every
accepted sample is re-verified exhaustively, so a caller-chosen
(uncertified) m is equally sound, just not guaranteed fast.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional, Union

import numpy as np

from . import _bits
from .graphs import FiniteGraph, is_n_saturated, is_weakly_n_saturated
from .morphisms import LiftingReport

SeedLike = Union[int, np.random.SeedSequence]


class ProductVertex(NamedTuple):
    """A product-graph vertex: base vertex index plus copy level 0..m."""

    base: int
    copy: int


def product_index(base: int, copy: int, m: int) -> int:
    """Flattened index of (base, copy); bijective with 0..k(m+1)-1."""
    if not 0 <= copy <= m:
        raise ValueError("copy level out of range")
    return base * (m + 1) + copy


def product_coords(index: int, m: int) -> ProductVertex:
    base, copy = divmod(index, m + 1)
    return ProductVertex(base, copy)


# -- exact failure bounds ----------------------------------------------------


def saturation_failure_bound(n: int, k: int, m: int) -> Fraction:
    """Union bound on the probability a sample is not n-saturated.

    Over every vertex subset of size n-1 and every 0/1 type on it, a fixed
    fiber offers m+1 candidate realizers, each succeeding with probability
    2^-(n-1); the bound is C((m+1)k, n-1) * 2^(n-1) * (1 - 2^-(n-1))^m,
    evaluated in exact rational arithmetic because the last factor
    underflows floats long before the certification threshold matters.
    """
    if n < 1 or k < 1 or m < 0:
        raise ValueError("need n >= 1, k >= 1, m >= 0")
    near_miss = 1 - Fraction(1, 2 ** (n - 1))
    return comb((m + 1) * k, n - 1) * 2 ** (n - 1) * near_miss**m


def lifting_failure_bound(n: int, k: int, m: int) -> Fraction:
    """Union bound on the probability the fiber lifting guarantee fails.

    Counts base vertices times ordered p-tuples of base neighbours (repeats
    allowed, the vertex itself allowed thanks to loops) times copy choices:
    sum over p < n of k^(p+1) * (m+1)^p * (1 - 2^-p)^m, where only the m
    rows above copy 0 are counted as candidate common neighbours.
    """
    if n < 1 or k < 1 or m < 1:
        raise ValueError("need n >= 1, k >= 1, m >= 1")
    total = Fraction(0)
    for p in range(1, n):
        total += k ** (p + 1) * (m + 1) ** p * (1 - Fraction(1, 2**p)) ** m
    return total


def minimal_certified_m(n: int, k: int) -> int:
    """Smallest m >= 1 whose combined failure bound is strictly below 1.

    Both bounds decay geometrically in m once the polynomial prefactors are
    outpaced, so the search always terminates.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < n:
        raise ValueError("base must have at least n vertices")
    m = 1
    while saturation_failure_bound(n, k, m) + lifting_failure_bound(n, k, m) >= 1:
        m += 1
    return m


# -- seeded sampling -----------------------------------------------------------


class _BitStream:
    """Sequential fair bits from a counter-based generator.

    Bit t of the stream is bit (t mod 64) of raw output word t // 64, in
    little-endian byte order, so the pair-index-to-bit mapping is fixed no
    matter how the consumer batches its reads.
    """

    def __init__(self, seed: SeedLike):
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
        self._raw = np.random.Philox(ss)
        self._buf = np.empty(0, dtype=np.uint8)
        self._pos = 0
        self._chunk = 1 << 12  # grows geometrically so heavy consumers refill rarely

    def take(self, count: int) -> np.ndarray:
        while len(self._buf) - self._pos < count:
            self._refill(count)
        out = self._buf[self._pos : self._pos + count]
        self._pos += count
        return out

    def _refill(self, need: int) -> None:
        words = max(self._chunk, (need + 63) // 64)
        self._chunk = min(self._chunk * 4, 1 << 21)
        raw = self._raw.random_raw(words)
        bits = np.unpackbits(raw.astype("<u8").view(np.uint8), bitorder="little")
        leftover = self._buf[self._pos :]
        self._buf = np.concatenate([leftover, bits]) if len(leftover) else bits
        self._pos = 0


def sample_product_graph(base: FiniteGraph, m: int, seed: SeedLike) -> FiniteGraph:
    """Draw one product graph over ``base``.

    Vertex ``b * (m+1) + l`` is copy l of base vertex b, so the fiber
    projection onto the base is the division map ``v -> v // (m+1)``.
    Copy 0 reproduces the base exactly, fibers over non-adjacent base
    vertices stay non-adjacent, every other cross pair gets an independent
    fair coin, and all loops are present.  Coins are consumed in
    lexicographic order of flattened vertex pairs, one bit per pair, so
    identical (base, m, seed) always reproduce the same graph bit for bit.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    k = base.vertex_count
    copies = m + 1
    v = k * copies
    w = _bits.word_count(v)
    packed = np.zeros((v, w), dtype=np.uint64)
    base_bits = _bits.unpack_rows(base.packed_rows, k)
    stream = _BitStream(seed)
    copy_range = np.arange(copies, dtype=np.int32)
    for i in range(k):
        # all product vertices over base neighbours of i, ascending
        neighbors = np.nonzero(base_bits[i])[0].astype(np.int32)
        fiber_cols = neighbors[:, None] * np.int32(copies) + copy_range[None, :]
        all_targets = fiber_cols.ravel()
        off_copy0 = np.ascontiguousarray(fiber_cols[:, 1:]).ravel()
        u0 = i * copies
        # per-row candidate tails, in row order, so one take() covers the fiber
        start0 = int(np.searchsorted(off_copy0, u0 + 1))
        starts = np.searchsorted(all_targets, np.arange(u0 + 2, u0 + copies + 1))
        counts = np.empty(copies, dtype=np.int64)
        counts[0] = len(off_copy0) - start0
        counts[1:] = len(all_targets) - starts
        # word-aligned width keeps packbits from taking a padding-copy pass
        blockbits = np.zeros((copies, w * 64), dtype=np.uint8)
        total = int(counts.sum())
        if total:
            coins = stream.take(total)
            rows = np.repeat(copy_range, counts)
            cols = np.concatenate([off_copy0[start0:]] + [all_targets[s:] for s in starts])
            blockbits[rows, cols] = coins
        blockbits[0, neighbors[neighbors > i] * copies] = 1
        packed[u0 : u0 + copies] = np.packbits(blockbits, axis=-1, bitorder="little").view(
            np.uint64
        )
    _symmetrize_in_place(packed, v)
    diag = np.arange(v)
    packed[diag, diag >> 6] |= np.uint64(1) << (diag & 63).astype(np.uint64)
    return FiniteGraph(v, packed, validate=False)


def _symmetrize_in_place(packed: np.ndarray, v: int) -> None:
    """OR the transpose of the strictly-upper fill into the matrix.

    Works block-wise at the word level and touches only the 64x64 bit
    blocks on or above the diagonal: everything below is zero by
    construction, so its transpose contributes nothing.
    """
    w = _bits.word_count(v)
    out = np.zeros((w, 64, w), dtype=np.uint64)  # out[b, r, a] = row b*64+r, word a
    stripe = np.zeros((64, w), dtype=np.uint64)
    group = 8  # write groups of 8 word-columns: one cache line per output row
    for a0 in range(0, w, group):
        a1 = min(w, a0 + group)
        stack = np.zeros((w - a0, 64, a1 - a0), dtype=np.uint64)
        for q, a in enumerate(range(a0, a1)):
            r0, r1 = a * 64, min((a + 1) * 64, v)
            stripe[: r1 - r0, a:] = packed[r0:r1, a:]
            if r1 - r0 < 64:
                stripe[r1 - r0 :, a:] = 0
            sub = stripe[:, a:]
            _bits._transpose64_stripe(sub)
            stack[a - a0 :, :, q] = sub.T
        out[a0:, :, a0:a1] = stack
    packed |= out.reshape(w * 64, w)[:v]


# -- fiber lifting verification -------------------------------------------------

# Largest count block (in float32 entries, 512 KiB) one block product of the
# n >= 4 triple check may materialize.
_PRODUCT_BLOCK = 1 << 17


def _restricted_fiber_block(g: FiniteGraph, i: int, copies: int, tcols: np.ndarray) -> np.ndarray:
    """Rows (i,0..m) of g restricted to the target columns, as a 0/1 byte matrix."""
    block = _bits.unpack_rows(g.packed_rows[i * copies : (i + 1) * copies], g.vertex_count)
    return block[:, tcols]


def _first_missing_triple(
    fiber_block: np.ndarray, t_bases: np.ndarray, distinct_bases: bool
) -> Optional[tuple[int, int, int]]:
    """Smallest target triple a < b < c with no copy adjacent to all three, or None.

    ``fiber_block`` is the copy x target 0/1 matrix F of one base vertex.
    For each a, the product (F[:, a+1:] * F[:, a]).T @ F[:, a+1:] counts
    the common copies of (a, b, c) for every b and c above a; counts are at
    most the number of copies, exact in float32.  With ``distinct_bases``
    a triple with two targets over one base vertex is exempt.  The b rows
    go in chunks, keeping each product block at most ``_PRODUCT_BLOCK``
    entries.
    """
    fiber = fiber_block.astype(np.float32)
    count = fiber.shape[1]
    step = max(1, _PRODUCT_BLOCK // count)
    for a in range(count - 2):
        col_a = fiber[:, a : a + 1]
        for b0 in range(a + 1, count - 1, step):
            b1 = min(count - 1, b0 + step)
            missing = (fiber[:, b0:b1] * col_a).T @ fiber[:, b0 + 1 :] == 0
            missing &= np.arange(b0 + 1, count)[None, :] > np.arange(b0, b1)[:, None]
            if distinct_bases:
                b_bases, c_bases = t_bases[b0:b1], t_bases[b0 + 1 :]
                missing &= (b_bases != t_bases[a])[:, None] & (c_bases != t_bases[a])[None, :]
                missing &= b_bases[:, None] != c_bases[None, :]
            bad = missing.any(axis=1)
            if bad.any():
                i = int(np.argmax(bad))
                return a, b0 + i, b0 + 1 + int(np.argmax(missing[i]))
    return None


def check_product_lifting(
    g: FiniteGraph,
    base: FiniteGraph,
    m: int,
    n: int,
    distinct_bases: bool = False,
) -> LiftingReport:
    """Verify every small neighbour configuration has a common fiber neighbour.

    For each base vertex i and every choice of at most n-1 product vertices
    lying over base neighbours of i (repeats allowed; pass
    ``distinct_bases=True`` to restrict to configurations over pairwise
    distinct base vertices), some copy (i, l) must be adjacent to all of
    them.  Copy masks per target make each configuration an AND-reduction;
    triples are counted in blocks by :func:`_first_missing_triple`.  The
    scan runs base vertices in ascending order, checking singletons, then
    pairs, then larger tuples lexicographically, so failures are reported
    deterministically.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    k = base.vertex_count
    copies = m + 1
    if g.vertex_count != k * copies:
        raise ValueError("graph size does not match the product encoding")
    if n == 1:
        return LiftingReport(True)
    base_bits = _bits.unpack_rows(base.packed_rows, k)
    if n == 2:
        fiber_view = g.packed_rows.reshape(k, copies, -1)
        union = np.bitwise_or.reduce(fiber_view, axis=1)
        chunk = max(1, (1 << 24) // max(1, g.vertex_count))
        for i0 in range(0, k, chunk):
            i1 = min(k, i0 + chunk)
            expanded = _bits.pack_bits(np.repeat(base_bits[i0:i1], copies, axis=1))
            missing = expanded & ~union[i0:i1]
            for local in range(i1 - i0):
                if missing[local].any():
                    t = _bits.lowest_set_bit(missing[local])
                    return LiftingReport(False, (i0 + local, (t,)))
        return LiftingReport(True)
    for i in range(k):
        tcols = np.nonzero(np.repeat(base_bits[i].astype(bool), copies))[0]
        t_bases = tcols // copies
        fiber_block = _restricted_fiber_block(g, i, copies, tcols)
        masks = _bits.pack_bits(np.ascontiguousarray(fiber_block.T))
        nonzero = masks.any(axis=1)
        if not nonzero.all():
            t = int(np.argmin(nonzero))
            return LiftingReport(False, (i, (int(tcols[t]),)))
        count = len(tcols)
        # two targets share a copy exactly when each lies in the union of
        # the copy-member sets containing the other; building those unions
        # replaces the all-pairs mask scan with one scatter-OR per copy
        per_copy = _bits.pack_bits(fiber_block)
        covered = np.zeros((count, per_copy.shape[1]), dtype=np.uint64)
        for l in range(copies):
            members = np.nonzero(fiber_block[l])[0]
            if len(members):
                covered[members] |= per_copy[l]
        full = _bits.full_row(count)
        if distinct_bases:
            # misses inside a target's own fiber group do not count
            group_bits = (t_bases[None, :] == np.unique(t_bases)[:, None]).astype(np.uint8)
            group_words = _bits.pack_bits(group_bits)
            group_index = np.searchsorted(np.unique(t_bases), t_bases)
            missing = (covered ^ full) & ~group_words[group_index] & full
        else:
            missing = (covered ^ full) & full
        bad = missing.any(axis=1)
        if bad.any():
            a = int(np.argmax(bad))
            b = _bits.lowest_set_bit(missing[a])
            return LiftingReport(False, (i, (int(tcols[a]), int(tcols[b]))))
        if n >= 4:
            triple = _first_missing_triple(fiber_block, t_bases, distinct_bases)
            if triple is not None:
                return LiftingReport(False, (i, tuple(int(tcols[t]) for t in triple)))
        if n >= 5:
            mask_ints = [_bits.row_to_int(masks[t]) for t in range(count)]
            for size in range(4, n):
                for sub in itertools.combinations(range(count), size):
                    if distinct_bases and len({int(t_bases[t]) for t in sub}) < size:
                        continue
                    cand = -1
                    for t in sub:
                        cand &= mask_ints[t]
                    if cand == 0:
                        return LiftingReport(False, (i, tuple(int(tcols[t]) for t in sub)))
    return LiftingReport(True)


# -- rejection sampling ----------------------------------------------------------


class AttemptsExhausted(RuntimeError):
    """Rejection sampling ran out of attempts before finding a valid sample."""

    def __init__(self, attempts: int, m: int):
        super().__init__(f"no accepted sample in {attempts} attempts at m={m}")
        self.attempts = attempts
        self.m = m


def attempt_seed(seed: int, attempt: int) -> np.random.SeedSequence:
    """Deterministic substream for one rejection attempt."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(attempt,))


def build_extension(
    n: int,
    base: FiniteGraph,
    seed: int,
    m: Optional[int] = None,
    max_attempts: int = 64,
) -> tuple[FiniteGraph, int]:
    """Sample product graphs until one passes both exhaustive verifications.

    With ``m`` left as None, m is :func:`minimal_certified_m`, which makes
    the expected number of attempts at most 1 / (1 - combined bound).  Any
    other ``m`` is used as given, uncertified.  Either way the returned
    graph is n-saturated and satisfies the fiber lifting guarantee; both
    facts are checked, never assumed.  Returns the graph and the number of
    attempts it took.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    if not is_weakly_n_saturated(base, n).holds:
        raise ValueError("base graph must be weakly n-saturated")
    if m is None:
        m = minimal_certified_m(n, base.vertex_count)
    if m < 1:
        raise ValueError("m must be at least 1")
    for attempt in range(max_attempts):
        graph = None  # release the rejected sample before drawing anew
        graph = sample_product_graph(base, m, attempt_seed(seed, attempt))
        if is_n_saturated(graph, n).holds and check_product_lifting(graph, base, m, n).holds:
            return graph, attempt + 1
    raise AttemptsExhausted(max_attempts, m)
