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
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Union

import numpy as np

from . import _bits
from .graphs import FiniteGraph, is_n_saturated, is_weakly_n_saturated

SeedLike = Union[int, np.random.SeedSequence]


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
    matter how the consumer batches its reads.  Each take draws exactly the
    raw words it needs; only the last word, while fewer than 64 of its bits
    are unread, carries over to the next take.
    """

    def __init__(self, seed: SeedLike):
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
        self._raw = np.random.Philox(ss)
        self._tail = np.empty(0, dtype=np.uint64)  # the last word drawn, while it has unread bits
        self._read = 0  # bits of the tail word already taken

    def take(self, count: int) -> np.ndarray:
        start = self._read
        end = start + count
        words = max(0, -((64 * len(self._tail) - end) // 64))  # ceil(missing bits / 64)
        raw = np.concatenate([self._tail, self._raw.random_raw(words)])
        self._tail = raw[end // 64 :].copy()
        self._read = end % 64
        return np.unpackbits(raw.astype("<u8").view(np.uint8), bitorder="little")[start:end]


def sample_product_graph(base: FiniteGraph, m: int, seed: SeedLike) -> FiniteGraph:
    """Draw one product graph over ``base``.

    Vertex ``b * (m+1) + l`` is copy l of base vertex b, so the fiber
    projection onto the base is the division map ``v -> v // (m+1)``.
    Copy 0 reproduces the base exactly, fibers over non-adjacent base
    vertices stay non-adjacent, every other cross pair gets an independent
    fair coin, and all loops are present.  Coins are consumed in
    lexicographic order of flattened vertex pairs, one bit per pair, so
    identical (base, m, seed) always reproduce the same graph bit for bit.

    The fibers over base vertex i are filled through one boolean mask of
    their pairs above the diagonal over base neighbours of i; copy 0 to
    copy 0 pairs repeat base edges and are set apart from the coins.
    Assigning the coins to the mask's True positions fills them in
    row-major order, which is the lexicographic pair order.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    k = base.vertex_count
    copies = m + 1
    v = k * copies
    _bits.require_packed_fits([v])
    w = _bits.word_count(v)
    packed = np.zeros((v, w), dtype=np.uint64)
    base_bits = _bits.unpack_rows(base.packed_rows, k).astype(bool)
    stream = _BitStream(seed)
    col = np.arange(v)
    copy0 = col % copies == 0
    for i in range(k):
        u0 = i * copies
        a = u0 // 64  # the rows' words left of word a stay zero
        bits = col[64 * a :] > np.arange(u0, u0 + copies)[:, None]
        bits &= np.repeat(base_bits[i], copies)[64 * a :]  # fibers over base neighbours of i
        edges0 = bits[0] & copy0[64 * a :]  # copy 0 to copy 0 repeats the base edge
        bits[0] ^= edges0
        bits[bits] = stream.take(np.count_nonzero(bits))
        bits[0] |= edges0
        packed[u0 : u0 + copies, a:] = _bits.pack_bits(bits)
    _symmetrize_in_place(packed, v)
    packed[col, col >> 6] |= np.uint64(1) << (col & 63).astype(np.uint64)
    return FiniteGraph(v, packed, validate=False)


def _symmetrize_in_place(packed: np.ndarray, v: int) -> None:
    """OR the transpose of the strictly-upper fill into the matrix, in place.

    For each word column a, the 64 rows 64a.. over words a.. are copied into
    one reused stripe and transposed block by block; the stripe then holds
    word column a of rows 64a.. .  Everything below the diagonal blocks is
    zero by construction, and later stripes read only word columns above a,
    so writing column a never feeds back into a later read.
    """
    w = _bits.word_count(v)
    stripe = np.empty((64, w), dtype=np.uint64)
    for a in range(w):
        r0 = a * 64
        rows = min(64, v - r0)
        stripe[:rows, a:] = packed[r0 : r0 + rows, a:]
        stripe[rows:, a:] = 0
        sub = stripe[:, a:]
        _bits._transpose64_stripe(sub)
        packed[r0:, a] |= sub.T.reshape(-1)[: v - r0]


# -- fiber lifting verification -------------------------------------------------


@dataclass(frozen=True)
class LiftingReport:
    """Outcome of a fiber-lifting check.

    On failure, ``counterexample`` is a pair (base vertex, product vertices):
    no vertex of the base vertex's fiber is adjacent to all of the listed
    product vertices, which is directly re-checkable.
    """

    holds: bool
    counterexample: Optional[tuple[int, tuple[int, ...]]] = None

    def __bool__(self) -> bool:
        return self.holds


# One block product of the tuple check materializes at most _PRODUCT_ROWS b
# rows and at most _PRODUCT_BLOCK float32 count entries (4 MiB).  The row cap
# keeps the wasted part below the diagonal of each block small; without it a
# narrow plane would take every b row in one block and count the whole square.
_PRODUCT_BLOCK = 1 << 20
_PRODUCT_ROWS = 128


def _first_missing_tuple(
    fiber: np.ndarray, size: int, t_bases: np.ndarray, distinct_bases: bool
) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest target tuple with no copy adjacent to all, or None.

    ``fiber`` is the copy x target float32 0/1 matrix F of one base vertex,
    ``t_bases`` the ascending base vertex of each target, and ``size`` >= 2
    the tuple size.  The walk runs over lexicographic prefixes of size-2
    targets; the product of the prefix columns marks the common copies of
    the prefix, and (F[:, b-chunk] * common).T @ F[:, b0+1:] counts the
    common copies of the prefix plus (b, c) for every b and c above it.
    Counts are at most the number of copies, exact in float32.  With
    ``distinct_bases`` tuples with two targets over one base vertex are
    exempt: since ``t_bases`` is sorted, every target must lie above the
    last target over the base of the one before it.
    """
    count = fiber.shape[1]
    targets = np.arange(count)
    # smallest target allowed to follow each target in a tuple
    after = np.searchsorted(t_bases, t_bases, side="right") if distinct_bases else targets + 1
    step = max(1, min(_PRODUCT_ROWS, _PRODUCT_BLOCK // max(1, count)))
    for prefix in itertools.combinations(range(count), size - 2):
        if any(after[p] > q for p, q in zip(prefix, prefix[1:])):
            continue
        lo = int(after[prefix[-1]]) if prefix else 0
        common = fiber[:, list(prefix)].prod(axis=1, keepdims=True)
        for b0 in range(lo, count - 1, step):
            b1 = min(count - 1, b0 + step)
            missing = (fiber[:, b0:b1] * common).T @ fiber[:, b0 + 1 :] == 0
            missing &= targets[b0 + 1 :] >= after[b0:b1, None]
            bad = missing.any(axis=1)
            if bad.any():
                r = int(np.argmax(bad))
                return prefix + (b0 + r, b0 + 1 + int(np.argmax(missing[r])))
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
    them.  Singletons are a fiber-union test over chunks of base vertices;
    every larger tuple size is counted in blocks by
    :func:`_first_missing_tuple`.  The scan runs base vertices in ascending
    order, checking singletons, then pairs, then larger tuples
    lexicographically, so failures are reported deterministically.
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
    union = np.bitwise_or.reduce(g.packed_rows.reshape(k, copies, -1), axis=1)
    chunk = max(1, (1 << 24) // max(1, g.vertex_count))
    for i0 in range(0, k, chunk):
        i1 = min(k, i0 + chunk)
        expanded = _bits.pack_bits(np.repeat(base_bits[i0:i1], copies, axis=1))
        missing = expanded & ~union[i0:i1]
        for i in range(i0, i1):
            if missing[i - i0].any():
                return LiftingReport(False, (i, (_bits.lowest_set_bit(missing[i - i0]),)))
            if n == 2:
                continue
            tcols = np.nonzero(np.repeat(base_bits[i].astype(bool), copies))[0]
            rows = g.packed_rows[i * copies : (i + 1) * copies]
            fiber = _bits.unpack_rows(rows, g.vertex_count)[:, tcols].astype(np.float32)
            for size in range(2, n):
                found = _first_missing_tuple(fiber, size, tcols // copies, distinct_bases)
                if found is not None:
                    return LiftingReport(False, (i, tuple(int(tcols[t]) for t in found)))
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
