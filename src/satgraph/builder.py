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
from .graphs import (
    FiniteGraph,
    _missing_type_collapsed,
    _scan_table_bytes,
    is_n_saturated,
    is_weakly_n_saturated,
)

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
    """Outcome of a fiber-lifting check, and of the quotient check of the same bond.

    On failure, ``counterexample`` is a pair (base vertex, product vertices):
    no vertex of the base vertex's fiber is adjacent to all of the listed
    product vertices, which is directly re-checkable.  ``quotient`` is None
    when the division bond is a quotient map, and otherwise names the first
    base pair it gets wrong; it is decided whether lifting holds or not.
    """

    holds: bool
    counterexample: Optional[tuple[int, tuple[int, ...]]] = None
    quotient: Optional[str] = None

    def __bool__(self) -> bool:
        return self.holds


def _copy_tables(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_bits.or_tables` of a copy x target 0/1 matrix's rows, and its target index.

    Byte [g, t] of the index holds the bits of target t in the copies of
    group g.
    """
    # a column selection bits[:, cols] comes out column-major, and packing
    # its rows is several times slower so
    rows = _bits.pack_bits(np.ascontiguousarray(bits))
    return _bits.or_tables(rows), np.packbits(bits, axis=0, bitorder="little")


def _first_uncovered_tuple(
    tables: np.ndarray, index: np.ndarray, n: int, t_bases: np.ndarray, distinct_bases: bool
) -> Optional[tuple[int, ...]]:
    """Smallest target tuple, of 2 to n-1 targets, with no copy adjacent to all, or None.

    ``tables`` and ``index`` are :func:`_copy_tables` of the copy x target
    0/1 matrix of one base vertex, and ``t_bases`` is the ascending base
    vertex of each target.  Smaller tuples come first, and tuples of one
    size in lexicographic order.  For each size :func:`_bits.walk_prefixes`
    runs over the prefixes of size-2 targets and over b above each; the
    copies of row (prefix, b) are those adjacent to the prefix and to b,
    and the first row with a target c >= ``after[b]`` that none of them is
    adjacent to is the smallest tuple.  With ``distinct_bases`` tuples with
    two targets over one base vertex are exempt: since ``t_bases`` is
    sorted, every target must lie above the last target over the base of
    the one before it.
    """
    count = index.shape[1]
    # smallest target allowed to follow each target in a tuple
    after = np.searchsorted(t_bases, t_bases, side="right") if distinct_bases else np.arange(1, count + 1)
    for size in range(2, n):
        prefixes = itertools.combinations(range(count), size - 2)
        for found in _bits.walk_prefixes(tables, index[None], prefixes, after):
            if found is not None:
                prefix, _, b, c = found
                return prefix + (b, c)
    return None


def check_product_lifting(
    g: FiniteGraph,
    base: FiniteGraph,
    n: int,
    *,
    distinct_bases: bool = False,
) -> LiftingReport:
    """Decide the lifting guarantee and the quotient check of one division bond in one pass.

    The bond has V/k copies per base vertex, so k must divide V.  For each
    base vertex i and every choice of at most n-1 product vertices
    lying over base neighbours of i (repeats allowed; pass
    ``distinct_bases=True`` to restrict to configurations over pairwise
    distinct base vertices), some copy (i, l) must be adjacent to all of
    them.  The same pass decides whether the division bond onto ``base`` is
    a quotient map.  The fiber union is built once: row i is the OR of the
    rows of i's fiber, every neighbour of some copy of i.  Chunks of
    ``(1 << 24) // V`` base vertices then get their spread base rows: row i
    is i's base row repeated over the copies, every copy of every base
    neighbour of i.

    Quotient: some pair of fibers carries an edge exactly when the base
    pair is adjacent (surjectivity is structural for fiber maps).  A row
    whose union equals its spread passes, since every fiber is non-empty.
    Only the other rows are unpacked, one at a time, into the fibers the
    union meets, and the first (i, j) that disagrees with the base gives
    the message.  A row may differ without a mismatch, when a base
    neighbour has copies adjacent to no copy of i: that is a lifting
    failure, not a quotient one.

    Lifting: a singleton no copy of i is adjacent to is a bit of i's spread
    missing from its union.  Every larger tuple size is decided on packed
    bits by :func:`_first_uncovered_tuple`: for each prefix of the tuple and
    each next target b, the OR of the rows of the copies adjacent to both,
    taken from lookup tables over groups of 8 copies, is the set of targets
    that share a copy with them, and its first zero bit is a
    counterexample.  Base vertices run in ascending order, each through
    singletons, then pairs, then larger tuples lexicographically, so
    failures are reported deterministically.  At n = 1 lifting holds.

    The chunks run until both checks have failed, so each reports its own
    first failure whatever the other finds.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    k = base.vertex_count
    v = g.vertex_count
    copies, rest = divmod(v, k)
    if rest:
        raise ValueError("graph size does not match the product encoding")
    base_bits = _bits.unpack_rows(base.packed_rows, k)
    union = np.bitwise_or.reduce(g.packed_rows.reshape(k, copies, -1), axis=1)
    chunk = max(1, (1 << 24) // max(1, v))
    quotient = counterexample = None
    for i0 in range(0, k, chunk):
        lifting = n > 1 and counterexample is None
        if quotient is not None and not lifting:
            break
        i1 = min(k, i0 + chunk)
        spread = _bits.pack_bits(np.repeat(base_bits[i0:i1], copies, axis=1))
        if quotient is None:
            for i in np.nonzero((union[i0:i1] != spread).any(axis=1))[0] + i0:
                cover = _bits.unpack_rows(union[i], v).reshape(k, copies).any(axis=1)
                mismatch = np.nonzero(cover != base_bits[i])[0]
                if len(mismatch):
                    i, j = int(i), int(mismatch[0])
                    if cover[j]:
                        quotient = f"an edge between fibers {i} and {j} maps onto a non-edge"
                    else:
                        quotient = f"edge ({i},{j}) has no edge between its fibers"
                    break
        if not lifting:
            continue
        missing = spread & ~union[i0:i1]
        for i in range(i0, i1):
            if missing[i - i0].any():
                counterexample = (i, (_bits.lowest_set_bit(missing[i - i0]),))
                break
            if n == 2:
                continue
            tcols = np.nonzero(np.repeat(base_bits[i].astype(bool), copies))[0]
            rows = g.packed_rows[i * copies : (i + 1) * copies]
            # the tables stay unnamed, so that each base vertex's are freed
            # before the next one's are built
            found = _first_uncovered_tuple(
                *_copy_tables(_bits.unpack_rows(rows, v)[:, tcols]), n, tcols // copies, distinct_bases
            )
            if found is not None:
                counterexample = (i, tuple(int(tcols[t]) for t in found))
                break
    return LiftingReport(counterexample is None, counterexample, quotient)


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
    if m is not None and m < 1:
        raise ValueError("m must be at least 1")
    # an n-saturated base is weakly n-saturated too; at n = 3 its verdict
    # lets the samples over it be scanned by the lifting lemma
    base_saturated = n == 3 and is_n_saturated(base, n).holds
    if not base_saturated and not is_weakly_n_saturated(base, n).holds:
        raise ValueError("base graph must be weakly n-saturated")
    if m is None:
        m = minimal_certified_m(n, base.vertex_count)
    return _first_accepted(n, base, seed, m, max_attempts, base_saturated)


def _first_accepted(
    n: int,
    base: FiniteGraph,
    seed: int,
    m: int,
    attempts: int,
    base_saturated: bool,
    known: Optional[FiniteGraph] = None,
) -> tuple[FiniteGraph, int]:
    """Build's acceptance loop: the first seeded sample that is n-saturated and lifts.

    Returns the sample and the attempts it took.  A sample equal to
    ``known``, a graph the caller has already found n-saturated, skips the
    saturation scan.  ``base_saturated`` says whether ``base`` is
    n-saturated.  At n = 3 over such a base, the repeats-allowed lifting
    check runs first (it implies the distinct-bases one), and a sample
    whose bond is a quotient map is scanned only over the pairs inside one
    fiber: the lifting lemma in the README.  Raises
    :class:`AttemptsExhausted` when none of ``attempts`` attempts is
    accepted, and ``ValueError`` before the first sample when the n >= 4
    scan's tables would not fit in physical memory.
    """
    _bits.require_fits(_scan_table_bytes(base.vertex_count * (m + 1), n), "lookup tables")
    lemma = n == 3 and base_saturated
    for attempt in range(attempts):
        graph = None  # release the rejected sample before drawing anew
        graph = sample_product_graph(base, m, attempt_seed(seed, attempt))
        if lemma:
            rep = check_product_lifting(graph, base, n)
            accepted = rep.holds and (graph == known or _saturated_by_lemma(graph, rep, m))
        else:
            saturated = graph == known or is_n_saturated(graph, n).holds
            accepted = saturated and check_product_lifting(graph, base, n).holds
        if accepted:
            return graph, attempt + 1
    raise AttemptsExhausted(attempts, m)


def _saturated_by_lemma(graph: FiniteGraph, rep: LiftingReport, m: int) -> bool:
    """Whether a sample over a 3-saturated base that passed build's lifting check is 3-saturated.

    ``rep`` is that check's report.  When it finds the bond a quotient map,
    the lifting lemma (README) leaves only the pairs inside one fiber to
    scan; otherwise the whole sample is scanned.
    """
    if rep.quotient is None:
        return _missing_type_collapsed(graph, m + 1) is None
    return is_n_saturated(graph, 3).holds
