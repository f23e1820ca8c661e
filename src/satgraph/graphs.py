"""Finite reflexive graphs and exact saturation checking.

A graph here is a symmetric, reflexive adjacency relation on vertices
0..V-1: every vertex carries a loop, which is what later lets a quotient
map collapse an edge onto a single vertex.  Adjacency rows are packed
64-bit masks, so realizer searches over a few thousand vertices stay in
word operations; the saturation checkers below are exhaustive, not
approximate.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from . import _bits


class FiniteGraph:
    """Immutable finite graph with loops on every vertex.

    Instances are safe to share between threads.  The packed rows are the
    only matrix an instance holds; the row popcounts are cached on first
    use.
    """

    __slots__ = ("vertex_count", "_packed", "_popcounts")

    def __init__(self, vertex_count: int, packed: np.ndarray, validate: bool = True):
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        w = _bits.word_count(vertex_count)
        if validate:  # no cast of 3.7 onto 3, and a copy the caller cannot change once checked
            if np.asarray(packed).dtype.kind not in "iu":
                raise ValueError("packed rows must be integer words")
            packed = np.array(packed, dtype=np.uint64)
        packed = np.ascontiguousarray(packed, dtype=np.uint64)
        if packed.shape != (vertex_count, w):
            raise ValueError(f"packed rows must have shape ({vertex_count}, {w})")
        self.vertex_count = vertex_count
        self._packed = packed
        self._packed.flags.writeable = False
        self._popcounts = None
        if validate:
            self._validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Sequence[int]]) -> "FiniteGraph":
        """Build from a list of cross edges; loops are implied."""
        w = _bits.word_count(vertex_count)
        packed = np.zeros((vertex_count, w), dtype=np.uint64)
        edges = edges if isinstance(edges, list) else list(edges)
        # in chunks: converting nested lists, np.asarray keeps bookkeeping
        # for every pair that outweighs the int64 result about twice over
        for e0 in range(0, len(edges), 1 << 14):
            edge_arr = np.asarray(edges[e0 : e0 + (1 << 14)])
            if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
                raise ValueError("edges must be pairs")
            if edge_arr.dtype.kind not in "iu":  # no cast of 1.5 onto vertex 1
                raise ValueError("edge endpoints must be integers")
            edge_arr = edge_arr.astype(np.int64, copy=False)
            a, b = edge_arr[:, 0], edge_arr[:, 1]
            if (a < 0).any() or (b < 0).any() or (a >= vertex_count).any() or (b >= vertex_count).any():
                raise ValueError("edge endpoint out of range")
            if (a == b).any():
                raise ValueError("loops are implicit; cross edges only")
            _bits.set_bits(packed, a, b)
            _bits.set_bits(packed, b, a)
        idx = np.arange(vertex_count)
        _bits.set_bits(packed, idx, idx)
        return cls(vertex_count, packed, validate=False)

    @classmethod
    def from_rows(cls, masks: Sequence[int]) -> "FiniteGraph":
        """Build from per-vertex neighbour masks given as Python ints."""
        v = len(masks)
        masks = [operator.index(m) for m in masks]  # numpy integers pass, 1.5 raises TypeError
        if any(not 0 <= m < 1 << v for m in masks):
            raise ValueError("neighbour mask out of vertex range")
        packed = np.stack([_bits.int_to_row(m, v) for m in masks])
        return cls(v, packed, validate=True)

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "FiniteGraph":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("adjacency matrix must be square")
        # a cast to uint8 would read 0.6 as no edge and 257 as an edge
        if matrix.dtype.kind not in "biu" or ((matrix != 0) & (matrix != 1)).any():
            raise ValueError("adjacency entries must be 0 or 1")
        return cls(matrix.shape[0], _bits.pack_bits(matrix.astype(np.uint8)), validate=True)

    @classmethod
    def complete(cls, n: int) -> "FiniteGraph":
        if n < 1:
            raise ValueError("complete graph needs at least one vertex")
        _bits.require_packed_fits([n])
        packed = np.tile(_bits.full_row(n), (n, 1))
        return cls(n, packed, validate=False)

    @classmethod
    def cycle(cls, n: int) -> "FiniteGraph":
        if n < 3:
            raise ValueError("cycle needs at least three vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)])

    def _validate(self) -> None:
        v = self.vertex_count
        tail = v % 64
        if tail and (self._packed[:, -1] >> np.uint64(tail)).any():
            raise ValueError("stray bits beyond vertex range")
        idx = np.arange(v)
        diag = (self._packed[idx, idx >> 6] >> (idx & 63).astype(np.uint64)) & np.uint64(1)
        if not diag.all():
            raise ValueError("every vertex must carry a loop")
        chunk = max(1, (1 << 22) // max(1, v))
        for r0 in range(0, v, chunk):
            r1 = min(v, r0 + chunk)
            block = _bits.unpack_rows(self._packed[r0:r1], v)
            cols = np.empty((r1 - r0, v), dtype=np.uint8)
            for j, c in enumerate(range(r0, r1)):
                cols[j] = ((self._packed[:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)).astype(np.uint8)
            if not np.array_equal(block, cols):
                raise ValueError("adjacency must be symmetric")

    # -- queries -----------------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
            raise IndexError("vertex index out of range")
        return bool(_bits.get_bit(self._packed, u, v))

    def neighbors_mask(self, v: int) -> int:
        if not 0 <= v < self.vertex_count:
            raise IndexError("vertex index out of range")
        return _bits.row_to_int(self._packed[v])

    @property
    def packed_rows(self) -> np.ndarray:
        return self._packed

    def row_popcounts(self) -> np.ndarray:
        if self._popcounts is None:
            self._popcounts = _bits.row_popcounts(self._packed)
        return self._popcounts

    def edge_count(self) -> int:
        return int(self.row_popcounts().sum() - self.vertex_count) // 2

    def edges_chunks(self) -> Iterator[np.ndarray]:
        """Yield (k, 2) arrays of cross edges a < b in lexicographic order.

        Each block of rows is unpacked to about 2 MiB of bytes after the bits
        at or below the diagonal are cleared in its packed words.
        """
        v = self.vertex_count
        w = _bits.word_count(v)
        chunk = max(1, (1 << 21) // v)
        for r0 in range(0, v, chunk):
            u = np.arange(r0, min(v, r0 + chunk))
            upper = self._packed[r0 : r0 + chunk].copy()
            upper[np.arange(w) < (u >> 6)[:, None]] = 0
            # keep the bits above u's own bit in u's word (none when it is bit 63)
            above = ~((np.uint64(2) << (u & 63).astype(np.uint64)) - np.uint64(1))
            upper[np.arange(len(u)), u >> 6] &= above
            rows, cols = np.divmod(np.flatnonzero(_bits.unpack_rows(upper, v).view(bool)), v)
            if len(rows):
                yield np.stack((rows + r0, cols), axis=1)

    def edges(self) -> list[tuple[int, int]]:
        return [(int(a), int(b)) for arr in self.edges_chunks() for a, b in arr]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and np.array_equal(
            self._packed, other._packed
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FiniteGraph(vertices={self.vertex_count}, edges={self.edge_count()})"


def random_graph(vertex_count: int, seed: int, edge_prob: float = 0.5) -> FiniteGraph:
    """Seeded random reflexive graph; each cross pair is an independent coin."""
    rng = np.random.default_rng(seed)
    upper = rng.random((vertex_count, vertex_count)) < edge_prob
    dense = np.triu(upper, 1)
    dense = dense | dense.T | np.eye(vertex_count, dtype=bool)
    return FiniteGraph.from_dense(dense.astype(np.uint8))


# -- types over vertex sets -------------------------------------------------

TypeLike = Union["TypeSpec", Mapping[int, int], Iterable[tuple[int, int]]]


@dataclass(frozen=True)
class TypeSpec:
    """A 0/1 prescription over a set of vertices.

    ``pairs`` is sorted by vertex; a vertex outside the domain is
    unconstrained.  Bit 1 demands adjacency, bit 0 demands non-adjacency.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # a tuple of int pairs whatever the input, so that equal specs are equal
        # and hashable; int() would truncate 1.5 onto vertex 1
        try:
            pairs = [(operator.index(v), operator.index(b)) for v, b in self.pairs]
        except TypeError as exc:
            raise ValueError("type vertices and values must be integers") from exc
        seen = set()
        for v, b in pairs:
            if v < 0:
                raise ValueError("negative vertex in type domain")
            if b not in (0, 1):
                raise ValueError("type values must be 0 or 1")
            if v in seen:
                raise ValueError("duplicate vertex in type domain")
            seen.add(v)
        object.__setattr__(self, "pairs", tuple(sorted(pairs)))

    @classmethod
    def coerce(cls, f: TypeLike) -> "TypeSpec":
        if isinstance(f, TypeSpec):
            return f
        return cls(tuple(f.items() if isinstance(f, Mapping) else f))

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.pairs)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(b for _, b in self.pairs)

    def bit(self, v: int) -> int:
        for vertex, b in self.pairs:
            if vertex == v:
                return b
        raise KeyError(v)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SaturationReport:
    """Outcome of a saturation check; carries a re-checkable witness on failure."""

    holds: bool
    counterexample: Optional[tuple[tuple[int, ...], TypeSpec]] = None

    def __bool__(self) -> bool:
        return self.holds


def realizes(g: FiniteGraph, v: int, f: TypeLike) -> bool:
    """True when v matches the prescription f exactly; v must lie outside dom(f)."""
    f = TypeSpec.coerce(f)
    if not 0 <= v < g.vertex_count:
        raise IndexError("vertex index out of range")
    if v in f.domain:
        raise ValueError("realizing vertex must lie outside the type's domain")
    if f.pairs and f.domain[-1] >= g.vertex_count:
        raise ValueError("type domain exceeds vertex range")
    return all(g.adjacent(v, a) == bool(b) for a, b in f.pairs)


def find_realizer(g: FiniteGraph, f: TypeLike) -> Optional[int]:
    """Smallest vertex outside dom(f) realizing f, or None."""
    f = TypeSpec.coerce(f)
    full = (1 << g.vertex_count) - 1
    if f.pairs and f.domain[-1] >= g.vertex_count:
        raise ValueError("type domain exceeds vertex range")
    cand = full
    for a, b in f.pairs:
        mask = g.neighbors_mask(a)
        cand &= mask if b else (full ^ mask)
        cand &= ~(1 << a)
    cand &= full
    if cand == 0:
        return None
    return (cand & -cand).bit_length() - 1


# -- exhaustive saturation checks -------------------------------------------

# The n = 3 scan screens every pair on _SCREEN_COLUMNS columns spread over
# the vertex range, and re-checks what its screen misses at full width, in
# blocks of at most _FALLBACK_WORDS words (1 MiB) of rows.
_SCREEN_COLUMNS = 128
_FALLBACK_WORDS = 1 << 17
_ONE = np.uint64(1)


def _missing_type_small(g: FiniteGraph, n: int, ones_only: bool):
    # vertex_count < n-1: every subset size below n is in play, including all
    # of V, whose types are unrealizable by definition.
    v = g.vertex_count
    for size in range(min(n, v + 1)):
        for subset in itertools.combinations(range(v), size):
            assignments = [(1,) * size] if ones_only else itertools.product((0, 1), repeat=size)
            for bits in assignments:
                f = TypeSpec(tuple(zip(subset, bits)))
                if find_realizer(g, f) is None:
                    return subset, f
    return None


def _missing_type_singletons(g: FiniteGraph, ones_only: bool):
    # n == 2 reduces to two popcount thresholds per vertex; this avoids
    # materializing complement rows on very large graphs.
    pc = g.row_popcounts()
    no_pos = pc < 2
    no_neg = None if ones_only else pc == g.vertex_count
    bad = no_pos if ones_only else (no_pos | no_neg)
    if not bad.any():
        return None
    a = int(np.argmax(bad))
    sign = 1 if ones_only or not no_neg[a] else 0
    return (a,), TypeSpec(((a, sign),))


def _missing_type_pairs(g: FiniteGraph, ones_only: bool):
    # n == 3: subsets {a, c} with a < c, scanned in the order (a, c, bit of
    # a, sign of c); the smallest failing (A, f) is returned.
    #
    # A type over a pair almost always has a realizer among a few columns
    # spread over the whole vertex range, so each (a, bit, sign) first
    # screens every c > a on those columns alone: one AND and one OR per
    # screen word over contiguous vertices.  Only the c whose screen comes
    # up empty are re-checked at full width, which keeps the verdict exact.
    v = g.vertex_count
    rows = g.packed_rows
    full = _bits.full_row(v)
    screens = _screen_words(g)
    signs = (1,) if ones_only else (0, 1)
    hits = np.empty(v, dtype=np.uint64)
    word = np.empty(v, dtype=np.uint64)
    for a in range(v - 1):
        n = v - a - 1
        best = None
        for bit in signs:
            cand = screens[bit][:, a]
            for sign in signs:
                screen = screens[sign][:, a + 1 :]
                np.bitwise_and(screen[0], cand[0], out=hits[:n])
                for w in range(1, len(cand)):
                    np.bitwise_and(screen[w], cand[w], out=word[:n])
                    np.bitwise_or(hits[:n], word[:n], out=hits[:n])
                if hits[:n].all():
                    continue
                suspects = a + 1 + np.flatnonzero(hits[:n] == 0)
                c = _first_unrealized(rows, full, a, bit, suspects, sign)
                if c is not None and (best is None or (c, bit, sign) < best):
                    best = (c, bit, sign)
        if best is not None:
            c, bit, sign = best
            return (a, c), TypeSpec(((a, bit), (c, sign)))
    return None


def _missing_type_collapsed(g: FiniteGraph, copies: int):
    # n == 3 over only the pairs {a, c} inside one fiber, the blocks of
    # ``copies`` consecutive vertices of a product level: the smallest failing
    # (A, f) in the order of _missing_type_pairs, which is that scan's answer
    # whenever every type over two fibers has a realizer (the lifting lemma
    # in the README).  The screen is the same; one fiber's pairs are screened
    # at once, for every (bit of a, sign of c), and the pairs it misses are
    # re-checked at full width.
    v = g.vertex_count
    rows = g.packed_rows
    full = _bits.full_row(v)
    screens = np.stack(_screen_words(g))  # [sign, word, vertex]
    above = np.triu(np.ones((copies, copies), dtype=bool), 1)
    for lo in range(0, v, copies):
        block = screens[:, :, lo : lo + copies]
        # hits[bit, sign, a, c]: a screen column realizes {lo + a: bit, lo + c: sign}
        hits = np.bitwise_or.reduce(block[:, None, :, :, None] & block[None, :, :, None, :], axis=2)
        missing = (hits == 0) & above
        for a in np.flatnonzero(missing.any(axis=(0, 1, 3))):
            best = None
            for bit, sign in itertools.product((0, 1), repeat=2):
                suspects = lo + np.flatnonzero(missing[bit, sign, a])
                c = _first_unrealized(rows, full, lo + a, bit, suspects, sign) if len(suspects) else None
                if c is not None and (best is None or (c, bit, sign) < best):
                    best = (c, bit, sign)
            if best is not None:
                c, bit, sign = best
                return (lo + int(a), c), TypeSpec(((lo + int(a), bit), (c, sign)))
    return None


def _screen_columns(v: int) -> np.ndarray:
    """The ``_SCREEN_COLUMNS`` columns the n = 3 scan screens on, spread evenly, or all of them."""
    if v <= _SCREEN_COLUMNS:
        return np.arange(v)
    return np.arange(_SCREEN_COLUMNS) * v // _SCREEN_COLUMNS


def _screen_words(g: FiniteGraph) -> tuple[np.ndarray, np.ndarray]:
    """Realizers among the screen columns, word-major [word, vertex], per sign.

    Bit j of word j // 64 of vertex u is set when screen column j realizes
    sign 0 for u (not adjacent to u) in the first array, sign 1 (adjacent
    to u, and not u itself) in the second.
    """
    rows = g.packed_rows
    cols = _screen_columns(g.vertex_count)
    adj = np.zeros((_bits.word_count(len(cols)), g.vertex_count), dtype=np.uint64)
    for j, col in enumerate(cols):
        adj[j >> 6] |= ((rows[:, col >> 6] >> np.uint64(col & 63)) & _ONE) << np.uint64(j & 63)
    non = ~adj & _bits.full_row(len(cols))[:, None]
    j = np.arange(len(cols))
    adj[j >> 6, cols] &= ~(_ONE << (j & 63).astype(np.uint64))
    return non, adj


def _first_unrealized(
    rows: np.ndarray, full: np.ndarray, a: int, bit: int, suspects: np.ndarray, sign: int
) -> Optional[int]:
    """Smallest c in ``suspects`` with no realizer of {a: bit, c: sign}, or None.

    Checks the full rows, ``_FALLBACK_WORDS`` words of suspect rows at a time.
    """
    cand = _realizer_rows(rows, full, np.array([a]), bit)[0]
    step = max(1, _FALLBACK_WORDS // len(full))
    for s0 in range(0, len(suspects), step):
        block = suspects[s0 : s0 + step]
        ok = (_realizer_rows(rows, full, block, sign) & cand).any(axis=1)
        if not ok.all():
            return int(block[int(np.argmin(ok))])
    return None


def _realizer_rows(rows: np.ndarray, full: np.ndarray, vertices: np.ndarray, sign: int) -> np.ndarray:
    """Packed realizers of ``sign`` at each of ``vertices``, one row each.

    Sign 1 is the adjacency row with the vertex's own bit cleared, sign 0
    the non-adjacency row, which never holds the vertex itself.
    """
    out = rows[vertices] if sign else ~rows[vertices] & full
    out[np.arange(len(vertices)), vertices >> 6] &= ~(_ONE << (vertices & 63).astype(np.uint64))
    return out


def _missing_type_planes(g: FiniteGraph, n: int, ones_only: bool):
    # n >= 4: subsets of size n-1 are a lexicographic prefix P of size n-3
    # plus a pair b < c above it.  The scan order is (P, b, c, bits, sign),
    # and the smallest failing (A, f) is returned.
    #
    # Row (P, bits, b) of the Four Russians kernel :func:`_bits.first_hole`
    # picks the vertices x that realize the assignment bits[:-1] of P and
    # bits[-1] at b; a zero bit c > b of the OR of their realizer rows of a
    # sign is a type {P: bits[:-1], b: bits[-1], c: sign} with no realizer.
    # The table, built once per scan, holds the ORs of the realizer rows
    # over groups of 8 vertices x, one part per sign side by side: bit c of
    # a sign's part of row x is set when x realizes the sign at c.
    # Realizing is symmetric, so the x of group g that realize a bit at u
    # are byte g of u's own realizer row of that bit, and the AND of those
    # bytes over P leaves out P itself.
    #
    # :func:`_bits.walk_prefixes` runs one kernel call over batches of whole
    # prefixes, in the row order (P, bits, b), which is not the scan order.
    # Its first hit names the first prefix with a hole under either sign,
    # and that prefix alone is decided in the scan order.
    v = g.vertex_count
    rows = g.packed_rows
    full = _bits.full_row(v)
    signs = (1,) if ones_only else (0, 1)
    groups = -(-v // 8)
    w = _bits.word_count(v)
    _bits.require_fits(_scan_table_bytes(v, n, ones_only), "lookup tables")
    realizers = [_realizer_rows(rows, full, np.arange(v), sign) for sign in signs]
    fused = _bits.or_tables(np.concatenate(realizers, axis=1))
    index = np.stack([r.view(np.uint8)[:, :groups].T for r in realizers])  # [sign, group, vertex]
    prefixes = itertools.combinations(range(v), n - 3)
    for found in _bits.walk_prefixes(fused, index, prefixes, np.arange(1, v + 1)):
        if found is not None:
            parts = [fused[:, :, s * w : (s + 1) * w] for s in range(len(signs))]
            return _smallest_missing_type_at(parts, index, found[0], signs, v)
    return None


def _smallest_missing_type_at(tables, index: np.ndarray, prefix: tuple[int, ...], signs, v: int):
    # The smallest missing (A, f) of _missing_type_planes over the prefix P,
    # in the scan order (b, c, bits, sign): one kernel call per assignment of
    # P, bit of b and sign of c, each over every b of P.
    lo = prefix[-1] + 1
    start = np.arange(lo + 1, v)
    best = None
    for bits in itertools.product(range(len(signs)), repeat=len(prefix) + 1):
        picks = np.bitwise_and.reduce(index[list(bits[:-1]), :, list(prefix)], axis=0)
        chosen = index[bits[-1], :, lo : v - 1] & picks[:, None]
        for sign, t in enumerate(tables):
            found = _bits.first_hole(t, chosen, start, v)
            if found is not None:
                key = (lo + found[0], found[1], bits, sign)
                if best is None or key < best:
                    best = key
    b, c, bits, sign = best
    subset = prefix + (b, c)
    return subset, TypeSpec(tuple(zip(subset, (signs[s] for s in bits + (sign,)))))


def _scan_table_bytes(v: int, n: int, ones_only: bool = False) -> int:
    """Bytes of the lookup tables that the n >= 4 scan of a V-vertex graph builds; 0 for n < 4."""
    if n < 4 or v < n - 1:
        return 0
    return (1 if ones_only else 2) * -(-v // 8) * 256 * _bits.word_count(v) * 8


def _missing_type(g: FiniteGraph, n: int, ones_only: bool):
    if g.vertex_count < n - 1:
        return _missing_type_small(g, n, ones_only)
    if n == 2:
        return _missing_type_singletons(g, ones_only)
    if n == 3:
        return _missing_type_pairs(g, ones_only)
    return _missing_type_planes(g, n, ones_only)


def _saturation(g: FiniteGraph, n: int, ones_only: bool) -> SaturationReport:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return SaturationReport(True)
    missing = _missing_type(g, n, ones_only)
    return SaturationReport(missing is None, missing)


def is_n_saturated(g: FiniteGraph, n: int) -> SaturationReport:
    """Exhaustively decide whether every type over every < n vertices is realized.

    For graphs with at least n-1 vertices only subsets of size exactly n-1
    are enumerated: a type over a smaller set extends to one over a superset
    of size n-1, and any realizer of the extension realizes the restriction.
    """
    return _saturation(g, n, ones_only=False)


def is_weakly_n_saturated(g: FiniteGraph, n: int) -> SaturationReport:
    """Like :func:`is_n_saturated` but only for the all-ones type.

    The witness is required to lie outside the subset, the stronger reading
    that the randomized construction actually relies on.
    """
    return _saturation(g, n, ones_only=True)

