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
            edge_arr = np.asarray(edges[e0 : e0 + (1 << 14)], dtype=np.int64)
            if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
                raise ValueError("edges must be pairs")
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
        packed = np.stack([_bits.int_to_row(m, v) for m in masks])
        return cls(v, packed, validate=True)

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "FiniteGraph":
        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("adjacency matrix must be square")
        return cls(matrix.shape[0], _bits.pack_bits(matrix), validate=True)

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
        seen = set()
        for v, b in self.pairs:
            if v < 0:
                raise ValueError("negative vertex in type domain")
            if b not in (0, 1):
                raise ValueError("type values must be 0 or 1")
            if v in seen:
                raise ValueError("duplicate vertex in type domain")
            seen.add(v)
        if list(self.pairs) != sorted(self.pairs):
            object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    @classmethod
    def coerce(cls, f: TypeLike) -> "TypeSpec":
        if isinstance(f, TypeSpec):
            return f
        if isinstance(f, Mapping):
            return cls(tuple(sorted((int(v), int(b)) for v, b in f.items())))
        return cls(tuple(sorted((int(v), int(b)) for v, b in f)))

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

# Largest blocks the n >= 4 scan materializes, in float32 entries: one block
# of counts (512 KiB), and one tile of X rows with their unpacked bits (4 MiB).
_PRODUCT_BLOCK = 1 << 17
_ROWS_BLOCK = 1 << 20

# The n = 3 scan screens every pair on this many columns spread over the
# vertex range, and re-checks the pairs its screen misses at full width in
# blocks of at most _FALLBACK_WORDS words (1 MiB) of rows.
_SCREEN_COLUMNS = 128
_FALLBACK_WORDS = 1 << 17
_ONE = np.uint64(1)


def _missing_type_small(g: FiniteGraph, n: int, ones_only: bool):
    # vertex_count < n-1: every subset size below n is in play, including all
    # of V, whose types are unrealizable by definition.
    v = g.vertex_count
    full = (1 << v) - 1
    masks = [g.neighbors_mask(x) for x in range(v)]
    for size in range(0, n):
        if size > v:
            break
        for subset in itertools.combinations(range(v), size):
            assignments = [(1,) * size] if ones_only else itertools.product((0, 1), repeat=size)
            for bits in assignments:
                cand = full
                for a, b in zip(subset, bits):
                    cand &= masks[a] if b else (full ^ masks[a])
                    cand &= ~(1 << a)
                if cand & full == 0:
                    return subset, TypeSpec(tuple(zip(subset, bits)))
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


def _screen_columns(v: int) -> np.ndarray:
    """The ``_SCREEN_COLUMNS`` columns the n = 3 scan screens on, or all of them."""
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
    # plus a pair b < c above it; the whole (b, c) plane of one assignment
    # of P is decided at once by :func:`_first_missing_pair`.  The scan
    # order is (P, b, c, bits, sign), and the smallest failing (A, f) is
    # returned.
    v = g.vertex_count
    rows = g.packed_rows
    full = _bits.full_row(v)
    for prefix in itertools.combinations(range(v), n - 3):
        lo = prefix[-1] + 1
        if lo > v - 2:
            continue
        best = None
        assignments = [(1,) * (n - 3)] if ones_only else itertools.product((0, 1), repeat=n - 3)
        for bits in assignments:
            cand = full.copy()
            for a, b in zip(prefix, bits):
                cand &= rows[a] if b else ~rows[a] & full
            for a in prefix:
                _bits.clear_bit_in_row(cand, a)
            found = _first_missing_pair(g, lo, cand, ones_only)
            if found is not None:
                b, c, bit, sign = found
                key = (b, c, bits + (bit,), sign)
                if best is None or key < best:
                    best = key
        if best is not None:
            b, c, bits, sign = best
            subset = prefix + (b, c)
            return subset, TypeSpec(tuple(zip(subset, bits + (sign,))))
    return None


def _first_missing_pair(g: FiniteGraph, lo: int, cand: np.ndarray, ones_only: bool):
    """Smallest (b, c, bit, sign) with lo <= b < c whose type has no realizer in cand.

    X stacks, for every vertex u >= lo, its non-adjacency row and its
    adjacency row with the loop cleared, both restricted to the columns in
    ``cand`` (see :func:`_type_rows`); entry ((b, bit), (c, sign)) of
    X @ X.T then counts the realizers in ``cand``, other than b and c, of
    the type {b: bit, c: sign}.  The counts are sums of at most V products
    of 0/1 values, so float32 holds them exactly.  X is built in tiles of
    c rows, at most ``_ROWS_BLOCK`` entries with their unpacked bits, and
    each tile is multiplied by chunks of no more b rows, at most
    ``_PRODUCT_BLOCK`` counts at a time; a later tile is only searched
    below the smallest failing b found so far.
    """
    v = g.vertex_count
    cols = np.nonzero(_bits.unpack_rows(cand, v))[0]
    signs = (1,) if ones_only else (0, 1)
    ns = len(signs)
    tile = max(2, _ROWS_BLOCK // (ns * len(cols) + v))
    best = None
    for c0 in range(lo, v, tile):
        c1 = min(v, c0 + tile)
        xc = _type_rows(g, c0, c1, cols, ones_only)
        b_end = c1 - 1 if best is None else min(c1 - 1, best[0])
        step = max(1, min(tile, _PRODUCT_BLOCK // (ns * ns * (c1 - c0))))
        for b0 in range(lo, b_end, step):
            b1 = min(b_end, b0 + step)
            xb = xc[:, b0 - c0 : b1 - c0] if b0 >= c0 else _type_rows(g, b0, b1, cols, ones_only)
            cs = max(c0, b0 + 1)  # no c at or below the chunk's first b
            counts = xb.reshape(ns * (b1 - b0), -1) @ xc[:, cs - c0 :].transpose(0, 2, 1)
            missing = (counts == 0).reshape(ns, ns, b1 - b0, c1 - cs)  # [sign, bit, b, c]
            missing &= np.arange(cs, c1)[None, :] > np.arange(b0, b1)[:, None]
            bad = missing.any(axis=(0, 1, 3))
            if bad.any():
                i = int(np.argmax(bad))
                first = int(np.argmax(missing[:, :, i].transpose(2, 1, 0)))
                j, bit, sign = np.unravel_index(first, (c1 - cs, ns, ns))
                best = (b0 + i, cs + int(j), signs[bit], signs[sign])
                break
    return best


def _type_rows(g: FiniteGraph, r0: int, r1: int, cols: np.ndarray, ones_only: bool) -> np.ndarray:
    """Realizer indicators of rows r0..r1-1 over ``cols``, float32 [bit, row, col].

    Bit 1 is the adjacency row with the loop cleared, bit 0 (left out when
    ``ones_only``) the non-adjacency row, so neither counts the row itself.
    """
    x = np.empty((1 if ones_only else 2, r1 - r0, len(cols)), dtype=np.float32)
    x[-1] = _bits.unpack_rows(g.packed_rows[r0:r1], g.vertex_count)[:, cols]
    if not ones_only:
        np.subtract(1, x[-1], out=x[0])
    own = np.nonzero((cols >= r0) & (cols < r1))[0]
    x[-1, cols[own] - r0, own] = 0
    return x


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


def oracle_is_n_saturated(g: FiniteGraph, n: int) -> bool:
    """Reference checker: literal enumeration, no subset-size reduction, no masks.

    Deliberately written independently of the optimized scan so the two can
    cross-validate each other.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    v = g.vertex_count
    for size in range(n):
        for subset in itertools.combinations(range(v), size):
            for bits in itertools.product((0, 1), repeat=size):
                found = False
                for w in range(v):
                    if w in subset:
                        continue
                    if all(g.adjacent(w, a) == bool(b) for a, b in zip(subset, bits)):
                        found = True
                        break
                if not found:
                    return False
    return True
