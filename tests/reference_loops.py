"""Reference implementations the tests compare the library against.

The per-pair loop versions of the saturation scan and the product lifting
check are the loops the library ran before its n >= 4 saturation scan
became block products over the (b, c) plane and its lifting tuple check a
packed lookup-table kernel: the tests require the library to report
exactly the counterexamples these report.

The division quotient loop tests a division bond pair by pair of base
vertices, and must report the message of the library's packed quotient
check.

``GraphMap`` is an explicit vertex map between two finite graphs.  The
generic graph-map oracles decide, for any ``GraphMap``, whether it is a
homomorphism, strict, surjective or a quotient map, compose maps, and
check the fiber-lifting property by literal enumeration over the fibers.
The library only ever builds division bonds ``v -> v // (m+1)`` and
checks them on packed rows, with no map object; these oracles cross-check
those checks on small instances.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from satgraph import _bits
from satgraph.builder import LiftingReport
from satgraph.graphs import FiniteGraph, TypeSpec


def clear_bit_in_row(row: np.ndarray, c: int) -> None:
    row[c >> 6] &= np.uint64(~(1 << (c & 63)) & 0xFFFFFFFFFFFFFFFF)


def scan_missing_type(g: FiniteGraph, n: int, ones_only: bool):
    """Smallest (A, f) over subsets of size n-1 with no realizer, or None.

    Needs n >= 3 and at least n-1 vertices.  Subsets are a lexicographic
    prefix of size n-2 plus a largest element c; the c coordinate is one
    vectorized pass per prefix assignment, screened on the leading words
    first.
    """
    v = g.vertex_count
    rows = g.packed_rows
    full = _bits.full_row(v)
    comp = rows ^ full
    rpos = rows.copy()
    idx = np.arange(v)
    rpos[idx, idx >> 6] &= ~(np.uint64(1) << (idx & 63).astype(np.uint64))
    screen = min(4, rows.shape[1])
    for prefix in itertools.combinations(range(v), n - 2):
        lo = prefix[-1] + 1 if prefix else 0
        if lo >= v:
            continue
        best = None
        assignments = [(1,) * (n - 2)] if ones_only else itertools.product((0, 1), repeat=n - 2)
        for bits in assignments:
            cand = full.copy()
            for a, b in zip(prefix, bits):
                cand &= rows[a] if b else comp[a]
            for a in prefix:
                clear_bit_in_row(cand, a)
            plans = ((1, rpos),) if ones_only else ((0, comp), (1, rpos))
            for sign, mat in plans:
                maybe = ~(mat[lo:, :screen] & cand[:screen]).any(axis=1)
                if maybe.any():
                    suspects = lo + np.nonzero(maybe)[0]
                    ok = (mat[suspects] & cand).any(axis=1)
                    if not ok.all():
                        c = int(suspects[int(np.argmin(ok))])
                        key = (c, bits, sign)
                        if best is None or key < best:
                            best = key
        if best is not None:
            c, bits, sign = best
            subset = prefix + (c,)
            return subset, TypeSpec(tuple(zip(subset, bits + (sign,))))
    return None


def first_missing_type_loops(g: FiniteGraph, n: int, ones_only: bool):
    """Smallest (A, f) over subsets of every size below n with no realizer, or None.

    The answer the library reports for graphs with fewer than n-1 vertices,
    where every subset size is in play.  Sizes ascend, subsets and 0/1
    assignments run lexicographically (only all ones with ``ones_only``),
    and realizers are searched vertex by vertex through ``g.adjacent``.
    """
    v = g.vertex_count
    for size in range(min(n, v + 1)):
        for subset in itertools.combinations(range(v), size):
            assignments = [(1,) * size] if ones_only else itertools.product((0, 1), repeat=size)
            for bits in assignments:
                if not any(
                    w not in subset
                    and all(g.adjacent(w, a) == bool(b) for a, b in zip(subset, bits))
                    for w in range(v)
                ):
                    return subset, TypeSpec(tuple(zip(subset, bits)))
    return None


def product_lifting_loops(g: FiniteGraph, base: FiniteGraph, m: int, n: int, distinct_bases=False):
    """First lifting counterexample ``(i, targets)`` for n >= 3, or None.

    Per base vertex i: singletons, then pairs, then (for n >= 4) target
    triples a < b < c, one AND-reduction over the tail per pair (a, b),
    then (for n >= 5) every larger tuple size, one Python-int AND per
    combination.
    """
    k = base.vertex_count
    copies = m + 1
    v = g.vertex_count
    base_bits = _bits.unpack_rows(base.packed_rows, k)
    for i in range(k):
        tcols = np.nonzero(np.repeat(base_bits[i].astype(bool), copies))[0]
        t_bases = tcols // copies
        fiber_block = _bits.unpack_rows(g.packed_rows[i * copies : (i + 1) * copies], v)[:, tcols]
        masks = _bits.pack_bits(np.ascontiguousarray(fiber_block.T))
        nonzero = masks.any(axis=1)
        if not nonzero.all():
            return i, (int(tcols[int(np.argmin(nonzero))]),)
        count = len(tcols)
        for a in range(count - 1):
            for b in range(a + 1, count):
                if distinct_bases and t_bases[a] == t_bases[b]:
                    continue
                if not (masks[a] & masks[b]).any():
                    return i, (int(tcols[a]), int(tcols[b]))
        if n >= 4:
            for a in range(count - 2):
                for b in range(a + 1, count - 1):
                    if distinct_bases and t_bases[a] == t_bases[b]:
                        continue
                    pair = masks[a] & masks[b]
                    third = pair & masks[b + 1 :]
                    ok = third.any(axis=1)
                    if distinct_bases:
                        tail = t_bases[b + 1 :]
                        ok |= (tail == t_bases[a]) | (tail == t_bases[b])
                    if not ok.all():
                        c = b + 1 + int(np.argmin(ok))
                        return i, (int(tcols[a]), int(tcols[b]), int(tcols[c]))
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
                        return i, tuple(int(tcols[t]) for t in sub)
    return None


def division_quotient_loops(g: FiniteGraph, base: FiniteGraph, copies: int):
    """The message of the first base pair (i, j) the division bond gets wrong, or None.

    Pairs run row by row.  Fibers i and j carry an edge when some copy of i
    is adjacent to some copy of j, tested on Python-int neighbour masks, and
    that must agree with ``base.adjacent(i, j)``.
    """
    k = base.vertex_count
    masks = [g.neighbors_mask(u) for u in range(g.vertex_count)]
    fiber_masks = [((1 << copies) - 1) << (j * copies) for j in range(k)]
    for i in range(k):
        for j in range(k):
            meet = any(masks[u] & fiber_masks[j] for u in range(i * copies, (i + 1) * copies))
            if meet and not base.adjacent(i, j):
                return f"an edge between fibers {i} and {j} maps onto a non-edge"
            if not meet and base.adjacent(i, j):
                return f"edge ({i},{j}) has no edge between its fibers"
    return None


# -- generic graph-map oracles ------------------------------------------------


@dataclass(frozen=True, eq=False)
class GraphMap:
    """A total vertex map between two finite graphs: ``image[v]`` is the target of v."""

    source: FiniteGraph
    target: FiniteGraph
    image: np.ndarray = field(repr=False)

    def __post_init__(self):
        img = np.ascontiguousarray(self.image, dtype=np.int64)
        if img.shape != (self.source.vertex_count,):
            raise ValueError("image must assign every source vertex")
        if img.size and (img.min() < 0 or img.max() >= self.target.vertex_count):
            raise ValueError("image value out of target range")
        img.flags.writeable = False
        object.__setattr__(self, "image", img)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and np.array_equal(self.image, other.image)
        )

    __hash__ = None  # type: ignore[assignment]


def identity_map(g: FiniteGraph) -> GraphMap:
    return GraphMap(g, g, np.arange(g.vertex_count))


def constant_map(source: FiniteGraph, target: FiniteGraph, value: int = 0) -> GraphMap:
    return GraphMap(source, target, np.full(source.vertex_count, value))


def fibers(h: GraphMap) -> list[list[int]]:
    """The preimage of every target vertex, in ascending order."""
    out: list[list[int]] = [[] for _ in range(h.target.vertex_count)]
    for u, p in enumerate(h.image):
        out[int(p)].append(u)
    return out


def is_homomorphism(h: GraphMap) -> bool:
    """Every source edge maps onto a target edge (loops absorb collapses)."""
    src, tgt, img = h.source, h.target, h.image
    v = src.vertex_count
    chunk = max(1, (1 << 22) // max(1, v))
    for r0 in range(0, v, chunk):
        r1 = min(v, r0 + chunk)
        block = _bits.unpack_rows(src.packed_rows[r0:r1], v)
        for local, u in enumerate(range(r0, r1)):
            nbrs = np.nonzero(block[local])[0]
            hu = int(img[u])
            hn = img[nbrs]
            bits = (tgt.packed_rows[hu, hn >> 6] >> (hn & 63).astype(np.uint64)) & np.uint64(1)
            if not bits.all():
                return False
    return True


def is_strict(h: GraphMap) -> bool:
    """Every target edge between image points pulls back to a source edge."""
    fibs = fibers(h)
    fiber_masks = [sum(1 << u for u in fib) for fib in fibs]
    tgt = h.target
    for p in range(tgt.vertex_count):
        if not fibs[p]:
            continue
        for q in range(p + 1, tgt.vertex_count):
            if not fibs[q] or not tgt.adjacent(p, q):
                continue
            mask_q = fiber_masks[q]
            if not any(h.source.neighbors_mask(a) & mask_q for a in fibs[p]):
                return False
    return True


def is_surjective(h: GraphMap) -> bool:
    return bool(np.all(np.bincount(h.image, minlength=h.target.vertex_count) > 0))


def is_quotient_map(h: GraphMap) -> bool:
    return is_surjective(h) and is_homomorphism(h) and is_strict(h)


def compose(outer: GraphMap, inner: GraphMap) -> GraphMap:
    """The map v -> outer(inner(v)); inner's target must be outer's source."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("inner.target must equal outer.source")
    return GraphMap(inner.source, outer.target, outer.image[inner.image])


def check_lifting_property(h: GraphMap, n: int) -> LiftingReport:
    """Verify the quotient map h lifts common-neighbour configurations.

    For every target vertex v, every set of up to n-1 distinct neighbours
    of v, and every choice of preimages of those neighbours, some preimage
    of v must be adjacent to all the chosen preimages.  Enumeration order
    (v ascending, tuple length ascending, subsets and preimage choices
    lexicographic) makes the reported counterexample deterministic.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not is_quotient_map(h):
        raise ValueError("lifting check expects a quotient map")
    src, tgt = h.source, h.target
    fibs = fibers(h)
    fiber_masks = [sum(1 << u for u in fib) for fib in fibs]
    src_masks = [src.neighbors_mask(u) for u in range(src.vertex_count)]
    for v in range(tgt.vertex_count):
        nbrs = [w for w in range(tgt.vertex_count) if tgt.adjacent(v, w)]
        base_mask = fiber_masks[v]
        for k in range(1, n):
            for subset in itertools.combinations(nbrs, k):
                for pre in itertools.product(*(fibs[w] for w in subset)):
                    cand = base_mask
                    for u in pre:
                        cand &= src_masks[u]
                        if cand == 0:
                            break
                    if cand == 0:
                        return LiftingReport(False, (v, tuple(pre)))
    return LiftingReport(True)
