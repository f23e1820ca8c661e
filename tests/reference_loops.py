"""Per-pair loop versions of the saturation scan and the product lifting check.

These are the loops the library ran before its n >= 4 saturation scan and
its lifting tuple check became block products over the (b, c) plane.  They
stay here as references: the tests require the library to report exactly
the counterexamples these report.
"""

import itertools

import numpy as np

from satgraph import _bits
from satgraph.graphs import FiniteGraph, TypeSpec


def scan_missing_type(g: FiniteGraph, n: int, ones_only: bool):
    """Smallest (A, f) over subsets of size n-1 with no realizer, or None.

    Needs n >= 3 and at least n-1 vertices.  Subsets are a lexicographic
    prefix of size n-2 plus a largest element c; the c coordinate is one
    vectorized pass per prefix assignment, screened on the leading words
    first.
    """
    v = g.vertex_count
    rows = g.packed_rows
    comp = g.packed_complement()
    rpos = g.packed_rows_noloop()
    full = _bits.full_row(v)
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
                _bits.clear_bit_in_row(cand, a)
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
