"""Compare the two Four Russians callers with their per-pair reference loops.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src:tests python tests/lifting_fuzz.py --cases 6000 --scan-cases 1000

Lifting case j draws, from seed j, a base graph on k <= 4 vertices
(complete or random), m from 1 to 70 (log-uniform, so that small fibers,
where the reference loops are fast, are common) and a product graph over
the base.  One case in three then loses one random edge between a fiber
and one of its targets, and one in three loses the edges that cover a
random pair or triple of one fiber's targets, so that counterexamples
occur at every size.  One case in six (a random base that lost one edge)
also gains an edge between the fibers over two non-adjacent base vertices,
when the base has such a pair.  For n = 3 and n = 4, in both modes,
check_product_lifting must report the counterexample of
product_lifting_loops, and on every case the division quotient check must
report the message of division_quotient_loops.

Scan case j draws, from seed j, a random graph (n = 4 on 5 to 149
vertices, or n = 5 on 5 to 23), a sample over K4 (n = 4, m 10 to 59) or a
sample over K5 (n = 5, m 3 to 9).  In one case of two, every realizer of a
random type over a random n-1 vertices then moves to the opposite bit at
the type's largest vertex, so that the type has none.  is_n_saturated and
is_weakly_n_saturated must report the counterexample of scan_missing_type.
Odd scan cases run with _bits.BLOCK_WORDS at 64 words, so that the scan's
prefix walker cuts its batches after a prefix or a few and splits each
kernel call into blocks of a few rows.  Odd cases, lifting and scan alike,
also run with _bits._DROP_GROUPS at 1, so that the kernel drops its settled
rows at groups 1, 2, 4, 8 and 16, inside the few groups of these graphs.

The script stops at the first mismatch with exit status 1 and prints the
case; otherwise it prints how the checks ended.  6,000 lifting cases take
about 3.0 minutes on one core, and 1,000 scan cases about 4.9.
"""

import argparse
import sys
import time

import numpy as np

from satgraph import _bits
from satgraph.builder import _check_division_quotient, check_product_lifting, sample_product_graph
from satgraph.graphs import FiniteGraph, is_n_saturated, is_weakly_n_saturated, random_graph

from conftest import uncover, without_edges
from reference_loops import division_quotient_loops, product_lifting_loops, scan_missing_type


def case(j: int):
    """Base, m and product graph of lifting case j, and what was removed from the sample."""
    rng = np.random.default_rng(j)
    k = int(rng.integers(1, 5))
    m = int(np.exp(rng.uniform(0, np.log(70.5))))  # log-uniform over 1 .. 70
    base = FiniteGraph.complete(k) if j % 2 else random_graph(k, seed=j)
    g = sample_product_graph(base, m, seed=j)
    if j % 3 == 0:
        return base, m, g, "sample"
    copies = m + 1
    i = int(rng.integers(k))
    tcols = [t for t in range(g.vertex_count) if base.adjacent(i, t // copies)]
    if j % 3 == 1:
        u = i * copies + int(rng.integers(copies))
        nbrs = [t for t in tcols if t != u and g.adjacent(u, t)]
        if not nbrs:
            return base, m, g, "sample"
        t = int(rng.choice(nbrs))
        g, change = without_edges(g, [(u, t)]), f"edge {u}-{t}"
        non_edges = [(a, b) for a in range(k) for b in range(a + 1, k) if not base.adjacent(a, b)]
        if j % 6 == 4 and non_edges:
            a, b = non_edges[int(rng.integers(len(non_edges)))]
            x, y = a * copies + int(rng.integers(copies)), b * copies + int(rng.integers(copies))
            g, change = FiniteGraph.from_edges(g.vertex_count, g.edges() + [(x, y)]), f"{change}, edge {x}+{y}"
        return base, m, g, change
    size = int(rng.integers(2, 4))
    if len(tcols) < size:
        return base, m, g, "sample"
    targets = tuple(sorted(int(t) for t in rng.choice(tcols, size, replace=False)))
    return base, m, uncover(g, m, i, targets), f"uncover {i}: {targets}"


def scan_case(j: int):
    """n and graph of scan case j, and the type whose realizers were moved."""
    rng = np.random.default_rng(j)
    kind = j % 3
    if kind == 0:
        n = 4 if rng.random() < 0.75 else 5
        v = int(rng.integers(5, 150 if n == 4 else 24))
        g = random_graph(v, seed=j, edge_prob=float(rng.uniform(0.2, 0.95)))
    else:
        n = 3 + kind
        m = int(rng.integers(10, 60)) if n == 4 else int(rng.integers(3, 10))
        g = sample_product_graph(FiniteGraph.complete(n), m, seed=j)
    if j % 2:
        return n, g, "sample"
    v = g.vertex_count
    subset = tuple(sorted(int(x) for x in rng.choice(v, n - 1, replace=False)))
    bits = tuple(int(b) for b in rng.integers(0, 2, n - 1))
    dense = np.unpackbits(g.packed_rows.view(np.uint8), axis=-1, bitorder="little")[:, :v].copy()
    outside = np.setdiff1d(np.arange(v), subset)
    realizers = outside[(dense[np.ix_(outside, subset)] == bits).all(axis=1)]
    dense[realizers, subset[-1]] ^= 1
    dense[subset[-1], realizers] ^= 1
    return n, FiniteGraph.from_dense(dense), f"no realizer of {dict(zip(subset, bits))}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=6000, help="lifting cases")
    parser.add_argument("--scan-cases", type=int, default=1000, help="saturation scan cases")
    parser.add_argument("--first", type=int, default=0, help="seed of the first case")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    sizes: dict[int, int] = {}
    quotients: dict[str, int] = {}
    drop_groups = _bits._DROP_GROUPS
    for j in range(args.first, args.first + args.cases):
        base, m, g, change = case(j)
        got = _check_division_quotient(g, base, m + 1)
        want = division_quotient_loops(g, base, m + 1)
        if got != want:
            print(f"case {j}: k={base.vertex_count} m={m} {change} quotient: got {got!r}, reference {want!r}")
            return 1
        kind = "passes" if got is None else got.split()[0]
        quotients[kind] = quotients.get(kind, 0) + 1
        _bits._DROP_GROUPS = 1 if j % 2 else drop_groups
        for n in (3, 4):
            for distinct in (False, True):
                got = check_product_lifting(g, base, m, n, distinct_bases=distinct).counterexample
                want = product_lifting_loops(g, base, m, n, distinct)
                if got != want:
                    print(
                        f"case {j}: k={base.vertex_count} m={m} {change} n={n} "
                        f"distinct_bases={distinct} _DROP_GROUPS={_bits._DROP_GROUPS}: "
                        f"got {got}, reference {want}"
                    )
                    return 1
                size = len(got[1]) if got else 0
                sizes[size] = sizes.get(size, 0) + 1
    print(
        f"{args.cases} lifting cases, {4 * args.cases} lifting checks and {args.cases} quotient checks agree "
        f"in {time.perf_counter() - start:.0f} s; checks by counterexample size (0: holds): "
        f"{dict(sorted(sizes.items()))}; quotient messages by first word: {dict(sorted(quotients.items()))}"
    )
    start = time.perf_counter()
    verdicts = {"holds": 0, "fails": 0}
    block_words = _bits.BLOCK_WORDS
    for j in range(args.first, args.first + args.scan_cases):
        n, g, change = scan_case(j)
        _bits.BLOCK_WORDS = 64 if j % 2 else block_words
        _bits._DROP_GROUPS = 1 if j % 2 else drop_groups
        for ones_only, check in ((False, is_n_saturated), (True, is_weakly_n_saturated)):
            got = check(g, n).counterexample
            want = scan_missing_type(g, n, ones_only)
            if got != want:
                print(
                    f"scan case {j}: V={g.vertex_count} n={n} {change} ones_only={ones_only} "
                    f"BLOCK_WORDS={_bits.BLOCK_WORDS} _DROP_GROUPS={_bits._DROP_GROUPS}: "
                    f"got {got}, reference {want}"
                )
                return 1
            verdicts["holds" if got is None else "fails"] += 1
    print(
        f"{args.scan_cases} scan cases, {2 * args.scan_cases} checks agree in {time.perf_counter() - start:.0f} s; "
        f"verdicts: {verdicts}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
