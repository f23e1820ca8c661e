"""Compare check_product_lifting with the per-pair reference loops on random product graphs.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src:tests python tests/lifting_fuzz.py --cases 6000

Case j draws, from seed j, a base graph on k <= 4 vertices (complete or
random), m from 1 to 70 (log-uniform, so that small fibers, where the
reference loops are fast, are common) and a product graph over the base.
One case in three then loses one random edge between a fiber and one of
its targets, and one in three loses the edges that cover a random pair or
triple of one fiber's targets, so that counterexamples occur at every
size.  For n = 3 and n = 4, in both modes, check_product_lifting must
report the counterexample of product_lifting_loops.  The script stops at
the first mismatch with exit status 1 and prints the case; otherwise it
prints how many checks ended at each counterexample size.  6,000 cases
take about 3 minutes on one core.
"""

import argparse
import sys
import time

import numpy as np

from satgraph.builder import check_product_lifting, sample_product_graph
from satgraph.graphs import FiniteGraph, random_graph

from conftest import uncover, without_edges
from reference_loops import product_lifting_loops


def case(j: int):
    """Base, m and product graph of case j, and what was removed from the sample."""
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
        return base, m, without_edges(g, [(u, t)]), f"edge {u}-{t}"
    size = int(rng.integers(2, 4))
    if len(tcols) < size:
        return base, m, g, "sample"
    targets = tuple(sorted(int(t) for t in rng.choice(tcols, size, replace=False)))
    return base, m, uncover(g, m, i, targets), f"uncover {i}: {targets}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=6000)
    parser.add_argument("--first", type=int, default=0, help="seed of the first case")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    sizes: dict[int, int] = {}
    for j in range(args.first, args.first + args.cases):
        base, m, g, change = case(j)
        for n in (3, 4):
            for distinct in (False, True):
                got = check_product_lifting(g, base, m, n, distinct_bases=distinct).counterexample
                want = product_lifting_loops(g, base, m, n, distinct)
                if got != want:
                    print(
                        f"case {j}: k={base.vertex_count} m={m} {change} n={n} "
                        f"distinct_bases={distinct}: got {got}, reference {want}"
                    )
                    return 1
                size = len(got[1]) if got else 0
                sizes[size] = sizes.get(size, 0) + 1
    print(
        f"{args.cases} cases, {4 * args.cases} checks agree in {time.perf_counter() - start:.0f} s; "
        f"checks by counterexample size (0: holds): {dict(sorted(sizes.items()))}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
