#!/usr/bin/env python3
"""Finite reflexive graphs, types, realizers, and exhaustive saturation checks.

Every graph here carries a loop on each vertex.  A type over a vertex set A
prescribes, for each a in A, whether a witness must be adjacent (1) or
non-adjacent (0); a graph is n-saturated when every type over every set of
fewer than n vertices has a witness outside the set.
"""

import itertools

from satgraph import (
    FiniteGraph,
    find_realizer,
    is_n_saturated,
    is_weakly_n_saturated,
    random_graph,
    realizes,
)

print("=" * 70)
print("Types and realizers on small graphs")
print("=" * 70)

path = FiniteGraph.from_edges(3, [(0, 1), (1, 2)])
print(f"path 0-1-2 (loops implied): {path}")
print(f"  vertex 2 realizes {{0: 0, 1: 1}}: {realizes(path, 2, {0: 0, 1: 1})}")

c5 = FiniteGraph.cycle(5)
print(f"five-cycle: {c5}")
print(f"  smallest neighbour of vertex 0: {find_realizer(c5, {0: 1})}")
print(f"  a vertex avoiding both 0 and 1: {find_realizer(c5, {0: 0, 1: 0})}")

k3 = FiniteGraph.complete(3)
print(f"complete graph on 3 vertices: {k3}")
print(f"  non-neighbour of vertex 0: {find_realizer(k3, {0: 0})}  (complete, so none)")

print()
print("=" * 70)
print("Saturation: exhaustive verdicts with re-checkable counterexamples")
print("=" * 70)

for g, name, n in [
    (c5, "five-cycle", 2),
    (c5, "five-cycle", 3),
    (k3, "K_3", 2),
]:
    rep = is_n_saturated(g, n)
    if rep.holds:
        print(f"{name} is {n}-saturated")
    else:
        subset, missing = rep.counterexample
        print(f"{name} is NOT {n}-saturated: type {missing.as_dict()} over {subset} "
              f"has no realizer (re-check: {find_realizer(g, missing)})")

weak = is_weakly_n_saturated(k3, 3)
print(f"K_3 weakly 3-saturated (all-ones types only): {weak.holds}")

print()
print("=" * 70)
print("Cross-validation against a deliberately naive enumeration")
print("=" * 70)


def naive_is_n_saturated(g, n):
    """Every type over every set of fewer than n vertices, vertex by vertex."""
    v = g.vertex_count
    return all(
        any(w not in subset and realizes(g, w, dict(zip(subset, bits))) for w in range(v))
        for size in range(n)
        for subset in itertools.combinations(range(v), size)
        for bits in itertools.product((0, 1), repeat=size)
    )


agreements = 0
for seed in range(30):
    g = random_graph(4 + seed % 7, seed=seed)
    for n in (2, 3, 4):
        assert is_n_saturated(g, n).holds == naive_is_n_saturated(g, n)
        agreements += 1
print(f"optimized scan vs naive enumeration: {agreements}/{agreements} agreements")
