import itertools
import time
from dataclasses import dataclass

import numpy as np
import pytest

from satgraph.graphs import FiniteGraph
from satgraph.towers import Tower, extend_tower, new_tower

from reference_loops import GraphMap


def division_map(g: FiniteGraph, base: FiniteGraph, m: int) -> GraphMap:
    """The fiber projection ``v -> v // (m+1)`` of a product graph onto its base."""
    return GraphMap(g, base, np.arange(g.vertex_count) // (m + 1))


def without_edges(g: FiniteGraph, edges) -> FiniteGraph:
    """``g`` less the given cross edges (u, w), u != w."""
    rows = g.packed_rows.copy()
    for u, w in edges:
        for a, b in ((u, w), (w, u)):
            rows[a, b >> 6] &= ~np.uint64(1 << (b & 63))
    return FiniteGraph(g.vertex_count, rows)


def uncover(g: FiniteGraph, m: int, i: int, targets: tuple[int, ...]) -> FiniteGraph:
    """``g`` less the edges from each copy of base vertex i adjacent to all targets to one of them.

    No copy of i is then adjacent to every target, so the lifting check of a
    product graph over ``m + 1`` copies fails at i, or earlier.
    """
    fiber = range(i * (m + 1), (i + 1) * (m + 1))
    covering = [u for u in fiber if all(g.adjacent(u, t) for t in targets)]
    return without_edges(g, [(u, next(t for t in reversed(targets) if t != u)) for u in covering])


def orthogonal_fibers():
    """Product graph over K4 whose lifting holds for triples but not for four targets.

    Each fiber has 15 copies labelled by the nonzero vectors of F_2^4, and two
    vertices are adjacent when their labels are orthogonal.  Any three labels
    have a nonzero common orthogonal vector; four labels spanning F_2^4 do not.
    """
    k, copies = 4, 15
    label = [u % copies + 1 for u in range(k * copies)]
    edges = [
        (u, w)
        for u, w in itertools.combinations(range(k * copies), 2)
        if bin(label[u] & label[w]).count("1") % 2 == 0
    ]
    return FiniteGraph.from_edges(k * copies, edges), FiniteGraph.complete(k), copies - 1


@pytest.fixture(scope="session")
def relabel_top_level():
    """Relabel the top level of a decoded tower file by a seeded permutation.

    The bond above it becomes ``bond o perm^-1``: still a quotient map onto
    the level below, but no longer the division map ``v -> v // (m+1)``.
    """

    def relabel(obj: dict, seed: int = 0) -> dict:
        top = obj["levels"][-1]
        perm = np.random.default_rng(seed).permutation(top["v"]).tolist()
        edges = sorted(sorted((perm[a], perm[b])) for a, b in top["edges"])
        bond = [0] * top["v"]
        for v, parent in enumerate(obj["bonds"][-1]):
            bond[perm[v]] = parent
        out = dict(obj)
        out["levels"] = obj["levels"][:-1] + [{"v": top["v"], "edges": edges}]
        out["bonds"] = obj["bonds"][:-1] + [bond]
        return out

    return relabel


@dataclass(frozen=True)
class TimedTower:
    tower: Tower
    build_seconds: float


@pytest.fixture(scope="session")
def tower_n3_depth2():
    """The n=3 certified depth-2 tower (3 -> 120 -> 9840 vertices).

    Built once per session; the build time is recorded so the acceptance
    criterion that owns the budget can count construction, not just reuse.
    """
    start = time.perf_counter()
    t = new_tower(3, seed=7)
    t = extend_tower(t, max_attempts=200)
    t = extend_tower(t, max_attempts=200)
    return TimedTower(t, time.perf_counter() - start)
