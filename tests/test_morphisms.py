import importlib
from pathlib import Path

import numpy as np
import pytest

from satgraph.builder import check_product_lifting, sample_product_graph
from satgraph.graphs import FiniteGraph, random_graph

from conftest import division_map, orthogonal_fibers
from reference_loops import (
    GraphMap,
    check_lifting_property,
    compose,
    constant_map,
    identity_map,
    is_homomorphism,
    is_quotient_map,
    is_strict,
    is_surjective,
)


def edgeless(n):
    return FiniteGraph.from_edges(n, [])


def test_identity_is_quotient():
    h = identity_map(FiniteGraph.cycle(5))
    assert is_homomorphism(h) and is_strict(h) and is_quotient_map(h)


def test_constant_map_is_homomorphism():
    h = constant_map(FiniteGraph.cycle(5), FiniteGraph.complete(1))
    assert is_homomorphism(h)
    assert is_quotient_map(h)


def test_identity_on_vertices_into_edgeless_not_homomorphism():
    h = GraphMap(FiniteGraph.complete(2), edgeless(2), np.array([0, 1]))
    assert not is_homomorphism(h)


def test_inclusion_of_edgeless_not_strict():
    h = GraphMap(edgeless(2), FiniteGraph.complete(2), np.array([0, 1]))
    assert is_homomorphism(h)
    assert not is_strict(h)


def test_collapse_k3_to_k2_is_strict():
    h = GraphMap(FiniteGraph.complete(3), FiniteGraph.complete(2), np.array([0, 0, 1]))
    assert is_homomorphism(h) and is_strict(h) and is_quotient_map(h)


def test_inclusion_not_surjective():
    h = GraphMap(FiniteGraph.complete(2), FiniteGraph.complete(3), np.array([0, 1]))
    assert is_homomorphism(h) and is_strict(h)
    assert not is_surjective(h)
    assert not is_quotient_map(h)


def test_graphmap_validates_image():
    with pytest.raises(ValueError):
        GraphMap(FiniteGraph.complete(2), FiniteGraph.complete(2), np.array([0]))
    with pytest.raises(ValueError):
        GraphMap(FiniteGraph.complete(2), FiniteGraph.complete(2), np.array([0, 2]))


def test_compose_identity_and_constant():
    g = FiniteGraph.cycle(5)
    h = GraphMap(g, FiniteGraph.complete(2), np.array([0, 1, 0, 1, 0]))
    assert compose(identity_map(FiniteGraph.complete(2)), h) == h
    const = constant_map(FiniteGraph.complete(2), FiniteGraph.complete(1))
    assert compose(const, h) == constant_map(g, FiniteGraph.complete(1))


def test_compose_requires_matching_middle():
    a = identity_map(FiniteGraph.complete(2))
    b = identity_map(FiniteGraph.complete(3))
    with pytest.raises(ValueError):
        compose(a, b)


def test_compose_of_sampled_projections_is_quotient():
    base = FiniteGraph.complete(2)
    g1 = sample_product_graph(base, 3, seed=5)
    g2 = sample_product_graph(g1, 2, seed=6)
    p0, p1 = division_map(g1, base, 3), division_map(g2, g1, 2)
    assert is_quotient_map(p0) and is_quotient_map(p1)
    assert is_quotient_map(compose(p0, p1))


def test_quotient_implies_homomorphism_on_random_maps():
    rng = np.random.default_rng(0)
    for trial in range(30):
        src = random_graph(6, seed=trial)
        tgt = random_graph(3, seed=trial + 100)
        h = GraphMap(src, tgt, rng.integers(0, 3, size=6))
        if is_quotient_map(h):
            assert is_homomorphism(h)


def test_nonadjacent_images_pull_back_to_nonadjacent():
    base = FiniteGraph.cycle(5)
    g = sample_product_graph(base, 3, seed=9)
    p = division_map(g, base, 3)
    assert is_quotient_map(p)
    v = g.vertex_count
    for u in range(v):
        for w in range(u + 1, v):
            if not base.adjacent(int(p.image[u]), int(p.image[w])):
                assert not g.adjacent(u, w)


def test_lifting_identity_and_vacuous():
    g = FiniteGraph.cycle(5)
    ident = identity_map(g)
    assert check_lifting_property(ident, 4).holds
    h = GraphMap(FiniteGraph.complete(2), edgeless(2), np.array([0, 1]))
    assert check_lifting_property(constant_map(g, FiniteGraph.complete(1)), 1).holds


def test_lifting_requires_quotient_map():
    h = GraphMap(FiniteGraph.complete(2), FiniteGraph.complete(3), np.array([0, 1]))
    with pytest.raises(ValueError):
        check_lifting_property(h, 2)


def test_lifting_counterexample_rechecks():
    # one lonely cross pair upstairs: the copy-0 fiber of each base vertex
    # cannot reach the far copy of the other fiber
    g = FiniteGraph.from_edges(4, [(0, 2)])
    base = FiniteGraph.complete(2)
    h = GraphMap(g, base, np.array([0, 0, 1, 1]))
    assert is_quotient_map(h)
    rep = check_lifting_property(h, 2)
    assert not rep.holds
    v, targets = rep.counterexample
    fiber = [u for u in range(4) if h.image[u] == v]
    for u in fiber:
        assert not all(g.adjacent(u, t) for t in targets)


def test_lifting_matches_product_check_on_small_instances():
    instances = []
    for seed in range(25):
        base = random_graph(3, seed=seed)
        m = 2 + seed % 3
        instances.append((sample_product_graph(base, m, seed=seed * 17 + 1), base, m))
    # a 3-vertex base has no four distinct base neighbours, so only this
    # instance can tell n=5 from n=4
    instances.append(orthogonal_fibers())
    verdicts = set()
    for g, base, m in instances:
        p = division_map(g, base, m)
        holds = []
        for n in (2, 3, 4, 5):
            general = check_lifting_property(p, n)
            structured = check_product_lifting(g, base, n, distinct_bases=True)
            assert general.holds == structured.holds, (base.vertex_count, m, n)
            holds.append(structured.holds)
        verdicts.add(tuple(holds))
    assert (True, True, True, False) in verdicts


def test_package_exports_resolve_and_library_map_module_is_gone():
    import satgraph

    for name in satgraph.__all__:
        assert getattr(satgraph, name) is not None, name
    # the generic map class lives beside these oracles, not in the package
    assert "GraphMap" not in satgraph.__all__
    assert not hasattr(satgraph.towers, "GraphMap")
    # the oracles above once lived in a library module named like this file
    gone = "satgraph." + Path(__file__).stem.removeprefix("test_")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(gone)
