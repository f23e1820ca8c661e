import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satgraph import graphs
from satgraph.graphs import (
    FiniteGraph,
    TypeSpec,
    find_realizer,
    is_n_saturated,
    is_weakly_n_saturated,
    oracle_is_n_saturated,
    random_graph,
    realizes,
)

from reference_loops import scan_missing_type


def path3():
    return FiniteGraph.from_edges(3, [(0, 1), (1, 2)])


def two_isolated():
    return FiniteGraph.from_edges(2, [])


@st.composite
def small_graphs(draw):
    v = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(v), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return FiniteGraph.from_edges(v, [p for p, b in zip(pairs, bits) if b])


# -- construction and adjacency ----------------------------------------------


def test_adjacent_reflexive_and_complete():
    k3 = FiniteGraph.complete(3)
    for v in range(3):
        assert k3.adjacent(v, v)
    assert k3.adjacent(0, 2)


def test_adjacent_path_ends_not_adjacent():
    g = path3()
    assert not g.adjacent(0, 2)
    assert g.adjacent(0, 1) and g.adjacent(1, 2)


def test_adjacent_out_of_range():
    g = path3()
    with pytest.raises(IndexError):
        g.adjacent(0, 3)
    with pytest.raises(IndexError):
        g.adjacent(-1, 0)


def test_from_rows_round_trip_and_validation():
    g = path3()
    masks = [g.neighbors_mask(v) for v in range(3)]
    assert FiniteGraph.from_rows(masks) == g
    with pytest.raises(ValueError):
        FiniteGraph.from_rows([0b011, 0b010, 0b100])  # vertex 2 missing loop? asymmetric
    with pytest.raises(ValueError):
        FiniteGraph.from_rows([0b010, 0b010])  # missing loops


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteGraph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        FiniteGraph.from_edges(2, [(1, 1)])


def test_from_edges_in_chunks_matches_dense():
    g = random_graph(300, seed=1)
    edges = g.edges()
    assert len(edges) > 1 << 14  # more than one conversion chunk
    assert FiniteGraph.from_edges(300, edges) == g
    assert FiniteGraph.from_edges(300, iter(edges)) == g
    with pytest.raises(ValueError):
        FiniteGraph.from_edges(300, edges + [(0, 1, 2)])
    with pytest.raises(ValueError):
        FiniteGraph.from_edges(300, edges + [(0, 300)])


def test_edges_canonical_order():
    g = FiniteGraph.from_edges(4, [(2, 3), (0, 3), (0, 1)])
    assert g.edges() == [(0, 1), (0, 3), (2, 3)]
    assert g.edge_count() == 3


def test_cycle_and_neighbors_mask():
    c5 = FiniteGraph.cycle(5)
    assert c5.neighbors_mask(0) == 0b10011  # loop, 1, 4
    assert c5.edge_count() == 5


# -- realizes / find_realizer -------------------------------------------------


def test_realizes_empty_domain_everywhere():
    g = path3()
    for v in range(3):
        assert realizes(g, v, {})


def test_realizes_k3_singleton():
    assert realizes(FiniteGraph.complete(3), 1, {0: 1})


def test_realizes_path_example():
    assert realizes(path3(), 2, {0: 0, 1: 1})


def test_realizes_rejects_vertex_in_domain():
    with pytest.raises(ValueError):
        realizes(path3(), 0, {0: 1})


def test_find_realizer_complete_no_nonneighbor():
    assert find_realizer(FiniteGraph.complete(3), {0: 0}) is None


def test_find_realizer_cycle_smallest_neighbor():
    assert find_realizer(FiniteGraph.cycle(5), {0: 1}) == 1


def test_find_realizer_empty_domain_gives_zero():
    assert find_realizer(path3(), {}) == 0
    assert find_realizer(FiniteGraph.complete(4), {}) == 0


# -- saturation ---------------------------------------------------------------


def test_one_saturated_always():
    assert is_n_saturated(path3(), 1).holds
    assert is_n_saturated(FiniteGraph.complete(1), 1).holds


def test_k3_not_two_saturated_with_expected_witness():
    rep = is_n_saturated(FiniteGraph.complete(3), 2)
    assert not rep.holds
    subset, f = rep.counterexample
    assert subset == (0,)
    assert f == TypeSpec(((0, 0),))


def test_c5_two_saturated():
    assert is_n_saturated(FiniteGraph.cycle(5), 2).holds


def test_c5_not_three_saturated_adjacent_pair():
    rep = is_n_saturated(FiniteGraph.cycle(5), 3)
    assert not rep.holds
    subset, f = rep.counterexample
    assert subset == (0, 1)
    assert f == TypeSpec(((0, 1), (1, 1)))


def test_weak_saturation_complete_graphs():
    for n in range(1, 6):
        assert is_weakly_n_saturated(FiniteGraph.complete(n), n).holds


def test_weak_saturation_failures():
    assert not is_weakly_n_saturated(two_isolated(), 2).holds
    rep = is_weakly_n_saturated(FiniteGraph.cycle(5), 3)
    assert not rep.holds
    subset, f = rep.counterexample
    assert f.bits == (1, 1)
    assert find_realizer(FiniteGraph.cycle(5), f) is None


def test_counterexample_is_recheckable():
    for g, n in [(FiniteGraph.complete(3), 2), (FiniteGraph.cycle(5), 3)]:
        rep = is_n_saturated(g, n)
        assert not rep.holds
        _, f = rep.counterexample
        assert find_realizer(g, f) is None


def test_small_vertex_count_edge_case():
    # fewer than n-1 vertices: the whole vertex set is a legal subset and
    # its types have no realizer outside it
    g = FiniteGraph.complete(2)
    rep = is_n_saturated(g, 4)
    assert not rep.holds
    subset, f = rep.counterexample
    assert find_realizer(g, f) is None


# -- oracle cross-validation ---------------------------------------------------


def all_four_vertex_graphs():
    pairs = list(itertools.combinations(range(4), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield FiniteGraph.from_edges(4, [p for p, b in zip(pairs, bits) if b])


def test_oracle_agreement_exhaustive_four_vertices():
    count = 0
    for g in all_four_vertex_graphs():
        for n in (1, 2, 3):
            assert is_n_saturated(g, n).holds == oracle_is_n_saturated(g, n)
        count += 1
    assert count == 64


def test_oracle_agreement_trivial_cases():
    assert is_n_saturated(FiniteGraph.complete(3), 2).holds == oracle_is_n_saturated(
        FiniteGraph.complete(3), 2
    )
    assert is_n_saturated(FiniteGraph.cycle(5), 2).holds == oracle_is_n_saturated(
        FiniteGraph.cycle(5), 2
    )


def test_oracle_agreement_random_graphs():
    for seed in range(40):
        g = random_graph(3 + seed % 10, seed=seed)
        for n in (2, 3, 4):
            assert is_n_saturated(g, n).holds == oracle_is_n_saturated(g, n)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=4))
def test_oracle_agreement_property(g, n):
    assert is_n_saturated(g, n).holds == oracle_is_n_saturated(g, n)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(min_value=2, max_value=4))
def test_saturation_monotone_in_n(g, n):
    if is_n_saturated(g, n).holds:
        assert is_n_saturated(g, n - 1).holds


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=4))
def test_saturated_implies_weakly_saturated(g, n):
    if is_n_saturated(g, n).holds:
        assert is_weakly_n_saturated(g, n).holds


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=2, max_value=4))
def test_counterexamples_recheck_property(g, n):
    rep = is_n_saturated(g, n)
    if not rep.holds:
        subset, f = rep.counterexample
        assert f.domain == subset
        assert find_realizer(g, f) is None


# -- TypeSpec ------------------------------------------------------------------


def test_typespec_normalizes_and_validates():
    f = TypeSpec.coerce({2: 1, 0: 0})
    assert f.pairs == ((0, 0), (2, 1))
    assert f.bit(2) == 1
    with pytest.raises(ValueError):
        TypeSpec(((0, 2),))
    with pytest.raises(ValueError):
        TypeSpec(((0, 1), (0, 0)))


def test_scan_screen_fallback_beyond_leading_words():
    # hub graph: vertex 270 is the only common neighbour of any two others,
    # and it sits beyond the 256-bit screening window of the scan
    v = 280
    g = FiniteGraph.from_edges(v, [(i, 270) for i in range(v) if i != 270])
    rep = is_n_saturated(g, 3)
    assert not rep.holds
    # the all-ones type over {0, 1} IS realized (by the hub, found via the
    # full-width fallback); the first genuine failure is {0: 0, 1: 1}
    assert rep.counterexample == ((0, 1), TypeSpec(((0, 0), (1, 1))))
    assert realizes(g, 270, {0: 1, 1: 1})
    assert find_realizer(g, {0: 1, 1: 1}) == 270
    assert find_realizer(g, {0: 0, 1: 1}) is None


def test_weak_scan_on_multiword_graph():
    # two hubs beyond the screening window: every pair, including a pair
    # containing one hub, has a common neighbour outside itself
    v = 280
    edges = [(i, h) for h in (270, 275) for i in range(v) if i != h]
    g = FiniteGraph.from_edges(v, edges)
    assert is_weakly_n_saturated(g, 3).holds
    # a single hub is not enough: the pair {0, hub} has no outside witness
    one_hub = FiniteGraph.from_edges(v, [(i, 270) for i in range(v) if i != 270])
    rep = is_weakly_n_saturated(one_hub, 3)
    assert not rep.holds
    assert rep.counterexample[0] == (0, 270)


# -- block scan against the per-pair loop (n >= 4) --------------------------------


def dense_adjacency(g: FiniteGraph) -> np.ndarray:
    """Writable V x V 0/1 uint8 adjacency matrix, loops included."""
    v = g.vertex_count
    return np.unpackbits(g.packed_rows.view(np.uint8), axis=-1, bitorder="little")[:, :v].copy()


def scan_cases():
    """(graph, n) pairs whose first missing type sits early, deep, or nowhere."""
    rng = np.random.default_rng(4)
    for seed in range(40):
        v = int(rng.integers(8, 48))
        g = random_graph(v, seed=seed, edge_prob=float(rng.uniform(0.3, 0.9)))
        yield g, 4
        if v <= 12:
            yield g, 5
    for seed in range(40, 52):
        v = int(rng.integers(60, 160))
        yield random_graph(v, seed=seed, edge_prob=float(rng.uniform(0.4, 0.6))), 4
    for seed in range(52, 64):
        yield random_graph(12, seed=seed, edge_prob=float(rng.uniform(0.7, 0.95))), 5


# Shrunk budgets split the (b, c) plane into several tiles of c rows and
# several chunks of b rows per tile (one row each at (8, 8)), so the tiled
# path is compared too.
BLOCKS = pytest.mark.parametrize(
    "blocks", [None, (8, 8), (120, 2000)], ids=["default", "one-row", "tiled"]
)


def shrink_blocks(monkeypatch, blocks):
    if blocks is not None:
        monkeypatch.setattr(graphs, "_PRODUCT_BLOCK", blocks[0])
        monkeypatch.setattr(graphs, "_ROWS_BLOCK", blocks[1])


@BLOCKS
def test_block_scan_matches_reference_loop(blocks, monkeypatch):
    shrink_blocks(monkeypatch, blocks)
    verdicts = {True: 0, False: 0}
    for g, n in scan_cases():
        strong = is_n_saturated(g, n).counterexample
        assert strong == scan_missing_type(g, n, ones_only=False), (g, n)
        weak = is_weakly_n_saturated(g, n).counterexample
        assert weak == scan_missing_type(g, n, ones_only=True), (g, n)
        verdicts[strong is None] += 1
        verdicts[weak is None] += 1
    assert min(verdicts.values()) >= 10


@pytest.mark.parametrize("blocks", [None, (120, 2000)], ids=["default", "tiled"])
@pytest.mark.parametrize("pattern", range(8))
def test_block_scan_finds_planted_missing_type(pattern, blocks, monkeypatch):
    # move every realizer of one type over a late triple to the opposite
    # bit at its largest vertex
    shrink_blocks(monkeypatch, blocks)
    v, subset = 120, (70, 95, 110)
    bits = ((pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1)
    dense = dense_adjacency(random_graph(v, seed=100 + pattern))
    outside = np.array([x for x in range(v) if x not in subset])
    realizers = outside[(dense[np.ix_(outside, subset)] == bits).all(axis=1)]
    dense[realizers, subset[-1]] ^= 1
    dense[subset[-1], realizers] ^= 1
    g = FiniteGraph.from_dense(dense)
    f = TypeSpec(tuple(zip(subset, bits)))
    assert find_realizer(g, f) is None
    rep = is_n_saturated(g, 4)
    assert rep.counterexample == scan_missing_type(g, 4, ones_only=False)
    assert rep.counterexample[0] <= subset
    if pattern == 7:
        weak = is_weakly_n_saturated(g, 4).counterexample
        assert weak == scan_missing_type(g, 4, ones_only=True)
        assert weak[0] <= subset


# -- independent n = 3 oracle: realizer counts from matrix products ---------------


def n3_realizer_counts(g: FiniteGraph) -> np.ndarray:
    """counts[2*bit_a + bit_b, a, b]: realizers of {a: bit_a, b: bit_b}, a != b.

    N = adjacency without loops.  Common neighbours are N @ N; a neighbour
    of a that is not adjacent to b is one of deg(a) neighbours of a, minus
    the common ones, minus b itself when a ~ b; the all-zero pattern is
    what remains of the V - 2 vertices outside {a, b}.
    """
    v = g.vertex_count
    nbr = dense_adjacency(g).astype(np.float64)
    np.fill_diagonal(nbr, 0)
    both = np.rint(nbr @ nbr).astype(np.int64)  # exact: integer sums far below 2**53
    deg = nbr.sum(axis=1).astype(np.int64)
    edge = nbr.astype(np.int64)
    only_a = deg[:, None] - both - edge
    only_b = deg[None, :] - both - edge
    neither = (v - 2) - both - only_a - only_b
    return np.stack([neither, only_b, only_a, both])


def n3_oracle_counterexample(g: FiniteGraph):
    """Smallest missing type over a pair, in the scan's order (a, b, bits), or None."""
    counts = n3_realizer_counts(g)
    v = g.vertex_count
    missing = (counts == 0) & np.triu(np.ones((v, v), dtype=bool), 1)
    bad = missing.any(axis=(0, 2))
    if not bad.any():
        return None
    a = int(np.argmax(bad))
    first = int(np.argmax(missing[:, a, :].T))
    b, pattern = divmod(first, 4)
    return (a, b), TypeSpec(((a, pattern >> 1), (b, pattern & 1)))


def test_n3_oracle_counts_match_find_realizer():
    g = random_graph(9, seed=3, edge_prob=0.4)
    counts = n3_realizer_counts(g)
    for a, b in itertools.combinations(range(9), 2):
        for pattern in range(4):
            f = {a: pattern >> 1, b: pattern & 1}
            brute = sum(realizes(g, x, f) for x in range(9) if x not in (a, b))
            assert counts[pattern, a, b] == brute


@pytest.mark.parametrize(
    "v, edge_prob, seed",
    [(40, 0.5, 0), (60, 0.7, 1), (80, 0.3, 2), (300, 0.5, 3), (600, 0.1, 4), (2500, 0.5, 5)],
)
def test_n3_scan_matches_oracle(v, edge_prob, seed):
    g = random_graph(v, seed=seed, edge_prob=edge_prob)
    assert is_n_saturated(g, 3).counterexample == n3_oracle_counterexample(g)


@pytest.mark.parametrize("pattern", range(4))
def test_n3_scan_catches_removed_only_realizer(pattern):
    # Make one type over a late pair (a, b) have a single realizer x by
    # moving every other realizer to the opposite bit at b, check the graph
    # is still 3-saturated, then flip the one edge (x, b).
    v, a, b = 700, 520, 610
    bit_a, bit_b = pattern >> 1, pattern & 1
    dense = dense_adjacency(random_graph(v, seed=pattern))
    outside = np.array([x for x in range(v) if x not in (a, b)])
    realizers = outside[(dense[outside, a] == bit_a) & (dense[outside, b] == bit_b)]
    x, others = int(realizers[0]), realizers[1:]
    dense[others, b] ^= 1
    dense[b, others] ^= 1
    g = FiniteGraph.from_dense(dense)
    assert n3_realizer_counts(g)[pattern, a, b] == 1
    assert n3_oracle_counterexample(g) is None
    assert is_n_saturated(g, 3).holds
    dense[x, b] ^= 1
    dense[b, x] ^= 1
    mutated = FiniteGraph.from_dense(dense)
    f = TypeSpec(((a, bit_a), (b, bit_b)))
    assert find_realizer(mutated, f) is None
    assert n3_oracle_counterexample(mutated) == ((a, b), f)
    assert is_n_saturated(mutated, 3).counterexample == ((a, b), f)
