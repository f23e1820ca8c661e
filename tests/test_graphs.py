import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satgraph import _bits, graphs
from satgraph.builder import sample_product_graph
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
from satgraph.towers import extend_tower, new_tower

from reference_loops import first_missing_type_loops, scan_missing_type


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
    # negative masks and bits past vertex v-1, in the last word or beyond it
    for masks in ([-1, 0b010, 0b100], [1 << 70, 0b010, 0b100], [0b1001, 0b010, 0b100], [1 << 64, 0b010, 0b100]):
        with pytest.raises(ValueError, match="out of vertex range"):
            FiniteGraph.from_rows(masks)


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


def all_graphs(v):
    pairs = list(itertools.combinations(range(v), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield FiniteGraph.from_edges(v, [p for p, b in zip(pairs, bits) if b])


def test_small_vertex_counts_match_reference_loop():
    # every graph on 1-4 vertices, n = V+2 .. V+5: fewer than n-1 vertices,
    # so every subset size below n is scanned
    cases = 0
    for v in range(1, 5):
        for g in all_graphs(v):
            for n in range(v + 2, v + 6):
                for ones_only, check in ((False, is_n_saturated), (True, is_weakly_n_saturated)):
                    expected = first_missing_type_loops(g, n, ones_only)
                    assert check(g, n).counterexample == expected
                    cases += 1
    assert cases == 600


def test_oracle_agreement_exhaustive_four_vertices():
    count = 0
    for g in all_graphs(4):
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
    # pairs given as lists, sorted or not, are stored as a sorted tuple of int pairs
    for given in ([(0, 1)], [[0, 1]], [(np.int64(0), np.int64(1))]):
        assert TypeSpec(given) == TypeSpec(((0, 1),))
        assert hash(TypeSpec(given)) == hash(TypeSpec(((0, 1),)))
        assert type(TypeSpec(given).pairs[0][0]) is int
    assert TypeSpec([(2, 1), (0, 0)]).pairs == ((0, 0), (2, 1))
    with pytest.raises(ValueError):
        TypeSpec(((0, 2),))
    with pytest.raises(ValueError):
        TypeSpec(((0, 1), (0, 0)))
    # non-integral vertices and bits are refused, not truncated onto another vertex
    for given in (((1.5, 1), (1, 0)), ((0, 1.0),)):
        with pytest.raises(ValueError, match="integers"):
            TypeSpec(given)
    with pytest.raises(ValueError, match="integers"):
        TypeSpec.coerce({1.5: 1, 1: 0})


def test_scan_screen_fallback_beyond_leading_words():
    # hub graph: vertex 270 is the only common neighbour of any two others,
    # and it is not one of the scan's screen columns
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
    # two hubs, 270 off the scan's screen columns and 275 on them: every
    # pair, including a pair containing one hub, has a common neighbour
    # outside itself
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


def without_realizers(dense: np.ndarray, f: TypeSpec) -> np.ndarray:
    """Copy of ``dense`` where every realizer of f moves to the opposite bit at f's largest vertex."""
    dense = dense.copy()
    subset = list(f.domain)
    outside = np.setdiff1d(np.arange(len(dense)), subset)
    realizers = outside[(dense[np.ix_(outside, subset)] == f.bits).all(axis=1)]
    dense[realizers, subset[-1]] ^= 1
    dense[subset[-1], realizers] ^= 1
    return dense


def with_holes(dense: np.ndarray, *types: TypeSpec) -> FiniteGraph:
    for f in types:
        dense = without_realizers(dense, f)
    g = FiniteGraph.from_dense(dense)
    assert all(find_realizer(g, f) is None for f in types)
    return g


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


# A shrunk block splits each kernel call over the (b, c) plane into several
# blocks of about 10 to 30 b rows, so the blocked path is compared too.
BLOCKS = {
    "default": {},
    "blocked": {"BLOCK_WORDS": 32},
}


def shrink_blocks(monkeypatch, blocks):
    for name, value in BLOCKS[blocks].items():
        monkeypatch.setattr(_bits, name, value)


@pytest.mark.parametrize("blocks", list(BLOCKS))
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


@pytest.mark.parametrize("blocks", list(BLOCKS))
@pytest.mark.parametrize("pattern", range(8))
def test_block_scan_finds_planted_missing_type(pattern, blocks, monkeypatch):
    # move every realizer of one type over a late triple to the opposite
    # bit at its largest vertex
    shrink_blocks(monkeypatch, blocks)
    subset = (70, 95, 110)
    f = TypeSpec(tuple(zip(subset, ((pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1))))
    g = with_holes(dense_adjacency(random_graph(120, seed=100 + pattern)), f)
    rep = is_n_saturated(g, 4)
    assert rep.counterexample == scan_missing_type(g, 4, ones_only=False)
    assert rep.counterexample[0] <= subset
    if pattern == 7:
        weak = is_weakly_n_saturated(g, 4).counterexample
        assert weak == scan_missing_type(g, 4, ones_only=True)
        assert weak[0] <= subset


# -- n >= 4 types realized only far out in the candidates ----------------------


@pytest.fixture(scope="module")
def n4_graph():
    """Adjacency of a 4-saturated random graph; a prefix has about 100 candidates."""
    g = random_graph(200, seed=13)
    assert is_n_saturated(g, 4).holds
    return dense_adjacency(g)


# Edges a-b and a-c are set to the bit of a, so b and c lie in the scan's
# candidates for the prefix {a: bit of a}, and edge b-c is set, so for a
# type with bit 1 at both b and c each would pass for a realizer of it if
# the scan kept its own bit.
N4_TRIPLE = (120, 160, 185)


def n4_screen_miss_graph(dense: np.ndarray, pattern: int, keep_outside: bool):
    """Move the realizers of one type over N4_TRIPLE to the opposite bit at c.

    With ``keep_outside`` only the realizers on the :func:`n4_screen`
    columns of the prefix {a: bit of a} move, so the type keeps the
    realizers off them and nothing else.  Row a does not change, so neither
    do those columns.
    """
    a, b, c = N4_TRIPLE
    bits = ((pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1)
    dense = dense.copy()
    dense[a, [b, c]] = dense[[b, c], a] = bits[0]
    dense[b, c] = dense[c, b] = 1
    v = len(dense)
    outside = np.array([x for x in range(v) if x not in N4_TRIPLE])
    realizers = outside[(dense[np.ix_(outside, N4_TRIPLE)] == bits).all(axis=1)]
    if keep_outside:
        realizers = realizers[np.isin(realizers, n4_screen(dense, bits[0]))]
    dense[realizers, c] ^= 1
    dense[c, realizers] ^= 1
    return FiniteGraph.from_dense(dense), TypeSpec(tuple(zip(N4_TRIPLE, bits)))


def n4_screen(dense: np.ndarray, bit_a: int) -> np.ndarray:
    """64 of the candidates of the prefix {a: bit_a}, spread evenly over them.

    a is the first vertex of N4_TRIPLE.  A scan that counted realizers on a
    sample of candidate columns like this one would find none for the type
    that :func:`n4_screen_miss_graph` moves off them.
    """
    a = N4_TRIPLE[0]
    cand = np.flatnonzero(dense[a] == bit_a)
    cand = cand[cand != a]
    return cand[np.arange(64) * len(cand) // 64] if len(cand) > 64 else cand


N4_PATTERNS = pytest.mark.parametrize("pattern", [0, 3, 6, 7])


@N4_PATTERNS
def test_n4_fallback_rescues_type_realized_off_screen(pattern, n4_graph):
    g, f = n4_screen_miss_graph(n4_graph, pattern, keep_outside=True)
    cols = n4_screen(dense_adjacency(g), pattern >> 2)
    assert len(cols) == 64
    assert not any(realizes(g, int(x), f) for x in cols if x not in N4_TRIPLE)
    assert find_realizer(g, f) is not None
    assert scan_missing_type(g, 4, ones_only=False) is None
    assert is_n_saturated(g, 4).counterexample is None
    if pattern == 7:
        assert is_weakly_n_saturated(g, 4).holds


@N4_PATTERNS
def test_n4_fallback_reports_type_with_no_realizer(pattern, n4_graph):
    g, f = n4_screen_miss_graph(n4_graph, pattern, keep_outside=False)
    assert find_realizer(g, f) is None
    assert scan_missing_type(g, 4, ones_only=False) == (N4_TRIPLE, f)
    assert is_n_saturated(g, 4).counterexample == (N4_TRIPLE, f)
    if pattern == 7:
        assert scan_missing_type(g, 4, ones_only=True) == (N4_TRIPLE, f)
        assert is_weakly_n_saturated(g, 4).counterexample == (N4_TRIPLE, f)


# -- the prefix walker's batches ----------------------------------------------
#
# The n >= 4 scan runs one kernel call over a batch of whole prefixes, whose
# rows run (prefix, assignment, bit of b, b) and hold both signs of c side by
# side, and decides the first prefix with a hit in the scan order (b, c,
# bits, sign).  On the 200-vertex graph of n4_graph the first batch holds the
# prefixes 0 to 5, the first to reach 4,096 rows (4 * (198 - a) of prefix a).


@pytest.mark.parametrize("early_sign", [0, 1])
def test_walker_smaller_prefix_wins_across_signs(early_sign, n4_graph):
    # one sign's part misses a type at prefix 3, the other's at prefix 4 of
    # one batch
    early = TypeSpec(((3, 1), (40, 0), (90, early_sign)))
    late = TypeSpec(((4, 0), (20, 1), (60, 1 - early_sign)))
    g = with_holes(n4_graph, early, late)
    assert scan_missing_type(g, 4, ones_only=False) == (early.domain, early)
    assert is_n_saturated(g, 4).counterexample == (early.domain, early)


def test_walker_redo_finds_smallest_key_in_later_assignment(n4_graph):
    # the first hit row of prefix 3 is `first`, under assignment {3: 0}; the
    # scan order puts `smallest`, with a smaller b under {3: 1}, before it
    first = TypeSpec(((3, 0), (50, 1), (70, 1)))
    smallest = TypeSpec(((3, 1), (30, 0), (80, 1)))
    g = with_holes(n4_graph, first, smallest)
    assert scan_missing_type(g, 4, ones_only=False) == (smallest.domain, smallest)
    assert is_n_saturated(g, 4).counterexample == (smallest.domain, smallest)


def test_walker_redo_orders_signs_by_c(n4_graph):
    # one row (prefix 3, {3: 0}, b = 40 at bit 1) of the fused table misses
    # c = 90 in its sign-0 part and c = 60 in its sign-1 part; the lowest
    # zero bit of the whole row is the sign-0 hole, but the scan order puts
    # the smaller c first
    sign0 = TypeSpec(((3, 0), (40, 1), (90, 0)))
    sign1 = TypeSpec(((3, 0), (40, 1), (60, 1)))
    g = with_holes(n4_graph, sign0, sign1)
    assert scan_missing_type(g, 4, ones_only=False) == (sign1.domain, sign1)
    assert is_n_saturated(g, 4).counterexample == (sign1.domain, sign1)


@pytest.mark.parametrize("pattern", range(8))
def test_walker_finds_hole_at_last_prefix(pattern, n4_graph):
    # the last prefix, V-3, has one b, V-2, and one c, V-1
    v = len(n4_graph)
    f = TypeSpec(tuple(zip((v - 3, v - 2, v - 1), ((pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1))))
    g = with_holes(n4_graph, f)
    assert scan_missing_type(g, 4, ones_only=False) == (f.domain, f)
    assert is_n_saturated(g, 4).counterexample == (f.domain, f)
    if pattern == 7:
        assert scan_missing_type(g, 4, ones_only=True) == (f.domain, f)
        assert is_weakly_n_saturated(g, 4).counterexample == (f.domain, f)


def n5_walker_cases():
    """(graph, planted type or None) at n = 5: random graphs, K5 samples, and late all-ones holes."""
    rng = np.random.default_rng(23)
    for seed in range(6):
        v = int(rng.integers(6, 30))
        yield random_graph(v, seed=seed, edge_prob=float(rng.uniform(0.3, 0.9))), None
        yield sample_product_graph(FiniteGraph.complete(5), 3 + seed % 3, seed=seed), None
    # dense graphs are weakly 5-saturated, so a planted all-ones hole is the
    # weak scan's answer, here in the middle of the walk, near its start and
    # at its last prefix
    for seed, subset in ((49, (12, 20, 25, 29)), (40, (3, 4, 5, 6)), (45, (26, 27, 28, 29))):
        f = TypeSpec(tuple((x, 1) for x in subset))
        dense = dense_adjacency(random_graph(30, seed=seed, edge_prob=0.85))
        yield with_holes(dense, f), f


# BLOCK_WORDS 8 makes a batch of one prefix, decided over several kernel
# blocks of 8 rows (of 30 vertices or fewer, one word each); 1024 makes
# batches of several two-vertex prefixes
@pytest.mark.parametrize("block", [8, 1024])
def test_n5_walker_batches_match_reference(block, monkeypatch):
    monkeypatch.setattr(_bits, "BLOCK_WORDS", block)
    for g, planted in n5_walker_cases():
        assert is_n_saturated(g, 5).counterexample == scan_missing_type(g, 5, ones_only=False)
        weak = is_weakly_n_saturated(g, 5).counterexample
        assert weak == scan_missing_type(g, 5, ones_only=True)
        if planted is not None:
            assert weak == (planted.domain, planted)


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


def n3_oracle_collapsed(g: FiniteGraph, copies: int):
    """:func:`n3_oracle_counterexample` over only the pairs inside one fiber of ``copies`` vertices."""
    v = g.vertex_count
    fiber = np.arange(v) // copies
    inside = np.triu(fiber[:, None] == fiber[None, :], 1)
    missing = (n3_realizer_counts(g) == 0) & inside
    bad = missing.any(axis=(0, 2))
    if not bad.any():
        return None
    a = int(np.argmax(bad))
    b, pattern = divmod(int(np.argmax(missing[:, a, :].T)), 4)
    return (a, b), TypeSpec(((a, pattern >> 1), (b, pattern & 1)))


@pytest.mark.parametrize(
    "v, edge_prob, seed",
    [(40, 0.5, 0), (60, 0.7, 1), (80, 0.3, 2), (300, 0.5, 3), (600, 0.1, 4), (2500, 0.5, 5)],
)
def test_n3_scan_matches_oracle(v, edge_prob, seed):
    g = random_graph(v, seed=seed, edge_prob=edge_prob)
    assert is_n_saturated(g, 3).counterexample == n3_oracle_counterexample(g)


@pytest.mark.parametrize(
    "v, copies, edge_prob, seed",
    [
        (40, 4, 0.5, 0),
        (60, 5, 0.7, 1),
        (80, 8, 0.3, 2),
        (300, 3, 0.5, 3),
        (600, 6, 0.1, 4),
        (630, 70, 0.5, 5),
        (36, 6, 0.85, 7),
    ],
)
def test_n3_collapsed_scan_matches_oracle(v, copies, edge_prob, seed):
    g = random_graph(v, seed=seed, edge_prob=edge_prob)
    assert graphs._missing_type_collapsed(g, copies) == n3_oracle_collapsed(g, copies)


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


# -- the n = 3 screen and its full-width fallback on a product level ------------


@pytest.fixture(scope="module")
def n3_product_level():
    """Adjacency of a 3-saturated sample over level 1 of the n=3 seed-7 tower, V = 360."""
    g = sample_product_graph(extend_tower(new_tower(3, seed=7)).levels[1], 2, seed=1)
    assert n3_oracle_counterexample(g) is None
    return dense_adjacency(g)


# Neither vertex is a screen column.  Edge (a, c) is set to the bit of a, so
# for a sign-1 type c itself would pass for a realizer if the full-width
# check did not leave it out.  The second pair, chosen the same way, lies
# inside one fiber (of 3 copies), where the collapsed scan looks.
N3_PAIR = (200, 301)
N3_FIBER_PAIR = (214, 215)


def screen_miss_graph(dense: np.ndarray, pattern: int, keep_outside: bool, pair=N3_PAIR):
    """Move the realizers of one type over ``pair`` to the opposite bit at c.

    With ``keep_outside`` only the realizers on screen columns move, so
    the type keeps the realizers off the screen and nothing else.
    """
    a, c = pair
    bit_a, bit_c = pattern >> 1, pattern & 1
    dense = dense.copy()
    dense[a, c] = dense[c, a] = bit_a
    v = len(dense)
    outside = np.array([x for x in range(v) if x not in pair])
    realizers = outside[(dense[outside, a] == bit_a) & (dense[outside, c] == bit_c)]
    if keep_outside:
        realizers = realizers[np.isin(realizers, graphs._screen_columns(v))]
    dense[realizers, c] ^= 1
    dense[c, realizers] ^= 1
    return FiniteGraph.from_dense(dense), TypeSpec(((a, bit_a), (c, bit_c)))


@pytest.mark.parametrize("pattern", range(4))
def test_n3_fallback_rescues_type_realized_off_screen(pattern, n3_product_level):
    g, f = screen_miss_graph(n3_product_level, pattern, keep_outside=True)
    cols = graphs._screen_columns(g.vertex_count)
    assert len(cols) < g.vertex_count
    assert not any(realizes(g, int(x), f) for x in cols)
    assert n3_realizer_counts(g)[pattern, N3_PAIR[0], N3_PAIR[1]] >= 1
    assert n3_oracle_counterexample(g) is None
    assert is_n_saturated(g, 3).counterexample is None
    assert is_weakly_n_saturated(g, 3).holds


@pytest.mark.parametrize("pattern", range(4))
def test_n3_fallback_reports_type_with_no_realizer(pattern, n3_product_level):
    g, f = screen_miss_graph(n3_product_level, pattern, keep_outside=False)
    assert find_realizer(g, f) is None
    assert n3_oracle_counterexample(g) == (N3_PAIR, f)
    assert is_n_saturated(g, 3).counterexample == (N3_PAIR, f)
    if pattern == 3:
        assert is_weakly_n_saturated(g, 3).counterexample == (N3_PAIR, f)


@pytest.mark.parametrize("pattern", range(4))
def test_n3_collapsed_fallback_rescues_type_realized_off_screen(pattern, n3_product_level):
    g, f = screen_miss_graph(n3_product_level, pattern, keep_outside=True, pair=N3_FIBER_PAIR)
    assert not any(realizes(g, int(x), f) for x in graphs._screen_columns(g.vertex_count))
    assert n3_realizer_counts(g)[pattern, N3_FIBER_PAIR[0], N3_FIBER_PAIR[1]] >= 1
    assert n3_oracle_collapsed(g, 3) is None
    assert graphs._missing_type_collapsed(g, 3) is None


@pytest.mark.parametrize("pattern", range(4))
def test_n3_collapsed_fallback_reports_type_with_no_realizer(pattern, n3_product_level):
    g, f = screen_miss_graph(n3_product_level, pattern, keep_outside=False, pair=N3_FIBER_PAIR)
    assert find_realizer(g, f) is None
    assert n3_oracle_collapsed(g, 3) == (N3_FIBER_PAIR, f)
    assert graphs._missing_type_collapsed(g, 3) == (N3_FIBER_PAIR, f)
    assert is_n_saturated(g, 3).counterexample == (N3_FIBER_PAIR, f)


@pytest.mark.parametrize("pattern", range(4))
def test_n3_collapsed_scan_finds_hole_in_last_fiber(pattern, n3_product_level):
    # every earlier fiber's pairs keep their realizers
    g, f = screen_miss_graph(n3_product_level, pattern, keep_outside=False, pair=(357, 359))
    assert n3_oracle_collapsed(g, 3) == ((357, 359), f)
    assert graphs._missing_type_collapsed(g, 3) == ((357, 359), f)


# VmHWM, not ru_maxrss: Linux carries the spawning process's peak over into a
# child's ru_maxrss, so under a long pytest run that would read pytest's peak
_SCAN_PEAK_PROBE = """
from satgraph.builder import sample_product_graph
from satgraph.graphs import is_n_saturated
from satgraph.towers import extend_tower, new_tower

def peak():
    with open("/proc/self/status") as fp:
        return int(fp.read().split("VmHWM:")[1].split()[0]) * 1024

g = sample_product_graph(extend_tower(new_tower(3, seed=7)).levels[1], 81, seed=1)
before = peak()
holds = is_n_saturated(g, 3).holds
print(holds, g.packed_rows.nbytes, peak() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_n3_scan_peak_memory_stays_small():
    # V = 120 * 82 = 9,840 vertices, 12.1 MB packed; a cached complement and
    # no-loop copy of the rows would add twice that
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCAN_PEAK_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    holds, packed_bytes, grown = proc.stdout.split()
    assert holds == "True"  # the scan went over every pair
    assert int(packed_bytes) == 9840 * 154 * 8
    assert int(grown) <= 0.25 * int(packed_bytes), (int(grown) / 2**20, int(packed_bytes) / 2**20)


# -- known answers: Paley graphs ----------------------------------------------------


def paley(q: int) -> FiniteGraph:
    """The Paley graph P_q of a prime q = 1 (mod 4), with loops: x ~ y when x - y is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    pairs = itertools.combinations(range(q), 2)
    return FiniteGraph.from_edges(q, [(x, y) for x, y in pairs if y - x in squares])


def weil_certifies(q: int, n: int) -> bool:
    """Whether Weil's character-sum bound alone makes P_q n-saturated.

    For disjoint A, B with |A| + |B| = k = n - 1, the realizers N outside
    A u B satisfy 2^k N >= q - ((k-2) 2^(k-1) + 1) sqrt(q) - k 2^(k-1)
    (Bollobas and Thomason 1981; Blass, Exoo and Harary 1981).
    """
    k = n - 1
    return q - ((k - 2) * 2 ** (k - 1) + 1) * q**0.5 - k * 2 ** (k - 1) > 0


PALEY_PRIMES = [q for q in range(5, 260, 4) if all(q % p for p in range(2, int(q**0.5) + 1))]


def test_paley_saturation_known_answers():
    # n-saturated means (n-1)-e.c.: for n=3 from q=13 on, for n=4 from q=53
    # on by the Weil bound, and below it P_29, P_37 and P_41 happen to be too
    for q in PALEY_PRIMES:
        g = paley(q)
        if q < 120:
            assert weil_certifies(q, 3) == (q >= 13)
            assert is_n_saturated(g, 3).holds == (q >= 13), q
        assert weil_certifies(q, 4) == (q >= 53)
        assert is_n_saturated(g, 4).holds == (q not in (5, 13, 17)), q


@pytest.mark.parametrize("q", [5, 13, 17, 29, 37, 41])
def test_paley_below_the_weil_bound_matches_reference(q):
    g = paley(q)
    for n in (3, 4):
        assert is_n_saturated(g, n).counterexample == scan_missing_type(g, n, ones_only=False)
        if q <= 13:
            assert is_n_saturated(g, n).holds == oracle_is_n_saturated(g, n)
