import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satgraph import builder
from satgraph.builder import (
    AttemptsExhausted,
    attempt_seed,
    build_extension,
    check_product_lifting,
    lifting_failure_bound,
    minimal_certified_m,
    sample_product_graph,
    saturation_failure_bound,
)
from satgraph.graphs import FiniteGraph, is_n_saturated, random_graph
from satgraph.towers import extend_tower, new_tower

from conftest import division_map, orthogonal_fibers
from reference_loops import is_quotient_map, product_lifting_loops

K1 = FiniteGraph.complete(1)
K2 = FiniteGraph.complete(2)


# -- exact bounds: values frozen from independent rational evaluation --------


def test_saturation_bound_frozen_values():
    assert saturation_failure_bound(2, 2, 5) == Fraction(3, 4)
    assert saturation_failure_bound(2, 2, 7) == Fraction(1, 4)
    assert saturation_failure_bound(2, 2, 7) < saturation_failure_bound(2, 2, 5)


def test_saturation_bound_vanishes_for_n1():
    for k in (1, 2, 5):
        for m in (1, 3, 10):
            assert saturation_failure_bound(1, k, m) == 0


def test_lifting_bound_frozen_values():
    assert lifting_failure_bound(1, 3, 4) == 0
    assert lifting_failure_bound(2, 2, 5) == Fraction(3, 4)
    assert lifting_failure_bound(2, 2, 6) == Fraction(28, 64)


def test_minimal_certified_m_frozen_values():
    assert minimal_certified_m(1, 1) == 1
    assert minimal_certified_m(2, 2) == 6
    assert minimal_certified_m(3, 3) == 39
    # combined bound at the threshold straddles 1
    assert saturation_failure_bound(2, 2, 5) + lifting_failure_bound(2, 2, 5) >= 1
    assert saturation_failure_bound(2, 2, 6) + lifting_failure_bound(2, 2, 6) == Fraction(7, 8)


def test_saturation_bound_alone_crosses_one_at_35_for_n3():
    assert saturation_failure_bound(3, 3, 34) >= 1
    assert saturation_failure_bound(3, 3, 35) < 1
    assert 35 <= minimal_certified_m(3, 3) <= 45


def test_bounds_reach_certification_within_200():
    for n, k in [(2, 2), (3, 3), (4, 4)]:
        m = minimal_certified_m(n, k)
        assert m <= 200
        combined = saturation_failure_bound(n, k, m) + lifting_failure_bound(n, k, m)
        assert combined < 1
        # beyond the threshold the combined bound keeps shrinking
        later = saturation_failure_bound(n, k, m + 25) + lifting_failure_bound(n, k, m + 25)
        assert later < combined


def test_bounds_validate_inputs():
    with pytest.raises(ValueError):
        saturation_failure_bound(0, 2, 2)
    with pytest.raises(ValueError):
        lifting_failure_bound(2, 2, 0)
    with pytest.raises(ValueError):
        minimal_certified_m(3, 2)


# -- sampling: structural conditions hold for every seed --------------------------


def assert_sample_well_formed(g, base, m):
    k = base.vertex_count
    copies = m + 1
    assert g.vertex_count == k * copies
    # copy 0 reproduces the base exactly
    for i in range(k):
        for j in range(k):
            assert g.adjacent(i * copies, j * copies) == base.adjacent(i, j)
    # fibers over non-adjacent base vertices stay fully non-adjacent
    for i in range(k):
        for j in range(k):
            if base.adjacent(i, j):
                continue
            for s in range(copies):
                for t in range(copies):
                    assert not g.adjacent(i * copies + s, j * copies + t)
    # reflexive and symmetric
    for u in range(g.vertex_count):
        assert g.adjacent(u, u)
    for u in range(g.vertex_count):
        for w in range(u + 1, g.vertex_count):
            assert g.adjacent(u, w) == g.adjacent(w, u)


def test_sample_conditions_various_bases_and_seeds():
    bases = [K2, FiniteGraph.cycle(5), FiniteGraph.from_edges(2, []), random_graph(4, seed=3)]
    for seed in range(12):
        base = bases[seed % len(bases)]
        g = sample_product_graph(base, 1 + seed % 3, seed=seed)
        assert_sample_well_formed(g, base, 1 + seed % 3)


@st.composite
def small_bases(draw):
    v = draw(st.integers(min_value=1, max_value=5))
    pairs = list(itertools.combinations(range(v), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return FiniteGraph.from_edges(v, [p for p, b in zip(pairs, bits) if b])


@settings(max_examples=40, deadline=None)
@given(small_bases(), st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32))
def test_sample_structural_conditions_property(base, m, seed):
    g = sample_product_graph(base, m, seed=seed)
    assert_sample_well_formed(g, base, m)
    assert is_quotient_map(division_map(g, base, m))


def test_sample_projection_is_quotient_map_over_seeds():
    for seed in range(20):
        g = sample_product_graph(K2, 3, seed=seed)
        p = division_map(g, K2, 3)
        assert is_quotient_map(p)
        assert list(p.image) == [0, 0, 0, 0, 1, 1, 1, 1]


def test_sample_forced_edge_present():
    g = sample_product_graph(K2, 1, seed=0)
    assert g.adjacent(0, 2)  # (0,0)-(1,0) mirrors the base edge


def test_sample_reproducible_and_substreams_differ():
    a1 = sample_product_graph(K2, 6, seed=42)
    a2 = sample_product_graph(K2, 6, seed=42)
    assert a1 == a2
    b = sample_product_graph(K2, 6, seed=43)
    assert a1 != b
    s0 = sample_product_graph(K2, 6, attempt_seed(42, 0))
    s1 = sample_product_graph(K2, 6, attempt_seed(42, 1))
    assert s0 != s1


def test_bit_stream_takes_are_slices_of_one_stream():
    rng = np.random.default_rng(11)
    sizes = [0, 1, 63, 64, 65, 4096 * 64 + 3] + rng.integers(0, 300, size=40).tolist()
    for seed in range(3):
        whole = builder._BitStream(seed).take(sum(sizes))
        # bit t is bit t % 64 of raw word t // 64
        raw = np.random.Philox(np.random.SeedSequence(seed)).random_raw(len(whole) // 64 + 1)
        t = np.arange(len(whole))
        assert np.array_equal(whole, (raw[t // 64] >> (t % 64).astype(np.uint64)) & np.uint64(1))
        stream = builder._BitStream(seed)
        pos = 0
        for size in sizes:
            assert np.array_equal(stream.take(size), whole[pos : pos + size]), (seed, size)
            pos += size


def _level2_of_n2_seed7_tower():
    t = new_tower(2, seed=7)
    return extend_tower(extend_tower(t)).levels[2]


# SHA-256 of packed_rows for fixed (base, m, seed); pins the sampler bit for bit.
GOLDEN_SAMPLES = [
    ("K1", lambda: K1, 1, 0, 2, "0fec49e5cb80c80f848a00237963650b3d777cd7a75e6fadc16db41e7b6b92e1"),
    ("K1-m5", lambda: K1, 5, 3, 6, "9a3067d08c1cb1af93858b605641416d0c055ab9b8e0443faaddc8ca0825f29b"),
    ("K2", lambda: K2, 6, 42, 14, "ff4f8367ad3817cc36fd1bd1298fa5cf45cca621a0969eb5b20e9b73ddb75a98"),
    ("K4", lambda: FiniteGraph.complete(4), 158, 7, 636,
     "b00c21f258372f9c9b2d9971fcb8edbe0f5a85b2d49ee99e6b6bfdaac4d42243"),
    ("C5", lambda: FiniteGraph.cycle(5), 30, 11, 155,
     "69c034b5d45f69dfb73c1698c24562272f13b5a1599a8b07d7db5039a2ab03ae"),
    ("n2-level2", _level2_of_n2_seed7_tower, 20, 5, 3822,
     "3f0a38b8f9375ef5d15d5b303eac5bd3912dd510967780fcc7d5953e0877b8c3"),
    # an isolated base vertex: its fiber rows draw no coins
    ("isolated", lambda: FiniteGraph.from_edges(3, [(0, 1)]), 3, 5, 12,
     "0a908198ca7a77f8ffb44e15c52188d4faad03a2f753915cd82298d8c2038ae0"),
    # the last base vertex has only lower neighbours, and m is at its minimum
    ("path4-m1", lambda: FiniteGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 1, 13, 8,
     "5fa247b0e4f24f8b530ed0d7840d0798a373f1d3d8ecd57f47d39542dcc77ae1"),
    # no base edges: every fiber draws coins only inside itself
    ("edgeless", lambda: FiniteGraph.from_edges(3, []), 9, 21, 30,
     "8ae7c30777f639e154e4df7ddbbb1a720026e345f10bc4c6e378db15d2bedee9"),
]


@pytest.mark.parametrize("name,base,m,seed,v,digest", GOLDEN_SAMPLES, ids=[c[0] for c in GOLDEN_SAMPLES])
def test_sample_golden_digests(name, base, m, seed, v, digest):
    g = sample_product_graph(base(), m, seed)
    assert g.vertex_count == v
    assert hashlib.sha256(g.packed_rows.tobytes()).hexdigest() == digest


_PEAK_PROBE = """
import resource
from satgraph.builder import sample_product_graph
from satgraph.towers import extend_tower, new_tower
base = extend_tower(extend_tower(new_tower(2, seed=7))).levels[2]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
g = sample_product_graph(base, 109, seed=1)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(g.packed_rows.nbytes, (after - before) * 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_sample_peak_memory_stays_near_packed_size():
    # V = 182 * 110 = 20,020 vertices, 47.8 MiB packed; a second matrix would double it
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    packed_bytes, grown = map(int, proc.stdout.split())
    assert packed_bytes == 20020 * 313 * 8
    assert grown <= 1.5 * packed_bytes, (grown / 2**20, packed_bytes / 2**20)


def test_sample_rejects_m_zero():
    with pytest.raises(ValueError):
        sample_product_graph(K2, 0, seed=1)


def test_sample_rejects_size_beyond_physical_memory():
    # 10^7 vertices need about 11.4 TiB of packed rows
    with pytest.raises(ValueError, match="physical memory"):
        sample_product_graph(K2, 5_000_000 - 1, seed=1)


# -- fiber lifting check -----------------------------------------------------------


def test_lifting_check_vacuous_for_n1():
    g = sample_product_graph(K2, 2, seed=7)
    assert check_product_lifting(g, K2, 2, 1).holds


def test_lifting_check_single_vertex_base():
    for seed in range(5):
        g = sample_product_graph(K1, 1, seed=seed)
        assert check_product_lifting(g, K1, 1, 2).holds


def test_lifting_check_all_coins_absent_fails_at_far_copy():
    # the sample with every coin drawn absent: only the forced copy-0 edge
    # plus loops; vertex (1,1) has no neighbour in fiber 0
    g = FiniteGraph.from_edges(4, [(0, 2)])
    rep = check_product_lifting(g, K2, 1, 2)
    assert not rep.holds
    assert rep.counterexample == (0, (3,))


def test_lifting_check_size_mismatch():
    g = sample_product_graph(K2, 2, seed=1)
    with pytest.raises(ValueError):
        check_product_lifting(g, K2, 3, 2)


def test_lifting_counterexample_rechecks():
    g = FiniteGraph.from_edges(4, [(0, 2)])
    rep = check_product_lifting(g, K2, 1, 2)
    i, targets = rep.counterexample
    copies = 2
    for l in range(copies):
        assert not all(g.adjacent(i * copies + l, t) for t in targets)


def test_lifting_distinct_bases_is_weaker():
    for seed in range(10):
        base = random_graph(3, seed=seed)
        g = sample_product_graph(base, 2, seed=seed + 50)
        full = check_product_lifting(g, base, 2, 3)
        distinct = check_product_lifting(g, base, 2, 3, distinct_bases=True)
        if full.holds:
            assert distinct.holds


@pytest.mark.parametrize("seed, witness", [(0, (0, 1, 2)), (1, (0, 1, 3)), (6, (0, 1, 3)), (47, (1, 3, 4))])
def test_lifting_triple_witness_over_k1(seed, witness):
    g = sample_product_graph(K1, 4, seed=seed)
    assert check_product_lifting(g, K1, 4, 3).holds
    rep = check_product_lifting(g, K1, 4, 4)
    assert rep.counterexample == (0, witness) == product_lifting_loops(g, K1, 4, 4)
    assert not any(all(g.adjacent(copy, t) for t in witness) for copy in range(5))
    # every target lies over the one base vertex, so nothing is left to check
    assert check_product_lifting(g, K1, 4, 4, distinct_bases=True).holds


def test_lifting_four_target_witness_over_k4():
    g, base, m = orthogonal_fibers()
    for distinct, witness in ((False, (0, 1, 3, 14)), (True, (0, 16, 33, 53))):
        assert check_product_lifting(g, base, m, 4, distinct_bases=distinct).holds
        rep = check_product_lifting(g, base, m, 5, distinct_bases=distinct)
        assert rep.counterexample == (0, witness) == product_lifting_loops(g, base, m, 5, distinct)
        assert not any(all(g.adjacent(copy, t) for t in witness) for copy in range(m + 1))


# block=8 shrinks the product budget to one b row per chunk, and block=64 to
# a few rows, so the chunked path is compared too; n=5 uses smaller m because
# the reference loops over every four-target combination in Python, and more
# seeds because four-target witnesses are rare
@pytest.mark.parametrize("block", [None, 8, 64])
@pytest.mark.parametrize("n", [3, 4, 5], ids=["n3", "n4", "n5"])
def test_lifting_block_tuples_match_reference_loop(n, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(builder, "_PRODUCT_BLOCK", block)
    outcomes = {}
    for k, top_m in ((1, 16), (2, 12), (3, 9)) if n == 5 else ((1, 11), (2, 24), (3, 30)):
        for m in range(3, top_m + 1):
            for seed in range(16 if n == 5 else 8):
                base = FiniteGraph.complete(k) if seed % 2 else random_graph(k, seed=seed)
                g = sample_product_graph(base, m, seed=seed)
                for distinct in (False, True):
                    rep = check_product_lifting(g, base, m, n, distinct_bases=distinct)
                    assert rep.counterexample == product_lifting_loops(g, base, m, n, distinct)
                    size = len(rep.counterexample[1]) if rep.counterexample else 0
                    outcomes[distinct, size] = outcomes.get((distinct, size), 0) + 1
                    if rep.counterexample:
                        i, targets = rep.counterexample
                        bases = [t // (m + 1) for t in targets]
                        assert all(base.adjacent(i, b) for b in bases)
                        assert not distinct or len(set(bases)) == size
                        fiber = range(i * (m + 1), (i + 1) * (m + 1))
                        assert not any(all(g.adjacent(u, t) for t in targets) for u in fiber)
    # passes and every witness size occur; with distinct bases, four targets
    # need four base vertices, and these bases give a single n=5 triple
    for distinct in (False, True):
        assert outcomes.get((distinct, 0), 0) >= 5, outcomes
        for size in range(2, min(n, 4) if distinct else n):
            least = 1 if (n, distinct, size) == (5, True, 3) else 5
            assert outcomes.get((distinct, size), 0) >= least, (distinct, size, outcomes)


# -- rejection sampling ---------------------------------------------------------------


def test_build_n1_first_attempt():
    g, attempts = build_extension(1, K1, seed=0, m=1)
    assert attempts == 1
    assert g.vertex_count == 2
    assert is_n_saturated(g, 1).holds


def test_build_certified_n2():
    g, attempts = build_extension(2, K2, seed=42, max_attempts=1000)
    assert g.vertex_count == 2 * 7  # certified m = 6
    assert is_n_saturated(g, 2).holds
    assert check_product_lifting(g, K2, 6, 2).holds
    assert is_quotient_map(division_map(g, K2, 6))


def test_build_is_deterministic():
    r1 = build_extension(2, K2, seed=7)
    r2 = build_extension(2, K2, seed=7)
    assert r1[0] == r2[0]
    assert r1[1] == r2[1]


def test_build_empirical_small_m_verified_if_it_returns():
    try:
        g, _ = build_extension(2, K2, seed=3, m=2, max_attempts=50)
    except AttemptsExhausted:
        return
    assert is_n_saturated(g, 2).holds
    assert check_product_lifting(g, K2, 2, 2).holds


def test_build_requires_weakly_saturated_base():
    lonely = FiniteGraph.from_edges(2, [])
    with pytest.raises(ValueError):
        build_extension(2, lonely, seed=0, m=2)


def test_build_exhaustion_raises():
    with pytest.raises(AttemptsExhausted) as exc:
        build_extension(3, FiniteGraph.complete(3), seed=0, m=1, max_attempts=3)
    assert exc.value.attempts == 3


def test_sample_multiword_graphs_fully_wellformed():
    # re-validating through the strict constructor checks symmetry, loops
    # and tail bits of the word-level symmetrization across word boundaries
    import numpy as np
    from satgraph.graphs import FiniteGraph as FG

    for base, m in [(FiniteGraph.cycle(5), 30), (K2, 64), (FiniteGraph.complete(3), 40)]:
        g = sample_product_graph(base, m, seed=123)
        assert g.vertex_count == base.vertex_count * (m + 1)
        revalidated = FG(g.vertex_count, g.packed_rows.copy(), validate=True)
        assert revalidated == g
        assert is_quotient_map(division_map(g, base, m))
