import numpy as np
import pytest

from satgraph.builder import (
    _check_division_quotient,
    attempt_seed,
    build_extension,
    check_product_lifting,
    minimal_certified_m,
    sample_product_graph,
)
from satgraph.graphs import FiniteGraph, TypeSpec, find_realizer, is_weakly_n_saturated
from satgraph.towers import (
    AdjacencyStatus,
    NotSeparated,
    ThreadPrefix,
    TooManyConstraints,
    Tower,
    adjacency_status,
    canonical_extension,
    canonical_thread,
    check_realization,
    extend_realizer,
    extend_tower,
    level_build_seed,
    matches_seed,
    new_tower,
    project,
    random_thread,
    realize_type,
    validate_prefix,
    verify_tower,
)

from conftest import division_map, without_edges
from reference_loops import compose, division_quotient_loops, is_quotient_map


@pytest.fixture(scope="module")
def t2():
    # n=2, two certified levels: 2 -> 14 -> 182 vertices
    return extend_tower(extend_tower(new_tower(2, seed=42)), max_attempts=200)


@pytest.fixture(scope="module")
def t2_small():
    # quick tower for thread tests: uncertified level 1 (10 vertices), then a
    # certified level over it (the lifting guarantee makes small uncertified
    # m hopeless over bases beyond a couple of vertices)
    t = new_tower(2, seed=5)
    t = extend_tower(t, m=4, max_attempts=200)
    t = extend_tower(t, max_attempts=200)
    return t


def test_new_tower_levels():
    t1 = new_tower(1, seed=0)
    assert t1.levels[0].vertex_count == 1
    t3 = new_tower(3, seed=0)
    assert is_weakly_n_saturated(t3.levels[0], 3).holds
    t4 = new_tower(4, seed=0)
    assert t4.levels[0].edge_count() == 6
    assert verify_tower(t4).ok  # depth 0 passes trivially
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="64-bit"):
            new_tower(2, seed=seed)


def test_extend_n1_two_vertices():
    t = extend_tower(new_tower(1, seed=9))
    assert t.levels[1].vertex_count == 2
    assert list(t.bonds[0].image) == [0, 0]


def test_extend_certified_n2_level_size(t2):
    assert t2.per_level_m[0] == 6
    assert t2.levels[1].vertex_count == 14
    assert t2.per_level_m[1] == minimal_certified_m(2, 14)
    assert t2.levels[2].vertex_count == 14 * (t2.per_level_m[1] + 1)


def test_extend_certified_n3_level_size():
    t = extend_tower(new_tower(3, seed=1), max_attempts=100)
    assert t.levels[1].vertex_count == 3 * (minimal_certified_m(3, 3) + 1)


def test_verify_fresh_tower(t2):
    report = verify_tower(t2)
    assert report.ok
    assert report.first_failure is None
    names = [name for name, _, _ in report.checks]
    assert "saturation[level 2]" in names
    assert "lifting[bond 1]" in names


def test_verify_maintained_under_extension(t2_small):
    assert verify_tower(t2_small).ok


def test_staged_and_direct_growth_agree(t2):
    staged = extend_tower(new_tower(2, seed=42))
    staged = extend_tower(staged, max_attempts=200)
    assert staged == t2


def test_matches_seed(t2):
    assert matches_seed(t2)
    # the same levels under another seed pass verify_tower but are not its build
    assert not matches_seed(Tower(2, 43, t2.levels, t2.per_level_m))
    # step 0 here took 9 attempts, so the replay passes 8 rejected samples first
    k3, seed = FiniteGraph.complete(3), level_build_seed(0, 0)
    assert build_extension(3, k3, seed, m=27)[1] == 9
    t3 = extend_tower(new_tower(3, 0), m=27)
    assert matches_seed(t3)
    # attempt 0 passes verify_tower, but build's repeats-allowed lifting rejects it
    first = Tower(3, 0, (k3, sample_product_graph(k3, 27, attempt_seed(seed, 0))), (27,))
    assert verify_tower(first)
    assert not matches_seed(first)
    # attempt 0 here lifts but is not 2-saturated: the replay must scan it
    assert matches_seed(extend_tower(new_tower(2, 0), m=2))


def test_verify_catches_deleted_edge(t2_small):
    # drop one cross edge from level 1 of a depth-2 tower; the bond above it
    # stops being a homomorphism (or level 1 stops being saturated)
    lvl = t2_small.levels[1]
    edges = lvl.edges()
    target = edges[len(edges) // 2]
    mutated_level = FiniteGraph.from_edges(
        lvl.vertex_count, [e for e in edges if e != target]
    )
    mutated = Tower(
        t2_small.n,
        t2_small.seed,
        (t2_small.levels[0], mutated_level, t2_small.levels[2]),
        t2_small.per_level_m,
    )
    report = verify_tower(mutated)
    assert not report.ok
    assert report.first_failure is not None


def test_verify_catches_added_edge(t2_small):
    # connect two fibers whose base vertices are non-adjacent at the top level
    top = t2_small.levels[-1]
    base = t2_small.levels[-2]
    copies = t2_small.per_level_m[-1] + 1
    pair = None
    for i in range(base.vertex_count):
        for j in range(i + 1, base.vertex_count):
            if not base.adjacent(i, j):
                pair = (i, j)
                break
        if pair:
            break
    assert pair is not None
    extra = (pair[0] * copies + 1, pair[1] * copies + 1)
    mutated_top = FiniteGraph.from_edges(top.vertex_count, top.edges() + [extra])
    mutated = Tower(
        t2_small.n,
        t2_small.seed,
        t2_small.levels[:-1] + (mutated_top,),
        t2_small.per_level_m,
    )
    report = verify_tower(mutated)
    assert not report.ok
    assert "quotient[bond 1]" in report.first_failure


# -- the quotient check ----------------------------------------------------------


def quotient_message(g: FiniteGraph, base: FiniteGraph, copies: int):
    """The quotient check's message, which must be the reference loop's."""
    got = _check_division_quotient(g, base, copies)
    assert got == division_quotient_loops(g, base, copies)
    return got


def cross_edges(g: FiniteGraph, copies: int, i: int, j: int) -> list[tuple[int, int]]:
    """Every edge (u, w) of ``g`` between the fibers of base vertices i != j."""
    return [
        (u, w)
        for u in range(i * copies, (i + 1) * copies)
        for w in range(j * copies, (j + 1) * copies)
        if g.adjacent(u, w)
    ]


def test_quotient_passes_every_single_edge_deletion():
    # acceptance 8's tower (n=2, seed 5, 2 -> 14 vertices): no single
    # deletion empties the edges between the two fibers, so each is left to
    # the other checks
    t = extend_tower(new_tower(2, seed=5))
    base, top = t.levels
    edges = top.edges()
    assert len(edges) == 44
    for e in edges:
        assert quotient_message(without_edges(top, [e]), base, t.per_level_m[0] + 1) is None


def test_quotient_messages_on_planted_cross_edges(t2):
    # level 1 of an n=2 tower as the base: edges planted between fibers over
    # non-adjacent base vertices, and in odd seeds every edge between the
    # fibers over one base edge deleted, in random rows
    base, top = t2.levels[1], t2.levels[2]
    copies = t2.per_level_m[1] + 1
    k = base.vertex_count
    non_edges = [(i, j) for i in range(k) for j in range(i + 1, k) if not base.adjacent(i, j)]
    base_edges = [(i, j) for i in range(k) for j in range(i + 1, k) if base.adjacent(i, j)]
    kinds = set()
    for seed in range(16):
        rng = np.random.default_rng(seed)
        planted = []
        for _ in range(int(rng.integers(1, 3))):
            i, j = non_edges[int(rng.integers(len(non_edges)))]
            planted.append((i * copies + int(rng.integers(copies)), j * copies + int(rng.integers(copies))))
        g = FiniteGraph.from_edges(top.vertex_count, top.edges() + planted)
        if seed % 2:
            i, j = base_edges[int(rng.integers(len(base_edges)))]
            g = without_edges(g, cross_edges(g, copies, i, j))
        message = quotient_message(g, base, copies)
        kinds.add(message.split()[0])
    assert kinds == {"an", "edge"}


def test_quotient_skips_rows_that_only_miss_part_of_a_fiber(t2):
    # base vertex 0's fiber loses its edges to one copy of a neighbour j, so
    # its fiber union differs from its spread base row while fibers 0 and j
    # still meet; the first real mismatch is an edge planted in a later row
    base, top = t2.levels[1], t2.levels[2]
    copies = t2.per_level_m[1] + 1
    k = base.vertex_count
    j = next(j for j in range(1, k) if base.adjacent(0, j))
    g = without_edges(top, [(u, j * copies) for u in range(copies) if top.adjacent(u, j * copies)])
    assert check_product_lifting(g, base, copies - 1, 2).counterexample == (0, (j * copies,))
    assert quotient_message(g, base, copies) is None
    p, q = next((p, q) for p in range(max(2, j + 1), k) for q in range(p + 1, k) if not base.adjacent(p, q))
    g = FiniteGraph.from_edges(g.vertex_count, g.edges() + [(p * copies, q * copies + 1)])
    assert quotient_message(g, base, copies) == f"an edge between fibers {p} and {q} maps onto a non-edge"


def test_verify_structure_failures(t2_small):
    bad = Tower(
        3,
        t2_small.seed,
        t2_small.levels,
        t2_small.per_level_m,
    )
    report = verify_tower(bad)
    assert not report.ok
    assert "structure" in report.first_failure


# -- threads ------------------------------------------------------------------


def test_canonical_extension_and_validation(t2_small):
    root = ThreadPrefix((0,))
    full = canonical_extension(t2_small, root, 2)
    assert full.entries == (0, 0, 0)  # copy-0 preimage of index 0 is index 0
    assert canonical_extension(t2_small, full, 2) == full
    validate_prefix(t2_small, full)
    with pytest.raises(ValueError):
        canonical_extension(t2_small, root, 3)
    with pytest.raises(ValueError, match="below the prefix depth"):
        canonical_extension(t2_small, full, 1)
    with pytest.raises(ValueError):
        validate_prefix(t2_small, ThreadPrefix((0, 1, 0)))


def test_canonical_extension_nonzero_root(t2_small):
    m0 = t2_small.per_level_m[0]
    thread = canonical_extension(t2_small, ThreadPrefix((1,)), 1)
    assert thread.entries == (1, m0 + 1)


def test_canonical_thread_projects_down(t2_small):
    v = t2_small.levels[2].vertex_count - 1
    th = canonical_thread(t2_small, 2, v)
    assert th.entries[2] == v
    assert th.entries[1] == int(t2_small.bonds[1].image[v])
    assert th.entries[0] == project(t2_small, 2, 0, v)
    validate_prefix(t2_small, th)


def test_random_threads_are_consistent(t2_small):
    for seed in range(20):
        validate_prefix(t2_small, random_thread(t2_small, seed))


def test_threads_match_fiber_scan_oracle(t2_small):
    # the pre-arithmetic implementation: parents by indexing the bond image,
    # fibers by scanning it, with the same RNG draws
    t = t2_small
    images = [np.arange(g.vertex_count) // (m + 1) for g, m in zip(t.levels[1:], t.per_level_m)]
    for d, bond in enumerate(t.bonds):
        assert np.array_equal(bond.image, images[d])

    def fiber(d, e):
        return np.nonzero(images[d] == e)[0]

    def down(level, v):
        entries = [v]
        for d in range(level - 1, -1, -1):
            entries.insert(0, int(images[d][entries[0]]))
        return entries

    top = t.levels[-1].vertex_count
    for seed in range(50):
        rng = np.random.default_rng(seed)
        entries = [int(rng.integers(t.levels[0].vertex_count))]
        for d in range(t.depth):
            f = fiber(d, entries[-1])
            entries.append(int(f[rng.integers(len(f))]))
        assert random_thread(t, seed).entries == tuple(entries)

        v = (seed * 37) % top
        assert project(t, 2, 0, v) == down(2, v)[0]
        assert project(t, 2, 1, v) == down(2, v)[1]
        level = seed % 3
        u = (seed * 11) % t.levels[level].vertex_count
        expected = down(level, u)
        for d in range(level, t.depth):
            expected.append(int(fiber(d, expected[-1])[0]))
        assert canonical_thread(t, level, u).entries == tuple(expected)

        c, bit = random_thread(t, seed + 100), seed % 2
        realizers = [
            find_realizer(t.levels[d], TypeSpec(((c.entries[d], bit),)))
            for d in range(t.depth + 1)
        ]
        sep = next(d for d, r in enumerate(realizers) if r is not None)
        expected = down(sep, realizers[sep])
        for d in range(sep, t.depth):
            expected.append(
                next(
                    int(w)
                    for w in fiber(d, expected[-1])
                    if bit == 0 or t.levels[d + 1].adjacent(int(w), c.entries[d + 1])
                )
            )
        h = realize_type(t, [(c, bit)])
        assert (h.separation_level, h.prefix.entries) == (sep, tuple(expected))

    with pytest.raises(ValueError):
        project(t, 2, 0, top)


def test_adjacency_status_reflexive_and_root(t2_small):
    a = canonical_thread(t2_small, 0, 0)
    assert adjacency_status(t2_small, a, a, 2).adjacent_through_depth
    b = canonical_thread(t2_small, 0, 1)
    # level 0 is complete so the roots are adjacent there
    status = adjacency_status(t2_small, a, b, 0)
    assert status.adjacent_through_depth


def test_adjacency_status_rejects_negative_depth(t2_small):
    a = canonical_thread(t2_small, 0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        adjacency_status(t2_small, a, a, -1)


def test_adjacency_status_finds_separating_level(t2_small):
    top = t2_small.levels[2]
    found = None
    for u in range(top.vertex_count):
        for w in range(u + 1, top.vertex_count):
            if not top.adjacent(u, w):
                found = (u, w)
                break
        if found:
            break
    a = canonical_thread(t2_small, 2, found[0])
    b = canonical_thread(t2_small, 2, found[1])
    status = adjacency_status(t2_small, a, b, 2)
    assert not status.adjacent_through_depth
    assert status.non_adjacent_level is not None
    lvl = status.non_adjacent_level
    assert not t2_small.levels[lvl].adjacent(a.entries[lvl], b.entries[lvl])


def test_adjacency_persists_downward(t2_small):
    # the set of levels where two threads are adjacent is an initial segment
    for seed in range(15):
        a = random_thread(t2_small, seed)
        b = random_thread(t2_small, seed + 100)
        adjacent = [
            t2_small.levels[d].adjacent(a.entries[d], b.entries[d]) for d in range(3)
        ]
        for d in range(2):
            if not adjacent[d]:
                assert not adjacent[d + 1]


def test_one_step_splitting(t2_small):
    for d, bond in enumerate(t2_small.bonds):
        counts = np.bincount(bond.image, minlength=t2_small.levels[d].vertex_count)
        assert (counts >= 2).all()


def test_compose_of_bonds_is_quotient(t2_small):
    lo, mid, hi = t2_small.levels
    m0, m1 = t2_small.per_level_m
    assert is_quotient_map(compose(division_map(mid, lo, m0), division_map(hi, mid, m1)))


# -- realization ------------------------------------------------------------------


def test_realize_empty_constraints_gives_canonical_root(t2_small):
    h = realize_type(t2_small, [])
    assert h.prefix == canonical_thread(t2_small, 0, 0)
    assert h.separation_level == 0
    assert check_realization(t2_small, h) == (True, None)


def test_realize_too_many_constraints(t2_small):
    a = canonical_thread(t2_small, 0, 0)
    b = canonical_thread(t2_small, 0, 1)
    with pytest.raises(TooManyConstraints):
        realize_type(t2_small, [(a, 1), (b, 0)])  # n=2 allows one constraint


def test_realize_identical_prefixes_never_separate(t2_small):
    t3 = extend_tower(new_tower(3, seed=11), max_attempts=100)
    a = canonical_thread(t3, 0, 0)
    with pytest.raises(NotSeparated):
        realize_type(t3, [(a, 1), (a, 0)], auto_extend=True)


def test_realize_positive_constraint(t2_small):
    for seed in range(10):
        c = random_thread(t2_small, seed)
        h = realize_type(t2_small, [(c, 1)])
        ok, why = check_realization(t2_small, h)
        assert ok, why
        status = adjacency_status(t2_small, h.prefix, c, 2)
        assert status.adjacent_through_depth


def test_realize_negative_constraint(t2_small):
    for seed in range(10):
        c = random_thread(t2_small, seed)
        h = realize_type(t2_small, [(c, 0)])
        ok, why = check_realization(t2_small, h)
        assert ok, why
        status = adjacency_status(t2_small, h.prefix, c, 2)
        assert not status.adjacent_through_depth
        assert status.non_adjacent_level <= h.separation_level


def test_realize_mixed_type_n3():
    t = extend_tower(new_tower(3, seed=2), max_attempts=100)
    a = random_thread(t, 1)
    b = random_thread(t, 2)
    assert a.entries != b.entries
    h = realize_type(t, [(a, 1), (b, 0)])
    ok, why = check_realization(t, h)
    assert ok, why
    assert adjacency_status(t, h.prefix, a, 1).adjacent_through_depth
    assert not adjacency_status(t, h.prefix, b, 1).adjacent_through_depth


def test_realize_zero_type_on_depth0_requires_extension():
    t0 = new_tower(2, seed=21)
    c = ThreadPrefix((0,))
    with pytest.raises(NotSeparated):
        realize_type(t0, [(c, 0)])
    h = realize_type(t0, [(c, 0)], auto_extend=True)
    grown = extend_tower(t0)
    ok, why = check_realization(grown, h)
    assert ok, why
    assert h.separation_level == 1


def test_extend_realizer_matches_fresh_realization(t2_small):
    c = random_thread(t2_small, 3)
    shallow = t2_small.truncated(1)
    h1 = realize_type(shallow, [(ThreadPrefix(c.entries[:2]), 1)])
    h2 = extend_realizer(t2_small, h1)
    ok, why = check_realization(t2_small, h2)
    assert ok, why
    # determinism: realizing on the deeper tower with the canonical
    # extension of the same constraint gives the same prefix
    direct = realize_type(
        t2_small, [(canonical_extension(t2_small, ThreadPrefix(c.entries[:2]), 2), 1)]
    )
    assert direct.prefix == h2.prefix


def test_extend_realizer_without_growth_fails(t2_small):
    h = realize_type(t2_small, [])
    with pytest.raises(ValueError):
        extend_realizer(t2_small, h)


def test_extend_constraint_free_handle_is_canonical(t2_small):
    shallow = t2_small.truncated(0)
    h = realize_type(shallow, [])
    h1 = extend_realizer(t2_small, h)
    h2 = extend_realizer(t2_small, h1)
    assert h2.prefix == canonical_thread(t2_small, 0, 0)


def test_realizer_differs_from_constraints_at_separation(t2_small):
    for seed in range(8):
        c = random_thread(t2_small, seed + 40)
        h = realize_type(t2_small, [(c, 1)])
        lvl = h.separation_level
        assert h.prefix.entries[lvl] != c.entries[lvl]


def test_check_realization_rejects_tampering(t2_small):
    c = random_thread(t2_small, 7)
    h = realize_type(t2_small, [(c, 0)])
    bad = RealizerHandleTampered = type(h)(
        prefix=c,  # pretend the constraint realizes its own negation
        separation_level=h.separation_level,
        positive=h.positive,
        negative=h.negative,
    )
    ok, why = check_realization(t2_small, bad)
    assert not ok
