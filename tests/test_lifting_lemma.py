"""The lifting lemma's saturation path against the full pair scan.

At n = 3, above level 1, build and verify scan only the pairs inside one
fiber when the level below is 3-saturated and the bond below is a quotient
map that lifts (README, "The lifting lemma").  Every verdict and
counterexample must still be the full scan's: these tests plant holes
inside one fiber and over two fibers, flip random edges, and compare.
"""

import numpy as np
import pytest

from satgraph import builder, graphs, towers
from satgraph.builder import AttemptsExhausted, build_extension, check_product_lifting, sample_product_graph
from satgraph.graphs import FiniteGraph, TypeSpec, find_realizer, is_n_saturated
from satgraph.towers import Tower, verify_tower

from conftest import uncover


def with_flips(g: FiniteGraph, pairs) -> FiniteGraph:
    """``g`` with the adjacency of each cross pair (u, w), u != w, toggled."""
    rows = g.packed_rows.copy()
    for u, w in pairs:
        for a, b in ((u, w), (w, u)):
            rows[a, b >> 6] ^= np.uint64(1 << (b & 63))
    return FiniteGraph(g.vertex_count, rows)


def plant_hole(g: FiniteGraph, a: int, c: int, sign: int):
    """``g`` with no realizer left for {a: 1, c: sign}, by flipping edges at c.

    Sign 0 adds an edge from c to every other neighbour of a; sign 1 removes
    the edges from c to the common neighbours.  Only c's row changes.
    """
    f = TypeSpec(((a, 1), (c, sign)))
    realizers = [x for x in range(g.vertex_count) if x not in (a, c) and graphs.realizes(g, x, f)]
    planted = with_flips(g, [(x, c) for x in realizers])
    assert find_realizer(planted, f) is None
    return planted


def full_scan_text(g: FiniteGraph, d: int) -> str:
    """The failure ``verify_tower`` reports when the full scan finds a hole in level d."""
    subset, f = is_n_saturated(g, 3).counterexample
    return f"saturation[level {d}]: type {f.as_dict()} over {subset} has no realizer"


@pytest.fixture
def fully_scanned(monkeypatch):
    """The vertex counts of the levels ``verify_tower`` hands to the full scan."""
    sizes = []

    def spy(g, n):
        sizes.append(g.vertex_count)
        return is_n_saturated(g, n)

    monkeypatch.setattr(towers, "is_n_saturated", spy)
    return sizes


def full_scan_report(t: Tower, monkeypatch) -> towers.TowerReport:
    """``verify_tower`` with the lemma path scanning every pair, as before it existed."""
    with monkeypatch.context() as patch:
        patch.setattr(towers, "_missing_type_collapsed", lambda g, copies: graphs._missing_type_pairs(g, False))
        return verify_tower(t)


def accepts(sample: FiniteGraph, base: FiniteGraph, m: int, monkeypatch) -> bool:
    """Whether build's attempt loop accepts ``sample`` as its one draw over ``base``."""
    with monkeypatch.context() as patch:
        patch.setattr(builder, "sample_product_graph", lambda *args: sample)
        try:
            builder._first_accepted(3, base, 0, m, 1, is_n_saturated(base, 3).holds)
        except AttemptsExhausted:
            return False
    return True


# -- the certified n=3 depth-2 tower (V = 9,840, fibers of 82) --------------------------


def test_lemma_path_agrees_with_full_scan_at_full_size(tower_n3_depth2, fully_scanned):
    t = tower_n3_depth2.tower
    top = t.levels[2]
    assert graphs._missing_type_collapsed(top, 82) is None
    assert graphs._missing_type_pairs(top, False) is None
    assert verify_tower(t).ok
    assert fully_scanned == [120]  # level 2 went by the lemma


@pytest.mark.parametrize("fiber", [1, 119], ids=["early", "last"])
def test_planted_hole_in_one_fiber_is_found_by_lemma_path(tower_n3_depth2, fully_scanned, fiber):
    # adding edges keeps the bond a quotient map that lifts, so the lemma's
    # premises hold and only the collapsed scan looks at level 2
    t = tower_n3_depth2.tower
    a, c = fiber * 82 + 3, fiber * 82 + 40
    planted = plant_hole(t.levels[2], a, c, sign=0)
    report = verify_tower(Tower(3, t.seed, t.levels[:2] + (planted,), t.per_level_m))
    assert report.first_failure == full_scan_text(planted, 2)
    assert f"over ({a}, {c})" in report.first_failure
    assert fully_scanned == [120]


@pytest.mark.parametrize("sign", [0, 1])
def test_planted_hole_over_two_fibers_breaks_a_premise(tower_n3_depth2, fully_scanned, sign):
    # sign 0 adds edges towards fibers over non-neighbours (the quotient
    # breaks), sign 1 leaves a pair with no common copy (lifting breaks)
    t = tower_n3_depth2.tower
    level1, top = t.levels[1], t.levels[2]
    planted = plant_hole(top, 5, 82 + 7, sign)
    assert graphs._missing_type_collapsed(planted, 82) is None
    rep = check_product_lifting(planted, level1, 81, 3, distinct_bases=True)
    if sign == 0:
        assert rep.quotient is not None
    else:
        assert rep.quotient is None
        assert not rep.holds
    report = verify_tower(Tower(3, t.seed, t.levels[:2] + (planted,), t.per_level_m))
    assert report.first_failure == full_scan_text(planted, 2)
    assert fully_scanned == [120, 9840]  # the premise failed, so level 2 was scanned whole


def test_build_rejects_sample_whose_premise_fails(tower_n3_depth2, monkeypatch):
    # the sampler never breaks the quotient, but the loop checks it: this
    # sample lifts, and its only holes lie over two fibers
    t = tower_n3_depth2.tower
    planted = plant_hole(t.levels[2], 5, 82 + 7, sign=0)
    assert graphs._missing_type_collapsed(planted, 82) is None
    assert not accepts(planted, t.levels[1], 81, monkeypatch)


def test_hole_over_two_fibers_at_level_1_is_found(tower_n3_depth2, fully_scanned, monkeypatch):
    # level 0 = K3 is not 3-saturated, so level 1 is always scanned whole:
    # this hole keeps the bond a quotient map that lifts (K3 is complete,
    # and only edges are added), and no pair inside a fiber sees it
    t = tower_n3_depth2.tower
    k3, level1 = t.levels[0], t.levels[1]
    planted = plant_hole(level1, 3, 40 + 9, sign=0)
    assert graphs._missing_type_collapsed(planted, 40) is None
    assert check_product_lifting(planted, k3, 39, 3).holds
    report = verify_tower(Tower(3, t.seed, (k3, planted), t.per_level_m[:1]))
    assert report.first_failure == full_scan_text(planted, 1)
    assert fully_scanned == [120]
    monkeypatch.setattr(builder, "sample_product_graph", lambda *args: planted)
    with pytest.raises(AttemptsExhausted):
        build_extension(3, k3, 0, m=39, max_attempts=1)
    # the seeded replay must reject it too, and then accept the stored level
    draws = iter([planted, level1])
    monkeypatch.setattr(builder, "sample_product_graph", lambda *args: next(draws))
    assert towers.matches_seed(Tower(3, t.seed, (k3, level1), t.per_level_m[:1]))


# -- random edge flips on a small depth-2 tower -----------------------------------------


@pytest.fixture(scope="module")
def small_tower():
    """n=3, V = 3 -> 45 -> 2,745: level 1 is 3-saturated, and bond 1 lifts (bond 0 does not)."""
    k3 = FiniteGraph.complete(3)
    level1 = sample_product_graph(k3, 14, seed=0)
    level2 = sample_product_graph(level1, 60, seed=0)
    t = Tower(3, 0, (k3, level1, level2), (14, 60))
    assert is_n_saturated(level1, 3).holds
    assert check_product_lifting(level2, level1, 60, 3).holds
    return t


def random_pairs(t: Tower, rng: np.random.Generator, valid: bool):
    """A few random cross pairs of the top level; ``valid`` keeps them over adjacent base vertices."""
    level1, copies = t.levels[1], t.per_level_m[1] + 1
    pairs, count = [], int(rng.integers(1, 40))
    while len(pairs) < count:
        u, w = (int(x) for x in rng.integers(t.levels[2].vertex_count, size=2))
        if u != w and (not valid or level1.adjacent(u // copies, w // copies)):
            pairs.append((u, w))
    return pairs


# what each case does after its random flips, by seed modulo 5
FLIP_CASES = ("any pairs", "valid pairs", "hole in one fiber", "hole over two fibers", "uncovered pair")


def test_random_flips_agree_with_full_scan(small_tower, fully_scanned, monkeypatch):
    t = small_tower
    level1, top = t.levels[1], t.levels[2]
    copies = t.per_level_m[1] + 1
    outcomes = set()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        case = FLIP_CASES[seed % 5]
        g = with_flips(top, random_pairs(t, rng, valid=case != "any pairs"))
        a = int(rng.integers(top.vertex_count))
        first = a - a % copies  # of a's fiber
        if case == "hole in one fiber":
            g = plant_hole(g, first, first + 1 + a % (copies - 1), sign=seed % 2)
        elif case == "hole over two fibers":
            g = plant_hole(g, a, (a + copies * int(rng.integers(1, 45))) % top.vertex_count, sign=seed % 2)
        elif case == "uncovered pair":
            i = int(rng.integers(45))
            bases = rng.choice([j for j in range(45) if level1.adjacent(i, j)], 2, replace=False)
            g = uncover(g, 60, i, tuple(int(j) * copies + int(rng.integers(copies)) for j in bases))
        flipped = Tower(t.n, t.seed, t.levels[:2] + (g,), t.per_level_m)
        fully_scanned.clear()
        report = verify_tower(flipped)
        path = "whole" if top.vertex_count in fully_scanned else "lemma"
        outcomes.add((report.first_failure.split(":")[0], path))
        want = full_scan_report(flipped, monkeypatch)
        assert report.checks == want.checks, case
        saturated = ("saturation[level 2]", True, "") in want.checks
        lifts = check_product_lifting(g, level1, 60, 3).holds
        assert accepts(g, level1, 60, monkeypatch) == (saturated and lifts), case
    # bond 0 never lifts here, so lifting[bond 1] is never the first failure
    assert outcomes == {
        ("quotient[bond 1]", "whole"),
        ("saturation[level 2]", "lemma"),
        ("saturation[level 2]", "whole"),
        ("lifting[bond 0]", "lemma"),
        ("lifting[bond 0]", "whole"),
    }
