"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Budgets are asserted where stated.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from satgraph.builder import (
    build_extension,
    check_product_lifting,
    lifting_failure_bound,
    minimal_certified_m,
    sample_product_graph,
    saturation_failure_bound,
)
from satgraph.cli import EXIT_OK, EXIT_VERIFY, main
from satgraph.graphs import (
    FiniteGraph,
    is_n_saturated,
    random_graph,
)
from satgraph.serialize import decode_tower, encode_tower, load_tower, save_tower
from satgraph.towers import (
    Tower,
    check_realization,
    random_thread,
    realize_type,
    verify_tower,
)

from conftest import division_map
from reference_loops import first_missing_type_loops, is_quotient_map


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_acceptance_1_oracle_equivalence():
    start = time.perf_counter()
    disagreements = 0
    pairs = list(itertools.combinations(range(4), 2))
    count4 = 0
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        g = FiniteGraph.from_edges(4, [p for p, b in zip(pairs, bits) if b])
        count4 += 1
        for n in (1, 2, 3):
            if is_n_saturated(g, n).holds != (first_missing_type_loops(g, n, False) is None):
                disagreements += 1
    assert count4 == 64
    for seed in range(100):
        g = random_graph(4 + seed % 9, seed=seed)
        for n in (2, 3, 4):
            if is_n_saturated(g, n).holds != (first_missing_type_loops(g, n, False) is None):
                disagreements += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        disagreements == 0 and elapsed < 30.0,
        f"oracle equivalence on 64 four-vertex graphs (n=1..3) and 100 random "
        f"graphs up to 12 vertices (n=2..4): {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_acceptance_2_exact_bound_values():
    a = saturation_failure_bound(2, 2, 5)
    b = lifting_failure_bound(2, 2, 6)
    m = minimal_certified_m(2, 2)
    ok = a == Fraction(3, 4) and b == Fraction(28, 64) and m == 6
    report(
        2,
        ok,
        f"saturation bound(2,2,5)={a}, lifting bound(2,2,6)={b}, minimal certified m(2,2)={m}",
    )


def test_acceptance_3_certified_build_n2_depth4():
    start = time.perf_counter()
    t = new_tower_n2_depth4()
    rep = verify_tower(t)
    elapsed = time.perf_counter() - start
    sizes = [g.vertex_count for g in t.levels]
    report(
        3,
        rep.ok and elapsed < 60.0,
        f"n=2 depth-4 certified tower (seed 7) levels {sizes}, verified in {elapsed:.1f}s "
        f"(budget 60s); first failure: {rep.first_failure}",
    )


def new_tower_n2_depth4():
    from satgraph.towers import extend_tower, new_tower

    t = new_tower(2, seed=7)
    for _ in range(4):
        t = extend_tower(t, max_attempts=200)
    return t


def test_acceptance_4_certified_build_n3_depth2(tower_n3_depth2):
    start = time.perf_counter()
    rep = verify_tower(tower_n3_depth2.tower)
    elapsed = tower_n3_depth2.build_seconds + (time.perf_counter() - start)
    sizes = [g.vertex_count for g in tower_n3_depth2.tower.levels]
    report(
        4,
        rep.ok and elapsed < 600.0,
        f"n=3 depth-2 certified tower (seed 7) levels {sizes}, built+verified in "
        f"{elapsed:.1f}s (budget 600s); first failure: {rep.first_failure}",
    )


def test_acceptance_5_certified_build_n4_single_extension():
    start = time.perf_counter()
    base = FiniteGraph.complete(4)
    g, attempts = build_extension(4, base, seed=7, max_attempts=100)
    t = Tower(4, 7, (base, g), (g.vertex_count // 4 - 1,))
    rep = verify_tower(t)
    elapsed = time.perf_counter() - start
    report(
        5,
        rep.ok and elapsed < 900.0 and 500 <= g.vertex_count <= 800,
        f"n=4 single certified extension: {g.vertex_count} vertices, attempts={attempts}, "
        f"exhaustive 4-saturation and lifting verified in {elapsed:.1f}s (budget 900s)",
    )


def test_acceptance_6_realization_soundness(tower_n3_depth2):
    t = tower_n3_depth2.tower
    rng = np.random.default_rng(2024)
    failures = 0
    runs = 0
    while runs < 100:
        size = int(rng.integers(0, 3))
        threads = [random_thread(t, int(rng.integers(0, 2**32))) for _ in range(size)]
        if len({th.entries for th in threads}) != size:
            continue
        constraints = [(th, int(rng.integers(0, 2))) for th in threads]
        handle = realize_type(t, constraints)
        ok, why = check_realization(t, handle)
        if not ok:
            failures += 1
        runs += 1
    report(
        6,
        failures == 0,
        f"100 seeded realizations on the n=3 depth-2 tower, independent level-wise "
        f"verifier failures: {failures}",
    )


def test_acceptance_7_monte_carlo_vs_bound(capsys):
    code = main(
        ["stats", "--n", "2", "--k", "2", "--m-from", "6", "--m-to", "6",
         "--trials", "2000", "--seed", "0"]
    )
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        joint = float(row[3])
        floor = 1 - float(Fraction(row[4]) + Fraction(row[6]))
        ok = joint >= floor and abs(floor - 0.125) < 1e-12
        report(
            7,
            ok,
            f"n=2 k=2 m=6, 2000 trials: joint success rate {joint:.4f} >= certified floor "
            f"{floor:.4f}; rate above 0.5: {joint > 0.5} (informational)",
        )


def test_acceptance_8_determinism_and_round_trip(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        assert main(["build", "--n", "2", "--depth", "1", "--seed", "5", "--out", str(p)]) == EXIT_OK
    byte_identical = p1.read_bytes() == p2.read_bytes()

    tower = load_tower(str(p1))
    text = encode_tower(tower)
    round_trip = encode_tower(decode_tower(text)) == text

    # deleting any single edge from the stored tower must be caught
    top = tower.levels[1]
    edges = top.edges()
    caught = 0
    mpath = tmp_path / "m.json"
    for dropped in edges:
        mutated_top = FiniteGraph.from_edges(top.vertex_count, [e for e in edges if e != dropped])
        mutated = Tower(
            tower.n,
            tower.seed,
            (tower.levels[0], mutated_top),
            tower.per_level_m,
        )
        save_tower(mutated, str(mpath))
        if main(["verify", "--in", str(mpath)]) == EXIT_VERIFY:
            caught += 1
    capsys.readouterr()
    with capsys.disabled():
        report(
            8,
            byte_identical and round_trip and caught == len(edges),
            f"byte-identical rebuilds: {byte_identical}; encode/decode/encode byte-identical: "
            f"{round_trip}; {caught}/{len(edges)} single-edge deletions caught by verify",
        )


def test_acceptance_9_sampling_invariants():
    bases = [
        FiniteGraph.complete(2),
        FiniteGraph.complete(3),
        FiniteGraph.cycle(5),
        FiniteGraph.from_edges(3, [(0, 1)]),
    ]
    violations = 0
    seeds = 0
    for seed in range(100):
        base = bases[seed % len(bases)]
        m = 1 + seed % 3
        g = sample_product_graph(base, m, seed=seed)
        copies = m + 1
        k = base.vertex_count
        ok = True
        # copy 0 mirrors the base; non-adjacent fibers stay non-adjacent
        for i in range(k):
            for j in range(k):
                if g.adjacent(i * copies, j * copies) != base.adjacent(i, j):
                    ok = False
                if not base.adjacent(i, j):
                    for s in range(copies):
                        for tcopy in range(copies):
                            if g.adjacent(i * copies + s, j * copies + tcopy):
                                ok = False
        # reflexivity and symmetry
        for u in range(g.vertex_count):
            if not g.adjacent(u, u):
                ok = False
        for u in range(g.vertex_count):
            for w in range(u + 1, g.vertex_count):
                if g.adjacent(u, w) != g.adjacent(w, u):
                    ok = False
        if not is_quotient_map(division_map(g, base, m)):
            ok = False
        violations += not ok
        seeds += 1
    report(
        9,
        violations == 0 and seeds == 100,
        f"100 seeded samples: structural conditions and quotient projection, "
        f"{violations} violations",
    )
