#!/usr/bin/env python3
"""One certified extension step: exact bounds, rejection sampling, verification.

The product construction over a weakly n-saturated base keeps the base as
copy 0, forbids edges between fibers over non-adjacent base vertices, and
flips a fair coin for every other pair.  Exact rational union bounds on the
two failure modes (missing a type, missing a common fiber neighbour) tell
us how many copies make the combined bound drop below 1, at which point
rejection sampling is certified to succeed with positive probability per
attempt.  The accepted sample is verified exhaustively either way.
"""

from fractions import Fraction

from satgraph import (
    FiniteGraph,
    build_extension,
    check_product_lifting,
    is_n_saturated,
    lifting_failure_bound,
    minimal_certified_m,
    saturation_failure_bound,
)

print("=" * 70)
print("Exact failure bounds for n=2 over the two-vertex complete base")
print("=" * 70)
print(f"{'m':>3} {'saturation bound':>20} {'lifting bound':>16} {'combined':>12}")
for m in range(3, 9):
    a = saturation_failure_bound(2, 2, m)
    b = lifting_failure_bound(2, 2, m)
    marker = "  <-- first below 1" if a + b < 1 and m == minimal_certified_m(2, 2) else ""
    print(f"{m:>3} {str(a):>20} {str(b):>16} {str(a + b):>12}{marker}")

print()
for n, k in [(2, 2), (3, 3), (4, 4)]:
    m = minimal_certified_m(n, k)
    print(f"minimal certified m for n={n} over K_{k}: m={m} "
          f"(graph on {k * (m + 1)} vertices)")

print()
print("=" * 70)
print("A certified 3-saturated extension of K_3")
print("=" * 70)

base = FiniteGraph.complete(3)
graph, attempts = build_extension(3, base, seed=11)
m = graph.vertex_count // 3 - 1
print(f"sampled graph: {graph} (m={m}, attempts={attempts})")
print(f"exhaustively 3-saturated: {is_n_saturated(graph, 3).holds}")
print(f"fiber lifting guarantee:  {check_product_lifting(graph, base, 3).holds}")
print(f"division bond v -> v // {m + 1} maps {graph.vertex_count} vertices onto "
      f"{base.vertex_count} fibers")

combined = saturation_failure_bound(3, 3, m) + lifting_failure_bound(3, 3, m)
print(f"certified failure bound at this m: {float(combined):.4f} "
      f"(so expected attempts <= {float(1 / (1 - combined)):.1f})")
