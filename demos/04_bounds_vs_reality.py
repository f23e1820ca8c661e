#!/usr/bin/env python3
"""How loose are the certified bounds?  Monte Carlo against exact rationals.

The union bounds guarantee a positive acceptance rate once they drop below
1, but they count failure events with heavy multiplicity.  Sampling shows
the real acceptance rate is far higher, which is why uncertified (smaller)
copy counts often work in practice; correctness never depends on that,
because every accepted sample is verified exhaustively.
"""

import numpy as np

from satgraph import (
    FiniteGraph,
    check_product_lifting,
    is_n_saturated,
    lifting_failure_bound,
    sample_product_graph,
    saturation_failure_bound,
)

TRIALS = 400
base = FiniteGraph.complete(2)

print(f"n=2 over K_2, {TRIALS} seeded samples per row")
print(f"{'m':>3} {'empirical ok':>13} {'certified floor':>16} {'bound says':>12}")
for m in range(3, 9):
    ok = 0
    for trial in range(TRIALS):
        seed = np.random.SeedSequence(entropy=0, spawn_key=(m, trial))
        g = sample_product_graph(base, m, seed)
        if is_n_saturated(g, 2).holds and check_product_lifting(g, base, m, 2).holds:
            ok += 1
    bound = saturation_failure_bound(2, 2, m) + lifting_failure_bound(2, 2, m)
    floor = max(0.0, 1.0 - float(bound))
    verdict = "certified" if bound < 1 else "uncertified"
    print(f"{m:>3} {ok / TRIALS:>13.3f} {floor:>16.3f} {verdict:>12}")

print()
print("The empirical rate climbs toward 1 well before the analytic floor")
print("leaves 0: the certificate is conservative, never wrong.")
