"""One benchmark workload, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
                               [--tower-seed T] [--golden PATH] --out DIR
    python3 perfbench/child.py --setup-only --out DIR

The tower is built from ``--tower-seed`` (default 7; golden outputs exist
for 7 and 11), so the build does the same work in every run and is checked
bit for bit.  ``--seed`` derives every realization's constraint threads
and bits and the sampled checks.  The run repeats cycles (see ``workloads.Workload``) until
``--seconds`` have passed, at least once, calling only satgraph's public
API.  Every output is checked here, independently of the library where
that is cheap: golden digests, the product structure of each level,
sampled saturation, each realizer, and each file round trip.

The last stdout line is one JSON object: ``ready`` (the CLOCK_MONOTONIC
time of the first timed call, from which the launcher derives set-up
time), ``correct``, ``attempted``, ``failed``, ``metrics`` and ``extras``.
Untraced runs report reference seconds (see ``Clock``); ``setup_scale``, in
``extras`` or, with ``--setup-only``, beside ``ready``, rescales set-up
time the same way.  With ``--trace 1`` the layer boundaries are wrapped
(see ``TRACE_POINTS``) and ``metrics`` holds the per-layer figures, in wall
seconds, instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import satgraph  # noqa: E402
from satgraph import builder, serialize, towers  # noqa: E402
from tracer import Tracer, self_time_table  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

E2E_UNITS = {
    "build_s": "s",
    "realize_p50_us": "us",
    "realize_p99_us": "us",
    "save_s": "s",
    "load_s": "s",
    "peak_rss_mb": "MiB",
}

# Self times from the traced run's spans, per tower build, per realization or
# per round trip.  The ``computed`` counts are worked out here from (n, k, m),
# the attempts and the tower's bits, not read from the library, so they
# repeat exactly and can back a count claim.
LAYER_UNITS = {
    "builder.sample_s": "s",
    "builder.lifting_build_s": "s",
    "builder.lifting_verify_s": "s",
    "builder.bounds_s": "s",
    "builder.attempts": "count",
    "builder.accept_ratio": "ratio",
    "builder.computed_coins": "count",
    "builder.computed_packed_mb": "MiB",
    "graphs.saturation_build_s": "s",
    "graphs.saturation_verify_s": "s",
    "graphs.weak_saturation_s": "s",
    "graphs.computed_scan_passes": "count",
    "graphs.find_realizer_us": "us",
    "towers.extend_self_s": "s",
    "towers.verify_self_s": "s",
    "towers.random_thread_us": "us",
    "towers.realize_type_self_us": "us",
    "towers.check_realization_us": "us",
    "serialize.write_s": "s",
    "serialize.read_parse_s": "s",
    "serialize.tower_from_obj_s": "s",
    "serialize.computed_file_mb": "MiB",
    "trace.build_s": "s",
}

# (module, attribute, span name): the attribute is what the caller looks up,
# so e.g. saturation during a build and during verify_tower get their own spans.
TRACE_POINTS = (
    (towers, "extend_tower", "towers.extend"),
    (towers, "build_extension", "builder.build_extension"),
    (builder, "minimal_certified_m", "builder.bounds"),
    (builder, "is_weakly_n_saturated", "graphs.weak_saturation"),
    (builder, "sample_product_graph", "builder.sample"),
    (builder, "is_n_saturated", "graphs.saturation_build"),
    (builder, "check_product_lifting", "builder.lifting_build"),
    (towers, "verify_tower", "towers.verify"),
    (towers, "is_n_saturated", "graphs.saturation_verify"),
    (towers, "check_product_lifting", "builder.lifting_verify"),
    (towers, "random_thread", "towers.random_thread"),
    (towers, "realize_type", "towers.realize_type"),
    (towers, "find_realizer", "graphs.find_realizer"),
    (towers, "check_realization", "towers.check_realization"),
    (serialize, "save_tower", "serialize.save"),
    (serialize, "write_tower", "serialize.write"),
    (serialize, "load_tower", "serialize.load"),
    (serialize, "tower_from_obj", "serialize.tower_from_obj"),
)

MIB = float(1 << 20)


class Outcome:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


# -- independent checks ----------------------------------------------------------


def _unpack(rows: np.ndarray, v: int) -> np.ndarray:
    return np.unpackbits(rows.view(np.uint8), axis=-1, bitorder="little")[..., :v]


def _bits_at(rows: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (rows[u, v >> 6] >> (v & 63).astype(np.uint64)) & np.uint64(1)


def level_digests(t) -> list[str]:
    return [hashlib.sha256(g.packed_rows.tobytes()).hexdigest() for g in t.levels]


@functools.cache
def certified_m(n: int, k: int) -> int:
    """Smallest m whose two union bounds (saturation, lifting) sum below 1."""
    m = 1
    while True:
        sat = math.comb((m + 1) * k, n - 1) * 2 ** (n - 1) * (1 - Fraction(1, 2 ** (n - 1))) ** m
        lift = sum(k ** (p + 1) * (m + 1) ** p * (1 - Fraction(1, 2**p)) ** m for p in range(1, n))
        if sat + lift < 1:
            return m
        m += 1


def check_tower(t, wl: Workload, rng: np.random.Generator) -> list[str]:
    """Product structure of every step plus sampled saturation and symmetry."""
    problems = []
    if t.levels[0].vertex_count != wl.n or len(t.levels) != wl.depth + 1:
        problems.append("tower shape")
    for d, m in enumerate(t.per_level_m):
        lo, hi = t.levels[d], t.levels[d + 1]
        k, c, v = lo.vertex_count, m + 1, hi.vertex_count
        if m != certified_m(wl.n, k) or v != k * c:
            problems.append(f"step {d}: m={m} is not the certified choice")
            continue
        if not np.array_equal(t.bonds[d].image, np.arange(v) // c):
            problems.append(f"bond {d} is not the division map")
        base = _unpack(lo.packed_rows, k).astype(bool)
        copy0 = _unpack(hi.packed_rows[::c], v)[:, ::c].astype(bool)
        union = np.bitwise_or.reduce(hi.packed_rows.reshape(k, c, -1), axis=1)
        touched = _unpack(union, v).reshape(k, k, c).any(axis=2)
        if not np.array_equal(copy0, base):
            problems.append(f"level {d + 1}: copy 0 does not reproduce level {d}")
        if not np.array_equal(touched, base):
            problems.append(f"level {d + 1}: an edge joins fibers over non-adjacent vertices")
        idx = np.arange(v)
        if not _bits_at(hi.packed_rows, idx, idx).all():
            problems.append(f"level {d + 1}: a loop is missing")
        a, b = rng.integers(v, size=(2, 4096))
        if not np.array_equal(_bits_at(hi.packed_rows, a, b), _bits_at(hi.packed_rows, b, a)):
            problems.append(f"level {d + 1}: adjacency is not symmetric")
        if not spot_saturated(hi, wl.n, rng, 1024):
            problems.append(f"level {d + 1}: a sampled type has no realizer")
    return problems


def spot_saturated(g, n: int, rng: np.random.Generator, samples: int) -> bool:
    """Every sampled type over n-1 distinct vertices has a realizer outside them."""
    v, rows = g.vertex_count, g.packed_rows
    sub = rng.integers(v, size=(samples, n - 1))
    ordered = np.sort(sub, axis=1)
    sub = sub[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
    bits = rng.integers(2, size=sub.shape)
    picked = rows[sub]
    picked = np.where(bits[..., None] == 1, picked, ~picked)
    cand = np.bitwise_and.reduce(picked, axis=1)
    valid = np.zeros(rows.shape[1] * 64, dtype=np.uint8)
    valid[:v] = 1
    cand &= np.packbits(valid, bitorder="little").view(np.uint64)
    ar = np.arange(len(sub))
    for j in range(n - 1):
        cand[ar, sub[:, j] >> 6] &= ~(np.uint64(1) << (sub[:, j] & 63).astype(np.uint64))
    return bool(cand.any(axis=1).all())


def handle_ok(t, constraints, h) -> bool:
    """The realizer is a division-consistent thread of the right type."""
    e = h.prefix.entries
    if len(e) != t.depth + 1:
        return False
    if any(e[d + 1] // (t.per_level_m[d] + 1) != e[d] for d in range(t.depth)):
        return False
    if set(h.positive) != {p for p, bit in constraints if bit} or set(h.negative) != {
        p for p, bit in constraints if not bit
    }:
        return False
    s = h.separation_level
    for c in h.positive:
        if not all(t.levels[d].adjacent(e[d], c.entries[d]) for d in range(t.depth + 1)):
            return False
    if any(t.levels[s].adjacent(e[s], c.entries[s]) for c in h.negative):
        return False
    return e[s] not in {c.entries[s] for c in h.positive + h.negative}


def _digits(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    out = np.ones(x.shape, dtype=np.int64)
    p = 10
    while x.size and p <= x.max():
        out += x >= p
        p *= 10
    return out


def encoded_bytes(t) -> int:
    """Length of the canonical tower file, computed from the levels' bits."""
    total = len(f'{{"n":{t.n},"seed":{t.seed},"levels":[') + len(t.levels) - 1
    for g in t.levels:
        v = g.vertex_count
        d = _digits(np.arange(v))
        edges = text = 0
        for r0 in range(0, v, 512):
            r1 = min(v, r0 + 512)
            upper = _unpack(g.packed_rows[r0:r1], v).astype(np.int64)
            upper[np.arange(v)[None, :] <= np.arange(r0, r1)[:, None]] = 0
            per_row = upper.sum(axis=1)
            edges += int(per_row.sum())
            text += int(per_row @ d[r0:r1] + upper.sum(axis=0) @ d + 3 * per_row.sum())
        total += len(f'{{"v":{v},"edges":[') + text + max(edges - 1, 0) + len("]}")
    total += len('],"bonds":[') + max(len(t.bonds) - 1, 0)
    for m, g in zip(t.per_level_m, t.levels[1:]):
        total += 2 + int(_digits(np.arange(g.vertex_count) // (m + 1)).sum()) + g.vertex_count - 1
    total += len('],"per_level_m":[') + len(",".join(map(str, t.per_level_m))) + len("]}\n")
    return total


def computed_counts(t, n: int, attempts: list[int]) -> dict:
    """Coins, packed bytes and scan passes from (n, k, m) and the attempt counts."""
    coins = passes = 0
    for d, m in enumerate(t.per_level_m):
        lo, c = t.levels[d], m + 1
        k, v = lo.vertex_count, lo.vertex_count * c
        cross_edges = (int(_unpack(lo.packed_rows, k).sum()) - k) // 2
        coins += attempts[d] * (k * c * (c - 1) // 2 + cross_edges * (c * c - 1))
        passes += attempts[d] * math.comb(v, n - 2) * 2 ** (n - 2) * 2
    v = t.levels[-1].vertex_count
    return {
        "builder.computed_coins": coins,
        "builder.computed_packed_mb": v * ((v + 63) // 64) * 8 / MIB,
        "graphs.computed_scan_passes": passes,
    }


# -- the workload ------------------------------------------------------------------


def build(wl: Workload, seed: int):
    t = towers.new_tower(wl.n, seed)
    for _ in range(wl.depth):
        t = towers.extend_tower(t)
    return t


def draw_constraints(t, n: int, rng: np.random.Generator):
    threads: list = []
    while len(threads) < n - 1:
        p = towers.random_thread(t, int(rng.integers(2**63)))
        if p not in threads:  # identical threads can never be separated
            threads.append(p)
    return list(zip(threads, rng.integers(2, size=n - 1).tolist()))


def step_attempts(tracer: Tracer, run: str) -> list[int]:
    """Samples drawn inside each build_extension span of one build."""
    steps = [
        i for i, s in enumerate(tracer.spans)
        if s[4] == run and s[0] == "builder.build_extension"
    ]
    return [
        sum(1 for s in tracer.spans if s[3] == i and s[0] == "builder.sample") for i in steps
    ]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def blocked_p99(values: list[float], block: int = 1000) -> float:
    """Median over blocks of ``block`` consecutive samples of each block's p99.

    A burst of load on the machine then moves one block's tail, not the
    figure; a change that slows the slowest realizations moves every block.
    """
    starts = range(0, max(len(values) - block, 0) + 1, block)  # a short last block is left out
    return statistics.median(percentile(sorted(values[i : i + block]), 0.99) for i in starts)


# On the shared 2-vCPU virtual machine where these constants were measured,
# the same code ran up to 50-80% slower in phases lasting seconds to minutes
# (from run to run, the interquartile range of plain wall times reached
# 0.15-0.7 of the median).  Every timed sample is therefore rescaled by a
# fixed calibration kernel that a timer runs every CALIBRATION_INTERVAL_S,
# inside the samples as well as between them: reference seconds = wall
# seconds less the calibrations inside the sample, times the mean of
# REFERENCE_KERNEL_S / kernel seconds over the calibrations inside it and
# the one on either side.  The kernel runs no satgraph code, so a change to
# satgraph moves the rescaled times as it moves wall time at constant
# machine speed.
REFERENCE_KERNEL_S = 0.0026  # the kernel's time on that machine when it runs fast
CALIBRATION_INTERVAL_S = 0.1
_KERNEL_WORDS = np.random.default_rng(0).integers(0, 2**63, size=(64, 512), dtype=np.uint64)
_KERNEL_ROWS = _KERNEL_WORDS[:, :160].copy()
_KERNEL_PAIRS = [[i, 7 * i] for i in range(1000)]
_KERNEL_DOC = json.dumps({f"k{i}": [i, str(i), {"a": i * 1.5, "b": [i] * 3}] for i in range(200)})


def kernel_seconds() -> float:
    """Median of three runs of a fixed mix like the timed code's: numpy bit
    operations on large arrays and on single rows, a Python loop, formatting
    pairs as text, and a JSON round trip.

    The single-row part is there because numpy's per-call overhead, which
    dominates the realizations, slowed down more than the rest of the mix
    in the slow phases."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        x = int(np.bitwise_count(_KERNEL_WORDS & _KERNEL_WORDS[::-1]).sum())
        x += int(np.unpackbits(_KERNEL_WORDS.view(np.uint8)).sum())
        for i in range(150):
            x += int((_KERNEL_ROWS[i & 63] & _KERNEL_ROWS[(i * 7) & 63]).any())
        for i in range(2000):
            x ^= i * 3
        text = ",".join(f"[{a},{b}]" for a, b in _KERNEL_PAIRS)
        doc = json.loads(_KERNEL_DOC)
        x += len(text) + len(json.dumps(doc))
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Timed samples, in wall seconds and in reference seconds.

    With ``calibrate`` a SIGALRM timer runs the kernel every
    CALIBRATION_INTERVAL_S until ``stop``; every sample gets the same
    rescaling, whatever its length.  Without it (the traced run, whose spans
    must not contain kernel time) there are wall seconds only.
    """

    def __init__(self, calibrate: bool) -> None:
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.marks: list[tuple[float, float, float]] = []  # start, end, kernel seconds
        self._starts: list[float] = []
        if calibrate:
            self._calibrate()
            signal.signal(signal.SIGALRM, self._calibrate)
            signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)

    def _calibrate(self, *_) -> None:
        start = perf_counter()
        kernel = kernel_seconds()
        self.marks.append((start, perf_counter(), kernel))

    def add(self, name: str, start: float) -> None:
        self.samples[name].append((start, perf_counter()))

    def stop(self) -> None:
        if self.marks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._calibrate()
        self._starts = [m[0] for m in self.marks]

    def _split(self, start: float, end: float) -> tuple[float, list]:
        """Wall seconds less the calibrations inside, and the calibrations around."""
        i, j = bisect_right(self._starts, start), bisect_left(self._starts, end)
        busy = end - start - sum(e - s for s, e, _ in self.marks[i:j])
        return busy, self.marks[max(i - 1, 0) : j + 1]

    def wall(self, name: str) -> list[float]:
        return [self._split(s, e)[0] for s, e in self.samples[name]]

    def reference(self, name: str) -> list[float]:
        out = []
        for s, e in self.samples[name]:
            busy, around = self._split(s, e)
            out.append(busy * statistics.fmean(REFERENCE_KERNEL_S / k for _, _, k in around))
        return out


def run_workload(wl, tower_seed, seed, seconds, tracer, golden, tmp, ready) -> dict:
    out = Outcome()
    rng = np.random.default_rng([seed, 0])
    clock = Clock(calibrate=tracer is None)
    verify = wl.verify_untraced or tracer is not None
    first = None
    cycle = 0

    def mark(run: str) -> None:
        if tracer is not None:
            tracer.run = run

    def realize(i: int) -> None:
        mark(f"realize{cycle}.{i}")
        t0 = perf_counter()
        try:
            cons = draw_constraints(t, wl.n, realize_rng)
            h = towers.realize_type(t, cons)
            ok, why = towers.check_realization(t, h)
        except (ValueError, RuntimeError) as exc:
            out.check(False, f"realization {i}: {exc!r}")
            return
        clock.add("realize", t0)
        mark("check")
        out.check(ok and handle_ok(t, cons, h), f"realization {i}: {why or 'wrong realizer'}")

    def round_trip(r: int) -> None:
        mark(f"codec{cycle}.{r}")
        t0 = perf_counter()
        serialize.save_tower(saved, path)
        clock.add("save", t0)
        t0 = perf_counter()
        loaded = serialize.load_tower(path)
        clock.add("load", t0)
        mark("check")
        size = os.path.getsize(path)
        os.remove(path)
        out.check(
            loaded == saved and size == expected_size,
            f"codec: round trip differs or {size} != computed {expected_size} bytes",
        )

    while True:
        for b in range(wl.build_reps):
            run = f"build{cycle}.{b}"
            mark(run)
            t0 = perf_counter()
            t = build(wl, tower_seed)
            clock.add("build", t0)
            out.attempted += wl.depth  # one operation per extension step
            mark("check")
            summary = {"per_level_m": list(t.per_level_m), "sha256": level_digests(t)}
            if tracer is not None:
                summary["attempts"] = step_attempts(tracer, run)
            if golden is not None:
                for key, want in golden.items():
                    if key in summary:
                        out.check(summary[key] == want, f"{run}: {key} differs from golden")
            elif first is not None:
                out.check(summary == first, f"{run}: rebuild differs from the first build")
            first = first or summary
            problems = check_tower(t, wl, rng)
            out.check(not problems, f"{run}: " + "; ".join(problems))
            if verify:
                mark(f"verify{cycle}.{b}")
                t0 = perf_counter()
                report = towers.verify_tower(t)
                clock.add("verify", t0)
                out.check(report.ok, f"verify_tower: {report.first_failure}")

        # The round trips are spread through the realizations, so that both
        # are sampled across the whole of the run.
        realize_rng = np.random.default_rng([seed, cycle + 1])
        saved = t.truncated(wl.codec_depth)
        expected_size = encoded_bytes(saved)
        path = os.path.join(tmp, "tower.json")
        per_trip = wl.realizations // wl.codec_reps
        for r in range(wl.codec_reps):
            for i in range(r * per_trip, (r + 1) * per_trip):
                realize(i)
            round_trip(r)
        cycle += 1
        if time.monotonic() - ready >= seconds:
            break
    clock.stop()

    def summarize(times: dict[str, list[float]]) -> dict:
        return {
            "build_s": statistics.median(times["build"]),
            "realize_p50_us": statistics.median(times["realize"]) * 1e6,
            "realize_p99_us": blocked_p99(times["realize"]) * 1e6,
            "save_s": statistics.median(times["save"]),
            "load_s": statistics.median(times["load"]),
            **({"verify_s": statistics.median(times["verify"])} if times["verify"] else {}),
        }

    wall = {name: clock.wall(name) for name in ("build", "verify", "realize", "save", "load")}
    extras = {
        "cycles": cycle,
        "builds": len(wall["build"]),
        "realizations": len(wall["realize"]),
        "round_trips": len(wall["save"]),
        "file_bytes": expected_size,
        "wall": summarize(wall),
        "tower": first,
        "failures": out.messages,
    }
    result = {"outcome": out, "extras": extras}
    if tracer is None:
        reference = summarize({name: clock.reference(name) for name in wall})
        extras["verify_s"] = reference.pop("verify_s", None)
        reference["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["e2e"] = reference
        extras["setup_scale"] = REFERENCE_KERNEL_S / clock.marks[0][2]
        extras["kernel_s"] = statistics.median(k for _, _, k in clock.marks)
        extras["calibrations"] = len(clock.marks)
    else:
        result["layers"] = layer_metrics(
            tracer, wl, t, first["attempts"], wall["build"], expected_size
        )
    return result


def layer_metrics(tracer, wl, t, attempts, build_s, file_bytes) -> dict:
    per_run: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, _, _, _, run), own in zip(tracer.spans, tracer.self_times()):
        per_run[run][name] += own

    def median_of(prefix: str, name: str) -> float:
        return statistics.median(v[name] for r, v in per_run.items() if r.startswith(prefix))

    def mean_us(name: str) -> float:
        runs = [v[name] for r, v in per_run.items() if r.startswith("realize")]
        return sum(runs) / len(runs) * 1e6

    metrics = {
        "builder.sample_s": median_of("build", "builder.sample"),
        "builder.lifting_build_s": median_of("build", "builder.lifting_build"),
        "builder.lifting_verify_s": median_of("verify", "builder.lifting_verify"),
        "builder.bounds_s": median_of("build", "builder.bounds"),
        "builder.attempts": sum(attempts),
        "builder.accept_ratio": wl.depth / sum(attempts),
        "graphs.saturation_build_s": median_of("build", "graphs.saturation_build"),
        "graphs.saturation_verify_s": median_of("verify", "graphs.saturation_verify"),
        "graphs.weak_saturation_s": median_of("build", "graphs.weak_saturation"),
        "graphs.find_realizer_us": mean_us("graphs.find_realizer"),
        "towers.extend_self_s": median_of("build", "towers.extend"),
        "towers.verify_self_s": median_of("verify", "towers.verify"),
        "towers.random_thread_us": mean_us("towers.random_thread"),
        "towers.realize_type_self_us": mean_us("towers.realize_type"),
        "towers.check_realization_us": mean_us("towers.check_realization"),
        "serialize.write_s": median_of("codec", "serialize.write"),
        "serialize.read_parse_s": median_of("codec", "serialize.load"),
        "serialize.tower_from_obj_s": median_of("codec", "serialize.tower_from_obj"),
        "serialize.computed_file_mb": file_bytes / MIB,
        "trace.build_s": statistics.median(build_s),
    }
    metrics.update(computed_counts(t, wl.n, attempts))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--tower-seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", default=str(HERE / "golden.json"),
                    help="golden outputs file; empty string skips the comparison")
    ap.add_argument("--out", required=True, help="directory for temp files and traces")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not Path(satgraph.__file__).resolve().is_relative_to(SRC):
        print(f"satgraph imported from {satgraph.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=args.out)
    # One CPU for the whole run, so that each calibration kernel runs where
    # the samples it rescales ran: on a shared virtual machine the vCPUs slow
    # down independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_only:
        ready = time.monotonic()
        os.rmdir(tmp)
        scale = REFERENCE_KERNEL_S / kernel_seconds()
        print(json.dumps({"ready": ready, "setup_scale": scale}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    wl = WORKLOADS[args.workload]
    golden = None
    if args.golden:
        with open(args.golden, encoding="utf-8") as fp:
            golden = json.load(fp).get(wl.name, {}).get(str(args.tower_seed))
    tracer = None
    if args.trace:
        tracer = Tracer()
        for module, attr, name in TRACE_POINTS:
            tracer.wrap(module, attr, name)

    ready = time.monotonic()
    try:
        result = run_workload(
            wl, args.tower_seed, args.seed, args.seconds, tracer, golden, tmp, ready
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tracer is not None:
            tracer.restore()

    out, extras = result["outcome"], result["extras"]
    if tracer is not None:
        stem = os.path.join(args.out, f"{wl.name}-tower{args.tower_seed}-seed{args.seed}")
        tracer.write_jsonl(stem + ".spans.jsonl")
        errors = tracer.nesting_errors()
        out.check(not errors, "span nesting: " + "; ".join(errors[:3]))
        table = self_time_table(tracer)
        title = f"{wl.name} tower {args.tower_seed} seed {args.seed}"
        lines = [f"# self time by span, {title} (traced)"]
        lines += [f"#   {name:28s} {calls:7d} calls {own:10.4f} s" for name, calls, own in table]
        with open(stem + ".selftime.txt", "w", encoding="ascii") as fp:
            fp.write("\n".join(lines) + "\n")
        print("\n".join(lines))
        extras["build_self_rank"] = [name for name, _, _ in self_time_table(tracer, "build")]
        extras["spans"] = len(tracer.spans)
        metrics, units = result["layers"], LAYER_UNITS
    else:
        metrics, units = result["e2e"], E2E_UNITS
    print(json.dumps({
        "ready": ready,
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "extras": extras,
    }))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
