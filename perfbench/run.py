"""Benchmark of satgraph's certified-tower pipeline, end to end and per layer.

One workload, in a fresh child process, result as the last stdout line:

    python3 perfbench/run.py --workload n2-depth3 --seed 7 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run (spans go to ``perfbench/out/``).  The
last line is ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 0 only when every check passed.

Every workload of BENCHMARK.json, untraced then traced, as one table:

    python3 perfbench/run.py [--seed 7] [--tower-seed 7] [--seconds 20] [--out FILE]

``--seed`` picks the realization inputs; the towers come from
``--tower-seed`` (default 7), whose golden outputs every run checks.
Re-record the golden outputs (tower seeds 7 and 11, every workload):

    python3 perfbench/run.py --record-golden
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
BASELINE = HERE / "baseline.json"
GOLDEN_SEEDS = (7, 11)
SETUP_PROBES = 8  # extra fresh interpreters timed per run, for a median set-up time
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A child process failed or printed no result."""


def spawn_child(args: list[str], timeout: float) -> tuple[dict, list[str], float]:
    """Run child.py; returns its last-line JSON, the lines before it, and its spawn time."""
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(OUT), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {exc.timeout:.0f} s: {' '.join(args)}") from exc
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(
            f"child exited {proc.returncode} without a result: {' '.join(args)}\n{proc.stderr}"
        ) from None
    if proc.returncode not in (0, 1) or proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        raise BenchError(f"child exited {proc.returncode}: {' '.join(args)}")
    return result, lines[:-1], spawned


def memory_guard(workload: str) -> None:
    """Refuse to start a workload whose recorded peak exceeds the available memory."""
    try:
        recorded = json.loads(BASELINE.read_text())["workloads"][workload]["untraced"]
        peak = recorded["metrics"]["peak_rss_mb"]["value"]
    except (OSError, KeyError, json.JSONDecodeError):
        return
    available = meminfo_mib()
    if available is not None and available < peak:
        raise BenchError(
            f"{workload} peaked at {peak:.0f} MiB when recorded, "
            f"but only {available:.0f} MiB are available; not starting it"
        )


def meminfo_mib():
    try:
        with open("/proc/meminfo", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    numpy = importlib.metadata.version("numpy")
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy,
        # _bits.row_popcounts uses np.bitwise_count, which numpy 2.0 added
        "numpy_has_bitwise_count": int(numpy.split(".")[0]) >= 2,
        "nproc": os.cpu_count(),
        "mem_available_mib": meminfo_mib(),
    }


def run_one(
    workload: str, seed: int, seconds: float, trace: int, golden: str, tower_seed: int
) -> tuple[dict, list[str]]:
    """One workload run plus the set-up probes; returns the result and the child's notes."""
    if not (ROOT / "src" / "satgraph" / "__init__.py").is_file():
        raise BenchError(f"satgraph sources not found under {ROOT / 'src'}")
    memory_guard(workload)
    began = time.monotonic()
    # Each set-up sample is rescaled like the child's timed samples, by the
    # calibration kernel that the child runs right after its set-up.
    setups, walls = [], []
    for _ in range(SETUP_PROBES):
        probe, _, spawned = spawn_child(["--setup-only"], 60.0)
        walls.append(probe["ready"] - spawned)
        setups.append(walls[-1] * probe["setup_scale"])
    args = ["--workload", workload, "--seed", str(seed), "--tower-seed", str(tower_seed),
            "--seconds", str(seconds), "--trace", str(trace), "--golden", golden]
    result, notes, spawned = spawn_child(args, RUN_LIMIT_S - (time.monotonic() - began))
    result["extras"]["setup_wall_s"] = walls
    if not trace:
        walls.append(result["ready"] - spawned)
        setups.append(walls[-1] * result["extras"]["setup_scale"])
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
    return result, notes


def run_single(args) -> int:
    result, notes = run_one(
        args.workload, args.seed, args.seconds, args.trace, args.golden, args.tower_seed
    )
    print("# env " + json.dumps(environment()))
    for line in notes:
        print(line)
    extras = result["extras"]
    print("# extras " + json.dumps({k: v for k, v in extras.items() if k != "tower"}))
    for message in extras["failures"]:
        print(f"# FAILED: {message}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def summary(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"env": environment(), "seed": args.seed, "tower_seed": args.tower_seed,
              "seconds": args.seconds, "workloads": {}}
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        plain, _ = run_one(name, args.seed, args.seconds, 0, args.golden, args.tower_seed)
        traced, notes = run_one(name, args.seed, args.seconds, 1, args.golden, args.tower_seed)
        report["workloads"][name] = {"untraced": plain, "traced": traced}
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        ok &= failed == 0
        m, layers = plain["metrics"], traced["metrics"]
        print(f"\n== {name}: {entry['why']}")
        for key, item in m.items():
            print(f"  {key:28s} {fmt(item['value']):>14s} {item['unit']}")
        verify = plain["extras"].get("verify_s")
        print(f"  {'verify_s':28s} {fmt(verify):>14s} {'s' if verify is not None else ''}")
        print(f"  {'error_rate':28s} {fmt(failed / attempted):>14s} "
              f"({failed}/{attempted} operations failed)")
        print(f"  samples: {plain['extras']['builds']} builds, {plain['extras']['realizations']} "
              f"realizations, {plain['extras']['round_trips']} round trips")
        overhead = layers["trace.build_s"]["value"] - plain["extras"]["wall"]["build_s"]
        print(f"  tracing overhead on wall-clock build_s: {overhead:+.4f} s")
        for key, item in layers.items():
            print(f"  {key:28s} {fmt(item['value']):>14s} {item['unit']}")
        rank = traced["extras"]["build_self_rank"]
        print("  build self time, largest first: " + ", ".join(rank[:4]))
        for line in notes:
            print("  " + line)
        for message in plain["extras"]["failures"] + traced["extras"]["failures"]:
            print(f"  FAILED: {message}")
    print("\n# env " + json.dumps(report["env"]))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def record_golden() -> int:
    golden = {}
    for name in WORKLOADS:
        for seed in GOLDEN_SEEDS:
            result, _ = run_one(name, 7, 0.0, 1, "", seed)
            if not result["correct"]:
                raise BenchError(f"{name} tower seed {seed} failed its checks; golden not recorded")
            golden.setdefault(name, {})[str(seed)] = result["extras"]["tower"]
            tower = result["extras"]["tower"]
            print(f"{name} tower seed {seed}: per_level_m {tower['per_level_m']}")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--tower-seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", default=str(GOLDEN), help="golden outputs; '' skips the check")
    ap.add_argument("--out", help="summary form: also write every result to this JSON file")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record_golden:
            return record_golden()
        if args.workload:
            return run_single(args)
        return summary(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
