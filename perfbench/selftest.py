"""Self-test of the benchmark harness on a tiny tower (n=2, depth 2).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that a corrupted golden digest is counted as a failed operation and makes
the run exit non-zero, and that the traced run's spans nest.  Takes a few
seconds; exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracer import read_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TINY = ["--workload", "n2-depth2", "--seed", "7", "--seconds", "1"]


def run(*extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *TINY, *extra],
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run("--trace", str(trace))
        expect(code == 0 and result["correct"] and result["failed"] == 0,
               f"trace {trace}: exit 0 with every check passing")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"trace {trace}: the result line has exactly the four keys")
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(printed == wanted, f"trace {trace}: every {section} metric printed with its unit")

    spans = read_jsonl(str(OUT / "n2-depth2-tower7-seed7.spans.jsonl"))
    child_time = [0.0] * len(spans)
    nested = True
    for s in spans:
        if s["parent"] is not None:
            p = spans[s["parent"]]
            nested &= p["start"] <= s["start"] <= s["end"] <= p["end"]
            child_time[s["parent"]] += s["end"] - s["start"]
    expect(len(spans) > 0 and nested, f"{len(spans)} spans, each inside its parent")
    expect(all(s["end"] - s["start"] >= c for s, c in zip(spans, child_time)),
           "every self time is >= 0")

    golden = json.loads((HERE / "golden.json").read_text())
    digests = golden["n2-depth2"]["7"]["sha256"]
    digests[-1] = digests[-1][::-1]
    corrupt = OUT / "golden-corrupt.json"
    corrupt.write_text(json.dumps(golden))
    code, result = run("--trace", "0", "--golden", str(corrupt))
    corrupt.unlink()
    expect(code != 0 and not result["correct"] and result["failed"] >= 1,
           f"a corrupted golden digest fails the run ({result['failed']} of "
           f"{result['attempted']} operations failed, exit {code})")

    print("self-test " + ("passed" if not failures else f"FAILED: {len(failures)} checks"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
