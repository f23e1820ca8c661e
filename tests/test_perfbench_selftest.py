"""The benchmark harness still runs against the library.

``perfbench/child.py`` wraps satgraph module attributes by name and reads
each bond's ``image`` and the count of ``Tower.bonds``, which stays as a
tuple of private one-field records for that alone; a rename there shows up
here instead of at benchmark time.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
