"""Workload definitions shared by the launcher and the workload child.

Pure data: importing this module touches neither numpy nor satgraph, so the
launcher can validate arguments before any child process starts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One fixed certified-tower pipeline.

    A cycle builds the tower ``build_reps`` times (``new_tower`` plus ``depth``
    certified ``extend_tower`` calls), then runs ``realizations`` realizations
    with ``n - 1`` constraints each, with ``codec_reps`` save/load round
    trips of the tower truncated to ``codec_depth`` spread evenly among them.
    A traced run calls ``verify_tower`` after every build, so that the verify
    layers are measured on every workload; ``verify_untraced`` does so in
    untraced runs too, for the summary's ``verify_s``.  Why each workload is
    there is recorded beside its name in BENCHMARK.json.
    """

    name: str
    n: int
    depth: int
    build_reps: int
    realizations: int
    codec_depth: int
    codec_reps: int
    verify_untraced: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "n2-depth3",
            n=2,
            depth=3,
            build_reps=5,
            realizations=2000,
            codec_depth=3,
            codec_reps=1,
            verify_untraced=True,
        ),
        Workload(
            "n3-depth2",
            n=3,
            depth=2,
            build_reps=1,
            realizations=20000,
            codec_depth=1,
            codec_reps=100,
            verify_untraced=False,
        ),
        Workload(
            "n4-step",
            n=4,
            depth=1,
            build_reps=1,
            realizations=10000,
            codec_depth=1,
            codec_reps=10,
            verify_untraced=False,
        ),
        # Not in BENCHMARK.json: the tiny tower the harness self-test runs.
        Workload(
            "n2-depth2",
            n=2,
            depth=2,
            build_reps=2,
            realizations=200,
            codec_depth=2,
            codec_reps=2,
            verify_untraced=True,
        ),
    )
}
