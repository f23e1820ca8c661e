"""Command-line front end.

Exit codes: 0 success, 1 invariant or verification failure, 2 malformed
input, 3 build exhaustion, 4 usage error.  All outputs are deterministic
given identical arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

import numpy as np

from .builder import (
    AttemptsExhausted,
    check_product_lifting,
    lifting_failure_bound,
    sample_product_graph,
    saturation_failure_bound,
)
from .graphs import FiniteGraph, is_n_saturated
from .serialize import FormatError, level_to_dot, load_tower, save_tower
from .towers import (
    NotSeparated,
    ThreadPrefix,
    Tower,
    canonical_thread,
    canonical_extension,
    check_realization,
    extend_tower,
    new_tower,
    realize_type,
    rebuild_tower,
    verify_tower,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_MALFORMED = 2
EXIT_EXHAUSTED = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep our taxonomy
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="satgraph", description="Build, verify and explore saturated graph towers.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build", help="build a tower and write its canonical file")
    p.add_argument("--n", type=int, required=True, help="saturation target")
    p.add_argument("--depth", type=int, required=True, help="number of extension steps")
    p.add_argument("--seed", type=int, default=0, help="64-bit base seed")
    p.add_argument("--m", type=int, default=None, help="copies per step (default: certified)")
    p.add_argument("--max-attempts", type=int, default=64)
    p.add_argument("--out", required=True, help="output tower file")

    p = sub.add_parser("extend", help="extend a stored tower to a deeper target")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--depth", type=int, required=True, help="target depth")
    p.add_argument("--m", type=int, default=None, help="copies per step (default: certified)")
    p.add_argument("--max-attempts", type=int, default=64)

    p = sub.add_parser("verify", help="re-verify all invariants of a stored tower")
    p.add_argument("--in", dest="input", required=True)

    p = sub.add_parser("realize", help="realize a 0/1 type over constraint threads")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--type", dest="payload", required=True, help="JSON constraints payload")
    p.add_argument("--depth", type=int, default=None, help="truncate the tower first")
    p.add_argument("--check", action="store_true", help="re-verify the realization level-wise")

    p = sub.add_parser("stats", help="empirical success rates vs the exact bounds (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="base is the complete graph on k vertices")
    p.add_argument("--m-from", dest="m_from", type=int, required=True)
    p.add_argument("--m-to", dest="m_to", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export", help="emit one level as graph-description text")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=["dot"], default="dot")

    return parser


# -- commands --------------------------------------------------------------------


def _cmd_build(args) -> int:
    if args.n < 1 or args.depth < 0:
        raise UsageError("need --n >= 1 and --depth >= 0")
    tower = new_tower(args.n, args.seed)
    for _ in range(args.depth):
        tower = extend_tower(tower, args.m, args.max_attempts)
    save_tower(tower, args.out)
    sizes = ",".join(str(g.vertex_count) for g in tower.levels)
    print(f"built n={args.n} depth={tower.depth} levels=[{sizes}] -> {args.out}")
    return EXIT_OK


def _cmd_extend(args) -> int:
    tower = load_tower(args.input)
    if args.depth <= tower.depth:
        raise UsageError(f"target depth {args.depth} not beyond current depth {tower.depth}")
    while tower.depth < args.depth:
        tower = extend_tower(tower, args.m, args.max_attempts)
    save_tower(tower, args.out)
    print(f"extended to depth {tower.depth} -> {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    tower = load_tower(args.input)
    report = verify_tower(tower)
    for name, ok, detail in report.checks:
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{'ok' if ok else 'FAIL'} {name}{suffix}")
    if not report.ok:
        print(f"verification failed: {report.first_failure}")
        return EXIT_VERIFY
    try:
        replay = rebuild_tower(tower.n, tower.seed, tower.per_level_m)
    except AttemptsExhausted:
        print("verification failed: seeded reconstruction did not terminate")
        return EXIT_VERIFY
    if replay != tower:
        print("verification failed: stored tower differs from its seeded reconstruction")
        return EXIT_VERIFY
    print("ok seed-reconstruction")
    print("tower verified")
    return EXIT_OK


def _parse_constraints(payload: Any, tower: Tower) -> list[tuple[ThreadPrefix, int]]:
    if not isinstance(payload, dict) or set(payload.keys()) != {"constraints"}:
        raise FormatError('payload must be an object with the single key "constraints"')
    items = payload["constraints"]
    if not isinstance(items, list):
        raise FormatError("constraints must be a list")
    if len(items) > tower.n - 1:
        raise FormatError(f"at most n-1 = {tower.n - 1} constraints allowed, got {len(items)}")
    out: list[tuple[ThreadPrefix, int]] = []
    for item in items:
        if not isinstance(item, dict) or "bit" not in item:
            raise FormatError('each constraint needs a "bit" and a thread')
        bit = item["bit"]
        if bit not in (0, 1) or isinstance(bit, bool):
            raise FormatError("constraint bits must be 0 or 1")
        keys = set(item.keys()) - {"bit"}
        try:
            if keys == {"entries"}:
                entries = item["entries"]
                if not isinstance(entries, list) or not all(
                    isinstance(x, int) and not isinstance(x, bool) for x in entries
                ):
                    raise FormatError("entries must be a list of integers")
                thread = canonical_extension(tower, ThreadPrefix(tuple(entries)), tower.depth)
            elif keys == {"level", "vertex"}:
                level, vertex = item["level"], item["vertex"]
                if not all(isinstance(x, int) and not isinstance(x, bool) for x in (level, vertex)):
                    raise FormatError("level and vertex must be integers")
                thread = canonical_thread(tower, level, vertex)
            else:
                raise FormatError(
                    'a thread is given either as {"entries": [...]} or as '
                    '{"level": L, "vertex": V}'
                )
        except ValueError as exc:
            raise FormatError(f"invalid constraint thread: {exc}") from exc
        out.append((thread, bit))
    return out


def _cmd_realize(args) -> int:
    tower = load_tower(args.input)
    if args.depth is not None:
        if not 0 <= args.depth <= tower.depth:
            raise UsageError("requested depth exceeds the stored tower")
        tower = tower.truncated(args.depth)
    try:
        with open(args.payload, "r", encoding="ascii") as fp:
            payload = json.load(fp)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read type payload: {exc}") from exc
    constraints = _parse_constraints(payload, tower)
    try:
        handle = realize_type(tower, constraints)
    except NotSeparated as exc:
        print(f"not separated: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    print(
        json.dumps(
            {
                "entries": list(handle.prefix.entries),
                "separation_level": handle.separation_level,
            },
            separators=(",", ":"),
        )
    )
    if args.check:
        ok, why = check_realization(tower, handle)
        if not ok:
            print(f"realization check failed: {why}", file=sys.stderr)
            return EXIT_VERIFY
        print("realization verified", file=sys.stderr)
    return EXIT_OK


def _cmd_stats(args) -> int:
    if args.n < 1 or args.k < args.n:
        raise UsageError("need --n >= 1 and --k >= --n")
    if args.m_from < 1 or args.m_to < args.m_from:
        raise UsageError("need 1 <= --m-from <= --m-to")
    if args.trials < 1:
        raise UsageError("need --trials >= 1")
    base = FiniteGraph.complete(args.k)
    print(
        "m,trials,saturated_rate,joint_rate,"
        "saturation_bound,saturation_bound_float,lifting_bound,lifting_bound_float"
    )
    for m in range(args.m_from, args.m_to + 1):
        saturated = joint = 0
        for trial in range(args.trials):
            ss = np.random.SeedSequence(entropy=args.seed, spawn_key=(m, trial))
            g = sample_product_graph(base, m, ss)
            sat = is_n_saturated(g, args.n).holds
            saturated += sat
            joint += sat and check_product_lifting(g, base, m, args.n).holds
        sat_bound = saturation_failure_bound(args.n, args.k, m)
        lift_bound = lifting_failure_bound(args.n, args.k, m)
        print(
            f"{m},{args.trials},{saturated / args.trials:.6f},{joint / args.trials:.6f},"
            f"{sat_bound},{float(sat_bound):.6g},{lift_bound},{float(lift_bound):.6g}"
        )
    return EXIT_OK


def _cmd_export(args) -> int:
    tower = load_tower(args.input)
    if not 0 <= args.level <= tower.depth:
        raise UsageError(f"level {args.level} out of range for depth {tower.depth}")
    sys.stdout.write(level_to_dot(tower, args.level))
    return EXIT_OK


_DISPATCH = {
    "build": _cmd_build,
    "extend": _cmd_extend,
    "verify": _cmd_verify,
    "realize": _cmd_realize,
    "stats": _cmd_stats,
    "export": _cmd_export,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except AttemptsExhausted as exc:
        print(f"build exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def console_main() -> int:
    return main()


if __name__ == "__main__":
    raise SystemExit(main())
