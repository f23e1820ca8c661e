"""Towers of finite graphs, thread prefixes, and type realization.

A tower is a finite initial segment of an inverse system: level 0 is the
complete graph on n vertices, every later level is a verified n-saturated
product extension of the one below, and the bonding maps are the fiber
projections ``v -> v // (m+1)``, so ``per_level_m`` determines them.
Vertices of the limit graph are bond-consistent threads; the artifact only
ever materializes finite prefixes of them.  Limit adjacency of two threads
is a statement about every level at once, so the API reports either a
definite non-adjacency certificate (a level where the entries are
non-adjacent, which persists upward) or "adjacent through the materialized
depth".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .builder import LiftingReport, _first_accepted, build_extension, check_product_lifting
from .graphs import FiniteGraph, TypeSpec, _missing_type_collapsed, find_realizer, is_n_saturated


# Tower seeds are 64-bit unsigned integers; the file format holds no others.
MAX_SEED = 2**64 - 1

# Attempts per step that :func:`matches_seed` draws before giving up.
REPLAY_ATTEMPTS = 4096


class TooManyConstraints(ValueError):
    """A type over a set of n-1 threads admits at most n-1 constraints."""


class NotSeparated(RuntimeError):
    """Constraint threads cannot be told apart (or realized) at any materialized level."""


@dataclass(frozen=True)
class ThreadPrefix:
    """Entries a(0..d) of a limit vertex, one per level, bond-consistent."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a thread prefix needs at least the level-0 entry")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @property
    def depth(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, level: int) -> int:
        return self.entries[level]


@dataclass(frozen=True)
class AdjacencyStatus:
    """Level-wise adjacency verdict for two thread prefixes.

    ``non_adjacent_level`` is the first level whose entries are non-adjacent;
    this certifies non-adjacency in the limit because bonding maps preserve
    edges downward.  When absent, the threads are adjacent at every checked
    level, which no finite depth can upgrade to limit adjacency.
    """

    checked_depth: int
    non_adjacent_level: Optional[int] = None

    @property
    def adjacent_through_depth(self) -> bool:
        return self.non_adjacent_level is None


@dataclass(frozen=True)
class RealizerHandle:
    """A realizing thread prefix plus the data needed to verify and extend it.

    ``separation_level`` is the level where the constraint threads project
    injectively and the type was realized; negative constraints are
    non-adjacent there, which already kills limit adjacency.  Positive
    constraints are adjacent at every materialized level.
    """

    prefix: ThreadPrefix
    separation_level: int
    positive: tuple[ThreadPrefix, ...]
    negative: tuple[ThreadPrefix, ...]


@dataclass(frozen=True)
class _Bond:
    """The image array of one division bond: ``image[v]`` is ``v // (m+1)``."""

    image: np.ndarray


@dataclass(frozen=True)
class Tower:
    """Levels G_0..G_D and per-step copy counts.

    Level d+1 holds ``per_level_m[d] + 1`` copies of every level-d vertex,
    at indices ``base * (m+1) + copy``, so the bond from level d+1 to level
    d is always the division map ``v -> v // (m+1)`` and is not stored.
    """

    n: int
    seed: int
    levels: tuple[FiniteGraph, ...]
    per_level_m: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def bonds(self) -> tuple[_Bond, ...]:
        """Each bond's image array, derived from ``per_level_m`` on each access.

        Nothing in the library reads this.  It stays only because the
        benchmark harness reads ``t.bonds[d].image`` and ``len(t.bonds)``;
        ROADMAP item 1 deletes it together with those two harness lines.
        """
        return tuple(
            _Bond(np.arange(hi.vertex_count) // (m + 1)) for hi, m in zip(self.levels[1:], self.per_level_m)
        )

    def truncated(self, depth: int) -> "Tower":
        if not 0 <= depth <= self.depth:
            raise ValueError("depth out of range")
        return Tower(
            self.n,
            self.seed,
            self.levels[: depth + 1],
            self.per_level_m[:depth],
        )


def level_build_seed(tower_seed: int, step: int) -> int:
    """64-bit seed for construction step ``step`` (building level step+1)."""
    ss = np.random.SeedSequence(entropy=tower_seed, spawn_key=(step,))
    return int(ss.generate_state(1, np.uint64)[0])


def matches_seed(t: Tower) -> bool:
    """Whether every stored level is the sample its seed accepts over the level below.

    Precondition: ``t`` has passed :func:`verify_tower`, so every level
    above 0 is known to be n-saturated.  Step d runs build's own attempt
    loop over the stored level d, which equals its own replay by induction,
    with the stored level d+1 passed as known saturated; the tower is the
    seed's when that loop accepts exactly the stored level d+1.  Level d is
    passed as n-saturated when d >= 1, by the precondition.  Raises :class:`~satgraph.builder.AttemptsExhausted`
    when ``REPLAY_ATTEMPTS`` attempts accept nothing.
    """
    for d, m in enumerate(t.per_level_m):
        stored = t.levels[d + 1]
        seed = level_build_seed(t.seed, d)
        accepted, _ = _first_accepted(t.n, t.levels[d], seed, m, REPLAY_ATTEMPTS, d > 0, known=stored)
        if accepted != stored:
            return False
    return True


def new_tower(n: int, seed: int) -> Tower:
    """Depth-0 tower holding only the complete graph on n vertices."""
    if n < 1:
        raise ValueError("n must be at least 1")
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return Tower(n, seed, (FiniteGraph.complete(n),), ())


def extend_tower(t: Tower, m: Optional[int] = None, max_attempts: int = 64) -> Tower:
    """Append one verified level built over the current top.

    ``m`` is the copy count of the new step; None means the certified
    :func:`~satgraph.builder.minimal_certified_m`.  The build seed depends
    only on (tower seed, current depth), so growing a tower in stages and
    growing it in one go produce identical levels.
    """
    top = t.levels[-1]
    graph, _ = build_extension(t.n, top, level_build_seed(t.seed, t.depth), m, max_attempts)
    m = graph.vertex_count // top.vertex_count - 1
    return Tower(t.n, t.seed, t.levels + (graph,), t.per_level_m + (m,))


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class TowerReport:
    """Named outcomes of every invariant re-checked by :func:`verify_tower`."""

    ok: bool
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def first_failure(self) -> Optional[str]:
        for name, good, detail in self.checks:
            if not good:
                return f"{name}: {detail}" if detail else name
        return None

    def __bool__(self) -> bool:
        return self.ok


def verify_tower(t: Tower) -> TowerReport:
    """Re-check every tower invariant from the raw data, stopping at the first failure.

    Checks, in order: structural consistency (level sizes match the
    product encoding, every m >= 1) and the complete level 0; exhaustive
    n-saturation of every level above 0; each bond a quotient map; each
    bond's lifting guarantee for configurations over distinct base
    vertices; and one-step splitting (every vertex has at least two
    preimages one level up).  The bonds are the division maps derived from
    ``per_level_m``.  One :func:`~satgraph.builder.check_product_lifting`
    pass per bond, cached, decides both its quotient and its lifting check.

    The lifting check uses the distinct-bases form because that is what
    the limit needs: ``realize_type`` lifts only above the separation
    level, where the constraint entries are pairwise distinct, and so are
    their projections one level down.  The repeats-allowed form is build's
    acceptance rule; it decides which sample becomes the tower, so it
    cannot change without changing towers.

    At n = 3, the pass over the bond below a level above 1 runs before
    that level's saturation, and its report is reused in its own place in
    the order.  When both its checks pass, the lifting lemma (README)
    leaves only the pairs inside one fiber to scan; when either fails, the
    whole level is scanned.  Either way the reported check and
    counterexample are the full scan's.
    """
    checks: list[tuple[str, bool, str]] = []

    def failed(name: str, detail: str) -> TowerReport:
        checks.append((name, False, detail))
        return TowerReport(False, tuple(checks))

    def passed(name: str, detail: str = "") -> None:
        checks.append((name, True, detail))

    if len(t.levels) != len(t.per_level_m) + 1:
        return failed("structure", "levels and per_level_m lengths disagree")
    if t.n < 1:
        return failed("structure", "n must be positive")
    # compare sizes first: a declared n far above the stored level 0 must not
    # allocate its complete graph just to report the mismatch
    if t.levels[0].vertex_count != t.n or t.levels[0] != FiniteGraph.complete(t.n):
        return failed("structure", "level 0 must be the complete graph on n vertices")
    for d, m in enumerate(t.per_level_m):
        if m < 1:
            return failed("structure", f"step {d} has m < 1")
        lo, hi = t.levels[d], t.levels[d + 1]
        if hi.vertex_count != lo.vertex_count * (m + 1):
            return failed(
                "structure", f"level {d + 1} size does not match the product encoding"
            )
    passed("structure")

    @functools.cache
    def bond(d: int) -> LiftingReport:
        return check_product_lifting(t.levels[d + 1], t.levels[d], t.per_level_m[d], t.n, distinct_bases=True)

    for d in range(1, len(t.levels)):
        # level d-1 >= 1 passed this loop; with a bond below level d that is a
        # quotient and lifts, the lifting lemma leaves only the pairs inside
        # a fiber to scan
        if t.n == 3 and d >= 2 and bond(d - 1).quotient is None and bond(d - 1).holds:
            missing = _missing_type_collapsed(t.levels[d], t.per_level_m[d - 1] + 1)
        else:
            missing = is_n_saturated(t.levels[d], t.n).counterexample
        if missing is not None:
            subset, f = missing
            return failed(
                f"saturation[level {d}]",
                f"type {f.as_dict()} over {subset} has no realizer",
            )
        passed(f"saturation[level {d}]")

    for d in range(len(t.per_level_m)):
        detail = bond(d).quotient
        if detail is not None:
            return failed(f"quotient[bond {d}]", detail)
        passed(f"quotient[bond {d}]")

    for d in range(len(t.per_level_m)):
        rep = bond(d)
        if not rep.holds:
            i, targets = rep.counterexample
            return failed(
                f"lifting[bond {d}]",
                f"no preimage of {i} is adjacent to all of {targets}",
            )
        passed(f"lifting[bond {d}]")

    # every fiber of a division bond has m + 1 members, and "structure" checked m >= 1
    for d in range(len(t.per_level_m)):
        passed(f"splitting[bond {d}]")

    return TowerReport(True, tuple(checks))


# -- threads ----------------------------------------------------------------------


ThreadLike = Union[ThreadPrefix, Sequence[int]]


def _coerce_prefix(p: ThreadLike) -> ThreadPrefix:
    return p if isinstance(p, ThreadPrefix) else ThreadPrefix(tuple(p))


def validate_prefix(t: Tower, prefix: ThreadLike) -> ThreadPrefix:
    """Check entry ranges and bond consistency; returns the normalized prefix."""
    prefix = _coerce_prefix(prefix)
    if prefix.depth > t.depth:
        raise ValueError("prefix is deeper than the tower")
    for level, e in enumerate(prefix.entries):
        if not 0 <= e < t.levels[level].vertex_count:
            raise ValueError(f"entry {e} out of range at level {level}")
    for level in range(prefix.depth):
        if prefix.entries[level + 1] // (t.per_level_m[level] + 1) != prefix.entries[level]:
            raise ValueError(f"prefix is not bond-consistent at level {level}")
    return prefix


def project(t: Tower, from_level: int, to_level: int, vertex: int) -> int:
    """Image of a vertex under the composed bonds from_level -> to_level."""
    if not 0 <= to_level <= from_level <= t.depth:
        raise ValueError("levels out of range")
    if not 0 <= vertex < t.levels[from_level].vertex_count:
        raise ValueError("vertex out of range")
    return vertex // math.prod(m + 1 for m in t.per_level_m[to_level:from_level])


def canonical_extension(t: Tower, prefix: ThreadLike, target_depth: int) -> ThreadPrefix:
    """Extend a prefix by picking the copy-0 preimage at every new level."""
    prefix = validate_prefix(t, prefix)
    if target_depth > t.depth:
        raise ValueError("target depth exceeds tower depth")
    if target_depth < prefix.depth:
        raise ValueError("target depth is below the prefix depth")
    entries = list(prefix.entries)
    for level in range(prefix.depth, target_depth):
        entries.append(entries[-1] * (t.per_level_m[level] + 1))
    return ThreadPrefix(tuple(entries))


def canonical_thread(t: Tower, level: int, vertex: int) -> ThreadPrefix:
    """Full-depth thread through (level, vertex): bond images below, copy 0 above."""
    if not 0 <= level <= t.depth:
        raise ValueError("level out of range")
    if not 0 <= vertex < t.levels[level].vertex_count:
        raise ValueError("vertex out of range")
    entries = [0] * (level + 1)
    entries[level] = vertex
    for d in range(level - 1, -1, -1):
        entries[d] = entries[d + 1] // (t.per_level_m[d] + 1)
    return canonical_extension(t, ThreadPrefix(tuple(entries)), t.depth)


def random_thread(t: Tower, seed: int) -> ThreadPrefix:
    """Seeded random bond-consistent thread through the whole tower."""
    rng = np.random.default_rng(seed)
    entries = [int(rng.integers(t.levels[0].vertex_count))]
    for m in t.per_level_m:
        entries.append(entries[-1] * (m + 1) + int(rng.integers(m + 1)))
    return ThreadPrefix(tuple(entries))


def adjacency_status(t: Tower, a: ThreadLike, b: ThreadLike, depth: int) -> AdjacencyStatus:
    """First level up to ``depth`` separating the threads, if any."""
    a, b = _coerce_prefix(a), _coerce_prefix(b)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth > a.depth or depth > b.depth:
        raise ValueError("depth exceeds a prefix's materialized depth")
    if depth > t.depth:
        raise ValueError("depth exceeds tower depth")
    for level in range(depth + 1):
        if not t.levels[level].adjacent(a.entries[level], b.entries[level]):
            return AdjacencyStatus(depth, level)
    return AdjacencyStatus(depth)


# -- type realization ---------------------------------------------------------------


def _first_difference(a: ThreadPrefix, b: ThreadPrefix) -> Optional[int]:
    for level in range(min(a.depth, b.depth) + 1):
        if a.entries[level] != b.entries[level]:
            return level
    return None


def realize_type(
    t: Tower,
    constraints: Iterable[tuple[ThreadLike, int]],
    auto_extend: bool = False,
) -> RealizerHandle:
    """Produce a thread prefix realizing a 0/1 prescription over given threads.

    At the separation level (first level where the constraint threads are
    pairwise distinct and the type has a realizer) the prefix realizes the
    type outright; below it the prefix is the projection of that realizer,
    and above it each step lifts to the smallest fiber member adjacent to
    all positive constraint entries, which the tower's lifting invariant
    guarantees to exist.  Negative constraints are therefore non-adjacent
    at the separation level, a definitive certificate for the limit.

    Bond-consistent distinct prefixes always separate within their
    materialized depth, so ``auto_extend`` only matters when realization
    needs a level the tower does not have yet (a depth-0 tower and a type
    with zeros); it then grows the tower with the certified m, and the
    returned handle matches ``extend_tower(t)``.
    """
    cons: list[tuple[ThreadPrefix, int]] = []
    for prefix, bit in constraints:
        if bit not in (0, 1):
            raise ValueError("constraint bits must be 0 or 1")
        cons.append((canonical_extension(t, prefix, t.depth), int(bit)))
    if len(cons) > t.n - 1:
        raise TooManyConstraints(f"at most {t.n - 1} constraints allowed, got {len(cons)}")

    separation = 0
    for i in range(len(cons)):
        for j in range(i + 1, len(cons)):
            diff = _first_difference(cons[i][0], cons[j][0])
            if diff is None:
                raise NotSeparated(
                    "two constraint prefixes are identical through the materialized "
                    "depth; canonical extension can never separate them"
                )
            separation = max(separation, diff)

    level = separation
    realizer: Optional[int] = None
    while True:
        while level <= t.depth:
            wanted = TypeSpec(tuple((c.entries[level], bit) for c, bit in cons))
            realizer = find_realizer(t.levels[level], wanted)
            if realizer is not None:
                break
            level += 1
        if realizer is not None:
            break
        if not auto_extend:
            raise NotSeparated(
                "the type is not realizable at any materialized level; "
                "extend the tower or pass auto_extend=True"
            )
        t = extend_tower(t)
        cons = [(canonical_extension(t, c, t.depth), bit) for c, bit in cons]

    entries = [0] * (t.depth + 1)
    entries[level] = realizer
    for d in range(level - 1, -1, -1):
        entries[d] = entries[d + 1] // (t.per_level_m[d] + 1)
    positives = tuple(c for c, bit in cons if bit == 1)
    for d in range(level, t.depth):
        entries[d + 1] = _lift_step(t, d, entries[d], positives)
    return RealizerHandle(
        prefix=ThreadPrefix(tuple(entries)),
        separation_level=level,
        positive=positives,
        negative=tuple(c for c, bit in cons if bit == 0),
    )


def _lift_step(t: Tower, d: int, current: int, positives: Sequence[ThreadPrefix]) -> int:
    """Smallest preimage of ``current`` adjacent to every positive entry at level d+1."""
    copies = t.per_level_m[d] + 1
    graph = t.levels[d + 1]
    wanted = [p.entries[d + 1] for p in positives]
    for w in range(current * copies, (current + 1) * copies):
        if all(graph.adjacent(w, x) for x in wanted):
            return w
    raise RuntimeError(
        f"no admissible lift at level {d + 1}: the tower's lifting invariant is broken"
    )


def extend_realizer(t: Tower, h: RealizerHandle) -> RealizerHandle:
    """Extend a realizer one level after the tower has grown.

    Constraint threads are extended canonically; the realizer entry is the
    smallest admissible preimage, so extending twice step by step equals
    extending once on the deeper tower.
    """
    hd = h.prefix.depth
    if t.depth <= hd:
        raise ValueError("tower has not grown beyond the handle's depth")
    positives = tuple(canonical_extension(t, p, hd + 1) for p in h.positive)
    negatives = tuple(canonical_extension(t, p, hd + 1) for p in h.negative)
    entries = h.prefix.entries + (_lift_step(t, hd, h.prefix.entries[hd], positives),)
    return RealizerHandle(
        prefix=ThreadPrefix(entries),
        separation_level=h.separation_level,
        positive=positives,
        negative=negatives,
    )


def check_realization(t: Tower, h: RealizerHandle) -> tuple[bool, Optional[str]]:
    """Independent level-wise verifier for a realizer handle.

    Re-derives nothing from the construction: checks bond consistency of
    every involved prefix, adjacency to every positive constraint at every
    materialized level, non-adjacency to every negative constraint at the
    separation level, and that the realizer avoids the constraint entries
    there.
    """
    try:
        validate_prefix(t, h.prefix)
        for c in h.positive + h.negative:
            validate_prefix(t, c)
    except ValueError as exc:
        return False, str(exc)
    depth = h.prefix.depth
    level = h.separation_level
    if not 0 <= level <= depth:
        return False, "separation level outside the materialized prefix"
    for c in h.positive + h.negative:
        if c.depth < depth:
            return False, "constraint prefix shallower than the realizer"
    for d in range(depth + 1):
        for c in h.positive:
            if not t.levels[d].adjacent(h.prefix.entries[d], c.entries[d]):
                return False, f"positive constraint not adjacent at level {d}"
    for c in h.negative:
        if t.levels[level].adjacent(h.prefix.entries[level], c.entries[level]):
            return False, "negative constraint adjacent at the separation level"
    entries_there = [c.entries[level] for c in h.positive + h.negative]
    if h.prefix.entries[level] in entries_there:
        return False, "realizer coincides with a constraint at the separation level"
    if len(set(entries_there)) != len(entries_there):
        return False, "constraints are not pairwise distinct at the separation level"
    return True, None
