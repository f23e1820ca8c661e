"""Canonical serialization: graph JSON, tower files, DOT export.

Encoders emit one fixed byte representation (compact separators, fixed key
order, edges sorted lexicographically with a < b and loops implied), so
encode -> decode -> encode is byte-identical and files diff cleanly.
Decoders validate strictly and reject anything non-canonical.
"""

from __future__ import annotations

import io
import json
from typing import IO, Any

import numpy as np

from ._bits import require_packed_fits
from .graphs import FiniteGraph
from .towers import MAX_SEED, Tower


class FormatError(ValueError):
    """Input does not conform to the canonical file format."""


# -- graphs -------------------------------------------------------------------


def write_graph(g: FiniteGraph, fp: IO[str]) -> None:
    fp.write(f'{{"v":{g.vertex_count},"edges":[')
    first = True
    for chunk in g.edges_chunks():
        text = ",".join(f"[{a},{b}]" for a, b in chunk.tolist())
        if not first:
            fp.write(",")
        fp.write(text)
        first = False
    fp.write("]}")


def encode_graph(g: FiniteGraph) -> str:
    buf = io.StringIO()
    write_graph(g, buf)
    return buf.getvalue()


def _graph_vertex_count(obj: Any) -> int:
    """The checked ``v`` of a graph object, without looking at its edges."""
    if not isinstance(obj, dict) or set(obj.keys()) != {"v", "edges"}:
        raise FormatError('graph object must have exactly the keys "v" and "edges"')
    v = obj["v"]
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise FormatError("vertex count must be a positive integer")
    return v


def graph_from_obj(obj: Any) -> FiniteGraph:
    v = _graph_vertex_count(obj)
    require_packed_fits([v], FormatError)
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise FormatError("edges must be a list")
    prev = None
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise FormatError("each edge must be a pair of integers")
        a, b = e
        if not 0 <= a < b < v:
            raise FormatError(f"edge [{a},{b}] out of range or not ordered a < b")
        if prev is not None and (a, b) <= prev:
            raise FormatError("edges must be strictly increasing lexicographically")
        prev = (a, b)
    return FiniteGraph.from_edges(v, edges)


def decode_graph(text: str) -> FiniteGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return graph_from_obj(obj)


# -- towers -------------------------------------------------------------------


def write_tower(t: Tower, fp: IO[str]) -> None:
    fp.write(f'{{"n":{t.n},"seed":{t.seed},"levels":[')
    for idx, g in enumerate(t.levels):
        if idx:
            fp.write(",")
        write_graph(g, fp)
    fp.write('],"bonds":[')
    for idx, m in enumerate(t.per_level_m):
        if idx:
            fp.write(",")
        fp.write("[" + ",".join(map(str, _division_bond(t.levels[idx + 1].vertex_count, m))) + "]")
    fp.write('],"per_level_m":[')
    fp.write(",".join(str(m) for m in t.per_level_m))
    fp.write("]}\n")


def _division_bond(v: int, m: int) -> list[int]:
    """Parent of every vertex of a ``v``-vertex level built with ``m + 1`` copies."""
    return (np.arange(v) // (m + 1)).tolist()


def encode_tower(t: Tower) -> str:
    buf = io.StringIO()
    write_tower(t, buf)
    return buf.getvalue()


def save_tower(t: Tower, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fp:
        write_tower(t, fp)


def tower_from_obj(obj: Any) -> Tower:
    keys = {"n", "seed", "levels", "bonds", "per_level_m"}
    if not isinstance(obj, dict) or set(obj.keys()) != keys:
        raise FormatError(f"tower object must have exactly the keys {sorted(keys)}")
    n, seed = obj["n"], obj["seed"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FormatError("n must be a positive integer")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= MAX_SEED:
        raise FormatError("seed must be a 64-bit unsigned integer")
    levels_obj, bonds_obj, ms_obj = obj["levels"], obj["bonds"], obj["per_level_m"]
    if not isinstance(levels_obj, list) or not levels_obj:
        raise FormatError("levels must be a non-empty list")
    if not isinstance(bonds_obj, list) or not isinstance(ms_obj, list):
        raise FormatError("bonds and per_level_m must be lists")
    if len(bonds_obj) != len(levels_obj) - 1 or len(ms_obj) != len(bonds_obj):
        raise FormatError("levels, bonds and per_level_m lengths disagree")
    # the recipe and the bonds are checked from each level's v alone, so a
    # malformed tower is rejected before any edge list is decoded
    sizes = [_graph_vertex_count(g) for g in levels_obj]
    require_packed_fits(sizes, FormatError)
    per_level_m = []
    for m in ms_obj:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise FormatError("per_level_m entries must be integers >= 1")
        per_level_m.append(m)
    for d, m in enumerate(per_level_m):
        if sizes[d + 1] != sizes[d] * (m + 1):
            raise FormatError(f"level {d + 1} size does not match per_level_m")
    for d, (arr, m) in enumerate(zip(bonds_obj, per_level_m)):
        # True == 1 and 1.0 == 1, so the list comparison alone would admit them
        if (
            not isinstance(arr, list)
            or len(arr) != sizes[d + 1]
            or arr != _division_bond(sizes[d + 1], m)
            or not all(type(x) is int for x in arr)
        ):
            raise FormatError(f"bond {d} is not the division map v -> v // {m + 1}")
    levels = tuple(graph_from_obj(g) for g in levels_obj)
    return Tower(n, seed, levels, tuple(per_level_m))


def decode_tower(text: str) -> Tower:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return tower_from_obj(obj)


def load_tower(path: str) -> Tower:
    try:
        with open(path, "r", encoding="ascii") as fp:
            text = fp.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read tower file: {exc}") from exc
    return decode_tower(text)


# -- DOT export -----------------------------------------------------------------


def level_to_dot(t: Tower, level: int) -> str:
    """Graph-description text for one level; deterministic byte-for-byte.

    Above level 0, vertices are labelled with their (base, copy) product
    coordinates.  Loops are omitted; edges appear in canonical order.
    """
    if not 0 <= level <= t.depth:
        raise ValueError("level out of range")
    g = t.levels[level]
    lines = ["graph {"]
    if level == 0:
        for v in range(g.vertex_count):
            lines.append(f'  {v} [label="{v}"];')
    else:
        copies = t.per_level_m[level - 1] + 1
        for v in range(g.vertex_count):
            lines.append(f'  {v} [label="({v // copies},{v % copies})"];')
    for a, b in g.edges():
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
