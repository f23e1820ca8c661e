"""Canonical serialization: graph JSON, tower files, DOT export.

A graph file and a tower file each have exactly one byte representation,
ASCII with no whitespace::

    graph := '{"v":' INT ',"edges":[' [EDGE (',' EDGE)*] ']}'
    EDGE  := '[' INT ',' INT ']'
    tower := '{"n":' INT ',"seed":' INT ',"levels":[' graph (',' graph)*
             '],"bonds":[' [BOND (',' BOND)*] '],"per_level_m":['
             [INT (',' INT)*] ']}' '\\n'
    BOND  := '[' INT (',' INT)* ']'
    INT   := '0' | [1-9][0-9]*

Edges satisfy a < b < v and are strictly increasing lexicographically;
loops are implied.  Every bond is the division map ``v -> v // (m+1)``
written out.  A tower file ends in exactly one newline, a graph text in
none.  Encoders write these bytes, and decoders accept only these bytes,
so ``encode(decode(text)) == text`` for every text a decoder accepts; any
other input raises ``FormatError``.

Both directions work on the bytes with numpy.  The decoder splits the frame
first and checks ``n``, ``seed``, the level sizes, ``per_level_m`` and the
bond bytes before it parses any edge list; edge lists are then parsed in
slices of about ``_CHUNK_BYTES``.
"""

from __future__ import annotations

import re
from typing import IO, Iterator, NamedTuple

import numpy as np

from . import _bits
from .graphs import FiniteGraph
from .towers import MAX_SEED, Tower

# An edge list is parsed in slices of about this many bytes, each cut just
# after an edge's "]", so the temporaries stay small whatever the file size.
# A slice's temporaries (int64 separator positions and endpoint values) take
# about ten times its bytes: loading a 1 MB n=4 tower raised the peak RSS by
# 12.6 MiB with 1 MiB slices and by 2.1 MiB with 64 KiB ones.
_CHUNK_BYTES = 1 << 16

_INT = re.compile(rb"[0-9]+")
_MAX_INT_DIGITS = 20  # MAX_SEED has 20 digits
_EDGE_SEPARATORS = np.frombuffer(b"[,]", dtype=np.uint8)
_COMMA, _OPEN = ord(","), ord("[")
_POW10 = 10 ** np.arange(19, dtype=np.int64)


class FormatError(ValueError):
    """Input does not conform to the canonical file format."""


# -- number formatting ----------------------------------------------------------


def _number_table(count: int, prefix: bytes, suffix: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``prefix + str(x) + suffix`` for x in 0..count-1, one fixed-width row each.

    Returns ``(text, keep)``: row x of ``text`` holds the prefix, the digits
    of x padded on the left with zeros to the width of ``count - 1``, and the
    suffix; ``keep`` marks the bytes that are not padding.
    """
    width = len(str(max(count - 1, 0)))
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    x = np.arange(count, dtype=np.int64)[:, None]
    digits = (x // powers % 10 + ord("0")).astype(np.uint8)

    def fixed(literal: bytes) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(literal, dtype=np.uint8), (count, len(literal)))

    text = np.concatenate([fixed(prefix), digits, fixed(suffix)], axis=1)
    keep = np.ones(text.shape, dtype=bool)
    keep[:, len(prefix) : len(prefix) + width] = (x >= powers) | (powers == 1)
    return text, keep


def _texts(tables: list[tuple[np.ndarray, np.ndarray]], indices: list[np.ndarray]) -> bytes:
    """For each i, the texts of ``indices[k][i]`` in ``tables[k]``, concatenated over k then i."""
    text = np.concatenate([np.take(t, x, axis=0) for (t, _), x in zip(tables, indices)], axis=1)
    keep = np.concatenate([np.take(k, x, axis=0) for (_, k), x in zip(tables, indices)], axis=1)
    return text[keep].tobytes()


def _bond_text(v: int, m: int) -> bytes:
    """The division map of a ``v``-vertex level built with ``m + 1`` copies, as a BOND."""
    parents = np.arange(v) // (m + 1)
    text = _texts([_number_table(int(parents[-1]) + 1, b"", b",")], [parents])
    return b"[" + text[:-1] + b"]"


# -- encoders -------------------------------------------------------------------


def _graph_chunks(g: FiniteGraph) -> Iterator[bytes]:
    v = g.vertex_count
    yield b'{"v":%d,"edges":[' % v
    tables = [_number_table(v, b",[", b","), _number_table(v, b"", b"]")]
    first = True
    for pairs in g.edges_chunks():
        text = _texts(tables, [pairs[:, 0], pairs[:, 1]])
        yield text[1:] if first else text  # the first edge has no leading comma
        first = False
    yield b"]}"


def encode_graph(g: FiniteGraph) -> str:
    return b"".join(_graph_chunks(g)).decode("ascii")


def _tower_chunks(t: Tower) -> Iterator[bytes]:
    yield b'{"n":%d,"seed":%d,"levels":[' % (t.n, t.seed)
    for idx, g in enumerate(t.levels):
        if idx:
            yield b","
        yield from _graph_chunks(g)
    yield b'],"bonds":['
    yield b",".join(
        _bond_text(g.vertex_count, m) for g, m in zip(t.levels[1:], t.per_level_m)
    )
    yield b'],"per_level_m":['
    yield b",".join(b"%d" % m for m in t.per_level_m)
    yield b"]}\n"


def write_tower(t: Tower, fp: IO[str]) -> None:
    for chunk in _tower_chunks(t):
        fp.write(chunk.decode("ascii"))


def encode_tower(t: Tower) -> str:
    return b"".join(_tower_chunks(t)).decode("ascii")


def save_tower(t: Tower, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fp:
        write_tower(t, fp)


# -- frame ----------------------------------------------------------------------


def _ascii(text: str | bytes) -> bytes:
    if isinstance(text, bytes):
        if not text.isascii():
            raise FormatError("non-ASCII byte in the input")
        return text
    try:
        return text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FormatError(f"non-ASCII character at offset {exc.start}") from exc


def _expect(data: bytes, pos: int, literal: bytes) -> int:
    if not data.startswith(literal, pos):
        raise FormatError(f"expected {literal.decode()!r} at byte {pos}")
    return pos + len(literal)


def _int_at(data: bytes, pos: int, what: str) -> tuple[int, int]:
    match = _INT.match(data, pos)
    digits = match.group() if match else b""
    if not digits or len(digits) > _MAX_INT_DIGITS or (digits[0] == ord("0") and len(digits) > 1):
        raise FormatError(
            f"{what} must be a decimal integer of at most {_MAX_INT_DIGITS} digits "
            f"with no sign or leading zero (byte {pos})"
        )
    return int(digits), match.end()


class _GraphSpan(NamedTuple):
    v: int
    start: int  # first byte of the edge list body, after its '['
    stop: int  # the list's closing ']'


def _split_graph(data: bytes, pos: int) -> tuple[_GraphSpan, int]:
    """The graph frame at ``pos`` and the position after its closing brace."""
    pos = _expect(data, pos, b'{"v":')
    v, pos = _int_at(data, pos, "vertex count")
    pos = _expect(data, pos, b',"edges":[')
    # edge lists hold only digits, brackets and commas: the first brace ends the graph
    end = data.find(b"}", pos)
    if end < 0 or data[end - 1] != ord("]"):
        raise FormatError(f"edge list starting at byte {pos} is not terminated by ']}}'")
    return _GraphSpan(v, pos, end - 1), end + 1


def _check_vertex_counts(sizes: list[int]) -> None:
    if any(v < 1 for v in sizes):
        raise FormatError("vertex count must be a positive integer")
    _bits.require_packed_fits(sizes, FormatError)


class TowerFrame(NamedTuple):
    """A tower file split at its syntax: integers read, edge lists and bonds located."""

    data: bytes
    n: int
    seed: int
    levels: list[_GraphSpan]
    bonds: list[tuple[int, int]]  # byte range of each BOND
    per_level_m: list[int]


def _split_list(data: bytes, pos: int, item) -> tuple[list, int]:
    """Items of a comma-separated list whose '[' precedes ``pos``, and the position of its ']'."""
    items: list = []
    if data.startswith(b"]", pos):
        return items, pos
    while True:
        value, pos = item(data, pos)
        items.append(value)
        if not data.startswith(b",", pos):
            return items, pos
        pos += 1


def _bond_span(data: bytes, pos: int) -> tuple[tuple[int, int], int]:
    pos = _expect(data, pos, b"[")
    end = data.find(b"]", pos)
    if end < 0:
        raise FormatError(f"bond starting at byte {pos - 1} is not terminated")
    return (pos - 1, end + 1), end + 1


def _split_tower(data: bytes) -> TowerFrame:
    """First stage of ``decode_tower``: the frame, with every edge list unparsed."""
    pos = _expect(data, 0, b'{"n":')
    n, pos = _int_at(data, pos, "n")
    pos = _expect(data, pos, b',"seed":')
    seed, pos = _int_at(data, pos, "seed")
    pos = _expect(data, pos, b',"levels":[')
    if data.startswith(b"]", pos):
        raise FormatError("levels must be a non-empty list")
    levels, pos = _split_list(data, pos, _split_graph)
    pos = _expect(data, pos, b'],"bonds":[')
    bonds, pos = _split_list(data, pos, _bond_span)
    pos = _expect(data, pos, b'],"per_level_m":[')
    per_level_m, pos = _split_list(
        data, pos, lambda d, p: _int_at(d, p, "per_level_m entries")
    )
    pos = _expect(data, pos, b"]}\n")
    if pos != len(data):
        raise FormatError(f"unexpected bytes after the tower's final newline at byte {pos}")
    return TowerFrame(data, n, seed, levels, bonds, per_level_m)


# -- edge lists -----------------------------------------------------------------


def _endpoints(
    arr: np.ndarray, ends: np.ndarray, lengths: np.ndarray, width: int, where: str
) -> np.ndarray:
    """Values of the digit runs of ``lengths`` bytes that end just before ``ends``."""
    if ((arr[ends - lengths] == ord("0")) & (lengths > 1)).any():
        raise FormatError(f"edge endpoint with a leading zero ({where})")
    if lengths.max() > width:
        raise FormatError(f"edge endpoint out of range ({where})")
    # Read the ``width`` bytes up to each end as one decimal number, with
    # byte - 48 as the digit.  The bytes before a run are not digits, but
    # they only add a multiple of 10**length, which the remainder removes.
    # The frame puts more than ``width`` bytes before the first edge, so
    # every window starts inside the data.
    starts = ends - width
    values = arr[starts].astype(np.int64)
    for j in range(1, width):
        values *= 10
        values += arr[starts + j]
    values -= ord("0") * (10**width - 1) // 9
    return np.mod(values, _POW10[lengths], out=values)


def _parse_edges(data: bytes, span: _GraphSpan) -> FiniteGraph:
    """Decode one edge list body, checking its bytes, ranges and order."""
    v = span.v
    packed = np.zeros((v, _bits.word_count(v)), dtype=np.uint64)
    arr = np.frombuffer(data, dtype=np.uint8)
    width = len(str(v - 1))  # no endpoint below v has more digits
    prev_key = -1
    # each slice runs from its lead byte (the list's '[' or the ',' after the
    # previous slice's last edge) to just after one edge's ']'
    p = span.start - 1
    while span.start < span.stop:
        cut = data.find(b"]", p + _CHUNK_BYTES, span.stop)
        q = span.stop if cut < 0 else cut + 1
        chunk = arr[p:q]
        where = f"in the edge list at bytes {p}..{q}"
        # the non-digit bytes are lead, '[', ',', ']' for each edge, and every
        # gap but those inside the brackets is empty
        seps = np.flatnonzero((chunk - ord("0")) >= 10)
        e = len(seps) // 4
        gaps = np.diff(seps)
        if (
            e == 0
            or len(seps) != 4 * e
            or seps[0] != 0
            or seps[-1] != len(chunk) - 1
            or chunk[0] != (_OPEN if p == span.start - 1 else _COMMA)
            or not (chunk[seps[4::4]] == _COMMA).all()
            or not (chunk[seps].reshape(e, 4)[:, 1:] == _EDGE_SEPARATORS).all()
            or not (gaps[0::4] == 1).all()
            or not (gaps[1::4] > 1).all()
            or not (gaps[2::4] > 1).all()
            or not (gaps[3::4] == 1).all()
        ):
            raise FormatError(f"edges must be written [a,b] separated by ',' ({where})")
        a = _endpoints(arr, p + seps[2::4], gaps[1::4] - 1, width, where)
        b = _endpoints(arr, p + seps[3::4], gaps[2::4] - 1, width, where)
        if not (a < b).all():
            i = np.flatnonzero(a >= b)[0]
            raise FormatError(f"edge [{a[i]},{b[i]}] is not ordered a < b ({where})")
        if b.max() >= v:
            raise FormatError(f"edge endpoint {b.max()} out of range for v={v} ({where})")
        keys = a * v + b
        if keys[0] <= prev_key or not (keys[1:] > keys[:-1]).all():
            raise FormatError(f"edges must be strictly increasing lexicographically ({where})")
        prev_key = int(keys[-1])
        _bits.set_bits(packed, a, b)
        _bits.set_bits(packed, b, a)
        if q == span.stop:
            break
        p = q
    diagonal = np.arange(v)
    _bits.set_bits(packed, diagonal, diagonal)
    return FiniteGraph(v, packed, validate=False)


# -- decoders -------------------------------------------------------------------


def decode_graph(text: str | bytes) -> FiniteGraph:
    data = _ascii(text)
    span, pos = _split_graph(data, 0)
    if pos != len(data):
        raise FormatError(f"unexpected bytes after the graph at byte {pos}")
    _check_vertex_counts([span.v])
    return _parse_edges(data, span)


def tower_from_obj(frame: TowerFrame) -> Tower:
    """Second stage of ``decode_tower``: check a split frame and parse its edge lists.

    The recipe and the bonds are checked from each level's ``v`` alone, so
    a malformed tower is rejected before any edge list is parsed.
    """
    data, n, seed, spans, bonds, per_level_m = frame
    if n < 1:
        raise FormatError("n must be a positive integer")
    if seed > MAX_SEED:
        raise FormatError("seed must be a 64-bit unsigned integer")
    if len(bonds) != len(spans) - 1 or len(per_level_m) != len(bonds):
        raise FormatError("levels, bonds and per_level_m lengths disagree")
    sizes = [span.v for span in spans]
    _check_vertex_counts(sizes)
    if any(m < 1 for m in per_level_m):
        raise FormatError("per_level_m entries must be integers >= 1")
    for d, m in enumerate(per_level_m):
        if sizes[d + 1] != sizes[d] * (m + 1):
            raise FormatError(f"level {d + 1} size does not match per_level_m")
    for d, ((start, stop), m) in enumerate(zip(bonds, per_level_m)):
        if data[start:stop] != _bond_text(sizes[d + 1], m):
            raise FormatError(f"bond {d} is not the division map v -> v // {m + 1}")
    levels = tuple(_parse_edges(data, span) for span in spans)
    return Tower(n, seed, levels, tuple(per_level_m))


def decode_tower(text: str | bytes) -> Tower:
    return tower_from_obj(_split_tower(_ascii(text)))


def load_tower(path: str) -> Tower:
    try:
        with open(path, "rb") as fp:
            data = fp.read()
    except OSError as exc:
        raise FormatError(f"cannot read tower file: {exc}") from exc
    return decode_tower(data)


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
