"""Packed bit-row helpers.

Adjacency rows, candidate sets and copy masks are all stored as arrays of
64-bit words, least significant bit first, so membership tests and
intersections over thousands of vertices collapse to a handful of word
operations.  The Four Russians kernel at the end (:func:`or_tables`,
:func:`first_hole`) decides both the lifting check and the n >= 4
saturation scan, through one prefix walker (:func:`walk_prefixes`) that
puts the rows of many prefixes into each kernel call.  A kernel row may
hold several parts of one width side by side, each checked over the same
bits: the saturation scan puts both signs of c into one table, so one call
decides both.  The kernel drops the rows with no hole left only at groups
4, 8, 16, ..., and reads each group's index bytes at the rows still live.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

WORD = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def word_count(nbits: int) -> int:
    return (nbits + WORD - 1) // WORD


def require_packed_fits(
    vertex_counts: Iterable[int], error: type[ValueError] = ValueError
) -> None:
    """Raise ``error`` when packed rows for graphs of these sizes exceed physical memory.

    Callers check before they allocate, so an impossible size fails at once
    with a message instead of numpy's allocation error.
    """
    require_fits(sum(v * word_count(v) * 8 for v in vertex_counts), "packed rows", error)


def require_fits(nbytes: int, what: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` when ``nbytes`` bytes of ``what`` exceed physical memory.

    Physical memory is ``SC_PHYS_PAGES * SC_PAGE_SIZE`` from ``os.sysconf``.
    """
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > physical:
        raise error(
            f"{nbytes / 2**30:.1f} GiB of {what} is more than the "
            f"{physical / 2**30:.1f} GiB of physical memory"
        )


def full_row(nbits: int) -> np.ndarray:
    """All-ones row of ``word_count(nbits)`` words, tail bits cleared."""
    row = np.full(word_count(nbits), _ALL_ONES, dtype=np.uint64)
    tail = nbits % WORD
    if tail:
        row[-1] = np.uint64((1 << tail) - 1)
    return row


def get_bit(rows: np.ndarray, r: int, c: int) -> int:
    return int((rows[r, c >> 6] >> np.uint64(c & 63)) & np.uint64(1))


def set_bits(rows: np.ndarray, r: np.ndarray, c: np.ndarray) -> None:
    """Set bit ``c[i]`` of row ``r[i]`` for every i, in place; repeats are harmless."""
    words = rows.reshape(-1)  # a view: the rows are C-contiguous
    np.bitwise_or.at(
        words, r * rows.shape[1] + (c >> 6), np.uint64(1) << (c & 63).astype(np.uint64)
    )


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., nbits) uint8 0/1 array into (..., words) uint64 rows."""
    nbits = bits.shape[-1]
    nbytes = word_count(nbits) * 8
    packed8 = np.packbits(bits, axis=-1, bitorder="little")
    if packed8.shape[-1] != nbytes:
        out8 = np.zeros(bits.shape[:-1] + (nbytes,), dtype=np.uint8)
        out8[..., : packed8.shape[-1]] = packed8
        packed8 = out8
    return np.ascontiguousarray(packed8).view(np.uint64)


def unpack_rows(rows: np.ndarray, nbits: int) -> np.ndarray:
    """Unpack (..., words) uint64 rows into a (..., nbits) uint8 0/1 array."""
    as_bytes = np.ascontiguousarray(rows).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :nbits]


def row_popcounts(rows: np.ndarray) -> np.ndarray:
    return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)


def row_to_int(row: np.ndarray) -> int:
    return int.from_bytes(row.astype("<u8").tobytes(), "little")


def int_to_row(mask: int, nbits: int) -> np.ndarray:
    nbytes = word_count(nbits) * 8
    return np.frombuffer(mask.to_bytes(nbytes, "little"), dtype="<u8").astype(np.uint64)


def lowest_set_bit(row: np.ndarray) -> int | None:
    """Index of the least significant set bit across a word row, if any."""
    nz = np.nonzero(row)[0]
    if len(nz) == 0:
        return None
    w = int(nz[0])
    word = int(row[w])
    return w * WORD + (word & -word).bit_length() - 1


_DELTA_SWAPS = (
    (32, 0x00000000FFFFFFFF),
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)


def _transpose64_stripe(x: np.ndarray) -> None:
    """In-place 64x64 bit transpose of every word column of a (64, N) array."""
    for j, mask_val in _DELTA_SWAPS:
        shift = np.uint64(j)
        mask = np.uint64(mask_val)
        view = x.reshape(64 // (2 * j), 2, j, -1)
        lo, hi = view[:, 0], view[:, 1]
        t = ((lo >> shift) ^ hi) & mask
        hi ^= t
        lo ^= t << shift


# The Four Russians kernel ORs lookup tables over groups of 8 rows into
# blocks of at most BLOCK_WORDS words of rows (256 KiB); at groups
# _DROP_GROUPS, 2 * _DROP_GROUPS, 4 * _DROP_GROUPS, ... the rows left
# without a hole are dropped.
BLOCK_WORDS = 1 << 15
_DROP_GROUPS = 4
# _LOW_MASKS[t] holds the low t bits of a word, t = 0 .. 64
_LOW_MASKS = np.array([(1 << t) - 1 for t in range(65)], dtype=np.uint64)


def or_tables(rows: np.ndarray) -> np.ndarray:
    """Lookup tables of the ORs of packed rows, [group, subset, word].

    Entry [g, s] is the OR of the rows 8g + j at the bits j of s.  The
    tables take 256 * 8 bytes per group of 8 rows and word of a row, which
    is 32 times the rows themselves.
    """
    count, w = rows.shape
    groups = -(-count // 8)
    grouped = np.zeros((groups * 8, w), dtype=np.uint64)
    grouped[:count] = rows
    grouped = grouped.reshape(groups, 8, w)
    tables = np.zeros((groups, 256, w), dtype=np.uint64)
    for j in range(8):
        np.bitwise_or(tables[:, : 1 << j], grouped[:, j, None], out=tables[:, 1 << j : 2 << j])
    return tables


def first_hole(
    tables: np.ndarray, index: np.ndarray, start: np.ndarray, count: int
) -> tuple[int, int] | None:
    """First row r whose chosen rows miss a bit c, start[r] <= c < count, of some part: (r, bit), or None.

    Row r chooses, per group g of 8 rows of :func:`or_tables`, the rows at
    the bits of ``index[g, r]``, and the OR of the chosen rows is the OR of
    the table entries ``tables[g, index[g, r]]`` (the method of Four
    Russians).  A table row is one or more parts of ``word_count(count)``
    words each, side by side; every part starts with the bits below
    start[r] and past count set, so a hole is a zero bit, and ``bit`` is
    its position in the whole table row (the lowest one of row r).  Rows
    are decided in blocks of at most ``BLOCK_WORDS`` words that reuse their
    buffers; at groups ``_DROP_GROUPS``, twice that, four times that and
    so on, the rows with no hole left are dropped, and a block is done
    when none is left.
    """
    groups, total = index.shape
    w = tables.shape[2]
    words = word_count(count)
    step = max(1, min(total, BLOCK_WORDS // w))
    shifts = np.arange(w) % words * 64  # first bit of each word within its part
    tail = ~full_row(count)[-1]
    low = np.empty((step, w), dtype=np.int64)
    seen_buf = np.empty((step, w), dtype=np.uint64)
    picked = np.empty((step, w), dtype=np.uint64)
    for r0 in range(0, total, step):
        r1 = min(total, r0 + step)
        live = np.arange(r0, r1)
        np.subtract(start[r0:r1, None], shifts, out=low[: r1 - r0])
        seen = np.take(_LOW_MASKS, low[: r1 - r0], out=seen_buf[: r1 - r0], mode="clip")
        seen[:, words - 1 :: words] |= tail
        check = _DROP_GROUPS
        for g in range(groups):
            if g == check:
                check *= 2
                keep = np.bitwise_and.reduce(seen, axis=1) != _ALL_ONES
                if not keep.all():
                    live, seen = live[keep], seen[keep]
                    if not len(live):
                        break
            out = picked[: len(live)]
            tables[g].take(index[g, live], axis=0, out=out, mode="clip")
            seen |= out
        holes = np.bitwise_and.reduce(seen, axis=1) != _ALL_ONES
        if holes.any():
            r = int(np.argmax(holes))
            return int(live[r]), lowest_set_bit(~seen[r])
    return None


def walk_prefixes(
    table: np.ndarray, index: np.ndarray, prefixes: Iterable[tuple[int, ...]], after: np.ndarray
):
    """First holes of one table over lexicographic batches of whole prefixes: one per batch.

    ``index`` is [kind, group, position]: ``index[s][:, p]`` is the
    :func:`first_hole` row of position p taken with value s (lifting has one
    kind, the saturation scan one per sign).  ``after`` is ascending, and
    after[p] is the smallest position allowed to follow p.  ``prefixes``
    are tuples of positions in lexicographic order; one is skipped when a
    position lies below ``after`` of the one before it.  The rows of a
    prefix P are (P, choice, b): the choices run lexicographically over the
    tuples of one kind per position of P and one for b, and b runs from
    after[P[-1]] (0 when P is empty) over every position whose after[b] is
    still a position.  Row (P, choice, b) is the AND of the index columns
    of P and of b at their kinds, and starts at after[b].

    Whole prefixes are put into a batch until it holds ``BLOCK_WORDS //
    words`` rows, for the words of a table row, and each batch is one
    :func:`first_hole` call on ``table``.  Yields, per batch, the first row
    with a hole as (P, choice, b, c), or None, where c is the hole's bit in
    the whole table row (the lowest one of the row); the rows of earlier
    batches have none.
    """
    kinds, _, count = index.shape
    stop = int(np.searchsorted(after, count))  # rows past it start at count, so cannot hold a hole
    rows_per_batch = max(1, BLOCK_WORDS // table.shape[2])
    batch, lows, rows = [], [], 0
    for prefix in prefixes:
        if any(after[p] > q for p, q in zip(prefix, prefix[1:])):
            continue
        lo = int(after[prefix[-1]]) if prefix else 0
        if lo < stop:
            batch.append(prefix)
            lows.append(lo)
            rows += kinds ** (len(prefix) + 1) * (stop - lo)
        if rows >= rows_per_batch:
            yield _batch_hole(table, index, batch, lows, stop, after)
            batch, lows, rows = [], [], 0
    if batch:
        yield _batch_hole(table, index, batch, lows, stop, after)


def _batch_hole(table, index, batch, lows, stop, after):
    """:func:`walk_prefixes`' first hole of the table over the rows of one batch of prefixes."""
    kinds, groups, count = index.shape
    prefixes = np.array(batch, dtype=np.intp).reshape(len(batch), -1)
    choices = np.array(list(np.ndindex((kinds,) * (prefixes.shape[1] + 1))), dtype=np.intp)
    # common[prefix, choice]: the AND of the prefix's index bytes at the choice's kinds
    common = np.bitwise_and.reduce(index[choices[None, :, :-1], :, prefixes[:, None, :]], axis=2)
    # one segment of rows per (prefix, choice), over b = lo .. stop-1; slices
    # of the index are several times faster to AND than gathered columns
    firsts = np.cumsum([0] + [stop - lo for lo in lows for _ in choices])
    chosen = np.empty((groups, firsts[-1]), dtype=np.uint8)
    start = np.empty(firsts[-1], dtype=after.dtype)
    for s, (r0, r1) in enumerate(zip(firsts[:-1], firsts[1:])):
        owner, choice = divmod(s, len(choices))
        lo = lows[owner]
        b_rows = index[choices[choice, -1], :, lo:stop]
        np.bitwise_and(b_rows, common[owner, choice, :, None], out=chosen[:, r0:r1])
        start[r0:r1] = after[lo:stop]
    found = first_hole(table, chosen, start, count)
    if found is None:
        return None
    r, c = found
    s = int(np.searchsorted(firsts, r, side="right")) - 1
    owner, choice = divmod(s, len(choices))
    return batch[owner], tuple(int(x) for x in choices[choice]), lows[owner] + r - int(firsts[s]), c
