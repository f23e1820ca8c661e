"""Packed bit-row helpers.

Adjacency rows, candidate sets and copy masks are all stored as arrays of
64-bit words, least significant bit first, so membership tests and
intersections over thousands of vertices collapse to a handful of word
operations.
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
    with a message instead of numpy's allocation error.  Physical memory is
    ``SC_PHYS_PAGES * SC_PAGE_SIZE`` from ``os.sysconf``.
    """
    packed_bytes = sum(v * word_count(v) * 8 for v in vertex_counts)
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if packed_bytes > physical:
        raise error(
            f"{packed_bytes / 2**30:.1f} GiB of packed rows is more than the "
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


def clear_bit_in_row(row: np.ndarray, c: int) -> None:
    row[c >> 6] &= np.uint64(~(1 << (c & 63)) & 0xFFFFFFFFFFFFFFFF)


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
