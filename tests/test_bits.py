import itertools

import numpy as np
import pytest

from satgraph import _bits
from satgraph.builder import _symmetrize_in_place


def reference_transpose(packed, nbits):
    bits = _bits.unpack_rows(packed, nbits)
    return _bits.pack_bits(np.ascontiguousarray(bits.T))


def test_symmetrize_in_place_matches_reference():
    rng = np.random.default_rng(3)
    for nbits in (1, 7, 63, 64, 65, 100, 200, 257, 640, 1000, 1025):
        upper = np.triu(rng.integers(0, 2, size=(nbits, nbits), dtype=np.uint8), k=1)
        packed = _bits.pack_bits(upper)
        expected = packed | reference_transpose(packed, nbits)
        _symmetrize_in_place(packed, nbits)
        assert np.array_equal(packed, expected), nbits


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(5)
    bits = (rng.random((5, 77)) < 0.4).astype(np.uint8)
    packed = _bits.pack_bits(bits)
    assert packed.shape == (5, 2)
    assert np.array_equal(_bits.unpack_rows(packed, 77), bits)


def test_row_int_round_trip():
    mask = (1 << 100) | (1 << 63) | 1
    row = _bits.int_to_row(mask, 128)
    assert _bits.row_to_int(row) == mask
    assert _bits.lowest_set_bit(row) == 0
    assert _bits.lowest_set_bit(np.zeros(2, dtype=np.uint64)) is None


def test_popcounts_and_full_row():
    full = _bits.full_row(70)
    assert _bits.row_popcounts(full[None, :])[0] == 70


def walk_prefixes_loop(choose, bits, prefixes, after):
    """First hole of the table of ``bits`` over the rows of :func:`_bits.walk_prefixes`, row by row.

    ``choose[s]`` is the item x position 0/1 matrix of kind s, ``bits`` the
    item x position matrix of the table.  Returns (P, choice, b, c) or None.
    """
    kinds, items, count = choose.shape
    for prefix in prefixes:
        if any(after[p] > q for p, q in zip(prefix, prefix[1:])):
            continue
        lo = int(after[prefix[-1]]) if prefix else 0
        for choice in itertools.product(range(kinds), repeat=len(prefix) + 1):
            common = np.ones(items, dtype=bool)
            for s, p in zip(choice, prefix):
                common &= choose[s][:, p].astype(bool)
            for b in range(lo, count):
                chosen = common & choose[choice[-1]][:, b].astype(bool)
                missed = ~bits[chosen].any(axis=0) & (np.arange(count) >= after[b])
                if missed.any():
                    return prefix, choice, b, int(np.argmax(missed))
    return None


def plant_hole(rng, choose, table_bits, size, after):
    """Clear, in ``table_bits``, a random position c for the items of a random row (P, choice, b), c >= after[b]."""
    kinds, items, count = choose.shape
    rows = [
        (prefix, b)
        for prefix in itertools.combinations(range(count), size)
        if all(after[p] <= q for p, q in zip(prefix, prefix[1:]))
        for b in range(int(after[prefix[-1]]) if prefix else 0, count)
        if after[b] < count
    ]
    if not rows:
        return
    prefix, b = rows[int(rng.integers(len(rows)))]
    chosen = np.ones(items, dtype=bool)
    for s, p in zip(rng.integers(0, kinds, size + 1), prefix + (b,)):
        chosen &= choose[s][:, p].astype(bool)
    table_bits[chosen, rng.integers(after[b], count)] = 0


@pytest.mark.parametrize("block", [1, 8, 64, None])
def test_walk_prefixes_matches_row_by_row_loop(block, monkeypatch):
    # random kernels with 1 or 2 kinds and prefixes of 0 to 2 positions;
    # `after` either steps by one or jumps over blocks of positions, as
    # lifting's distinct bases do; dense rows leave few holes but the
    # planted ones, which fall anywhere in the walk
    if block is not None:
        monkeypatch.setattr(_bits, "BLOCK_WORDS", block)
    rng = np.random.default_rng(17)
    hit_batches = []
    for case in range(24):
        kinds, size = 1 + case % 2, case % 3
        count = int(rng.integers(5, 70 if size < 2 else 16))
        items = int(rng.integers(4, 40))
        choose = (rng.random((kinds, items, count)) < rng.uniform(0.6, 0.98)).astype(np.uint8)
        bits = [(rng.random((items, count)) < 0.9).astype(np.uint8) for _ in range(2)]
        if case % 4 < 2:
            after = np.arange(1, count + 1)
        else:
            bases = np.sort(rng.integers(0, count // 2 + 1, count))
            after = np.searchsorted(bases, bases, side="right")
        for t in range(case // 6 % 3):
            plant_hole(rng, choose, bits[t], size, after)
        index = np.packbits(choose, axis=1, bitorder="little")
        for t, table_bits in enumerate(bits):
            table = _bits.or_tables(_bits.pack_bits(table_bits))
            want = walk_prefixes_loop(choose, table_bits, itertools.combinations(range(count), size), after)
            got = None
            for j, found in enumerate(_bits.walk_prefixes(table, index, itertools.combinations(range(count), size), after)):
                if found is not None:
                    got = found
                    hit_batches.append(j)
                    break
            assert got == want, (case, t)
    # tables without a hole, and holes in later batches, occur
    assert len(hit_batches) < 48
    if block == 1:
        assert max(hit_batches) > 0
