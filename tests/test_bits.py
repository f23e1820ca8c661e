import numpy as np

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
    comp = _bits.complement_rows(full[None, :], 70)
    assert _bits.row_popcounts(comp)[0] == 0
