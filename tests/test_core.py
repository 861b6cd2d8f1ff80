import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fmmcodec import container, core, metrics
from fmmcodec.bitstream import decode_plane, encode_plane
from fmmcodec.errors import ModulusError
from fmmcodec.image import RasterImage

from golden import INDEX_BLOCK, ORIGINAL_BLOCK, QUANTIZED_BLOCK


def nearest_multiple(value: int, k: int) -> int:
    """Brute-force oracle: closest multiple of k inside [0, 255]."""
    multiples = range(0, 256, k)
    return min(multiples, key=lambda m: abs(m - value))


class TestValidateModulus:
    def test_accepts_odd_range(self):
        for k in (3, 5, 7, 9, 127):
            assert core.validate_modulus(k) == k

    @pytest.mark.parametrize("k", [2, 4, 0, -5, 1, 129, 255])
    def test_rejects_even_or_out_of_range(self, k):
        with pytest.raises(ModulusError):
            core.validate_modulus(k)

    def test_rejects_non_integers(self):
        with pytest.raises(ModulusError):
            core.validate_modulus(5.0)


class TestQuantize:
    def test_known_samples(self):
        # remainder map: 0 -> +0, 1 -> -1, 2 -> -2, 3 -> +2, 4 -> +1
        assert core.quantize_sample(220) == 220
        assert core.quantize_sample(221) == 220
        assert core.quantize_sample(222) == 220
        assert core.quantize_sample(223) == 225
        assert core.quantize_sample(224) == 225
        assert core.quantize_sample(3) == 5
        assert core.quantize_sample(17) == 15
        assert core.quantize_sample(0) == 0
        assert core.quantize_sample(254) == 255
        assert core.quantize_sample(255) == 255

    def test_exhaustive_default_modulus(self):
        for v in range(256):
            assert core.quantize_sample(v) == nearest_multiple(v, 5)

    @pytest.mark.parametrize("k", [3, 7, 9, 11, 127])
    def test_exhaustive_other_moduli(self, k):
        for v in range(256):
            assert core.quantize_sample(v, k) == nearest_multiple(v, k)

    def test_index_table_is_the_validated_rule(self):
        # the encoder quantizes by this table and reads W from its last byte, 255 // k; a
        # float modulus equal to a cached one must still be rejected
        for k in range(3, 128, 2):
            table = core.index_table(k)
            assert [index * k for index in table] == [nearest_multiple(v, k) for v in range(256)]
            assert table[-1] == 255 // k
        with pytest.raises(ModulusError):
            core.index_table(5.0)

    def test_top_of_range_clamps(self):
        # 255 % 13 = 8 > 13 // 2, so the nearest multiple of 13 to 255
        # would be 260; the in-range multiple 247 is used instead.
        assert core.quantize_sample(255, 13) == 247

    def test_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError):
            core.quantize_sample(256)
        with pytest.raises(ValueError):
            core.quantize_sample(-1)

    def test_plane_matches_scalar(self):
        rng = np.random.default_rng(3)
        plane = rng.integers(0, 256, (16, 9), dtype=np.uint8)
        out = core.quantize_plane(plane, 5)
        assert out.dtype == np.uint8
        for v, q in zip(plane.ravel(), out.ravel()):
            assert q == core.quantize_sample(int(v), 5)

    def test_plane_is_idempotent(self):
        rng = np.random.default_rng(4)
        plane = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        once = core.quantize_plane(plane, 7)
        assert np.array_equal(core.quantize_plane(once, 7), once)

    def test_error_bound_is_exact_for_every_modulus(self):
        # samples above the largest multiple of k cannot round up, so the
        # bound is max(k // 2, 255 % k), not k // 2; it is attained for all k,
        # and it gives every k the PSNR floor 20 log10(255 / bound)
        samples = np.arange(256, dtype=np.uint8)
        beyond_half = 0
        for k in range(3, 128, 2):
            quantized = core.quantize_plane(samples, k)
            error = np.abs(quantized.astype(np.int16) - samples)
            bound = max(k // 2, 255 % k)
            assert int(error.max()) == bound
            psnr = metrics.psnr(RasterImage(samples[np.newaxis]), RasterImage(quantized[np.newaxis]))
            assert psnr >= 20 * math.log10(255 / bound)
            beyond_half += 255 % k > k // 2
        assert beyond_half == 21

    def test_indices_fuse_quantize_and_divide(self):
        samples = np.arange(256, dtype=np.uint8)
        for k in range(3, 128, 2):
            fused = core.quantize_indices(samples, k)
            assert np.array_equal(fused, core.to_indices(core.quantize_plane(samples, k), k))
            assert [int(i) * k for i in fused] == [nearest_multiple(v, k) for v in range(256)]

    def test_all_zeros_fixed_point(self):
        zeros = np.zeros((4, 4), dtype=np.uint8)
        assert np.array_equal(core.quantize_plane(zeros), zeros)

    @pytest.mark.parametrize(
        "plane",
        [
            np.arange(256 * 3, dtype=np.uint8).reshape(16, 16, 3)[:, :, 1],
            np.arange(256, dtype=np.uint8).reshape(16, 16)[::3, ::-2],
            np.arange(256, dtype=np.int64).reshape(8, 32).T,
            np.zeros((0, 7), dtype=np.uint8),
        ],
        ids=["channel-view", "strided-view", "int64", "zero-size"],
    )
    def test_indices_are_a_new_writable_array(self, plane):
        # callers write into the indices, so they must own a C-contiguous uint8 array
        out = core.quantize_indices(plane, 7)
        assert out.dtype == np.uint8 and out.shape == plane.shape
        assert out.flags.c_contiguous and out.flags.owndata and out.flags.writeable
        expected = [nearest_multiple(int(v), 7) // 7 for v in plane.ravel()]
        assert out.ravel().tolist() == expected
        out[...] = 0

    def test_indices_of_a_channel_view_hold_two_bytes_per_sample(self):
        # one copy of the samples and the translated indices; a uint16 copy (3 B/sample)
        # must not pass
        rng = np.random.default_rng(23)
        plane = RasterImage(rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)).plane(1)
        tracemalloc.start()
        try:
            core.quantize_indices(plane)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * plane.size


class TestIndices:
    def test_roundtrip(self):
        quantized = core.quantize_plane(ORIGINAL_BLOCK, 5)
        indices = core.to_indices(quantized, 5)
        assert np.array_equal(core.from_indices(indices, 5), quantized)

    def test_known_block(self):
        assert np.array_equal(core.to_indices(QUANTIZED_BLOCK, 5), INDEX_BLOCK)

    def test_endpoints(self):
        assert core.to_indices(np.array([[255, 0]], dtype=np.uint8), 5).tolist() == [[51, 0]]
        assert core.from_indices(np.array([[44, 51, 0]], dtype=np.uint8), 5).tolist() == [
            [220, 255, 0]
        ]

    def test_to_indices_rejects_non_multiples(self):
        with pytest.raises(ValueError):
            core.to_indices(np.array([[7]], dtype=np.uint8), 5)

    def test_from_indices_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            core.from_indices(np.array([[52]], dtype=np.uint8), 5)
        with pytest.raises(ValueError):
            core.from_indices(np.array([[86]], dtype=np.uint8), 3)

    @pytest.mark.parametrize("k,top", [(3, 85), (5, 51), (7, 36), (9, 28), (127, 2)])
    def test_max_index(self, k, top):
        assert core.max_index(k) == top


class TestBlocks:
    """The 8x8 tiling, as the codec applies it: the header scan behind fmm inspect."""

    @staticmethod
    def walk(plane, k=5):
        """(row, col, cells, min, max_delta) of every block of a plane, as fmm inspect reads them."""
        plane = np.asarray(plane, dtype=np.uint8)
        blob = container.compress(RasterImage(plane * np.uint8(k)), k)
        return [fields[1:6] for fields in container.block_headers(blob)]

    @classmethod
    def tiles(cls, plane, k=5):
        """(row, col, cells) of every block of a plane, in stream order."""
        return [block[:3] for block in cls.walk(plane, k)]

    @classmethod
    def only_block(cls, plane, k=5):
        """(min, max_delta) of a one-block plane; max_delta is 0 when repeated."""
        (block,) = cls.walk(plane, k)
        return block[3:5]

    def test_grid_exact_fit(self):
        grid = self.tiles(np.zeros((16, 8)))
        assert grid == [(0, 0, 8 * 8), (1, 0, 8 * 8)]

    def test_grid_partial_edges(self):
        grid = self.tiles(np.zeros((13, 21)))
        assert len(grid) == 2 * 3
        assert grid[0] == (0, 0, 8 * 8)
        assert grid[2] == (0, 2, 8 * 5)
        assert grid[-1] == (1, 2, 5 * 5)

    def test_grid_single_pixel(self):
        assert self.tiles([[0]]) == [(0, 0, 1 * 1)]

    def test_split_10x10(self):
        plane = np.arange(100, dtype=np.uint8).reshape(10, 10) % 52
        assert self.tiles(plane) == [(0, 0, 8 * 8), (0, 1, 8 * 2), (1, 0, 2 * 8), (1, 1, 2 * 2)]
        assert np.array_equal(decode_plane(encode_plane(plane), 10, 10), plane)

    def test_split_16x16(self):
        grid = self.tiles(np.zeros((16, 16)))
        assert len(grid) == 4
        assert all(cells == 8 * 8 for _, _, cells in grid)

    def test_split_exact_block_is_identity(self):
        plane = np.arange(64, dtype=np.uint8).reshape(8, 8)
        assert self.tiles(plane, k=3) == [(0, 0, 8 * 8)]
        assert np.array_equal(decode_plane(encode_plane(plane, 3), 8, 8, 3), plane)

    @given(
        height=st.integers(min_value=1, max_value=40),
        width=st.integers(min_value=1, max_value=40),
    )
    def test_split_assemble_roundtrip(self, height, width):
        rng = np.random.default_rng(height * 64 + width)
        plane = rng.integers(0, 52, (height, width), dtype=np.uint8)
        stream = encode_plane(plane)
        assert len(self.tiles(plane)) == -(-height // 8) * -(-width // 8)
        rebuilt = decode_plane(stream, height, width)
        assert np.array_equal(rebuilt, plane)

    def test_block_stats_mixed(self):
        assert self.only_block(INDEX_BLOCK) == (42, 8)

    def test_block_stats_uniform(self):
        assert self.only_block(np.full((8, 8), 11)) == (11, 0)

    def test_block_stats_single_cell(self):
        assert self.only_block([[7]]) == (7, 0)

    def test_block_stats_empty(self):
        with pytest.raises(ValueError):
            encode_plane(np.zeros((0, 0), dtype=np.uint8))
