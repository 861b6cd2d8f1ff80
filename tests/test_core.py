import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fmmcodec import container, core, metrics
from fmmcodec.bitstream import append_samples, decode_plane
from fmmcodec.errors import ModulusError
from fmmcodec.image import RasterImage

from golden import INDEX_BLOCK, ORIGINAL_BLOCK, QUANTIZED_BLOCK
from streams import encode_indices


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
        # remainder map: 0 -> +0, 1 -> -1, 2 -> -2, 3 -> +2, 4 -> +1; a scalar is a 0-d plane
        for value, quantized in [(220, 220), (221, 220), (222, 220), (223, 225), (224, 225),
                                 (3, 5), (17, 15), (0, 0), (254, 255), (255, 255)]:
            assert core.quantize_plane(value) == quantized

    def test_exhaustive_default_modulus(self):
        for v in range(256):
            assert core.quantize_plane(v) == nearest_multiple(v, 5)

    @pytest.mark.parametrize("k", [3, 7, 9, 11, 127])
    def test_exhaustive_other_moduli(self, k):
        for v in range(256):
            assert core.quantize_plane(v, k) == nearest_multiple(v, k)

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
        assert core.quantize_plane(255, 13) == 247

    def test_rejects_out_of_range_samples(self):
        for bad in (256, -1, [[0, 256]], np.array([-1, 3], dtype=np.int8)):
            with pytest.raises(ValueError, match=r"samples must lie in \[0, 255\]"):
                core.quantize_plane(bad)
        with pytest.raises(ValueError, match="samples must be integers"):
            core.quantize_plane(np.zeros(3))

    def test_plane_matches_scalar(self):
        rng = np.random.default_rng(3)
        plane = rng.integers(0, 256, (16, 9), dtype=np.uint8)
        out = core.quantize_plane(plane, 5)
        assert out.dtype == np.uint8
        for v, q in zip(plane.ravel(), out.ravel()):
            assert q == core.quantize_plane(int(v), 5) == nearest_multiple(int(v), 5)
        # channel and strided views, int64 and zero-size planes, for every modulus
        for other in [
            np.arange(256 * 3, dtype=np.uint8).reshape(16, 16, 3)[:, :, 1],
            np.arange(256, dtype=np.uint8).reshape(16, 16)[::3, ::-2],
            np.arange(256, dtype=np.int64).reshape(8, 32).T,
            np.zeros((0, 7), dtype=np.uint8),
        ]:
            for k in range(3, 128, 2):
                out = core.quantize_plane(other, k)
                assert out.dtype == np.uint8 and out.shape == other.shape
                expected = [nearest_multiple(int(v), k) for v in other.ravel()]
                assert out.ravel().tolist() == expected

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
        # the encoder's table is the quantize stage and the divide in one lookup
        samples = np.arange(256, dtype=np.uint8)
        for k in range(3, 128, 2):
            table = np.frombuffer(core.index_table(k), np.uint8)
            assert np.array_equal(table, core.quantize_plane(samples, k) // k)
            assert [int(i) * k for i in table] == [nearest_multiple(v, k) for v in range(256)]

    def test_all_zeros_fixed_point(self):
        zeros = np.zeros((4, 4), dtype=np.uint8)
        assert np.array_equal(core.quantize_plane(zeros), zeros)


class TestIndices:
    """The divide stage: index_table(k) maps each sample straight to its quantized value / k."""

    def test_roundtrip(self):
        quantized = core.quantize_plane(ORIGINAL_BLOCK, 5)
        indices = np.frombuffer(core.index_table(5), np.uint8)[ORIGINAL_BLOCK]
        assert np.array_equal(indices * np.uint8(5), quantized)
        assert np.array_equal(core.quantize_plane(quantized, 5), quantized)

    def test_known_block(self):
        table = np.frombuffer(core.index_table(5), np.uint8)
        assert np.array_equal(table[QUANTIZED_BLOCK], INDEX_BLOCK)

    def test_endpoints(self):
        table = core.index_table(5)
        assert [table[v] for v in (255, 0, 220)] == [51, 0, 44]
        assert core.quantize_plane([[220, 255, 0]], 5).tolist() == [[220, 255, 0]]

    @pytest.mark.parametrize("k,top", [(3, 85), (5, 51), (7, 36), (9, 28), (127, 2)])
    def test_max_index(self, k, top):
        assert core.index_table(k)[-1] == top


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
        assert np.array_equal(decode_plane(encode_indices(plane), 10, 10), plane)

    def test_split_16x16(self):
        grid = self.tiles(np.zeros((16, 16)))
        assert len(grid) == 4
        assert all(cells == 8 * 8 for _, _, cells in grid)

    def test_split_exact_block_is_identity(self):
        plane = np.arange(64, dtype=np.uint8).reshape(8, 8)
        assert self.tiles(plane, k=3) == [(0, 0, 8 * 8)]
        assert np.array_equal(decode_plane(encode_indices(plane, 3), 8, 8, 3), plane)

    @given(
        height=st.integers(min_value=1, max_value=40),
        width=st.integers(min_value=1, max_value=40),
    )
    def test_split_assemble_roundtrip(self, height, width):
        rng = np.random.default_rng(height * 64 + width)
        plane = rng.integers(0, 52, (height, width), dtype=np.uint8)
        stream = encode_indices(plane)
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
            append_samples(bytearray(), np.zeros((0, 0), dtype=np.uint8))
