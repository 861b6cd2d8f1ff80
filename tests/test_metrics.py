import math

import numpy as np
import pytest

from fmmcodec import core, metrics
from fmmcodec.image import RasterImage

from golden import INDEX_BLOCK, ORIGINAL_BLOCK, SIGMA_INDEX, SIGMA_ORIGINAL


def gray(values) -> RasterImage:
    return RasterImage(np.asarray(values, dtype=np.uint8))


class TestMse:
    def test_identical_is_zero(self):
        img = gray(ORIGINAL_BLOCK)
        assert metrics.mse(img, img) == 0.0

    def test_single_sample(self):
        assert metrics.mse(gray([[255]]), gray([[253]])) == 4.0

    def test_symmetric(self):
        a, b = gray([[10, 20]]), gray([[30, 5]])
        assert metrics.mse(a, b) == metrics.mse(b, a) == (400 + 225) / 2

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics.mse(gray([[1]]), gray([[1, 2]]))
        with pytest.raises(ValueError, match="mismatch"):
            metrics.mse(gray([[1]]), RasterImage(np.zeros((1, 1, 3), dtype=np.uint8)))

    def test_random_quantization_error(self):
        # remainders are uniform, squared errors average (0+1+4+4+1)/5 = 2
        rng = np.random.default_rng(99)
        pixels = rng.integers(0, 256, (512, 512), dtype=np.uint8)
        img = gray(pixels)
        assert metrics.mse(img, gray(core.quantize_plane(pixels))) == pytest.approx(2.0, abs=0.05)


class TestPsnr:
    def test_rmse_two(self):
        # mse 4 against the 255 peak: 20 log10(127.5)
        value = metrics.psnr(gray([[0, 0]]), gray([[2, 2]]))
        assert value == pytest.approx(42.110204, abs=1e-3)

    def test_rmse_full_scale_is_zero(self):
        value = metrics.psnr(gray([[255]]), gray([[0]]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_lossless_marker(self):
        img = gray([[7]])
        assert metrics.psnr(img, img) is metrics.LOSSLESS
        assert math.isinf(metrics.psnr(img, img))

    def test_strictly_decreasing_in_rmse(self):
        values = [
            metrics.psnr(gray([[0] * 8]), gray([[err] * 8])) for err in range(1, 11)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCompressionRatio:
    def test_block_bits_ratio(self):
        assert metrics.compression_ratio(512, 256) == 2.0

    def test_equal_sizes(self):
        assert metrics.compression_ratio(640, 640) == 1.0

    def test_uniform_container(self):
        assert metrics.compression_ratio(64, 20) == pytest.approx(3.2)

    @pytest.mark.parametrize("pair", [(0, 5), (5, 0), (-1, 5)])
    def test_rejects_nonpositive(self, pair):
        with pytest.raises(ValueError):
            metrics.compression_ratio(*pair)


class TestStddev:
    def test_reference_blocks(self):
        assert metrics.stddev(ORIGINAL_BLOCK.ravel()) == pytest.approx(SIGMA_ORIGINAL, abs=5e-4)
        assert metrics.stddev(INDEX_BLOCK.ravel()) == pytest.approx(SIGMA_INDEX, abs=5e-6)

    def test_quantization_reduces_dispersion(self):
        assert metrics.stddev(INDEX_BLOCK.ravel()) < metrics.stddev(ORIGINAL_BLOCK.ravel())

    def test_constant(self):
        assert metrics.stddev([9, 9, 9, 9]) == 0.0

    def test_single_sample(self):
        assert metrics.stddev([42]) == 0.0

    def test_empty(self):
        with pytest.raises(ValueError):
            metrics.stddev([])

    def test_matches_sample_estimator(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, 500)
        assert metrics.stddev(data) == pytest.approx(float(np.std(data, ddof=1)), rel=1e-12)


class TestCompare:
    def test_report_consistency(self):
        rng = np.random.default_rng(21)
        pixels = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        original = gray(pixels)
        reconstructed = gray(core.quantize_plane(pixels))
        report = metrics.compare(original, reconstructed)
        assert report.rmse == pytest.approx(math.sqrt(report.mse), rel=1e-12)
        assert report.psnr == pytest.approx(20 * math.log10(255 / report.rmse), rel=1e-12)
        assert report.sigma_original == metrics.stddev(pixels.ravel())

    def test_lossless_report(self):
        img = gray([[50, 60]])
        report = metrics.compare(img, img)
        assert report.mse == report.rmse == 0.0
        assert report.psnr is metrics.LOSSLESS
