"""Coverage for smaller reference functions and rendering helpers."""

import numpy as np
import pytest

from repro.apps.srad import srad_reference
from repro.bench.report import format_cell


class TestSradReference:
    def test_diffusion_smooths_the_image(self):
        rng = np.random.default_rng(0)
        img = np.exp(rng.random((32, 32), dtype=np.float32))
        out = srad_reference(img, 8)
        assert out.std() < img.std()

    def test_positivity_preserved(self):
        rng = np.random.default_rng(1)
        img = np.exp(rng.random((16, 16), dtype=np.float32))
        out = srad_reference(img, 4)
        assert (out > 0).all()

    def test_zero_iterations_is_identity(self):
        img = np.exp(np.ones((8, 8), dtype=np.float32))
        out = srad_reference(img, 0)
        assert np.allclose(out, img)

    def test_uniform_image_is_fixed_point(self):
        img = np.full((8, 8), 2.5, dtype=np.float32)
        out = srad_reference(img, 5)
        assert np.allclose(out, img, rtol=1e-5)


class TestFormatCell:
    def test_float_precision(self):
        assert format_cell(1.23456) == "1.235"

    def test_nan_renders_dash(self):
        assert format_cell(float("nan")) == "-"

    def test_strings_pass_through(self):
        assert format_cell("abc") == "abc"

    def test_ints_pass_through(self):
        assert format_cell(42) == "42"
