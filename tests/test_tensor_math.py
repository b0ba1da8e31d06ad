"""Forward/backward agreement for the small tensor-op kernel set.

Forward passes are checked against naive loop oracles, backward passes
against central finite differences of an inner-product loss.
"""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evframe import DomainError, ShapeError, tensor_math
from evframe.tensor_math import (
    CHANNEL_STATS_EPS,
    ConvWeights,
    channel_stats,
    channel_stats_vjp,
    conv2d,
    relative_error,
    softmax_rows,
)
from conftest import copied_band_conv, numeric_grad, philox

GRAD_TOL = 1e-6


def naive_conv(x, kernel, bias, stride, pad):
    """Reference cross-correlation, plain loops."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, i * stride : i * stride + kh, j * stride : j * stride + kw]
                out[o, i, j] = np.sum(patch * kernel[o]) + bias[o]
    return out


def check_grad(analytic, numeric):
    worst = max(
        relative_error(float(a), float(n))
        for a, n in zip(analytic.ravel(), numeric.ravel())
    )
    assert worst < GRAD_TOL, f"worst relative error {worst:.3e}"


# -- conv2d ------------------------------------------------------------------------


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0), (3, 2)])
def test_conv_matches_naive_loops(stride, pad):
    rng = philox(40 + stride * 10 + pad)
    x = rng.standard_normal((3, 7, 6))
    w = ConvWeights(rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4))
    got = conv2d(x, w, stride=stride, pad=pad)
    want = naive_conv(x, w.kernel, w.bias, stride, pad)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-12)


def test_one_by_one_identity_kernel_passes_input_through(rng):
    x = rng.standard_normal((2, 5, 5))
    eye = np.eye(2).reshape(2, 2, 1, 1)
    out = conv2d(x, ConvWeights(eye, np.zeros(2)))
    assert np.allclose(out, x, atol=1e-15)


def test_conv_rejects_kernel_larger_than_padded_input(rng):
    x = rng.standard_normal((1, 2, 2))
    w = ConvWeights(rng.standard_normal((1, 1, 5, 5)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d(x, w)


def test_conv_rejects_channel_mismatch(rng):
    x = rng.standard_normal((3, 4, 4))
    w = ConvWeights(rng.standard_normal((1, 2, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d(x, w)


def test_float32_weights_give_the_float64_output_bit_for_bit(rng):
    x = rng.standard_normal((2, 9, 9))
    k32 = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    b32 = rng.standard_normal(3).astype(np.float32)
    w = ConvWeights(k32, b32)
    assert (w.kernel.dtype, w.bias.dtype) == (np.float64, np.float64)
    want = conv2d(x, ConvWeights(k32.astype(np.float64), b32.astype(np.float64)), pad=1)
    got = conv2d(x, w, pad=1)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    # a float32 input is computed, and returned, in float64 too
    got32 = conv2d(x.astype(np.float32), w, pad=1)
    assert got32.dtype == np.float64
    assert got32.tobytes() == conv2d(x.astype(np.float32).astype(np.float64), w, pad=1).tobytes()


# -- banded conv forward ----------------------------------------------------------------


def spy_band_rows(monkeypatch):
    """Record the output rows of every im2col band the forward builds."""
    seen = []
    real = tensor_math._im2col

    def spy(xp, kh, kw, stride, oh, ow):
        seen.append(oh)
        return real(xp, kh, kw, stride, oh, ow)

    monkeypatch.setattr(tensor_math, "_im2col", spy)
    return seen


def set_band_rows(monkeypatch, c_in, ow, rows):
    """Budget exactly ``rows`` output rows of a 3x3 float64 im2col band."""
    monkeypatch.setattr(tensor_math, "BLOCK_BYTES", c_in * 9 * ow * rows * 8)


# (h, w, stride, pad, rows per band, rows of each band)
BAND_CASES = [
    pytest.param(9, 6, 1, 1, 4, [4, 4, 1], id="ragged-last-band"),
    pytest.param(8, 6, 1, 1, 4, [4, 4], id="exact-multiple"),
    pytest.param(7, 6, 2, 1, 1, [1, 1, 1, 1], id="one-row-bands-stride-2"),
    pytest.param(11, 5, 3, 2, 2, [2, 2, 1], id="stride-3-pad-2"),
    pytest.param(5, 4, 1, 0, 16, [3], id="one-band"),
]


@pytest.mark.parametrize("h, wdt, stride, pad, rows, bands", BAND_CASES)
def test_banded_conv_matches_naive_loops(monkeypatch, h, wdt, stride, pad, rows, bands):
    rng = philox(70)
    x = rng.standard_normal((3, h, wdt))
    w = ConvWeights(rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4))
    ow = (wdt + 2 * pad - 3) // stride + 1
    set_band_rows(monkeypatch, 3, ow, rows)
    seen = spy_band_rows(monkeypatch)
    got = conv2d(x, w, stride=stride, pad=pad)
    assert seen == bands
    want = naive_conv(x, w.kernel, w.bias, stride, pad)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-12


def test_band_smaller_than_one_row_still_takes_a_row(monkeypatch, rng):
    x = rng.standard_normal((2, 5, 4))
    w = ConvWeights(rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3))
    monkeypatch.setattr(tensor_math, "BLOCK_BYTES", 1)
    seen = spy_band_rows(monkeypatch)
    got = conv2d(x, w, stride=1, pad=1)
    assert seen == [1] * 5
    assert np.abs(got - naive_conv(x, w.kernel, w.bias, 1, 1)).max() < 1e-12


@pytest.mark.parametrize("stride, pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
@pytest.mark.parametrize("rows", [1, 3, 64])
def test_bands_written_in_place_give_the_bytes_of_copied_bands(monkeypatch, stride, pad, rows):
    # 16 -> 8 channels on a 13x11 map: one-row bands, ragged bands, one band
    rng = philox(73)
    x = rng.standard_normal((16, 13, 11))
    w = ConvWeights(rng.standard_normal((8, 16, 3, 3)), rng.standard_normal(8))
    ow = (11 + 2 * pad - 3) // stride + 1
    set_band_rows(monkeypatch, 16, ow, rows)
    seen = spy_band_rows(monkeypatch)
    got = conv2d(x, w, stride=stride, pad=pad)
    oh = (13 + 2 * pad - 3) // stride + 1
    assert len(seen) == -(-oh // rows)
    assert got.tobytes() == copied_band_conv(x, w, stride, pad).tobytes()


def test_conv_memory_stays_within_one_band():
    # the detector head's first-level conv: 64 -> 64 channels, 3x3, on the
    # 65x87 map of a 346x260 frame; its whole im2col copy alone is ~26 MiB
    rng = philox(72)
    x = rng.standard_normal((64, 65, 87))
    w = ConvWeights(rng.standard_normal((64, 64, 3, 3)), rng.standard_normal(64))
    tracemalloc.start()
    try:
        conv2d(x, w, stride=1, pad=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_conv_weights_reject_non_finite():
    with pytest.raises(DomainError):
        ConvWeights(np.full((1, 1, 1, 1), np.nan), np.zeros(1))


# -- softmax ------------------------------------------------------------------------


def test_softmax_rows_sum_to_one(rng):
    s = softmax_rows(rng.standard_normal((20, 7)) * 30.0)
    assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-12
    assert (s > 0).all()


def test_softmax_is_shift_invariant(rng):
    x = rng.standard_normal((5, 4))
    assert np.allclose(softmax_rows(x), softmax_rows(x + 100.0), atol=1e-12)


def test_softmax_survives_large_logits():
    s = softmax_rows(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.isfinite(s).all()
    assert s[0, 0] == pytest.approx(1.0)


def test_softmax_rejects_non_finite_input():
    with pytest.raises(DomainError):
        softmax_rows(np.array([[np.inf, 0.0]]))


def test_softmax_rows_is_shift_exp_divide_on_a_float64_copy(rng):
    x = rng.standard_normal((6, 9)) * 20.0
    before = x.copy()
    s = softmax_rows(x)
    assert np.array_equal(x, before)
    y = x - x.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    assert s.tobytes() == (y / y.sum(axis=1, keepdims=True)).tobytes()
    ints = np.array([[0, 1, 2], [5, 5, 5]])
    assert softmax_rows(ints).tobytes() == softmax_rows(ints.astype(np.float64)).tobytes()


@pytest.mark.parametrize("shape", [(3, 0), (0, 0), (3,), (1, 2, 3)])
def test_softmax_rows_refuses_what_is_not_rows_of_columns(shape):
    message = f"softmax input must be [N,M] with M >= 1, got shape {shape}"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        softmax_rows(np.zeros(shape))


def test_softmax_rows_with_no_row_is_empty():
    assert softmax_rows(np.zeros((0, 3))).shape == (0, 3)


def test_softmax_rows_of_finite_extremes_is_one_hot_without_a_warning():
    # 1e308 - (-1e308) is past float64's range: the shifted entry is -inf,
    # weight 0, and RuntimeWarnings are errors here
    s = softmax_rows(np.array([[1e308, -1e308], [-1.7e308, 1.7e308]]))
    assert s.tobytes() == np.array([[1.0, 0.0], [0.0, 1.0]]).tobytes()


# -- channel statistics ------------------------------------------------------------


def test_channel_stats_match_numpy_population_moments(rng):
    x = rng.standard_normal((5, 4, 3))
    mu, sigma = channel_stats(x)
    assert np.allclose(mu, x.mean(axis=(1, 2)), atol=1e-12)
    assert np.allclose(sigma, np.sqrt(x.var(axis=(1, 2)) + CHANNEL_STATS_EPS), atol=1e-12)


def test_channel_stats_epsilon_floors_constant_channels():
    x = np.ones((2, 3, 3))
    _, sigma = channel_stats(x)
    assert np.allclose(sigma, np.sqrt(CHANNEL_STATS_EPS))


def test_channel_stats_backward_matches_finite_differences(rng):
    x = rng.standard_normal((3, 4, 2))
    gmu = rng.standard_normal(3)
    gsigma = rng.standard_normal(3)

    def loss(_):
        mu, sigma = channel_stats(x)
        return float(np.sum(mu * gmu) + np.sum(sigma * gsigma))

    _, sigma = channel_stats(x)
    dx = channel_stats_vjp(x, sigma, gmu, gsigma)
    check_grad(dx, numeric_grad(loss, x))


def test_relative_error_uses_unit_floor():
    assert relative_error(1e-9, 0.0) == pytest.approx(1e-9)
    assert relative_error(200.0, 100.0) == pytest.approx(0.5)


def test_the_package_builds_its_generator_in_one_place():
    # every seeded stream goes through tensor_math.philox
    src = Path(tensor_math.__file__).parent
    sites = {p.name: p.read_text().count("Philox(") for p in src.glob("*.py")}
    assert {name: n for name, n in sites.items() if n} == {"tensor_math.py": 1}
