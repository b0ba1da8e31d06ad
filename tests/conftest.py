"""Shared helpers: seeded generators and synthetic fixture builders."""

import json
import os

import numpy as np
import pytest
import scipy

from evframe import CameraRig, ImagePNM, tensor_math


def pytest_report_header(config):
    # BLAS results, and so some pinned digests, depend on its thread count and
    # on the numpy and scipy versions
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (
        f"cpu_count: {os.cpu_count()}, OPENBLAS_NUM_THREADS: {threads}, "
        f"numpy: {np.__version__}, scipy: {scipy.__version__}"
    )


def philox(seed: int) -> np.random.Generator:
    """``Generator(Philox(seed))``: the seed goes in as Philox's seed, not its key,
    so for the same seed this stream differs from ``evframe.tensor_math.philox``."""
    return np.random.Generator(np.random.Philox(seed))


def numeric_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f(x); mutates x transiently."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def copied_band_conv(x: np.ndarray, w, stride: int, pad: int) -> np.ndarray:
    """Oracle for ``conv2d``'s bytes: the same bands, but each band's product
    is allocated, then copied into its output rows."""
    co, ci, kh, kw = w.kernel.shape
    oh, ow = tensor_math._conv_out_dims(x.shape[1], x.shape[2], kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    k = w.kernel.reshape(co, -1)
    y = np.empty((co, oh, ow))
    band = max(1, tensor_math.BLOCK_BYTES // (k.shape[1] * ow * 8))
    for r in range(0, oh, band):
        n = min(band, oh - r)
        rows = xp[:, r * stride:(r + n - 1) * stride + kh]
        y[:, r:r + n] = (k @ tensor_math._im2col(rows, kh, kw, stride, n, ow)).reshape(co, n, ow)
    y += w.bias[:, None, None]
    return y


def gray_image(rng, width: int, height: int) -> ImagePNM:
    pixels = rng.integers(0, 256, size=(height, width, 1)).astype(np.uint8)
    return ImagePNM(width=width, height=height, channels=1, pixels=pixels)


def rgb_image(rng, width: int, height: int) -> ImagePNM:
    pixels = rng.integers(0, 256, size=(height, width, 3)).astype(np.uint8)
    return ImagePNM(width=width, height=height, channels=3, pixels=pixels)


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def small_rig(angle_rgb=0.01, angle_event=-0.015, angle_between=0.02) -> CameraRig:
    return CameraRig(
        k_rgb=np.array([[120.0, 0.0, 32.0], [0.0, 115.0, 24.0], [0.0, 0.0, 1.0]]),
        k_event=np.array([[90.0, 0.0, 30.0], [0.0, 95.0, 22.0], [0.0, 0.0, 1.0]]),
        r_rgb=rot_z(angle_rgb),
        r_event=rot_z(angle_event),
        r_event_rgb=rot_z(angle_between),
    )


def calibration_json(rig: CameraRig) -> bytes:
    """The rig as a calibration file: five 9-element row-major matrices."""
    doc = {
        "K_rgb": rig.k_rgb.ravel().tolist(),
        "K_event": rig.k_event.ravel().tolist(),
        "R_rgb": rig.r_rgb.ravel().tolist(),
        "R_event": rig.r_event.ravel().tolist(),
        "R_event_rgb": rig.r_event_rgb.ravel().tolist(),
    }
    return json.dumps(doc, indent=2).encode("utf-8")


@pytest.fixture
def rng():
    return philox(12345)
