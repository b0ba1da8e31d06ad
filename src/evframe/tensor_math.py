"""Dense tensor kernels, with the vector-Jacobian products fusion needs.

Forward ops work on plain numpy arrays (row-major, rank <= 4). Softmax and
the channel statistics each have a ``*_vjp`` taking the arrays its forward
used or returned, which the fusion backward chains by hand; fusion writes
its projections and their gradients as plain matrix products. There is one
softmax, ``softmax_rows_inplace``, unchecked and in place on finite float64
rows; ``softmax_rows`` is its checked form on a copy. Fusion's blocked
attention runs the in-place step in its reused score buffer, with
finiteness proven once per attention. ``conv2d`` runs forward only: the one
differentiated conv, fusion's 1x1 activation, is a plain matrix product.
Conv weights are held, and convolutions computed, in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BLOCK_BYTES, DomainError, ShapeError

CHANNEL_STATS_EPS = 1e-5


@dataclass
class ConvWeights:
    """Cross-correlation kernel (out_ch, in_ch, k_h, k_w) plus per-output bias, as float64."""

    kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if k.ndim != 4:
            raise ShapeError(f"kernel must be rank 4, got rank {k.ndim}")
        if b.shape != (k.shape[0],):
            raise ShapeError(f"bias shape {b.shape} does not match {k.shape[0]} outputs")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(b))):
            raise DomainError("conv weights must be finite")
        self.kernel = k
        self.bias = b


def philox(seed: int) -> np.random.Generator:
    """The package's one seeded generator: Philox keyed by the seed's low 64 bits."""
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))


def uniform_conv(rng: np.random.Generator, out_ch: int, in_ch: int, k: int) -> ConvWeights:
    """Fan-in uniform k x k conv: kernel, then bias, from U(+-1/sqrt(in_ch*k*k))."""
    bound = 1.0 / math.sqrt(in_ch * k * k)
    kernel = rng.uniform(-bound, bound, size=(out_ch, in_ch, k, k))
    bias = rng.uniform(-bound, bound, size=out_ch)
    return ConvWeights(kernel, bias)


# -- convolution --------------------------------------------------------------

def _conv_out_dims(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> tuple:
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel {kh}x{kw} does not fit {h}x{w} input with pad {pad}")
    return oh, ow


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    # (C, oh, ow, kh, kw) -> (C*kh*kw, oh*ow)
    return windows.transpose(0, 3, 4, 1, 2).reshape(xp.shape[0] * kh * kw, oh * ow)


def conv2d(x: np.ndarray, w: ConvWeights, stride: int = 1, pad: int = 0) -> np.ndarray:
    """2-D cross-correlation with bias.

    Output rows are computed in bands whose im2col copy, (C*kh*kw) x
    (rows*out_w) entries, fits ``BLOCK_BYTES`` (at least one row per band).
    A whole copy for a 64-channel 3x3 conv on an 87x65 map is ~26 MB; whether
    copies that size fit a free hole of the malloc heap depends on its layout
    (glibc raises its mmap threshold as large blocks are freed), so peak RSS
    of the same work differed by ~20 MB from one process to the next.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"conv input must be [C,H,W], got rank {x.ndim}")
    co, ci, kh, kw = w.kernel.shape
    if x.shape[0] != ci:
        raise ShapeError(f"input has {x.shape[0]} channels, kernel expects {ci}")
    if stride < 1 or pad < 0:
        raise DomainError(f"stride must be >= 1 and pad >= 0, got {stride}, {pad}")
    c, h, wid = x.shape
    oh, ow = _conv_out_dims(h, wid, kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    k = w.kernel.reshape(co, -1)
    y = np.empty((co, oh, ow))
    band = max(1, BLOCK_BYTES // (k.shape[1] * ow * y.itemsize))
    for r in range(0, oh, band):
        n = min(band, oh - r)
        rows = xp[:, r * stride:(r + n - 1) * stride + kh]
        y[:, r:r + n] = (k @ _im2col(rows, kh, kw, stride, n, ow)).reshape(co, n, ow)
    y += w.bias[:, None, None]
    return y


# -- softmax -------------------------------------------------------------------

def softmax_rows_inplace(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a finite float64 [B,N] array, written over it.

    Unchecked: the caller proves the rows finite. Max subtraction keeps exp
    from overflowing, and no pass allocates a B x N temporary.
    """
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a finite [N,M] array, as a new float64 array."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"softmax input must be [N,M], got rank {x.ndim}")
    if not np.all(np.isfinite(x)):
        raise DomainError("softmax input must be finite")
    return softmax_rows_inplace(x.astype(np.float64))


def softmax_rows_vjp(s: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Gradient through softmax given its output ``s``."""
    inner = (gy * s).sum(axis=1, keepdims=True)
    return s * (gy - inner)


# -- per-channel statistics ------------------------------------------------------

def channel_stats(x: np.ndarray):
    """Per-channel mean and epsilon-floored std over the spatial axes.

    sigma_c = sqrt(population_variance_c + CHANNEL_STATS_EPS), so a constant
    channel still has a usable positive scale.
    """
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1] * x.shape[2] < 1:
        raise ShapeError(f"channel_stats needs [C,H,W] with H*W >= 1, got {x.shape}")
    mu = x.mean(axis=(1, 2))
    var = x.var(axis=(1, 2))
    return mu, np.sqrt(var + CHANNEL_STATS_EPS)


def channel_stats_vjp(x: np.ndarray, sigma: np.ndarray, gmu: np.ndarray, gsigma: np.ndarray) -> np.ndarray:
    """Gradient wrt x given gradients on (mu, sigma).

    d mu_c / d x_i = 1/N; d sigma_c / d x_i = (x_i - mu_c) / (N * sigma_c).
    """
    n = x.shape[1] * x.shape[2]
    mu = x.mean(axis=(1, 2))
    gx = np.broadcast_to((gmu / n)[:, None, None], x.shape).copy()
    gx += (gsigma / (n * sigma))[:, None, None] * (x - mu[:, None, None])
    return gx


def relative_error(a: float, b: float) -> float:
    """|a - b| scaled by max(1, |a|, |b|) so near-zero gradients compare sanely."""
    return abs(a - b) / max(1.0, abs(a), abs(b))
