"""Fifteen image corruption types at five severities each.

Four families: noise (gaussian, shot, impulse), blur (defocus, glass, motion,
zoom), weather (fog, snow, frost, brightness), digital (contrast, elastic,
pixelate, jpeg). Every corruption preserves dims/channels, clamps to byte
range, and is a pure function of (image, type, severity, seed); randomness
comes from a counter-based generator so outputs are identical across runs
and platforms. Severity parameter tables are authored here and are strictly
monotone in the degradation direction. Each type's renderer is found by
name: ``corrupt_<value>`` renders ``CorruptionType(value)``. The renderers
that use scipy.ndimage import it locally, so that only a corruption render
pays for SciPy and ``import evframe`` loads NumPy alone.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DomainError, EvframeError, ShapeError, check_count
from .formats_io import ImagePNM, decode_image, encode_image
from .tensor_math import philox

MASK64 = 0xFFFFFFFFFFFFFFFF
MANIFEST_NAME = "manifest.jsonl"
# Most render threads corrupt_dataset accepts; the pool never exceeds the
# number of variants either.
MAX_WORKERS = 128


class CorruptionType(Enum):
    GAUSSIAN_NOISE = "gaussian_noise"
    SHOT_NOISE = "shot_noise"
    IMPULSE_NOISE = "impulse_noise"
    DEFOCUS_BLUR = "defocus_blur"
    GLASS_BLUR = "glass_blur"
    MOTION_BLUR = "motion_blur"
    ZOOM_BLUR = "zoom_blur"
    FOG = "fog"
    SNOW = "snow"
    FROST = "frost"
    BRIGHTNESS = "brightness"
    CONTRAST = "contrast"
    ELASTIC = "elastic"
    PIXELATE = "pixelate"
    JPEG_COMPRESSION = "jpeg_compression"


# Each type has severities 1..SEVERITY_COUNT.
SEVERITY_COUNT = 5


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption instance: type, severity 1..5, RNG seed; immutable once checked."""

    ctype: CorruptionType
    severity: int
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.ctype, CorruptionType):
            raise DomainError(f"unknown corruption type {self.ctype!r}")
        object.__setattr__(self, "severity", check_count("severity", self.severity))
        if self.severity > SEVERITY_COUNT:
            raise DomainError(f"severity must be an integer in [1,{SEVERITY_COUNT}], got {self.severity}")


SEVERITY_TABLE = {
    CorruptionType.GAUSSIAN_NOISE: tuple({"sigma": s} for s in (0.04, 0.08, 0.12, 0.18, 0.26)),
    CorruptionType.SHOT_NOISE: tuple({"photons": p} for p in (60.0, 25.0, 12.0, 5.0, 3.0)),
    CorruptionType.IMPULSE_NOISE: tuple({"rate": r} for r in (0.03, 0.06, 0.09, 0.17, 0.27)),
    CorruptionType.DEFOCUS_BLUR: tuple({"radius": r} for r in (2, 3, 4, 6, 8)),
    CorruptionType.GLASS_BLUR: (
        {"sigma": 0.7, "max_delta": 1, "iterations": 1},
        {"sigma": 0.9, "max_delta": 1, "iterations": 2},
        {"sigma": 1.0, "max_delta": 2, "iterations": 2},
        {"sigma": 1.1, "max_delta": 2, "iterations": 3},
        {"sigma": 1.5, "max_delta": 3, "iterations": 3},
    ),
    CorruptionType.MOTION_BLUR: tuple({"length": n} for n in (5, 7, 9, 13, 17)),
    CorruptionType.ZOOM_BLUR: tuple({"max_zoom": z} for z in (1.06, 1.11, 1.16, 1.21, 1.26)),
    CorruptionType.FOG: tuple(
        {"strength": a, "roughness": 0.55} for a in (0.3, 0.45, 0.6, 0.75, 0.9)
    ),
    CorruptionType.SNOW: (
        {"density": 0.03, "length": 6, "opacity": 0.5},
        {"density": 0.06, "length": 8, "opacity": 0.6},
        {"density": 0.09, "length": 10, "opacity": 0.65},
        {"density": 0.13, "length": 12, "opacity": 0.7},
        {"density": 0.18, "length": 14, "opacity": 0.8},
    ),
    CorruptionType.FROST: (
        {"coverage": 0.25, "opacity": 0.35},
        {"coverage": 0.35, "opacity": 0.45},
        {"coverage": 0.45, "opacity": 0.55},
        {"coverage": 0.55, "opacity": 0.65},
        {"coverage": 0.65, "opacity": 0.75},
    ),
    CorruptionType.BRIGHTNESS: tuple({"lift": b} for b in (0.1, 0.2, 0.3, 0.4, 0.5)),
    CorruptionType.CONTRAST: tuple({"factor": f} for f in (0.75, 0.6, 0.45, 0.3, 0.2)),
    CorruptionType.ELASTIC: tuple({"alpha": a, "sigma": 6.0} for a in (2.0, 4.0, 6.0, 8.0, 10.0)),
    CorruptionType.PIXELATE: tuple({"factor": k} for k in (2, 3, 4, 6, 8)),
    CorruptionType.JPEG_COMPRESSION: tuple({"quality": q} for q in (25, 18, 12, 8, 5)),
}


# -- noise family -----------------------------------------------------------------

def corrupt_gaussian_noise(arr: np.ndarray, rng, sigma: float) -> np.ndarray:
    return arr + rng.standard_normal(arr.shape) * sigma


def corrupt_shot_noise(arr: np.ndarray, rng, photons: float) -> np.ndarray:
    """Photon-count noise; fewer photons per unit intensity is noisier."""
    return rng.poisson(arr * photons) / photons


def corrupt_impulse_noise(arr: np.ndarray, rng, rate: float) -> np.ndarray:
    """Salt-and-pepper: each pixel flips to 0 or 1 with the given rate."""
    h, w = arr.shape[:2]
    hit = rng.random((h, w)) < rate
    salt = rng.random((h, w)) < 0.5
    out = arr.copy()
    out[hit & salt] = 1.0
    out[hit & ~salt] = 0.0
    return out


# -- blur family ------------------------------------------------------------------

def _convolve_channels(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    import scipy.ndimage as ndi
    out = np.empty_like(arr)
    for c in range(arr.shape[2]):
        out[:, :, c] = ndi.convolve(arr[:, :, c], kernel, mode="nearest")
    return out


def _gaussian_channels(arr: np.ndarray, sigma: float) -> np.ndarray:
    import scipy.ndimage as ndi
    return ndi.gaussian_filter(arr, sigma=(sigma, sigma, 0.0), mode="nearest")


def _disk_kernel(r: int) -> np.ndarray:
    yy, xx = np.mgrid[-r:r + 1, -r:r + 1]
    k = (xx * xx + yy * yy <= r * r).astype(np.float64)
    return k / k.sum()


def _line_kernel(length: int, angle: float) -> np.ndarray:
    size = int(length) | 1
    k = np.zeros((size, size))
    c = (size - 1) / 2.0
    for t in np.linspace(-c, c, 4 * size):
        y = int(round(c + t * math.sin(angle)))
        x = int(round(c + t * math.cos(angle)))
        k[y, x] = 1.0
    return k / k.sum()


def corrupt_defocus_blur(arr: np.ndarray, rng, radius: int) -> np.ndarray:
    return _convolve_channels(arr, _disk_kernel(radius))


def corrupt_glass_blur(arr: np.ndarray, rng, sigma: float, max_delta: int, iterations: int) -> np.ndarray:
    """Local random pixel displacement between two light gaussian passes."""
    out = _gaussian_channels(arr, sigma)
    h, w = arr.shape[:2]
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    for _ in range(iterations):
        dy = rng.integers(-max_delta, max_delta + 1, size=(h, w))
        dx = rng.integers(-max_delta, max_delta + 1, size=(h, w))
        out = out[np.clip(rows + dy, 0, h - 1), np.clip(cols + dx, 0, w - 1)]
    return _gaussian_channels(out, sigma)


def corrupt_motion_blur(arr: np.ndarray, rng, length: int) -> np.ndarray:
    angle = rng.uniform(0.0, math.pi)
    return _convolve_channels(arr, _line_kernel(length, angle))


def _zoom_means(arr: np.ndarray, max_zooms):
    """Yield the zoom blur of ``arr`` at each of the ascending ``max_zooms``.

    One running sum serves them all: a smaller max zoom steps through a
    prefix of a larger one's ``np.arange``, so each mean adds the same crops
    in the same order as its own loop and is bit-identical to it.

    Channels are zoomed one plane at a time: a unit zoom factor on the
    channel axis only ever weighs a sample by 1 and its neighbour by 0, so a
    3-D zoom gives the same values for twice the work.
    """
    import scipy.ndimage as ndi
    h, w = arr.shape[:2]
    acc = arr.copy()
    done = 0
    for max_zoom in max_zooms:
        steps = np.arange(1.02, max_zoom + 1e-9, 0.02)
        for z in steps[done:]:
            for c in range(arr.shape[2]):
                zoomed = ndi.zoom(arr[:, :, c], (z, z), order=1)
                # z > 1, so the zoomed plane is never smaller than the input
                top, left = (zoomed.shape[0] - h) // 2, (zoomed.shape[1] - w) // 2
                acc[:, :, c] += zoomed[top:top + h, left:left + w]
        done = len(steps)
        yield acc / (done + 1)


def corrupt_zoom_blur(arr: np.ndarray, rng, max_zoom: float) -> np.ndarray:
    """Average of progressively zoomed-and-cropped copies."""
    return next(_zoom_means(arr, (max_zoom,)))


# -- weather family -----------------------------------------------------------------

def _plasma(rng, height: int, width: int, roughness: float) -> np.ndarray:
    """Diamond-square noise on the smallest covering power-of-two grid,
    cropped and normalized to [0,1].

    Built one level at a time on strided views. Each step reads only points
    set by earlier steps, and one ``rng.random(k)`` draw yields the same
    stream as k scalar draws in row-major order, so the field is the one a
    point-by-point loop gives.
    """
    size = 1
    while size < max(height, width):
        size *= 2
    n = size + 1
    g = np.zeros((n, n))
    g[0, 0], g[0, -1], g[-1, 0], g[-1, -1] = rng.random(4)
    step, scale = size, 1.0
    while step > 1:
        half = step // 2
        m = size // step
        corners = g[::step, ::step]  # (m+1, m+1) points set by earlier levels
        # diamond step: centres of the m x m squares
        avg = (corners[:-1, :-1] + corners[:-1, 1:] + corners[1:, :-1] + corners[1:, 1:]) / 4.0
        g[half::step, half::step] = avg + (rng.random((m, m)) - 0.5) * scale
        centres = g[half::step, half::step]
        # square step: edge midpoints. Rows y % step == 0 ("even", m points)
        # and y % step == half ("odd", m + 1 points) take their draws
        # interleaved, so one draw padded by m + 1 unused values splits into
        # m + 1 rows of 2m + 1. Neighbours are summed up, down, left, right; a
        # missing one adds 0.0, which is exact since the sum starts at 0.0.
        draws = np.zeros((m + 1) * (2 * m + 1))
        draws[: 2 * m * (m + 1)] = rng.random(2 * m * (m + 1))
        noise = ((draws - 0.5) * scale).reshape(m + 1, 2 * m + 1)
        even = np.zeros((m + 1, m))  # points (y % step == 0, x % step == half)
        even[1:] += centres
        even[:-1] += centres
        even += corners[:, :-1]
        even += corners[:, 1:]
        even[1:-1] /= 4.0
        even[0] /= 3.0
        even[-1] /= 3.0
        odd = corners[:-1] + corners[1:]  # points (y % step == half, x % step == 0)
        odd[:, 1:] += centres
        odd[:, :-1] += centres
        odd[:, 1:-1] /= 4.0
        odd[:, 0] /= 3.0
        odd[:, -1] /= 3.0
        g[::step, half::step] = even + noise[:, :m]
        g[half::step, ::step] = odd + noise[:-1, m:]
        step = half
        scale *= roughness
    g = g[:height, :width]
    lo, hi = g.min(), g.max()
    return (g - lo) / (hi - lo) if hi > lo else np.zeros_like(g)


def corrupt_fog(arr: np.ndarray, rng, strength: float, roughness: float) -> np.ndarray:
    p = _plasma(rng, arr.shape[0], arr.shape[1], roughness)
    return arr + strength * p[:, :, None]


def corrupt_snow(arr: np.ndarray, rng, density: float, length: int, opacity: float) -> np.ndarray:
    """Seeded bright flakes smeared into near-vertical streaks, composited."""
    import scipy.ndimage as ndi
    h, w = arr.shape[:2]
    layer = np.zeros((h, w))
    n_flakes = max(1, int(round(density * h * w)))
    ys = rng.integers(0, h, size=n_flakes)
    xs = rng.integers(0, w, size=n_flakes)
    np.maximum.at(layer, (ys, xs), rng.uniform(0.5, 1.0, size=n_flakes))
    angle = rng.uniform(math.radians(60.0), math.radians(120.0))
    # scaling by length keeps per-streak intensity near the flake value
    streaks = ndi.convolve(layer, _line_kernel(length, angle) * length, mode="constant")
    m = (opacity * np.clip(streaks, 0.0, 1.0))[:, :, None]
    return arr * (1.0 - m) + m


def corrupt_frost(arr: np.ndarray, rng, coverage: float, opacity: float) -> np.ndarray:
    """Icy overlay along the level-set veins of a plasma field."""
    p = _plasma(rng, arr.shape[0], arr.shape[1], 0.7)
    ridges = 1.0 - np.abs(2.0 * p - 1.0)
    m = np.clip((ridges - (1.0 - coverage)) / coverage, 0.0, 1.0)
    m = (opacity * m)[:, :, None]
    return arr * (1.0 - m) + 0.92 * m


def corrupt_brightness(arr: np.ndarray, rng, lift: float) -> np.ndarray:
    return arr + lift


# -- digital family -----------------------------------------------------------------

def corrupt_contrast(arr: np.ndarray, rng, factor: float) -> np.ndarray:
    """Scale deviations about the per-channel mean."""
    m = arr.mean(axis=(0, 1), keepdims=True)
    return m + (arr - m) * factor


def corrupt_elastic(arr: np.ndarray, rng, alpha: float, sigma: float) -> np.ndarray:
    """Warp by a smoothed random displacement field of amplitude alpha pixels."""
    import scipy.ndimage as ndi
    h, w = arr.shape[:2]
    dy = ndi.gaussian_filter(rng.uniform(-1.0, 1.0, (h, w)), sigma, mode="reflect")
    dx = ndi.gaussian_filter(rng.uniform(-1.0, 1.0, (h, w)), sigma, mode="reflect")
    dy *= alpha / max(np.abs(dy).max(), 1e-12)
    dx *= alpha / max(np.abs(dx).max(), 1e-12)
    rows = np.arange(h)[:, None] + dy
    cols = np.arange(w)[None, :] + dx
    out = np.empty_like(arr)
    for c in range(arr.shape[2]):
        out[:, :, c] = ndi.map_coordinates(arr[:, :, c], [rows, cols], order=1, mode="reflect")
    return out


def corrupt_pixelate(arr: np.ndarray, rng, factor: int) -> np.ndarray:
    """Box-average downscale by an integer factor, then nearest upscale."""
    k = factor
    h, w, c = arr.shape
    padded = np.pad(arr, ((0, (-h) % k), (0, (-w) % k), (0, 0)), mode="edge")
    hh, ww = padded.shape[:2]
    small = padded.reshape(hh // k, k, ww // k, k, c).mean(axis=(1, 3))
    big = np.repeat(np.repeat(small, k, axis=0), k, axis=1)
    return big[:h, :w]


_Q_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)
_Q_CHROMA = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float64,
)


def _dct_matrix() -> np.ndarray:
    t = np.zeros((8, 8))
    for k in range(8):
        c = math.sqrt(1.0 / 8.0) if k == 0 else math.sqrt(2.0 / 8.0)
        for i in range(8):
            t[k, i] = c * math.cos((2 * i + 1) * k * math.pi / 16.0)
    return t


_DCT8 = _dct_matrix()


def _quality_table(base: np.ndarray, q: int) -> np.ndarray:
    scale = 5000.0 / q if q < 50 else 200.0 - 2.0 * q
    return np.clip(np.floor((base * scale + 50.0) / 100.0), 1.0, 255.0)


def _jpeg_channel(ch: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Quantization roundtrip of one plane in 0..255 space."""
    h, w = ch.shape
    x = np.pad(ch, ((0, (-h) % 8), (0, (-w) % 8)), mode="edge") - 128.0
    hh, ww = x.shape
    blocks = x.reshape(hh // 8, 8, ww // 8, 8).transpose(0, 2, 1, 3)
    coef = _DCT8 @ blocks @ _DCT8.T
    coef = np.round(coef / table) * table
    rec = _DCT8.T @ coef @ _DCT8
    out = rec.transpose(0, 2, 1, 3).reshape(hh, ww) + 128.0
    return out[:h, :w]


def corrupt_jpeg_compression(arr: np.ndarray, rng, quality: int) -> np.ndarray:
    """Baseline 8x8-DCT quantization roundtrip (full-resolution chroma)."""
    x = arr * 255.0
    luma_table = _quality_table(_Q_LUMA, quality)
    if arr.shape[2] == 1:
        return _jpeg_channel(x[:, :, 0], luma_table)[:, :, None] / 255.0
    chroma_table = _quality_table(_Q_CHROMA, quality)
    r, g, b = x[:, :, 0], x[:, :, 1], x[:, :, 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    y2 = _jpeg_channel(y, luma_table)
    cb2 = _jpeg_channel(cb, chroma_table)
    cr2 = _jpeg_channel(cr, chroma_table)
    r2 = y2 + 1.402 * (cr2 - 128.0)
    g2 = y2 - 0.344136 * (cb2 - 128.0) - 0.714136 * (cr2 - 128.0)
    b2 = y2 + 1.772 * (cb2 - 128.0)
    return np.stack([r2, g2, b2], axis=2) / 255.0


# -- dispatch ---------------------------------------------------------------------

# Each is called as fn(arr, rng, **SEVERITY_TABLE[ctype][severity - 1]) and
# returns a new array, which _to_image clamps in place.
_CORRUPT = {t: globals()[f"corrupt_{t.value}"] for t in CorruptionType}


def _to_image(arr: np.ndarray, out) -> ImagePNM:
    """A renderer's output for ``arr`` as an 8-bit image, clamped to [0, 1] in place."""
    out = np.asarray(out, dtype=np.float64)
    if out.shape != arr.shape:
        raise ShapeError(f"corruption changed shape {arr.shape} -> {out.shape}")
    return ImagePNM.from_float01(np.clip(out, 0.0, 1.0, out=out))


def apply_corruption(img: ImagePNM, spec: CorruptionSpec) -> ImagePNM:
    """Apply one corruption; output has the same dims/channels, clamped bytes."""
    params = SEVERITY_TABLE[spec.ctype][spec.severity - 1]
    arr = img.to_float01()
    return _to_image(arr, _CORRUPT[spec.ctype](arr, philox(spec.seed), **params))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def corruption_seed(base_seed: int, image_index: int, type_index: int, severity: int) -> int:
    """Stable per-variant seed derived from the run seed and grid position."""
    s = base_seed & MASK64
    for part in (image_index, type_index, severity):
        s = _splitmix64(s ^ (part & MASK64))
    return s


def psnr(a: ImagePNM, b: ImagePNM) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical images.

    The squared error is summed in int64, which is exact. Every partial sum
    is an integer below 2**53, so the MSE equals the float64 mean of the
    squared differences bit for bit.
    """
    if (a.width, a.height, a.channels) != (b.width, b.height, b.channels):
        raise ShapeError("psnr needs images of identical dims")
    diff = (a.pixels.astype(np.int64) - b.pixels).ravel()
    mse = float(np.dot(diff, diff)) / diff.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def _corrupt_one(task):
    """Render and write one task: one variant, or all of an image's zoom blurs."""
    img, specs, dsts = task
    if specs[0].ctype is CorruptionType.ZOOM_BLUR:
        arr = img.to_float01()
        max_zooms = [SEVERITY_TABLE[s.ctype][s.severity - 1]["max_zoom"] for s in specs]
        variants = (_to_image(arr, out) for out in _zoom_means(arr, max_zooms))
    else:
        variants = (apply_corruption(img, spec) for spec in specs)
    for variant, dst in zip(variants, dsts):
        dst.write_bytes(encode_image(variant))


def corrupt_dataset(image_paths, out_dir, base_seed: int = 0, workers: int = 1) -> list:
    """Write all 15x5 variants of every image plus a JSONL manifest.

    Returns the manifest rows: {src, dst, type, severity, seed} per output.
    The manifest order is image, then type, then severity, independent of
    how many workers render the variants. ``workers`` is read through
    ``check_count``, and refused above MAX_WORKERS, before any image is
    read; an image that does not decode is refused, naming its path, before
    anything is written. A variant that fails does not stop the others: once
    every one has been tried, the first failure is raised and no manifest is
    written. An image's zoom blur severities are one task, rendered from one
    running sum, so a zoom failure also fails that image's higher zoom
    severities.
    """
    paths = [Path(p) for p in image_paths]
    if not paths:
        raise DomainError("need at least one input image")
    if check_count("workers", workers) > MAX_WORKERS:
        raise DomainError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    out = Path(out_dir)
    tasks = []
    rows = []
    for i, src in enumerate(paths):
        try:
            img = decode_image(src.read_bytes())
        except EvframeError as exc:
            raise type(exc)(f"{src}: {exc}") from None
        for ti, ctype in enumerate(CorruptionType):
            specs, dsts = [], []
            for severity in range(1, SEVERITY_COUNT + 1):
                seed = corruption_seed(base_seed, i, ti, severity)
                dst = out / f"{src.stem}_{ctype.value}_s{severity}.pnm"
                specs.append(CorruptionSpec(ctype, severity, seed))
                dsts.append(dst)
                rows.append(
                    {
                        "src": str(src),
                        "dst": str(dst),
                        "type": ctype.value,
                        "severity": severity,
                        "seed": seed,
                    }
                )
            if ctype is CorruptionType.ZOOM_BLUR:
                tasks.append((img, specs, dsts))
            else:
                tasks += [(img, [spec], [dst]) for spec, dst in zip(specs, dsts)]
    out.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(_corrupt_one, task) for task in tasks]
    for future in futures:
        future.result()
    manifest = out / MANIFEST_NAME
    manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    return rows
