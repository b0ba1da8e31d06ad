"""Homography between the RGB and event cameras; point, image, and box warps.

The two sensors see the same distant scene from nearly the same spot, so the
alignment map is a pure-rotation homography built from the rig's intrinsics
and rotations. Image warping uses inverse mapping with bilinear sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MAX_BYTES, DomainError, ShapeError, ValidationError, check_budget, check_count
from .errors import real_array
from .formats_io import CameraRig, ImagePNM

SINGULARITY_TOL = 1e-12


@dataclass
class Homography:
    """Nonsingular 3x3 projective map between pixel planes."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(real_array("homography", self.matrix), dtype=np.float64)
        if m.shape != (3, 3):
            raise ShapeError(f"homography must be 3x3, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValidationError("homography has a non-finite entry")
        # a finite matrix can have a determinant beyond float64; an infinite
        # one is not singular, so it is accepted without a warning
        with np.errstate(over="ignore"):
            det = np.linalg.det(m)
        if abs(det) <= SINGULARITY_TOL:
            raise ValidationError("homography is singular")
        self.matrix = m

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.matrix))


def compose_homography(rig: CameraRig) -> Homography:
    """Build the RGB-to-event alignment homography from a camera rig.

    Composes K_event . R_rgb . R_event_rgb . R_event^T . K_rgb^-1, the order
    the paper prints.
    """
    # finite intrinsics can multiply past float64; that is refused just below
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(np.linalg.det(rig.k_rgb)) <= SINGULARITY_TOL:
            raise ValidationError("K_rgb is singular, cannot invert")
        product = rig.k_event @ rig.r_rgb @ rig.r_event_rgb @ rig.r_event.T @ np.linalg.inv(rig.k_rgb)
    if not np.isfinite(product).all():
        raise ValidationError("rig product K_event R_rgb R_event_rgb R_event^T K_rgb^-1 overflows float64")
    return Homography(product)


def warp_points(h: Homography, points: np.ndarray) -> np.ndarray:
    """Vectorized warp of an (N, 2) point array; any other shape is a ShapeError."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeError(f"points must be an (n, 2) array, got shape {pts.shape}")
    ones = np.ones((pts.shape[0], 1))
    hom = np.hstack([pts, ones]) @ h.matrix.T
    wcol = hom[:, 2]
    if np.any(np.abs(wcol) <= SINGULARITY_TOL):
        raise DomainError("a point maps to infinity")
    return hom[:, :2] / wcol[:, None]


def warp_image(
    h: Homography,
    src: ImagePNM,
    out_w: int,
    out_h: int,
    interpolation: str = "bilinear",
) -> ImagePNM:
    """Resample ``src`` under the homography via inverse mapping.

    Each output pixel samples the source at H^-1 (u, v, 1); taps outside the
    source are zero. ``out_w`` and ``out_h`` are read through ``check_count``.
    ``interpolation`` is 'bilinear' or 'nearest' (for label masks); both read
    the uint8 source in place through one gather.
    """
    out_w, out_h = check_count("out_w", out_w), check_count("out_h", out_h)
    if interpolation not in ("bilinear", "nearest"):
        raise DomainError(f"unknown interpolation '{interpolation}'")
    # Per output pixel at most 20 eight-byte values live at once (the int64
    # grid, its mapping, source positions, bilinear floors and fractions, the
    # tap positions and weights, one tap's flat index and masks) plus two per
    # channel (the sum and one tap's term); the source is read in place. A
    # 346 x 260 RGB warp needs ~19 MB, plus numpy's fixed buffers (tens of KB).
    need = out_w * out_h * 8 * (20 + 2 * src.channels)
    check_budget(f"a {out_w}x{out_h} warp", need, "byte", MAX_BYTES)
    vs, us = np.indices((out_h, out_w)).reshape(2, -1)
    mapped = np.linalg.inv(h.matrix) @ np.stack([us, vs, np.ones(us.size)])
    finite = np.abs(mapped[2]) > SINGULARITY_TOL
    sx, sy = mapped[:2] / np.where(finite, mapped[2], 1.0)
    # clamp positions far off the source, a NaN too, to one whose taps all
    # lie outside it, so the int64 casts below stay in range
    sh, sw = src.height, src.width
    for pos, hi in ((sx, sw + 1.0), (sy, sh + 1.0)):
        np.fmin(np.fmax(pos, -2.0, out=pos), hi, out=pos)
    src_flat = src.pixels.reshape(sh * sw, src.channels)

    def tap(yt, xt):
        ok = finite & (xt >= 0) & (xt < sw) & (yt >= 0) & (yt < sh)
        return src_flat[np.clip(yt, 0, sh - 1) * sw + np.clip(xt, 0, sw - 1)], ok

    if interpolation == "nearest":
        vals, ok = tap(np.rint(sy).astype(np.int64), np.rint(sx).astype(np.int64))
        pixels = np.where(ok[:, None], vals, 0)
    else:
        x0 = np.floor(sx).astype(np.int64)
        y0 = np.floor(sy).astype(np.int64)
        fx = sx - x0
        fy = sy - y0
        # a tap outside the source adds +0.0, so no in-bounds term moves
        acc = np.zeros((out_h * out_w, src.channels))
        for yt, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
            for xt, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
                vals, ok = tap(yt, xt)
                acc += np.where(ok, wy * wx, 0.0)[:, None] * vals
        pixels = np.clip(np.rint(acc), 0, 255).astype(np.uint8)
    pixels = pixels.reshape(out_h, out_w, src.channels)
    return ImagePNM(width=out_w, height=out_h, channels=src.channels, pixels=pixels)


def warp_boxes(h: Homography, boxes: np.ndarray, clip_w: float, clip_h: float):
    """Warp (n, 4) x, y, w, h top-left boxes as columns: corner hull, then clip.

    The clip window (0, 0, clip_w, clip_h) must be finite with a positive
    size; it is checked before any box, then a ``boxes`` shape other than
    (n, 4) is a ShapeError, then the first box with w or h <= 0 is refused.
    All 4n corners go through one ``warp_points`` call, and the first box
    with a warped corner that is not finite (a NaN entry, or entries that
    overflow float64) is refused by its row index. The clip is Python's
    ``max(v, 0.0)`` and ``min(v, clip)``, so a -0.0 edge stays -0.0, and a
    box is dropped when its clipped width or height is <= 0. Returns the
    clipped (m, 4) boxes of nonzero area, in input order, and the (n,) bool
    mask of the boxes they come from.
    """
    cw, ch = float(clip_w), float(clip_h)
    if not (0.0 < cw < np.inf and 0.0 < ch < np.inf):
        raise DomainError(f"clip window must be finite and positive, got {cw}x{ch}")
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ShapeError(f"boxes must be an (n, 4) array, got shape {boxes.shape}")
    x, y, w, hgt = boxes.T
    bad = (w <= 0) | (hgt <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"box dims must be positive, got w={w[i].item()}, h={hgt[i].item()}")
    with np.errstate(over="ignore", invalid="ignore"):
        corners = np.stack([x, y, x + w, y, x, y + hgt, x + w, y + hgt], axis=1).reshape(-1, 2)
        warped = warp_points(h, corners).reshape(-1, 4, 2)
    bad = ~np.isfinite(warped).all(axis=(1, 2))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"row {i}: box corners are not finite after the warp, got {tuple(boxes[i].tolist())}"
        )
    lo, hi = warped.min(axis=1), warped.max(axis=1)
    lo = np.where(0.0 > lo, 0.0, lo)
    hi = np.where(np.array([cw, ch]) < hi, [cw, ch], hi)
    keep = ~(hi <= lo).any(axis=1)
    return np.hstack([lo, hi - lo])[keep], keep


def warp_bbox(h: Homography, box, clip_w: float, clip_h: float):
    """Warp one (x, y, w, h) top-left box as ``warp_boxes`` does.

    Returns the clipped box as a tuple, or None when it has zero area.
    """
    boxes, _ = warp_boxes(h, [box], clip_w, clip_h)
    return tuple(boxes[0].tolist()) if len(boxes) else None
