"""Event generation, timestamp normalization, voxel-grid encoding, dropout.

The simulator produces events from the log-intensity difference of two
grayscale frames; the voxel grid accumulates polarity mass over B temporal
bins with a bilinear kernel and exposes the time axis as channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .formats_io import Event, EventStream, ImagePNM

DEFAULT_LOG_EPS = 1.0 / 255.0
# Most events one simulate_events call may emit; checked before any is built.
MAX_EVENTS = 2**24


@dataclass
class SimConfig:
    """Event-trigger model: threshold in log-intensity units.

    ``log_eps`` is added to the [0, 1] intensity before the log so black
    pixels stay finite.
    """

    threshold: float
    log_eps: float = DEFAULT_LOG_EPS

    def __post_init__(self):
        if self.threshold <= 0:
            raise DomainError(f"threshold must be positive, got {self.threshold}")
        if self.log_eps <= 0:
            raise DomainError(f"log_eps must be positive, got {self.log_eps}")


@dataclass
class VoxelGrid:
    """Dense (bins, height, width) volume of signed event mass."""

    bins: int
    height: int
    width: int
    data: np.ndarray  # float64, shape (bins, height, width)

    def as_tensor(self) -> np.ndarray:
        """The grid viewed as a bins-channel 2D feature map."""
        return self.data


def simulate_events(
    frame_a: ImagePNM,
    frame_b: ImagePNM,
    t_a: int,
    t_b: int,
    cfg: SimConfig,
) -> EventStream:
    """Emit events wherever log intensity crosses the threshold between frames.

    Per pixel, with d = log(i_b + eps) - log(i_a + eps) on [0, 1] intensities,
    floor(|d| / threshold) events are emitted with polarity sign(d), evenly
    spaced in (t_a, t_b]. Output is sorted by timestamp, ties broken in
    row-major pixel order. Deterministic. A pair that asks for more than
    MAX_EVENTS events in total is rejected before any event is built.
    """
    if frame_a.channels != 1 or frame_b.channels != 1:
        raise ShapeError("simulate_events expects grayscale frames")
    if (frame_a.width, frame_a.height) != (frame_b.width, frame_b.height):
        raise ShapeError(
            f"frame dims differ: {frame_a.width}x{frame_a.height} vs "
            f"{frame_b.width}x{frame_b.height}"
        )
    if t_b <= t_a:
        raise DomainError(f"t_b must exceed t_a, got t_a={t_a}, t_b={t_b}")

    ia = frame_a.to_float01()[:, :, 0]
    ib = frame_b.to_float01()[:, :, 0]
    delta = np.log(ib + cfg.log_eps) - np.log(ia + cfg.log_eps)
    counts = np.floor(np.abs(delta) / cfg.threshold)
    total = counts.sum()
    # a non-finite count makes the sum non-finite; checking it before the
    # int64 cast keeps an overflowing count from wrapping negative
    if not total <= MAX_EVENTS:
        raise DomainError(
            f"threshold {cfg.threshold} asks for {total:.6g} events, more than "
            f"the cap of {MAX_EVENTS}"
        )
    counts = counts.astype(np.int64)
    polarity = np.where(delta >= 0, 1, -1)

    span = t_b - t_a
    events = []
    ys, xs = np.nonzero(counts)
    for y, x in zip(ys.tolist(), xs.tolist()):
        n = int(counts[y, x])
        p = int(polarity[y, x])
        for k in range(1, n + 1):
            # ceil division keeps timestamps strictly inside (t_a, t_b]
            t = t_a + -((-k * span) // n)
            events.append(Event(x=x, y=y, t=int(t), p=p))
    events.sort(key=lambda e: (e.t, e.y, e.x))
    return EventStream(
        sensor_width=frame_a.width, sensor_height=frame_a.height, events=events
    )


def normalize_timestamps(stream: EventStream, bins: int) -> np.ndarray:
    """Rescale timestamps onto [0, B-1].

    A degenerate span (all timestamps equal) or B = 1 maps everything to 0.
    """
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    if not stream.events:
        return np.zeros(0, dtype=np.float64)
    t = np.array([e.t for e in stream.events], dtype=np.float64)
    span = t[-1] - t[0]
    if span == 0 or bins == 1:
        return np.zeros(len(t), dtype=np.float64)
    return (bins - 1) * (t - t[0]) / span


def build_voxel_grid(stream: EventStream, bins: int) -> VoxelGrid:
    """Accumulate polarity mass into a (B, H, W) grid.

    Integer event coordinates land on their exact pixel; the temporal kernel
    max(0, 1 - |a|) splits each event's mass linearly across the two adjacent
    bins. Non-integer coordinates (e.g. after warping) splat bilinearly in
    space as well.
    """
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    h, w = stream.sensor_height, stream.sensor_width
    grid = np.zeros((bins, h, w), dtype=np.float64)
    if not stream.events:
        return VoxelGrid(bins=bins, height=h, width=w, data=grid)

    xs = np.array([e.x for e in stream.events], dtype=np.float64)
    ys = np.array([e.y for e in stream.events], dtype=np.float64)
    ps = np.array([e.p for e in stream.events], dtype=np.float64)
    if np.any(xs < 0) or np.any(xs > w - 1) or np.any(ys < 0) or np.any(ys > h - 1):
        raise DomainError("event coordinates outside sensor bounds")
    ts = normalize_timestamps(stream, bins)

    _splat(grid, xs, ys, ts, ps)
    return VoxelGrid(bins=bins, height=h, width=w, data=grid)


def _splat(grid: np.ndarray, xs, ys, ts, ps) -> None:
    """Trilinear scatter-add of per-event mass into the grid."""
    bins, h, w = grid.shape
    flat = grid.reshape(-1)

    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    t0 = np.floor(ts).astype(np.int64)
    fx = xs - x0
    fy = ys - y0
    ft = ts - t0

    for dt in (0, 1):
        wt = (1.0 - ft) if dt == 0 else ft
        tb = t0 + dt
        for dy in (0, 1):
            wy = (1.0 - fy) if dy == 0 else fy
            yb = y0 + dy
            for dx in (0, 1):
                wx = (1.0 - fx) if dx == 0 else fx
                xb = x0 + dx
                mass = ps * wt * wy * wx
                ok = (
                    (mass != 0)
                    & (tb >= 0)
                    & (tb < bins)
                    & (yb >= 0)
                    & (yb < h)
                    & (xb >= 0)
                    & (xb < w)
                )
                if np.any(ok):
                    idx = (tb[ok] * h + yb[ok]) * w + xb[ok]
                    np.add.at(flat, idx, mass[ok])


def modality_dropout(rgb: np.ndarray, probability: float, rng_seed: int) -> np.ndarray:
    """Blank the whole tensor with the given probability; seeded, all-or-nothing."""
    if not 0.0 <= probability <= 1.0:
        raise DomainError(f"probability must be in [0, 1], got {probability}")
    rgb = np.asarray(rgb)
    rng = np.random.Generator(np.random.Philox(key=rng_seed & 0xFFFFFFFFFFFFFFFF))
    if rng.random() < probability:
        return np.zeros_like(rgb)
    return rgb
