"""Event generation, timestamp normalization, voxel-grid encoding, dropout.

The simulator produces events from the log-intensity difference of two
grayscale frames; the voxel grid accumulates polarity mass over B temporal
bins with a linear kernel in time and exposes the time axis as channels.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import MAX_BYTES, DomainError, ShapeError, check_budget, check_count
from .formats_io import INT64_MAX, INT64_MIN, EventStream, ImagePNM
from .tensor_math import philox

DEFAULT_LOG_EPS = 1.0 / 255.0
# Most events one simulate_events call may emit; checked before any is built.
MAX_EVENTS = 2**24


@dataclass
class SimConfig:
    """Event-trigger model: threshold in log-intensity units.

    ``log_eps`` is added to the [0, 1] intensity before the log so black
    pixels stay finite. Both must be finite and positive.
    """

    threshold: float
    log_eps: float = DEFAULT_LOG_EPS

    def __post_init__(self):
        for name in ("threshold", "log_eps"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise DomainError(f"{name} must be finite and positive, got {value}")


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
    spaced in (t_a, t_b]: the k-th of n at t_a + ceil(k * (t_b - t_a) / n),
    exact for integer t_a < t_b whose span fits in int64. Output is sorted by
    timestamp, ties broken in row-major pixel order. Deterministic. A pair
    that asks for more than MAX_EVENTS events in total is rejected before any
    event is built.
    """
    if frame_a.channels != 1 or frame_b.channels != 1:
        raise ShapeError("simulate_events expects grayscale frames")
    if (frame_a.width, frame_a.height) != (frame_b.width, frame_b.height):
        raise ShapeError(
            f"frame dims differ: {frame_a.width}x{frame_a.height} vs "
            f"{frame_b.width}x{frame_b.height}"
        )
    try:
        t_a, t_b = operator.index(t_a), operator.index(t_b)
    except TypeError:
        raise DomainError(f"t_a and t_b must be integers, got {t_a!r}, {t_b!r}") from None
    if t_b <= t_a:
        raise DomainError(f"t_b must exceed t_a, got t_a={t_a}, t_b={t_b}")
    span = t_b - t_a
    if t_a < INT64_MIN or t_b > INT64_MAX or span > INT64_MAX:
        raise DomainError(
            f"t_a={t_a}, t_b={t_b} and their span must lie in the int64 range"
        )

    ia = frame_a.to_float01()[:, :, 0]
    ib = frame_b.to_float01()[:, :, 0]
    delta = np.log(ib + cfg.log_eps) - np.log(ia + cfg.log_eps)
    counts = np.floor(np.abs(delta) / cfg.threshold)
    total = counts.sum()
    # a non-finite count makes the sum non-finite; checking it before the
    # int64 cast keeps an overflowing count from wrapping negative
    check_budget(f"an event simulation at threshold {cfg.threshold}", total, "event", MAX_EVENTS)
    # The output is allocated before the temporaries below: taken after them
    # it sat between their freed blocks and split the malloc heap, and a
    # detect-346 process then more often grew its peak RSS by ~20 MB.
    table = np.empty((int(total), 4), dtype=np.int64)
    counts = counts.astype(np.int64)
    polarity = np.where(delta >= 0, 1, -1)

    # k-th of n events at t_a + ceil(k * span / n), split as
    # k * (span // n) + ceil(k * (span % n) / n) so no product leaves int64
    ys, xs = np.nonzero(counts)
    n = counts[ys, xs]
    per_event = np.repeat(n, n)
    k = np.arange(1, len(per_event) + 1) - np.repeat(np.cumsum(n) - n, n)
    offset = k * (span // per_event) - (-k * (span % per_event) // per_event)
    t = t_a + offset
    # pixels are already in row-major order, so a stable sort on t alone
    # gives the (t, y, x) order; the offset in [1, span] sorts like t and fits
    # the narrowest type that holds the span, where the stable sort of numpy
    # is a radix sort up to 16 bits
    order = np.argsort(offset.astype(np.min_scalar_type(span)), kind="stable")
    columns = (t, np.repeat(xs, n), np.repeat(ys, n), np.repeat(polarity[ys, xs], n))
    for col, values in enumerate(columns):
        table[:, col] = values[order]
    return EventStream.from_table(frame_a.width, frame_a.height, table)


def normalize_timestamps(stream: EventStream, bins: int) -> np.ndarray:
    """Rescale timestamps onto [0, B-1].

    A degenerate span (all timestamps equal) or B = 1 maps everything to 0.
    An event whose float offset from the first timestamp equals the span
    (the last, or one just before it whose offset rounds up) maps to exactly
    B-1, since (B-1) * span / span can round past it once the span exceeds
    2**53; any smaller offset maps into [0, B-1].
    """
    bins = check_count("bins", bins)
    t = stream.t.astype(np.float64)
    if not len(t):
        return t
    offset = t - t[0]
    span = offset[-1]
    if span == 0 or bins == 1:
        return np.zeros(len(t), dtype=np.float64)
    ts = (bins - 1) * offset / span
    ts[offset == span] = bins - 1
    return ts


def build_voxel_grid(stream: EventStream, bins: int) -> VoxelGrid:
    """Accumulate polarity mass into a (B, H, W) grid.

    Each event lands on its pixel; the temporal kernel max(0, 1 - |a|)
    splits its mass linearly across the two adjacent bins. A grid of more
    than MAX_BYTES (1 GiB) is refused before it is allocated.
    """
    bins = check_count("bins", bins)
    ts = normalize_timestamps(stream, bins)
    h, w = stream.sensor_height, stream.sensor_width
    check_budget(f"a {bins}x{h}x{w} voxel grid", bins * h * w * 8, "byte", MAX_BYTES)
    grid = np.zeros((bins, h, w), dtype=np.float64)
    ps = stream.p.astype(np.float64)

    t0 = np.floor(ts).astype(np.int64)
    ft = ts - t0
    pixel = stream.y * w + stream.x
    for tb, wt in ((t0, 1.0 - ft), (t0 + 1, ft)):
        mass = ps * wt
        ok = mass != 0  # bin B is reached only with zero weight
        np.add.at(grid.reshape(-1), tb[ok] * (h * w) + pixel[ok], mass[ok])
    return VoxelGrid(bins=bins, height=h, width=w, data=grid)


def modality_dropout(rgb: np.ndarray, probability: float, rng_seed: int) -> np.ndarray:
    """Blank the whole tensor with the given probability; seeded, all-or-nothing."""
    if not 0.0 <= probability <= 1.0:
        raise DomainError(f"probability must be in [0, 1], got {probability}")
    rgb = np.asarray(rgb)
    if philox(rng_seed).random() < probability:
        return np.zeros_like(rgb)
    return rgb
