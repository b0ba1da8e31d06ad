"""Event simulation, timestamp normalization, voxel splatting, dropout."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from evframe import (
    DomainError,
    Event,
    EventStream,
    ImagePNM,
    ShapeError,
    SimConfig,
    build_voxel_grid,
    decode_events,
    modality_dropout,
    normalize_timestamps,
    simulate_events,
)
from evframe import event_core
from conftest import philox, gray_image


def flat_gray(value: int, width=6, height=4) -> ImagePNM:
    pixels = np.full((height, width, 1), value, dtype=np.uint8)
    return ImagePNM(width=width, height=height, channels=1, pixels=pixels)


# -- simulation ------------------------------------------------------------------------


def test_identical_frames_emit_no_events():
    img = flat_gray(128)
    stream = simulate_events(img, img, 0, 100, SimConfig(threshold=0.1))
    assert stream.events == []


def test_event_count_matches_log_ratio_floor():
    # single changed pixel; count = floor(|log step| / threshold) by hand
    a = flat_gray(100)
    b = flat_gray(100)
    b.pixels[2, 3, 0] = 200
    eps = 1.0 / 255.0
    delta = math.log(200 / 255 + eps) - math.log(100 / 255 + eps)
    threshold = 0.25
    expected = math.floor(abs(delta) / threshold)
    stream = simulate_events(a, b, 0, 1000, SimConfig(threshold=threshold))
    assert len(stream.events) == expected > 0
    assert all(e.x == 3 and e.y == 2 and e.p == 1 for e in stream.events)


def test_darkening_pixel_gives_negative_polarity():
    a = flat_gray(200)
    b = flat_gray(50)
    stream = simulate_events(a, b, 0, 10, SimConfig(threshold=0.2))
    assert stream.events
    assert all(e.p == -1 for e in stream.events)


def test_timestamps_lie_inside_the_open_closed_window():
    rng = philox(10)
    a = gray_image(rng, 16, 12)
    b = gray_image(rng, 16, 12)
    stream = simulate_events(a, b, 500, 800, SimConfig(threshold=0.05))
    assert stream.events
    assert all(500 < e.t <= 800 for e in stream.events)
    ts = [e.t for e in stream.events]
    assert ts == sorted(ts)


def test_single_event_lands_at_window_end():
    a = flat_gray(100)
    b = flat_gray(100)
    b.pixels[0, 0, 0] = 140
    eps = 1.0 / 255.0
    delta = math.log(140 / 255 + eps) - math.log(100 / 255 + eps)
    cfg = SimConfig(threshold=abs(delta) * 0.9)  # exactly one crossing
    stream = simulate_events(a, b, 0, 777, cfg)
    assert [e.t for e in stream.events] == [777]


def test_simulation_rejects_color_frames(rng):
    pixels = rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8)
    color = ImagePNM(width=4, height=4, channels=3, pixels=pixels)
    with pytest.raises(ShapeError):
        simulate_events(color, color, 0, 1, SimConfig(threshold=0.1))


def test_simulation_rejects_inverted_time_window():
    img = flat_gray(100)
    with pytest.raises(DomainError):
        simulate_events(img, img, 5, 5, SimConfig(threshold=0.1))


def test_sim_config_rejects_non_positive_threshold():
    with pytest.raises(DomainError):
        SimConfig(threshold=0.0)


@pytest.mark.parametrize("threshold", [1e-9, 1e-300])
def test_event_count_above_the_cap_is_refused_before_any_event_is_built(threshold):
    # one black-to-white pixel asks for 5.5e9 (1e-9) or 5.5e300 (1e-300) events;
    # the second does not even fit in int64
    a = flat_gray(0, width=2, height=2)
    b = flat_gray(0, width=2, height=2)
    b.pixels[1, 1, 0] = 255
    tracemalloc.start()
    try:
        message = (
            rf"^an event simulation at threshold {threshold} needs 5\.54518e\+(09|300) events, "
            r"over the 16777216-event budget$"
        )
        with pytest.raises(DomainError, match=message):
            simulate_events(a, b, 0, 1000, SimConfig(threshold=threshold))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_event_cap_is_inclusive(monkeypatch):
    a = flat_gray(100)
    b = flat_gray(100)
    b.pixels[2, 3, 0] = 200
    cfg = SimConfig(threshold=0.05)
    n = len(simulate_events(a, b, 0, 1000, cfg).events)
    monkeypatch.setattr(event_core, "MAX_EVENTS", n)
    assert len(simulate_events(a, b, 0, 1000, cfg).events) == n
    monkeypatch.setattr(event_core, "MAX_EVENTS", n - 1)
    message = f"^an event simulation at threshold 0.05 needs {n} events, over the {n - 1}-event budget$"
    with pytest.raises(DomainError, match=message):
        simulate_events(a, b, 0, 1000, cfg)


# -- timestamp normalization --------------------------------------------------------


def stream_of(ts, w=4, h=4):
    events = [Event(x=0, y=0, t=t, p=1) for t in ts]
    return EventStream(sensor_width=w, sensor_height=h, events=events)


def test_normalized_timestamps_span_zero_to_bins_minus_one():
    out = normalize_timestamps(stream_of([10, 20, 30]), bins=5)
    assert np.allclose(out, [0.0, 2.0, 4.0])


def test_degenerate_span_maps_to_zero():
    out = normalize_timestamps(stream_of([7, 7, 7]), bins=5)
    assert np.array_equal(out, np.zeros(3))


def test_single_bin_maps_everything_to_zero():
    out = normalize_timestamps(stream_of([1, 2, 3]), bins=1)
    assert np.array_equal(out, np.zeros(3))


def test_normalization_rejects_non_positive_bins():
    with pytest.raises(DomainError):
        normalize_timestamps(stream_of([1]), bins=0)


@pytest.mark.parametrize("bins", [2.5, True, np.float64(3.0), "3"])
def test_bins_that_are_not_integers_are_refused_by_name(bins):
    stream = stream_of([1, 2])
    for call in (normalize_timestamps, build_voxel_grid):
        with pytest.raises(DomainError, match=rf"^bins must be an int >= 1, got {re.escape(repr(bins))}$"):
            call(stream, bins)


def test_numpy_integer_bins_are_taken_as_ints():
    grid = build_voxel_grid(stream_of([1, 2]), np.int64(3))
    assert type(grid.bins) is int and grid.data.shape == (3, 4, 4)
    # as an int64, bins * H * W * 8 would wrap past the budget check
    with pytest.raises(DomainError, match=r"^a 2305843009213693952x4x4 voxel grid needs"):
        build_voxel_grid(stream_of([1, 2]), np.int64(2**61))


# -- voxel grid ----------------------------------------------------------------------


def test_single_event_splits_mass_between_adjacent_bins():
    # t* = 4 * (25 - 10) / (40 - 10) = 2.0 exactly: all mass in bin 2
    stream = EventStream(4, 4, [Event(1, 2, 10, 1), Event(3, 3, 25, 1), Event(0, 0, 40, -1)])
    grid = build_voxel_grid(stream, bins=5)
    assert grid.data[2, 3, 3] == pytest.approx(1.0)
    # fractional t* splits by 1 - |distance|
    stream2 = EventStream(4, 4, [Event(0, 0, 0, 1), Event(1, 1, 3, 1), Event(2, 2, 4, 1)])
    grid2 = build_voxel_grid(stream2, bins=3)
    # middle event: t* = 2 * 3/4 = 1.5
    assert grid2.data[1, 1, 1] == pytest.approx(0.5)
    assert grid2.data[2, 1, 1] == pytest.approx(0.5)


def test_grid_mass_equals_polarity_sum():
    rng = philox(20)
    n = 500
    events = sorted(
        (
            Event(int(rng.integers(0, 16)), int(rng.integers(0, 12)),
                  int(t), int(rng.choice([-1, 1])))
            for t in rng.integers(0, 10_000, size=n)
        ),
        key=lambda e: e.t,
    )
    stream = EventStream(16, 12, list(events))
    grid = build_voxel_grid(stream, bins=7)
    total_p = sum(e.p for e in stream.events)
    assert abs(grid.data.sum() - total_p) < 1e-9


def test_out_of_bounds_events_are_refused_before_they_reach_the_grid():
    with pytest.raises(DomainError, match=r"^event 0: coordinates \(4, 0\) outside sensor 4x4$"):
        EventStream(4, 4, [Event(4, 0, 0, 1)])


def test_a_grid_over_the_byte_budget_is_refused(monkeypatch):
    stream = EventStream(5, 3, [Event(4, 2, 0, 1)])
    monkeypatch.setattr(event_core, "MAX_BYTES", 4 * 3 * 5 * 8)
    assert build_voxel_grid(stream, bins=4).data.nbytes == event_core.MAX_BYTES
    with pytest.raises(DomainError, match=r"^a 5x3x5 voxel grid needs 600 bytes, over the 480-byte budget$"):
        build_voxel_grid(stream, bins=5)


@pytest.mark.parametrize("dims, bins", [((10**12, 3), 2), ((4, 10**12), 2), ((4, 3), 10**12)])
def test_a_huge_grid_is_refused_before_it_is_allocated(dims, bins):
    # dims inferred from one event at x = 10**12 ask for the same grid
    streams = [EventStream(*dims, [Event(0, 0, 0, 1)])]
    if dims[0] == 10**12:
        streams.append(decode_events(b"t,x,y,p\n0,999999999999,2,1\n"))
        assert (streams[1].sensor_width, streams[1].sensor_height) == dims
    for stream in streams:
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="budget"):
                build_voxel_grid(stream, bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_empty_stream_gives_zero_grid():
    grid = build_voxel_grid(EventStream(5, 3, []), bins=4)
    assert grid.data.shape == (4, 3, 5)
    assert not grid.data.any()


def test_grid_shape_is_bins_height_width():
    stream = EventStream(6, 2, [Event(0, 0, 0, 1)])
    assert build_voxel_grid(stream, bins=3).as_tensor().shape == (3, 2, 6)


# -- modality dropout -----------------------------------------------------------------


def test_dropout_probability_zero_keeps_values(rng):
    rgb = rng.standard_normal((3, 8, 8))
    out = modality_dropout(rgb, probability=0.0, rng_seed=1)
    assert np.array_equal(out, rgb)


def test_dropout_probability_one_blanks_everything(rng):
    rgb = rng.standard_normal((3, 8, 8))
    out = modality_dropout(rgb, probability=1.0, rng_seed=1)
    assert not out.any()
    assert out.shape == rgb.shape


def test_dropout_is_all_or_nothing_and_seed_deterministic(rng):
    rgb = rng.standard_normal((3, 8, 8))
    for seed in range(40):
        out = modality_dropout(rgb, probability=0.5, rng_seed=seed)
        assert np.array_equal(out, rgb) or not out.any()
        again = modality_dropout(rgb, probability=0.5, rng_seed=seed)
        assert np.array_equal(out, again)


def test_dropout_accepts_negative_seed(rng):
    rgb = rng.standard_normal((3, 4, 4))
    modality_dropout(rgb, probability=0.5, rng_seed=-3)


def test_dropout_rejects_bad_probability(rng):
    rgb = rng.standard_normal((3, 4, 4))
    with pytest.raises(DomainError):
        modality_dropout(rgb, probability=1.5, rng_seed=0)
