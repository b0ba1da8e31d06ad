"""Array-native event stream against the per-event Python oracles.

The oracles are the scalar simulate loop, CSV codec and voxel grid the
array code replaced. The array code must give the same events, the same
CSV bytes, the same grid bits and the same decode errors.
"""

import math
import tracemalloc

import numpy as np
import pytest

from evframe import (
    DomainError,
    Event,
    EventStream,
    ImagePNM,
    ParseError,
    SimConfig,
    ValidationError,
    build_voxel_grid,
    decode_events,
    encode_events,
    simulate_events,
)
from evframe import formats_io
from evframe.demo import make_scene
from evframe.formats_io import EventView
from conftest import gray_image, philox

INT64_MAX = 2**63 - 1


# -- oracles -------------------------------------------------------------------------


def oracle_simulate(frame_a, frame_b, t_a, t_b, cfg):
    """One Event per crossing, timestamps in Python ints, sorted by (t, y, x)."""
    ia = frame_a.to_float01()[:, :, 0]
    ib = frame_b.to_float01()[:, :, 0]
    delta = np.log(ib + cfg.log_eps) - np.log(ia + cfg.log_eps)
    counts = np.floor(np.abs(delta) / cfg.threshold).astype(np.int64)
    polarity = np.where(delta >= 0, 1, -1)
    span = t_b - t_a
    events = []
    ys, xs = np.nonzero(counts)
    for y, x in zip(ys.tolist(), xs.tolist()):
        n = int(counts[y, x])
        p = int(polarity[y, x])
        for k in range(1, n + 1):
            t = t_a + -((-k * span) // n)
            events.append(Event(x=x, y=y, t=int(t), p=p))
    events.sort(key=lambda e: (e.t, e.y, e.x))
    return events


def oracle_encode(events):
    lines = ["t,x,y,p"]
    for e in events:
        lines.append(f"{e.t},{e.x},{e.y},{e.p}")
    return ("\n".join(lines) + "\n").encode("ascii")


def oracle_decode(data, sensor_width=None, sensor_height=None):
    """Line-by-line decoder; returns (width, height, list of Event)."""
    if (sensor_width is None) != (sensor_height is None):
        raise DomainError("sensor_width and sensor_height must be given together")
    text = data.decode("ascii", errors="replace")
    lines = text.split("\n")
    if not lines or lines[0].strip() != "t,x,y,p":
        raise ParseError("missing or malformed header, expected 't,x,y,p'", line=1)
    events = []
    prev_t = None
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.strip() == "":
            continue
        parts = raw.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", line=lineno)
        try:
            t, x, y, p = (int(v) for v in parts)
        except ValueError:
            raise ParseError(f"non-integer field in '{raw}'", line=lineno) from None
        if p not in (-1, 1):
            raise DomainError(f"line {lineno}: polarity must be -1 or +1, got {p}")
        if x < 0 or y < 0:
            raise DomainError(f"line {lineno}: coordinates ({x}, {y}) must be non-negative")
        if sensor_width is not None and not (x < sensor_width and y < sensor_height):
            raise DomainError(
                f"line {lineno}: coordinates ({x}, {y}) outside sensor "
                f"{sensor_width}x{sensor_height}"
            )
        if prev_t is not None and t < prev_t:
            raise ValidationError(
                f"line {lineno}: timestamps must be non-decreasing ({t} < {prev_t})"
            )
        prev_t = t
        events.append(Event(x=x, y=y, t=t, p=p))
    if sensor_width is None:
        if not events:
            raise DomainError("cannot infer sensor dims from an empty stream")
        sensor_width = max(e.x for e in events) + 1
        sensor_height = max(e.y for e in events) + 1
    return sensor_width, sensor_height, events


def oracle_grid(events, width, height, bins):
    """Per-event arrays and the trilinear np.add.at splat, pass by pass."""
    grid = np.zeros((bins, height, width), dtype=np.float64)
    if not events:
        return grid
    xs = np.array([e.x for e in events], dtype=np.float64)
    ys = np.array([e.y for e in events], dtype=np.float64)
    ps = np.array([e.p for e in events], dtype=np.float64)
    t = np.array([e.t for e in events], dtype=np.float64)
    span = t[-1] - t[0]
    if span == 0 or bins == 1:
        ts = np.zeros(len(t), dtype=np.float64)
    else:
        ts = (bins - 1) * (t - t[0]) / span
        ts[t - t[0] == span] = bins - 1  # an offset of the span is the last bin, unrounded
    flat = grid.reshape(-1)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    t0 = np.floor(ts).astype(np.int64)
    fx, fy, ft = xs - x0, ys - y0, ts - t0
    for dt in (0, 1):
        wt = (1.0 - ft) if dt == 0 else ft
        for dy in (0, 1):
            wy = (1.0 - fy) if dy == 0 else fy
            for dx in (0, 1):
                wx = (1.0 - fx) if dx == 0 else fx
                tb, yb, xb = t0 + dt, y0 + dy, x0 + dx
                mass = ps * wt * wy * wx
                ok = (
                    (mass != 0) & (tb >= 0) & (tb < bins) & (yb >= 0) & (yb < height)
                    & (xb >= 0) & (xb < width)
                )
                if np.any(ok):
                    np.add.at(flat, (tb[ok] * height + yb[ok]) * width + xb[ok], mass[ok])
    return grid


def assert_matches_oracles(frame_a, frame_b, t_a, t_b, cfg, bins=5):
    stream = simulate_events(frame_a, frame_b, t_a, t_b, cfg)
    want = oracle_simulate(frame_a, frame_b, t_a, t_b, cfg)
    assert list(stream.events) == want
    csv = encode_events(stream)
    assert csv == oracle_encode(want)
    w, h = frame_a.width, frame_a.height
    assert decode_events(csv, w, h) == stream
    got = build_voxel_grid(stream, bins).data
    assert got.tobytes() == oracle_grid(want, w, h, bins).tobytes()
    return stream


def flat_gray(value, width=6, height=4):
    return ImagePNM(width, height, 1, np.full((height, width, 1), value, dtype=np.uint8))


def black_to_white_pixel(width=2, height=2):
    a, b = flat_gray(0, width, height), flat_gray(0, width, height)
    b.pixels[height - 1, width - 1, 0] = 255
    return a, b


# -- simulate, encode, grid ----------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_pairs_match_the_oracles(seed):
    rng = philox(700 + seed)
    w, h = int(rng.integers(1, 40)), int(rng.integers(1, 30))
    a, b = gray_image(rng, w, h), gray_image(rng, w, h)
    t_a = int(rng.integers(-10**6, 10**6))
    t_b = t_a + int(rng.integers(1, 10**5))
    threshold = float(rng.uniform(0.02, 0.6))
    assert_matches_oracles(a, b, t_a, t_b, SimConfig(threshold), bins=int(rng.integers(1, 9)))


def test_demo_scene_matches_the_oracles():
    a, b, _ = make_scene(64, 48, 0)
    stream = assert_matches_oracles(a, b, 0, 10_000, SimConfig(threshold=0.1), bins=8)
    assert len(stream.events) > 100


def test_empty_stream_matches_the_oracles():
    img = flat_gray(90)
    stream = assert_matches_oracles(img, img, 0, 100, SimConfig(threshold=0.1))
    assert stream.table.shape == (0, 4)
    assert encode_events(stream) == b"t,x,y,p\n"


def test_one_event_matches_the_oracles():
    a, b = flat_gray(100), flat_gray(100)
    b.pixels[1, 2, 0] = 140
    delta = math.log(140 / 255 + 1 / 255) - math.log(100 / 255 + 1 / 255)
    stream = assert_matches_oracles(a, b, 5, 12, SimConfig(threshold=abs(delta) * 0.9))
    assert list(stream.events) == [Event(2, 1, 12, 1)]


def test_more_events_than_microseconds_repeat_timestamps_like_the_oracle():
    rng = philox(710)
    a, b = gray_image(rng, 9, 7), gray_image(rng, 9, 7)
    stream = assert_matches_oracles(a, b, 40, 43, SimConfig(threshold=0.05))
    assert len(np.unique(stream.t)) == 3 < len(stream.t)


def test_time_rounding_past_the_last_bin_keeps_the_mass():
    # (bins - 1) * span / span rounds to 3.0000000000000004 for this span;
    # the last event is snapped to bin 3 instead of leaking a sliver to bin 4
    span = 3876385069984879616
    assert 3 * float(span) / float(span) > 3.0
    stream = EventStream(3, 2, [Event(0, 0, 0, 1), Event(2, 1, span, -1)])
    grid = build_voxel_grid(stream, bins=4).data
    assert grid.tobytes() == oracle_grid(list(stream.events), 3, 2, 4).tobytes()
    assert grid[3, 1, 2] == -1.0 and grid[0, 0, 0] == 1.0
    assert grid.sum() == 0.0


def test_an_offset_that_rounds_to_the_span_keeps_the_mass():
    # the middle event is 1053 us before the last, but its float offset from
    # the first rounds to the span, and 3 * span / span to 3.0000000000000004
    ts = [-2617108004074853645, 4015749864110207065, 4015749864110208118]
    t = np.array(ts, dtype=np.float64)
    assert t[1] < t[2] and t[1] - t[0] == t[2] - t[0]
    assert 3 * (t[1] - t[0]) / (t[2] - t[0]) > 3.0
    stream = EventStream(3, 2, [Event(0, 0, ts[0], 1), Event(1, 1, ts[1], -1), Event(2, 1, ts[2], 1)])
    grid = build_voxel_grid(stream, bins=4).data
    assert grid.tobytes() == oracle_grid(list(stream.events), 3, 2, 4).tobytes()
    assert grid[3, 1, 1] == -1.0 and grid[3, 1, 2] == 1.0 and grid.sum() == 1.0


def test_an_unsorted_stream_is_refused_before_it_can_be_gridded():
    # the constructors do not sort: they refuse, so the grid never sees
    # events before the first timestamp or after the last
    events = [Event(0, 0, 10, 1), Event(1, 0, 0, -1), Event(2, 1, 30, 1), Event(1, 1, 20, 1)]
    table = np.array([(e.t, e.x, e.y, e.p) for e in events], dtype=np.int64)
    message = r"^event 1: timestamps must be non-decreasing \(0 < 10\)$"
    with pytest.raises(ValidationError, match=message):
        EventStream(3, 2, events)
    with pytest.raises(ValidationError, match=message):
        EventStream.from_table(3, 2, table)


def test_random_tables_encode_like_the_oracle():
    rng = philox(711)
    n = 300
    t = np.sort(rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64))
    table = np.stack(
        [t, rng.integers(0, 2**40, n), rng.integers(0, 7, n), rng.choice([-1, 1], n)], axis=1
    )
    stream = EventStream.from_table(2**40, 7, table)
    csv = encode_events(stream)
    assert csv == oracle_encode(stream.events)
    assert decode_events(csv, 2**40, 7) == stream


def random_table(rng, n, t_low, t_high, coord_high):
    """n sorted rows with t in [t_low, t_high] and x, y in [0, coord_high)."""
    t = np.sort(rng.integers(t_low, t_high, size=n, dtype=np.int64, endpoint=True))
    xy = rng.integers(0, coord_high, size=(n, 2), dtype=np.int64)
    return np.column_stack([t, xy, rng.choice([-1, 1], n)])


@pytest.mark.parametrize(
    "t_low, t_high, coord_high",
    [
        (-(2**63), INT64_MAX, 10),  # 1-digit x, y; every timestamp width and sign
        (-99, 0, 100),  # negative and zero t; 1- and 2-digit x, y
        (0, 0, 2),  # every field a single digit, t all zero
        (-5, 5, 2**62),  # x, y up to 19 digits
        (10**9, 10**9 + 50_000, 346),  # a bench-like window: 10-digit t
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_tables_encode_byte_for_byte_like_the_oracle(t_low, t_high, coord_high, seed):
    rng = philox(720 + seed)
    table = random_table(rng, int(rng.integers(1, 400)), t_low, t_high, coord_high)
    stream = EventStream.from_table(coord_high, coord_high, table)
    assert encode_events(stream) == oracle_encode(stream.events)


@pytest.mark.parametrize(
    "rows",
    [
        [(-(2**63), 0, 0, 1)],
        [(INT64_MAX, 9, 10, -1)],
        [(0, 0, 0, -1)],
        [(-(2**63), 0, 0, 1), (-1, 1, 1, -1), (0, 10, 99, 1), (INT64_MAX, 123456, 7, -1)],
    ],
    ids=["int64-min", "int64-max", "zero", "extremes"],
)
def test_single_rows_and_int64_extremes_encode_like_the_oracle(rows):
    table = np.array(rows, dtype=np.int64)
    stream = EventStream.from_table(123457, 100, table)
    assert encode_events(stream) == oracle_encode(stream.events)


def test_encode_of_the_empty_stream_is_the_header():
    stream = EventStream.from_table(3, 2, np.empty((0, 4), dtype=np.int64))
    assert encode_events(stream) == oracle_encode([]) == b"t,x,y,p\n"


def test_encode_peak_memory_stays_under_four_times_the_output():
    # ~20k events of a bench-like window; the per-field str.format encoder
    # peaked at 7.6x the output bytes, the digit rows at 3.3x
    rng = philox(730)
    stream = EventStream.from_table(346, 260, random_table(rng, 20_000, 0, 50_000, 260))
    tracemalloc.start()
    try:
        csv = encode_events(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(csv)


# -- int64 time domain ---------------------------------------------------------------


@pytest.mark.parametrize(
    "t_a,t_b",
    [(0, 2**62), (-(2**63), -1), (-(2**62), 2**62 - 1), (INT64_MAX - 2**40 - 7, INT64_MAX)],
)
def test_timestamps_are_exact_across_the_int64_range(t_a, t_b):
    a, b = black_to_white_pixel()
    cfg = SimConfig(threshold=0.5)  # log(256) / 0.5 gives 11 events
    stream = simulate_events(a, b, t_a, t_b, cfg)
    n = len(stream.events)
    assert n == 11
    span = t_b - t_a
    assert stream.t.tolist() == [t_a + -((-k * span) // n) for k in range(1, n + 1)]
    assert list(stream.events) == oracle_simulate(a, b, t_a, t_b, cfg)


@pytest.mark.parametrize(
    "t_a, span",
    [(-3, 255), (0, 256), (7, 65_535), (-(2**40), 65_536), (1, 2**32), (-(2**62), INT64_MAX - 5)],
)
def test_the_narrow_sort_key_keeps_the_oracle_order_at_every_key_width(t_a, span):
    # spans on both sides of the uint8, uint16 and uint32 key types; pixels
    # with the same event count tie at every timestamp they share
    rng = philox(740)
    a, b = gray_image(rng, 12, 9), gray_image(rng, 12, 9)
    cfg = SimConfig(threshold=0.05)
    stream = simulate_events(a, b, t_a, t_a + span, cfg)
    assert list(stream.events) == oracle_simulate(a, b, t_a, t_a + span, cfg)
    assert len(np.unique(stream.t)) < len(stream.t)


@pytest.mark.parametrize(
    "t_a,t_b", [(0, 2**64), (-(2**63), 2**63 - 1), (-(2**63) - 1, 0), (2**63, 2**63 + 5)]
)
def test_times_outside_int64_are_refused_before_any_event_is_built(t_a, t_b):
    a, b = black_to_white_pixel(256, 256)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="int64"):
            simulate_events(a, b, t_a, t_b, SimConfig(threshold=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the float frames alone would take 512 KiB


def test_non_integer_times_are_a_domain_error():
    a, b = black_to_white_pixel()
    with pytest.raises(DomainError, match="integers"):
        simulate_events(a, b, 0.5, 10, SimConfig(threshold=0.5))


@pytest.mark.parametrize(
    "field", ["99999999999999999999", str(2**63), str(-(2**63) - 1)]
)
@pytest.mark.parametrize("column", [0, 1, 2])
def test_csv_field_outside_int64_is_a_line_numbered_domain_error(field, column):
    row = ["5", "1", "1", "1"]
    row[column] = field
    data = ("t,x,y,p\n4,0,0,1\n" + ",".join(row) + "\n").encode()
    with pytest.raises(DomainError, match=r"^line 3: field outside the int64 range"):
        decode_events(data)


def test_csv_int64_extremes_round_trip():
    data = f"t,x,y,p\n{-(2**63)},0,0,1\n{INT64_MAX},1,2,-1\n".encode()
    stream = decode_events(data)
    assert stream.t.tolist() == [-(2**63), INT64_MAX]
    assert encode_events(stream) == data


# -- decode parity -------------------------------------------------------------------

BASE_ROWS = [(10, 0, 0, 1), (10, 3, 1, -1), (12, 2, 4, 1), (20, 5, 2, -1), (21, 1, 1, 1)]
W, H = 6, 5


def mutations(rows):
    """(name, body lines) for every one-line mutation of every row."""
    for i, row in enumerate(rows):
        fields = [str(v) for v in row]

        def put(line, i=i):
            return [",".join(map(str, r)) for r in rows[:i]] + [line] + [
                ",".join(map(str, r)) for r in rows[i + 1:]
            ]

        def field(c, text):
            f = list(fields)
            f[c] = text
            return ",".join(f)

        yield "three-fields", put(",".join(fields[:3]))
        yield "five-fields", put(",".join(fields) + ",1")
        yield "empty-field", put(field(1, ""))
        for c in range(4):
            yield f"x-in-{c}", put(field(c, "x"))
            yield f"underscore-in-{c}", put(field(c, "1_" + fields[c].lstrip("-")))
            yield f"plus-in-{c}", put(field(c, "+" + fields[c].lstrip("-")))
            yield f"space-in-{c}", put(field(c, " " + fields[c]))
            yield f"tab-after-{c}", put(field(c, fields[c] + "\t"))
            yield f"separator-after-{c}", put(field(c, fields[c] + "\x1c"))
        yield "whitespace-line", put("  \t ") + [",".join(fields)]
        yield "blank-line", put("") + [",".join(fields)]
        yield "crlf", put(",".join(fields) + "\r")
        yield "bare-cr-joins-lines", put(",".join(fields) + "\r" + ",".join(fields))
        yield "polarity-0", put(field(3, "0"))
        yield "polarity-2", put(field(3, "2"))
        yield "negative-x", put(field(1, "-1"))
        yield "negative-y", put(field(2, "-3"))
        yield "x-out-of-sensor", put(field(1, str(W)))
        yield "y-out-of-sensor", put(field(2, str(H)))
        yield "decreasing-t", put(field(0, str(row[0] - 11)))
        yield "double-minus", put(field(0, "--" + fields[0]))
        yield "decimal-point", put(field(c, fields[c] + ".0"))
        yield "exponent", put(field(0, fields[0] + "e0"))
        yield "non-ascii", put(field(1, "é"))


def decode_both(data, dims):
    """(outcome of decode_events, outcome of the oracle) as comparable tuples."""
    outcomes = []
    for fn in (decode_events, oracle_decode):
        try:
            out = fn(data, *dims)
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
            continue
        if isinstance(out, EventStream):
            out = (out.sensor_width, out.sensor_height, list(out.events))
        outcomes.append(("ok", out))
    return outcomes


@pytest.mark.parametrize("dims", [(W, H), (None, None)], ids=["dims", "inferred"])
def test_decode_matches_the_oracle_on_one_line_mutations(dims):
    seen = set()
    for name, lines in mutations(BASE_ROWS):
        for tail in ("\n", ""):
            data = ("t,x,y,p\n" + "\n".join(lines) + tail).encode("utf-8")
            got, want = decode_both(data, dims)
            assert got == want, f"{name}: {data!r}"
            seen.add(want[0] == "ok")
    assert seen == {True, False}  # both accepted and rejected bodies were covered


@pytest.mark.parametrize(
    "data",
    [
        b"t,x,y,p\n",
        b"t,x,y,p",
        b"t,x,y,p\n\n\n",
        b" t,x,y,p \r\n1,1,1,1\r\n",
        b"t,x,y,p\n-0,007,0,-1\n",
        b"t,x,y,p\n1,2,3,4\n",
        b"t,x,y\n1,2,3\n",
        b"t,x,y,p\n,,,\n",
        b"t,x,y,p\n1,1,1,1,\n",
        b"t,x,y,p\n-\n",
        b"",
        b"t,x,y,p\r\n1,1,1,1\r\n\r\n2,2,2,-1\r\n",
        b"t,x,y,p\r\n\r\n\r",
        b"t,x,y,p\n1,1,1,1\r",
        b"t,x,y,p\n1,1,1,1\r\r\n",
        b"t,x,y,p\n1,1,1,1\n\r2,2,2,1\n",
        b"t,x,y,p\n1\r,1,1,1\n",
    ],
)
def test_decode_matches_the_oracle_on_edge_bodies(data, recwarn):
    for dims in ((W, H), (None, None)):
        got, want = decode_both(data, dims)
        assert got == want
    assert not recwarn.list  # an empty body must not warn


def test_plain_lf_and_crlf_bodies_skip_the_line_scanner(monkeypatch):
    def refuse(*args):
        raise AssertionError("the line scanner ran")

    monkeypatch.setattr(formats_io, "_scan_event_lines", refuse)
    rows = "10,0,0,1\n10,3,1,-1\n12,2,4,1\n"
    for data in (rows, rows.replace("\n", "\r\n"), "\n" + rows + "\n\n"):
        stream = decode_events(("t,x,y,p\n" + data).encode(), W, H)
        assert stream.table.tolist() == [list(r) for r in BASE_ROWS[:3]]


# -- the Event view ------------------------------------------------------------------


def test_events_view_is_a_read_only_sequence_of_events():
    events = [Event(3, 1, 10, 1), Event(0, 2, 10, -1), Event(5, 4, 42, 1)]
    stream = EventStream(8, 6, events)
    view = stream.events
    assert isinstance(view, EventView)
    assert len(view) == 3 and view
    assert view == events and events == view and view == stream.events
    assert view != events[:2] and view != EventView(stream.table[:2])
    assert view[1] == Event(0, 2, 10, -1) and view[-1] == events[-1]
    assert view[1:] == events[1:]
    assert list(view) == events and Event(5, 4, 42, 1) in view
    assert view + events == events + events == events + view
    assert view + stream.events == events + events
    assert sum(e.p for e in view) == int(stream.p.sum()) == 1
    with pytest.raises(TypeError):
        view[0] = events[0]
    with pytest.raises(IndexError):
        view[3]
    with pytest.raises(AttributeError):
        stream.events = events
    assert not EventStream(2, 2, []).events


def test_stream_columns_follow_the_csv_order():
    stream = EventStream(8, 6, [Event(3, 1, 10, 1), Event(0, 2, 11, -1)])
    assert stream.table.dtype == np.int64 and stream.table.shape == (2, 4)
    assert stream.t.tolist() == [10, 11]
    assert stream.x.tolist() == [3, 0]
    assert stream.y.tolist() == [1, 2]
    assert stream.p.tolist() == [1, -1]
    assert EventStream(8, 6, stream.events) == stream != EventStream(9, 6, stream.events)
    with pytest.raises(ValueError):
        stream.t[0] = 0


@pytest.mark.parametrize(
    "events",
    [[Event(0.5, 0, 0, 1)], [Event(0, 0, 2**63, 1)], [(1, 2, 3)], [Event(0, 0, 0, 1), 7]],
    ids=["float", "beyond-int64", "three-fields", "not-an-event"],
)
def test_stream_refuses_events_that_are_not_int64_quadruples(events):
    with pytest.raises(ValidationError):
        EventStream(4, 4, events)


def test_from_table_refuses_a_wrong_table():
    with pytest.raises(ValidationError):
        EventStream.from_table(4, 4, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValidationError):
        EventStream.from_table(4, 4, np.zeros((2, 4), dtype=np.float64))


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ((12, 1, 1, 0), DomainError, r"polarity must be -1 or \+1, got 0"),
        ((12, -1, 1, 1), DomainError, r"coordinates \(-1, 1\) outside sensor 4x3"),
        ((12, 1, -1, 1), DomainError, r"coordinates \(1, -1\) outside sensor 4x3"),
        ((12, 4, 1, 1), DomainError, r"coordinates \(4, 1\) outside sensor 4x3"),
        ((12, 1, 3, -1), DomainError, r"coordinates \(1, 3\) outside sensor 4x3"),
        ((9, 1, 1, 1), ValidationError, r"timestamps must be non-decreasing \(9 < 10\)"),
    ],
    ids=["polarity", "negative-x", "negative-y", "x-past-width", "y-past-height", "decreasing-t"],
)
def test_every_constructor_names_the_first_bad_event(bad, error, message):
    # rows 2 and 4 break the rule, and row 4 the time order as well
    rows = [(10, 0, 0, 1), (10, 3, 2, -1), bad, (12, 0, 0, 1), (bad[0] - 1,) + bad[1:], (13, 0, 0, 1)]
    table = np.array(rows, dtype=np.int64)
    for build in (
        lambda: EventStream(4, 3, [Event(x, y, t, p) for t, x, y, p in rows]),
        lambda: EventStream.from_table(4, 3, table),
    ):
        with pytest.raises(error, match=f"^event 2: {message}$"):
            build()


def test_a_valid_table_is_wrapped_without_a_copy():
    table = np.array([(0, 0, 0, 1), (0, 3, 2, -1), (5, 1, 1, 1)], dtype=np.int64)
    stream = EventStream.from_table(4, 3, table)
    assert np.shares_memory(stream.table, table)
    assert EventStream(4, 3, stream.events) == stream


@pytest.mark.parametrize(
    "dims", [(0, 3), (4, 0), (-1, -1)], ids=["no-width", "no-height", "negative"]
)
def test_sensor_dims_below_one_are_refused_by_every_constructor(dims):
    empty = np.empty((0, 4), dtype=np.int64)
    name, value = ("sensor_width", dims[0]) if dims[0] < 1 else ("sensor_height", dims[1])
    for build in (
        lambda: EventStream(*dims, []),
        lambda: EventStream.from_table(*dims, empty),
        lambda: decode_events(b"t,x,y,p\n", *dims),
        lambda: decode_events(b"t,x,y,p\n0,0,0,1\n", *dims),
    ):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == f"{name} must be an int >= 1, got {value!r}"


@pytest.mark.parametrize("dims", [(2.5, 3), (4, True), (4.0, 3.0)], ids=["float", "bool", "integral-float"])
def test_sensor_dims_that_are_not_integers_are_refused_by_every_constructor(dims):
    empty = np.empty((0, 4), dtype=np.int64)
    name, value = ("sensor_height", dims[1]) if type(dims[0]) is int else ("sensor_width", dims[0])
    message = f"{name} must be an int >= 1, got {value!r}"
    for build in (
        lambda: EventStream(*dims, []),
        lambda: EventStream.from_table(*dims, empty),
        lambda: decode_events(b"t,x,y,p\n", *dims),
        lambda: decode_events(b"t,x,y,p\n0,0,0,1\n", *dims),
    ):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message


def test_numpy_integer_sensor_dims_are_accepted():
    stream = decode_events(b"t,x,y,p\n0,3,2,1\n", np.int64(4), np.uint16(3))
    assert (stream.sensor_width, stream.sensor_height) == (4, 3)
