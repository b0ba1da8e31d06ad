"""Readers and writers for every on-disk artifact.

Formats:
  * event files     - CSV with header ``t,x,y,p``, microsecond timestamps
  * images          - binary PNM (P5 grayscale / P6 color), maxval 255
  * tensors         - "FTNS" container: u32-LE rank and dims, f32-LE payload
  * calibration     - hand-written JSON with five 3x3 row-major matrices; read only
  * detections      - newline-delimited JSON records (COCO-style tlwh boxes)

All codecs are pure value transformations. Decoding rejects invalid input
instead of repairing it; errors name the offending line or field.
"""

from __future__ import annotations

import io
import json
import math
import re
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DomainError,
    FormatError,
    ParseError,
    SchemaError,
    ValidationError,
    check_count,
    real_array,
)

TENSOR_MAGIC = b"FTNS"
MAX_TENSOR_RANK = 4
MAX_TENSOR_DIM = 2**32 - 1  # a dim is stored as a u32

# Range of event fields: timestamps, coordinates and polarities are int64.
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class Event(NamedTuple):
    """Single sensor event: pixel coordinates, microsecond timestamp, polarity."""

    x: int
    y: int
    t: int
    p: int


class EventView(Sequence):
    """Read-only sequence of Event over an (n, 4) t, x, y, p table.

    Length is O(1); events are built only while iterating or indexing. Equal
    to another view with an equal table or to a list of equal events;
    ``+`` with a list or view gives a list.
    """

    __slots__ = ("_table",)

    def __init__(self, table: np.ndarray):
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EventView(self._table[i])
        t, x, y, p = self._table[i].tolist()
        return Event(x, y, t, p)

    def __iter__(self):
        for t, x, y, p in self._table.tolist():
            yield Event(x, y, t, p)

    def __eq__(self, other):
        if isinstance(other, EventView):
            return np.array_equal(self._table, other._table)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (list, EventView)):
            return list(self) + list(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, list):
            return other + list(self)
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventView({len(self)} events)"


class EventStream:
    """Events plus the sensor geometry they were captured on.

    The events live in ``table``, an (n, 4) int64 array whose columns are
    the CSV's t, x, y, p; ``t``, ``x``, ``y`` and ``p`` are its read-only
    column views. The constructor takes a sequence of Event; ``from_table``
    wraps a table without copying it. ``events`` views the table as a
    read-only sequence of Event. Both read the sensor dims through
    ``check_count`` and store them as ints, and both check every event:
    polarity -1 or +1 and 0 <= x < width, 0 <= y < height (else a
    ``DomainError``), timestamps non-decreasing (else a ``ValidationError``).
    The error names the first bad event.
    """

    def __init__(self, sensor_width: int, sensor_height: int, events: Sequence):
        self.sensor_width = sensor_width = check_count("sensor_width", sensor_width)
        self.sensor_height = sensor_height = check_count("sensor_height", sensor_height)
        table = _event_table(events)
        t, x, y, p = table.T
        bad = (p != 1) & (p != -1) | (x < 0) | (y < 0) | (x >= sensor_width) | (y >= sensor_height)
        bad[1:] |= t[1:] < t[:-1]
        if bad.any():
            i = int(np.argmax(bad))
            t, x, y, p = table[i].tolist()
            if p not in (-1, 1):
                raise DomainError(f"event {i}: polarity must be -1 or +1, got {p}")
            if not (0 <= x < sensor_width and 0 <= y < sensor_height):
                raise DomainError(
                    f"event {i}: coordinates ({x}, {y}) outside sensor {sensor_width}x{sensor_height}"
                )
            raise ValidationError(f"event {i}: timestamps must be non-decreasing ({t} < {table[i - 1, 0]})")
        self.table = _read_only(table)

    @classmethod
    def from_table(cls, sensor_width: int, sensor_height: int, table: np.ndarray) -> "EventStream":
        """Wrap an (n, 4) int64 t, x, y, p table without copying it."""
        table = np.asarray(table)
        if table.dtype != np.int64 or table.ndim != 2 or table.shape[1] != 4:
            raise ValidationError(f"event table must be (n, 4) int64, got {table.dtype} {table.shape}")
        return cls(sensor_width, sensor_height, EventView(table))

    @property
    def events(self) -> EventView:
        return EventView(self.table)

    @property
    def t(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def x(self) -> np.ndarray:
        return self.table[:, 1]

    @property
    def y(self) -> np.ndarray:
        return self.table[:, 2]

    @property
    def p(self) -> np.ndarray:
        return self.table[:, 3]

    def __eq__(self, other):
        if not isinstance(other, EventStream):
            return NotImplemented
        return (self.sensor_width, self.sensor_height) == (
            other.sensor_width,
            other.sensor_height,
        ) and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:
        return (
            f"EventStream({self.sensor_width}x{self.sensor_height}, "
            f"{len(self.table)} events)"
        )


def _read_only(table: np.ndarray) -> np.ndarray:
    """A read-only view, so the stream's columns cannot be written through."""
    view = table.view()
    view.flags.writeable = False
    return view


def _event_table(events: Sequence) -> np.ndarray:
    """(n, 4) int64 t, x, y, p table of a sequence of Event."""
    if isinstance(events, EventView):
        return events._table
    events = list(events)
    if not events:
        return np.empty((0, 4), dtype=np.int64)
    try:
        rows = np.array(events)
    except (OverflowError, ValueError):
        rows = None
    if rows is None or rows.ndim != 2 or rows.shape[1] != 4 or rows.dtype.kind not in "ib":
        raise ValidationError("events must be (x, y, t, p) tuples of int64 integers")
    return np.ascontiguousarray(rows[:, [2, 0, 1, 3]], dtype=np.int64)


@dataclass
class ImagePNM:
    """Dense 8-bit image. ``pixels`` has shape (height, width, channels).

    ``width``, ``height`` and ``channels`` are read through ``check_count``
    and stored as ints, so every image encodes to a PNM that decodes.
    """

    width: int
    height: int
    channels: int  # 1 (grayscale) or 3 (color)
    pixels: np.ndarray  # uint8, shape (height, width, channels)

    def __post_init__(self):
        self.width = check_count("width", self.width)
        self.height = check_count("height", self.height)
        self.channels = check_count("channels", self.channels)
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if self.pixels.shape != (self.height, self.width, self.channels):
            raise ValidationError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"(height={self.height}, width={self.width}, channels={self.channels})"
            )
        if self.channels not in (1, 3):
            raise ValidationError(f"channels must be 1 or 3, got {self.channels}")

    def to_float01(self) -> np.ndarray:
        """Pixels as float64 in [0, 1], same shape."""
        return self.pixels.astype(np.float64) / 255.0

    @classmethod
    def from_float01(cls, arr: np.ndarray) -> "ImagePNM":
        """Clamp a float [0, 1] array back to an 8-bit image."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValidationError(f"expected (H, W, 1|3) array, got shape {arr.shape}")
        scaled = arr * 255.0
        np.rint(scaled, out=scaled)
        pixels = np.clip(scaled, 0, 255, out=scaled).astype(np.uint8)
        h, w, c = pixels.shape
        return cls(width=w, height=h, channels=c, pixels=pixels)


@dataclass
class CameraRig:
    """Intrinsics and rotations of the RGB / event camera pair.

    ``r_event_rgb`` rotates the RGB camera frame into the event camera frame;
    ``r_rgb`` / ``r_event`` are the per-camera rectifying rotations.
    """

    k_rgb: np.ndarray
    k_event: np.ndarray
    r_rgb: np.ndarray
    r_event: np.ndarray
    r_event_rgb: np.ndarray

    ORTHONORMALITY_TOL = 1e-6

    def __post_init__(self):
        for name in ("k_rgb", "k_event", "r_rgb", "r_event", "r_event_rgb"):
            m = np.asarray(real_array(name, getattr(self, name)), dtype=np.float64)
            if m.shape != (3, 3):
                raise ValidationError(f"{name} must be 3x3, got {m.shape}")
            if not np.isfinite(m).all():
                raise ValidationError(f"{name} has a non-finite entry")
            setattr(self, name, m)
        for name in ("r_rgb", "r_event", "r_event_rgb"):
            r = getattr(self, name)
            err = np.abs(r.T @ r - np.eye(3)).max()
            if err > self.ORTHONORMALITY_TOL:
                raise ValidationError(
                    f"{name} is not orthonormal: max |R^T R - I| = {err:.3e} "
                    f"exceeds {self.ORTHONORMALITY_TOL:g}"
                )
        for name in ("k_rgb", "k_event"):
            k = getattr(self, name)
            if np.any(np.abs(k[np.tril_indices(3, -1)]) > 0):
                raise ValidationError(f"{name} must be upper-triangular")
            if np.any(np.diag(k) <= 0):
                raise ValidationError(f"{name} diagonal must be positive")


@dataclass
class DetectionRecord:
    """One detection or ground-truth box in file convention.

    The ids are integers within int64, stored as ``int``: a numpy integer or
    a float of integral value such as 1.0 counts as one, a bool does not.
    ``bbox`` is (x, y, w, h) with (x, y) the top-left corner in pixels; its
    entries are finite and w, h positive. ``score`` is None for ground truth.
    """

    image_id: int
    category_id: int
    bbox: tuple  # (x, y, w, h)
    score: Optional[float] = None

    def __post_init__(self):
        self.image_id = _int64_id("image_id", self.image_id)
        self.category_id = _int64_id("category_id", self.category_id)
        try:
            self.bbox = tuple(float(v) for v in self.bbox)
        except OverflowError:
            raise DomainError(f"bbox entries must be finite, got {self.bbox}") from None
        except (TypeError, ValueError):
            raise DomainError(f"bbox entries must be numbers, got {self.bbox!r}") from None
        if len(self.bbox) != 4:
            raise ValidationError(f"bbox must have 4 entries, got {len(self.bbox)}")
        if self.score is not None:
            try:
                self.score = float(self.score)
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"score must be a number in [0, 1], got {self.score!r}") from None
        _check_detections(np.array([self.bbox]), np.array([0.0 if self.score is None else self.score]), "")


def _int64_id(name: str, value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer within int64, got {value!r}")
    if not INT64_MIN <= int(value) <= INT64_MAX:
        raise DomainError(f"{name} {value} is outside the int64 range")
    return int(value)


def _id_column(name: str, values) -> np.ndarray:
    """A read-only int64 column of ids; a column of another dtype is checked
    entry by entry as DetectionRecord checks an id, never cast blindly."""
    column = np.asarray(values)
    if column.dtype != np.int64:
        for i, value in enumerate(column.tolist()):
            _int64_id(f"row {i}: {name}", value)
    return _read_only(np.ascontiguousarray(column, dtype=np.int64))


def _column(name: str, values, dtype=None) -> np.ndarray:
    """``np.asarray(values, dtype)``; only when numpy refuses are the entries
    looked at, for a typed error: a ValidationError for a ragged column, a
    DomainError for the first entry float() refuses or that overflows."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        pass
    try:
        cells = np.atleast_1d(values).astype(object)
    except ValueError:
        raise ValidationError(f"{name} column is ragged: its entries differ in shape") from None
    for index, v in np.ndenumerate(cells):
        try:
            float(v)
        except OverflowError:
            raise DomainError(f"row {index[0]}: {name} entries must be finite, got {v}") from None
        except (TypeError, ValueError):
            raise DomainError(f"row {index[0]}: {name} entry {v!r} is not a number") from None
    raise ValidationError(f"{name} column cannot be read as numbers")


def _check_detections(bbox: np.ndarray, score: np.ndarray, where: str) -> None:
    """Raise the DomainError of the first row whose (n, 4) box is not finite
    with w, h > 0 or whose score is not in [0, 1]; ``where`` formats the
    row's index into the message's prefix."""
    finite = np.isfinite(bbox).all(axis=1)
    bad = ~(finite & (bbox[:, 2] > 0) & (bbox[:, 3] > 0) & (score >= 0.0) & (score <= 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        box = tuple(bbox[i].tolist())
        if not finite[i]:
            why = f"bbox entries must be finite, got {box}"
        elif not (box[2] > 0 and box[3] > 0):
            why = f"bbox width/height must be positive, got w={box[2]}, h={box[3]}"
        else:
            why = f"score must be in [0, 1], got {score[i].item()}"
        raise DomainError(where.format(i) + why)


def _record(image_id, category_id, bbox, score) -> DetectionRecord:
    """A DetectionRecord from one table row; a NaN score means none."""
    return DetectionRecord(image_id, category_id, tuple(bbox), None if math.isnan(score) else score)


class DetectionTable(Sequence):
    """Read-only sequence of DetectionRecord over detection columns.

    ``image_id`` and ``category_id`` are int64, ``bbox`` is (n, 4) float64
    x, y, w, h and ``score`` is float64 with NaN for a record without one
    (NaN is never a valid score). The constructor reads each column as an
    array (a ragged column is a ``ValidationError``, an entry that is not a
    float64 number a ``DomainError``, each naming the column), checks that
    the columns share one length n (a ``ValidationError`` naming every
    shape), then checks every row as DetectionRecord checks a record: integer ids
    within int64, a finite box with w, h > 0 and a score in [0, 1] or NaN;
    the ``DomainError`` names the first bad row. Records are built only
    while iterating or indexing. Equal to another table with equal columns
    or to a list of equal records.
    """

    __slots__ = ("image_id", "category_id", "bbox", "score")

    def __init__(self, image_id, category_id, bbox, score):
        image_id, category_id = _column("image_id", image_id), _column("category_id", category_id)
        bbox, score = _column("bbox", bbox, np.float64), _column("score", score, np.float64)
        if not bbox.size:
            bbox = bbox.reshape(0, 4)
        n = score.shape[:1]
        if score.ndim != 1 or not (image_id.shape == category_id.shape == n and bbox.shape == n + (4,)):
            raise ValidationError(
                "detection columns must be n ids, n ids, (n, 4) boxes and n scores, got "
                f"image_id {image_id.shape}, category_id {category_id.shape}, "
                f"bbox {bbox.shape}, score {score.shape}"
            )
        self.image_id = _id_column("image_id", image_id)
        self.category_id = _id_column("category_id", category_id)
        self.bbox = _read_only(np.ascontiguousarray(bbox))
        self.score = _read_only(np.ascontiguousarray(score))
        _check_detections(self.bbox, np.where(np.isnan(self.score), 0.0, self.score), "row {}: ")

    @classmethod
    def from_records(cls, records: Sequence) -> "DetectionTable":
        """Columns of a sequence of DetectionRecord."""
        if isinstance(records, DetectionTable):
            return records
        records = list(records)
        return cls(
            [r.image_id for r in records],
            [r.category_id for r in records],
            [r.bbox for r in records],
            [math.nan if r.score is None else r.score for r in records],
        )

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DetectionTable(self.image_id[i], self.category_id[i], self.bbox[i], self.score[i])
        return _record(
            self.image_id[i].item(), self.category_id[i].item(), self.bbox[i].tolist(), self.score[i].item()
        )

    def __iter__(self):
        columns = (self.image_id, self.category_id, self.bbox, self.score)
        for row in zip(*(c.tolist() for c in columns)):
            yield _record(*row)

    def __eq__(self, other):
        if isinstance(other, DetectionTable):
            return (
                np.array_equal(self.image_id, other.image_id)
                and np.array_equal(self.category_id, other.category_id)
                and np.array_equal(self.bbox, other.bbox)
                and np.array_equal(self.score, other.score, equal_nan=True)
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"DetectionTable({len(self)} records)"


# ---------------------------------------------------------------------------
# Event CSV codec


def encode_events(stream: EventStream) -> bytes:
    """Serialize a stream to CSV with header ``t,x,y,p``.

    Each column becomes a block of zero-padded ASCII characters, one row per
    character position; the blocks are stacked, read back row-major (event
    by event) and the zero padding is dropped.
    """
    if not len(stream.table):
        return b"t,x,y,p\n"
    seps = b",,,\n"
    chars = np.concatenate([_digit_rows(stream.table[:, c], seps[c]) for c in range(4)])
    return b"t,x,y,p\n" + chars.T.tobytes().translate(None, b"\0")


# 10**1 .. 10**19: a magnitude has one digit more than the powers it reaches.
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _digit_rows(column: np.ndarray, sep: int) -> np.ndarray:
    """(width + 1, n) uint8 characters of one non-empty int64 column.

    Row j holds the j-th character of every field: right-aligned decimal
    digits, ``-`` in the first row for a negative value and ``sep`` in the
    last row; every other position is 0, so once the zeros are dropped the
    sign sits just before the leading digit.
    """
    neg = column < 0
    # two's complement: |INT64_MIN| wraps to itself and reads as 2**63
    mag = np.abs(column).view(np.uint64)
    top = int(mag.max())
    mag = mag.astype(np.min_scalar_type(top))  # narrow division is faster
    digits = np.searchsorted(_POW10[_POW10 <= top].astype(mag.dtype), mag, side="right") + 1
    places = len(str(top))
    width = places + bool(neg.any())
    rows = np.zeros((width + 1, len(column)), dtype=np.uint8)
    rows[width] = sep
    for d in range(places):
        mag, r = np.divmod(mag, 10)
        np.add(r, ord("0"), out=rows[width - 1 - d], where=digits > d, casting="unsafe")
    rows[0, neg] = ord("-")
    return rows


def decode_events(
    data: bytes,
    sensor_width: Optional[int] = None,
    sensor_height: Optional[int] = None,
) -> EventStream:
    """Parse an event CSV file; validates ordering, bounds, and polarity.

    When the sensor dims are omitted they are inferred as max coordinate + 1,
    which requires at least one event; given dims are read through ``check_count``.
    Every field must fit in int64.
    """
    if (sensor_width is None) != (sensor_height is None):
        raise DomainError("sensor_width and sensor_height must be given together")
    if sensor_width is not None:
        sensor_width = check_count("sensor_width", sensor_width)
        sensor_height = check_count("sensor_height", sensor_height)
    head, _, body = data.partition(b"\n")
    if head.decode("ascii", errors="replace").strip() != "t,x,y,p":
        raise ParseError("missing or malformed header, expected 't,x,y,p'", line=1)
    table = _parse_event_table(body)
    if table is None:
        table = _scan_event_lines(body, sensor_width, sensor_height)
    width, height = sensor_width, sensor_height
    if width is None:
        if not len(table):
            raise DomainError("cannot infer sensor dims from an empty stream")
        width, height = int(table[:, 1].max()) + 1, int(table[:, 2].max()) + 1
    try:
        return EventStream.from_table(width, height, table)
    except (DomainError, ValidationError):
        _scan_event_lines(body, sensor_width, sensor_height)  # raises the first bad line's error
        raise


# Bytes of a plain body: optionally signed decimal fields, commas, LF or
# CRLF line ends.
_EVENT_BODY_BYTES = b"0123456789,-\r\n"


def _parse_event_table(body: bytes) -> Optional[np.ndarray]:
    """Parse a plain CSV body in one pass; None for anything else.

    Bodies with other bytes are left to the line scanner, since int() and
    np.loadtxt disagree outside plain digits: int() reads '1_0', loadtxt
    reads '5\\x1c' (and, in numpy 1.x, '1.0') as integers.
    """
    if body.translate(None, _EVENT_BODY_BYTES):
        return None
    if not body.strip(b"\r\n"):
        return np.empty((0, 4), dtype=np.int64)
    try:
        table = np.loadtxt(
            io.StringIO(body.decode("ascii")),
            delimiter=",",
            dtype=np.int64,
            comments=None,
            ndmin=2,
        )
    except ValueError:  # a bad field, a ragged row or a value outside int64
        return None
    return table if table.shape[1] == 4 else None


def _scan_event_lines(body: bytes, sensor_width, sensor_height) -> np.ndarray:
    """Check a CSV body line by line, raising the first line's error.

    Runs only when the one-pass parse declines the body or EventStream
    refuses its table. A body it accepts (e.g. fields like '+5' or ' 5') is
    returned as a table.
    """
    rows = []
    prev_t = None
    for lineno, raw in enumerate(body.decode("ascii", errors="replace").split("\n"), start=2):
        if raw.strip() == "":
            continue
        parts = raw.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", line=lineno)
        try:
            t, x, y, p = (int(v) for v in parts)
        except ValueError:
            raise ParseError(f"non-integer field in '{raw}'", line=lineno) from None
        if not all(INT64_MIN <= v <= INT64_MAX for v in (t, x, y, p)):
            raise DomainError(f"line {lineno}: field outside the int64 range in '{raw}'")
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
        rows.append((t, x, y, p))
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


# ---------------------------------------------------------------------------
# PNM image codec


def encode_image(img: ImagePNM) -> bytes:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + f"\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


# Width, height and maxval, each after whitespace and # comments, then the one
# whitespace byte before the payload. Possessive, so the bytes of a comment are
# never read back as a token. decode_image takes a token only if it is ASCII
# digits ([0-9]+): int() would also read "+1", "1_0" or non-ASCII digits.
_PNM_HEADER = re.compile(3 * rb"(?:\s|#[^\n]*+)*+(\S++)" + rb"\s")


def decode_image(data: bytes) -> ImagePNM:
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise FormatError("unsupported image magic, expected P5 or P6")
    channels = 1 if data[:2] == b"P5" else 3
    header = _PNM_HEADER.match(data, 2)
    if header is None:
        raise FormatError("truncated PNM header")
    if not all(t.isdigit() for t in header.groups()):
        raise FormatError("non-numeric PNM header field")
    width, height, maxval = map(int, header.groups())
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, expected 255")
    if width <= 0 or height <= 0:
        raise FormatError(f"invalid dimensions {width}x{height}")
    payload = data[header.end() :]
    expected = width * height * channels
    if len(payload) != expected:
        raise FormatError(
            f"payload has {len(payload)} bytes, expected {expected} "
            f"for {width}x{height}x{channels}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return ImagePNM(width=width, height=height, channels=channels, pixels=pixels.copy())


# ---------------------------------------------------------------------------
# Tensor container codec


def encode_tensor(arr: np.ndarray) -> bytes:
    """Serialize an array as FTNS: little-endian u32 rank/dims, f32 payload.

    Values are stored at 32-bit precision; pass float32 data for bit-exact
    round trips. NaN and infinities are stored as they are. Input that is not
    one bool, integer or float array (ragged, object, string or complex), a
    dim above 2**32 - 1, or a finite value beyond the float32 range, is a
    DomainError raised before any byte is built.
    """
    arr = real_array("tensor", arr)
    if arr.ndim < 1 or arr.ndim > MAX_TENSOR_RANK:
        raise DomainError(f"tensor rank must be 1..{MAX_TENSOR_RANK}, got {arr.ndim}")
    if max(arr.shape) > MAX_TENSOR_DIM:
        raise DomainError(f"tensor dims must be at most {MAX_TENSOR_DIM}, got {arr.shape}")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        values = np.ascontiguousarray(arr, dtype="<f4")
    overflow = np.isinf(values) & np.isfinite(arr)
    if overflow.any():
        at = tuple(np.argwhere(overflow)[0].tolist())
        raise DomainError(f"tensor value {arr[at]} at index {at} is beyond the float32 range")
    header = TENSOR_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + values.tobytes()


def decode_tensor(data: bytes) -> np.ndarray:
    """Parse an FTNS container back into a float32 array."""
    if len(data) < 8 or data[:4] != TENSOR_MAGIC:
        raise FormatError("bad tensor magic, expected 'FTNS'")
    (rank,) = struct.unpack_from("<I", data, 4)
    if rank < 1 or rank > MAX_TENSOR_RANK:
        raise FormatError(f"tensor rank must be 1..{MAX_TENSOR_RANK}, got {rank}")
    header_len = 8 + 4 * rank
    if len(data) < header_len:
        raise FormatError("truncated tensor header")
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    count = math.prod(dims)
    payload = data[header_len:]
    if len(payload) != 4 * count:
        raise FormatError(
            f"tensor payload holds {len(payload) // 4} values, expected {count} "
            f"for dims {tuple(dims)}"
        )
    values = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    return values.reshape(dims)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        return decode_tensor(f.read())


def write_tensor(path, arr: np.ndarray) -> None:
    data = encode_tensor(arr)  # a refused array leaves no file
    with open(path, "wb") as f:
        f.write(data)


# ---------------------------------------------------------------------------
# Calibration


_CALIB_KEYS = ("K_rgb", "K_event", "R_rgb", "R_event", "R_event_rgb")


def parse_calibration(data: bytes) -> CameraRig:
    """Parse calibration JSON into a validated CameraRig.

    Each key holds a 9-element row-major array of finite JSON numbers (not
    strings or booleans). Rotation orthonormality is checked to 1e-6;
    intrinsics must be upper-triangular with positive diagonal.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # nesting too deep
        raise ParseError(f"calibration is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("calibration root must be a JSON object")
    matrices = {}
    for key in _CALIB_KEYS:
        if key not in doc:
            raise SchemaError(f"calibration is missing matrix '{key}'")
        raw = doc[key]
        if not isinstance(raw, list) or len(raw) != 9:
            raise SchemaError(f"'{key}' must be a 9-element row-major array")
        if not all(type(v) in (int, float) for v in raw):  # JSON numbers; true is a bool
            raise SchemaError(f"'{key}' contains a non-numeric entry")
        try:
            m = np.array([float(v) for v in raw], dtype=np.float64)
        except OverflowError:  # a JSON integer beyond the float64 range
            raise SchemaError(f"'{key}' contains an entry beyond the float64 range") from None
        if not np.all(np.isfinite(m)):  # the JSON literals NaN, Infinity, 1e999
            raise SchemaError(f"'{key}' contains a non-finite entry")
        matrices[key] = m.reshape(3, 3)
    return CameraRig(**{key.lower(): m for key, m in matrices.items()})


# ---------------------------------------------------------------------------
# Detection records (newline-delimited JSON)


def encode_detections(records: Sequence[DetectionRecord]) -> bytes:
    """One JSON object per line, from the columns of a DetectionTable or a
    sequence of DetectionRecord, with the bytes ``json.dumps`` writes: its
    separators and the ``repr`` of every float; ``score`` only when present."""
    table = DetectionTable.from_records(records)
    scores = ("" if math.isnan(s) else ', "score": %r' % s for s in table.score.tolist())
    rows = zip(table.image_id.tolist(), table.category_id.tolist(), table.bbox.tolist(), scores)
    return "".join(
        '{"image_id": %d, "category_id": %d, "bbox": [%r, %r, %r, %r]%s}\n' % (i, c, *b, s)
        for i, c, b, s in rows
    ).encode("utf-8")


def decode_detections(data: bytes) -> DetectionTable:
    """Parse newline-delimited detection records into a DetectionTable.

    Ground-truth records legitimately omit ``score``. A line that is not
    UTF-8 or not a JSON object, an id that is not an integer (a float of
    integral value such as 1.0 counts as one), or a bbox entry or score that
    is not a number (booleans are not numbers) is a ``ParseError`` naming its
    line. An id outside int64, or a record that ``DetectionRecord`` refuses (a
    non-finite or non-positive box, a score outside [0, 1]), is a
    ``DomainError`` naming its line.
    """
    table = _parse_detection_table(data)
    if table is None:
        table = DetectionTable.from_records(_scan_detection_lines(data))
    return table


# A line as encode_detections writes it: json.dumps separators, keys in this
# order, ids JSON integers and the other fields JSON numbers, the score
# optional, LF-terminated. Every quantifier is possessive: the byte after a
# number is never a digit, ".", "e" or a sign, so no part of a line can be
# read two ways and giving nothing back loses no match. A fullmatch of the
# body then keeps no backtracking state, whatever its length. A bare "-0" in
# a float field is left to the line scanner: json.loads reads it as the int
# 0, whose float is 0.0, where float("-0") is -0.0.
_JSON_INT = r"-?+(?:0|[1-9][0-9]*+)"
_JSON_NUMBER = r"(?!-0[,\]}])" + _JSON_INT + r"(?:\.[0-9]++)?+(?:[eE][-+]?+[0-9]++)?+"
_DETECTION_BODY = re.compile(
    (
        r'(?:\{"image_id": %(i)s, "category_id": %(i)s, '
        r'"bbox": \[%(n)s, %(n)s, %(n)s, %(n)s\](?:, "score": %(n)s)?+\}\n)*+'
        % {"i": _JSON_INT, "n": _JSON_NUMBER}
    ).encode("ascii")
)
_SEPARATORS_TO_SPACE = bytes.maketrans(b":,", b"  ")
_DETECTION_ROW = np.dtype(
    [("image_id", np.int64), ("category_id", np.int64), ("bbox", np.float64, (4,)), ("score", np.float64)]
)


def _parse_detection_table(data: bytes) -> Optional[DetectionTable]:
    """Parse a body of lines in the form encode_detections writes, in one
    pass; None for any other body or one whose table DetectionTable refuses.

    np.loadtxt converts floats with the routine float() uses, as json.loads
    converts them, and refuses an id outside int64.
    """
    if not _DETECTION_BODY.fullmatch(data):
        return None
    if not data:
        return DetectionTable([], [], [], [])
    # Each line becomes the 11 fields
    # image_id I category_id C bbox X Y W H score S, with S nan when absent.
    fields = data.replace(b"]}", b'], "score": nan}').translate(_SEPARATORS_TO_SPACE, b'{}[]"')
    try:
        rows = np.loadtxt(
            io.BytesIO(fields),
            dtype=_DETECTION_ROW,
            comments=None,
            usecols=(1, 3, 5, 6, 7, 8, 10),
            ndmin=1,
            encoding="ascii",
        )
        return DetectionTable(rows["image_id"], rows["category_id"], rows["bbox"], rows["score"])
    except (ValueError, DomainError):
        # an id outside int64, or a row the table refuses: the line scanner
        # names the line
        return None


def _is_number(value) -> bool:
    """True for a JSON number; json.loads gives exactly int or float, and bool is not one."""
    return type(value) in (int, float)


def _record_id(doc: dict, key: str, lineno: int) -> int:
    """A record's id: an int, or a float of integral value, within int64."""
    value = doc[key]
    if not (type(value) is int or (type(value) is float and value.is_integer())):
        raise ParseError(f"{key} must be an integer, got {value!r}", line=lineno)
    if not INT64_MIN <= value <= INT64_MAX:
        raise DomainError(f"line {lineno}: {key} {value!r} is outside the int64 range")
    return int(value)


def _scan_detection_lines(data: bytes) -> list:
    """Check a detection body line by line, raising the first line's error.

    Runs only when the one-pass parse declines the body or its table. A
    body it accepts (e.g. other spacing, key order or line ends) is
    returned as a list of DetectionRecord.
    """
    records = []
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        try:
            raw = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"record is not valid UTF-8 ({exc.reason})", line=lineno) from None
        if raw.strip() == "":
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON record: {exc.msg}", line=lineno) from None
        except (ValueError, RecursionError) as exc:  # an integer too long, nesting too deep
            raise ParseError(f"invalid JSON record: {exc}", line=lineno) from None
        if not isinstance(doc, dict):
            raise ParseError("record must be a JSON object", line=lineno)
        for key in ("image_id", "category_id", "bbox"):
            if key not in doc:
                raise ParseError(f"record is missing '{key}'", line=lineno)
        bbox = doc["bbox"]
        if not isinstance(bbox, list) or len(bbox) != 4:
            raise ParseError("bbox must be a 4-element array", line=lineno)
        if not all(map(_is_number, bbox)):
            raise ParseError("bbox entries must be numeric", line=lineno)
        image_id = _record_id(doc, "image_id", lineno)
        category_id = _record_id(doc, "category_id", lineno)
        score = doc.get("score")
        if score is not None and not _is_number(score):
            raise ParseError(f"score must be a number, got {score!r}", line=lineno)
        try:
            record = DetectionRecord(image_id, category_id, tuple(bbox), score)
        except DomainError as exc:
            raise DomainError(f"line {lineno}: {exc}") from None
        records.append(record)
    return records
